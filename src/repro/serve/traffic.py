"""Deterministic, seeded workload generators for the rendering service.

Each pattern shapes *arrival times*; scenes and pipelines are drawn per
request from the provided sets. All randomness flows through one
``numpy`` generator seeded by the caller, so a (pattern, seed, n)
triple always reproduces the same trace — the property the
policy-comparison experiments and tests rely on.

Patterns (RZBENCH-style scenario diversity):

* ``steady``  — Poisson arrivals at a constant rate.
* ``bursty``  — short high-rate bursts separated by idle gaps.
* ``diurnal`` — sinusoidally modulated rate (a compressed day).
* ``mixed``   — steady arrivals, but every request draws a pipeline
  uniformly from the full set (maximum pipeline churn).

Every stream is first drawn as columns (arrival times, scenes,
pipelines) by :func:`_traffic_columns`; :func:`_merge_columns` then
merges one or more streams by arrival and builds each
:class:`RenderRequest` exactly once, with its final id and tenant.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.serve.request import DEFAULT_TENANT, RenderRequest, TenantClass

#: Default request mix: two scenes, three pipelines with distinct
#: PE-array configurations (so pipeline switches actually occur).
DEFAULT_SCENES = ("lego", "room")
DEFAULT_PIPELINES = ("hashgrid", "gaussian", "mesh")
DEFAULT_RESOLUTION = (640, 360)


def _steady_arrivals(n: int, rate_rps: float, rng: np.random.Generator) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate_rps, n))


def _bursty_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    burst_size: int = 16,
    burst_rate_factor: float = 10.0,
) -> np.ndarray:
    """Bursts of ``burst_size`` requests at ``burst_rate_factor`` times
    the mean rate, spaced so the long-run rate still averages out.

    All in-burst gaps come from one draw; the idle step restoring the
    long-run mean rate sits after each full burst, and one running sum
    over the interleaved steps adds them in arrival order."""
    gaps = rng.exponential(1.0 / (rate_rps * burst_rate_factor), n)
    idle = burst_size / rate_rps * (1.0 - 1.0 / burst_rate_factor)
    index = np.arange(n)
    slots = index + index // burst_size  # each gap's place among the steps
    steps = np.full(n + (n - 1) // burst_size, idle)
    steps[slots] = gaps
    return np.cumsum(steps)[slots]


def _diurnal_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    period_s: float = 4.0,
    depth: float = 0.8,
) -> np.ndarray:
    """Rate swings sinusoidally between (1-depth) and (1+depth) of the
    mean over ``period_s`` — a day compressed to simulation scale."""
    # exponential(scale) is scale * standard_exponential(): one draw of
    # all n, scaled by the rate at each arrival.
    times = np.empty(n)
    t = 0.0
    for k, draw in enumerate(rng.standard_exponential(n).tolist()):
        local_rate = rate_rps * (1.0 + depth * np.sin(2.0 * np.pi * t / period_s))
        t += draw * (1.0 / max(local_rate, 1e-6))
        times[k] = t
    return times


_ARRIVAL_SHAPES = {
    "steady": _steady_arrivals,
    "bursty": _bursty_arrivals,
    "diurnal": _diurnal_arrivals,
    "mixed": _steady_arrivals,
}

#: Public pattern names, in presentation order.
TRAFFIC_PATTERNS = tuple(_ARRIVAL_SHAPES)


class _Columns(NamedTuple):
    """One generated stream, column by column, plus its per-stream
    request fields."""

    arrival_s: np.ndarray
    scene: list[str]
    pipeline: list[str]
    width: int
    height: int
    slo_s: float


def _traffic_columns(
    pattern: str = "steady",
    n_requests: int = 200,
    rate_rps: float = 150.0,
    seed: int = 0,
    scenes: tuple[str, ...] = DEFAULT_SCENES,
    pipelines: tuple[str, ...] = DEFAULT_PIPELINES,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    slo_s: float = 0.05,
    pipeline_run_length: int = 4,
) -> _Columns:
    """Draw one stream's columns (see :func:`generate_traffic`)."""
    if pattern not in _ARRIVAL_SHAPES:
        raise ConfigError(
            f"unknown traffic pattern {pattern!r}; choose from {TRAFFIC_PATTERNS}"
        )
    if n_requests < 1:
        raise ConfigError("n_requests must be >= 1")
    if not math.isfinite(rate_rps):
        raise ConfigError(f"rate must be finite (got {rate_rps})")
    if rate_rps <= 0:
        raise ConfigError("rate must be positive")
    if not scenes or not pipelines:
        raise ConfigError("need at least one scene and one pipeline")

    rng = np.random.default_rng(seed)
    arrivals = _ARRIVAL_SHAPES[pattern](n_requests, rate_rps, rng)

    # Scalar draws in request order: pipeline (at each run start), then
    # scene. Vectorizing them would tie the trace to NumPy's internal
    # bounded-integer algorithm.
    run_length = 1 if pattern == "mixed" else max(1, pipeline_run_length)
    integers = rng.integers
    n_scenes, n_pipelines = len(scenes), len(pipelines)
    scene_column, pipeline_column = [], []
    for k in range(n_requests):
        if k % run_length == 0:
            current_pipeline = pipelines[integers(n_pipelines)]
        pipeline_column.append(current_pipeline)
        scene_column.append(scenes[integers(n_scenes)])
    return _Columns(arrivals, scene_column, pipeline_column,
                    resolution[0], resolution[1], slo_s)


def _merge_columns(
    streams: Sequence[_Columns],
    tenants: Sequence[TenantClass] | None = None,
) -> tuple[list[RenderRequest], list[int]]:
    """Merge streams by (arrival, stream index, local id) and build each
    request once, numbered globally in merged order and tagged with its
    stream's tenant (the default when ``tenants`` is omitted).

    Returns the requests and, for each, the index of its stream. A
    single stream is already in arrival order, so it keeps ids 0..n-1.
    """
    arrivals = np.concatenate([stream.arrival_s for stream in streams])
    # A stable sort of the concatenation breaks arrival ties by stream
    # index, then local id.
    order = np.argsort(arrivals, kind="stable")
    owners = np.repeat(np.arange(len(streams)),
                       [len(stream.scene) for stream in streams])[order].tolist()
    scenes = [scene for stream in streams for scene in stream.scene]
    pipelines = [pipeline for stream in streams for pipeline in stream.pipeline]
    per_stream = [
        (stream.width, stream.height, stream.slo_s, tenant)
        for stream, tenant in zip(
            streams, tenants or [DEFAULT_TENANT] * len(streams))
    ]
    requests = [
        RenderRequest(request_id, scenes[k], pipelines[k], width, height,
                      arrival, slo_s, False, tenant)
        for request_id, (k, (width, height, slo_s, tenant), arrival)
        in enumerate(zip(order.tolist(), [per_stream[o] for o in owners],
                         arrivals[order].tolist()))
    ]
    return requests, owners


def generate_traffic(
    pattern: str = "steady",
    n_requests: int = 200,
    rate_rps: float = 150.0,
    seed: int = 0,
    scenes: tuple[str, ...] = DEFAULT_SCENES,
    pipelines: tuple[str, ...] = DEFAULT_PIPELINES,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    slo_s: float = 0.05,
    pipeline_run_length: int = 4,
) -> list[RenderRequest]:
    """Build one reproducible request trace.

    ``pipeline_run_length`` models client-side temporal locality —
    consecutive frames of one session use one pipeline — for every
    pattern except ``mixed``, which redraws the pipeline per request
    (worst-case churn for the dispatcher).
    """
    columns = _traffic_columns(
        pattern, n_requests, rate_rps, seed, scenes, pipelines, resolution,
        slo_s, pipeline_run_length)
    return _merge_columns([columns])[0]


# ----------------------------------------------------------------------
# Multi-tenant traffic
# ----------------------------------------------------------------------
def parse_tenant_spec(spec: str) -> list[tuple[TenantClass, float]]:
    """Parse a ``--tenants`` string into ``(TenantClass, share)`` pairs.

    Entries are separated by ``;``; each is ``name`` optionally followed
    by ``:key=value,...`` with keys ``tier`` (dispatch priority, lower =
    more premium; defaults to the entry's position), ``weight`` (fleet
    share under weighted admission, default 1), ``slo`` (SLO multiplier
    over the base SLO, default 1), and ``share`` (fraction of offered
    traffic; entries without one split the remainder evenly). Example::

        "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2"
    """
    entries: list[tuple[TenantClass, float | None]] = []
    for index, raw in enumerate(spec.split(";")):
        entry = raw.strip()
        if not entry:
            continue
        name, _, body = entry.partition(":")
        name = name.strip()
        if not name:
            raise ConfigError(f"tenant entry {raw!r} has no name")
        fields = {"tier": float(index), "weight": 1.0, "slo": 1.0,
                  "share": None}
        if body:
            for pair in body.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in fields:
                    raise ConfigError(
                        f"bad tenant field {pair!r} in {raw!r}; expected "
                        "tier=, weight=, slo=, or share="
                    )
                try:
                    fields[key] = float(value)
                except ValueError as err:
                    raise ConfigError(
                        f"tenant field {pair!r} in {raw!r} is not a number"
                    ) from err
        tier = fields["tier"]
        if tier != int(tier):
            raise ConfigError(
                f"tenant tier must be an integer in {raw!r} (got {tier:g})")
        tenant = TenantClass(
            name=name,
            slo_multiplier=fields["slo"],
            weight=fields["weight"],
            tier=int(tier),
        )
        entries.append((tenant, fields["share"]))
    if not entries:
        raise ConfigError(f"tenant spec {spec!r} describes no tenants")
    names = [tenant.name for tenant, _ in entries]
    if len(set(names)) != len(names):
        raise ConfigError(f"tenant spec {spec!r} repeats a tenant name")

    explicit = sum(share for _, share in entries if share is not None)
    free = [k for k, (_, share) in enumerate(entries) if share is None]
    if explicit > 1.0 + 1e-9 or (not free and abs(explicit - 1.0) > 1e-9):
        raise ConfigError(
            f"tenant shares in {spec!r} must sum to 1 (got {explicit:g})")
    if any(share is not None and share <= 0 for _, share in entries):
        raise ConfigError(f"tenant shares in {spec!r} must be positive")
    leftover = (1.0 - explicit) / len(free) if free else 0.0
    if free and leftover <= 0:
        raise ConfigError(
            f"tenant spec {spec!r} leaves no traffic share for "
            f"{[names[k] for k in free]}")
    return [
        (tenant, leftover if share is None else share)
        for tenant, share in entries
    ]


def generate_tenant_traffic(
    tenants: str | Sequence[tuple[TenantClass, float]],
    pattern: str = "steady",
    n_requests: int = 200,
    rate_rps: float = 150.0,
    seed: int = 0,
    overrides: dict[str, dict] | None = None,
    **shared,
) -> list[RenderRequest]:
    """One reproducible multi-tenant trace: per-tenant streams, merged.

    Every tenant gets its ``share`` of the request count and offered
    rate, generated as its own :func:`generate_traffic` stream from a
    seed derived deterministically from ``(seed, tenant index)`` and
    tagged with its :class:`TenantClass`; ``overrides`` maps a tenant
    name to per-tenant :func:`generate_traffic` keyword overrides (its
    own pattern, scenes, SLO, ...). The streams are merged by arrival
    time and re-numbered, so request ids stay globally unique and
    arrival-ordered.
    """
    mix = parse_tenant_spec(tenants) if isinstance(tenants, str) else list(tenants)
    if not mix:
        raise ConfigError("need at least one tenant class")
    total_share = sum(share for _, share in mix)
    if abs(total_share - 1.0) > 1e-9:
        raise ConfigError(
            f"tenant shares must sum to 1 (got {total_share:g})")
    overrides = overrides or {}
    unknown = set(overrides) - {tenant.name for tenant, _ in mix}
    if unknown:
        raise ConfigError(f"traffic overrides for unknown tenants {sorted(unknown)}")
    for name, extra in overrides.items():
        reserved = {"n_requests", "seed"} & set(extra)
        if reserved:
            raise ConfigError(
                f"override for tenant {name!r} may not set {sorted(reserved)}; "
                "request counts come from shares and seeds are derived"
            )

    streams = []
    remaining = n_requests
    for index, (tenant, share) in enumerate(mix):
        if index == len(mix) - 1:
            n_tenant = remaining  # last class absorbs rounding residue
        else:
            n_tenant = min(remaining, max(1, round(n_requests * share)))
        remaining -= n_tenant
        if n_tenant < 1:
            raise ConfigError(
                f"tenant {tenant.name!r} gets no requests at share {share:g}; "
                "raise n_requests"
            )
        kwargs = dict(pattern=pattern, rate_rps=rate_rps * share, **shared)
        kwargs.update(overrides.get(tenant.name, {}))
        streams.append(_traffic_columns(
            n_requests=n_tenant,
            seed=seed * 1_000_003 + index,
            **kwargs,
        ))
    return _merge_columns(streams, [tenant for tenant, _ in mix])[0]
