"""A fleet of Uni-Render chips with pluggable sharding policies.

The cluster tracks, per chip, when it frees up, which pipeline its PE
array is currently configured for, and lifetime accounting (busy time,
cycles, energy, reconfigurations, provisioned cost). Fleets may be
*heterogeneous* — each chip its own :class:`AcceleratorConfig` (mixed
PE/SRAM scales) — and *elastic*: the autoscaler adds chips (with a
warm-up delay) and retires them mid-run; retired chips stop receiving
work but keep their accounting for the final report.

A sharding policy picks the chip a batch runs on:

* ``round-robin`` — rotate through chips, skipping busy chips whenever
  an idle one exists at dispatch time.
* ``least-loaded`` — the chip that frees up earliest.
* ``pipeline-affinity`` — prefer a chip already configured for the
  batch's pipeline when waiting for it costs less than reconfiguring a
  cold one; fall back to least-loaded.
* ``cost-aware`` — the cheapest chip (by provisioned cost rate) that
  can still start the batch within its SLO deadline; ties break to the
  earliest-free chip, and when no chip makes the deadline the policy
  degrades to least-loaded to limit the damage.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Container, Sequence

from repro.core.config import AcceleratorConfig
from repro.core.simulator import UniRenderAccelerator
from repro.errors import ConfigError
from repro.serve.batcher import Batch


@dataclass
class ChipState:
    """One accelerator of the fleet plus its serving state.

    ``retired_at_s`` and ``down_since_s`` change only through the owning
    :class:`ServeCluster`'s actuators (:meth:`~ServeCluster.add_chip`,
    :meth:`~ServeCluster.retire_chip`, :meth:`~ServeCluster.mark_down`,
    :meth:`~ServeCluster.mark_up`): the cluster indexes its live fleet
    by them, so a direct write would desynchronize that index.
    """

    chip_id: int
    accelerator: UniRenderAccelerator
    free_at_s: float = 0.0
    configured_pipeline: str | None = None

    # Elastic lifecycle: when the chip joined the fleet and (if the
    # autoscaler retired it) when it stopped accruing provisioned cost.
    added_at_s: float = 0.0
    retired_at_s: float | None = None

    # Lifetime accounting.
    busy_s: float = 0.0
    requests_served: int = 0
    frame_cycles: float = 0.0
    switch_cycles: float = 0.0          # service-level pipeline switches
    frame_reconfig_cycles: float = 0.0  # intra-frame reconfigurations
    pipeline_switches: int = 0
    energy_j: float = 0.0

    # Fault lifecycle (driven by a FaultPlan; all zero on healthy runs).
    down_since_s: float | None = None   # open outage start, None == up
    down_s: float = 0.0                 # closed-outage downtime total
    n_crashes: int = 0
    lost_work_s: float = 0.0            # chip time burned on aborted frames

    @property
    def config(self) -> AcceleratorConfig:
        return self.accelerator.config

    @property
    def active(self) -> bool:
        return self.retired_at_s is None

    @property
    def available(self) -> bool:
        """Active and not currently crashed — the dispatcher's and the
        autoscaler's notion of real capacity."""
        return self.retired_at_s is None and self.down_since_s is None

    @property
    def switch_s(self) -> float:
        """Wall time of one pipeline switch on this chip."""
        return self.config.reconfigure_cycles / self.config.clock_hz

    def utilization(self, horizon_s: float) -> float:
        """Busy fraction of this chip's *provisioned* lifetime up to the
        absolute time ``horizon_s`` — a chip added late or retired early
        is scored over the span it was actually paid for."""
        alive = self.alive_s(horizon_s)
        return self.busy_s / alive if alive > 0 else 0.0

    def alive_s(self, horizon_s: float) -> float:
        """Provisioned wall time: join to retirement (or the horizon)."""
        end = self.retired_at_s if self.retired_at_s is not None else horizon_s
        return max(0.0, end - self.added_at_s)

    def cost_units(self, horizon_s: float) -> float:
        """Provisioned cost: chip-seconds weighted by the chip's rate."""
        return self.alive_s(horizon_s) * self.config.chip_cost_rate

    def down_total_s(self, horizon_s: float) -> float:
        """Total downtime up to ``horizon_s``, including an outage that
        is still open at the horizon (a permanent crash)."""
        down = self.down_s
        if self.down_since_s is not None:
            down += max(0.0, horizon_s - self.down_since_s)
        return down

    def availability(self, horizon_s: float) -> float:
        """Up fraction of the chip's provisioned lifetime (1.0 when the
        chip never crashed)."""
        alive = self.alive_s(horizon_s)
        if alive <= 0:
            return 1.0
        return max(0.0, 1.0 - self.down_total_s(horizon_s) / alive)

    def to_dict(self, horizon_s: float) -> dict:
        """JSON summary; ``horizon_s`` is the absolute end time both
        utilization and provisioned cost are scored against."""
        return {
            "chip_id": self.chip_id,
            "config": self.config.label,
            "requests_served": self.requests_served,
            "busy_s": self.busy_s,
            "utilization": self.utilization(horizon_s),
            "pipeline_switches": self.pipeline_switches,
            "switch_cycles": self.switch_cycles,
            "frame_reconfig_cycles": self.frame_reconfig_cycles,
            "energy_j": self.energy_j,
            "configured_pipeline": self.configured_pipeline,
            "added_at_s": self.added_at_s,
            "retired_at_s": self.retired_at_s,
            "alive_s": self.alive_s(horizon_s),
            "cost_units": self.cost_units(horizon_s),
            "n_crashes": self.n_crashes,
            "down_s": self.down_total_s(horizon_s),
            "lost_work_s": self.lost_work_s,
            "availability": self.availability(horizon_s),
        }


_free_at = operator.attrgetter("free_at_s")


#: A policy maps (active chips, batch, now, est_service_s) -> the chip
#: to run the batch on. ``est_service_s`` is the dispatcher's current
#: estimate of one frame's service time (0.0 while the service is cold);
#: only deadline-aware policies use it.
ShardingPolicy = Callable[[list[ChipState], Batch, float, float], ChipState]


def _round_robin() -> ShardingPolicy:
    state = {"next": 0}

    def pick(chips: list[ChipState], batch: Batch, now: float,
             est_service_s: float = 0.0) -> ChipState:
        # Rotate, but never queue behind a busy chip while another sits
        # idle: scan forward from the pointer for an idle chip first.
        n = len(chips)
        for k in range(n):
            chip = chips[(state["next"] + k) % n]
            if chip.free_at_s <= now:
                state["next"] = (state["next"] + k + 1) % n
                return chip
        chip = chips[state["next"] % n]
        state["next"] = (state["next"] + 1) % n
        return chip

    return pick


def _least_loaded(chips: list[ChipState], batch: Batch, now: float,
                  est_service_s: float = 0.0) -> ChipState:
    # One pass in chip-id order: a strict ``<`` keeps the lowest chip id
    # among equally early chips.
    best = chips[0]
    best_free = best.free_at_s
    for chip in chips:
        if chip.free_at_s < best_free:
            best = chip
            best_free = chip.free_at_s
    return best


def _pipeline_affinity(chips: list[ChipState], batch: Batch, now: float,
                       est_service_s: float = 0.0) -> ChipState:
    # One pass finds both the earliest-free chip and the earliest-free
    # chip already configured for the batch's pipeline (lowest chip id
    # among ties, as in ``_least_loaded``).
    pipeline = batch.pipeline
    coldest = chips[0]
    cold_free = coldest.free_at_s
    warmest = None
    warm_free = 0.0
    for chip in chips:
        free = chip.free_at_s
        if free < cold_free:
            coldest = chip
            cold_free = free
        if chip.configured_pipeline == pipeline and (
                warmest is None or free < warm_free):
            warmest = chip
            warm_free = free
    if warmest is None or warmest is coldest:
        return coldest
    # Waiting for the warm chip is worth at most one avoided switch.
    cold_start = max(now, cold_free)
    warm_start = max(now, warm_free)
    if warm_start <= cold_start + coldest.switch_s:
        return warmest
    return coldest


def _cost_aware(chips: list[ChipState], batch: Batch, now: float,
                est_service_s: float = 0.0) -> ChipState:
    """Cheapest chip that can still finish the batch head within its SLO.

    Feasibility projects the first frame's *completion*: queue wait,
    plus a pipeline switch if the chip is cold, plus the dispatcher's
    fleet-wide service-time estimate (an approximation — frames run
    faster on scaled-up chips than the blended estimate says). Packs
    work onto the cheapest feasible chips (letting pricier ones drain,
    which is what allows the autoscaler to retire them); when no chip
    makes the deadline, degrades to least-loaded.
    """
    deadline = min(
        (r.arrival_s + r.effective_slo_s for r in batch.requests),
        default=float("inf")
    )
    feasible = []
    for chip in chips:
        start = max(now, chip.free_at_s)
        if chip.configured_pipeline != batch.pipeline:
            start += chip.switch_s
        if start + est_service_s <= deadline:
            feasible.append(chip)
    if not feasible:
        return _least_loaded(chips, batch, now)
    return min(
        feasible,
        key=lambda c: (c.config.chip_cost_rate, c.free_at_s, c.chip_id),
    )


#: Registry of policy factories (fresh state per cluster).
SHARDING_POLICIES: dict[str, Callable[[], ShardingPolicy]] = {
    "round-robin": _round_robin,
    "least-loaded": lambda: _least_loaded,
    "pipeline-affinity": lambda: _pipeline_affinity,
    "cost-aware": lambda: _cost_aware,
}


def parse_fleet_spec(
    spec: str, base: AcceleratorConfig | None = None
) -> list[AcceleratorConfig]:
    """Parse a ``--fleet-spec`` string into per-chip configs.

    Each comma-separated entry is ``[count*]PExSRAM`` where PE and SRAM
    are power-of-two scale factors applied to ``base`` via
    :meth:`AcceleratorConfig.scaled`. Examples::

        "1x1,1x1,2x2"   -> two baseline chips and one 2x-PE/2x-SRAM chip
        "3*1x1,1*4x2"   -> three baseline chips and one 4x-PE/2x-SRAM chip
    """
    base = base if base is not None else AcceleratorConfig()
    configs: list[AcceleratorConfig] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        count = 1
        if "*" in entry:
            head, _, entry = entry.partition("*")
            try:
                count = int(head)
            except ValueError as err:
                raise ConfigError(
                    f"bad fleet-spec count in {raw!r}") from err
            if count < 1:
                raise ConfigError(f"fleet-spec count must be >= 1 in {raw!r}")
        try:
            pe_s, sram_s = (int(part) for part in entry.split("x"))
        except ValueError as err:
            raise ConfigError(
                f"bad fleet-spec entry {raw!r}; expected [count*]PExSRAM"
            ) from err
        configs.extend([base.scaled(pe_s, sram_s)] * count)
    if not configs:
        raise ConfigError(f"fleet spec {spec!r} describes no chips")
    return configs


class ServeCluster:
    """A fleet of Uni-Render chips behind one dispatcher.

    ``n_chips`` identical chips by default; pass ``configs`` (a list of
    per-chip :class:`AcceleratorConfig`) for a heterogeneous fleet. The
    fleet is elastic: :meth:`add_chip` / :meth:`retire_chip` are the
    autoscaler's actuators, :meth:`mark_down` / :meth:`mark_up` the fault
    plan's, and only :attr:`active_chips` receive new batches.

    ``chips`` holds every chip ever added (retired ones keep their
    accounting for the report). The per-event fleet queries —
    :attr:`active_chips`, :attr:`down_chip_ids`, :attr:`n_active`,
    :attr:`n_available`, :attr:`earliest_free_s`, :meth:`has_idle_chip`
    — read an index of the live fleet instead, so they cost O(active), not O(ever added).
    The index is kept by the four actuators above, which are the only
    writers of a chip's ``retired_at_s`` and ``down_since_s``.
    """

    def __init__(
        self,
        n_chips: int = 4,
        config: AcceleratorConfig | None = None,
        policy: str = "pipeline-affinity",
        configs: Sequence[AcceleratorConfig] | None = None,
        trace_library: object | None = None,
        observer: object | None = None,
    ) -> None:
        if configs is not None and config is not None:
            raise ConfigError("pass either config (homogeneous) or configs")
        if policy not in SHARDING_POLICIES:
            raise ConfigError(
                f"unknown sharding policy {policy!r}; "
                f"choose from {sorted(SHARDING_POLICIES)}"
            )
        if configs is not None:
            chip_configs = list(configs)
        else:
            if n_chips < 1:
                raise ConfigError("cluster needs at least one chip")
            chip_configs = [config] * n_chips
        if not chip_configs:
            raise ConfigError("cluster needs at least one chip")
        self.policy_name = policy
        self._policy = SHARDING_POLICIES[policy]()
        #: Optional persistent trace library (a TraceLibrary or a path
        #: to its JSON artifact): the engine warm-starts the trace
        #: cache from it and flushes updated metadata on shutdown.
        self.trace_library = trace_library
        #: Optional :class:`repro.obs.observer.Observer`: the engine
        #: picks it up (unless one is passed to it directly) and threads
        #: tracing/metrics/flight recording through the run. ``None``
        #: (or an observer with no sinks) records nothing.
        self.observer = observer
        self.chips = [
            ChipState(i, UniRenderAccelerator(cfg))
            for i, cfg in enumerate(chip_configs)
        ]
        self._active: list[ChipState] = list(self.chips)
        self._down: set[int] = set()  # active chips with an open outage

    def __len__(self) -> int:
        return len(self.chips)

    # ------------------------------------------------------------------
    @property
    def active_chips(self) -> list[ChipState]:
        """Live, read-only view of the unretired chips in chip-id order
        (policy tie-breaks and the round-robin pointer index it). Copy
        it before retiring chips while iterating."""
        return self._active

    @property
    def down_chip_ids(self) -> set[int]:
        """Live, read-only view of the ids of active chips that are
        down (crashed and not yet recovered)."""
        return self._down

    @property
    def n_active(self) -> int:
        return len(self._active)

    @property
    def n_available(self) -> int:
        """Active chips that are actually up — provisioned capacity
        minus crashed chips. Equals :attr:`n_active` on healthy runs."""
        return len(self._active) - len(self._down)

    @property
    def lifetime_dirty(self) -> bool:
        """True once any chip has served work or the fleet has flexed —
        the state that makes reuse across runs unsound."""
        return any(
            chip.requests_served > 0
            or chip.busy_s > 0
            or chip.retired_at_s is not None
            or chip.added_at_s > 0
            or chip.n_crashes > 0
            or chip.down_since_s is not None
            for chip in self.chips
        )

    # ------------------------------------------------------------------
    def select_chip(self, batch: Batch, now: float,
                    est_service_s: float = 0.0,
                    exclude: "Container[int] | None" = None) -> ChipState:
        """Policy pick over active chips; ``exclude`` masks chip ids the
        engine has reserved (a staged, not-yet-started batch owns them)."""
        chips = self.active_chips
        if exclude:
            chips = [chip for chip in chips if chip.chip_id not in exclude]
        return self._policy(chips, batch, now, est_service_s)

    @property
    def earliest_free_s(self) -> float:
        return min(map(_free_at, self._active))

    def has_idle_chip(self, now: float) -> bool:
        """True when some active chip could start a batch right now —
        the event engine's dispatch gate (dispatch never queues work
        while every chip is busy; the queue builds so batches coalesce)."""
        for chip in self._active:
            if chip.free_at_s <= now:
                return True
        return False

    # -- elastic actuators ---------------------------------------------
    def add_chip(
        self,
        config: AcceleratorConfig | None = None,
        now: float = 0.0,
        warmup_s: float = 0.0,
    ) -> ChipState:
        """Provision one more chip; it accepts work after ``warmup_s``.

        ``config=None`` clones the fleet's first chip's design point, so
        a scaled homogeneous cluster grows with more of the same chips
        rather than silently reverting to the paper's baseline.
        """
        if config is None:
            config = self.chips[0].config
        chip = ChipState(
            chip_id=len(self.chips),
            accelerator=UniRenderAccelerator(config),
            free_at_s=now + warmup_s,
            added_at_s=now,
        )
        self.chips.append(chip)
        self._active.append(chip)
        return chip

    def retire_chip(self, chip: ChipState, now: float) -> None:
        """Stop routing to ``chip``; it finishes in-flight work first."""
        if not chip.active:
            raise ConfigError(f"chip {chip.chip_id} is already retired")
        if len(self._active) <= 1:
            raise ConfigError("cannot retire the last active chip")
        chip.retired_at_s = max(now, chip.free_at_s)
        self._active.remove(chip)
        self._down.discard(chip.chip_id)

    # -- fault actuators -------------------------------------------------
    def mark_down(self, chip: ChipState, now: float) -> bool:
        """Open an outage on ``chip`` at ``now`` (a crash). Returns False,
        changing nothing, when the chip is retired or already down."""
        if not chip.active or chip.down_since_s is not None:
            return False
        chip.down_since_s = now
        chip.n_crashes += 1
        self._down.add(chip.chip_id)
        return True

    def mark_up(self, chip: ChipState, now: float) -> bool:
        """Close ``chip``'s open outage at ``now`` (a recovery). Returns
        False, changing nothing, when the chip is not down."""
        if chip.down_since_s is None:
            return False
        chip.down_s += now - chip.down_since_s
        chip.down_since_s = None
        self._down.discard(chip.chip_id)
        return True
