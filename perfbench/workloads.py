"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload is the path ``repro serve`` / ``repro federate`` take:
generate traffic from a seed, simulate, then ``to_dict()`` and
``json.dumps`` the report. Traces come from the real
``compile_program`` (through ``TraceCache``'s default compiler, or the
timing wrapper a traced run passes as ``compile_fn``).

* ``serve_static`` -- bursty single-tenant traffic on a static 16-chip
  fleet. The only workload on the engine's columnar fast path; traffic
  generation and the 100k-response report are about half its host time.
* ``serve_chaos`` -- two weighted tenants with preemption, a predictive
  autoscaler, a seeded fault plan, hedging and a sampled observer with
  a Chrome-trace export. It runs the engine's general loop, and its
  fleet churn makes report and engine cost grow with chips ever added.
* ``federate_outage`` -- three regions with diurnal traffic, an
  eu-west outage and a us-east|ap-tokyo replication partition. The only
  workload that routes, runs sync epochs and gossips.

Outages, partitions and fault plans are placed at fixed fractions of
the generated horizon, never tuned per seed, so the two known
federation defects show wherever they occur.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.config import AcceleratorConfig
from repro.obs import FlightRecorder, MetricsRegistry, Observer, Tracer
from repro.obs.export import chrome_trace
from repro.serve import (
    Autoscaler,
    ChannelPartition,
    FaultPlan,
    FederationConfig,
    FederationPlan,
    PipelineBatcher,
    RegionOutage,
    ServeCluster,
    TraceCache,
    generate_federation_traffic,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    parse_region_spec,
    simulate_federation,
    simulate_service,
)

from perfbench.gate import check_federation, check_service, federation_defects

STATIC_TRAFFIC = dict(pattern="bursty", n_requests=100_000, rate_rps=1100.0,
                      slo_s=0.05)
STATIC_CHIPS = 16

CHAOS_TENANTS = "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2"
CHAOS_TRAFFIC = dict(pattern="bursty", n_requests=20_000, rate_rps=1100.0,
                     slo_s=0.05)
CHAOS_MIN_CHIPS, CHAOS_MAX_CHIPS = 12, 20

FEDERATION_REGIONS = ("us-east:tz=-5,chips=6;eu-west:tz=1,chips=6,cost=1.2;"
                      "ap-tokyo:tz=9,chips=6")
FEDERATION_PER_REGION = 10_000
FEDERATION_RATE_RPS = 300.0


@dataclass
class Outcome:
    """What one iteration produced, beyond its host time."""

    elapsed_s: float                  # host seconds, spec to report JSON
    n_offered: int
    digest: str                       # sha256 of the report JSON
    violations: list[str]             # correctness-gate findings
    model: dict                       # simulated statistics (not metrics)
    counters: dict                    # per-layer counts
    configs: tuple                    # distinct chip configs used


def _span(spans, name: str):
    return spans.span(name) if spans is not None else nullcontext()


def _cache(compile_fn) -> TraceCache:
    if compile_fn is None:
        return TraceCache(capacity=64)
    return TraceCache(capacity=64, compile_fn=compile_fn)


def _report_json(report, spans) -> str:
    with _span(spans, "report.build"):
        payload = report.to_dict()
    with _span(spans, "report.json"):
        return json.dumps(payload, sort_keys=True)


def _service_model(report) -> dict:
    return {
        "slo_attainment": report.slo_attainment,
        "goodput_slo_attainment": report.goodput_slo_attainment,
        "latency_p50_ms": report.latency_p(50) * 1e3,
        "latency_p99_ms": report.latency_p(99) * 1e3,
        "chip_seconds": report.total_chip_seconds,
        "energy_per_request_j": report.energy_per_request_j,
    }


def _service_counters(report, text: str) -> dict:
    hedged = report.hedge_stats.get("n_hedged", 0)
    return {
        "compile.cache_hit_rate": report.cache_hit_rate,
        "engine.batches": len(report.batch_sizes),
        "engine.mean_batch": report.mean_batch_size,
        "engine.chips_ever": len(report.chips),
        "engine.fleet_events": len(report.fleet_events),
        "engine.preemptions": report.n_preemption_events,
        "engine.crashes": report.fault_stats.get("n_crashes", 0),
        "engine.hedges": hedged,
        "engine.hedge_waste_ratio": (
            report.hedge_stats["n_wasted"] / hedged if hedged else 0.0),
        "report.bytes": len(text),
    }


def _service_outcome(elapsed_s: float, report, trace, text: str) -> Outcome:
    configs = {chip.accelerator.config: None for chip in report.chips}
    return Outcome(
        elapsed_s=elapsed_s,
        n_offered=len(trace),
        digest=hashlib.sha256(text.encode()).hexdigest(),
        violations=check_service(report, trace),
        model=_service_model(report),
        counters=_service_counters(report, text),
        configs=tuple(configs),
    )


# ----------------------------------------------------------------------
def run_serve_static(seed: int, spans=None, compile_fn=None) -> Outcome:
    began = time.perf_counter()
    with _span(spans, "e2e"):
        with _span(spans, "traffic.gen"):
            trace = generate_traffic(seed=seed, **STATIC_TRAFFIC)
        with _span(spans, "engine"):
            report = simulate_service(
                trace,
                ServeCluster(STATIC_CHIPS, policy="pipeline-affinity"),
                cache=_cache(compile_fn),
                batcher=PipelineBatcher(),
            )
        text = _report_json(report, spans)
    elapsed = time.perf_counter() - began
    return _service_outcome(elapsed, report, trace, text)


# ----------------------------------------------------------------------
def chaos_observer() -> Observer:
    return Observer(tracer=Tracer(capacity=65536, sample=0.1),
                    metrics=MetricsRegistry(), flight=FlightRecorder())


def serve_chaos_engine(trace, seed: int, observer, compile_fn):
    """One chaos engine run on fresh stateful parts (fleet, cache,
    autoscaler, admission); the fault plan is drawn from ``seed``."""
    horizon = trace[-1].arrival_s
    plan = FaultPlan.seeded(seed, CHAOS_MIN_CHIPS, horizon, n_crashes=4,
                            n_stragglers=4, rollback_s=0.002)
    return simulate_service(
        trace,
        ServeCluster(CHAOS_MIN_CHIPS, policy="pipeline-affinity"),
        cache=_cache(compile_fn),
        batcher=PipelineBatcher(),
        autoscaler=Autoscaler(min_chips=CHAOS_MIN_CHIPS,
                              max_chips=CHAOS_MAX_CHIPS, mode="predictive"),
        admission=make_admission_policy("weighted"),
        preempt=True,
        faults=plan,
        hedge=True,
        observer=observer,
    )


def chaos_traffic(seed: int):
    return generate_tenant_traffic(CHAOS_TENANTS, seed=seed, **CHAOS_TRAFFIC)


def run_serve_chaos(seed: int, spans=None, compile_fn=None) -> Outcome:
    began = time.perf_counter()
    with _span(spans, "e2e"):
        with _span(spans, "traffic.gen"):
            trace = chaos_traffic(seed)
        with _span(spans, "engine"):
            observer = chaos_observer()
            report = serve_chaos_engine(trace, seed, observer, compile_fn)
        text = _report_json(report, spans)
        with _span(spans, "obs.export"):
            json.dumps(chrome_trace(observer.tracer, metrics=observer.metrics))
    elapsed = time.perf_counter() - began
    outcome = _service_outcome(elapsed, report, trace, text)
    outcome.counters.update({
        "obs.events": observer.tracer.recorded,
        "obs.dropped": observer.tracer.dropped,
    })
    return outcome


# ----------------------------------------------------------------------
def federation_plan(horizon_s: float) -> FederationPlan:
    return FederationPlan(
        outages=[RegionOutage("eu-west", 0.4 * horizon_s, 0.5 * horizon_s)],
        partitions=[ChannelPartition("us-east", "ap-tokyo",
                                     0.3 * horizon_s, 0.6 * horizon_s)],
    )


def run_federate_outage(seed: int, spans=None, compile_fn=None) -> Outcome:
    began = time.perf_counter()
    with _span(spans, "e2e"):
        with _span(spans, "traffic.gen"):
            specs = parse_region_spec(FEDERATION_REGIONS)
            streams = generate_federation_traffic(
                specs, n_requests_per_region=FEDERATION_PER_REGION,
                rate_rps=FEDERATION_RATE_RPS, seed=seed, pattern="diurnal")
        with _span(spans, "federation"):
            horizon = max(stream[-1].arrival_s
                          for stream in streams.values())
            report = simulate_federation(
                specs, streams, config=FederationConfig(gossip=True),
                plan=federation_plan(horizon), compile_fn=compile_fn)
        text = _report_json(report, spans)
    elapsed = time.perf_counter() - began
    completed = report.completed
    hits = sum(r["cache"]["hits"] for r in report.regions.values())
    lookups = hits + sum(r["cache"]["misses"]
                         for r in report.regions.values())
    counters = {
        "compile.cache_hit_rate": hits / lookups if lookups else 0.0,
        "report.bytes": len(text),
        "federation.epochs": report.n_epochs,
        "federation.gossip_messages": report.gossip_stats["messages"],
        "federation.failovers": report.n_failovers,
    }
    counters.update({f"federation.{name}": count
                     for name, count in federation_defects(report).items()})
    model = {
        "slo_attainment": report.slo_attainment,
        "goodput_slo_attainment": report.goodput_slo_attainment,
        "latency_p50_ms": report.latency_p(50) * 1e3,
        "latency_p99_ms": report.latency_p(99) * 1e3,
        "chip_seconds": report.total_chip_seconds,
        "energy_per_request_j": (
            sum(f.response.energy_j for f in completed) / len(completed)),
    }
    return Outcome(
        elapsed_s=elapsed,
        n_offered=report.n_offered,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        violations=check_federation(report, streams),
        model=model,
        counters=counters,
        # Every region's fleet is ServeCluster(n_chips) on the default
        # design point.
        configs=(AcceleratorConfig(),),
    )


WORKLOADS = {
    "serve_static": run_serve_static,
    "serve_chaos": run_serve_chaos,
    "federate_outage": run_federate_outage,
}
