"""Frozen report digests: the event loop's output, pinned byte for byte.

Each scenario below runs one configuration through ``simulate_service``
and pins the sha256 of ``json.dumps(report.to_dict(), sort_keys=True)``.
The two observed scenarios also pin their observer artifacts: the
Chrome-trace export (events plus the metrics counter tracks) and the
metrics snapshot (final values plus the snapshot timeline).

The scenarios cover the engine's configuration space: bare traffic
patterns, shedding and tail-drop admission, sync-visible compile, wide
arrival windows, async compile workers, strict-tier and three-tier
tenant mixes, every sharding policy, a cache eviction storm, a
one-entry cache that evicts on every frame, preemption under weighted
admission, chip faults (also under shedding admission), hedging, and
randomized multi-tenant traffic under each admission mode.

A digest changes only when the engine's schedule or a report field
changes. Such a change must be deliberate and explained; an engine
refactor that is meant to be exact must leave every digest as it is.
"""

import hashlib
import json
import random

import pytest

from repro.core.config import CompileLatencyModel
from repro.obs import FlightRecorder, MetricsRegistry, Observer, Tracer
from repro.obs.export import chrome_trace
from repro.serve import (
    ChipCrash,
    FaultPlan,
    HedgePolicy,
    PipelineBatcher,
    ServeCluster,
    StragglerWindow,
    TenantClass,
    TraceCache,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    simulate_service,
)
from repro.serve.admission import TailDrop
from tests.test_serve_invariants import stub_program

MODEL = CompileLatencyModel()


def stub_cache(capacity=64, model=None):
    return TraceCache(capacity=capacity,
                      compile_fn=lambda key: stub_program(key[1]),
                      latency_model=model)


def trace(pattern="bursty", n=160, rate=400.0, seed=3,
          scenes=("lego", "room"), slo=0.02):
    return generate_traffic(pattern, n_requests=n, rate_rps=rate, seed=seed,
                            scenes=scenes, resolution=(64, 64), slo_s=slo)


def tenant_trace(mix=None, n=160, rate=600.0, seed=3, slo=0.02):
    """A strict-tier multi-tenant trace (no weights — tiers only)."""
    if mix is None:
        mix = [(TenantClass("premium", tier=0), 0.3),
               (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.7)]
    return generate_tenant_traffic(
        mix, pattern="bursty", n_requests=n, rate_rps=rate, seed=seed,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=slo)


def weighted_trace(n, rate):
    """A weighted two-tenant trace (weighted admission's input)."""
    return generate_tenant_traffic(
        [(TenantClass("premium", weight=4.0), 0.25),
         (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.75)],
        pattern="bursty", n_requests=n, rate_rps=rate, seed=3,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=0.02)


def serve(requests, chips=2, cache=None, policy="pipeline-affinity",
          **kwargs):
    return simulate_service(
        requests, ServeCluster(chips, policy=policy),
        cache=cache if cache is not None else stub_cache(),
        batcher=kwargs.pop("batcher", PipelineBatcher()), **kwargs)


def full_observer():
    return Observer(tracer=Tracer(), metrics=MetricsRegistry(),
                    flight=FlightRecorder())


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def random_tenant_run(seed, admission):
    """Randomized tiered traffic under one admission mode."""
    offset = {None: 0, "slo-shed": 1, "weighted": 2}[admission]
    rng = random.Random(101 * seed + offset)
    n_tiers = rng.randint(2, 3)
    share = 1.0 / n_tiers
    mix = [(TenantClass(f"t{tier}",
                        slo_multiplier=1.0 + tier * rng.uniform(0.5, 1.5),
                        weight=float(n_tiers - tier), tier=tier), share)
           for tier in range(n_tiers)]
    requests = generate_tenant_traffic(
        mix, pattern=rng.choice(["steady", "bursty"]),
        n_requests=rng.randint(80, 200),
        rate_rps=rng.uniform(500.0, 4000.0), seed=seed,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=0.02)
    return serve(requests, chips=rng.randint(1, 3),
                 admission=(None if admission is None
                            else make_admission_policy(admission)))


HEDGE = HedgePolicy(quantile=0.5, multiplier=0.5, min_samples=4, window=32)

#: Scenario name -> a zero-argument run returning the report.
SCENARIOS = {
    "bare[steady]": lambda: serve(trace("steady")),
    "bare[bursty]": lambda: serve(trace("bursty")),
    "bare[diurnal]": lambda: serve(trace("diurnal")),
    "slo-shed": lambda: serve(
        trace(rate=4000.0, slo=0.002), chips=1,
        admission=make_admission_policy("slo-shed")),
    "tail-drop": lambda: serve(
        trace(rate=4000.0, slo=0.002), chips=1,
        admission=TailDrop(max_queue=4)),
    "sync-compile": lambda: serve(trace(), compile_latency=MODEL),
    "async-compile": lambda: serve(
        trace(n=300, rate=5000.0, seed=9,
              scenes=tuple(f"s{i}" for i in range(8))),
        cache=stub_cache(model=MODEL), compile_workers=2,
        compile_latency=MODEL),
    "large-windows": lambda: serve(trace(
        n=400, rate=8000.0, seed=7,
        scenes=tuple(f"s{i}" for i in range(10)))),
    "single-request": lambda: serve(trace(n=1)),
    "strict-tier": lambda: serve(tenant_trace()),
    "three-tier": lambda: serve(tenant_trace(
        mix=[(TenantClass("gold", tier=0), 0.2),
             (TenantClass("silver", slo_multiplier=1.5, tier=1), 0.3),
             (TenantClass("bronze", slo_multiplier=3.0, tier=2), 0.5)],
        n=240, rate=1500.0)),
    "tiered-slo-shed": lambda: serve(
        tenant_trace(rate=6000.0, slo=0.002), chips=1,
        admission=make_admission_policy("slo-shed")),
    "eviction-storm": lambda: serve(
        trace(n=300, rate=5000.0, seed=9,
              scenes=tuple(f"s{i}" for i in range(8))),
        cache=stub_cache(capacity=3, model=MODEL)),
    "one-entry-cache": lambda: serve(
        generate_traffic("steady", n_requests=40, rate_rps=1500.0, seed=3,
                         scenes=("a", "b"), pipelines=("hashgrid",),
                         resolution=(64, 64), slo_s=0.05),
        chips=1, cache=stub_cache(capacity=1, model=MODEL),
        batcher=PipelineBatcher(max_batch=1)),
    "preempt-weighted": lambda: serve(
        weighted_trace(n=80, rate=600.0),
        admission=make_admission_policy("weighted"), preempt=True),
    "preempt-overload": lambda: serve(
        weighted_trace(n=160, rate=6000.0),
        admission=make_admission_policy("weighted"), preempt=True),
    "chaos": lambda: serve(
        trace(n=160, rate=2500.0), chips=3,
        faults=FaultPlan(
            crashes=[ChipCrash(0, 0.005, 0.02), ChipCrash(2, 0.012, None)],
            stragglers=[StragglerWindow(1, 0.0, 0.06, 3.0)])),
    "chaos+slo-shed": lambda: serve(
        trace(n=200, rate=4000.0, slo=0.004), chips=3,
        admission=make_admission_policy("slo-shed"),
        faults=FaultPlan(
            crashes=[ChipCrash(0, 0.005, 0.02), ChipCrash(2, 0.012, None)],
            stragglers=[StragglerWindow(1, 0.0, 0.06, 3.0)])),
    "hedge": lambda: serve(trace(n=160, rate=4000.0), hedge=HEDGE),
    "chaos+hedge": lambda: serve(
        trace(n=160, rate=4000.0), chips=3, hedge=HEDGE,
        faults=FaultPlan(
            crashes=[ChipCrash(1, 0.008, 0.03)],
            stragglers=[StragglerWindow(0, 0.01, 0.05, 2.5)])),
}
for _policy in ("round-robin", "least-loaded", "pipeline-affinity",
                "cost-aware"):
    SCENARIOS[f"policy[{_policy}]"] = (
        lambda p=_policy: serve(trace(n=240, rate=2500.0), chips=3,
                                policy=p))
for _seed in (5, 11, 23):
    for _admission in (None, "slo-shed", "weighted"):
        SCENARIOS[f"random[{_seed}-{_admission}]"] = (
            lambda s=_seed, a=_admission: random_tenant_run(s, a))

REPORT_DIGESTS = {
    "async-compile":
        "c2e764345a28baa230244f2d577def87ca9e94a1f2cc30d1439d7d2706320f53",
    "chaos+slo-shed":
        "c73eb13a0b59bc3ac8eee14588404b8b756095be0c8dce9f3797f27b056818ba",
    "bare[bursty]":
        "4798d6caefc1483b2c5b38be129290c335410ccec408f8568b0709c087406498",
    "bare[diurnal]":
        "c97cad8d7854c363ca59435328ebd7e3f865c366d34a90cf990650b5cc0cbc4f",
    "bare[steady]":
        "cd2bec3c992994cae966a7ecf57824404bbf8f9589fde979b5bbdd7fe6608ba9",
    "chaos":
        "9770f2ddc929509dde53dceed93b720c1d5a3063d7b3a8cf1750585e70190642",
    "chaos+hedge":
        "9bc4d31e8f7148f93b528ec273dfec41a1022b2832a77c911b55f4336e019d7a",
    "eviction-storm":
        "0963b9d8d916cdea754122e3cb8974554f166abf08fc950f36049b68b995052e",
    "hedge":
        "79aec5ec7fe6312a31db371e722fee2bc60f87e5c345bc47daff209701e07595",
    "large-windows":
        "cb7a49a33e28358d1fd5dac8c4514d93ee1d5e92aa2e4633954dbd24f926a748",
    "one-entry-cache":
        "e68b91d87296838ce20224fc27d24fd688f0ddf568486b75414977f9a78805f1",
    "policy[cost-aware]":
        "9669e527b89a2c0d62ec5ac58fb0c4eeb12bdfa2d406449fbe3bef82b70a99a1",
    "policy[least-loaded]":
        "1570986f1d257b8c95105d528551712e5f0b00075e514cbcc1f8ae491c795138",
    "policy[pipeline-affinity]":
        "c7f594fd3449e09ccb34edc5cb98804fa3bedb82760f227ea227cdc00dbbd8a8",
    "policy[round-robin]":
        "a2b11c833196966013778188ef25b6ba0b0222a1bfd9b3eaa5b63a10be589560",
    "preempt-overload":
        "4e3d6e2d8609ade1ce95715eda4c02f3118189bd376d0c45b1045422da8453f7",
    "preempt-weighted":
        "86809600619e5bf3312c59761888a60beefd47a16e69275cbac8ca1c4902b6a7",
    "random[11-None]":
        "29f7b4f2c2e188811103feb1fbd0754b0598bf291f09385633ec67791ead1a5f",
    "random[11-slo-shed]":
        "38e517a9730d37c7f5765c169c03d78ba2640ebaba063ce1cd67112e15834134",
    "random[11-weighted]":
        "db0b2a47195294160bf2b273594799334dc86e95e39d34de054e5e899f68a83a",
    "random[23-None]":
        "bacf12241f1492fd537dafcef86bc1a6247db41f292ed8508f931840c0b028be",
    "random[23-slo-shed]":
        "421e4d1dd14455ae9417c20100356ab0b20fc2276e2bfe5562d549a6e81de5aa",
    "random[23-weighted]":
        "633fe685f45fa687a78939f634e03badf3596d34323f8d3ad3fe5815ea2ba6fa",
    "random[5-None]":
        "8cde6243e2df7245be193a4241ddd2f6558337ba620799de98bff8c9ab2d68c7",
    "random[5-slo-shed]":
        "bf11af25c2839cf7ab6c7df0ad67df480d48caa9dd5267a6f2ce5ccde4eafaff",
    "random[5-weighted]":
        "69232f41ba77099e03b24114c02ce90f23108c9b32e38ceee11cd295ab940fba",
    "single-request":
        "2dd958350e6674f7e1569d47ab1eb54341222067bd12e538c618da17936ef4c8",
    "slo-shed":
        "95c2c0d4a7b41883fad3ab833874ed1e19644088a84097bf05219b8440f52aa3",
    "strict-tier":
        "02395bff7078b7dae6a7a24fe727a688416fbaa8d39f6d4f62ff71cabccad9d0",
    "sync-compile":
        "08328611c8c4a0a054c6f4eb08257eb6f1bbfe8854beb4060dbba2b4d5acd7de",
    "tail-drop":
        "0d816817b253b5e678717ffc7980fabb6232e94234b56b17851d88968a5e7ddd",
    "three-tier":
        "3cc7745d7aafa0c433d7a7a5e092083fe1bf00a977c951515e47b1d4ee4c45a5",
    "tiered-slo-shed":
        "759f6001dfc03c25f2946a40d6a1ead7fe348c50e1f3c16d9bb59242daf44479",
}

#: Observed scenario name -> run(observer) returning the report.
OBSERVED = {
    "observed-sync-compile": lambda obs: serve(
        trace(n=200, rate=3000.0), observer=obs, compile_latency=MODEL),
    "observed-tiered-shed": lambda obs: serve(
        tenant_trace(rate=6000.0, slo=0.002), chips=1, observer=obs,
        admission=make_admission_policy("slo-shed")),
}

#: Observed scenario -> (report, Chrome trace, metrics snapshot) digests.
OBSERVED_DIGESTS = {
    "observed-sync-compile": (
        "6842618dc554854406097bd2d2730493c00e4d7e6eae127c996b0fab58e3b67c",
        "b7f091e27ddff3e45a3d33c772201fa56d9c0c5ebc2d152faa1f0a9db979c8d7",
        "ea2b0d7bf02326dcea11f0112f90a838e6761010696d66549a9e28976a1e82b9"),
    "observed-tiered-shed": (
        "759f6001dfc03c25f2946a40d6a1ead7fe348c50e1f3c16d9bb59242daf44479",
        "162ae5448ff80bf0aed9bde5f3be696b06ad55e630e8558067125fac903d0964",
        "6a222474c0e7abaf2d1b21cb59125166423e22db5b135a359efe371fddaa3de2"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest(name):
    report = SCENARIOS[name]()
    assert digest(report.to_dict()) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_observed_digests(name):
    obs = full_observer()
    report = OBSERVED[name](obs)
    metrics = obs.metrics
    got = (
        digest(report.to_dict()),
        digest(chrome_trace(obs.tracer, metrics)),
        digest({"values": metrics.flatten(), "timeline": metrics.timeline}),
    )
    assert got == OBSERVED_DIGESTS[name]


def test_scenarios_exercise_their_features():
    # The digests only guard what the scenarios actually reach.
    assert SCENARIOS["slo-shed"]().n_shed > 0
    assert SCENARIOS["tail-drop"]().n_shed > 0
    assert any(r.compile_origin == "sync"
               for r in SCENARIOS["sync-compile"]().responses)
    assert SCENARIOS["eviction-storm"]().cache_stats["evictions"] > 0
    assert SCENARIOS["one-entry-cache"]().cache_stats["evictions"] > 0
    assert SCENARIOS["preempt-overload"]().n_preemption_events > 0
    assert SCENARIOS["chaos"]().fault_stats["n_crashes"] == 2
    assert SCENARIOS["async-compile"]().compile_stats["demand_jobs"] > 0
    shed_under_faults = SCENARIOS["chaos+slo-shed"]()
    assert shed_under_faults.n_shed > 0
    assert shed_under_faults.fault_stats["n_crashes"] == 2
    assert SCENARIOS["hedge"]().hedge_stats["n_hedged"] > 0
