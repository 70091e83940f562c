"""Planet-scale federation: topology parsing, the global router, gossip
replication, chaos goldens.

The unit half exercises the pieces in isolation on stubbed-compile
two-region planets (so no real pipeline compile runs); the golden half
pins the ``ext_federation`` experiment arm by arm — one deterministic
three-region diurnal workload under a region outage plus a replication
partition, replayed healthy / naive / federated. A router or gossip
change that moves serving results must update the frozen table.
"""

import json
from collections import OrderedDict
from dataclasses import dataclass

import pytest

from repro.analysis.federation import (
    FEDERATION_ARMS,
    FEDERATION_WORKLOAD,
    _workload_streams,
    federation_arm,
)
from repro.errors import ConfigError, SimulationError
from repro.serve import (
    ChannelPartition,
    FederationConfig,
    FederationPlan,
    FederationReport,
    GlobalRouter,
    Region,
    RegionOutage,
    RegionSpec,
    generate_federation_traffic,
    parse_region_spec,
    region_rtt_s,
    simulate_federation,
)
from tests.test_serve_invariants import stub_program


def stub_compile(key):
    return stub_program(key[1])


# ----------------------------------------------------------------------
# Topology and config parsing
# ----------------------------------------------------------------------
class TestRegionSpec:
    def test_parse_full_topology(self):
        specs = parse_region_spec(
            "us-east:tz=-5,chips=3;eu-west:tz=1,cost=1.2;ap-tokyo:tz=9,cap=8")
        assert [s.name for s in specs] == ["us-east", "eu-west", "ap-tokyo"]
        assert specs[0].tz_offset_h == -5 and specs[0].n_chips == 3
        assert specs[1].cost_factor == 1.2 and specs[1].n_chips == 2
        assert specs[2].cache_capacity == 8

    def test_parse_defaults(self):
        (spec,) = parse_region_spec("solo")
        assert spec == RegionSpec(name="solo")

    def test_parse_policy_field(self):
        (spec,) = parse_region_spec("a:policy=round-robin,chips=1")
        assert spec.policy == "round-robin" and spec.n_chips == 1

    def test_bad_field_is_config_error(self):
        with pytest.raises(ConfigError, match="bad region field"):
            parse_region_spec("a:zone=5")

    def test_bad_number_chains_the_cause(self):
        with pytest.raises(ConfigError, match="not a number") as info:
            parse_region_spec("a:tz=five")
        assert isinstance(info.value.__cause__, ValueError)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="repeats"):
            parse_region_spec("a;a")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError, match="no regions"):
            parse_region_spec(" ; ")

    def test_reserved_characters_rejected(self):
        for name in ("a|b", "a@b", ""):
            with pytest.raises(ConfigError):
                RegionSpec(name=name)

    def test_validation(self):
        with pytest.raises(ConfigError, match="at least one chip"):
            RegionSpec(name="a", n_chips=0)
        with pytest.raises(ConfigError, match="cost factor"):
            RegionSpec(name="a", cost_factor=0.0)


class TestFederationConfig:
    def test_staleness_bound_is_cadence_plus_wire(self):
        config = FederationConfig(sync_cadence_s=0.5, gossip_delay_s=0.25)
        assert config.staleness_bound_s == pytest.approx(0.75)

    def test_unknown_router_rejected(self):
        with pytest.raises(ConfigError, match="unknown router"):
            FederationConfig(router="oracle")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ConfigError):
            FederationConfig(sync_cadence_s=0.0)
        with pytest.raises(ConfigError):
            FederationConfig(failover_cost_s=-1.0)

    def test_rtt_ring_wraps(self):
        config = FederationConfig()
        a = RegionSpec(name="a", tz_offset_h=-11.0)
        b = RegionSpec(name="b", tz_offset_h=11.0)
        # -11h and +11h are 2 ring-hours apart, not 22.
        expected = config.local_rtt_s + 2.0 * config.rtt_per_hour_s
        assert region_rtt_s(config, a, b) == pytest.approx(expected)
        assert region_rtt_s(config, b, a) == pytest.approx(expected)
        assert region_rtt_s(config, a, a) == config.local_rtt_s


class TestFederationPlan:
    def test_parse_outage_and_partition(self):
        plan = FederationPlan.parse(
            "outage=eu@0.6+1.2;partition=us|ap@0.4+0.8")
        assert plan.region_down("eu", 0.7)
        assert not plan.region_down("eu", 1.9)
        assert plan.channel_blocked("us", "ap", 0.5)
        assert plan.channel_blocked("ap", "us", 0.5)  # symmetric
        assert not plan.channel_blocked("us", "ap", 1.3)
        assert not plan.channel_blocked("us", "eu", 0.5)

    def test_parse_permanent_outage(self):
        plan = FederationPlan.parse("outage=eu@0.5")
        assert plan.region_down("eu", 1e9)
        assert not plan.region_down("eu", 0.4)

    def test_parse_errors(self):
        with pytest.raises(ConfigError, match="bad federation fault"):
            FederationPlan.parse("quake=eu@0.5")
        with pytest.raises(ConfigError, match="missing '@start'"):
            FederationPlan.parse("outage=eu")
        with pytest.raises(ConfigError, match="two regions"):
            FederationPlan.parse("partition=us@0.5")
        with pytest.raises(ConfigError, match="bad time") as info:
            FederationPlan.parse("outage=eu@noon")
        assert isinstance(info.value.__cause__, ValueError)

    def test_unknown_region_rejected_at_validation(self):
        plan = FederationPlan.parse("outage=atlantis@0.1")
        with pytest.raises(ConfigError, match="unknown region"):
            plan.validate_regions(["us", "eu"])

    def test_partition_needs_distinct_regions(self):
        with pytest.raises(ConfigError, match="distinct"):
            ChannelPartition(a="us", b="us", start_s=0.0)

    def test_outage_window_validation(self):
        with pytest.raises(ConfigError, match="end after it starts"):
            RegionOutage(region="us", start_s=1.0, end_s=1.0)


# ----------------------------------------------------------------------
# The global router, in isolation
# ----------------------------------------------------------------------
def make_planet(config, plan=None, tz_b=6.0, chips=2):
    specs = (RegionSpec(name="a", n_chips=chips),
             RegionSpec(name="b", tz_offset_h=tz_b, n_chips=chips))
    regions = OrderedDict(
        (spec.name, Region(spec, config, compile_fn=stub_compile))
        for spec in specs)
    router = GlobalRouter(regions, config,
                          plan if plan is not None else FederationPlan())
    return specs, regions, router


def one_request(scene="lego", arrival_s=0.0, request_id=0):
    from repro.serve import RenderRequest

    return RenderRequest(request_id=request_id, arrival_s=arrival_s,
                         scene=scene, pipeline="hashgrid",
                         width=64, height=64, slo_s=0.1)


class TestGlobalRouter:
    def test_naive_routes_home(self):
        config = FederationConfig(router="naive")
        _, _, router = make_planet(config)
        region, extra, failover = router.route(one_request(), "b", 0.0)
        assert region == "b" and not failover
        assert extra == config.local_rtt_s

    def test_naive_fails_when_home_is_down(self):
        config = FederationConfig(router="naive")
        plan = FederationPlan.parse("outage=b@0.0")
        _, _, router = make_planet(config, plan)
        region, extra, failover = router.route(one_request(), "b", 0.0)
        assert region is None and extra == 0.0 and not failover
        assert router.stats()["n_unroutable"] == 1

    def test_federated_prefers_home_when_idle(self):
        config = FederationConfig()
        _, _, router = make_planet(config)
        region, extra, failover = router.route(one_request(), "b", 0.0)
        assert region == "b" and not failover
        assert extra == config.local_rtt_s
        assert router.stats()["n_remote"] == 0

    def test_failover_charges_rtt_plus_migration(self):
        config = FederationConfig()
        specs, _, router = make_planet(config,
                                       FederationPlan.parse("outage=b@0.0"))
        region, extra, failover = router.route(one_request(), "b", 0.0)
        assert region == "a" and failover
        rtt = region_rtt_s(config, specs[1], specs[0])
        assert extra == pytest.approx(rtt + config.failover_cost_s)
        assert router.stats()["n_failovers"] == 1

    def test_no_region_at_all_is_unroutable(self):
        plan = FederationPlan.parse("outage=a@0.0;outage=b@0.0")
        _, _, router = make_planet(FederationConfig(), plan)
        region, _, _ = router.route(one_request(), "a", 0.0)
        assert region is None
        assert router.stats()["n_unroutable"] == 1

    def test_sticky_session_holds_within_margin(self):
        # One chip and a tiny sync epoch: home overflows after three
        # assignments, but the sticky session rides out marginal score
        # noise until the backlog truly exceeds the margin.
        config = FederationConfig(sync_cadence_s=0.01)
        _, _, router = make_planet(config, tz_b=0.5, chips=1)
        placed = [router.route(one_request("s"), "a", 0.0)[0]
                  for _ in range(5)]
        assert placed[:4] == ["a"] * 4
        assert placed[4] == "a"  # held by stickiness, not by score
        assert router.stats()["n_sticky_holds"] == 1
        # A fresh scene sees the same overflow without a sticky pass.
        region, _, _ = router.route(one_request("t"), "a", 0.0)
        assert region == "b"
        assert router.stats()["n_remote"] == 1

    def test_begin_epoch_resets_the_load_ledger(self):
        config = FederationConfig(sync_cadence_s=0.01)
        _, _, router = make_planet(config, tz_b=0.5, chips=1)
        for _ in range(6):
            router.route(one_request("s"), "a", 0.0)
        router.begin_epoch()
        region, _, _ = router.route(one_request("t"), "a", 0.0)
        assert region == "a"


# ----------------------------------------------------------------------
# Time-zone-shifted traffic
# ----------------------------------------------------------------------
class TestFederationTraffic:
    def test_streams_are_phase_shifted_and_renumbered(self):
        specs = parse_region_spec("a;b:tz=12")
        streams = generate_federation_traffic(
            specs, n_requests_per_region=20, rate_rps=100.0, seed=7,
            pattern="steady")
        assert list(streams) == ["a", "b"]
        assert all(len(s) == 20 for s in streams.values())
        # b's wave rides half a diurnal period behind a's.
        assert min(r.arrival_s for r in streams["b"]) >= 2.0
        assert max(r.arrival_s for r in streams["a"]) < 2.0
        # Request ids are one global arrival-ordered sequence.
        merged = sorted((r for s in streams.values() for r in s),
                        key=lambda r: r.arrival_s)
        assert [r.request_id for r in merged] == list(range(40))

    def test_streams_are_deterministic(self):
        specs = parse_region_spec("a;b:tz=9")
        one = generate_federation_traffic(specs, n_requests_per_region=10,
                                          seed=3)
        two = generate_federation_traffic(specs, n_requests_per_region=10,
                                          seed=3)
        assert one == two

    def test_regions_draw_independent_streams(self):
        specs = parse_region_spec("a;b")  # same time zone
        streams = generate_federation_traffic(specs, n_requests_per_region=10,
                                              seed=3, pattern="bursty")
        a = [r.arrival_s for r in streams["a"]]
        b = [r.arrival_s for r in streams["b"]]
        assert a != b


# ----------------------------------------------------------------------
# The federation loop on a stubbed two-region planet
# ----------------------------------------------------------------------
def run_planet(config, plan=None, tz_b=12.0):
    specs = parse_region_spec(f"a:chips=2;b:tz={tz_b},chips=2")
    streams = generate_federation_traffic(
        specs, n_requests_per_region=30, rate_rps=200.0, seed=5,
        pattern="steady", slo_s=0.1)
    return simulate_federation(specs, streams, config=config, plan=plan,
                               compile_fn=stub_compile)


class TestSimulateFederation:
    def test_conservation_without_faults(self):
        report = run_planet(FederationConfig())
        assert report.n_offered == 60
        assert report.n_requests == 60
        assert report.n_shed == 0 and report.n_failed == 0

    def test_deterministic_reports(self):
        one = json.dumps(run_planet(FederationConfig()).to_dict(),
                         sort_keys=True)
        two = json.dumps(run_planet(FederationConfig()).to_dict(),
                         sort_keys=True)
        assert one == two

    def test_naive_outage_strands_the_wave(self):
        # b is down for its entire (phase-shifted) wave: naive routing
        # hard-fails all 30 of its requests, and the ledger still closes.
        plan = FederationPlan.parse("outage=b@1.9")
        report = run_planet(
            FederationConfig(router="naive", gossip=False), plan)
        assert report.n_failed == 30
        assert report.n_requests == 30
        assert report.n_offered == 60
        assert report.goodput_slo_attainment <= 0.5
        assert all("down" in record.reason for record in report.failed)

    def test_federated_outage_fails_over(self):
        plan = FederationPlan.parse("outage=b@1.9")
        config = FederationConfig()
        report = run_planet(config, plan)
        assert report.n_failed == 0
        assert report.n_failovers == 30
        # Every failover paid the wire plus the migration surcharge.
        for resp in report.completed:
            if resp.failover:
                assert resp.extra_latency_s >= config.failover_cost_s
                assert resp.latency_s > resp.response.latency_s

    def test_gossip_warms_the_remote_wave(self):
        # b's wave arrives half a period after a's — far beyond the
        # staleness bound — so with gossip on, b never cold-compiles.
        warm = run_planet(FederationConfig())
        cold = run_planet(FederationConfig(gossip=False))
        assert warm.regions["b"]["cache"]["misses"] == 0
        assert warm.regions["b"]["gossip_warm_installs"] > 0
        assert cold.regions["b"]["cache"]["misses"] > 0
        assert cold.regions["b"]["gossip_warm_installs"] == 0
        assert cold.gossip_stats["messages"] == 0

    def test_partition_blocks_the_warmth(self):
        # Sever the only replication channel: gossip runs but nothing
        # crosses, so b cold-compiles exactly as if gossip were off.
        plan = FederationPlan.parse("partition=a|b@0.0")
        report = run_planet(FederationConfig(), plan)
        assert report.regions["b"]["gossip_warm_installs"] == 0
        assert report.regions["b"]["cache"]["misses"] > 0
        assert report.gossip_stats["warm_installs"] == 0

    def test_report_conservation_is_enforced(self):
        config = FederationConfig()
        specs = parse_region_spec("a")
        with pytest.raises(SimulationError, match="lost requests"):
            FederationReport(config=config, specs=specs, completed=[],
                             shed=[], failed=[], n_offered=1, n_epochs=1)

    def test_single_region_planet_degenerates_cleanly(self):
        specs = parse_region_spec("solo:chips=2")
        report = simulate_federation(
            specs, n_requests_per_region=20, rate_rps=200.0, seed=1,
            pattern="steady", compile_fn=stub_compile)
        assert report.n_offered == report.n_requests == 20
        assert report.n_remote == 0
        assert report.gossip_stats["messages"] == 0

    def test_plan_naming_unknown_region_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown region"):
            run_planet(FederationConfig(),
                       FederationPlan.parse("outage=mars@0.1"))


# ----------------------------------------------------------------------
# Frozen federation chaos goldens: the ext_federation experiment arms.
# ----------------------------------------------------------------------
#: The scenario is imported from the analysis experiment itself so the
#: goldens pin exactly what ``repro report ext_federation`` prints:
#: three regions riding a rolling diurnal wave, eu-west offline through
#: the heart of its wave, the us-east <-> ap-tokyo gossip channel
#: partitioned early on.
@dataclass(frozen=True)
class FederationGolden:
    slo_attainment: float
    goodput: float
    p50_ms: float
    p99_ms: float
    n_failed: int
    n_failovers: int
    warm_installs: int
    chip_seconds: float
    cost_units: float


GOLDEN_FEDERATION = {
    "healthy": FederationGolden(
        slo_attainment=0.993333333, goodput=0.993333333,
        p50_ms=29.039174823, p99_ms=113.739330324,
        n_failed=0, n_failovers=0, warm_installs=12,
        chip_seconds=39.718649587, cost_units=40.610402191),
    "naive": FederationGolden(
        slo_attainment=0.997382199, goodput=0.846666667,
        p50_ms=27.757721409, p99_ms=110.635122029,
        n_failed=68, n_failovers=0, warm_installs=0,
        chip_seconds=38.840817559, cost_units=39.557003756),
    "federated": FederationGolden(
        slo_attainment=0.928888889, goodput=0.928888889,
        p50_ms=29.041222823, p99_ms=155.120314205,
        n_failed=0, n_failovers=68, warm_installs=6,
        chip_seconds=41.765936251, cost_units=42.482122448),
}


@pytest.mark.parametrize("arm", sorted(GOLDEN_FEDERATION))
def test_federation_numbers_are_frozen(arm):
    golden = GOLDEN_FEDERATION[arm]
    report = federation_arm(arm)
    assert report.slo_attainment == pytest.approx(
        golden.slo_attainment, rel=1e-9)
    assert report.goodput_slo_attainment == pytest.approx(
        golden.goodput, rel=1e-9)
    assert report.latency_p(50) * 1e3 == pytest.approx(golden.p50_ms,
                                                       rel=1e-6)
    assert report.latency_p(99) * 1e3 == pytest.approx(golden.p99_ms,
                                                       rel=1e-6)
    assert report.n_failed == golden.n_failed
    assert report.n_failovers == golden.n_failovers
    assert report.gossip_stats["warm_installs"] == golden.warm_installs
    assert report.total_chip_seconds == pytest.approx(
        golden.chip_seconds, rel=1e-9)
    assert report.total_cost_units == pytest.approx(
        golden.cost_units, rel=1e-9)
    # Conservation closes on every arm, chaos or not.
    assert report.n_offered == (report.n_requests + report.n_shed
                                + report.n_failed)


def test_goldens_cover_every_arm():
    assert set(GOLDEN_FEDERATION) == set(FEDERATION_ARMS)


def test_failover_recovers_the_goodput_cliff():
    # The acceptance headline: under region loss the federated router
    # fails the stranded wave over cross-region (every one a failover,
    # none a failure) and wins back >= 5 goodput points over naive
    # home-pinned routing (the frozen numbers above say 8.2).
    naive = federation_arm("naive")
    federated = federation_arm("federated")
    assert naive.n_failed > 0
    assert federated.n_failed == 0
    assert federated.n_failovers == naive.n_failed
    assert (federated.goodput_slo_attainment
            - naive.goodput_slo_attainment) >= 0.05


def test_gossip_warms_remote_regions_to_zero_cold_misses():
    # The warm-start headline: eu-west's wave rises first and pays the
    # planet's only cold compiles; the two regions whose waves ride
    # behind it serve their entire day without a single cold miss —
    # warmed purely by gossip within the staleness bound. With
    # replication off, each region pays its own cold-miss storm.
    healthy = federation_arm("healthy")
    for name in ("us-east", "ap-tokyo"):
        assert healthy.regions[name]["cache"]["misses"] == 0
        assert healthy.regions[name]["gossip_warm_installs"] == 6
    assert healthy.regions["eu-west"]["cache"]["misses"] == 6

    specs, streams = _workload_streams(dict(FEDERATION_WORKLOAD))
    silent = simulate_federation(specs, streams,
                                 config=FederationConfig(gossip=False))
    for name in ("us-east", "eu-west", "ap-tokyo"):
        assert silent.regions[name]["cache"]["misses"] == 6
        assert silent.regions[name]["gossip_warm_installs"] == 0
