"""Fleet state and sharding policies, including the affinity payoff."""

import random

import pytest

from repro.compile.workloads import gemm_workload
from repro.core.config import AcceleratorConfig
from repro.core.microops import MicroOp, MicroOpProgram
from repro.errors import ConfigError
from repro.serve import (
    Autoscaler,
    Batch,
    FaultPlan,
    PipelineBatcher,
    RenderRequest,
    ServeCluster,
    SHARDING_POLICIES,
    TraceCache,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    simulate_service,
)
from tests.test_serve_invariants import stub_program


def tiny_program(pipeline):
    program = MicroOpProgram(pipeline=pipeline, pixels=1024)
    program.append(
        MicroOp.GEMM,
        "mlp",
        gemm_workload(macs=1e6, rows=1e3, in_width=32, out_width=4,
                      weight_bytes=1e4),
    )
    return program


def stub_cache():
    return TraceCache(capacity=64, compile_fn=lambda key: tiny_program(key[1]))


def batch_of(pipeline):
    return Batch(batch_id=0, pipeline=pipeline, requests=())


class TestClusterConstruction:
    def test_policy_registry(self):
        assert set(SHARDING_POLICIES) == {
            "round-robin", "least-loaded", "pipeline-affinity", "cost-aware"
        }

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ServeCluster(2, policy="random")

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            ServeCluster(0)

    def test_chips_share_the_design_point(self):
        config = AcceleratorConfig().scaled(2, 2)
        cluster = ServeCluster(3, config=config)
        assert len(cluster) == 3
        assert all(chip.config == config for chip in cluster.chips)

    def test_heterogeneous_fleet_from_configs(self):
        configs = [AcceleratorConfig(), AcceleratorConfig().scaled(2, 2)]
        cluster = ServeCluster(configs=configs)
        assert len(cluster) == 2
        assert [c.config for c in cluster.chips] == configs
        assert cluster.chips[0].config.chip_cost_rate < \
            cluster.chips[1].config.chip_cost_rate

    def test_config_and_configs_are_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            ServeCluster(config=AcceleratorConfig(),
                         configs=[AcceleratorConfig()])

    def test_parse_fleet_spec(self):
        from repro.serve import parse_fleet_spec

        configs = parse_fleet_spec("2*1x1,1*2x2")
        assert len(configs) == 3
        assert configs[0] == configs[1] == AcceleratorConfig()
        assert configs[2] == AcceleratorConfig().scaled(2, 2)
        for bad in ("", "1y1", "0*1x1", "ax1x1"):
            with pytest.raises(ConfigError):
                parse_fleet_spec(bad)


class TestElasticFleet:
    def test_add_chip_warms_up_before_accepting_work(self):
        cluster = ServeCluster(1)
        chip = cluster.add_chip(now=1.0, warmup_s=0.5)
        assert chip.chip_id == 1
        assert chip.added_at_s == 1.0
        assert chip.free_at_s == 1.5
        assert cluster.n_active == 2

    def test_add_chip_inherits_the_fleet_design_point(self):
        scaled = AcceleratorConfig().scaled(4, 4)
        cluster = ServeCluster(1, config=scaled)
        assert cluster.add_chip(now=0.0).config == scaled
        assert cluster.add_chip(AcceleratorConfig(), now=0.0).config == \
            AcceleratorConfig()

    def test_retire_excludes_chip_from_selection(self):
        cluster = ServeCluster(2, policy="least-loaded")
        cluster.retire_chip(cluster.chips[0], now=1.0)
        assert not cluster.chips[0].active
        assert cluster.select_chip(batch_of("mesh"), 2.0).chip_id == 1
        assert cluster.chips[0].alive_s(horizon_s=5.0) == 1.0
        assert cluster.chips[1].alive_s(horizon_s=5.0) == 5.0

    def test_cannot_retire_last_active_chip(self):
        cluster = ServeCluster(1)
        with pytest.raises(ConfigError):
            cluster.retire_chip(cluster.chips[0], now=0.0)

    def test_cost_accounting_tracks_rate_and_lifetime(self):
        big = AcceleratorConfig().scaled(2, 2)
        cluster = ServeCluster(configs=[AcceleratorConfig(), big])
        assert cluster.chips[0].cost_units(2.0) == pytest.approx(2.0)
        assert cluster.chips[1].cost_units(2.0) == pytest.approx(
            2.0 * big.chip_cost_rate)
        expected = (0.5 * big.n_pes / AcceleratorConfig().n_pes
                    + 0.5 * big.total_sram_bytes
                    / AcceleratorConfig().total_sram_bytes)
        assert big.chip_cost_rate == pytest.approx(expected)
        assert AcceleratorConfig().chip_cost_rate == pytest.approx(1.0)


def assert_fleet_index(cluster):
    """The live index answers exactly what a scan of every chip would."""
    assert cluster.active_chips == [c for c in cluster.chips if c.active]
    assert cluster.n_active == sum(1 for c in cluster.chips if c.active)
    assert cluster.n_available == sum(c.available for c in cluster.chips)
    assert cluster.down_chip_ids == {
        c.chip_id for c in cluster.chips
        if c.active and c.down_since_s is not None}


class TestFleetIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_actuator_sequence_keeps_the_index(self, seed):
        rng = random.Random(seed)
        cluster = ServeCluster(3)
        now = 0.0
        for _ in range(200):
            now += rng.random()
            chip = rng.choice(cluster.chips)
            action = rng.choice(("add", "retire", "down", "up"))
            if action == "add":
                cluster.add_chip(now=now, warmup_s=0.1)
            elif action == "retire":
                if chip.active and cluster.n_active > 1:
                    cluster.retire_chip(chip, now)
            elif action == "down":
                assert cluster.mark_down(chip, now) == (
                    chip.active and chip.down_since_s == now)
            else:
                cluster.mark_up(chip, now)
            assert_fleet_index(cluster)

    def test_crashing_a_retired_chip_is_a_no_op(self):
        cluster = ServeCluster(2)
        chip = cluster.chips[0]
        cluster.retire_chip(chip, now=1.0)
        assert not cluster.mark_down(chip, now=2.0)
        assert chip.down_since_s is None and chip.n_crashes == 0
        assert not cluster.mark_up(chip, now=3.0)
        assert_fleet_index(cluster)

    def test_outage_accounting_through_the_actuators(self):
        cluster = ServeCluster(2)
        chip = cluster.chips[1]
        assert cluster.mark_down(chip, now=1.0)
        assert not cluster.mark_down(chip, now=1.5)  # already down
        assert (chip.n_crashes, cluster.n_available) == (1, 1)
        assert cluster.mark_up(chip, now=3.0)
        assert not cluster.mark_up(chip, now=4.0)  # already up
        assert (chip.down_s, cluster.n_available) == (2.0, 2)
        # Retiring after a recovery leaves nothing counted down.
        cluster.retire_chip(chip, now=5.0)
        assert (cluster.n_active, cluster.n_available) == (1, 1)
        assert_fleet_index(cluster)

    def test_retiring_a_down_chip_releases_its_outage(self):
        cluster = ServeCluster(3)
        chip = cluster.chips[0]
        cluster.mark_down(chip, now=1.0)
        cluster.retire_chip(chip, now=2.0)
        assert_fleet_index(cluster)
        assert cluster.mark_up(chip, now=3.0)  # closes the books only
        assert (cluster.n_active, cluster.n_available) == (2, 2)
        assert_fleet_index(cluster)

    def test_index_survives_a_full_churning_run(self):
        # Weighted admission, preemption, a predictive autoscaler whose
        # time constants fit the stub frame costs, a seeded fault plan
        # and hedging: the fleet grows and retires dozens of chips, and
        # one crash never recovers.
        trace = generate_tenant_traffic(
            "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2",
            pattern="bursty", n_requests=2000, rate_rps=35_000.0, seed=7,
            resolution=(64, 64), slo_s=0.0005,
        )
        plan = FaultPlan.seeded(2, 4, trace[-1].arrival_s, n_crashes=4,
                                n_stragglers=2, rollback_s=0.0001)
        cluster = ServeCluster(4)
        report = simulate_service(
            trace, cluster,
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(),
            autoscaler=Autoscaler(min_chips=4, max_chips=12,
                                  mode="predictive", window_s=0.0025,
                                  warmup_s=0.0002, cooldown_s=0.0005),
            admission=make_admission_policy("weighted"), preempt=True,
            faults=plan, hedge=True,
        )
        assert len(cluster.chips) > 2 * report.peak_fleet_size
        assert report.fault_stats["n_crashes"] > (
            report.fault_stats["n_recoveries"])
        assert report.hedge_stats["n_hedged"] > 0
        assert report.n_preemption_events > 0
        assert cluster.n_available < cluster.n_active
        assert_fleet_index(cluster)


class TestPolicies:
    def test_round_robin_rotates(self):
        cluster = ServeCluster(3, policy="round-robin")
        picks = [cluster.select_chip(batch_of("mesh"), 0.0).chip_id
                 for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_busy_chip_when_idle_exists(self):
        cluster = ServeCluster(3, policy="round-robin")
        cluster.chips[0].free_at_s = 5.0
        picks = [cluster.select_chip(batch_of("mesh"), 0.0).chip_id
                 for _ in range(4)]
        assert picks == [1, 2, 1, 2]

    def test_round_robin_queues_when_all_chips_busy(self):
        cluster = ServeCluster(2, policy="round-robin")
        for chip in cluster.chips:
            chip.free_at_s = 5.0
        picks = [cluster.select_chip(batch_of("mesh"), 0.0).chip_id
                 for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_least_loaded_picks_earliest_free(self):
        cluster = ServeCluster(3, policy="least-loaded")
        cluster.chips[0].free_at_s = 5.0
        cluster.chips[1].free_at_s = 1.0
        cluster.chips[2].free_at_s = 3.0
        assert cluster.select_chip(batch_of("mesh"), 0.0).chip_id == 1

    def test_affinity_prefers_warm_chip(self):
        cluster = ServeCluster(2, policy="pipeline-affinity")
        cluster.chips[1].configured_pipeline = "gaussian"
        # Chip 1 busy for less than one switch; worth the wait.
        cluster.chips[1].free_at_s = cluster.chips[1].switch_s / 2.0
        assert cluster.select_chip(batch_of("gaussian"), 0.0).chip_id == 1

    def test_affinity_abandons_overloaded_warm_chip(self):
        cluster = ServeCluster(2, policy="pipeline-affinity")
        cluster.chips[1].configured_pipeline = "gaussian"
        cluster.chips[1].free_at_s = cluster.chips[1].switch_s * 10.0
        assert cluster.select_chip(batch_of("gaussian"), 0.0).chip_id == 0

    def test_affinity_falls_back_when_no_chip_is_warm(self):
        cluster = ServeCluster(2, policy="pipeline-affinity")
        cluster.chips[0].free_at_s = 2.0
        assert cluster.select_chip(batch_of("mesh"), 0.0).chip_id == 1

    @pytest.mark.parametrize("policy", ["least-loaded", "pipeline-affinity",
                                        "cost-aware"])
    def test_ties_go_to_the_lowest_chip_id(self, policy):
        # Chips 1-3 are equally early (and equally warm): chip 1 wins.
        cluster = ServeCluster(4, policy=policy)
        cluster.chips[0].free_at_s = 2.0
        for chip in cluster.chips[1:]:
            chip.free_at_s = 1.0
            chip.configured_pipeline = "mesh"
        assert cluster.select_chip(batch_of("mesh"), 0.0).chip_id == 1


def deadline_batch(pipeline="mesh", arrival=0.0, slo=0.05):
    request = RenderRequest(
        request_id=0, scene="lego", pipeline=pipeline,
        width=64, height=64, arrival_s=arrival, slo_s=slo,
    )
    return Batch(batch_id=0, pipeline=pipeline, requests=(request,))


class TestCostAwarePolicy:
    def heterogeneous(self):
        configs = [AcceleratorConfig().scaled(2, 2), AcceleratorConfig()]
        return ServeCluster(configs=configs, policy="cost-aware")

    def test_picks_cheapest_feasible_chip(self):
        cluster = self.heterogeneous()
        # Both idle and configured: chip 1 (baseline) is cheaper.
        for chip in cluster.chips:
            chip.configured_pipeline = "mesh"
        assert cluster.select_chip(deadline_batch(slo=1.0), 0.0).chip_id == 1

    def test_spills_to_expensive_chip_when_cheap_misses_deadline(self):
        cluster = self.heterogeneous()
        for chip in cluster.chips:
            chip.configured_pipeline = "mesh"
        cluster.chips[1].free_at_s = 0.1  # cheap chip busy past the SLO
        assert cluster.select_chip(deadline_batch(slo=0.05), 0.0).chip_id == 0

    def test_feasibility_projects_completion_not_just_start(self):
        cluster = self.heterogeneous()
        for chip in cluster.chips:
            chip.configured_pipeline = "mesh"
        # Cheap chip frees at 20 ms; with a 40 ms frame it finishes at
        # 60 ms — past the 50 ms SLO even though it *starts* in time.
        cluster.chips[1].free_at_s = 0.02
        batch = deadline_batch(slo=0.05)
        assert cluster.select_chip(batch, 0.0, est_service_s=0.04).chip_id == 0
        # Without the estimate (cold service) start-feasibility wins.
        assert cluster.select_chip(batch, 0.0).chip_id == 1

    def test_accounts_for_pipeline_switch_in_feasibility(self):
        cluster = self.heterogeneous()
        cluster.chips[0].configured_pipeline = "mesh"
        cluster.chips[1].configured_pipeline = "gaussian"  # must switch
        slo = cluster.chips[1].switch_s / 2.0  # switch alone blows it
        assert cluster.select_chip(deadline_batch(slo=slo), 0.0).chip_id == 0

    def test_degrades_to_least_loaded_when_nothing_is_feasible(self):
        cluster = self.heterogeneous()
        cluster.chips[0].free_at_s = 3.0
        cluster.chips[1].free_at_s = 7.0
        assert cluster.select_chip(deadline_batch(slo=0.01), 0.0).chip_id == 0

    def test_empty_batch_means_no_deadline(self):
        cluster = self.heterogeneous()
        assert cluster.select_chip(batch_of("mesh"), 0.0).chip_id == 1


class TestAffinityPayoff:
    def test_affinity_beats_round_robin_on_reconfig_cycles(self):
        """The acceptance claim: on a mixed-pipeline trace, affinity
        sharding spends measurably fewer reconfiguration cycles than
        round-robin, at no throughput cost."""
        trace = generate_traffic("mixed", n_requests=80, seed=0,
                                 rate_rps=300.0, resolution=(64, 64))
        reports = {}
        for policy in ("round-robin", "pipeline-affinity"):
            reports[policy] = simulate_service(
                trace, ServeCluster(4, policy=policy), cache=stub_cache(),
            )
        affinity = reports["pipeline-affinity"]
        baseline = reports["round-robin"]
        assert affinity.total_switch_cycles < 0.7 * baseline.total_switch_cycles
        assert affinity.total_reconfig_cycles < baseline.total_reconfig_cycles
        assert affinity.throughput_rps >= 0.95 * baseline.throughput_rps

    def test_accounting_totals_match_responses(self):
        trace = generate_traffic("mixed", n_requests=40, seed=1,
                                 resolution=(64, 64))
        report = simulate_service(trace, ServeCluster(2), cache=stub_cache())
        assert report.total_switch_cycles == pytest.approx(
            sum(r.switch_cycles for r in report.responses))
        assert report.total_frame_reconfig_cycles == pytest.approx(
            sum(r.frame_reconfig_cycles for r in report.responses))
        assert sum(c.requests_served for c in report.chips) == 40
        assert report.energy_per_request_j > 0
