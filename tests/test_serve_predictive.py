"""Invariant suite of the predictive serving layer.

Randomized, seeded cases over the three predictive pieces:

* **Trace library** — an empty or absent library warm-starts to a
  byte-identical cold start; the JSON artifact round-trips
  (save -> load -> save) to the same bytes; malformed artifacts fail
  loudly; absorb records exactly what the cache held.
* **Markov prefetcher** — deterministic per seed; its per-state
  transition weights always equal the counts recomputed from the
  observed history; below the observation threshold it degrades to the
  recency predictor; resident keys never consume candidate slots
  (the warm-start accuracy-inflation fix).
* **Predictive autoscaler** — never violates its fleet bounds, never
  acts inside the cooldown, and is bit-deterministic: the same trace
  always produces the same fleet timeline and report.
"""

import json
import random
from collections import defaultdict

import pytest

from repro.errors import ConfigError
from repro.serve import (
    Autoscaler,
    PipelineBatcher,
    ServeCluster,
    TraceCache,
    TraceLibrary,
    TracePrefetcher,
    TraceRecord,
    generate_traffic,
    simulate_service,
)
from tests.test_serve_invariants import stub_program


def stub_cache(capacity=64):
    return TraceCache(capacity=capacity,
                      compile_fn=lambda key: stub_program(key[1]))


# ----------------------------------------------------------------------
# Warm start neutrality: nothing in the library, nothing in the report.
# ----------------------------------------------------------------------
class TestWarmStartNeutrality:
    @pytest.mark.parametrize("pattern", ["steady", "bursty", "diurnal"])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_empty_library_is_byte_identical_to_cold_start(
            self, pattern, seed):
        trace = generate_traffic(pattern=pattern, n_requests=80,
                                 rate_rps=4000.0, seed=seed,
                                 resolution=(64, 64), slo_s=0.002)

        def run(**kwargs):
            return simulate_service(
                trace, ServeCluster(2), cache=stub_cache(),
                batcher=PipelineBatcher(), **kwargs).to_dict()

        plain = run()
        warmless = run(trace_library=TraceLibrary())
        assert warmless == plain

    def test_absent_library_file_is_byte_identical_to_cold_start(
            self, tmp_path):
        trace = generate_traffic(pattern="bursty", n_requests=60,
                                 rate_rps=4000.0, seed=3,
                                 resolution=(64, 64), slo_s=0.002)

        def run(**kwargs):
            return simulate_service(
                trace, ServeCluster(2), cache=stub_cache(),
                batcher=PipelineBatcher(), **kwargs).to_dict()

        plain = run()
        path = tmp_path / "missing" / "library.json"
        path.parent.mkdir()
        from_path = run(trace_library=str(path))
        assert from_path == plain
        # The shutdown flush created the artifact for the next run.
        assert path.exists()
        assert len(TraceLibrary.load(path)) > 0

    def test_cluster_spelling_matches_engine_spelling(self):
        trace = generate_traffic(pattern="steady", n_requests=60,
                                 rate_rps=4000.0, seed=5,
                                 resolution=(64, 64), slo_s=0.002)
        library = TraceLibrary()
        seeded = simulate_service(
            trace, ServeCluster(2), cache=stub_cache(),
            batcher=PipelineBatcher(), trace_library=library)
        via_engine = simulate_service(
            trace, ServeCluster(2), cache=stub_cache(),
            batcher=PipelineBatcher(), trace_library=library)
        via_cluster = simulate_service(
            trace, ServeCluster(2, trace_library=library),
            cache=stub_cache(), batcher=PipelineBatcher())
        assert via_cluster.to_dict() == via_engine.to_dict()
        assert seeded.cache_stats["warmed"] == 0
        assert via_cluster.cache_stats["warmed"] > 0


# ----------------------------------------------------------------------
# Library round trip and artifact hygiene.
# ----------------------------------------------------------------------
def random_library(rng):
    scenes = ["lego", "room", "ship", "chair"]
    pipelines = ["hashgrid", "gaussian", "mesh"]
    records = []
    seen = set()
    for _ in range(rng.randrange(1, 12)):
        key = (rng.choice(scenes), rng.choice(pipelines),
               rng.choice([64, 128]), rng.choice([64, 128]))
        if key in seen:
            continue
        seen.add(key)
        records.append(TraceRecord(
            scene=key[0], pipeline=key[1], width=key[2], height=key[3],
            invocations=rng.randrange(1, 40),
            pixels=rng.randrange(0, 1 << 20),
            compile_s=rng.random() * 0.01,
            hits=rng.randrange(0, 1000),
        ))
    return TraceLibrary(records)


class TestLibraryRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_save_load_save_is_byte_stable(self, seed, tmp_path):
        library = random_library(random.Random(seed))
        path = tmp_path / "library.json"
        library.save(path)
        first = path.read_bytes()
        reloaded = TraceLibrary.load(path)
        reloaded.save(path)
        assert path.read_bytes() == first
        assert reloaded.keys == library.keys
        assert reloaded.total_hits == library.total_hits

    @pytest.mark.parametrize("seed", range(4))
    def test_dumps_round_trips_through_from_dict(self, seed):
        library = random_library(random.Random(100 + seed))
        text = library.dumps()
        again = TraceLibrary.from_dict(json.loads(text))
        assert again.dumps() == text

    def test_absorb_records_resident_traces_and_hits(self):
        cache = stub_cache()
        keys = [("lego", "hashgrid", 64, 64), ("room", "mesh", 64, 64)]
        for key in keys:
            cache.get(key)
        cache.get(keys[0])  # one demand hit
        library = TraceLibrary()
        library.absorb(cache)
        assert set(library.keys) == set(keys)
        assert library.get(keys[0]).hits == 1
        assert library.get(keys[1]).hits == 0
        # LRU order survives: keys[0] was touched last.
        assert library.keys[-1] == keys[0]
        record = library.get(keys[0])
        program = stub_program("hashgrid")
        assert record.invocations == len(program.invocations)
        assert record.pixels == program.pixels

    def test_shared_cache_absorb_counts_each_run_once(self):
        # hits_by_key is a lifetime counter; the engine must credit the
        # library with per-run deltas, or a cache shared across runs
        # (a supported warm-service pattern) compounds earlier runs'
        # hits into the artifact on every flush.
        trace = generate_traffic(pattern="steady", n_requests=60,
                                 rate_rps=4000.0, seed=8,
                                 resolution=(64, 64), slo_s=0.002)
        cache = stub_cache()
        library = TraceLibrary()
        for _ in range(2):
            simulate_service(trace, ServeCluster(2), cache=cache,
                             batcher=PipelineBatcher(),
                             trace_library=library)
        # Every demand hit landed on a key that is resident at the end,
        # so lifetime hits in the library == the cache's own lifetime
        # hit counter — each run's hits counted exactly once.
        assert library.total_hits == cache.stats.hits
        # And the second run's warm-start skipped the already-resident
        # traces: no redundant host compiles, no inflated counter.
        assert cache.stats.warmed == 0

    def test_warm_respects_cache_capacity(self):
        rng = random.Random(9)
        library = random_library(rng)
        cache = stub_cache(capacity=2)
        warmed = library.warm(cache)
        assert warmed == min(2, len(library))
        assert len(cache) <= 2
        # The *most recent* records were installed.
        assert set(cache.keys) == set(library.keys[-warmed:])

    def test_version_and_shape_are_enforced(self, tmp_path):
        with pytest.raises(ConfigError):
            TraceLibrary.from_dict({"version": 99, "entries": []})
        with pytest.raises(ConfigError):
            TraceLibrary.from_dict({"version": 1})
        with pytest.raises(ConfigError):
            TraceLibrary.from_dict({"version": 1, "entries": [{"scene": "x"}]})
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ConfigError):
            TraceLibrary.load(bad)
        record = TraceRecord("lego", "mesh", 64, 64, 1, 1024, 0.1)
        with pytest.raises(ConfigError):
            TraceLibrary([record, record])


# ----------------------------------------------------------------------
# Markov predictor: determinism and consistency with observed history.
# ----------------------------------------------------------------------
def random_stream(rng, length=60):
    """A synthetic multi-session stream with real pipeline structure:
    each scene sticks to a pipeline for a while, then transitions."""
    scenes = ["lego", "room", "ship"]
    pipelines = ["hashgrid", "gaussian", "mesh"]
    current = {scene: rng.choice(pipelines) for scene in scenes}
    stream = []
    for _ in range(length):
        scene = rng.choice(scenes)
        if rng.random() < 0.3:
            current[scene] = rng.choice(pipelines)
        stream.append((scene, current[scene], 64, 64))
    return stream


class TestMarkovPredictor:
    @pytest.mark.parametrize("seed", range(10))
    def test_deterministic_per_seed(self, seed):
        stream = random_stream(random.Random(seed))
        a = TracePrefetcher(seed=seed)
        b = TracePrefetcher(seed=seed)
        for key in stream:
            a.observe(key)
            b.observe(key)
            assert a.candidates() == b.candidates()
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("seed", range(10))
    def test_transition_weights_match_observed_history(self, seed):
        stream = random_stream(random.Random(1000 + seed))
        prefetcher = TracePrefetcher()
        expected = defaultdict(lambda: defaultdict(int))
        last = {}
        for key in stream:
            prefetcher.observe(key)
            scene, pipeline, width, height = key
            session = (scene, width, height)
            previous = last.get(session)
            if previous is not None:
                expected[previous][pipeline] += 1
            last[session] = pipeline
        for pipeline in {"hashgrid", "gaussian", "mesh"}:
            assert prefetcher.transition_weights(pipeline) == dict(
                expected.get(pipeline, {}))

    def test_cold_model_falls_back_to_recency(self):
        markov = TracePrefetcher(min_observations=1000)
        recency_only = TracePrefetcher(min_observations=1000)
        stream = random_stream(random.Random(5), length=20)
        for key in stream:
            markov.observe(key)
            recency_only.observe(key)
        # Below the threshold both emit the recency cross-product.
        assert markov.candidates() == recency_only._recency_candidates()

    @pytest.mark.parametrize("seed", range(4))
    def test_markov_candidates_come_from_observed_transitions(self, seed):
        stream = random_stream(random.Random(33 + seed), length=80)
        prefetcher = TracePrefetcher(min_observations=8)
        for key in stream:
            prefetcher.observe(key)
        for scene, pipeline, width, height in prefetcher.candidates():
            # Every Markov prediction is an observed transition target
            # out of the session's current pipeline.
            session_pipeline = prefetcher._session_pipeline[
                (scene, width, height)]
            assert pipeline in prefetcher.transition_weights(session_pipeline)

    def test_predictor_accuracy_counts_scored_forecasts(self):
        prefetcher = TracePrefetcher(min_observations=2)
        keys = [("lego", "hashgrid", 64, 64), ("lego", "gaussian", 64, 64)]
        # Build a perfectly alternating session: h->g->h->g ...
        for _ in range(4):
            for key in keys:
                prefetcher.observe(key)
        assert prefetcher.predictions > 0
        # Alternation is fully learnable by a first-order model.
        assert prefetcher.correct == prefetcher.predictions
        assert prefetcher.predictor_accuracy == 1.0
        payload = prefetcher.to_dict()
        assert payload["predictions"] == prefetcher.predictions
        assert payload["predictor_accuracy"] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TracePrefetcher(min_observations=0)


# ----------------------------------------------------------------------
# The warm-start accuracy-inflation fix: resident keys are skipped.
# ----------------------------------------------------------------------
class TestPrefetchSkipIfPresent:
    @pytest.mark.parametrize("min_observations", [1000, 4],
                             ids=["recency-fallback", "markov"])
    def test_resident_keys_never_consume_candidate_slots(
            self, min_observations):
        # A wide twin (no slot cap to speak of) exposes the full
        # prediction ordering the capped prefetcher draws from.
        capped = TracePrefetcher(max_candidates=4,
                                 min_observations=min_observations)
        wide = TracePrefetcher(max_candidates=100,
                               min_observations=min_observations)
        for key in random_stream(random.Random(2), length=30):
            capped.observe(key)
            wide.observe(key)
        full_order = wide.candidates()
        unfiltered = capped.candidates()
        assert unfiltered == full_order[:len(unfiltered)]
        # Mark every key the capped view would emit as resident: a
        # post-hoc filter would now return [] — the fix must instead
        # advance deeper predictions into the freed slots.
        resident = set(unfiltered)
        filtered = capped.candidates(resident=resident)
        assert not resident & set(filtered)
        expected = [key for key in full_order if key not in resident]
        assert filtered == expected[:len(filtered)]
        if expected:
            assert filtered, (
                "resident keys consumed every candidate slot — filtering "
                "must happen before the slot cap"
            )

    def test_in_flight_keys_are_filtered_like_resident_ones(self):
        # The engine passes cache ∪ in-flight as the skip set: a key
        # already compiling must not occupy a candidate slot either.
        from repro.serve.engine import _KeyUnion

        prefetcher = TracePrefetcher(max_candidates=2,
                                     min_observations=1000)
        for key in random_stream(random.Random(4), length=30):
            prefetcher.observe(key)
        unfiltered = prefetcher.candidates()
        assert len(unfiltered) == 2
        resident = {unfiltered[0]}
        in_flight = {unfiltered[1]}
        filtered = prefetcher.candidates(
            resident=_KeyUnion(resident, in_flight))
        assert len(filtered) == 2
        assert not (resident | in_flight) & set(filtered)

    def test_fully_warmed_cache_issues_no_prefetches(self):
        from repro.core.config import CompileLatencyModel

        trace = generate_traffic(pattern="bursty", n_requests=80,
                                 rate_rps=6000.0, seed=2,
                                 resolution=(64, 64), slo_s=0.01)
        library = TraceLibrary()
        simulate_service(
            trace, ServeCluster(2), cache=stub_cache(),
            batcher=PipelineBatcher(), compile_workers=2,
            compile_latency=CompileLatencyModel(), trace_library=library)
        # Restart warm with prefetch armed: every candidate is already
        # resident, so the prefetcher must stay silent — a prefetch
        # recorded here would later count warm hits as its own skill.
        warm = simulate_service(
            trace, ServeCluster(2), cache=stub_cache(),
            batcher=PipelineBatcher(), compile_workers=2,
            compile_latency=CompileLatencyModel(), trace_library=library,
            prefetch=True)
        assert warm.cache_stats["misses"] == 0
        assert warm.prefetch_stats["issued"] == 0
        assert warm.prefetch_stats["hits"] == 0
        assert warm.prefetch_stats["accuracy"] == 0.0


# ----------------------------------------------------------------------
# Predictive autoscaler: bounds, cooldown, determinism.
# ----------------------------------------------------------------------
def predictive_case(seed):
    rng = random.Random(seed)
    pattern = rng.choice(["diurnal", "bursty", "steady"])
    min_chips = rng.randrange(1, 3)
    max_chips = min_chips + rng.randrange(1, 5)
    cooldown = rng.choice([0.0, 0.01, 0.05, 0.15])
    trace = generate_traffic(
        pattern=pattern, n_requests=400,
        rate_rps=rng.choice([1000.0, 2000.0, 4000.0]), seed=seed,
        resolution=(64, 64), slo_s=rng.choice([0.002, 0.01]))
    scaler = Autoscaler(
        min_chips=min_chips, max_chips=max_chips,
        target_queue_per_chip=rng.choice([1.0, 4.0]),
        slo_target=0.95, window_s=0.25,
        warmup_s=rng.choice([0.0, 0.02, 0.15]),
        cooldown_s=cooldown, mode="predictive",
        target_utilization=rng.choice([0.75, 1.0]),
        lead_s=rng.choice([None, 0.0, 0.1]),
        shrink_margin=rng.choice([1.0, 1.1, 1.5]),
    )
    return trace, scaler, min_chips, max_chips, cooldown


class TestPredictiveAutoscalerInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_bounds_and_cooldown_hold(self, seed):
        trace, scaler, min_chips, max_chips, cooldown = predictive_case(seed)
        report = simulate_service(
            trace, ServeCluster(min_chips), cache=stub_cache(),
            batcher=PipelineBatcher(), autoscaler=scaler)
        for _, n_active in report.fleet_size_timeline:
            assert min_chips <= n_active <= max_chips
        times = [event.t_s for event in report.fleet_events]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= cooldown - 1e-12
        assert report.n_requests == len(trace)

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_deterministic(self, seed):
        def run():
            trace, scaler, min_chips, _, _ = predictive_case(200 + seed)
            return simulate_service(
                trace, ServeCluster(min_chips), cache=stub_cache(),
                batcher=PipelineBatcher(), autoscaler=scaler).to_dict()

        assert run() == run()

    def test_reactive_mode_ignores_forecast_feeds(self):
        # record_arrival is a no-op on a reactive controller, so the
        # engine's forecast feeds cannot perturb the reactive goldens.
        scaler = Autoscaler(mode="reactive")
        scaler.record_arrival(1.0)
        assert len(scaler._arrivals) == 0
        assert scaler.desired_fleet() is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            Autoscaler(mode="prescient")
        with pytest.raises(ConfigError):
            Autoscaler(lead_s=-0.1)
        with pytest.raises(ConfigError):
            Autoscaler(target_utilization=0.0)
        with pytest.raises(ConfigError):
            Autoscaler(target_utilization=1.5)
        with pytest.raises(ConfigError):
            Autoscaler(trend_alpha=0.0)
        with pytest.raises(ConfigError):
            Autoscaler(min_forecast_samples=1)
        with pytest.raises(ConfigError):
            Autoscaler(shrink_margin=0.9)
