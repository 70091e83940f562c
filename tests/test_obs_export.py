"""Exporters: Chrome trace-event JSON schema and metrics timelines.

The end-to-end class replays a two-tenant preemption scenario with a
compile-worker pool under a full observer and checks the exported trace
the way Perfetto would read it: batch spans on per-chip tracks, compile
spans on per-worker tracks, preemption markers, and a schema-valid
event stream (the acceptance bar for ``--trace-out`` artifacts).
"""

import json

import pytest

from repro.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    Observer,
    Tracer,
    chrome_trace,
    load_chrome_trace,
    metrics_csv,
    save_chrome_trace,
    save_metrics,
    summarize_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.export import TRACK_PIDS
from repro.serve import (
    PipelineBatcher,
    ServeCluster,
    TenantClass,
    TraceCache,
    generate_tenant_traffic,
    make_admission_policy,
    simulate_service,
)
from tests.test_serve_invariants import stub_program


def small_tracer():
    tracer = Tracer()
    tracer.instant(0.001, "arrival", "request", ("tier", 0),
                   {"request_id": 1})
    tracer.span(0.002, 0.004, "batch hashgrid", "batch", ("chip", 1),
                {"size": 2})
    tracer.span(0.001, 0.003, "compile mesh", "compile", ("worker", 0))
    return tracer


class TestChromeTrace:
    def test_event_shapes_and_units(self):
        obj = chrome_trace(small_tracer())
        events = {e["name"]: e for e in obj["traceEvents"]
                  if e["ph"] != "M"}
        arrival = events["arrival"]
        assert arrival["ph"] == "i" and arrival["s"] == "t"
        assert arrival["ts"] == pytest.approx(1000.0)  # seconds -> us
        batch = events["batch hashgrid"]
        assert batch["ph"] == "X"
        assert batch["dur"] == pytest.approx(2000.0)
        assert batch["pid"] == TRACK_PIDS["chip"] and batch["tid"] == 1
        compile_ = events["compile mesh"]
        assert compile_["pid"] == TRACK_PIDS["worker"]

    def test_metadata_names_every_seen_track(self):
        obj = chrome_trace(small_tracer())
        meta = [e for e in obj["traceEvents"] if e["ph"] == "M"]
        named = {(e["pid"], e.get("tid")) for e in meta
                 if e["name"] == "thread_name"}
        assert (TRACK_PIDS["chip"], 1) in named
        assert (TRACK_PIDS["worker"], 0) in named

    def test_counter_events_come_from_metrics_timeline(self):
        reg = MetricsRegistry()
        reg.counter("engine.arrivals").inc(3)
        reg.snapshot(0.002)
        obj = chrome_trace(small_tracer(), metrics=reg)
        counters = [e for e in obj["traceEvents"] if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert "engine.arrivals" in names

    def test_validate_accepts_own_output(self):
        assert validate_chrome_trace(chrome_trace(small_tracer())) > 0

    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(small_tracer(), path)
        obj = load_chrome_trace(path)
        assert obj["displayTimeUnit"] == "ms"
        assert obj["otherData"]["recorded"] == 3

    def test_summary_mentions_events_and_tracks(self):
        text = summarize_chrome_trace(chrome_trace(small_tracer()))
        assert "trace events" in text
        assert "batch hashgrid" in text
        assert "chip 1" in text


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(ObsError):
            validate_chrome_trace([])

    def test_rejects_empty_event_list(self):
        with pytest.raises(ObsError):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_bad_phase(self):
        obj = chrome_trace(small_tracer())
        obj["traceEvents"][0]["ph"] = "Z"
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    def test_rejects_span_without_duration(self):
        obj = chrome_trace(small_tracer())
        for event in obj["traceEvents"]:
            if event["ph"] == "X":
                del event["dur"]
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    def test_rejects_negative_timestamp(self):
        obj = chrome_trace(small_tracer())
        obj["traceEvents"][-1]["ts"] = -1.0
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    def test_load_missing_file_is_obs_error(self, tmp_path):
        with pytest.raises(ObsError):
            load_chrome_trace(tmp_path / "nope.json")

    def test_load_malformed_json_is_obs_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ObsError):
            load_chrome_trace(path)


class TestMetricsExport:
    def make_registry(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        reg.histogram("lat").observe(4.0)
        c.inc()
        reg.snapshot(0.01)
        c.inc(2)
        reg.snapshot(0.02)
        return reg

    def test_csv_has_t_s_first_and_one_row_per_snapshot(self):
        text = metrics_csv(self.make_registry())
        lines = text.strip().splitlines()
        assert lines[0].startswith("t_s,")
        assert len(lines) == 3

    def test_save_picks_format_by_suffix(self, tmp_path):
        reg = self.make_registry()
        csv_path = save_metrics(reg, tmp_path / "m.csv")
        json_path = save_metrics(reg, tmp_path / "m.json")
        assert csv_path.read_text().startswith("t_s,")
        rows = json.loads(json_path.read_text())
        assert [row["t_s"] for row in rows] == [0.01, 0.02]
        assert rows[1]["n"] == 3


class TestEndToEndScenario:
    """The acceptance scenario: tenants + preemption + compile pool."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        premium = TenantClass("premium", slo_multiplier=1.0, weight=4.0,
                              tier=0)
        economy = TenantClass("economy", slo_multiplier=2.0, weight=1.0,
                              tier=1)
        trace = generate_tenant_traffic(
            [(premium, 0.25), (economy, 0.75)],
            pattern="bursty", n_requests=240, rate_rps=60000.0, seed=42,
            resolution=(64, 64), slo_s=0.001)
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
        report = simulate_service(
            trace,
            ServeCluster(3, policy="pipeline-affinity"),
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(max_batch=4),
            admission=make_admission_policy("weighted"),
            compile_workers=2,
            preempt=True,
            observer=observer,
        )
        return report, observer, chrome_trace(observer.tracer,
                                              metrics=observer.metrics)

    def test_exported_trace_is_schema_valid(self, traced_run):
        _report, _observer, obj = traced_run
        assert validate_chrome_trace(obj) > 0

    def test_batch_spans_land_on_per_chip_tracks(self, traced_run):
        _report, _observer, obj = traced_run
        chips = {e["tid"] for e in obj["traceEvents"]
                 if e["ph"] == "X" and e["pid"] == TRACK_PIDS["chip"]
                 and e["name"].startswith("batch ")}
        assert chips == {0, 1, 2}

    def test_compile_spans_land_on_worker_tracks(self, traced_run):
        _report, _observer, obj = traced_run
        workers = [e for e in obj["traceEvents"]
                   if e["ph"] == "X" and e["pid"] == TRACK_PIDS["worker"]]
        assert workers
        assert all(e["name"].startswith("compile ") for e in workers)

    def test_preemptions_are_marked(self, traced_run):
        report, _observer, obj = traced_run
        assert report.n_preemption_events > 0
        marks = [e for e in obj["traceEvents"]
                 if e["ph"] == "i" and e["name"] == "preempt"]
        assert len(marks) == report.n_preemption_events

    def test_metrics_agree_with_the_report(self, traced_run):
        report, observer, _obj = traced_run
        flat = observer.metrics.flatten()
        assert flat["engine.responses"] == len(report.responses)
        assert flat["engine.preemptions"] == report.n_preemption_events
        assert flat["admission.weighted.shed"] == report.n_shed
