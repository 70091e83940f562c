"""Tests of the benchmark's own logic: the correctness gate, span self
time, and the metric names each workload reports.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serve import RenderRequest, RenderResponse, ServiceReport  # noqa: E402

from perfbench import gate, run, workloads  # noqa: E402
from perfbench.spans import Spans, self_time  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _request(request_id, arrival_s=0.0):
    return RenderRequest(request_id=request_id, scene="lego",
                         pipeline="mesh", width=8, height=8,
                         arrival_s=arrival_s)


def _response(request, chip_id, start_s, finish_s):
    return RenderResponse(
        request=request, chip_id=chip_id, batch_id=0, start_s=start_s,
        finish_s=finish_s, cycles=1.0, switch_cycles=0.0,
        frame_reconfig_cycles=0.0, energy_j=0.0, cache_hit=True,
        dispatched_s=request.arrival_s)


def _report(responses):
    return ServiceReport(policy="round-robin", responses=responses,
                         chips=[], cache_stats={})


def test_clean_hand_built_report_passes():
    requests = [_request(0), _request(1)]
    report = _report([_response(requests[0], 0, 0.0, 1.0),
                      _response(requests[1], 0, 1.0, 2.0)])
    assert gate.check_service(report, requests) == []


def test_lost_request_is_flagged():
    requests = [_request(0), _request(1), _request(2)]
    report = _report([_response(requests[0], 0, 0.0, 1.0),
                      _response(requests[1], 1, 0.0, 1.0)])
    findings = gate.check_service(report, requests)
    assert any("offered 3 != completed 2" in f for f in findings)
    assert any("1 offered requests never closed" in f for f in findings)


def test_overlapping_frames_on_one_chip_are_flagged():
    requests = [_request(0), _request(1)]
    report = _report([_response(requests[0], 3, 0.0, 1.0),
                      _response(requests[1], 3, 0.5, 1.5)])
    assert gate.check_service(report, requests) == [
        "chip 3 ran two frames at once"]


def test_frame_started_before_arrival_is_flagged():
    request = _request(0, arrival_s=1.0)
    report = _report([_response(request, 0, 0.5, 2.0)])
    assert len(gate.check_service(report, [request])) == 1


def test_self_time_subtracts_the_union_of_children():
    # Children [1, 3) and [2, 5) overlap: their union is [1, 5), so the
    # parent [0, 10) keeps 6 s, not 10 - 2 - 3 = 5 s. A child running
    # past the parent's end is clipped to it.
    assert self_time((0.0, 10.0), [(2.0, 5.0), (1.0, 3.0)]) == 6.0
    assert self_time((0.0, 10.0), [(8.0, 12.0)]) == 8.0
    assert self_time((0.0, 10.0), []) == 10.0


def test_spans_record_parents_and_self_time():
    spans = Spans()
    with spans.span("e2e") as root:
        with spans.span("engine") as engine:
            with spans.span("compile.run"):
                pass
        with spans.span("report.json"):
            pass
    assert spans.parents == [None, root, engine, root]
    assert spans.subtree(engine) == [engine, engine + 1]
    by_name = spans.self_by_name(root)
    assert set(by_name) == {"e2e", "engine", "compile.run", "report.json"}
    assert sum(by_name.values()) == pytest.approx(spans.duration(root))


def _names(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_workload_names_match_benchmark_json():
    names = tuple(w["name"] for w in BENCHMARK["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    metrics = run.end_to_end_metrics([1.0], [1.0], [1.0], 1.0)
    assert {k: v["unit"] for k, v in metrics.items()} == _names(
        BENCHMARK["end_to_end"])


def test_host_times_are_scaled_by_the_reference_kernel():
    # A host running the reference kernel at half its nominal speed
    # scales the median raw rate up, and the median set-up time down, by
    # 2 ** REFERENCE_EXPONENT; memory is left alone.
    slow = 2 * run.REFERENCE_NOMINAL_S
    metrics = run.end_to_end_metrics([90.0, 100.0, 400.0], [slow, slow, 1.0],
                                     [3.0, 4.0, 9.0], 50.0)
    factor = 2 ** run.REFERENCE_EXPONENT
    assert metrics["sim_req_per_s"]["value"] == pytest.approx(100.0 * factor)
    assert metrics["setup_s"]["value"] == pytest.approx(4.0 / factor)
    assert metrics["peak_rss_mb"]["value"] == 50.0


@pytest.fixture
def small_workloads(monkeypatch):
    """The three workloads shrunk to a few hundred requests."""
    monkeypatch.setitem(workloads.STATIC_TRAFFIC, "n_requests", 400)
    monkeypatch.setitem(workloads.CHAOS_TRAFFIC, "n_requests", 400)
    monkeypatch.setattr(workloads, "FEDERATION_PER_REGION", 150)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_workload_reports_the_per_layer_names(small_workloads, name):
    checker = run.Gate()
    spans = Spans()
    untraced, traced = run.run_traced(name, workloads.WORKLOADS[name], 3,
                                      0.0, checker, spans)
    assert checker.failed == 0 and checker.attempted == 4
    measured, _ = run.traced_layer_metrics(untraced, traced, spans,
                                           [1.0, 2.0], 0.1)
    assert set(measured) <= set(run.PER_LAYER)
    metrics = run.layer_metrics(measured)
    assert {k: v["unit"] for k, v in metrics.items()} == _names(
        BENCHMARK["per_layer"])
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
