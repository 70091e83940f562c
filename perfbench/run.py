"""Benchmark of the ``repro`` serving simulator, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_static --seed 0 \\
        --seconds 30 --trace 0

One process runs one workload (see ``workloads.py``). It drives
``repro`` in-process through the public calls ``repro serve`` and
``repro federate`` make, single-threaded, with BLAS/OpenMP pools pinned
to one thread. The load is an offline batch of generated requests: the
simulator's own clock does the queueing, so there is no client loop.

``--trace 0`` reports the end-to-end metrics, with no spans recorded:

* ``sim_req_per_s`` -- offered requests per host second from spec to
  report JSON string: the median over iterations repeated for
  ``--seconds`` (at least three), scaled by the run's median time of a
  fixed reference kernel over its nominal time, to the power
  ``REFERENCE_EXPONENT`` (see :func:`reference_s`), so that a host
  slowed down by its neighbours for the length of a run reads about the
  same;
* ``setup_s`` -- seconds for a fresh process to import ``repro`` and
  cold-compile the workload's trace set: the median of this process's
  own set-up and of fresh processes run before and after the
  iterations, divided by the same host-speed factor;
* ``peak_rss_mb`` -- this process's peak resident memory.

``--trace 1`` alternates untraced iterations with iterations whose
calls into each layer are wrapped in spans, and reports the per-layer
split (the ``PER_LAYER`` table). Spans are written to
``perfbench/results/`` when the run ends.

Every iteration passes the correctness gate (``gate.py``) and every
iteration of one seed must produce the same report digest; an
iteration that raises or fails counts as failed. The last line of
standard output is the JSON result. Simulated statistics are printed in
their own section: they are model outputs, not metrics.

Seeds: the default is 0; 7 is held out for confirming later claims.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "perfbench" / "results"

DEFAULT_SEED = 0
#: Iterations measured at least, however long ``--seconds`` is.
MIN_ITERATIONS = 3
#: Untraced-then-traced iteration pairs a traced run measures at least.
MIN_TRACED_PAIRS = 2
CORE_REPEATS = 5
#: Share of an untraced run's time spent timing the reference kernel,
#: interleaved with the iterations.
REFERENCE_SHARE = 0.1
#: Median seconds of :func:`reference_s` on the host the bounds were set
#: on (a 2-vCPU x86-64 VM, CPython 3.11); ``sim_req_per_s`` and
#: ``setup_s`` are scaled to it.
REFERENCE_NOMINAL_S = 0.06
#: How much of the kernel's slowdown the workloads share. On that host,
#: 40 runs spanning calm and contended periods (kernel median 0.054 to
#: 0.127 s) lost about 0.7 of the kernel's log slowdown, presumably
#: because they wait on memory more than the kernel does. An exponent of 1 over-corrected by 12-21%, 0 left
#: 22-36% between the periods. Set-up time, measured in the same runs,
#: moved less (0.43 of the kernel's log slowdown), but one factor for
#: both kept its medians within 10% between the periods, against 48%
#: unscaled.
REFERENCE_EXPONENT = 0.7
#: Seconds of reference samples a traced run takes for ``env.calib_s``.
TRACED_REFERENCE_S = 1.0

WORKLOAD_NAMES = ("serve_static", "serve_chaos", "federate_outage")

END_TO_END = {
    "sim_req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "env.calib_s": "s",
    "traffic.gen_s": "s",
    "traffic.requests": "count",
    "compile.build_s": "s",
    "compile.pairs": "count",
    "compile.run_calls": "count",
    "compile.run_s": "s",
    "compile.cache_hit_rate": "ratio",
    "core.simulate_s": "s",
    "core.priced_pairs": "count",
    "engine.self_s": "s",
    "engine.us_per_request": "us",
    "engine.batches": "count",
    "engine.mean_batch": "requests",
    "engine.chips_ever": "count",
    "engine.fleet_events": "count",
    "engine.preemptions": "count",
    "engine.crashes": "count",
    "engine.hedges": "count",
    "engine.hedge_waste_ratio": "ratio",
    "report.build_s": "s",
    "report.json_s": "s",
    "report.bytes": "bytes",
    "obs.inline_s": "s",
    "obs.export_s": "s",
    "obs.events": "count",
    "obs.dropped": "count",
    "federation.self_s": "s",
    "federation.epochs": "count",
    "federation.gossip_messages": "count",
    "federation.failovers": "count",
    "federation.outage_served": "count",
    "federation.chip_overlap": "count",
    "trace.e2e_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}

#: Span name -> the per-layer metric holding its self time.
SELF_TIME_OF = {
    "traffic.gen": "traffic.gen_s",
    "compile.run": "compile.run_s",
    "engine": "engine.self_s",
    "report.build": "report.build_s",
    "report.json": "report.json_s",
    "obs.export": "obs.export_s",
    "federation": "federation.self_s",
    "e2e": "trace.unattributed_s",
}


class _Event:
    __slots__ = ("at", "key", "value")

    def __init__(self, at: float, key: int, value: float) -> None:
        self.at, self.key, self.value = at, key, value

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def reference_s() -> float:
    """Host seconds of a fixed pure-Python kernel shaped like the
    simulator's hot path: an event heap of slotted objects, dict
    accumulation and JSON encoding. It calls nothing in ``repro``, so
    only the host's speed moves it, and a change to ``repro`` leaves it
    alone."""
    began = time.perf_counter()
    heap, totals, state = [], {}, 12345
    for k in range(25_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(state / 2147483648.0, k % 97, float(k)))
        if len(heap) > 512:
            event = heapq.heappop(heap)
            totals[event.key] = (totals.get(event.key, 0.0)
                                 + event.value * event.at)
    json.dumps([{"id": k, "name": str(k), "total": totals.get(k % 97, 0.0)}
                for k in range(8_000)])
    return time.perf_counter() - began


def time_reference(budget_s: float) -> list[float]:
    """Reference-kernel samples filling ``budget_s`` seconds, at least
    one."""
    samples = [reference_s()]
    while sum(samples) < budget_s:
        samples.append(reference_s())
    return samples


def fresh_process_setup() -> float:
    """Cold set-up seconds measured inside a fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["total_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(rates, reference, setup_samples, rss_mb) -> dict:
    """``rates`` are the iterations' raw requests per host second and
    ``reference`` the run's reference-kernel seconds; both host-time
    metrics are scaled to the speed of the reference host."""
    speed = ((statistics.median(reference) / REFERENCE_NOMINAL_S)
             ** REFERENCE_EXPONENT)
    values = {
        "sim_req_per_s": statistics.median(rates) * speed,
        "setup_s": statistics.median(setup_samples) / speed,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def layer_metrics(measured: dict) -> dict:
    """Every ``PER_LAYER`` metric; a layer the workload never enters
    reads 0."""
    return {name: {"value": measured.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()}


class Gate:
    """Counts attempted and failed iterations: an iteration fails when
    it raises, when the correctness gate finds a violation, or when its
    report digest differs from the first iteration's."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.findings: list[str] = []

    def run(self, fn, *args):
        """Call ``fn(*args)``; returns its outcome (failed or not), or
        ``None`` when it raised."""
        self.attempted += 1
        try:
            outcome = fn(*args)
        except Exception:  # noqa: BLE001 -- a failed iteration is counted
            traceback.print_exc()
            self.failed += 1
            return None
        problems = list(outcome.violations)
        if self.digest is None:
            self.digest = outcome.digest
        elif outcome.digest != self.digest:
            problems.append("report digest differs from the first "
                            "iteration of this seed")
        if problems:
            self.failed += 1
            self.findings.extend(problems[:5])
        return outcome


def keep_going(began: float, last_began: float, seconds: float) -> bool:
    """True while the midpoint of another iteration as long as the last
    one still falls within ``seconds`` of ``began``."""
    now = time.perf_counter()
    return (now - began) + (now - last_began) / 2 <= seconds


def run_untraced(run, seed: int, seconds: float, gate: Gate):
    """Iterations for ``seconds`` (at least ``MIN_ITERATIONS``), each
    followed by reference-kernel samples worth ``REFERENCE_SHARE`` of
    its time; returns the outcomes and the reference samples."""
    outcomes, reference = [], []
    began = last = time.perf_counter()
    while gate.attempted < MIN_ITERATIONS or keep_going(began, last, seconds):
        last = time.perf_counter()
        # Each iteration starts without the last one's garbage.
        gc.collect()
        outcome = gate.run(run, seed)
        if outcome is not None:
            outcomes.append(outcome)
        reference.extend(
            time_reference(REFERENCE_SHARE * (time.perf_counter() - last)))
    return outcomes, reference


def run_traced(workload: str, run, seed: int, seconds: float, gate: Gate,
               spans):
    """Alternate untraced and traced iterations for ``seconds`` (at
    least ``MIN_TRACED_PAIRS`` of each); returns the untraced outcomes
    and, per traced iteration, ``(outcome, root span, inline_s)``."""
    from repro.compile import compile_program

    from perfbench import workloads

    def timed_compile(key):
        with spans.span("compile.run"):
            return compile_program(*key)

    untraced, traced = [], []
    began = last = time.perf_counter()
    while (gate.attempted < 2 * MIN_TRACED_PAIRS
           or keep_going(began, last, seconds)):
        last = time.perf_counter()
        outcome = gate.run(run, seed)
        if outcome is not None:
            untraced.append(outcome)
        root = len(spans)
        outcome = gate.run(run, seed, spans, timed_compile)
        if outcome is None:
            continue
        inline_s = 0.0
        if workload == "serve_chaos":
            # The same engine inputs without the observer.
            engine = next(k for k in spans.children(root)
                          if spans.names[k] == "engine")
            trace = workloads.chaos_traffic(seed)
            with spans.span("obs.probe") as probe:
                workloads.serve_chaos_engine(trace, seed, None,
                                             timed_compile)
            inline_s = spans.duration(engine) - spans.duration(probe)
        traced.append((outcome, root, inline_s))
    return untraced, traced


def price_pairs(configs, spans) -> tuple[float, int]:
    """Median seconds to simulate every distinct (program, chip config)
    pair once on the accelerator model, and the number of pairs."""
    from repro.compile import compile_program
    from repro.core import UniRenderAccelerator

    from perfbench.setup_probe import trace_keys

    programs = [compile_program(*key) for key in trace_keys()]
    samples = []
    for _ in range(CORE_REPEATS):
        with spans.span("core.simulate") as index:
            for config in configs:
                accelerator = UniRenderAccelerator(config)
                for program in programs:
                    accelerator.simulate(program)
        samples.append(spans.duration(index))
    return statistics.median(samples), len(programs) * len(configs)


def traced_layer_metrics(untraced, traced, spans, per_key_s, calib_s):
    """The per-layer split: medians of span self times over the traced
    iterations; counts from the last one (they repeat exactly)."""
    last = traced[-1][0]
    measured = dict(last.counters)
    self_samples: dict[str, list[float]] = {m: [] for m in SELF_TIME_OF.values()}
    calls, e2e, inline = [], [], []
    for _, root, inline_s in traced:
        by_name = spans.self_by_name(root)
        for name, metric in SELF_TIME_OF.items():
            self_samples[metric].append(by_name.get(name, 0.0))
        calls.append(sum(1 for k in spans.subtree(root)
                         if spans.names[k] == "compile.run"))
        e2e.append(spans.duration(root))
        inline.append(inline_s)
    for metric, samples in self_samples.items():
        measured[metric] = statistics.median(samples)
    traced_rate = statistics.median(
        outcome.n_offered / spans.duration(root) for outcome, root, _ in traced)
    untraced_rate = statistics.median(
        outcome.n_offered / outcome.elapsed_s for outcome in untraced)
    engine_s = measured["engine.self_s"]
    core_s, priced = price_pairs(last.configs, spans)
    measured.update({
        "env.calib_s": calib_s,
        "traffic.requests": last.n_offered,
        "compile.build_s": statistics.mean(per_key_s),
        "compile.pairs": len(per_key_s),
        "compile.run_calls": calls[-1],
        "core.simulate_s": core_s,
        "core.priced_pairs": priced,
        "engine.us_per_request": engine_s / last.n_offered * 1e6,
        "obs.inline_s": statistics.median(inline),
        "trace.e2e_s": statistics.median(e2e),
        "trace.overhead": 1.0 - traced_rate / untraced_rate,
    })
    return measured, untraced_rate


def print_model(outcome) -> None:
    print("model outputs (simulated; not metrics; the model is "
          "unvalidated against real hardware):")
    for name, value in outcome.model.items():
        print(f"  {name:<24} {value}")
    print(f"  {'report_sha256':<24} {outcome.digest}")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<26} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Pinned before anything imports NumPy, so the run (and the set-up
    # processes, which inherit the environment) measures one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from perfbench.setup_probe import cold_setup

    own_setup_s, per_key_s = cold_setup()
    # Only the untraced run reports setup_s; it takes a fresh-process
    # sample on each side of the iterations, as the reference kernel
    # samples the host all through them.
    setup_samples = [own_setup_s]
    if not args.trace:
        setup_samples.append(fresh_process_setup())

    from perfbench import workloads
    from perfbench.spans import Spans

    run = workloads.WORKLOADS[args.workload]
    gate = Gate()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")

    if args.trace:
        calib_s = statistics.median(time_reference(TRACED_REFERENCE_S))
        print(f"env.calib_s {calib_s:.6f}")
        spans = Spans()
        untraced, traced = run_traced(args.workload, run, args.seed,
                                      args.seconds, gate, spans)
        if not traced or not untraced:
            print("error: every iteration raised", file=sys.stderr)
            return 1
        measured, untraced_rate = traced_layer_metrics(
            untraced, traced, spans, per_key_s, calib_s)
        metrics = layer_metrics(measured)
        outcome = traced[-1][0]
        path = spans.save(
            RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        layer_sum = sum(measured[m] for m in SELF_TIME_OF.values())
        print(f"{len(traced)} traced and {len(untraced)} untraced "
              f"iterations; {len(spans)} spans -> {path}")
        print(f"untraced sim_req_per_s {untraced_rate:.1f}; tracing "
              f"overhead {measured['trace.overhead'] * 100:+.2f}%")
        print(f"median self times sum to {layer_sum:.4f} s "
              f"({measured['trace.unattributed_s']:.4f} s of it "
              f"unattributed) = {layer_sum / measured['trace.e2e_s']:.2%} "
              f"of the median traced end-to-end "
              f"{measured['trace.e2e_s']:.4f} s")
        print_metrics("per-layer (traced run, medians):", metrics)
    else:
        outcomes, reference = run_untraced(run, args.seed, args.seconds,
                                           gate)
        setup_samples.append(fresh_process_setup())
        if not outcomes:
            print("error: every iteration raised", file=sys.stderr)
            return 1
        rates = [o.n_offered / o.elapsed_s for o in outcomes]
        metrics = end_to_end_metrics(rates, reference, setup_samples,
                                     peak_rss_mb())
        outcome = outcomes[-1]
        print("raw requests per host second: "
              + " ".join(f"{r:.1f}" for r in rates)
              + f"  (median {statistics.median(rates):.1f})")
        print("reference kernel (env.calib_s): median "
              f"{statistics.median(reference):.6f}"
              f" s of {len(reference)} samples, nominal "
              f"{REFERENCE_NOMINAL_S} s")
        print("raw setup_s samples: "
              + " ".join(f"{s:.4f}" for s in setup_samples))
        print_metrics(f"end-to-end (tracing off, median of {len(rates)}):",
                      metrics)

    print_model(outcome)
    for finding in dict.fromkeys(gate.findings):
        print(f"gate: {finding}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
