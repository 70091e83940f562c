"""Cold set-up probe: import ``repro`` and compile the default trace set.

This is the work every ``repro serve`` / ``repro federate`` invocation
pays before its first request: importing the package and compiling each
distinct (scene, pipeline, width, height) trace with ``compile_program``
while its per-process probe memo is still empty. Run as a script in a
fresh process, it prints ``{"total_s": ..., "per_key_s": [...]}``; the
benchmark also calls :func:`cold_setup` in its own process before
anything else has imported ``repro``.
"""

from __future__ import annotations

import json
import time


def trace_keys() -> list[tuple[str, str, int, int]]:
    """The distinct trace keys of the default request mix, which every
    benchmark workload serves."""
    from repro.serve.traffic import (
        DEFAULT_PIPELINES,
        DEFAULT_RESOLUTION,
        DEFAULT_SCENES,
    )

    return [(scene, pipeline, *DEFAULT_RESOLUTION)
            for scene in DEFAULT_SCENES for pipeline in DEFAULT_PIPELINES]


def cold_setup() -> tuple[float, list[float]]:
    """Seconds to import ``repro`` and cold-compile :func:`trace_keys`,
    plus the seconds of each compile (in key order)."""
    began = time.perf_counter()
    import repro  # noqa: F401
    from repro.compile import compile_program

    per_key = []
    for key in trace_keys():
        started = time.perf_counter()
        compile_program(*key)
        per_key.append(time.perf_counter() - started)
    return time.perf_counter() - began, per_key


if __name__ == "__main__":
    total_s, per_key_s = cold_setup()
    print(json.dumps({"total_s": total_s, "per_key_s": per_key_s}))
