"""Correctness gate applied to every benchmark iteration.

It checks the properties the program already promises for a report
(conservation, exactly-once completion, per-response causality and
per-chip mutual exclusion) and returns the violations it found; an
empty list passes. Digest equality across the iterations of one seed is
checked by the caller, which sees every iteration.

The two known federation defects are *counted*, not gated:
:func:`federation_defects` measures completions served by a region
during its own outage and overlapping frames on one (region, chip)
across sync epochs.
"""

from __future__ import annotations

from collections import defaultdict

EPS = 1e-12


def _causality(responses) -> list[str]:
    out = []
    for r in responses:
        if not (r.request.arrival_s - EPS <= r.dispatched_s
                <= r.start_s + EPS and r.start_s <= r.finish_s + EPS):
            out.append(
                f"request {r.request.request_id}: arrival "
                f"{r.request.arrival_s!r} <= dispatched {r.dispatched_s!r} "
                f"<= start {r.start_s!r} <= finish {r.finish_s!r} fails")
    return out


def _overlaps(frames) -> int:
    """Frames (``(start, finish)`` pairs) that start before an earlier-
    starting frame has finished."""
    count = 0
    latest = float("-inf")
    for start, finish in sorted(frames):
        if start < latest - EPS:
            count += 1
        latest = max(latest, finish)
    return count


def _ledger(offered_ids, completed_ids, shed_ids, failed_ids) -> list[str]:
    out = []
    n_offered = len(offered_ids)
    n_closed = len(completed_ids) + len(shed_ids) + len(failed_ids)
    if n_offered != n_closed:
        out.append(f"offered {n_offered} != completed {len(completed_ids)} "
                   f"+ shed {len(shed_ids)} + failed {len(failed_ids)}")
    if len(set(completed_ids)) != len(completed_ids):
        out.append("a request completed more than once")
    closed = set(completed_ids) | set(shed_ids) | set(failed_ids)
    if closed != set(offered_ids):
        lost = len(set(offered_ids) - closed)
        invented = len(closed - set(offered_ids))
        out.append(f"{lost} offered requests never closed, "
                   f"{invented} closed requests never offered")
    return out


def check_service(report, requests) -> list[str]:
    """Violations of one :class:`~repro.serve.ServiceReport` against the
    request list it was simulated from."""
    out = _ledger(
        [q.request_id for q in requests],
        [r.request.request_id for r in report.responses],
        [s.request.request_id for s in report.shed],
        [f.request.request_id for f in report.failed])
    out += _causality(report.responses)
    by_chip = defaultdict(list)
    for r in report.responses:
        by_chip[r.chip_id].append((r.start_s, r.finish_s))
    for chip_id, frames in sorted(by_chip.items()):
        if _overlaps(frames):
            out.append(f"chip {chip_id} ran two frames at once")
    return out


def check_federation(report, streams) -> list[str]:
    """Violations of one :class:`~repro.serve.FederationReport`.

    Mutual exclusion is checked within each region's sync epoch — one
    engine run, so one ``ServiceReport`` — because overlap *across*
    epochs is a known defect that :func:`federation_defects` counts.
    """
    out = _ledger(
        [q.request_id for stream in streams.values() for q in stream],
        [f.response.request.request_id for f in report.completed],
        [s.request.request_id for s in report.shed],
        [f.request.request_id for f in report.failed])
    out += _causality([f.response for f in report.completed])
    cadence = report.config.sync_cadence_s
    by_run = defaultdict(list)
    for f in report.completed:
        # A request is served in the epoch its arrival falls in.
        epoch = int(f.response.request.arrival_s // cadence)
        key = (f.region, epoch, f.response.chip_id)
        by_run[key].append((f.response.start_s, f.response.finish_s))
    for (region, epoch, chip_id), frames in sorted(by_run.items()):
        if _overlaps(frames):
            out.append(f"{region} chip {chip_id} ran two frames at once "
                       f"in epoch {epoch}")
    return out


def federation_defects(report) -> dict[str, int]:
    """Counts of the two known federation defects: ``outage_served``
    (completions in a region during its own outage) and
    ``chip_overlap`` (overlapping frames on one (region, chip), which
    only happens across epochs once :func:`check_federation` passes)."""
    outages = report.plan.outages if report.plan is not None else ()
    outage_served = sum(
        1 for f in report.completed for outage in outages
        if outage.region == f.region and outage.covers(f.response.finish_s))
    by_chip = defaultdict(list)
    for f in report.completed:
        by_chip[(f.region, f.response.chip_id)].append(
            (f.response.start_s, f.response.finish_s))
    chip_overlap = sum(_overlaps(frames) for frames in by_chip.values())
    return {"outage_served": outage_served, "chip_overlap": chip_overlap}
