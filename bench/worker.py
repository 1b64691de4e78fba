"""One benchmark process: set up a workload, run it in rounds, check it.

Started by ``run.py`` in a fresh interpreter, once per set-up measurement
(``--setup-only``: import the package and build the inputs, then exit) and
once for the measured run, so that the peak memory it reports covers only
the run and its own pool children.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402  (needs the source tree on the path)


def _run_rounds(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed.

    Returns per-round (wall time, speed scale, [(op, error, seconds)]),
    the first round's outputs by (kind, key), and the names of later
    outputs that differ from them.  The speed scale of a round is
    ``speed.NOMINAL_S`` over the mean of the reference times just before
    and just after it.  Later outputs are compared between rounds, outside
    the round's timing, and then dropped, so that the heap of the measured
    process does not grow with the number of rounds.
    """
    ops = workload.ops()
    rounds = []
    first: dict = {}
    mismatches: list[str] = []
    started = time.perf_counter()
    reference_before = speed.reference_seconds()
    while not rounds or time.perf_counter() - started < seconds:
        results = []
        round_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                output, error = op(), None
            except Exception:  # counted as a failed operation and reported
                output, error = None, traceback.format_exc(limit=3)
            results.append((op, output, error, time.perf_counter() - t0))
        round_s = time.perf_counter() - round_start
        reference_after = speed.reference_seconds()
        scale = speed.NOMINAL_S / ((reference_before + reference_after) / 2)
        reference_before = reference_after
        rounds.append((round_s, scale, [(op, e, dt) for op, _, e, dt in results]))
        for op, output, error, _ in results:
            key = (op.kind, op.key)
            if error is not None:
                continue
            if key not in first:
                first[key] = output
            elif output != first[key]:
                mismatches.append(f"round {len(rounds) - 1}: {key} differs from the first round")
    return rounds, first, mismatches


def _summary(workload, rounds) -> dict:
    """End-to-end figures: medians over rounds, plus operation counts.

    ``run_s`` and ``samples_per_s`` are speed-scaled; the raw medians are
    kept beside them for the human-readable lines.
    """
    records = [r for *_, recs in rounds for r in recs]
    times, rates = [], []
    for round_s, scale, recs in rounds:
        done = [(op, dt) for op, error, dt in recs if error is None]
        rated = sum(dt for op, dt in done if op.kind in workload.rate_kinds)
        times.append((round_s * scale, round_s))
        if rated:
            samples = sum(op.samples for op, _ in done)
            rates.append((samples / (rated * scale), samples / rated))
    summary = {
        "rounds": len(rounds),
        "attempted": len(records),
        "failed": sum(1 for _, error, _ in records if error is not None),
        "errors": sorted({error for _, error, _ in records if error})[:3],
        "run_s": statistics.median(t for t, _ in times),
        "samples_per_s": statistics.median(r for r, _ in rates) if rates else 0.0,
        "extra": {
            "run_s_raw": {"value": statistics.median(t for _, t in times), "unit": "s"},
            "samples_per_s_raw": {
                "value": statistics.median(r for _, r in rates) if rates else 0.0,
                "unit": "samples/s",
            },
            "machine_speed": {
                "value": statistics.median(scale for _, scale, _ in rounds), "unit": "ratio"
            },
        },
    }
    timed = {}
    for op, error, dt in records:
        if error is None:
            timed.setdefault(op.kind, []).append((op, dt))
    if "certify" in timed:
        # Dense-exact only: certification latency and the negative control's rate.
        certify = [dt for _, dt in timed["certify"]]
        control = timed.get("control", [])
        summary["extra"] |= {
            "certify_ms_p50": {"value": 1000 * statistics.median(certify), "unit": "ms"},
            "certify_ms_p99": {"value": 1000 * statistics.quantiles(certify, n=100)[98], "unit": "ms"},
            "certify_count": {"value": len(certify), "unit": "count"},
        }
        if control:
            summary["extra"]["control_samples_per_s"] = {
                "value": sum(op.samples for op, _ in control) / sum(dt for _, dt in control),
                "unit": "samples/s",
            }
    return summary


def _check(workload, first: dict) -> list[str]:
    """Independent checks of the first round's outputs."""
    try:
        return workload.check(first)
    except Exception:  # a check that cannot complete fails the run, with its traceback
        return [traceback.format_exc(limit=3)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    rounds, first, mismatches = _run_rounds(workload, args.seconds)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = _summary(workload, rounds)
    # Pool children are counted at the largest child's peak, once per worker.
    result["peak_rss_mb"] = (self_kb + workload.pool_jobs * child_kb) / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(len(rounds))
        tracer.write(BENCH / "out" / f"trace-{args.workload}.jsonl")
    result["problems"] = mismatches + _check(workload, first)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
