"""Benchmark for refined-inertia: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: falsify-grid, lemma-suite, dense-exact, analyze-cli (see
bench/README.md).  The package is imported from ``src/`` of the checkout
this file sits in; there is nothing to build.

Set-up is timed as the wall time of a fresh interpreter that imports the
package and builds the workload's inputs, repeated and reported as the
median.  The measured run is a separate interpreter that runs whole rounds
of the workload for ``--seconds`` seconds and then checks its outputs.
Times are scaled by the machine's speed measured around them (speed.py);
the raw figures are printed beside them.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``bench/out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 5
RUN_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _run(cmd: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])}: timed out after {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n{err}")
    return out


def _setup_seconds(base: list[str]) -> tuple[float, float]:
    """Median set-up time, speed-scaled and raw (see speed.py)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.reference_seconds()
        start = time.perf_counter()
        _run(base + ["--setup-only"], SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        after = speed.reference_seconds()
        scaled.append(raw[-1] * speed.NOMINAL_S / ((before + after) / 2))
    return statistics.median(scaled), statistics.median(raw)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "refined_inertia" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    run_cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup_s, setup_raw = _setup_seconds(base) if not args.trace else (None, None)
        result = json.loads(_run(run_cmd, RUN_TIMEOUT_S).splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"rounds {result['rounds']}, operations attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for error in result["errors"]:
        print(f"failed operation:\n{error}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
        print(f"run_s {result['run_s']:.4f} s (traced)")
        print(f"spans written to bench/out/trace-{args.workload}.jsonl")
        for name, metric in metrics.items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']} per round")
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "run_s": _metric(result["run_s"], "s"),
            "samples_per_s": _metric(result["samples_per_s"], "samples/s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
        result["extra"]["setup_s_raw"] = _metric(setup_raw, "s")
        for name, metric in {**metrics, **result["extra"]}.items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
