"""Rerun the seven pinned falsifier reports and compare them byte for byte.

Each file in ``tests/fixtures/falsify/`` is the canonical JSON report of
``falsify_requires(pattern, 50, seed 7075)`` for one pattern: families
1-3 at orders 4 and 10, and the all-plus 4x4 pattern.  This script
recomputes every report at ``jobs`` 1 and 2 and prints one line per
comparison, then a summary.  It also re-certifies every counterexample a
report pins, through ``riq inertia --exact``: its inertia must be exact
and lie outside the target set, and at least one report must pin one; it
prints a ``FAIL`` line for each that does not.  It exits 1 if any report
differs or any certification fails.  It needs only the standard library,
so any installed interpreter can check that the sample stream and the
exact engine reproduce the reports:

    PYTHONPATH=src python tools/check_fixtures.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refined_inertia import cli  # noqa: E402
from refined_inertia.analysis import canonical_dumps, falsify_requires, hn_set  # noqa: E402
from refined_inertia.engine import RefinedInertia  # noqa: E402
from refined_inertia.patterns import Sign, SignPattern, family_pattern  # noqa: E402
from refined_inertia.realization import RealizationConfig  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures" / "falsify"
BUDGET = 50
SEED = 7075
JOBS = (1, 2)


def fixture_patterns() -> dict[str, SignPattern]:
    patterns = {f"family-{i}-order-{n}": family_pattern(i, n) for i in (1, 2, 3) for n in (4, 10)}
    patterns["all-plus-4"] = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])
    return patterns


def recertify_counterexamples() -> bool:
    """Whether riq inertia --exact puts every pinned counterexample outside the target set."""
    pinned = []
    for report in sorted(FIXTURES.glob("*.json")):
        matrix = json.loads(report.read_text())["counterexample"]
        if matrix is not None:
            pinned.append((report.name, matrix))
    if not pinned:
        print("FAIL no fixture report pins a counterexample")
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counterexample.json"
        for name, matrix in pinned:
            path.write_text(json.dumps(matrix))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["inertia", "--matrix", str(path), "--exact"])
            result = json.loads(out.getvalue()) if code == cli.EXIT_OK else {}
            if result.get("method") != "exact" or RefinedInertia(**result["inertia"]) in hn_set(matrix["n"]):
                failures += 1
                print(f"FAIL {name}: counterexample not certified outside the target set (exit {code}, {result})")
    return bool(pinned) and not failures


def main() -> int:
    total = matched = 0
    for name, pattern in fixture_patterns().items():
        expected = (FIXTURES / f"{name}.json").read_bytes()
        for jobs in JOBS:
            report = falsify_requires(pattern, BUDGET, RealizationConfig(seed=SEED), jobs=jobs)
            same = canonical_dumps(report.to_json_dict()).encode("utf-8") == expected
            total += 1
            matched += same
            print(f"{'ok  ' if same else 'DIFF'} {name} jobs={jobs}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{matched}/{total} reports match on Python {version}")
    certified = recertify_counterexamples()
    return 0 if matched == total and certified else 1


if __name__ == "__main__":
    sys.exit(main())
