"""Rerun the seven pinned falsifier reports and compare them byte for byte.

Each file in ``tests/fixtures/falsify/`` is the canonical JSON report of
``falsify_requires(pattern, 50, seed 7075)`` for one pattern: families
1-3 at orders 4 and 10, and the all-plus 4x4 pattern.  This script
recomputes every report at ``jobs`` 1 and 2 and prints one line per
comparison, then a summary.  It also re-certifies, through ``riq inertia
--exact`` (Berkowitz on the dense matrix, not the witness suite's spoke
expansion), every counterexample a report pins and every witness matrix
``riq witness`` emits for families 1-3 at orders 4 and 10.  A
counterexample's inertia must be exact and lie outside the target set,
and at least one report must pin one.  A witness must be in its family's
class with the inertia it is listed under, and each suite's three
inertias must be the target set.  It prints a ``FAIL`` line for each
that does not hold, and exits 1 if any report differs or any
certification fails.  It needs only the standard library, so any
installed interpreter can check that the sample stream and the exact
engine reproduce the reports:

    PYTHONPATH=src python tools/check_fixtures.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refined_inertia import cli  # noqa: E402
from refined_inertia.analysis import canonical_dumps, falsify_requires, hn_set  # noqa: E402
from refined_inertia.engine import RefinedInertia  # noqa: E402
from refined_inertia.patterns import Sign, SignPattern, family_pattern, sgn_of_matrix  # noqa: E402
from refined_inertia.realization import RealizationConfig, matrix_from_json  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures" / "falsify"
BUDGET = 50
SEED = 7075
JOBS = (1, 2)
WITNESS_ORDERS = (4, 10)


def fixture_patterns() -> dict[str, SignPattern]:
    patterns = {f"family-{i}-order-{n}": family_pattern(i, n) for i in (1, 2, 3) for n in (4, 10)}
    patterns["all-plus-4"] = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])
    return patterns


def riq_json(argv: list[str]) -> dict | None:
    """The JSON a riq command prints, run in this process; None if it exits nonzero."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return json.loads(out.getvalue()) if code == cli.EXIT_OK else None


def exact_inertia(path: Path, matrix: dict) -> RefinedInertia | None:
    """The inertia riq inertia --exact certifies for the matrix JSON, written to path first."""
    path.write_text(json.dumps(matrix))
    result = riq_json(["inertia", "--matrix", str(path), "--exact"]) or {}
    return RefinedInertia(**result["inertia"]) if result.get("method") == "exact" else None


def recertify_counterexamples(path: Path) -> bool:
    """Whether riq inertia --exact puts every pinned counterexample outside the target set."""
    pinned = []
    for report in sorted(FIXTURES.glob("*.json")):
        matrix = json.loads(report.read_text())["counterexample"]
        if matrix is not None:
            pinned.append((report.name, matrix))
    if not pinned:
        print("FAIL no fixture report pins a counterexample")
    failures = 0
    for name, matrix in pinned:
        inertia = exact_inertia(path, matrix)
        if inertia is None or inertia in hn_set(matrix["n"]):
            failures += 1
            print(f"FAIL {name}: counterexample not certified outside the target set (got {inertia})")
    return bool(pinned) and not failures


def recertify_witnesses(path: Path) -> bool:
    """Whether riq inertia --exact certifies every witness riq witness emits as listed."""
    failures = 0
    for i in (1, 2, 3):
        for n in WITNESS_ORDERS:
            suite = riq_json(["witness", "-i", str(i), "-n", str(n)]) or {"witnesses": []}
            got = []
            for witness in suite["witnesses"]:
                inertia = exact_inertia(path, witness["matrix"])
                in_class = sgn_of_matrix(matrix_from_json(witness["matrix"])) == family_pattern(i, n)
                if in_class and inertia == RefinedInertia(**witness["inertia"]):
                    got.append(inertia)
            if Counter(got) != Counter(hn_set(n)):
                failures += 1
                print(f"FAIL witness -i {i} -n {n}: certified {', '.join(map(str, got))}, not the target set")
    return not failures


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        counterexamples = recertify_counterexamples(path)
        witnesses = recertify_witnesses(path)
    return 0 if matched == total and counterexamples and witnesses else 1


if __name__ == "__main__":
    sys.exit(main())
