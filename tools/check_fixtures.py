"""Rerun the eight pinned falsifier reports and compare them byte for byte.

Each file in ``tests/fixtures/falsify/`` is the canonical JSON report of
``falsify_requires(pattern, 50, seed 7075)`` for one pattern: families
1-3 at orders 4 and 10, the all-plus 4x4 pattern, and a 6x6 block
pattern with zero entries.  The last two are outside the families, so
Berkowitz counts their samples: the all-plus pattern's steps are dense,
while the block pattern's zeros give a diagonal step and a zero border
after a dense step.  This script recomputes every report at ``jobs`` 1
and 2 and prints one line per comparison, then a summary.  It also
re-certifies, through ``riq inertia --exact`` (Berkowitz on the dense
matrix, not the witness suite's spoke expansion), every counterexample a
report pins and every witness matrix ``riq witness`` emits for families
1-3 at orders 4 and 10.  A counterexample's inertia must be exact and
lie outside the target set, and at least one report must pin one.  A
witness must be in its family's class with the inertia it is listed
under, and each suite's three inertias must be the target set.  First,
from a fixed seed, it builds 4000 products of factors whose roots are
known by construction (x, t x - s, (x^2 + c)^m for m <= 4, x^2 - c, a
complex pair and an opposite quadruple, under a lead of either sign) and
asserts the refined inertia refined_inertia_exact gives each, printing
one line for the lot.  It prints a ``FAIL`` line for each check that
does not hold, and exits 1 if any fails.  It needs only the standard
library, so any installed interpreter can check that the sample stream
and the exact engine reproduce the reports:

    PYTHONPATH=src python tools/check_fixtures.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refined_inertia import cli  # noqa: E402
from refined_inertia.analysis import canonical_dumps, falsify_requires, hn_set  # noqa: E402
from refined_inertia.engine import InternalCheckError, RefinedInertia, refined_inertia_exact  # noqa: E402
from refined_inertia.patterns import (  # noqa: E402
    Sign,
    SignPattern,
    family_pattern,
    parse_pattern,
    sgn_of_matrix,
)
from refined_inertia.ratpoly import RationalPoly  # noqa: E402
from refined_inertia.realization import RealizationConfig, matrix_from_json  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures" / "falsify"
BUDGET = 50
SEED = 7075
JOBS = (1, 2)
WITNESS_ORDERS = (4, 10)
BLOCK_6 = """
- + 0 0 0 0
+ - + 0 0 0
0 - + 0 0 0
+ 0 - - + 0
0 + 0 - 0 +
- 0 0 + - -
"""
KNOWN_ROOT_PRODUCTS = 4000


def fixture_patterns() -> dict[str, SignPattern]:
    patterns = {f"family-{i}-order-{n}": family_pattern(i, n) for i in (1, 2, 3) for n in (4, 10)}
    patterns["all-plus-4"] = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])
    patterns["block-order-6"] = parse_pattern(BLOCK_6)
    return patterns


def _times(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def known_root_product(rng: random.Random) -> tuple[list[int], tuple[int, int, int, int]]:
    """(num, counts): a lead times one to five factors, and the refined inertia their roots give."""
    num, counts = [rng.choice((-3, -1, 1, 2, 5))], [0, 0, 0, 0]  # n_plus, n_minus, n_zero, two_n_p
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(6)
        s, t, c = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4), rng.randint(1, 12)
        side = 0 if s > 0 else 1
        if kind == 0:  # x: a zero root
            factor, roots = [0, 1], {2: 1}
        elif kind == 1:  # t x - s: the root s / t
            factor, roots = [-s, t], {side: 1}
        elif kind == 2:  # (x^2 + c)^m: +-i sqrt(c), m times
            m = rng.randint(1, 4)
            factor, roots = [1], {3: 2 * m}
            for _ in range(m):
                factor = _times(factor, [c, 0, 1])
        elif kind == 3:  # x^2 - c: +-sqrt(c)
            factor, roots = [-c, 0, 1], {0: 1, 1: 1}
        elif kind == 4:  # (t x - s)^2 + c: (s +- i sqrt(c)) / t
            factor, roots = [s * s + c, -2 * s * t, t * t], {side: 2}
        else:  # the pair above and its opposite: (+-s +- i sqrt(c)) / t
            factor = _times([s * s + c, -2 * s * t, t * t], [s * s + c, 2 * s * t, t * t])
            roots = {0: 2, 1: 2}
        num = _times(num, factor)
        for where, count in roots.items():
            counts[where] += count
    return num, tuple(counts)


def check_known_roots() -> bool:
    """Whether refined_inertia_exact gives every known-root product the counts of its roots."""
    rng = random.Random(SEED)
    failures = 0
    for k in range(KNOWN_ROOT_PRODUCTS):
        num, counts = known_root_product(rng)
        try:
            got = refined_inertia_exact(RationalPoly.from_ints(num))
        except (InternalCheckError, ValueError) as exc:  # ValueError: a negative count
            got = exc
        if got != counts:
            failures += 1
            print(f"FAIL known-root product {k} {num}: counted {got}, its roots give {counts}")
    passed = KNOWN_ROOT_PRODUCTS - failures
    print(f"{'ok  ' if not failures else 'FAIL'} {passed}/{KNOWN_ROOT_PRODUCTS} known-root products counted exactly")
    return not failures


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
    known_roots = check_known_roots()
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
    return 0 if known_roots and matched == total and counterexamples and witnesses else 1


if __name__ == "__main__":
    sys.exit(main())
