"""Acceptance gate: the eight release criteria, each at its stated size.

Run with ``pytest -s tests/test_acceptance.py`` to see one [PASS]/[FAIL]
line per criterion.  Everything exact here is asserted with zero
tolerance; the only numeric statement (criterion 6) carries its agreement
target explicitly.
"""

import contextlib
import random
import time
from fractions import Fraction

import pytest

from refined_inertia.analysis import (
    Verdict,
    canonical_dumps,
    falsify_requires,
    hn_set,
    witness_suite,
)
from refined_inertia.cli import EXIT_OK, main
from refined_inertia.engine import (
    char_poly,
    count_eigen_re_leq,
    refined_inertia_exact,
    refined_inertia_numeric,
)
from refined_inertia.patterns import Sign, SignPattern, family_pattern, sgn_of_matrix
from refined_inertia.ratpoly import RationalPoly
from refined_inertia.realization import (
    ArrowMatrix,
    DegenerateMergeError,
    RealizationConfig,
    deflate_repeated,
    embed_witness,
)

ACCEPTANCE_SEED = 7075
FAMILY_ORDERS = range(4, 11)
FALSIFY_BUDGET = 5000
FAMILY_TIME_BUDGET_S = 120.0


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {label}")
        raise
    print(f"\n[PASS] {label}")


def _run_requires_grid():
    """Criterion 1 workload; shared with the determinism re-run of criterion 8."""
    reports = {}
    times = {}
    for i in (1, 2, 3):
        start = time.perf_counter()
        for n in FAMILY_ORDERS:
            cfg = RealizationConfig(seed=ACCEPTANCE_SEED)
            reports[(i, n)] = falsify_requires(family_pattern(i, n), FALSIFY_BUDGET, cfg)
        times[i] = time.perf_counter() - start
    return reports, times


@pytest.fixture(scope="module")
def requires_grid():
    return _run_requires_grid()


def test_criterion_1_requires_property(requires_grid):
    reports, times = requires_grid
    with criterion(
        "criterion 1: no certified inertia outside the target set "
        f"(budget {FALSIFY_BUDGET}, orders 4..10, all three families)"
    ):
        for (i, n), report in reports.items():
            hn = hn_set(n)
            assert report.verdict is not Verdict.COUNTEREXAMPLE, (i, n)
            assert report.counterexample is None, (i, n)
            for inertia, _ in report.histogram:
                assert inertia in hn, (i, n, inertia.as_tuple())
            assert report.samples == FALSIFY_BUDGET
        for i, elapsed in times.items():
            assert elapsed <= FAMILY_TIME_BUDGET_S, f"family {i} took {elapsed:.1f}s"
        print(
            "  per-family falsification time: "
            + ", ".join(f"family {i}: {t:.1f}s" for i, t in sorted(times.items()))
        )


def test_criterion_2_allows_property():
    with criterion("criterion 2: certified witnesses for all three inertias, orders 4..10"):
        for i in (1, 2, 3):
            for n in FAMILY_ORDERS:
                suite = witness_suite(i, n)
                expected = {ri.as_tuple() for ri in hn_set(n)}
                got = set()
                pattern = family_pattern(i, n)
                for inertia, arrow in suite.witnesses:
                    # independent recertification through the generic engine
                    matrix = arrow.to_matrix()
                    assert sgn_of_matrix(matrix) == pattern
                    assert refined_inertia_exact(char_poly(matrix)) == inertia
                    got.add(inertia.as_tuple())
                assert got == expected, (i, n)


def test_criterion_3_embedding_identity():
    with criterion("criterion 3: embedding char-poly identity, nine fixtures, orders 5..10"):
        for i in (1, 2, 3):
            for base_inertia, base in witness_suite(i, 4).witnesses:
                base_poly = char_poly(base.to_matrix())
                for n in range(5, 11):
                    lifted = embed_witness(base, n, i)
                    lifted_poly = char_poly(lifted.to_matrix())
                    factor = RationalPoly((base.b[0], 1)) ** (n - 4)
                    assert lifted_poly == factor * base_poly, (i, base_inertia, n)


def test_criterion_4_deflation_identity():
    with criterion("criterion 4: deflation char-poly identity on 500 forced-pair samples"):
        rng = random.Random(ACCEPTANCE_SEED)
        done = 0
        while done < 500:
            i = rng.choice([1, 2, 3])
            n = rng.randint(5, 9)
            signs = {1: (1, -1, -1), 2: (-1, -1, 1), 3: (-1, 1, 1)}[i]
            a = [
                Fraction(rng.randint(1, 60), rng.randint(1, 10)) * signs[min(k, 2)]
                for k in range(n)
            ]
            if i == 3:
                a[n - 1] = -a[n - 1]
            shared = Fraction(rng.randint(1, 60), rng.randint(1, 10))
            b = [shared, shared] + [
                Fraction(rng.randint(1, 60), rng.randint(1, 10)) for _ in range(n - 4)
            ]
            if i == 3:
                b[n - 3] = -b[n - 3]
            arrow = ArrowMatrix(a, b)
            assert sgn_of_matrix(arrow.to_matrix()) == family_pattern(i, n)
            try:
                eigenvalue, reduced = deflate_repeated(arrow)
            except DegenerateMergeError:
                continue
            assert eigenvalue == -shared
            lhs = char_poly(arrow.to_matrix())
            rhs = RationalPoly((shared, 1)) * char_poly(reduced.to_matrix())
            assert lhs == rhs
            done += 1


def test_criterion_5_lemma_suite(capsys):
    with criterion("criterion 5: lemma suite, 1000 samples per family and order 5..10"):
        for i in (1, 2, 3):
            for n in range(5, 11):
                code = main(
                    [
                        "lemmas",
                        "-i",
                        str(i),
                        "-n",
                        str(n),
                        "--samples",
                        "1000",
                        "--seed",
                        str(ACCEPTANCE_SEED),
                    ]
                )
                capsys.readouterr()
                assert code == EXIT_OK, f"lemma violation (exit {code}) at family {i}, order {n}"


def test_criterion_6_engine_cross_validation():
    with criterion(
        "criterion 6: exact/numeric agreement >= 99.9% on 1000 integer matrices, orders 3..8"
    ):
        rng = random.Random(ACCEPTANCE_SEED)
        total = 1000
        agreements = 0
        for _ in range(total):
            n = rng.randint(3, 8)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            numeric = refined_inertia_numeric(M)
            exact = refined_inertia_exact(char_poly(M))
            if numeric == exact:
                agreements += 1
            else:
                # the only allowed excuse: an eigenvalue certified within
                # 10 * axis_eps * scale of the imaginary axis
                scale = max(sum(abs(x) for x in row) for row in M)
                band = Fraction(10, 10**9) * scale
                in_strip = count_eigen_re_leq(M, -band) - count_eigen_re_leq(M, band)
                assert in_strip > 0, (M, numeric.as_tuple(), exact.as_tuple())
        assert agreements >= total * 999 // 1000
        print(f"  raw agreement {agreements}/{total}")


def test_criterion_7_negative_control():
    with criterion("criterion 7: all-plus order-4 pattern falsified within budget 1000"):
        pattern = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])
        report = falsify_requires(pattern, 1000, RealizationConfig(seed=ACCEPTANCE_SEED))
        assert report.verdict is Verdict.COUNTEREXAMPLE
        hn = hn_set(4)
        outside = [ri for ri, _ in report.histogram if ri not in hn]
        assert outside
        assert any(ri.n_plus >= 3 for ri in outside)
        assert report.counterexample is not None
        certified = refined_inertia_exact(char_poly(report.counterexample))
        assert certified not in hn


def test_criterion_8_determinism(requires_grid):
    reports, _ = requires_grid
    with criterion("criterion 8: repeating criterion 1 yields byte-identical JSON reports"):
        repeat, _ = _run_requires_grid()
        for key, report in reports.items():
            first = canonical_dumps(report.to_json_dict())
            second = canonical_dumps(repeat[key].to_json_dict())
            assert first == second, key
