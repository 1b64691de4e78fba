"""Sampling, arrowhead normalization, witness embedding, and deflation."""

import json
import random
from fractions import Fraction

import pytest

from refined_inertia.analysis import _falsify_chunk, _sample_seed, hn_set
from refined_inertia.engine import char_poly, det_rational, refined_inertia_exact
from refined_inertia.patterns import Sign, SignPattern, family_pattern, sgn_of_matrix
from refined_inertia.ratpoly import RationalPoly, squarefree_decomposition
from refined_inertia.realization import (
    ArrowMatrix,
    DegenerateMergeError,
    MembershipError,
    RealizationConfig,
    _dyadic,
    _signed_draws,
    arrow_char_poly,
    deflate_repeated,
    embed_witness,
    family_index,
    family_sample_arrow,
    matrix_from_json,
    matrix_to_json,
    rational_rows,
    sample_realization,
    sample_rows,
    to_arrow_form,
)
from refined_inertia.witness_fixtures import WITNESS_PARAMS

from polys import from_roots, mul, power


def samples(pattern, seed, count):
    """count samples of Q(pattern), one derived seed per index."""
    return [
        sample_realization(pattern, RealizationConfig(seed=seed * 1000 + k)) for k in range(count)
    ]


class TestArrowMatrix:
    def test_structure(self):
        arrow = ArrowMatrix([5, 6, 7, 8], [2, 3])
        M = arrow.to_matrix()
        assert M[0] == (5, 1, 1, 1)
        assert [row[0] for row in M] == [5, 6, 7, 8]
        assert M[1][1] == 0 and M[2][2] == -2 and M[3][3] == -3
        assert M[1][2] == M[2][3] == M[3][1] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrowMatrix([1, 2, 3], [1])
        with pytest.raises(ValueError):
            ArrowMatrix([1, 2, 3, 4], [1])
        with pytest.raises(TypeError):
            ArrowMatrix([1.0, 2, 3, 4], [1, 2])
        with pytest.raises(ValueError):
            ArrowMatrix.from_ints([1, 2, 3, 4], 1, [1], 1)
        with pytest.raises(ValueError, match="positive"):
            ArrowMatrix.from_ints([1, 2, 3, 4], 1, [1, 2], -1)

    def test_from_ints_follows_the_rationals(self):
        # Integers over a common denominator that is not the least one give
        # the same arrow, equal and with equal hash, as the rational
        # constructor; a different value does not compare equal.
        rational = ArrowMatrix([Fraction(1, 2), -3, Fraction(5, 4), 2], [Fraction(3, 8), -1])
        arrow = ArrowMatrix.from_ints([8, -48, 20, 32], 16, [6, -16], 16)
        assert arrow == rational and hash(arrow) == hash(rational)
        assert arrow.a == (Fraction(1, 2), -3, Fraction(5, 4), 2)
        assert arrow.b == (Fraction(3, 8), -1)
        assert arrow.to_matrix() == rational.to_matrix()
        assert arrow.to_json() == rational.to_json()
        assert len({arrow, rational}) == 1
        assert ArrowMatrix.from_ints([8, -48, 20, 32], 16, [6, -15], 16) != rational
        assert ArrowMatrix([1, 2, 3, 4, 5], [1, 2, 3]) != rational


def test_arrow_char_poly_matches_generic_engine():
    rng = random.Random(889)
    for _ in range(50):
        n = rng.randint(4, 9)
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n - 2)]
        arrow = ArrowMatrix(a, b)
        assert arrow_char_poly(arrow) == char_poly(arrow.to_matrix())


def _chunk_matches_the_rational_route(pattern, family, base, count):
    """_falsify_chunk classifies each sample as the Fraction route does, one sample per task.

    The falsifier needs order >= 3; a smaller pattern's chunk runs against
    no target set, so every sample is outside it.
    """
    members = hn_set(pattern.n) if pattern.n >= 3 else frozenset()
    for k in range(count):
        matrix = sample_realization(pattern, RealizationConfig(seed=_sample_seed(base, k)))
        inertia = refined_inertia_exact(char_poly(matrix))
        expected = ({inertia: 1}, None if inertia in members else k)
        task = (pattern, family, base, k, 1, members)
        assert _falsify_chunk(task) == expected, f"base {base}, sample {k}"


@pytest.mark.parametrize("n", range(4, 11))
@pytest.mark.parametrize("i", (1, 2, 3))
def test_family_sample_char_poly_is_the_rational_route(i, n):
    # The integer draw path reads the same stream as sample_realization: its
    # arrow, from the int seed, is the matrix's arrow form, and the
    # falsifier's family route (the spoke expansion of that arrow)
    # certifies the same inertia as char_poly on the Fraction matrix.
    pattern = family_pattern(i, n)
    for k in range(60):
        seed = (10 * i + n) * 1000 + k
        arrow = to_arrow_form(sample_realization(pattern, RealizationConfig(seed=seed)))
        assert family_sample_arrow(pattern, seed) == arrow
        assert arrow_char_poly(arrow) == char_poly(arrow.to_matrix()), f"seed {seed}"
    _chunk_matches_the_rational_route(pattern, True, 10 * i + n, 60)


def _non_family_patterns():
    """Seeded random patterns of orders 1..8, some with a zero row and a zero column, and the all-zero ones."""
    rng = random.Random(4117)
    patterns = []
    for n in range(1, 9):
        for zero_lines in (False, True):
            rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            if zero_lines:
                r, c = rng.randrange(n), rng.randrange(n)
                rows[r] = [0] * n
                for row in rows:
                    row[c] = 0
            patterns.append(SignPattern(rows))
        patterns.append(SignPattern([[0] * n for _ in range(n)]))
    return patterns


@pytest.mark.parametrize("pattern", _non_family_patterns(), ids=lambda p: "/".join(map("".join, p.to_json())))
def test_sample_char_poly_is_the_rational_route(pattern):
    # The integer rows, from the int seed, read the same stream as the
    # Fraction entries +-m / 2**e, and the falsifier's route for a pattern
    # outside the families (Berkowitz on those rows) certifies the same
    # inertia as char_poly on the matrix.
    assert family_index(pattern.rows) is None
    for k in range(60):
        seed = pattern.n * 1000 + k
        entries = iter(Fraction(m, 1 << e) for m, e in _signed_draws(pattern, seed))
        expected = tuple(tuple(next(entries) if s else 0 for s in row) for row in pattern.rows)
        rows, common = sample_rows(pattern, seed)
        assert common & (common - 1) == 0
        assert tuple(tuple(Fraction(x, common) for x in row) for row in rows) == expected
        assert sample_realization(pattern, RealizationConfig(seed=seed)) == expected
    _chunk_matches_the_rational_route(pattern, False, pattern.n, 60)


class TestSampler:
    def test_all_zero_pattern_forced(self):
        pattern = SignPattern([[Sign.ZERO] * 3 for _ in range(3)])
        sample = sample_realization(pattern, RealizationConfig(seed=1))
        assert all(x == 0 for row in sample for x in row)

    def test_sampler_contract(self):
        pattern = family_pattern(1, 5)
        for seed in range(10):
            sample = sample_realization(pattern, RealizationConfig(seed=seed))
            assert sgn_of_matrix(sample) == pattern

    def test_determinism(self):
        pattern = family_pattern(2, 6)
        cfg = RealizationConfig(seed=99)
        assert sample_realization(pattern, cfg) == sample_realization(pattern, cfg)

    def test_stream_determinism(self):
        pattern = family_pattern(3, 5)
        first = samples(pattern, 5, 4)
        assert first == samples(pattern, 5, 4)
        assert len(set(first)) == 4

    def test_bounds_respected(self):
        lo, hi = Fraction(1, 2**10), Fraction(2**10)
        for sample in samples(family_pattern(1, 6), 3, 20):
            for row in sample:
                for x in row:
                    if x != 0:
                        assert lo <= abs(x) < hi
                        den = x.denominator
                        assert den & (den - 1) == 0 and den <= 2**22

    def test_draws_are_the_randrange_stream(self):
        # _signed_draws inlines randrange's rejection loop; its stream must be
        # two randrange calls per nonzero entry, mantissa first, bit for bit.
        def reference(pattern, seed):
            rng = random.Random(seed)
            return [
                (s * rng.randrange(2**12, 2**13), rng.randrange(3, 23))
                for row in pattern.rows
                for s in row
                if s
            ]

        all_plus = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])
        families = [family_pattern(i, n) for i in (1, 2, 3) for n in range(4, 11)]
        for pattern in families + [all_plus]:
            for seed in range(200):
                draws = list(_signed_draws(pattern, seed))
                assert draws == reference(pattern, seed)

    def test_dyadic_of_no_draws(self):
        assert _dyadic([]) == ([], 1)

    def test_dyadic_brings_mixed_exponents_over_the_largest(self):
        # -3/2, 5/8, 7/1 over 2**3: -12/8, 5/8, 56/8, as exact integers.
        nums, den = _dyadic([(-3, 1), (5, 3), (7, 0)])
        assert (nums, den) == ([-12, 5, 56], 8)
        assert [Fraction(x, den) for x in nums] == [Fraction(-3, 2), Fraction(5, 8), 7]

    def test_golden_first_sample(self):
        """The draw is integer-only, so this matrix is the same on every platform."""
        F = Fraction
        sample = sample_realization(family_pattern(1, 4), RealizationConfig(seed=0))
        assert sample == (
            (F(7251, 65536), F(4427, 2048), F(2019, 8192), F(1645, 65536)),
            (F(-7029, 2097152), 0, 0, 0),
            (F(-5885, 524288), 0, F(-1309, 1024), 0),
            (F(-655, 8), 0, 0, F(-1537, 262144)),
        )


class TestToArrowForm:
    def test_fixed_point(self):
        arrow = ArrowMatrix([Fraction(2, 3), -2, -1, -7], [Fraction(3, 2), Fraction(11, 3)])
        assert to_arrow_form(arrow.to_matrix()) == arrow

    def test_first_row_normalized(self):
        cfg = RealizationConfig(seed=8)
        sample = sample_realization(family_pattern(2, 6), cfg)
        arrow = to_arrow_form(sample)
        assert arrow.to_matrix()[0][1:] == (1,) * 5
        # D * B * D^-1 with D = diag(1, B_12, ..., B_1n) is the arrow form
        d = (1,) + sample[0][1:]
        conjugated = tuple(
            tuple(d[i] * sample[i][j] / d[j] for j in range(6)) for i in range(6)
        )
        assert conjugated == arrow.to_matrix()

    def test_char_poly_preserved_exactly(self):
        pattern = family_pattern(2, 5)
        for k, sample in enumerate(samples(pattern, 123, 100)):
            arrow = to_arrow_form(sample)
            assert char_poly(arrow.to_matrix()) == char_poly(sample), f"sample {k}"

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            to_arrow_form([[1, 1], [1, 1]])
        # right shape but wrong sign structure
        bad = [[1, 1, 1, 1], [1, 0, 0, 0], [-1, 0, -1, 0], [-1, 0, 0, -1]]
        with pytest.raises(MembershipError):
            to_arrow_form(bad)


class TestEmbedWitness:
    base = ArrowMatrix([Fraction(2, 3), -2, -1, -7], [Fraction(3, 2), Fraction(11, 3)])

    def test_polynomial_identity_exact_division(self):
        for n in (5, 6, 8):
            lifted = embed_witness(self.base, n, 1)
            p_big = char_poly(lifted.to_matrix())
            p_base = char_poly(self.base.to_matrix())
            assert p_big == mul(power(RationalPoly((self.base.b[0], 1)), n - 4), p_base)

    def test_membership_of_result(self):
        for i, params in ((1, ([1, -1, -1, -1], [1, 2])), (2, ([-1, -1, 1, 1], [1, 2])), (3, ([-1, 1, 1, -1], [1, -2]))):
            base = ArrowMatrix(*params)
            lifted = embed_witness(base, 7, i)
            assert sgn_of_matrix(lifted.to_matrix()) == family_pattern(i, 7)

    def test_inertia_shift(self):
        base_inertia = refined_inertia_exact(char_poly(self.base.to_matrix()))
        lifted = embed_witness(self.base, 7, 1)
        lifted_inertia = refined_inertia_exact(char_poly(lifted.to_matrix()))
        assert lifted_inertia.n_plus == base_inertia.n_plus
        assert lifted_inertia.n_zero == base_inertia.n_zero
        assert lifted_inertia.two_n_p == base_inertia.two_n_p
        assert lifted_inertia.n_minus == base_inertia.n_minus + 3

    def test_replicated_root_multiplicity(self):
        base = ArrowMatrix([1, -1, -2, -3], [1, 4])  # family 1, b1 = 1
        lifted = embed_witness(base, 6, 1)
        p = char_poly(lifted.to_matrix())
        # the base polynomial is -6 at -1, so the two replicated spokes give
        # -1 multiplicity exactly 2
        assert (from_roots([-1]), 2) in squarefree_decomposition(p)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_integer_lift_is_the_fraction_lift(self, n):
        # The lift scales the arrow's integers; the Fraction route it
        # replaced divided a_3 and rebuilt the arrow from rationals.
        for i, params in WITNESS_PARAMS.items():
            for a, b in params.values():
                base = ArrowMatrix([Fraction(x) for x in a], [Fraction(x) for x in b])
                share = base.a[2] / (n - 3)
                expected = ArrowMatrix(
                    (base.a[0], base.a[1]) + (share,) * (n - 3) + (base.a[3],),
                    (base.b[0],) * (n - 3) + (base.b[1],),
                )
                lifted = embed_witness(base, n, i)
                assert lifted == expected
                assert json.dumps(lifted.to_json()) == json.dumps(expected.to_json())

    def test_errors(self):
        with pytest.raises(ValueError):
            embed_witness(self.base, 4, 1)
        with pytest.raises(MembershipError):
            embed_witness(self.base, 6, 2)
        big = embed_witness(self.base, 5, 1)
        with pytest.raises(ValueError):
            embed_witness(big, 6, 1)


class TestDeflateRepeated:
    def test_documented_example(self):
        arrow = ArrowMatrix([1, 1, 1, 1, 1], [2, 2, 7])
        eigenvalue, reduced = deflate_repeated(arrow)
        assert eigenvalue == -2
        assert reduced.a == (1, 1, 2, 1)
        assert reduced.b == (2, 7)
        identity = mul(RationalPoly((2, 1)), char_poly(reduced.to_matrix()))
        assert identity == char_poly(arrow.to_matrix())

    def test_multiset_spectrum_split(self):
        rng = random.Random(44)
        for _ in range(40):
            n = rng.randint(5, 8)
            shared = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            b = [shared, shared] + [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n - 4)]
            a = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice([1, -1]) for _ in range(n)]
            arrow = ArrowMatrix(a, b)
            try:
                eigenvalue, reduced = deflate_repeated(arrow)
            except DegenerateMergeError:
                continue
            assert eigenvalue == -shared
            lhs = char_poly(arrow.to_matrix())
            rhs = mul(RationalPoly((-eigenvalue, 1)), char_poly(reduced.to_matrix()))
            assert lhs == rhs

    def test_later_pair_found(self):
        arrow = ArrowMatrix([1, 1, 1, 1, 1, 1], [3, 5, 5, 9])
        eigenvalue, reduced = deflate_repeated(arrow)
        assert eigenvalue == -5
        assert reduced.b == (3, 5, 9)
        assert reduced.a == (1, 1, 1, 2, 1)

    def test_family_membership_preserved(self):
        arrow = ArrowMatrix([1, -1, -2, -3, -4], [2, 2, 6])
        _, reduced = deflate_repeated(arrow)
        assert sgn_of_matrix(reduced.to_matrix()) == family_pattern(1, 4)

    def test_all_distinct_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            deflate_repeated(ArrowMatrix([1, 1, 1, 1, 1], [1, 2, 3]))

    def test_degenerate_merge_rejected(self):
        arrow = ArrowMatrix([1, 1, 5, -5, 1], [2, 2, 3])
        with pytest.raises(DegenerateMergeError):
            deflate_repeated(arrow)

    def test_recursive_deflation_of_triple(self):
        arrow = ArrowMatrix([1, -1, -1, -1, -1, -1], [2, 2, 2, 5])
        eigenvalue, reduced = deflate_repeated(arrow)
        assert eigenvalue == -2
        eigenvalue2, reduced2 = deflate_repeated(reduced)
        assert eigenvalue2 == -2
        assert reduced2.b == (2, 5)
        p = mul(from_roots([-2, -2]), char_poly(reduced2.to_matrix()))
        assert p == char_poly(arrow.to_matrix())


def test_matrix_json_roundtrip():
    M = ((Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(7, 5)))
    data = matrix_to_json(M)
    assert data["n"] == 2
    assert data["entries"] == [[1, 2], [-3, 1], [0, 1], [7, 5]]
    assert matrix_from_json(data) == M
    # every entry is written in lowest terms, whatever the common denominator
    M = (
        (Fraction(-5, 6), 0, Fraction(7, 4)),
        (3, Fraction(-1, 9), Fraction(0, 5)),
        (Fraction(-12, 8), Fraction(2, 3), -4),
    )
    data = matrix_to_json(M)
    assert data["entries"] == [[-5, 6], [0, 1], [7, 4], [3, 1], [-1, 9], [0, 1], [-3, 2], [2, 3], [-4, 1]]
    assert matrix_from_json(data) == M


def test_rational_rows_reads_one_common_denominator():
    A, common = rational_rows([[Fraction(1, 2), 3], [0, Fraction(-5, 6)]])
    assert (A, common) == ([[3, 18], [0, -5]], 6)
    assert rational_rows([[2, -1], [0, 7]]) == ([[2, -1], [0, 7]], 1)


@pytest.mark.parametrize("reader", [char_poly, det_rational, matrix_to_json, to_arrow_form])
@pytest.mark.parametrize(
    "matrix, error, message",
    [
        ([], ValueError, "matrix must be square and nonempty"),
        ([[1, 2], [3]], ValueError, "matrix must be square and nonempty"),
        ([[1, 2], [3, 0.5]], TypeError, "exact arithmetic requires int or Fraction, got float"),
    ],
    ids=["empty", "ragged", "float"],
)
def test_every_exact_reader_rejects_alike(reader, matrix, error, message):
    # char_poly, det_rational, matrix_to_json and to_arrow_form all read a
    # matrix through rational_rows, so each bad input fails the same way.
    with pytest.raises(error) as info:
        reader(matrix)
    assert str(info.value) == message


def test_matrix_json_validation():
    # a pair is exact, a plain number (integral or not) is a float
    got = matrix_from_json({"n": 2, "entries": [[1, 2], 3, -0.5, [-4, 1]]})
    assert got == ((Fraction(1, 2), 3.0), (-0.5, Fraction(-4)))
    assert [type(x) for row in got for x in row] == [Fraction, float, float, Fraction]
    malformed = [
        [],
        {"entries": [[1, 1]]},
        {"n": 0, "entries": []},
        {"n": True, "entries": [[1, 1]]},
        {"n": 1.0, "entries": [[1, 1]]},
        {"n": 1},
        {"n": 2, "entries": [[1, 1]]},
        {"n": 1, "entries": [[1, 0]]},
        {"n": 1, "entries": [[1, 2, 3]]},
        {"n": 1, "entries": [[1.5, 2]]},
        {"n": 1, "entries": [[True, 1]]},
        {"n": 1, "entries": [True]},
        {"n": 1, "entries": [float("nan")]},
        {"n": 1, "entries": [float("inf")]},
        {"n": 1, "entries": [10**400]},
        {"n": 1, "entries": ["1/2"]},
    ]
    for data in malformed:
        with pytest.raises(ValueError) as info:
            matrix_from_json(data)
        assert "\n" not in str(info.value), data
