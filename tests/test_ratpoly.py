"""Exact polynomial arithmetic and root-counting tests.

Root-count fixtures are built from known roots, so every expected count is
independent of the Sturm machinery being tested.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refined_inertia.ratpoly import (
    RationalPoly,
    _exact_quotient,
    _remainder_chain,
    _variation_drop,
    cauchy_index_line,
    count_real_roots,
    poly_gcd,
    squarefree_decomposition,
)

x = RationalPoly.variable()


def poly(*coeffs):
    return RationalPoly(coeffs)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
small_polys = st.lists(rationals, min_size=0, max_size=7).map(RationalPoly)


def test_construction_normalizes_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert poly().is_zero
    assert poly(0, 0).is_zero
    assert poly(3).degree == 0
    assert poly(0, 1).degree == 1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        RationalPoly((0.5, 1))


def test_product_of_linear_factors():
    assert RationalPoly.from_roots([1, -1]) == poly(-1, 0, 1)
    assert RationalPoly.from_roots([2, 3]) == poly(6, -5, 1)


@settings(max_examples=40, deadline=None)
@given(small_polys, rationals, rationals)
def test_taylor_shift_matches_pointwise(f, c, t):
    assert f.taylor_shift(c).evaluate(t) == f.evaluate(t + c)


def test_evaluate():
    p = poly(1, -3, 0, 2)  # 2x^3 - 3x + 1
    assert p.evaluate(Fraction(1, 2)) == Fraction(-1, 4)


def test_gcd_of_constructed_common_factor():
    common = RationalPoly.from_roots([Fraction(1, 2), -3])
    f = common * RationalPoly.from_roots([5])
    g = common * RationalPoly.from_roots([7, 7])
    assert poly_gcd(f, g) == common


def test_gcd_zero_conventions():
    p = poly(2, 4)
    assert poly_gcd(p, RationalPoly()) == p.monic()
    assert poly_gcd(RationalPoly(), RationalPoly()).is_zero


def test_squarefree_decomposition_recovers_multiplicities():
    p = (x - poly(1)) ** 3 * (x + poly(2)) ** 2 * (x - poly(5))
    parts = squarefree_decomposition(p)
    by_mult = {m: f for f, m in parts}
    assert by_mult[3] == RationalPoly.from_roots([1])
    assert by_mult[2] == RationalPoly.from_roots([-2])
    assert by_mult[1] == RationalPoly.from_roots([5])
    rebuilt = RationalPoly.one()
    for f, m in parts:
        rebuilt = rebuilt * f**m
    assert rebuilt == p.monic()


def test_exact_quotient_rejects_a_non_divisor():
    assert _exact_quotient([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ValueError, match="not exact"):
        _exact_quotient([1, 0, 1], [1, 1])  # remainder 2
    with pytest.raises(ValueError, match="not exact"):
        _exact_quotient([0, 1], [1, 2])  # top coefficient 1 is not a multiple of 2


class TestSturmCounting:
    def test_distinct_rational_roots(self):
        p = RationalPoly.from_roots([-5, -1, Fraction(1, 3), 2])
        assert count_real_roots(p) == 4

    def test_no_real_roots(self):
        assert count_real_roots(poly(1, 0, 1)) == 0
        assert count_real_roots(poly(7)) == 0

    def test_irrational_roots(self):
        # x^2 - 2: one root on each side of zero
        assert count_real_roots(poly(-2, 0, 1)) == 2

    def test_repeated_roots_counted_with_multiplicity(self):
        p = RationalPoly.from_roots([2, 2, 2, -1])
        assert count_real_roots(p) == 4

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots(RationalPoly())


def negative_root_count(g):
    """Negative roots of g with multiplicity, as half the real roots of g(-w^2).

    Each negative root -c of g gives the two real roots +-sqrt(c) of g(-w^2),
    with its multiplicity, and nothing else is real once the root 0 is gone.
    This is how the engine reads the imaginary pairs off gcd(Re, Im).
    """
    g = RationalPoly.from_ints(g.num[next(k for k, c in enumerate(g.num) if c) :], g.den)
    composed = [0] * (2 * len(g.num) - 1)
    composed[0::2] = [-c if k % 2 else c for k, c in enumerate(g.num)]
    real = count_real_roots(RationalPoly.from_ints(composed, g.den))
    assert real % 2 == 0
    return real // 2


class TestNegativeRootCount:
    @pytest.mark.parametrize(
        "factors, expected",
        [
            # ((roots with multiplicity), extra factor), expected negative count
            (([-2, -2, -2, 1], poly(1, 0, 1)), 3),
            (([-1, -1, 0, 5], RationalPoly.one()), 2),
            (([Fraction(-1, 7), -3], RationalPoly.one()), 2),
            (([4, 9], RationalPoly.one()), 0),
        ],
    )
    def test_constructed_fixtures(self, factors, expected):
        roots, extra = factors
        p = RationalPoly.from_roots(roots) * extra
        assert negative_root_count(p) == expected
        assert count_real_roots(p) == len(roots)

    def test_irrational_negative_roots(self):
        # (t^2 - 2) has one negative root; (t + 1)^2 contributes two more
        p = poly(-2, 0, 1) * RationalPoly.from_roots([-1, -1])
        assert negative_root_count(p) == 3
        assert count_real_roots(p) == 4

    def test_degree_bound_fixture(self):
        # degree 8 with mixed multiplicities
        p = RationalPoly.from_roots([-1, -1, -1, -4, 2, 2]) * poly(3, 0, 1)
        assert negative_root_count(p) == 4
        assert count_real_roots(p) == 6


def cauchy_index(f0, f1, f0_odd):
    """cauchy_index_line with its primitive tail's sign made positive."""
    index, tail = cauchy_index_line(f0, f1, f0_odd)
    return index, tail if tail[-1] > 0 else [-c for c in tail]


class TestCauchyIndex:
    # Arguments are parity parts in u = w**2: f0_odd says F0(w) = w * f0(w**2).

    def test_simple_pole(self):
        # 1/w jumps -inf -> +inf at 0
        assert cauchy_index([1], [1], True) == (1, [1])
        assert cauchy_index([1], [-1], True) == (-1, [1])

    def test_no_real_poles(self):
        # w / (1 + w^2)
        assert cauchy_index([1, 1], [1], False) == (0, [1])

    def test_zero_numerator(self):
        # gcd(F0, 0) is F0 made primitive
        assert cauchy_index([2, 4, 6], [], False) == (0, [1, 2, 3])

    def test_gcd_laden_chain(self):
        # (w^2 - 1) / (w - w^3): (w^2 - 1) cancels, the reduced fraction is -1/w
        assert cauchy_index([1, -1], [-1, 1], True) == (-1, [-1, 1])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            cauchy_index_line([0], [1], False)


def _spread(u_coeffs):
    """f(w**2) as a coefficient list in w, for f given in u = w**2."""
    out = [0] * (2 * len(u_coeffs) - 1)
    out[0::2] = u_coeffs
    return out


@st.composite
def axis_polys(draw):
    """Integer q with q(0) != 0 up to degree 12, with Routh's singular cases forced.

    "pairs" multiplies by (x^2 + c^2)^k, so gcd(Re, Im) of q(i*w) is
    nonconstant; "even" keeps q even, so Im q(i*w) vanishes identically.
    """
    kind = draw(st.sampled_from(["plain", "pairs", "even"]))
    size = {"plain": 13, "pairs": 9, "even": 7}[kind]
    q = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=size))
    q[0] = q[0] or draw(st.sampled_from([-1, 1]))
    p = RationalPoly.from_ints(q)
    if kind == "pairs":
        k = draw(st.integers(1, 2))
        p = p * RationalPoly.from_ints((draw(st.integers(1, 3)) ** 2, 0, 1)) ** k
    elif kind == "even":
        p = RationalPoly.from_ints(_spread(p.num))
    return list(p.num)


@settings(max_examples=300, deadline=None)
@given(axis_polys())
def test_half_length_chain_matches_full_chain(q):
    # The full-length route: one remainder chain of Re and Im of q(i*w) in w.
    re = [c if k % 4 == 0 else -c if k % 4 == 2 else 0 for k, c in enumerate(q)]
    im = [c if k % 4 == 1 else -c if k % 4 == 3 else 0 for k, c in enumerate(q)]
    even, odd = re[0::2], im[1::2]
    re, im = RationalPoly.from_ints(re).num, RationalPoly.from_ints(im).num
    if (len(q) - 1) % 2 == 0:
        chain = _remainder_chain(re, im)
        index, tail = cauchy_index(even, odd, False)
    else:
        chain = _remainder_chain(im, re)
        index, tail = cauchy_index(odd, even, True)
    assert index == _variation_drop(chain)
    # both tails are primitive, so they agree up to sign
    assert _spread(tail) in (chain[-1], [-c for c in chain[-1]])
