"""Exact polynomial arithmetic and root-counting tests.

Root-count fixtures are built from known roots, so every expected count is
independent of the remainder chain being tested; the half-length chain is
checked against a full-length reference chain kept here as the oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refined_inertia.engine import refined_inertia_exact
from refined_inertia.patterns import Sign
from refined_inertia.ratpoly import (
    RationalPoly,
    _exact_quotient,
    _primitive,
    _pseudo_rem,
    _shifted,
    cauchy_index_line,
    over_common,
    poly_gcd,
    squarefree_decomposition,
)

from polys import add, evaluate, from_roots, monic, mul, one, power, sub, variable

x = variable()


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


@pytest.mark.parametrize(
    "values, nums, den",
    [
        ([3, -1, 0], [3, -1, 0], 1),
        ([Fraction(1, 2), Fraction(-5, 6), Fraction(4, 8)], [3, -5, 3], 6),
        ([2, Fraction(-3, 4), 0, Fraction(1, 6)], [24, -9, 0, 2], 12),
        ([], [], 1),
    ],
    ids=["ints", "fractions", "mixed", "empty"],
)
def test_over_common_reads_one_lcm_denominator(values, nums, den):
    assert over_common(values) == (nums, den)
    assert over_common(iter(values)) == (nums, den)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_over_common_rejects_floats_and_bools(bad):
    with pytest.raises(TypeError, match="exact arithmetic requires int or Fraction"):
        over_common([1, bad])


@given(st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=12))
def test_all_ints_read_as_the_lcm_route_reads_them(values):
    # Plain ints skip as_ratio; the same values as Fractions take the lcm
    # route, which must agree.  The list returned is new: RationalPoly
    # strips its trailing zeros in place.
    got = over_common(values)
    assert got == over_common([Fraction(v) for v in values]) == (values, 1)
    assert got[0] is not values


def test_bools_and_numpy_ints_are_rejected_whatever_surrounds_them():
    np = pytest.importorskip("numpy")
    for values in ([True], [False, True], [1, 2, True], [np.int64(3)], [1, np.int64(3)]):
        with pytest.raises(TypeError, match="exact arithmetic requires int or Fraction"):
            over_common(values)


def test_int_enums_and_mixed_rows_take_the_lcm_route():
    # An IntEnum is an int but not a plain one: it is read by as_ratio, as
    # before, and comes back as a plain int.
    nums, den = over_common([Sign.PLUS, Sign.MINUS, Sign.ZERO, 4])
    assert (nums, den) == ([1, -1, 0, 4], 1)
    assert [type(v) for v in nums] == [int] * 4
    assert over_common([Sign.MINUS, Fraction(1, 3), 2]) == ([-3, 1, 6], 3)


def test_product_of_linear_factors():
    assert from_roots([1, -1]) == poly(-1, 0, 1)
    assert from_roots([2, 3]) == poly(6, -5, 1)


@settings(max_examples=40, deadline=None)
@given(small_polys, rationals, rationals)
def test_taylor_shift_matches_pointwise(f, c, t):
    assert evaluate(f.taylor_shift(c), t) == evaluate(f, t + c)


integer_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=9).filter(any)
shift_denominators = st.one_of(
    st.just(1),
    st.integers(1, 10).map(lambda e: 2**e),
    st.integers(1, 40).map(lambda k: 2 * k + 1),
)


def reference_shift(p, c):
    """p(x + c) as sum(a_k * (x + c)**k), by the test helper's ring operations."""
    total = RationalPoly()
    for k, a in enumerate(p.coeffs):
        total = add(total, mul(RationalPoly([a]), power(RationalPoly([c, 1]), k)))
    return total


@settings(max_examples=60, deadline=None)
@given(integer_polys, st.integers(-60, 60), shift_denominators, st.integers(1, 5))
@example([1, -3, 0, 2], 0, 1, 1)
@example([1, -3, 0, 2], 0, 8, 3)
@example([-4, 0, 1], -7, 1, 1)
@example([6, 11, 6, 1], -5, 16, 2)
@example([5, 0, 0, -1, 2], -9, 9, 7)
def test_integer_shift_kernel(num, s, t, den):
    p = RationalPoly.from_ints(num, den)
    c = Fraction(s, t)
    shifted = _shifted(p.num, s, t)
    # Its roots are t times those of p(x + c), so every count agrees.
    assert refined_inertia_exact(RationalPoly.from_ints(shifted)) == refined_inertia_exact(
        p.taylor_shift(c)
    )
    # Scaling the coefficient of y**k by t**k, over den * t**d, gives p(x + c) exactly.
    d = p.degree
    rescaled = RationalPoly.from_ints([b * t**k for k, b in enumerate(shifted)], p.den * t**d)
    assert rescaled == p.taylor_shift(c) == reference_shift(p, c)


@pytest.mark.parametrize("s, t", [(0, 1), (3, 1), (-5, 4), (7, 9)])
def test_integer_shift_kernel_low_degrees(s, t):
    assert _shifted([], s, t) == []
    assert RationalPoly().taylor_shift(Fraction(s, t)).is_zero
    assert _shifted([-4], s, t) == [-4]
    assert poly(Fraction(-4, 3)).taylor_shift(Fraction(s, t)) == poly(Fraction(-4, 3))
    # t * (a0 + a1 * (y + s) / t) = (a0 t + a1 s) + a1 y
    assert _shifted([2, -3], s, t) == [2 * t - 3 * s, -3]
    assert poly(2, -3).taylor_shift(Fraction(s, t)) == poly(2 - 3 * Fraction(s, t), -3)


def test_evaluate():
    p = poly(1, -3, 0, 2)  # 2x^3 - 3x + 1
    assert evaluate(p, Fraction(1, 2)) == Fraction(-1, 4)


def test_gcd_of_constructed_common_factor():
    common = from_roots([Fraction(1, 2), -3])
    f = mul(common, from_roots([5]))
    g = mul(common, from_roots([7, 7]))
    assert poly_gcd(f, g) == common


def test_gcd_zero_conventions():
    p = poly(2, 4)
    assert poly_gcd(p, RationalPoly()) == monic(p)
    assert poly_gcd(RationalPoly(), RationalPoly()).is_zero


def test_squarefree_decomposition_recovers_multiplicities():
    p = mul(power(sub(x, poly(1)), 3), power(add(x, poly(2)), 2), sub(x, poly(5)))
    parts = squarefree_decomposition(p)
    by_mult = {m: f for f, m in parts}
    assert by_mult[3] == from_roots([1])
    assert by_mult[2] == from_roots([-2])
    assert by_mult[1] == from_roots([5])
    rebuilt = one()
    for f, m in parts:
        rebuilt = mul(rebuilt, power(f, m))
    assert rebuilt == monic(p)


def test_exact_quotient_rejects_a_non_divisor():
    assert _exact_quotient([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ValueError, match="not exact"):
        _exact_quotient([1, 0, 1], [1, 1])  # remainder 2
    with pytest.raises(ValueError, match="not exact"):
        _exact_quotient([0, 1], [1, 2])  # top coefficient 1 is not a multiple of 2


def inertia_of_square_composition(g):
    """Refined inertia of g(x**2), whose roots are the square roots of g's.

    A negative root -c of g gives the imaginary pair +-i*sqrt(c), a positive
    root c the real pair +-sqrt(c), and a zero root a double zero root, each
    with its multiplicity; nonreal roots of g give roots off both axes.
    """
    return refined_inertia_exact(RationalPoly.from_ints(_spread(g.num), g.den))


class TestNegativeRootCount:
    # A negative root of g is an imaginary pair of g(x**2).  Each extra
    # factor has no real roots, so its composition puts half its roots in
    # each open half-plane.

    @pytest.mark.parametrize(
        "factors, expected",
        [
            # ((roots with multiplicity), extra factor), expected negative count
            (([-2, -2, -2, 1], poly(1, 0, 1)), 3),
            (([-1, -1, 0, 5], one()), 2),
            (([Fraction(-1, 7), -3], one()), 2),
            (([4, 9], one()), 0),
        ],
    )
    def test_constructed_fixtures(self, factors, expected):
        roots, extra = factors
        p = mul(from_roots(roots), extra)
        real_pairs = sum(r > 0 for r in roots) + extra.degree
        assert inertia_of_square_composition(p).as_tuple() == (
            real_pairs,
            real_pairs,
            2 * roots.count(0),
            2 * expected,
        )

    def test_irrational_negative_roots(self):
        # (t^2 - 2) has one negative root; (t + 1)^2 contributes two more
        p = mul(poly(-2, 0, 1), from_roots([-1, -1]))
        assert inertia_of_square_composition(p).as_tuple() == (1, 1, 0, 6)

    def test_degree_bound_fixture(self):
        # degree 8 with mixed multiplicities: four negative roots, two
        # positive, and t^2 + 3 puts two roots in each half-plane
        p = mul(from_roots([-1, -1, -1, -4, 2, 2]), poly(3, 0, 1))
        assert inertia_of_square_composition(p).as_tuple() == (4, 4, 0, 8)


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


def _remainder_chain(f0, f1):
    """Full-length Sturm chain of negated Euclidean remainders, made primitive.

    Positive scaling leaves every sign, and so every variation count, as it is.
    """
    chain = [_primitive(f0)]
    if f1:
        chain.append(_primitive(f1))
    while len(chain) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _variation_drop(chain):
    """Sign variations of a chain at -infinity minus its variations at +infinity.

    At +infinity each element has the sign of its leading coefficient; at
    -infinity an element of odd degree (even length) flips it.
    """
    plus = [f[-1] > 0 for f in chain]
    minus = [s == (len(f) % 2 == 1) for s, f in zip(plus, chain)]
    at_minus = sum(a != b for a, b in zip(minus, minus[1:]))
    return at_minus - sum(a != b for a, b in zip(plus, plus[1:]))


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
        p = mul(p, power(RationalPoly.from_ints((draw(st.integers(1, 3)) ** 2, 0, 1)), k))
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
