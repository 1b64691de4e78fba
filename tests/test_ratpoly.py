"""Exact polynomial arithmetic and root-counting tests.

Root-count fixtures are built from known roots, so every expected count is
independent of the remainder chain being tested; the half-length chain is
checked against a full-length reference chain kept here as the oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from refined_inertia import ratpoly
from refined_inertia.analysis import BLOCK, _exact_inertia, _sample_seed
from refined_inertia.engine import _inertia_counts, _parity_parts, refined_inertia_exact
from refined_inertia.patterns import Sign, family_pattern
from refined_inertia.ratpoly import (
    RationalPoly,
    _derivative,
    _exact_quotient,
    _primitive,
    _pseudo_rem,
    _shifted,
    cauchy_index_line,
    cauchy_index_lines,
    over_common,
    poly_gcd,
    squarefree_decomposition,
)
from refined_inertia.realization import _family_draw, _signed_draws, _signs, _spoke_expansion

from polys import add, evaluate, from_roots, monic, mul, neg, one, power, sub, variable

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
    nonconstant; "even" keeps q even, so Im q(i*w) vanishes identically;
    "gap" makes the coefficient below the top 0, so the chain's first step
    drops more than one degree; "symmetric" multiplies by (x^2 - c)(x^2 + d),
    whose roots are symmetric about 0, which puts a gap or a zero row
    mid-chain.
    """
    kind = draw(st.sampled_from(["plain", "pairs", "even", "gap", "symmetric"]))
    size = {"plain": 13, "pairs": 9, "even": 7, "gap": 11, "symmetric": 9}[kind]
    q = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=size))
    q[0] = q[0] or draw(st.sampled_from([-1, 1]))
    if kind == "gap":
        q += [0, draw(st.sampled_from([-9, -2, -1, 1, 3, 9]))]
    p = RationalPoly.from_ints(q)
    if kind == "pairs":
        k = draw(st.integers(1, 2))
        p = mul(p, power(RationalPoly.from_ints((draw(st.integers(1, 3)) ** 2, 0, 1)), k))
    elif kind == "even":
        p = RationalPoly.from_ints(_spread(p.num))
    elif kind == "symmetric":
        c, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        p = mul(p, RationalPoly.from_ints((-c, 0, 1)), RationalPoly.from_ints((d, 0, 1)))
    return list(p.num)


def _re_im(q):
    """Re and Im of q(i*w), as coefficient lists in w."""
    re = [c if k % 4 == 0 else -c if k % 4 == 2 else 0 for k, c in enumerate(q)]
    im = [c if k % 4 == 1 else -c if k % 4 == 3 else 0 for k, c in enumerate(q)]
    return list(RationalPoly.from_ints(re).num), list(RationalPoly.from_ints(im).num)


def full_length_counts(num):
    """(n_plus, n_minus, n_zero, two_n_p) from full-length chains in w, at every tail level.

    The reference for _inertia_counts: Re and Im of q(i*w) give the
    half-plane difference, and each Sturm chain of the tail and its
    w-derivative counts the tail's distinct real roots, one level at a time.
    """
    n_zero = next(k for k, c in enumerate(num) if c)
    q = num[n_zero:]
    re, im = _re_im(q)
    degree = len(q) - 1
    if degree % 2 == 0:
        chain = _remainder_chain(re, im)
        diff = -_variation_drop(chain)
    else:
        chain = _remainder_chain(im, re)
        diff = _variation_drop(chain)
    two_n_p = 0
    while len(chain[-1]) > 1:
        chain = _remainder_chain(chain[-1], _derivative(chain[-1]))
        two_n_p += _variation_drop(chain)
    m = degree - two_n_p
    return (m - diff) // 2, (m + diff) // 2, n_zero, two_n_p


# -x^3 (x^2 - 2)^2 (x^2 + 2x + 10)^3 (x^2 - 2x + 5)^3: the coefficient below
# the top is 0, so the first step is a gap, and (x^2 - 2)^2 divides Re and
# Im of q(i*w), so a tail chain runs.
GAP_THEN_TAIL = [
    0, 0, 0, -500000, 300000, 110000, -164000, 149200, -34480, -1424,
    10120, -11278, 4110, -3011, 540, -385, 30, -29, 0, -1,
]
# 6x^3 + 2x^2 - x - 1: dividing F_3 by F_0's lead, 6, is inexact here and
# miscounts; F_3's divisor is Delta_0 = 1.
WRONG_DIVISOR = [-1, -1, 2, 6]
# Gaps mid-chain: a run of one-degree steps after one must restart its
# divisors at 1, or a division goes inexact and this one miscounts.
AFTER_A_GAP = [-1, 3, 7, 1, 0, -2, 0, -3, -9, -3]
# -(1 + x + x^2 + x^3)(x^2 - 7)(x^2 + 6): a gap mid-chain.
SYMMETRIC_FACTORS = list(mul(poly(-1, -1, -1, -1), poly(-7, 0, 1), poly(6, 0, 1)).num)


@settings(max_examples=300, deadline=None)
@given(axis_polys())
@example(WRONG_DIVISOR)
@example(AFTER_A_GAP)
@example(SYMMETRIC_FACTORS)
def test_half_length_chain_matches_full_chain(q):
    # The full-length route: one remainder chain of Re and Im of q(i*w) in w.
    re, im = _re_im(q)
    even, odd = re[0::2], im[1::2]
    if (len(q) - 1) % 2 == 0:
        chain = _remainder_chain(re, im)
        index, tail = cauchy_index(even, odd, False)
    else:
        chain = _remainder_chain(im, re)
        index, tail = cauchy_index(odd, even, True)
    assert index == _variation_drop(chain)
    # both tails are primitive, so they agree up to sign
    assert _spread(tail) in (chain[-1], [-c for c in chain[-1]])
    # and so do the counts, which read every tail level
    assert _inertia_counts(q) == full_length_counts(q)


def test_gap_first_then_an_axis_tail():
    p = neg(mul(power(x, 3), power(poly(-2, 0, 1), 2), power(poly(10, 2, 1), 3), power(poly(5, -2, 1), 3)))
    assert list(p.num) == GAP_THEN_TAIL
    # n_plus: 1 +- 2i three times and sqrt(2) twice; n_minus: -1 +- 3i and -sqrt(2) alike
    assert _inertia_counts(GAP_THEN_TAIL) == (8, 8, 3, 0)


def _gap_steps(monkeypatch, polys):
    """How many degree-gap steps the chains take while counting each polynomial's roots."""
    calls = []
    pseudo_rem = ratpoly._pseudo_rem
    monkeypatch.setattr(ratpoly, "_pseudo_rem", lambda f, g: calls.append(f) or pseudo_rem(f, g))
    for num in polys:
        _inertia_counts(num)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize(
    "q",
    [GAP_THEN_TAIL, [3, -1, 4, 0, 2], SYMMETRIC_FACTORS],
    ids=["gap-then-tail", "gap-first", "symmetric-factors"],
)
def test_gap_step_runs_on_singular_inputs(monkeypatch, q):
    assert _gap_steps(monkeypatch, [q]) > 0


@pytest.mark.parametrize("i", [1, 2, 3])
def test_falsifier_order_10_chains_take_no_gap_step(monkeypatch, i):
    # The first 50 samples of the pinned order-10 reports (seed 7075).
    signs, rng = _signs(family_pattern(i, 10)), random.Random()
    polys = []
    for k in range(50):
        rng.seed(_sample_seed(7075, k))
        polys.append(_spoke_expansion(*_family_draw(_signed_draws(signs, rng))))
    assert _gap_steps(monkeypatch, polys) == 0
    assert [_inertia_counts(g) for g in polys] == [full_length_counts(g) for g in polys]


# -- the lockstep chain ----------------------------------------------------


def _falsifier_polys(orders, count):
    """The spoke expansions G(y) of samples 0..count-1 of each family at each order, seed 7075."""
    rng, polys = random.Random(), []
    for i in (1, 2, 3):
        for n in orders:
            signs = _signs(family_pattern(i, n))
            for k in range(count):
                rng.seed(_sample_seed(7075, k))
                polys.append(_spoke_expansion(*_family_draw(_signed_draws(signs, rng))))
    return polys


REGULAR = _falsifier_polys((4, 5, 6), 12)


@st.composite
def block_polys(draw):
    """A polynomial for a block: mostly falsifier G(y)s, which share lengths, and every kind that leaves a block.

    A zero second coefficient makes F1 start short; zero roots are
    stripped before the chain; axis_polys gives gaps, imaginary pairs and
    even polynomials, whose chains vanish early; and the three fixed ones
    take a gap mid-chain, a gap then a tail, or need Delta_0 = 1.
    """
    kind = draw(st.sampled_from(["regular"] * 4 + ["fixed", "zero roots", "short", "axis"]))
    if kind == "fixed":
        return list(draw(st.sampled_from([WRONG_DIVISOR, AFTER_A_GAP, GAP_THEN_TAIL, SYMMETRIC_FACTORS])))
    q = list(draw(st.sampled_from(REGULAR)))
    if kind == "zero roots":
        return [0] * draw(st.integers(1, 3)) + q
    if kind == "short":
        q[-2] = 0
        return q
    return draw(axis_polys()) if kind == "axis" else q


@pytest.mark.parametrize("size", [0, 1, 2, BLOCK, BLOCK + 1])
@seed(7075)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_block_counts_are_the_one_polynomial_counts(size, data):
    block = data.draw(st.lists(block_polys(), min_size=size, max_size=size))
    assert _exact_inertia(block) == [_inertia_counts(p) for p in block]
    groups = {}
    for p in block:
        q = p[next(k for k, c in enumerate(p) if c) :]
        groups.setdefault(len(q), []).append(_parity_parts(q, lambda c: -c)[:3])
    for parts in groups.values():
        f0s, f1s, [f0_odd, *_] = zip(*parts)
        alone = [cauchy_index_line(f0, f1, f0_odd) for f0, f1, _ in parts]
        assert cauchy_index_lines(list(zip(*f0s)), list(zip(*f1s)), f0_odd) == alone


def test_block_chain_keeps_regular_pairs_in_step(monkeypatch):
    # Falsifier G(y)s of one order never leave the block; a zero second
    # coefficient, a gap and an early zero remainder each send their own
    # pair to cauchy_index_line and no other.
    calls = []
    monkeypatch.setattr(ratpoly, "cauchy_index_line", lambda *args: calls.append(args) or cauchy_index_line(*args))
    regular = _falsifier_polys((7,), 10)
    assert len({len(p) for p in regular}) == 1
    assert [_inertia_counts(p) for p in regular] == _exact_inertia(regular)
    assert calls == []
    short = [*regular[:5], list(regular[5]), *regular[6:]]
    short[5][-2] = 0
    symmetric = list(mul(poly(*regular[0][:-2]), poly(-7, 0, 1)).num)  # (x^2 - 7) makes Re and Im share a factor
    pairs = list(mul(poly(*regular[0][:-2]), poly(6, 0, 1)).num)  # an imaginary pair: a tail of degree 1
    block = [*short, symmetric, pairs]
    assert len({len(p) for p in block}) == 1
    assert _exact_inertia(block) == [_inertia_counts(p) for p in block]
    assert len(calls) == 3
    assert _inertia_counts(pairs)[3] == 2


def test_empty_block():
    assert _exact_inertia([]) == []
    assert cauchy_index_lines([], [], False) == []
