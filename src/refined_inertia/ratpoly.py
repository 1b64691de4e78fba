"""Exact univariate polynomials over the rationals.

RationalPoly stores integer coefficients ``num`` (low to high) over one
positive denominator ``den``, kept canonical so that equality and hashing
are exact; Fraction appears only where rationals cross its API.
over_common is the one reader of ints and Fractions as integers over their
lcm denominator.  The integer kernels are the Taylor shift _shifted, the
Horner value _homogeneous_value, and cauchy_index_line, the engine's one
root-counting routine: a fraction-free Routh chain whose docstring holds
the argument.  cauchy_index_lines runs that chain for a block of pairs in
lockstep, with the same integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction | int


def as_ratio(value: Rational) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or Fraction, rejecting floats.

    A plain int is tested first: isinstance against Fraction, whose
    metaclass is ABCMeta, is slow for anything but a Fraction.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return value.numerator, value.denominator
    raise TypeError(f"exact arithmetic requires int or Fraction, got {type(value).__name__}")


def over_common(values: Iterable[Rational]) -> tuple[list[int], int]:
    """(nums, den): values[k] is nums[k] / den, with den the lcm of their denominators (1 if none).

    Values that are all plain ints come back as a new list of themselves
    over 1, with no entry read by as_ratio; an int subclass such as an
    IntEnum takes the general route, and a bool raises there.
    """
    values = list(values)
    if all(type(x) is int for x in values):
        return values, 1
    ratios = [as_ratio(x) for x in values]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


@dataclass(frozen=True)
class RationalPoly:
    """Univariate polynomial num / den, integer coefficients ascending."""

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Rational] = ()):
        self._set(*over_common(coeffs))

    def _set(self, num: list[int], den: int) -> None:
        num, den = _lowest(num, den)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @classmethod
    def from_ints(cls, num: Iterable[int], den: int = 1) -> "RationalPoly":
        """The polynomial sum(num[k] * x**k) / den, for integers num and den != 0."""
        p = object.__new__(cls)
        p._set(list(num), den)
        return p

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    # No pipeline calls taylor_shift any more (the shifted counts read
    # _shifted's output directly); it stays because the benchmark's tracer
    # looks it up by name when it installs.
    def taylor_shift(self, c: Rational) -> "RationalPoly":
        """Return p(x + c), exactly.

        For c = s / t, _shifted(num, s, t) is t**d * p((y + s) / t) in y;
        putting y = t * x scales its y**k coefficient by t**k, over
        den * t**d.
        """
        s, t = as_ratio(c)
        shifted = _shifted(self.num, s, t)
        tpow = 1
        for k in range(len(shifted)):
            shifted[k] *= tpow
            tpow *= t
        return RationalPoly.from_ints(shifted, self.den * t ** max(self.degree, 0))


# -- integer coefficient lists ------------------------------------------


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _lowest(num: list[int], den: int) -> tuple[list[int], int]:
    """num / den in RationalPoly's canonical form: no trailing zero, den > 0, no common factor."""
    _strip(num)
    if den < 0:
        num, den = [-c for c in num], -den
    g = gcd(den, *num) if num else den
    if g != 1:
        num, den = [c // g for c in num], den // g
    return num, den


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """Divide out the positive content; signs, roots and sign counts are kept."""
    content = gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else list(coeffs)


def _derivative(coeffs: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(coeffs) if k > 0]


def _shifted(coeffs: Sequence[int], s: int, t: int) -> list[int]:
    """t**d * p((y + s) / t) in y, for p = sum(coeffs[k] * x**k) of degree d and t > 0.

    a_k is scaled by t**(d - k), and the result is shifted by s in place,
    with d(d + 1)/2 multiply-adds by the small numerator s.  Its roots are
    t * (lambda - s / t), so, as t > 0, its refined inertia is that of
    p(x + s / t).
    """
    a = list(coeffs)
    d = len(a) - 1
    tpow = t
    for k in range(d - 1, -1, -1):
        a[k] *= tpow
        tpow *= t
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            a[k] += s * a[k + 1]
    return a


def _homogeneous_value(coeffs: Sequence[int], s: int, t: int) -> int:
    """t**degree * p(s / t), by Horner's rule in the integers."""
    acc = 0
    tpow = 1
    for c in reversed(coeffs):
        acc = acc * s + c * tpow
        tpow *= t
    return acc


def _pseudo_rem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """A positive multiple of f mod g; lead(g) is made positive, as f mod -g = f mod g."""
    if g[-1] < 0:
        g = [-c for c in g]
    lead = g[-1]
    dg = len(g) - 1
    r = list(f)
    while len(r) > dg:
        top = r.pop()
        if top == 0:
            continue
        k = len(r) - dg
        if lead != 1:
            r = [c * lead for c in r]
        for i in range(dg):
            r[k + i] -= top * g[i]
    return _strip(r)


def _exact_quotient(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for a primitive g dividing f; by Gauss's lemma each long-division step is exact."""
    r = list(f)
    lead = g[-1]
    dg = len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    while len(r) > dg:
        c, rest = divmod(r.pop(), lead)
        k = len(r) - dg
        if rest:
            raise ValueError("division is not exact")
        q[k] = c
        for i in range(dg):
            r[k + i] -= c * g[i]
    if any(r):
        raise ValueError("division is not exact")
    return q


def _gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive greatest common divisor by the primitive pseudo-remainder sequence."""
    a, b = _primitive(f), _primitive(g)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


# -- gcd, squarefree structure -----------------------------------------


# No pipeline calls poly_gcd any more; it stays because the benchmark's
# tracer looks it up by name when it installs.
def poly_gcd(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """Monic greatest common divisor; gcd(0, 0) is the zero polynomial.

    Computed as a primitive pseudo-remainder sequence over the integers,
    which avoids rational coefficient blowup mid-chain.
    """
    a = _gcd(f.num, g.num)
    return RationalPoly.from_ints(a, a[-1] if a else 1)


# No pipeline calls squarefree_decomposition any more; it stays because the
# benchmark's tracer looks it up by name when it installs.
def squarefree_decomposition(p: RationalPoly) -> list[tuple[RationalPoly, int]]:
    """Yun's algorithm: return monic pairs (factor, multiplicity).

    The product of factor**multiplicity over the result equals p up to the
    leading coefficient.  Constant polynomials decompose to an empty list.
    Every gcd is primitive, so every division stays in the integers.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    factors: list[tuple[RationalPoly, int]] = []
    if p.degree == 0:
        return factors
    w = _primitive(p.num)
    g = _gcd(w, _derivative(w))
    y = _exact_quotient(_derivative(w), g)
    w = _exact_quotient(w, g)
    k = 1
    while len(w) > 1:
        z = _strip([a - b for a, b in zip_longest(y, _derivative(w), fillvalue=0)])
        gk = _gcd(w, z)
        if len(gk) > 1:
            factors.append((RationalPoly.from_ints(gk, gk[-1]), k))
        w = _exact_quotient(w, gk)
        y = _exact_quotient(z, gk)
        k += 1
    return factors


# -- the remainder chain ---------------------------------------------


def cauchy_index_line(
    f0: Sequence[int], f1: Sequence[int], f0_odd: bool
) -> tuple[int, list[int]]:
    """Cauchy index of F1/F0 over the real line, and the tail T of its chain.

    F0(w) is f0(w**2), times w if f0_odd, and F1(w) is f1(w**2), times w if
    not, so the two have opposite parities, as Re and Im of q(i*w) do.  The
    index is the Euclidean remainder chain's sign variations at -inf minus
    those at +inf.  A remainder keeps its dividend's parity, so the chain
    alternates in parity and stays on half-length lists in u = w**2: an odd
    dividend is reduced by G, an even one by u*G.  An odd element flips its
    sign at -inf, so each neighbouring pair varies at exactly one infinity:
    at -inf if their leading signs agree.  The chain ends in gcd(F0, F1);
    when the even one has a nonzero constant term, as for q(i*w) with
    q(0) != 0, that gcd is even, T(w**2), and T comes back primitive.

    With f0 = T, f1 = T' and f0_odd false, F1 = w*T'(w**2) is dF0/dw over
    two, so the index is Sturm's count of the distinct real roots of
    T(w**2).  If T(0) != 0, w does not divide T(w**2), so the tail
    gcd(T(w**2), w*T'(w**2)) is gcd(T, T')(w**2), whose real roots are
    those of T(w**2), each one multiplicity lower.

    The chain is Routh's table in fraction-free form.  Let F_{j-1} and F_j
    be neighbours, with leads l_{j-1} and l_j.  Where the degree drops by
    one, len(a) == len(divisor), the quotient is (l_{j-1} / l_j) * w, and
    |l_j| times the negated remainder is sign(l_j) times
    l_{j-1} * w * F_j - l_j * F_{j-1}.  The chain divides that by
    |Delta_{j-2}|.  Along a run of such steps from a starting pair
    (F_0, F_1), this is, up to the signs of rows, Bareiss's elimination on
    the Hurwitz matrix of that pair, whose rows are F_0 and F_1 shifted.
    By Sylvester's identity each coefficient of F_{j+1} is a minor of that
    matrix, and l_k is, up to sign, its Hurwitz determinant Delta_k for
    k >= 1, so the division by |l_{j-2}| is exact.  F_2 and F_3 divide by
    Delta_{-1} = Delta_0 = 1: l_0 is a coefficient, not a determinant.
    Where the degree drops by more, the step is a pseudo-remainder made
    primitive, and the pair it ends starts a new run.  So every element is
    a positive multiple of the Euclidean one, with its leading sign: the
    index is unchanged, and so is the tail, made primitive once at the end.
    """
    a = _primitive(_strip(list(f0)))
    if not a:
        raise ValueError("denominator polynomial is zero")
    b = _primitive(_strip(list(f1)))
    odd_divisor = not f0_odd
    index = 0
    delta, delta_next = 1, 1  # |Delta| dividing the next two one-degree steps
    while b:
        lead_a, lead_b = a[-1], b[-1]
        index += 1 if (lead_a > 0) == (lead_b > 0) else -1
        divisor = [0, *b] if odd_divisor else b
        if len(a) == len(divisor):
            scale = delta if lead_b > 0 else -delta
            rem = _strip([(lead_a * d - lead_b * c) // scale for d, c in zip(divisor, a[:-1])])
            delta, delta_next = delta_next, abs(lead_b)
        else:
            rem = _primitive([-c for c in _pseudo_rem(a, divisor)])
            delta = delta_next = 1
        a, b = b, rem
        odd_divisor = not odd_divisor
    return index, _primitive(a)


def cauchy_index_lines(
    f0_columns: Sequence[Sequence[int]], f1_columns: Sequence[Sequence[int]], f0_odd: bool
) -> list[tuple[int, list[int]]]:
    """[cauchy_index_line(f0, f1, f0_odd) for each pair (f0, f1) of a block], in lockstep.

    The block comes column by column: f0_columns[k][s] is coefficient k of
    the s-th f0, and f1_columns[k][s] of the s-th f1, so every f0 has one
    length, at least 1, and every f1 one length.  The state is kept the
    same way, one list across the block per coefficient position, and
    each step of cauchy_index_line's fraction-free chain is one
    comprehension over the block per position.  Each pair's elements are
    cauchy_index_line's integers: the same primitive start, the same
    one-degree formula on the same operands, the same divisors.  That
    holds while every step is a one-degree step: when F1 starts one
    degree below F0 and every remainder keeps its top coefficient.  So a
    pair whose f0 or f1 starts short, or whose next remainder loses its
    top coefficient (a degree gap, or a remainder that vanishes early,
    which leaves a tail of positive degree), leaves the block and is run
    by cauchy_index_line on its own coefficients.  The rest end their d
    one-degree steps, d the degree of F0, in a nonzero constant, whose
    primitive part is its sign.
    """
    size = len(f0_columns[0]) if f0_columns else 0
    odd_divisor = not f0_odd

    def alone(s: int) -> tuple[int, list[int]]:
        return cauchy_index_line([c[s] for c in f0_columns], [c[s] for c in f1_columns], f0_odd)

    if not f1_columns or len(f0_columns) != len(f1_columns) + odd_divisor:
        return [alone(s) for s in range(size)]
    results: list = [None] * size
    slots = []  # where each pair still in the block sits in f0_columns
    for s, tops in enumerate(zip(f0_columns[-1], f1_columns[-1])):
        if all(tops):
            slots.append(s)
        else:
            results[s] = alone(s)
    a, b = f0_columns, f1_columns
    if len(slots) < size:
        a, b = ([[c[s] for s in slots] for c in cols] for cols in (a, b))
    a, b = _primitive_columns(a), _primitive_columns(b)
    index = [0] * len(slots)
    delta = delta_next = [1] * len(slots)
    zero = [0] * len(slots)
    while b and slots:
        lead_a, lead_b = a[-1], b[-1]
        index = [i + 1 if (x > 0) == (y > 0) else i - 1 for i, x, y in zip(index, lead_a, lead_b)]
        scale = [d if y > 0 else -d for d, y in zip(delta, lead_b)]
        rem = [
            [(x * v - y * c) // d for x, v, y, c, d in zip(lead_a, vs, lead_b, cs, scale)]
            for vs, cs in zip([zero, *b] if odd_divisor else b, a[:-1])
        ]
        delta, delta_next = delta_next, list(map(abs, lead_b))
        if rem and not all(rem[-1]):
            keep = [j for j, x in enumerate(rem[-1]) if x]
            for j, x in enumerate(rem[-1]):
                if not x:
                    results[slots[j]] = alone(slots[j])
            b, rem = ([[c[j] for j in keep] for c in cols] for cols in (b, rem))
            index, delta, delta_next, slots = ([x[j] for j in keep] for x in (index, delta, delta_next, slots))
            zero = [0] * len(slots)
        a, b = b, rem
        odd_divisor = not odd_divisor
    for s, i, x in zip(slots, index, a[0]):
        results[s] = (i, [1 if x > 0 else -1])
    return results


def _primitive_columns(columns: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """_primitive of each polynomial of a block given column by column, whose top column has no zero."""
    contents = list(map(gcd, *columns))
    if all(g == 1 for g in contents):
        return columns
    return [[c // g for c, g in zip(col, contents)] for col in columns]
