"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as integer coefficients over one positive common
denominator, ``num[k] / den`` multiplying ``x**k``, kept canonical (no
trailing zero coefficients, gcd of den and every coefficient 1) so that
equality and hashing are exact.  The zero polynomial is ``num == ()``,
``den == 1``.  Every algorithm here works on the integers directly;
:class:`fractions.Fraction` appears only where rationals cross the API
(the constructor, ``coeffs``, ``constant``, ``evaluate``),
and floats are rejected so that every count and sign is certifiable.

Beyond the ring operations, this module provides the root-counting
machinery used by the inertia engine: the Cauchy index of a rational
function over the whole real line (with the gcd its remainder chain ends
in), and real roots counted with multiplicity by Yun's squarefree
decomposition and one Sturm chain per factor.  Multiplying by a positive
constant keeps every root and every sign count, so the chains and gcds run
on primitive integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction | int


def as_ratio(value: Rational) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or Fraction, rejecting floats."""
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return value.numerator, value.denominator
    raise TypeError(f"exact arithmetic requires int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class RationalPoly:
    """Univariate polynomial num / den, integer coefficients ascending."""

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Rational] = ()):
        ratios = [as_ratio(c) for c in coeffs]
        den = lcm(*(d for _, d in ratios))
        self._set([n * (den // d) for n, d in ratios], den)

    def _set(self, num: list[int], den: int) -> None:
        _strip(num)
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num) if num else den
        if g != 1:
            num, den = [c // g for c in num], den // g
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

    @property
    def constant(self) -> Fraction:
        return Fraction(self.num[0] if self.num else 0, self.den)

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls.from_ints((1,))

    @classmethod
    def variable(cls) -> "RationalPoly":
        return cls.from_ints((0, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[Rational]) -> "RationalPoly":
        """Monic polynomial with the given rational roots (with multiplicity)."""
        p = cls.one()
        for r in roots:
            p = p * (cls.variable() - cls((r,)))
        return p

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.num]
        b = [c * (den // other.den) for c in other.num]
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] += c
        return RationalPoly.from_ints(a, den)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly.from_ints([-c for c in self.num], self.den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        out = [0] * max(len(self.num) + len(other.num) - 1, 0)
        for i, x in enumerate(self.num):
            for j, y in enumerate(other.num):
                out[i + j] += x * y
        return RationalPoly.from_ints(out, self.den * other.den)

    def __pow__(self, exponent: int) -> "RationalPoly":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = RationalPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x: Rational) -> Fraction:
        s, t = as_ratio(x)
        return Fraction(_homogeneous_value(self.num, s, t), self.den * t ** max(self.degree, 0))

    def monic(self) -> "RationalPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return RationalPoly.from_ints(self.num, self.num[-1])

    def taylor_shift(self, c: Rational) -> "RationalPoly":
        """Return p(x + c), by Horner composition in t * x + s for c = s / t.

        The accumulator holds t**k times the partial sum, so every step stays
        in the integers; the result is rescaled by t**degree at the end.
        """
        s, t = as_ratio(c)
        acc: list[int] = []
        tpow = 1
        for a in reversed(self.num):
            # acc <- acc * (t*x + s) + a * t**k
            out = [0] * (len(acc) + 1)
            for k, v in enumerate(acc):
                out[k + 1] += v * t
                out[k] += v * s
            out[0] += a * tpow
            acc = out
            tpow *= t
        return RationalPoly.from_ints(acc, self.den * t ** max(self.degree, 0))


# -- integer coefficient lists ------------------------------------------


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """Divide out the positive content; signs, roots and sign counts are kept."""
    content = gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else list(coeffs)


def _derivative(coeffs: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(coeffs) if k > 0]


def _homogeneous_value(coeffs: Sequence[int], s: int, t: int) -> int:
    """t**degree * p(s / t), by Horner's rule in the integers."""
    acc = 0
    tpow = 1
    for c in reversed(coeffs):
        acc = acc * s + c * tpow
        tpow *= t
    return acc


def _pseudo_divmod(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, m) with m * f = q * g + r, deg r < deg g and m a power of lead(g)."""
    r = list(f)
    lead = g[-1]
    dg = len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    m = 1
    while len(r) > dg:
        top = r.pop()
        if top == 0:
            continue
        k = len(r) - dg
        if lead != 1:
            r = [c * lead for c in r]
            q = [c * lead for c in q]
            m *= lead
        q[k] = top
        for i in range(dg):
            r[k + i] -= top * g[i]
    return q, _strip(r), m


def _exact_quotient(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for a primitive g dividing f; by Gauss's lemma the quotient is integral."""
    q, r, m = _pseudo_divmod(f, g)
    if r:
        raise ValueError("division is not exact")
    return [c // m for c in q]


def _gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive greatest common divisor by the primitive pseudo-remainder sequence."""
    a, b = _primitive(f), _primitive(g)
    while b:
        _, rem, _ = _pseudo_divmod(a, b)
        a, b = b, _primitive(rem)
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


def strip_zero_roots(p: RationalPoly) -> tuple[int, RationalPoly]:
    """Split p into (multiplicity of the root 0, cofactor with nonzero constant)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    k = 0
    while p.num[k] == 0:
        k += 1
    return k, RationalPoly.from_ints(p.num[k:], p.den)


def imaginary_axis_parts(p: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Real and imaginary parts of w -> p(i*w) as real polynomials in w."""
    re = [c if k % 4 == 0 else -c if k % 4 == 2 else 0 for k, c in enumerate(p.num)]
    im = [c if k % 4 == 1 else -c if k % 4 == 3 else 0 for k, c in enumerate(p.num)]
    return RationalPoly.from_ints(re, p.den), RationalPoly.from_ints(im, p.den)


# -- sign sequences and Sturm machinery ---------------------------------


def _remainder_chain(f0: Sequence[int], f1: Sequence[int]) -> list[list[int]]:
    """Generalized Sturm chain built from negated Euclidean remainders.

    Each element is a positive constant multiple of the exact remainder
    chain element, reduced to coprime integer coefficients; positive
    scaling leaves every sign evaluation (and hence every variation count)
    unchanged.
    """
    chain = [_primitive(f0)]
    if f1:
        chain.append(_primitive(f1))
    while len(chain) > 1:
        _, rem, m = _pseudo_divmod(chain[-2], chain[-1])
        if not rem:
            break
        # rem = m * rem(f, g); keep a positive multiple of -rem(f, g)
        chain.append(_primitive([-c for c in rem] if m > 0 else rem))
    return chain


def _variation_drop(chain: Sequence[Sequence[int]]) -> int:
    """Sign variations of a chain at -infinity minus its variations at +infinity.

    At +infinity each element has the sign of its leading coefficient; at
    -infinity an element of odd degree (even length) flips it.
    """
    plus = [f[-1] > 0 for f in chain]
    minus = [s == (len(f) % 2 == 1) for s, f in zip(plus, chain)]
    at_minus = sum(a != b for a, b in zip(minus, minus[1:]))
    return at_minus - sum(a != b for a, b in zip(plus, plus[1:]))


def count_real_roots(p: RationalPoly) -> int:
    """Real roots of p counted with multiplicity: Yun, then one Sturm chain per factor."""
    if p.degree == 0:
        return 0
    total = 0
    for factor, mult in squarefree_decomposition(p):
        total += mult * _variation_drop(_remainder_chain(factor.num, _derivative(factor.num)))
    return total


def cauchy_index_line(f0: RationalPoly, f1: RationalPoly) -> tuple[int, RationalPoly]:
    """Cauchy index of f1/f0 over the whole real line, and the monic gcd(f0, f1).

    The index counts jumps of the reduced fraction from -inf to +inf minus
    jumps the other way, via sign variations of the Euclidean remainder
    chain at the two infinities.  The chain's last element is the gcd.
    """
    if f0.is_zero:
        raise ValueError("denominator polynomial is zero")
    chain = _remainder_chain(f0.num, f1.num)
    tail = chain[-1]
    return _variation_drop(chain), RationalPoly.from_ints(tail, tail[-1])
