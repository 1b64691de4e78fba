"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are stored ascending, so ``coeffs[k]`` multiplies ``x**k``.
The zero polynomial has an empty coefficient tuple.  Everything in this
module is pure :class:`fractions.Fraction` arithmetic; floats are rejected
so that every count and sign produced here is certifiable.

Beyond the ring operations, this module provides the root-counting
machinery used by the inertia engine: Sturm chains, Yun squarefree
decomposition, and the Cauchy index of a rational function over the whole
real line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Sequence

Rational = Fraction | int


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact arithmetic requires int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class RationalPoly:
    """Univariate polynomial with exact rational coefficients, ascending order."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational] = ()):
        normalized = [as_fraction(c) for c in coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def variable(cls) -> "RationalPoly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[Rational]) -> "RationalPoly":
        """Monic polynomial with the given rational roots (with multiplicity)."""
        p = cls.one()
        for r in roots:
            p = p * cls((-as_fraction(r), 1))
        return p

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RationalPoly(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero or other.is_zero:
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    def __pow__(self, exponent: int) -> "RationalPoly":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = RationalPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, factor: Rational) -> "RationalPoly":
        f = as_fraction(factor)
        return RationalPoly(tuple(c * f for c in self.coeffs))

    def __divmod__(self, divisor: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dn = len(dc)
        lead_inv = 1 / dc[-1]
        quo = [Fraction(0)] * max(len(rem) - dn + 1, 0)
        for top in range(len(rem) - 1, dn - 2, -1):
            factor = rem[top] * lead_inv
            if factor == 0:
                continue
            quo[top - dn + 1] = factor
            for k in range(dn):
                rem[top - dn + 1 + k] -= factor * dc[k]
        return RationalPoly(quo), RationalPoly(rem[: dn - 1])

    def divides_exactly(self, divisor: "RationalPoly") -> "RationalPoly":
        """Quotient self / divisor, raising if the division leaves a remainder."""
        quo, rem = divmod(self, divisor)
        if not rem.is_zero:
            raise ValueError("division is not exact")
        return quo

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "RationalPoly":
        return RationalPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def evaluate(self, x: Rational) -> Fraction:
        xf = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xf + c
        return acc

    def monic(self) -> "RationalPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading
        if lead == 1:
            return self
        return self.scale(1 / lead)

    def taylor_shift(self, c: Rational) -> "RationalPoly":
        """Return p(x + c), computed by Horner composition."""
        cf = as_fraction(c)
        acc: list[Fraction] = []
        for a in reversed(self.coeffs):
            # acc <- acc * (x + c) + a
            out = [Fraction(0)] * (len(acc) + 1)
            for k, v in enumerate(acc):
                out[k + 1] += v
                out[k] += v * cf
            out[0] += a
            acc = out
        return RationalPoly(acc)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [[c.numerator, c.denominator] for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "RationalPoly":
        return cls(Fraction(num, den) for num, den in data["coeffs"])


# -- gcd, squarefree structure -----------------------------------------


def poly_gcd(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """Monic greatest common divisor; gcd(0, 0) is the zero polynomial.

    Computed as a primitive pseudo-remainder sequence over the integers,
    which avoids rational coefficient blowup mid-chain.
    """
    a = _primitive_int_coeffs(f) if not f.is_zero else []
    b = _primitive_int_coeffs(g) if not g.is_zero else []
    while b:
        rem, _ = _int_pseudo_rem(a, b)
        a, b = b, _int_primitive(rem)
    if not a:
        return RationalPoly.zero()
    return RationalPoly(a).monic()


def squarefree_decomposition(p: RationalPoly) -> list[tuple[RationalPoly, int]]:
    """Yun's algorithm: return monic pairs (factor, multiplicity).

    The product of factor**multiplicity over the result equals p up to the
    leading coefficient.  Constant polynomials decompose to an empty list.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    p = p.monic()
    dp = p.derivative()
    g = poly_gcd(p, dp)
    w = p.divides_exactly(g)
    y = dp.divides_exactly(g)
    z = y - w.derivative()
    factors: list[tuple[RationalPoly, int]] = []
    k = 1
    while w.degree > 0:
        gk = poly_gcd(w, z)
        if gk.degree > 0:
            factors.append((gk, k))
        w = w.divides_exactly(gk)
        y = z.divides_exactly(gk)
        z = y - w.derivative()
        k += 1
    return factors


def strip_zero_roots(p: RationalPoly) -> tuple[int, RationalPoly]:
    """Split p into (multiplicity of the root 0, cofactor with nonzero constant)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    return k, RationalPoly(p.coeffs[k:])


def even_odd_split(p: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Write p(x) = E(x**2) + x*O(x**2) and return (E, O)."""
    return RationalPoly(p.coeffs[0::2]), RationalPoly(p.coeffs[1::2])


def imaginary_axis_parts(p: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Real and imaginary parts of w -> p(i*w) as real polynomials in w."""
    re = [Fraction(0)] * len(p.coeffs)
    im = [Fraction(0)] * len(p.coeffs)
    for k, c in enumerate(p.coeffs):
        r = k % 4
        if r == 0:
            re[k] = c
        elif r == 1:
            im[k] = c
        elif r == 2:
            re[k] = -c
        else:
            im[k] = -c
    return RationalPoly(re), RationalPoly(im)


# -- sign sequences and Sturm machinery ---------------------------------


def _primitive_int_coeffs(p: RationalPoly) -> list[int]:
    """Integer coefficients after dividing by the positive rational content.

    Scaling by a positive constant keeps every sign evaluation intact, and
    coprime integer coefficients keep remainder chains from accumulating
    giant numerators and denominators.
    """
    num_gcd = 0
    den_lcm = 1
    for c in p.coeffs:
        num_gcd = _int_gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    return [int(c * den_lcm) // num_gcd for c in p.coeffs]


def _int_strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _int_primitive(coeffs: list[int]) -> list[int]:
    content = 0
    for c in coeffs:
        content = _int_gcd(content, c)
    return [c // content for c in coeffs] if content > 1 else coeffs


def _int_pseudo_rem(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """Pseudo-remainder of integer polynomials and the sign of its multiplier.

    Returns (r, s) with r = m * rem(f, g) for some constant m whose sign is
    s, using only integer arithmetic.
    """
    r = list(f)
    lead = g[-1]
    dg = len(g) - 1
    steps = 0
    while r and len(r) - 1 >= dg:
        top = r.pop()
        if top == 0:
            continue
        r = [c * lead for c in r]
        for k in range(dg):
            r[len(r) - dg + k] -= top * g[k]
        steps += 1
    sign = -1 if (lead < 0 and steps % 2 == 1) else 1
    return _int_strip(r), sign


def remainder_chain(f0: RationalPoly, f1: RationalPoly) -> list[RationalPoly]:
    """Generalized Sturm chain built from negated Euclidean remainders.

    Each element is a positive constant multiple of the exact remainder
    chain element, reduced to coprime integer coefficients; positive
    scaling leaves every sign evaluation (and hence every variation count)
    unchanged.
    """
    if f0.is_zero:
        raise ValueError("chain head must be nonzero")
    chain_int = [_primitive_int_coeffs(f0)]
    if f1.is_zero:
        return [RationalPoly(chain_int[0])]
    chain_int.append(_primitive_int_coeffs(f1))
    while True:
        rem, mult_sign = _int_pseudo_rem(chain_int[-2], chain_int[-1])
        if not rem:
            break
        # want a positive multiple of -rem(f, g): flip by the multiplier sign
        if mult_sign > 0:
            rem = [-c for c in rem]
        chain_int.append(_int_primitive(rem))
    return [RationalPoly(c) for c in chain_int]


def sign_variations(signs: Sequence[int]) -> int:
    """Number of sign changes in a sequence, zeros ignored."""
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _signs_at(chain: Sequence[RationalPoly], x: Rational) -> list[int]:
    return [_sign(p.evaluate(x)) for p in chain]


def _signs_at_pos_inf(chain: Sequence[RationalPoly]) -> list[int]:
    return [_sign(p.leading) for p in chain]


def _signs_at_neg_inf(chain: Sequence[RationalPoly]) -> list[int]:
    return [_sign(p.leading) * (-1) ** (p.degree % 2) for p in chain]


def count_real_roots(
    p: RationalPoly,
    lower: Rational | None = None,
    upper: Rational | None = None,
) -> int:
    """Distinct real roots of p in (lower, upper], with None meaning +-infinity.

    Finite endpoints must not themselves be roots of p.
    """
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    if p.degree == 0:
        return 0
    for bound in (lower, upper):
        if bound is not None and p.evaluate(bound) == 0:
            raise ValueError("interval endpoint is a root; shrink the interval")
    chain = remainder_chain(p, p.derivative())
    lo = _signs_at_neg_inf(chain) if lower is None else _signs_at(chain, lower)
    hi = _signs_at_pos_inf(chain) if upper is None else _signs_at(chain, upper)
    return sign_variations(lo) - sign_variations(hi)


def negative_root_count_with_multiplicity(p: RationalPoly) -> int:
    """Total multiplicity of the real roots of p lying in (-inf, 0)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    _, p = strip_zero_roots(p)
    total = 0
    for factor, mult in squarefree_decomposition(p):
        total += mult * count_real_roots(factor, None, 0)
    return total


def cauchy_index_line(f0: RationalPoly, f1: RationalPoly) -> int:
    """Cauchy index of f1/f0 over the whole real line.

    Counts jumps of the reduced fraction from -inf to +inf minus jumps the
    other way, via sign variations of the Euclidean remainder chain at the
    two infinities.
    """
    if f0.is_zero:
        raise ValueError("denominator polynomial is zero")
    if f1.is_zero:
        return 0
    chain = remainder_chain(f0, f1)
    return sign_variations(_signs_at_neg_inf(chain)) - sign_variations(_signs_at_pos_inf(chain))
