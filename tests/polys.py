"""Ring operations on RationalPoly, for building test polynomials with known roots.

The package needs none of them: every routine it runs reads a
polynomial's integer coefficients.  Each function here works on those
integers too and returns through RationalPoly.from_ints.
"""

from math import lcm

from refined_inertia.ratpoly import RationalPoly


def one() -> RationalPoly:
    return RationalPoly.from_ints((1,))


def variable() -> RationalPoly:
    return RationalPoly.from_ints((0, 1))


def add(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    den = lcm(p.den, q.den)
    a = [c * (den // p.den) for c in p.num]
    b = [c * (den // q.den) for c in q.num]
    if len(a) < len(b):
        a, b = b, a
    for k, c in enumerate(b):
        a[k] += c
    return RationalPoly.from_ints(a, den)


def neg(p: RationalPoly) -> RationalPoly:
    return RationalPoly.from_ints([-c for c in p.num], p.den)


def sub(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    return add(p, neg(q))


def mul(*factors: RationalPoly) -> RationalPoly:
    """The product of the factors; one() for none."""
    num, den = [1], 1
    for p in factors:
        out = [0] * max(len(num) + len(p.num) - 1, 0)
        for i, x in enumerate(num):
            for j, y in enumerate(p.num):
                out[i + j] += x * y
        num, den = out, den * p.den
    return RationalPoly.from_ints(num, den)


def power(p: RationalPoly, exponent: int) -> RationalPoly:
    return mul(*[p] * exponent)


def from_roots(roots) -> RationalPoly:
    """Monic polynomial with the given rational roots (with multiplicity)."""
    return mul(*(sub(variable(), RationalPoly((r,))) for r in roots))
