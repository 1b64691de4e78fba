"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports the package under test.  Characteristic polynomials
come from sympy's ``charpoly`` (Berkowitz), imaginary-axis roots from sympy's
gcd and real-root isolation, and the half-plane split of the remaining roots
from mpmath's polynomial root finder at high precision, with a margin check
so that a root too close to the axis to classify reliably is reported
instead of guessed.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import sympy

_X = sympy.Symbol("x")
_W = sympy.Symbol("w", real=True)
_DPS = 60
_AXIS_MARGIN = mpmath.mpf("1e-30")


class OracleError(RuntimeError):
    """The reference computation could not classify a root with certainty."""


def target_set(n: int) -> frozenset[tuple[int, int, int, int]]:
    """The three refined inertias of H_n, written out from the paper's definition."""
    return frozenset({(0, n, 0, 0), (0, n - 2, 0, 2), (2, n - 2, 0, 0)})


def char_poly_ascending(matrix) -> list[Fraction]:
    """det(xI - M) by sympy's Berkowitz routine, coefficients ascending."""
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) if isinstance(x, Fraction) else x
                       for x in row] for row in matrix])
    coeffs = m.charpoly(_X).all_coeffs()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]


def _poly(coeffs: list[Fraction]) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], _X)


def refined_inertia(coeffs: list[Fraction]) -> tuple[int, int, int, int]:
    """(n_plus, n_minus, n_zero, two_n_p) of the roots of an ascending coefficient list."""
    p = _poly(coeffs)
    n_zero = 0
    while p.degree() > 0 and p.eval(0) == 0:
        p = sympy.quo(p, sympy.Poly(_X, _X))
        n_zero += 1
    n_plus = n_minus = two_n_p = 0
    _, factors = p.sqf_list()
    for factor, mult in factors:
        axis, reals = _split_roots(factor)
        two_n_p += mult * axis
        n_plus += mult * sum(1 for r in reals if r > 0)
        n_minus += mult * sum(1 for r in reals if r < 0)
    return (n_plus, n_minus, n_zero, two_n_p)


def _imaginary_root_count(factor: sympy.Poly) -> int:
    """Roots of a squarefree factor on the imaginary axis, counted exactly.

    With f(i*w) = R(w) + i*I(w), the real common roots of R and I are
    exactly the w with f(i*w) = 0.
    """
    on_axis = sympy.Poly(factor.as_expr().subs(_X, sympy.I * _W).expand(), _W)
    re_part = sympy.Poly(sympy.re(on_axis.as_expr()), _W)
    im_part = sympy.Poly(sympy.im(on_axis.as_expr()), _W)
    g = sympy.gcd(re_part, im_part)
    return sympy.Poly(g, _W).count_roots() if g.degree() > 0 else 0


def _split_roots(factor: sympy.Poly) -> tuple[int, list]:
    """(number of imaginary-axis roots, real parts of the other roots) of a squarefree factor.

    The axis count is exact; the other roots come from mpmath, and each must
    lie clearly off the axis, or OracleError is raised.
    """
    axis = _imaginary_root_count(factor)
    with mpmath.workdps(_DPS):
        roots, err = mpmath.polyroots(
            [mpmath.mpf(int(c.p)) / int(c.q) for c in factor.all_coeffs()],
            maxsteps=500,
            extraprec=4 * _DPS,
            error=True,
        )
        reals = sorted((mpmath.re(root) for root in roots), key=abs)
        if err >= _AXIS_MARGIN or any(abs(r) <= _AXIS_MARGIN for r in reals[axis:]):
            raise OracleError(f"cannot separate the roots of {factor} from the imaginary axis")
        if any(abs(r) > _AXIS_MARGIN for r in reals[:axis]):
            raise OracleError(f"exact and numeric axis roots of {factor} disagree")
        return axis, reals[axis:]


def has_root_in_band(coeffs: list[Fraction], band: Fraction) -> bool:
    """Whether some root has |Re| <= band (the numeric classifier's guard strip)."""
    p = _poly(coeffs)
    if p.eval(0) == 0:
        return True
    limit = mpmath.mpf(band.numerator) / band.denominator
    for factor, _ in p.sqf_list()[1]:
        axis, reals = _split_roots(factor)
        if axis or any(abs(r) <= limit for r in reals):
            return True
    return False
