"""Refined inertia of real matrices: exact over rationals, numeric via LAPACK.

The exact path never touches floating point.  It factors the characteristic
polynomial's spectrum into four certified counts:

* zero eigenvalues from trailing coefficients,
* nonzero imaginary-axis pairs from the gcd of the even/odd split,
* the open half-plane counts from the Cauchy index of Im/Re of p(i*w)
  over the real line (the generalized Routh-Hurwitz count, computed with
  Sturm-type remainder chains so singular cases need no epsilon shifts).

The numeric path is a dense eigensolve with a relative axis tolerance and
exists for speed and cross-validation; on any disagreement near the axis
the exact engine is the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ratpoly import (
    RationalPoly,
    as_fraction,
    cauchy_index_line,
    even_odd_split,
    imaginary_axis_parts,
    negative_root_count_with_multiplicity,
    poly_gcd,
    strip_zero_roots,
)
from .realization import ArrowMatrix, to_rational_matrix

# Relative axis tolerance of the numeric classifier.
_AXIS_EPS = 1e-9


class EigenSolverError(RuntimeError):
    """Dense eigensolver failed to converge; callers fall back to the exact path."""


class InternalCheckError(RuntimeError):
    """An identity the theory guarantees failed to hold; signals an engine bug."""


@dataclass(frozen=True, order=True)
class RefinedInertia:
    """Counts (n_plus, n_minus, n_zero, two_n_p) of eigenvalues by location.

    n_plus / n_minus count eigenvalues with positive / negative real part,
    n_zero counts zero eigenvalues, and two_n_p counts nonzero pure
    imaginary eigenvalues (always even by conjugate pairing).
    """

    n_plus: int
    n_minus: int
    n_zero: int
    two_n_p: int

    def __post_init__(self):
        if min(self.n_plus, self.n_minus, self.n_zero, self.two_n_p) < 0:
            raise ValueError("inertia counts must be nonnegative")
        if self.two_n_p % 2 != 0:
            raise ValueError("nonzero imaginary eigenvalues come in conjugate pairs")

    @property
    def order(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero + self.two_n_p

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero, self.two_n_p)

    def __str__(self) -> str:
        return f"({self.n_plus}, {self.n_minus}, {self.n_zero}, {self.two_n_p})"

    def to_json(self) -> dict:
        return {
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "n_zero": self.n_zero,
            "two_n_p": self.two_n_p,
        }


def _to_float_array(matrix: Sequence[Sequence]) -> np.ndarray:
    arr = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("matrix must be square and nonempty")
    return arr


def char_poly(matrix: Sequence[Sequence]) -> RationalPoly:
    """Monic characteristic polynomial det(xI - B) with exact rational coefficients.

    Faddeev-LeVerrier recursion; cubic-per-step cost is irrelevant at the
    orders this library targets.
    """
    B = to_rational_matrix(matrix)
    n = len(B)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    for k in range(1, n + 1):
        AM = tuple(
            tuple(sum(B[i][t] * M[t][j] for t in range(n)) for j in range(n)) for i in range(n)
        )
        c = -Fraction(sum(AM[i][i] for i in range(n)), k)
        coeffs[n - k] = c
        if k < n:
            M = tuple(
                tuple(AM[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
            )
    return RationalPoly(coeffs)


def det_rational(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination on a scaled integer copy."""
    B = to_rational_matrix(matrix)
    n = len(B)
    scale = Fraction(1)
    rows: list[list[int]] = []
    for row in B:
        den_lcm = 1
        for x in row:
            den_lcm = den_lcm * x.denominator // math.gcd(den_lcm, x.denominator)
        scale *= den_lcm
        rows.append([int(x * den_lcm) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return Fraction(sign * rows[n - 1][n - 1]) / scale


def refined_inertia_exact(p: RationalPoly) -> RefinedInertia:
    """Refined inertia of the root multiset of p, certified over the rationals.

    Zero roots come off the trailing coefficients.  Writing the remainder q
    as E(x^2) + x*O(x^2), the negative real roots of gcd(E, O) (with
    multiplicity) are exactly the conjugate imaginary pairs of q.  The
    surviving axis-free part is split between the open half-planes by the
    Cauchy index of the real/imaginary parts of q(i*w); whether Re or Im
    sits in the denominator depends only on the parity of the axis-free
    degree.
    """
    if p.is_zero:
        raise ValueError("refined inertia of the zero polynomial is undefined")
    p = p.monic()
    n = p.degree
    n_zero, q = strip_zero_roots(p)
    even, odd = even_odd_split(q)
    g = poly_gcd(even, odd)
    two_n_p = 2 * negative_root_count_with_multiplicity(g) if g.degree > 0 else 0
    m = q.degree - two_n_p
    if m == 0:
        n_plus = n_minus = 0
    else:
        re_part, im_part = imaginary_axis_parts(q)
        if m % 2 == 0:
            diff = -cauchy_index_line(re_part, im_part)
        else:
            diff = cauchy_index_line(im_part, re_part)
        if (m + diff) % 2 != 0:
            raise InternalCheckError("half-plane split has impossible parity")
        n_minus = (m + diff) // 2
        n_plus = (m - diff) // 2
    result = RefinedInertia(n_plus, n_minus, n_zero, two_n_p)
    if result.order != n:
        raise InternalCheckError("inertia components do not sum to the degree")
    return result


def _classify_eigenvalues(
    eigvals: np.ndarray, scale: float, axis_eps: float
) -> tuple[RefinedInertia, bool]:
    threshold = axis_eps * scale
    guard = 10.0 * threshold
    n_plus = n_minus = n_zero = two_n_p = 0
    near_axis = False
    for lam in eigvals:
        if abs(lam.real) <= guard:
            near_axis = True
        if abs(lam) <= threshold:
            n_zero += 1
        elif abs(lam.real) <= threshold:
            two_n_p += 1
        elif lam.real > 0:
            n_plus += 1
        else:
            n_minus += 1
    if two_n_p % 2 != 0:
        raise EigenSolverError("conjugate pairing broken in numeric classification")
    return RefinedInertia(n_plus, n_minus, n_zero, two_n_p), near_axis


def _numeric_inertia_flagged(
    matrix: Sequence[Sequence], axis_eps: float = _AXIS_EPS
) -> tuple[RefinedInertia, bool]:
    A = _to_float_array(matrix)
    n = A.shape[0]
    scale = float(np.abs(A).sum(axis=1).max())
    if scale == 0.0:
        return RefinedInertia(0, 0, n, 0), True
    try:
        eigvals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"dense eigensolver failed: {exc}") from exc
    return _classify_eigenvalues(eigvals, scale, axis_eps)


def refined_inertia_numeric(
    matrix: Sequence[Sequence], axis_eps: float = _AXIS_EPS
) -> RefinedInertia:
    """Refined inertia from a dense eigensolve.

    Eigenvalues within axis_eps times the max row-sum norm of the axes are
    snapped to them; axis_eps must be positive.  Matrices with irrational
    (float) entries are only served by this path; the exact engine requires
    rational input.
    """
    if not axis_eps > 0:
        raise ValueError(f"axis_eps must be positive, got {axis_eps}")
    inertia, _ = _numeric_inertia_flagged(matrix, axis_eps)
    return inertia


def count_eigen_re_leq(matrix: Sequence[Sequence], r) -> int:
    """Number of eigenvalues with real part <= -r, with multiplicity, exactly.

    Shifts the spectrum by r and reads the count off the exact refined
    inertia of rI + B: everything strictly left of the new axis plus
    everything exactly on it.
    """
    B = to_rational_matrix(matrix)
    rf = as_fraction(r)
    n = len(B)
    shifted = tuple(
        tuple(B[i][j] + (rf if i == j else 0) for j in range(n)) for i in range(n)
    )
    inertia = refined_inertia_exact(char_poly(shifted))
    return inertia.n_minus + inertia.n_zero + inertia.two_n_p


def arrow_shift_det(arrow: ArrowMatrix, j: int) -> Fraction:
    """det(b_j I + B) for an arrowhead matrix, via the closed-form product.

    Uses the formula -a_{j+2} * b_j * prod_{m != j} (b_j - b_m), valid when
    the b values are distinct (j is 1-based).  The value is checked against
    an independent Bareiss determinant of the shifted matrix; a mismatch
    raises InternalCheckError.
    """
    n = arrow.n
    if not 1 <= j <= n - 2:
        raise ValueError(f"j must be in 1..{n - 2}, got {j}")
    b = arrow.b
    if len(set(b)) != len(b):
        raise ValueError("shift determinant formula requires distinct b values")
    bj = b[j - 1]
    value = -arrow.a[j + 1] * bj
    for m, bm in enumerate(b, start=1):
        if m != j:
            value *= bj - bm
    M = arrow.to_matrix()
    shifted = tuple(
        tuple(M[r][c] + (bj if r == c else 0) for c in range(n)) for r in range(n)
    )
    direct = det_rational(shifted)
    if direct != value:
        raise InternalCheckError(
            f"arrow shift determinant mismatch at j={j}: formula {value}, direct {direct}"
        )
    return value
