"""Refined inertia of real matrices: exact over rationals, numeric via LAPACK.

The exact path never touches floating point.  char_poly reads a matrix
through :func:`~refined_inertia.realization.rational_rows`, as integer
rows over one common denominator, for the Berkowitz kernel, and
:func:`refined_inertia_exact` certifies the four counts from the
polynomial's integers: the zero roots off the trailing coefficients,
everything else from the one remainder-chain routine,
:func:`~refined_inertia.ratpoly.cauchy_index_line`.  The argument is
written once, in those two functions' docstrings.

The numeric path is a dense eigensolve with a relative axis tolerance; it
alone uses numpy, imported on first use, so the exact core runs on the
standard library.  It serves matrices with float entries
(``riq inertia --numeric``) and the exact/numeric cross-validation; the
falsifier classifies every sample exactly, and on any disagreement the
exact engine is the ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .ratpoly import (
    Rational,
    RationalPoly,
    _derivative,
    _homogeneous_value,
    _shifted,
    as_ratio,
    cauchy_index_line,
)
from .realization import ArrowMatrix, rational_rows

if TYPE_CHECKING:
    import numpy as np

# Relative axis tolerance of the numeric classifier.
_AXIS_EPS = 1e-9


class EigenSolverError(RuntimeError):
    """Dense eigensolver failed to converge or broke conjugate pairing."""


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
    import numpy as np

    arr = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("matrix must be square and nonempty")
    return arr


def char_poly(matrix: Sequence[Sequence]) -> RationalPoly:
    """Monic characteristic polynomial det(xI - B) with exact rational coefficients."""
    return _integer_char_poly(*rational_rows(matrix))


def _integer_char_poly(A: list[list[int]], common: int) -> RationalPoly:
    """det(xI - B) for B = A / common, with A a square integer matrix.

    det(xI - B) is common**-n * det(common x I - A), and det(yI - A) comes
    from Berkowitz's division-free recurrence over the integers: bordering
    the leading k x k block M by column c, row r and corner a multiplies
    its characteristic polynomial by the lower-triangular Toeplitz matrix
    with first column (1, -a, -r c, -r M c, ..., -r M^(k-1) c).
    """
    poly = [1]  # det(yI - M) for the leading block, highest power first
    for k in range(len(A)):
        block = [A[i][:k] for i in range(k)]
        col = [A[i][k] for i in range(k)]
        toeplitz = [1, -A[k][k]]
        for m in range(k):
            if m:  # col becomes M^m c; no entry reads M^k c, so it is never formed
                col = [sum(map(mul, row, col)) for row in block]
            toeplitz.append(-sum(map(mul, A[k], col)))
        poly = [sum(map(mul, toeplitz[i::-1], poly)) for i in range(k + 2)]
    n = len(A)
    return RationalPoly.from_ints(
        [c * common**k for k, c in enumerate(reversed(poly))], common**n
    )


# No pipeline caller: kept because the benchmark's tracer resolves it by name
# and the char_poly tests use it as an oracle.
def det_rational(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination on the integer rows."""
    rows, common = rational_rows(matrix)
    n = len(rows)
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
    return Fraction(sign * rows[n - 1][n - 1], common**n)


def _poly_json(p: RationalPoly) -> str:
    """One-line JSON of p, for internal-check messages: coefficients low to high."""
    return "polynomial " + json.dumps({"num": list(p.num), "den": p.den})


def refined_inertia_exact(p: RationalPoly) -> RefinedInertia:
    """Refined inertia of the root multiset of p, certified over the rationals.

    Everything runs on p's integer numerators, since a nonzero scaling keeps
    every root.  Zero roots come off the trailing coefficients, leaving q
    with q(0) != 0, and q(i*w) splits into Re = E(w**2) and Im = w*O(w**2).
    One remainder chain of these parity parts, on the half-length lists E
    and O in u = w**2, gives the Cauchy index that splits the axis-free
    roots between the open half-planes, and ends in gcd(Re, Im) = T(w**2).
    A real root w of that tail is an imaginary root i*w of q, with the same
    multiplicity, and w != 0 because q(0) != 0; so the real roots of
    T(w**2), with multiplicity, count the imaginary pairs.  The same chain
    on (T, T') counts them without multiplicity: T(w**2) is even and
    w*T'(w**2), half its w-derivative, is odd, so the index is Sturm's count.
    T(0) != 0 because T divides E and E(0) = q(0), so that chain's tail is
    gcd(T, T')(w**2), whose real roots are T's one multiplicity lower;
    running it down to a constant tail adds each root once per level.
    The axis-free degree m has the parity of deg q, which therefore decides
    whether Re or Im sits in the denominator.
    """
    if p.is_zero:
        raise ValueError("refined inertia of the zero polynomial is undefined")
    n_zero = next(k for k, c in enumerate(p.num) if c)
    q = p.num[n_zero:]
    even, odd = list(q[0::2]), list(q[1::2])
    even[1::2] = [-c for c in even[1::2]]
    odd[1::2] = [-c for c in odd[1::2]]
    degree = len(q) - 1
    if degree % 2 == 0:
        index, tail = cauchy_index_line(even, odd, False)
        diff = -index
    else:
        diff, tail = cauchy_index_line(odd, even, True)
    two_n_p = 0
    while len(tail) > 1:
        distinct, tail = cauchy_index_line(tail, _derivative(tail), False)
        two_n_p += distinct
    m = degree - two_n_p
    if (m + diff) % 2 != 0:
        raise InternalCheckError(f"half-plane split has impossible parity; {_poly_json(p)}")
    if abs(diff) > m:
        raise InternalCheckError(
            f"half-plane difference {diff} exceeds the axis-free degree {m}; "
            f"{_poly_json(p)}"
        )
    return RefinedInertia((m - diff) // 2, (m + diff) // 2, n_zero, two_n_p)


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
    import numpy as np

    A = _to_float_array(matrix)
    n = A.shape[0]
    with np.errstate(over="ignore"):
        scale = float(np.abs(A).sum(axis=1).max())
    if not math.isfinite(scale):
        raise OverflowError("a row sum of absolute values overflows")
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
    snapped to them; axis_eps must be positive and finite.  Matrices with
    irrational (float) entries are only served by this path; the exact
    engine requires rational input.
    """
    if not axis_eps > 0:
        raise ValueError(f"axis_eps must be positive, got {axis_eps}")
    if axis_eps == math.inf:
        raise ValueError(f"axis_eps must be finite, got {axis_eps}")
    inertia, _ = _numeric_inertia_flagged(matrix, axis_eps)
    return inertia


def count_eigen_re_leq(matrix: Sequence[Sequence], r) -> int:
    """Number of eigenvalues with real part <= -r, with multiplicity, exactly.

    Shifts the spectrum by r (the characteristic polynomial of rI + B is
    p(x - r)) and reads the count off its exact refined inertia, from
    _shifted_inertia: everything strictly left of the new axis plus
    everything exactly on it.
    """
    inertia = _shifted_inertia(char_poly(matrix), r)
    return inertia.n_minus + inertia.n_zero + inertia.two_n_p


def _shifted_inertia(p: RationalPoly, r: Rational) -> RefinedInertia:
    """Refined inertia of p(x - r), the characteristic polynomial of rI + B if p is B's.

    For -r = s / t it classifies _shifted(p.num, s, t), whose roots are those
    of p(x - r) times t > 0, so every count is that of p(x - r); the t**k
    rescale and the gcd normalization of p(x - r) itself are never done.
    """
    s, t = as_ratio(-r)
    return refined_inertia_exact(RationalPoly.from_ints(_shifted(p.num, s, t)))


def arrow_shift_det(arrow: ArrowMatrix, j: int, reference: RationalPoly) -> Fraction:
    """det(b_j I + B) for an arrowhead matrix, via the closed-form product.

    Uses the formula -a_{j+2} * b_j * prod_{m != j} (b_j - b_m), valid when
    the b values are distinct (j is 1-based), on the arrow's integers: its
    numerator is over a_den * b_den**(n - 2).  reference is the matrix's
    characteristic polynomial p from an independent algorithm; the value is
    checked against det(b_j I + B) = (-1)**n * p(-b_j), with
    b_den**deg(p) * p(-b_j) from Horner's rule in the integers, by
    cross-multiplying the denominators, and a mismatch raises
    InternalCheckError.
    """
    n = arrow.n
    if not 1 <= j <= n - 2:
        raise ValueError(f"j must be in 1..{n - 2}, got {j}")
    b, den = arrow.b_num, arrow.b_den
    if len(set(b)) != len(b):
        raise ValueError("shift determinant formula requires distinct b values")
    bj = b[j - 1]
    value = -arrow.a_num[j + 1] * bj
    for m, bm in enumerate(b, start=1):
        if m != j:
            value *= bj - bm
    scale = arrow.a_den * den ** (n - 2)
    certified = (-1) ** n * _homogeneous_value(reference.num, -bj, den)
    reference_scale = reference.den * den ** max(reference.degree, 0)
    if value * reference_scale != certified * scale:
        raise InternalCheckError(
            f"arrow shift determinant mismatch at j={j}: formula {Fraction(value, scale)}, "
            f"reference {Fraction(certified, reference_scale)}; arrow {json.dumps(arrow.to_json())}"
        )
    return Fraction(value, scale)
