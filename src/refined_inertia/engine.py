"""Refined inertia of real matrices: exact over rationals, numeric via LAPACK.

Exact path, no floating point: char_poly reads a matrix by
realization.rational_rows and runs Berkowitz on its integers
(_integer_char_poly), and refined_inertia_exact counts the roots by
_inertia_counts, whose docstring holds the argument.

Numeric path: refined_inertia_numeric, a dense eigensolve with a relative
axis tolerance, for float entries and the exact/numeric cross-validation.
It alone imports numpy, on first use, and no verdict rests on it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

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


class _Counts(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int
    two_n_p: int


class RefinedInertia(_Counts):
    """Counts (n_plus, n_minus, n_zero, two_n_p) of eigenvalues by location.

    n_plus / n_minus count eigenvalues with positive / negative real part,
    n_zero counts zero eigenvalues, and two_n_p counts nonzero pure
    imaginary eigenvalues (always even by conjugate pairing).  It is the
    4-tuple of its counts: it equals, hashes and sorts as that tuple.
    """

    __slots__ = ()

    def __new__(cls, n_plus: int, n_minus: int, n_zero: int, two_n_p: int):
        if min(n_plus, n_minus, n_zero, two_n_p) < 0:
            raise ValueError("inertia counts must be nonnegative")
        if two_n_p % 2 != 0:
            raise ValueError("nonzero imaginary eigenvalues come in conjugate pairs")
        return super().__new__(cls, n_plus, n_minus, n_zero, two_n_p)

    __str__ = tuple.__repr__

    # No pipeline caller: the benchmark's workloads call it.
    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


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
    """det(xI - B) for B = A / common, with A a square integer matrix (_char_poly_ints)."""
    return RationalPoly.from_ints(*_char_poly_ints(A, common))


def _char_poly_ints(A: list[list[int]], common: int) -> tuple[list[int], int]:
    """(num, den) with det(xI - B) = sum(num[k] * x**k) / den for B = A / common, not reduced.

    det(xI - B) is common**-n * det(common x I - A), and det(yI - A) comes
    from Berkowitz's division-free recurrence over the integers: bordering
    the leading k x k block M by column c, row r and corner a multiplies
    its characteristic polynomial by the lower-triangular Toeplitz matrix
    with first column (1, -a, -r c, -r M c, ..., -r M^(k-1) c).  When c or
    r is zero, every -r M^m c is, so the step is one multiplication by
    (y - a), in O(k), with no block or Krylov product formed.  While M is
    diagonal, -r M^m c is the power sum -sum_i r_i c_i d_i^m over its
    diagonal d, in O(k) per entry.  M stays diagonal until the first
    border with a nonzero entry off the corner, which every later block
    contains.  An arrowhead whose hub comes last takes the zero-border step
    everywhere but at the hub, and the power sums there.
    """
    poly = [1]  # det(yI - M) for the leading block, highest power first
    diagonal = True  # whether the leading block M is diagonal
    for k in range(len(A)):
        row, col = A[k][:k], [A[i][k] for i in range(k)]
        if not (any(col) and any(row)):
            poly = [x - A[k][k] * y for x, y in zip([*poly, 0], [0, *poly])]
            diagonal = diagonal and not (any(col) or any(row))
            continue
        toeplitz = [1, -A[k][k]]
        if diagonal:
            d = [A[i][i] for i in range(k)]
            w = list(map(mul, row, col))  # r_i c_i d_i^m at step m
            for m in range(k):
                if m:
                    w = list(map(mul, w, d))
                toeplitz.append(-sum(w))
            diagonal = False
        else:
            block = [A[i][:k] for i in range(k)]
            for m in range(k):
                if m:  # col becomes M^m c; no entry reads M^k c, so it is never formed
                    col = [sum(map(mul, r, col)) for r in block]
                toeplitz.append(-sum(map(mul, row, col)))
        poly = [sum(map(mul, toeplitz[i::-1], poly)) for i in range(k + 2)]
    return [c * common**k for k, c in enumerate(reversed(poly))], common ** len(A)


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


def _poly_json(num: Sequence[int], den: int) -> str:
    """One-line JSON of num / den, for internal-check messages: coefficients low to high."""
    return "polynomial " + json.dumps({"num": list(num), "den": den})


def refined_inertia_exact(p: RationalPoly) -> RefinedInertia:
    """Refined inertia of the root multiset of p, certified over the rationals.

    The counts of _inertia_counts on p's integer numerators, since a
    nonzero scaling keeps every root.
    """
    if p.is_zero:
        raise ValueError("refined inertia of the zero polynomial is undefined")
    return RefinedInertia(*_inertia_counts(p.num, p.den))


def _inertia_counts(num: Sequence[int], den: int = 1) -> tuple[int, int, int, int]:
    """(n_plus, n_minus, n_zero, two_n_p) of the roots of sum(num[k] * x**k).

    num's last entry must be nonzero, and any nonzero multiple of num has
    the same roots; den only names the polynomial num / den in an
    internal-check message, so that the message reproduces the failure
    through refined_inertia_exact.  Zero roots come off the trailing
    coefficients, leaving q with q(0) != 0, and q(i*w) splits into
    Re = E(w**2) and Im = w*O(w**2).  One remainder chain of these parity
    parts, on the half-length lists E and O in u = w**2, gives the Cauchy
    index that splits the axis-free roots between the open half-planes,
    and ends in gcd(Re, Im) = T(w**2).  A real root w of that tail is an
    imaginary root i*w of q, with the same multiplicity, and w != 0
    because q(0) != 0; so the real roots of T(w**2), with multiplicity,
    count the imaginary pairs.  The same chain on (T, T') counts them
    without multiplicity: T(w**2) is even and w*T'(w**2), half its
    w-derivative, is odd, so the index is Sturm's count.  T(0) != 0
    because T divides E and E(0) = q(0), so that chain's tail is
    gcd(T, T')(w**2), whose real roots are T's one multiplicity lower;
    running it down to a constant tail adds each root once per level.
    The axis-free degree m has the parity of deg q, which therefore
    decides whether Re or Im sits in the denominator.
    """
    n_zero = next(k for k, c in enumerate(num) if c)
    q = num[n_zero:]
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
        raise InternalCheckError(f"half-plane split has impossible parity; {_poly_json(num, den)}")
    if abs(diff) > m:
        raise InternalCheckError(
            f"half-plane difference {diff} exceeds the axis-free degree {m}; "
            f"{_poly_json(num, den)}"
        )
    return (m - diff) // 2, (m + diff) // 2, n_zero, two_n_p


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

    For -r = s / t it counts the roots of _shifted(p.num, s, t) by
    _inertia_counts; they are those of p(x - r) times t > 0, so every count
    is that of p(x - r).  Neither the t**k rescale nor any normalization of
    p(x - r) is done.
    """
    s, t = as_ratio(-r)
    return RefinedInertia(*_inertia_counts(_shifted(p.num, s, t)))


# No pipeline caller: the lemma checks call _shift_det; kept because the
# benchmark's tracer resolves it by name and the engine tests use it.
def arrow_shift_det(arrow: ArrowMatrix, j: int, reference: RationalPoly) -> Fraction:
    """det(b_j I + B) for an arrowhead matrix with distinct b values, j in 1..n-2 (_shift_det).

    reference is the matrix's characteristic polynomial from an independent
    algorithm, which the value is checked against.
    """
    n = arrow.n
    if not 1 <= j <= n - 2:
        raise ValueError(f"j must be in 1..{n - 2}, got {j}")
    b = arrow.b_num
    if len(set(b)) != len(b):
        raise ValueError("shift determinant formula requires distinct b values")
    return Fraction(*_shift_det(arrow.a_num, arrow.a_den, b, arrow.b_den, j, reference.num, reference.den))


def _shift_det(
    a: Sequence[int], a_den: int, b: Sequence[int], b_den: int, j: int, p_num: Sequence[int], p_den: int
) -> tuple[int, int]:
    """(value, scale): det(b_j I + B) = value / scale for the arrow a / a_den, b / b_den.

    The closed form -a_{j+2} * b_j * prod_{m != j} (b_j - b_m), valid when
    the b values are distinct (j is 1-based), on the arrow's integers: its
    numerator is over a_den * b_den**(n - 2).  p_num / p_den is the
    matrix's characteristic polynomial p from an independent algorithm;
    the value is checked against det(b_j I + B) = (-1)**n * p(-b_j), with
    b_den**deg(p) * p(-b_j) from Horner's rule in the integers, by
    cross-multiplying the denominators, and a mismatch raises
    InternalCheckError naming the arrow.
    """
    n = len(a)
    bj = b[j - 1]
    value = -a[j + 1] * bj
    for m, bm in enumerate(b, start=1):
        if m != j:
            value *= bj - bm
    scale = a_den * b_den ** (n - 2)
    certified = (-1) ** n * _homogeneous_value(p_num, -bj, b_den)
    reference_scale = p_den * b_den ** max(len(p_num) - 1, 0)
    if value * reference_scale != certified * scale:
        arrow = ArrowMatrix.from_ints(a, a_den, b, b_den)
        raise InternalCheckError(
            f"arrow shift determinant mismatch at j={j}: formula {Fraction(value, scale)}, "
            f"reference {Fraction(certified, reference_scale)}; arrow {json.dumps(arrow.to_json())}"
        )
    return value, scale
