"""Rational realizations of sign patterns and the arrowhead normal form.

Covers sampling a qualitative class Q(P) with exact rational entries, the
diagonal-similarity normalization onto the arrowhead form (unit first row,
dense first column, diagonal (a1, 0, -b1, ..., -b_{n-2})), the witness
embedding that lifts a 4x4 realization to any larger order by replicating
one spoke, the deflation step that extracts the shared eigenvalue when
two diagonal parameters coincide, and the matrix JSON wire format with its
validating reader.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .patterns import Sign, SignPattern, family_pattern, sgn_of_matrix
from .ratpoly import RationalPoly, as_fraction

RationalMatrix = tuple[tuple[Fraction, ...], ...]


def to_rational_matrix(matrix: Sequence[Sequence]) -> RationalMatrix:
    """Coerce to a square tuple-of-tuples of Fractions; floats are rejected."""
    rows = tuple(tuple(as_fraction(x) for x in row) for row in matrix)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and nonempty")
    return rows


class MembershipError(ValueError):
    """A matrix does not belong to the qualitative class an operation requires."""


class DegenerateMergeError(ValueError):
    """Deflation merged two spoke entries to zero, leaving the qualitative class."""


@dataclass(frozen=True)
class ArrowMatrix:
    """Parameters (a_1..a_n, b_1..b_{n-2}) of the arrowhead form.

    The realized matrix has first row (a_1, 1, ..., 1), first column
    (a_1, a_2, ..., a_n), diagonal (a_1, 0, -b_1, ..., -b_{n-2}), and zeros
    elsewhere.
    """

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __init__(self, a: Sequence, b: Sequence):
        af = tuple(as_fraction(x) for x in a)
        bf = tuple(as_fraction(x) for x in b)
        if len(af) < 4:
            raise ValueError(f"arrow form needs order >= 4, got {len(af)}")
        if len(bf) != len(af) - 2:
            raise ValueError(f"expected {len(af) - 2} diagonal parameters, got {len(bf)}")
        object.__setattr__(self, "a", af)
        object.__setattr__(self, "b", bf)

    @property
    def n(self) -> int:
        return len(self.a)

    def to_matrix(self) -> RationalMatrix:
        n = self.n
        zero = Fraction(0)
        rows = []
        rows.append((self.a[0],) + (Fraction(1),) * (n - 1))
        for k in range(1, n):
            row = [zero] * n
            row[0] = self.a[k]
            if k >= 2:
                row[k] = -self.b[k - 2]
            rows.append(tuple(row))
        return tuple(rows)

    def to_json(self) -> dict:
        return {
            "a": [f"{x.numerator}/{x.denominator}" for x in self.a],
            "b": [f"{x.numerator}/{x.denominator}" for x in self.b],
        }


def arrow_char_poly(arrow: ArrowMatrix) -> RationalPoly:
    """Characteristic polynomial of the arrowhead form, by the spoke expansion.

    det(xI - B) = (x - a1) * x * prod_j (x + b_j)
                  - a2 * prod_j (x + b_j)
                  - sum_j a_{j+2} * x * prod_{m != j} (x + b_m)

    This is an O(n^2) closed form; tests pin it against the generic
    Faddeev-LeVerrier route.
    """
    x = RationalPoly.variable()
    linear = [RationalPoly((bj, 1)) for bj in arrow.b]
    k = len(linear)
    prefix = [RationalPoly.one()]
    for f in linear:
        prefix.append(prefix[-1] * f)
    suffix = [RationalPoly.one()]
    for f in reversed(linear):
        suffix.append(suffix[-1] * f)
    suffix.reverse()
    full = prefix[k]
    p = RationalPoly((-arrow.a[0], 1)) * x * full - full.scale(arrow.a[1])
    for j in range(k):
        partial = prefix[j] * suffix[j + 1]
        p = p - (x * partial).scale(arrow.a[j + 2])
    return p


def family_index(matrix: Sequence[Sequence]) -> int | None:
    """Index i with sgn(matrix) equal to the order-n family pattern, else None."""
    pattern = sgn_of_matrix(matrix)
    if pattern.n < 4:
        return None
    for i in (1, 2, 3):
        if pattern == family_pattern(i, pattern.n):
            return i
    return None


# -- sampling Q(P) ---------------------------------------------------------


# Magnitudes are drawn log-uniformly over this window and rounded to
# rationals with denominator at most DENOMINATOR_BOUND, so samples span
# several scales while staying inside the exact engine's domain.
MAGNITUDE_RANGE = (Fraction(1, 1000), Fraction(1000))
DENOMINATOR_BOUND = 10_000
_LOG_LO, _LOG_HI = (math.log(x) for x in MAGNITUDE_RANGE)


@dataclass(frozen=True)
class RealizationConfig:
    """Sampling policy: the RNG seed."""

    seed: int = 0


def _draw_magnitude(rng: random.Random) -> Fraction:
    lo, hi = MAGNITUDE_RANGE
    value = math.exp(_LOG_LO + rng.random() * (_LOG_HI - _LOG_LO))
    mag = Fraction(value).limit_denominator(DENOMINATOR_BOUND)
    if mag < lo:
        return lo
    if mag > hi:
        return hi
    return mag


def sample_realization(pattern: SignPattern, cfg: RealizationConfig) -> RationalMatrix:
    """One rational matrix in Q(pattern); deterministic for a fixed seed."""
    rng = random.Random(cfg.seed)
    rows = []
    for row in pattern.rows:
        out = []
        for s in row:
            if s == Sign.ZERO:
                out.append(Fraction(0))
            else:
                mag = _draw_magnitude(rng)
                out.append(mag if s == Sign.PLUS else -mag)
        rows.append(tuple(out))
    return tuple(rows)


# -- arrowhead normalization -------------------------------------------------


def to_arrow_form(matrix: Sequence[Sequence]) -> ArrowMatrix:
    """Normalize a family-class matrix onto the arrowhead form by diagonal similarity.

    The scaling diagonal is D = diag(1, B_12, ..., B_1n), whose entries are
    positive by pattern membership; conjugating by it makes the first row
    (a_1, 1, ..., 1) while fixing the diagonal and the spectrum exactly.
    Raises MembershipError when the matrix is in no family's class.
    """
    B = to_rational_matrix(matrix)
    n = len(B)
    if family_index(B) is None:
        raise MembershipError("matrix is not in the qualitative class of any family pattern")
    a = (B[0][0],) + tuple(B[0][k] * B[k][0] for k in range(1, n))
    b = tuple(-B[k][k] for k in range(2, n))
    return ArrowMatrix(a, b)


def embed_witness(base: ArrowMatrix, n: int, i: int) -> ArrowMatrix:
    """Lift a 4x4 family realization to order n by replicating the third spoke.

    The third spoke weight a_3 splits into n-3 equal parts, each against a
    diagonal -b_1; the fourth spoke and its -b_2 stay last.  The result is
    in the order-n class of the same family, and its characteristic
    polynomial is (x + b_1)^(n-4) times the base one, exactly.
    """
    if base.n != 4:
        raise ValueError(f"embedding starts from a 4x4 arrow matrix, got order {base.n}")
    if n < 5:
        raise ValueError(f"embedding target order must be >= 5, got {n}")
    if family_index(base.to_matrix()) != i:
        raise MembershipError(f"base matrix is not in the order-4 class of family {i}")
    share = base.a[2] / (n - 3)
    a = (base.a[0], base.a[1]) + (share,) * (n - 3) + (base.a[3],)
    b = (base.b[0],) * (n - 3) + (base.b[1],)
    return ArrowMatrix(a, b)


def deflate_repeated(arrow: ArrowMatrix) -> tuple[Fraction, ArrowMatrix]:
    """Extract the eigenvalue shared by a repeated diagonal parameter pair.

    For the first pair (j, k) with b_j = b_k, returns (-b_j, B1) where B1
    drops one of the two spokes and adds its weight to the other, so that
    char_poly(B) = (x + b_j) * char_poly(B1) exactly.  Raises
    DegenerateMergeError when the merged weight vanishes, since B1 would
    then leave the qualitative class the induction argument lives in.
    """
    b = arrow.b
    pair = next(
        ((j, k) for j in range(len(b)) for k in range(j + 1, len(b)) if b[j] == b[k]),
        None,
    )
    if pair is None:
        raise ValueError("deflation requires a repeated diagonal parameter")
    j, k = pair
    merged = arrow.a[j + 2] + arrow.a[k + 2]
    if merged == 0:
        raise DegenerateMergeError(
            f"spoke weights a_{j + 3} and a_{k + 3} cancel; deflated matrix would "
            "leave the qualitative class"
        )
    a = list(arrow.a)
    a[j + 2] = merged
    del a[k + 2]
    b_out = list(b)
    del b_out[k]
    return -b[j], ArrowMatrix(a, b_out)


# -- matrix JSON (exact wire format) ----------------------------------------


def matrix_to_json(matrix: Sequence[Sequence]) -> dict:
    B = to_rational_matrix(matrix)
    return {
        "n": len(B),
        "entries": [[x.numerator, x.denominator] for row in B for x in row],
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _entry_from_json(k: int, item) -> Fraction | float:
    if isinstance(item, list) and len(item) == 2 and all(map(_is_int, item)) and item[1] != 0:
        return Fraction(item[0], item[1])
    if _is_int(item) or isinstance(item, float):
        try:
            value = float(item)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise ValueError(
        f"entry {k + 1} is {item!r}, expected a [num, den] pair of integers with "
        "den != 0 or a finite number"
    )


def matrix_from_json(data) -> tuple[tuple[Fraction | float, ...], ...]:
    """Read the matrix wire format, {"n": n, "entries": [...]} with n*n row-major entries.

    An [num, den] integer pair becomes an exact Fraction; a plain finite
    number becomes a float, which only the numeric engine accepts.  Any
    other shape raises a one-line ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"matrix JSON must be an object, got {type(data).__name__}")
    n = data.get("n")
    if not _is_int(n) or n < 1:
        raise ValueError(f'"n" must be an integer >= 1, got {n!r}')
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f'"entries" must be a list, got {type(entries).__name__}')
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries for order {n}, got {len(entries)}")
    values = [_entry_from_json(k, item) for k, item in enumerate(entries)]
    return tuple(tuple(values[r * n : (r + 1) * n]) for r in range(n))
