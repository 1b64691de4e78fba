"""Rational realizations of sign patterns and the arrowhead normal form.

Covers sampling a qualitative class Q(P) with exact dyadic entries drawn
from integers alone (no floating point, so a seed fixes the samples on
every platform) by one draw generator, which feeds both the matrix sampler
and the integer arrowhead reading of a family sample; the
diagonal-similarity normalization onto the arrowhead form (unit first
row, dense first column, diagonal (a1, 0, -b1, ..., -b_{n-2})), the
witness embedding that lifts a 4x4 realization to any larger order by
replicating one spoke, the deflation step that extracts the shared
eigenvalue when two diagonal parameters coincide, and the matrix JSON
wire format with its validating reader.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .patterns import SignPattern, family_pattern, sgn_of_matrix
from .ratpoly import Rational, RationalPoly, as_ratio

RationalMatrix = tuple[tuple[Fraction, ...], ...]


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats."""
    return value if isinstance(value, Fraction) else Fraction(*as_ratio(value))


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


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, den): each value is numerators[k] / den, with den their least common denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def arrow_char_poly(arrow: ArrowMatrix) -> RationalPoly:
    """Characteristic polynomial of the arrowhead form, by the spoke expansion.

    The a_k are brought over their common denominator and each b_j is split
    into numerator and denominator for _spoke_char_poly, the one copy of
    the expansion; tests pin it against the generic Berkowitz route.
    """
    a, common = _over_common_denominator(arrow.a)
    return _spoke_char_poly(a, common, [(b.numerator, b.denominator) for b in arrow.b])


def _spoke_char_poly(a: Sequence[int], common: int, spokes: Sequence[tuple[int, int]]) -> RationalPoly:
    """det(xI - B) of the arrowhead form with a_k = a[k] / common and b_j = p_j / q_j.

    det(xI - B) = (x - a1) * x * prod_j (x + b_j)
                  - a2 * prod_j (x + b_j)
                  - sum_j a_{j+2} * x * prod_{m != j} (x + b_m)

    Each x + b_j is (q_j x + p_j) / q_j, so the spoke products are integer
    polynomials and one RationalPoly is built at the end.  The integers
    need not be in lowest terms.  This is an O(n^2) closed form.
    """
    full = [1]  # prod_j (q_j x + p_j)
    for p, q in spokes:
        full = [p * lo + q * hi for lo, hi in zip(full + [0], [0] + full)]
    # x * (common * x - a_1) * full - a_2 * full
    num = [0] + [common * hi - a[0] * lo for lo, hi in zip(full + [0], [0] + full)]
    for k, c in enumerate(full):
        num[k] -= a[1] * c
    for j, (p, q) in enumerate(spokes):
        # full / (q x + p), the product of the other spokes, by synthetic division
        rest = list(full)
        partial = [0] * (len(full) - 1)
        for k in range(len(partial) - 1, -1, -1):
            partial[k] = rest[k + 1] // q
            rest[k] -= p * partial[k]
        weight = a[j + 2] * q
        for k, c in enumerate(partial):
            num[k + 1] -= weight * c
    return RationalPoly.from_ints(num, common * full[-1])


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


_ZERO = Fraction(0)  # shared by every zero entry; Fractions are immutable


@dataclass(frozen=True)
class RealizationConfig:
    """Sampling policy: the RNG seed."""

    seed: int = 0


def _signed_draws(pattern: SignPattern, cfg: RealizationConfig) -> Iterator[tuple[int, int]]:
    """(+-m, e) for each nonzero entry of pattern, row-major: the entry is +-m / 2**e.

    This is the one place a sample is drawn.  The mantissa m comes from
    [2**12, 2**13) and then the exponent e from [3, 23): log-uniform to
    within a factor of two over [2**-10, 2**10), so samples span six
    decades, every denominator is a power of two, and the stream depends
    only on the seed and Python's integer Mersenne Twister, never on
    platform floats.  Each is drawn by the rejection loop randrange runs
    (getrandbits of the range's bit length, redrawn until it falls inside
    the range), inlined: the stream is randrange(2**12, 2**13) then
    randrange(3, 23) per entry, bit for bit, without randrange's
    argument handling.
    """
    bits = random.Random(cfg.seed).getrandbits
    for row in pattern.rows:
        for s in row:
            if s:
                m = bits(13)
                while m >= 4096:
                    m = bits(13)
                e = bits(5)
                while e >= 20:
                    e = bits(5)
                yield s * (m + 4096), e + 3


def sample_realization(pattern: SignPattern, cfg: RealizationConfig) -> RationalMatrix:
    """One rational matrix in Q(pattern); deterministic for a fixed seed."""
    entries = (Fraction(m, 1 << e) for m, e in _signed_draws(pattern, cfg))
    return tuple(tuple(next(entries) if s else _ZERO for s in row) for row in pattern.rows)


def family_sample_arrow(
    pattern: SignPattern, cfg: RealizationConfig
) -> tuple[list[int], int, list[tuple[int, int]]]:
    """The arrowhead parameters of sample_realization(pattern, cfg), as integers.

    pattern must be a family pattern; nothing is checked.  Its draws come
    row-major: the first row, then B_k1 and, from k = 3 on, B_kk.  Returns
    (a, common, spokes) with a_k = a[k] / common and b_j = p_j / q_j for
    spokes[j] = (p_j, q_j), where a_1 = B_11, a_k = B_1k * B_k1 and
    b_j = -B_{j+2,j+2}; the a_k reach their common power-of-two
    denominator by shifts, so no Fraction is built.
    """
    draws = list(_signed_draws(pattern, cfg))
    head, rest = draws[: pattern.n], draws[pattern.n :]  # rest: B_21, B_31, B_33, B_41, B_44, ...
    column, diagonal = rest[:1] + rest[1::2], rest[2::2]
    a = head[:1] + [(p * m, f + e) for (p, f), (m, e) in zip(head[1:], column)]
    top = max(e for _, e in a)
    return [p << (top - e) for p, e in a], 1 << top, [(-m, 1 << e) for m, e in diagonal]


def family_sample_char_poly(pattern: SignPattern, cfg: RealizationConfig) -> RationalPoly:
    """arrow_char_poly of the arrow form of sample_realization(pattern, cfg), from integers alone.

    pattern must be a family pattern; nothing is checked.  The falsifier's
    draw for a family pattern: family_sample_arrow's integers go straight
    into the spoke expansion.
    """
    return _spoke_char_poly(*family_sample_arrow(pattern, cfg))


# -- arrowhead normalization -------------------------------------------------


def to_arrow_form(matrix: Sequence[Sequence]) -> ArrowMatrix:
    """Normalize a family-class matrix onto the arrowhead form by diagonal similarity.

    The scaling diagonal is D = diag(1, B_12, ..., B_1n), whose entries are
    positive by pattern membership; conjugating by it makes the first row
    (a_1, 1, ..., 1) while fixing the diagonal and the spectrum exactly.
    Raises MembershipError when the matrix is in no family's class.
    """
    B = to_rational_matrix(matrix)
    if family_index(B) is None:
        raise MembershipError("matrix is not in the qualitative class of any family pattern")
    a = (B[0][0],) + tuple(B[0][k] * B[k][0] for k in range(1, len(B)))
    return ArrowMatrix(a, [-B[k][k] for k in range(2, len(B))])


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
        raise MembershipError(
            f"base matrix is not in the order-4 class of family {i}; "
            f"arrow {json.dumps(base.to_json())}"
        )
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
