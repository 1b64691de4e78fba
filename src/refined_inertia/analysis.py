"""Witness suites, Monte-Carlo falsification, and lemma-level validators.

This is the layer that turns the engine into verdicts about the three
arrowhead families: certified witnesses showing every target inertia is
realized ("allows"), seeded sampling hunting for a certified inertia
outside the target set ("requires" falsification), and exact checks of the
identities the distinct-parameter analysis rests on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .engine import (
    InternalCheckError,
    RefinedInertia,
    _char_poly_ints,
    _inertia_counts,
    _inertia_counts_many,
    _shift_det,
    refined_inertia_exact,
)
from .patterns import SignPattern, _family_signs, family_pattern
from .ratpoly import _lowest, _shifted
from .realization import (
    ArrowMatrix,
    MembershipError,
    RationalMatrix,
    RealizationConfig,
    _arrow_in_family,
    _arrow_rows,
    _draw_rows,
    _family_draw,
    _family_draw_signs,
    _redraw_tied_diagonal,
    _signed_draws,
    _signs,
    _spoke_char_poly,
    _spoke_expansions,
    arrow_char_poly,
    embed_witness,
    family_index,
    matrix_to_json,
    rational_rows,
    sample_realization,
)


class WitnessCertificationError(RuntimeError):
    """A witness is outside its class, or the suite's certified inertias are not the target set."""


def hn_set(n: int) -> frozenset[RefinedInertia]:
    """Target set {(0,n,0,0), (0,n-2,0,2), (2,n-2,0,0)}; defined for n >= 3."""
    if n < 3:
        raise ValueError(f"the target inertia set needs order >= 3, got {n}")
    return frozenset(
        (
            RefinedInertia(0, n, 0, 0),
            RefinedInertia(0, n - 2, 0, 2),
            RefinedInertia(2, n - 2, 0, 0),
        )
    )


# -- witnesses -----------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSuite:
    """One certified realization per target inertia for a single pattern."""

    pattern: SignPattern
    witnesses: tuple[tuple[RefinedInertia, ArrowMatrix], ...]

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern.to_json(),
            "order": self.pattern.n,
            "witnesses": [
                {
                    "inertia": ri._asdict(),
                    "arrow": arrow.to_json(),
                    "matrix": matrix_to_json(arrow.to_matrix()),
                }
                for ri, arrow in self.witnesses
            ],
        }


# Per family, the Hopf arrow's diagonal parameters (b_1, b_2) and spoke
# weights (a_3, a_4); _hopf_bases solves p(i) = 0 for a_1 and a_2.
_HOPF = {1: ((1, 2), (-1, -1)), 2: ((1, 2), (1, 1)), 3: ((1, -1), (1, -6))}


def _hopf_bases(i: int) -> tuple[ArrowMatrix, ...]:
    """Family i's 4x4 Hopf arrow, then the same arrow with a_1 - 1/10 and a_1 + 1/10.

    Over x(x + b_1)(x + b_2), p(x) = det(xI - B) is
    x - a_1 - a_2/x - sum_j a_{j+2}/(x + b_j), affine in each a_k.  So
    p(i) = 0, the onset of a Hopf bifurcation at frequency 1, has one
    rational solution, from its real and imaginary parts:
    a_1 = -sum_j a_{j+2} b_j / (b_j^2 + 1) and
    a_2 = -1 - sum_j a_{j+2} / (b_j^2 + 1).
    """
    b, spokes = _HOPF[i]
    a1 = -sum(Fraction(w * c, c * c + 1) for w, c in zip(spokes, b))
    a2 = -1 - sum(Fraction(w, c * c + 1) for w, c in zip(spokes, b))
    steps = (0, Fraction(-1, 10), Fraction(1, 10))
    return tuple(ArrowMatrix((a1 + step, a2, *spokes), b) for step in steps)


def witness_suite(i: int, n: int) -> WitnessSuite:
    """Certified witnesses for all three target inertias at order n >= 4.

    The bases are family i's 4x4 Hopf arrow, whose characteristic
    polynomial vanishes at x = i, and the same arrow with a_1 moved 1/10
    either way, which moves that pair into one open half-plane or the
    other (_hopf_bases).  For n >= 5 each is lifted by the spoke-replication
    embedding, whose characteristic polynomial is (x + b_1)^(n-4) times
    the base one, with b_1 > 0.  Each witness is certified once, exactly,
    at order n, and keyed by its certified inertia.  A base outside the
    class, or three inertias that are not hn_set(n), raise
    WitnessCertificationError naming the family, the order and a base
    arrow; family_pattern checks i and n.
    """
    pattern = family_pattern(i, n)
    bases = _hopf_bases(i)
    entries = []
    for base in bases:
        if not base.in_family(i):
            raise WitnessCertificationError(
                f"witness for family {i}, order {n} is outside the qualitative class; "
                f"arrow {json.dumps(base.to_json())}"
            )
        arrow = embed_witness(base, n, i) if n > 4 else base
        entries.append((refined_inertia_exact(arrow_char_poly(arrow)), arrow))
    entries.sort(key=lambda pair: pair[0])
    inertias = [ri for ri, _ in entries]
    if inertias != sorted(hn_set(n)):
        raise WitnessCertificationError(
            f"witnesses for family {i}, order {n} certify {', '.join(map(str, inertias))}, "
            f"not the target set; Hopf arrow {json.dumps(bases[0].to_json())}"
        )
    return WitnessSuite(pattern, tuple(entries))


# -- falsification ------------------------------------------------------------


class Verdict(str, Enum):
    CONSISTENT = "ConsistentWithRequires"
    COUNTEREXAMPLE = "CounterexampleFound"


@dataclass(frozen=True)
class AnalysisReport:
    """Histogram of observed refined inertias over seeded samples, plus verdict."""

    pattern: SignPattern
    samples: int
    histogram: tuple[tuple[RefinedInertia, int], ...]
    verdict: Verdict
    counterexample: RationalMatrix | None
    seed: int

    def __post_init__(self):
        if sum(count for _, count in self.histogram) != self.samples:
            raise ValueError("histogram counts must sum to the sample count")
        if self.pattern.n >= 3:
            hn = hn_set(self.pattern.n)
            outside = any(ri not in hn for ri, _ in self.histogram)
            found = self.verdict is Verdict.COUNTEREXAMPLE
            if outside != found or found != (self.counterexample is not None):
                raise ValueError("verdict, counterexample and histogram disagree")

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern.to_json(),
            "samples": self.samples,
            "histogram": [
                {"inertia": ri._asdict(), "count": count} for ri, count in self.histogram
            ],
            "verdict": self.verdict.value,
            "counterexample": (
                matrix_to_json(self.counterexample) if self.counterexample is not None else None
            ),
            "seed": self.seed,
        }

    def histogram_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["n_plus", "n_minus", "n_zero", "two_n_p", "count"])
        for ri, count in self.histogram:
            writer.writerow([*ri, count])
        return buffer.getvalue()


_CANONICAL = {"sort_keys": True, "indent": 2}  # the canonical layout: sorted keys, two-space indent


def canonical_dumps(data) -> str:
    """Canonical JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(data, **_CANONICAL) + "\n"


def canonical_dump(data, fp) -> None:
    """Write canonical_dumps(data) to the text file fp as it is encoded, without building it whole.

    The encoder's pieces, often one character each, are joined 2**16 at a
    time, so fp sees one write per block.
    """
    pieces = json.JSONEncoder(**_CANONICAL).iterencode(data)
    while block := "".join(itertools.islice(pieces, 1 << 16)):
        fp.write(block)
    fp.write("\n")


_SPLITMIX_MULT = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1


def _sample_seed(base: int, index: int) -> int:
    """Per-sample seed derivation; fixed formula so reports never depend on job count."""
    z = (base * _SPLITMIX_MULT + (index + 1) * _SPLITMIX_MIX) & _MASK64
    z = ((z ^ (z >> 30)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# Falsifier samples classified together: a chunk draws up to BLOCK of them,
# then builds and counts their polynomials in lockstep.  Over 512-sample
# chunks of families 1-3 at orders 4..10, the time per sample falls until
# about 64 and is flat from there to 512; 128 sits on that plateau and
# bounds what a long chunk holds at once.
BLOCK = 128


def _exact_inertia(block: Sequence[Sequence[int]]) -> list[tuple[int, int, int, int]]:
    """Inertia counts of a block of falsifier samples, as 4-tuples in block order.

    Each entry holds the integer coefficients, low to high, of a
    polynomial whose roots are a positive multiple of a sample's
    eigenvalues, which keeps every count.  This is how the falsifier
    classifies every sample, family or generic: _falsify_chunk builds the
    block from the samples' integer draws, with no RationalPoly built.
    The chains run in lockstep (engine._inertia_counts_many) and give
    engine._inertia_counts' counts, exactly.  An internal-check failure
    names the polynomial over 1, which reproduces it through
    refined_inertia_exact.
    """
    return _inertia_counts_many(block)


def _falsify_chunk(task) -> dict[tuple[int, int, int, int], list[int]]:
    """{counts: [samples, first index]} over samples start..start+count-1 of a falsifier task.

    The task is (n, seed, start, count, (pattern, family)), family being
    family_index(pattern.rows), which falsify_each reads once.  The
    pattern's nonzero signs are read, and one generator made, once per
    call; each sample reseeds that generator with its own seed and draws
    from it (realization._signed_draws), so chunks that run at the same
    time never share one, and the stream is the one a sample drawn alone
    reads.  The samples go in blocks of up to BLOCK, in index order: each
    block's integer draws become the integer coefficients of polynomials
    with their eigenvalues' refined inertia, and _exact_inertia counts
    them; each sample's four counts, a plain 4-tuple, key the result.  The
    chunk never reads the target set: _falsify_report does.  For a family
    pattern, the draws are read as the arrows' integers
    (realization._family_draw) and the polynomials are the spoke
    expansions' G(y), whose roots are b_den > 0 times the eigenvalues,
    built for the block in lockstep (realization._spoke_expansions).
    Otherwise each sample's draws are laid out as integer rows A over
    common (realization._draw_rows) and its polynomial is det(yI - A) from
    Berkowitz (_char_poly_ints with common 1), whose roots are common > 0
    times the eigenvalues.  Neither route builds an ArrowMatrix,
    RationalPoly or RefinedInertia, and no sample becomes a Fraction.  The
    lockstep routines compute the integers the one-sample routines do, so
    the result does not depend on BLOCK.
    """
    _, seed, start, count, (pattern, family) = task
    signs, rng = _signs(pattern), random.Random(seed)  # seeded to skip an OS entropy read
    found: dict[tuple[int, int, int, int], list[int]] = {}
    for first in range(start, start + count, BLOCK):
        drawn = []
        for k in range(first, min(first + BLOCK, start + count)):
            rng.seed(_sample_seed(seed, k))
            drawn.append(_signed_draws(signs, rng))
        if family is not None:
            block = _spoke_expansions([_family_draw(draws) for draws in drawn])
        else:
            block = [_char_poly_ints(_draw_rows(pattern, draws)[0], 1)[0] for draws in drawn]
        for k, counts in enumerate(_exact_inertia(block), first):
            if counts in found:
                found[counts][0] += 1
            else:
                found[counts] = [1, k]
    return found


def _shrink_counterexample(matrix: RationalMatrix, members) -> RationalMatrix:
    """Pull entries toward +-1 by bisection while the certified verdict holds.

    Every move keeps each entry's sign, so every candidate stays in the
    qualitative class of matrix.  Each candidate is classified as a matrix,
    whatever its pattern, one at a time (engine._inertia_counts, since the
    next candidate depends on this one's verdict): Berkowitz's integers
    for det(xI - B), read by rational_rows and rescaled by _char_poly_ints
    but not reduced, so -num[-2] / num[-1] is the candidate's trace.  It
    is outside while its counts are not in members.
    """

    def still_outside(rows) -> bool:
        return _inertia_counts(_char_poly_ints(*rational_rows(rows))[0]) not in members

    work = [list(row) for row in matrix]
    n = len(work)
    for _ in range(2):
        changed = False
        for r in range(n):
            for c in range(n):
                x = work[r][c]
                if x == 0:
                    continue
                target = Fraction(1 if x > 0 else -1)
                if x == target:
                    continue
                work[r][c] = target
                if still_outside(work):
                    changed = True
                    continue
                current = x
                for _ in range(6):
                    midpoint = (current + target) / 2
                    work[r][c] = midpoint
                    if still_outside(work):
                        current = midpoint
                        changed = True
                    else:
                        break
                simplified = current.limit_denominator(1000)
                if simplified != 0 and (simplified > 0) == (current > 0):
                    work[r][c] = simplified
                    if still_outside(work):
                        current = simplified
                work[r][c] = current
        if not changed:
            break
    return tuple(tuple(row) for row in work)


def _tasks(n: int, seed: int, total: int, jobs: int, arg) -> list[tuple]:
    """(n, seed, start, count, arg) for jobs contiguous runs that cover the sample indices 0..total-1 in order.

    This is the one task layout of _falsify_chunk and _lemma_chunk: run w
    is sampled by process w, this one being process 0, and jobs is clamped
    to [1, min(total, CPU count)], the processes that share the samples.
    A task is plain data, which pickles for a worker started by spawn or
    forkserver; arg is what the chunk needs beyond the order and the seed.
    """
    jobs = max(1, min(jobs, total, os.cpu_count() or 1))
    bounds = [total * w // jobs for w in range(jobs + 1)]
    return [(n, seed, bounds[w], bounds[w + 1] - bounds[w], arg) for w in range(jobs)]


def _falsify_report(
    pattern: SignPattern, budget: int, cfg: RealizationConfig, results: list[dict]
) -> AnalysisReport:
    """Merge one request's chunks, shrink its first outside sample, pick the verdict.

    This is where the falsifier reads hn_set(pattern.n).  The histogram
    sums each chunk's sample counts; the sample shrunk is the smallest
    first index among the counts outside the target set, over every chunk,
    so it does not depend on how the samples were split.
    """
    histogram: Counter = Counter()
    for found in results:
        for counts, (samples, _) in found.items():
            histogram[counts] += samples
    members = hn_set(pattern.n)
    outside = [first for found in results for counts, (_, first) in found.items() if counts not in members]

    counterexample = None
    if outside:
        sample_cfg = RealizationConfig(seed=_sample_seed(cfg.seed, min(outside)))
        counterexample = _shrink_counterexample(sample_realization(pattern, sample_cfg), members)
    return AnalysisReport(
        pattern=pattern,
        samples=budget,
        histogram=tuple((RefinedInertia(*counts), count) for counts, count in sorted(histogram.items())),
        verdict=Verdict.COUNTEREXAMPLE if outside else Verdict.CONSISTENT,
        counterexample=counterexample,
        seed=cfg.seed,
    )


class WorkerError(RuntimeError):
    """A sampling process died before sending a result, or raised what does not survive pickling."""


def _send_chunks(conn, chunk, tasks: list[tuple]) -> None:
    """Body of a sampling process: send chunk(task) for each task through conn, in order.

    An exception stops the process and is sent in place of the result, or,
    if it does not survive pickling, a WorkerError with its type name and
    message.  Nothing is printed: a reader that is gone leaves nothing to
    report to.
    """
    from multiprocessing.reduction import ForkingPickler

    try:
        for task in tasks:
            conn.send(chunk(task))
    except Exception as exc:
        try:
            payload = ForkingPickler.dumps(exc)
            ForkingPickler.loads(payload)
        except Exception:
            payload = ForkingPickler.dumps(WorkerError(f"{type(exc).__name__}: {exc}"))
        with contextlib.suppress(OSError):
            conn.send_bytes(payload)


def _run_chunks(chunk, task_lists: list[list[tuple]]) -> Iterator[list]:
    """Yield [chunk(tasks[i]) for tasks in task_lists] for i = 0, 1, ... in order.

    chunk is _falsify_chunk or _lemma_chunk, and every task is
    (n, seed, start, count, arg), as _tasks lays it out.  task_lists[0]
    runs here, each task when its step is asked for; each further list
    runs in a multiprocessing.Process started here, which sends every
    result, or the exception that stopped it, back through one one-way
    Pipe.  Step i raises the first exception among its chunks, in list
    order, or WorkerError, naming the samples and order of the task it
    owed, if a worker died before sending.  However the generator ends,
    every worker is joined, and one that still owes a result is killed
    first.  multiprocessing.Process is looked up at call time, so a test
    can swap in a thread-backed stand-in; multiprocessing is imported only
    when there is a worker to start.
    """
    workers = []  # [process, reader, results it still owes]
    try:
        if len(task_lists) > 1:
            import multiprocessing
        for tasks in task_lists[1:]:
            reader, writer = multiprocessing.Pipe(duplex=False)
            try:
                process = multiprocessing.Process(target=_send_chunks, args=(writer, chunk, tasks), daemon=True)
                process.start()
            finally:
                writer.close()  # the worker holds its own end, so its exit reads as EOF here
            workers.append([process, reader, len(tasks)])
        for i, task in enumerate(task_lists[0]):
            results = [chunk(task)]
            for w, worker in enumerate(workers, 1):
                process, reader, _ = worker
                try:
                    result = reader.recv()
                except EOFError:
                    process.join()
                    order, _, start, count, _ = task_lists[w][i]
                    raise WorkerError(
                        f"a sampling process exited with code {process.exitcode} before it sent "
                        f"samples {start}..{start + count - 1} of order {order}"
                    ) from None
                if isinstance(result, BaseException):
                    worker[2] = 0  # the worker stopped at it
                    raise result
                worker[2] -= 1
                results.append(result)
            yield results
    finally:
        for process, reader, owed in workers:
            if owed:
                process.kill()
            process.join()
            reader.close()


def falsify_each(
    requests: Iterable[tuple[SignPattern, RealizationConfig]], budget: int, jobs: int = 1
) -> Iterator[AnalysisReport]:
    """Yield falsify_requires(pattern, budget, cfg, jobs) for each (pattern, cfg), in order.

    jobs counts the processes that sample, this one included, and _tasks
    clamps it to [1, min(budget, CPU count)].  Every request is planned at
    the first report, its order checked (hn_set) before the budget, into
    jobs _falsify_chunk tasks.  Every sample has the sign pattern it was
    drawn from, so the pattern is classified once, here, and each task
    carries the answer, its family index or None, with the pattern; the
    chunk reads it to pick the spoke route or the integer-row route.  Both
    read the one draw stream of realization._signed_draws, so the matrix
    that _falsify_report rebuilds for an outside sample is the sample that
    was counted.  jobs - 1 workers (_run_chunks, which imports
    multiprocessing only for them) start then and sample their chunk of
    every request in order, while this process samples chunk 0 of each
    request when its report is asked for, so the caller can work on
    report k while the workers run ahead.  A fault in any chunk is raised
    at its request's report, with its own type and message, and a worker
    that dies first raises WorkerError there.  No worker outlives the
    generator: closing it early kills the workers that still have work,
    so a caller that may stop early closes it.
    """
    planned = []
    for pattern, cfg in requests:
        hn_set(pattern.n)  # checks the order before the budget
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        arg = (pattern, family_index(pattern.rows))
        planned.append((pattern, cfg, _tasks(pattern.n, cfg.seed, budget, jobs, arg)))
    runs = zip(*(tasks for _, _, tasks in planned))  # run w of every request, in request order
    chunks = _run_chunks(_falsify_chunk, [list(run) for run in runs])
    try:
        for (pattern, cfg, _), results in zip(planned, chunks):
            yield _falsify_report(pattern, budget, cfg, results)
    finally:
        chunks.close()


def falsify_requires(
    pattern: SignPattern,
    budget: int,
    cfg: RealizationConfig,
    jobs: int = 1,
) -> AnalysisReport:
    """Sample Q(pattern) and hunt for a certified inertia outside the target set.

    Every sample is classified by the exact engine, so every histogram
    entry, and every outside verdict, is certified.  The samples are split
    into one chunk per sampling process, this one included (jobs, which
    _tasks clamps), and each chunk reports, for each counts it saw, how
    many samples had them and the first that did; _falsify_report takes
    the smallest such index outside the target set, and that one sample
    is rebuilt as a matrix by sample_realization and shrunk as a matrix.
    The report is a pure function of (pattern, budget, seed), independent
    of the job count.  A worker that dies raises WorkerError.  This is
    falsify_each's one-request case.
    """
    [report] = falsify_each([(pattern, cfg)], budget, jobs)
    return report


# -- lemma validators ----------------------------------------------------------

_LEMMA_CHECKS = ("L-det", "L-sign", "L-excl", "L-low", "L-par", "L-delta", "L-k")


@dataclass
class LemmaCheck:
    check: str
    status: str  # "pass" or "fail"
    details: dict

    @property
    def failed(self) -> bool:
        return self.status == "fail"


class _LemmaRecord(NamedTuple):
    """What _lemma_checks computed for one arrow, as integers; validate_lemmas reads the details off it."""

    p_num: list[int]  # p = det(xI - B) = sum(p_num[k] * x**k) / p_den, in lowest terms
    p_den: int
    dets: list[tuple[int, int]]  # det(b_j I + B) as (value, scale), j = 1, 2, ..., as far as L-det certified
    inertia: tuple[int, int, int, int]  # the counts of p
    pairs: list[tuple[int, int]]  # (n_minus, Delta_j) of the spectrum shifted by b_j, j = 1..n-3
    error: str | None  # why L-det failed


def _sorted_descending(a: Sequence, b: Sequence) -> tuple[list, list]:
    """The arrow parameters of a permutation-similar matrix whose b descend, as the identities assume."""
    order = sorted(range(len(b)), key=b.__getitem__, reverse=True)
    return list(a[:2]) + [a[k + 2] for k in order], [b[k] for k in order]


def _lemma_targets(i: int, n: int) -> tuple[list[int], int]:
    """L-sign's table, the sign of det(b_j I + B) for j = 1, 2, ..., and L-low's bound on n_minus."""
    top = n - 2 if i in (1, 2) else n - 3
    table = [(-1) ** (j + 1) if i == 1 else (-1) ** j for j in range(1, top + 1)]
    return table, (n - 3 if i != 3 else n - 4)


def _lemma_checks(
    a: Sequence[int], a_den: int, b: Sequence[int], b_den: int, i: int
) -> tuple[tuple[bool, ...], _LemmaRecord]:
    """Whether each of _LEMMA_CHECKS holds for the arrow a / a_den, b / b_den of family i, and what was read.

    Membership in family i's class is read from the signs of the
    parameters (realization._arrow_in_family).  The matrix is then permuted
    so the diagonal parameters descend, which is the normalization the sign
    table assumes.  Its characteristic polynomial p comes once from
    Berkowitz's recurrence on the arrow's integer rows, with rows and
    columns reversed so the dense hub comes last: every leading block is
    then diagonal with a zero border column, so each step but the hub's is
    one O(k) multiplication, and the hub's reads power sums over that
    diagonal (both permutations are similarities, which keep p).  L-det
    requires p to equal the spoke expansion (realization._spoke_char_poly)
    and to give every closed-form shift determinant (engine._shift_det);
    L-sign and L-excl read those certified values.  L-delta: for
    j <= n - 3, Delta_j, the number of eigenvalues with Re <= -b_j, has
    the table's parity, and (-1)^Delta_j is the sign of L-det's
    det(b_j I + B) = prod (lambda + b_j), since each non-real pair
    contributes |lambda + b_j|^2 > 0.  Delta_j is counted on the integer
    Taylor shift of p whose roots are those of p(x - b_j) times the reduced
    denominator of b_j, which moves no root across the axis.  A value
    L-det could not certify is missing, and the checks that read it fail.
    Every step runs on integers; an ArrowMatrix is built only to name the
    arrow in L-det's error text.  Raises ValueError when a diagonal
    parameter repeats (the identities assume distinct ones; see
    deflate_repeated for that case) or i is not a family index, and
    MembershipError if the arrow is not in the family's qualitative class.
    """
    if not _arrow_in_family(a, b, i):
        raise MembershipError(f"arrow matrix is not in the qualitative class of family {i}")
    if len(set(b)) != len(b):
        raise ValueError("lemma checks require distinct b values")
    n = len(a)
    a, b = _sorted_descending(a, b)
    rows, scale = _arrow_rows(a, a_den, b, b_den)
    p_num, p_den = _lowest(*_char_poly_ints([row[::-1] for row in reversed(rows)], scale))
    inertia = _inertia_counts(p_num, p_den)
    _, n_minus, n_zero, _ = inertia

    dets: list[tuple[int, int]] = []
    error = None
    try:
        if _lowest(*_spoke_char_poly(a, a_den, b, b_den)) != (p_num, p_den):
            arrow = ArrowMatrix.from_ints(a, a_den, b, b_den)
            raise InternalCheckError(
                "spoke expansion differs from the Berkowitz characteristic polynomial; "
                f"arrow {json.dumps(arrow.to_json())}"
            )
        for j in range(1, n - 1):
            dets.append(_shift_det(a, a_den, b, b_den, j, p_num, p_den))
    except InternalCheckError as exc:
        error = str(exc)
    signs = [(v > 0) - (v < 0) for v, _ in dets]
    table, bound = _lemma_targets(i, n)

    pairs = []
    for bj in b[: n - 3]:
        g = gcd(bj, b_den)
        _, minus, zero, two_n_p = _inertia_counts(_shifted(p_num, -bj // g, b_den // g))
        pairs.append((minus, minus + zero + two_n_p))

    passed = (
        error is None,  # L-det
        signs[: len(table)] == table,  # L-sign: the alternating sign table
        len(dets) == n - 2 and all(v for v, _ in dets),  # L-excl: no -b_j is an eigenvalue
        n_minus >= bound,  # L-low
        # L-par: (-1)^n det(B) = p(0) > 0, no zero eigenvalue, and n_minus has n's parity
        p_num[0] > 0 and n_zero == 0 and (n - n_minus) % 2 == 0,
        signs[: n - 3] == table[: n - 3] == [(-1) ** delta for _, delta in pairs],  # L-delta
        n_minus >= n - 2,  # L-k
    )
    return passed, _LemmaRecord(p_num, p_den, dets, inertia, pairs, error)


def validate_lemmas(arrow: ArrowMatrix, i: int) -> list[LemmaCheck]:
    """Run the exact identity checks behind the distinct-parameter analysis on arrow.

    The checks and their argument are _lemma_checks'; each result carries
    its computed quantities, as Fractions and ints, in its details.  Raises
    as _lemma_checks does, and never on a mere check failure.
    """
    passed, record = _lemma_checks(arrow.a_num, arrow.a_den, arrow.b_num, arrow.b_den, i)
    n = arrow.n
    table, bound = _lemma_targets(i, n)
    dets = {j: Fraction(*det) for j, det in enumerate(record.dets, start=1)}
    _, n_minus, n_zero, _ = record.inertia
    det_details: dict = {"det_values": dets}
    if record.error is not None:
        det_details["error"] = record.error
    details = (
        det_details,
        {
            "expected": dict(enumerate(table, start=1)),
            "actual": {j: (v > 0) - (v < 0) for j, v in dets.items() if j <= len(table)},
        },
        {"char_poly_values": {j: (-1) ** n * v for j, v in dets.items()}},
        {"n_minus": n_minus, "bound": bound},
        {"det": (-1) ** n * Fraction(record.p_num[0], record.p_den), "n_zero": n_zero, "n_minus": n_minus},
        {"pairs": dict(enumerate(record.pairs, start=1))},
        {"n_minus": n_minus, "bound": n - 2},
    )
    return [
        LemmaCheck(check, "pass" if ok else "fail", detail)
        for check, ok, detail in zip(_LEMMA_CHECKS, passed, details)
    ]


@dataclass(frozen=True)
class LemmaSuiteReport:
    family: int
    order: int
    samples: int
    failures: tuple[tuple[int, str], ...]  # (sample index, check id)
    check_counts: tuple[tuple[str, int], ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def _lemma_chunk(task) -> tuple[list[tuple[int, str]], dict]:
    """Failures (k, check), in k order, and counts by (check, passed) of lemma samples start..start+count-1.

    The task is (n, seed, start, count, i), plain ints, laid out by
    _tasks.  The family pattern's signs are read in O(n), with no n x n
    pattern built (realization._family_draw_signs), and one generator
    made, once per call; sample k reseeds it with _sample_seed(seed, k), draws
    (realization._signed_draws), redraws a tied b_j
    (realization._redraw_tied_diagonal) and goes to _lemma_checks as the
    arrow's integers (realization._family_draw).
    """
    n, seed, start, count, i = task
    signs, rng = _family_draw_signs(i, n), random.Random(seed)  # seeded to skip an OS entropy read
    failures: list[tuple[int, str]] = []
    counts: Counter = Counter()
    for k in range(start, start + count):
        rng.seed(_sample_seed(seed, k))
        draws = _signed_draws(signs, rng)
        _redraw_tied_diagonal(draws, rng)
        passed, _ = _lemma_checks(*_family_draw(draws), i)
        for check, ok in zip(_LEMMA_CHECKS, passed):
            counts[check, ok] += 1
            if not ok:
                failures.append((k, check))
    return failures, dict(counts)


def run_lemma_suite(
    i: int, n: int, samples: int, cfg: RealizationConfig, jobs: int = 1
) -> LemmaSuiteReport:
    """Validate the lemma checks over seeded samples with distinct b.

    Sample k is _sample_seed(cfg.seed, k)'s draw (realization._signed_draws),
    and a b_j that repeats an earlier one, which the checks reject, is drawn
    again from the same stream until it is new
    (realization._redraw_tied_diagonal).  So sample k depends on k alone,
    and a tie-free sample is its plain draw.  The law is whole-sample
    rejection's: the 4096 * 20 grid pairs (m, e) are equally likely, so
    redrawing each tied b_j in turn gives the uniform law over ordered
    tuples of distinct b (for any order up to 81 922), independent of the
    a_k.  The samples are split by _tasks into contiguous runs of k, one
    per process, this one first (jobs, clamped to [1, min(samples, CPU
    count)]); each run is a _lemma_chunk task whose arg is i, and the
    failures are merged in k order and the counts summed, so the report
    does not depend on jobs.  A worker that dies raises WorkerError.
    Raises ValueError, before any draw, for a negative sample count or an
    invalid family or order.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    _family_signs(i, n)  # checks i and n before a worker starts
    [results] = _run_chunks(_lemma_chunk, [[task] for task in _tasks(n, cfg.seed, samples, jobs, i)])
    failures: list[tuple[int, str]] = []
    counts: Counter = Counter()
    for chunk_failures, chunk_counts in results:
        failures += chunk_failures
        counts.update(chunk_counts)
    summary = tuple(sorted((f"{check}:{'pass' if ok else 'fail'}", cnt) for (check, ok), cnt in counts.items()))
    return LemmaSuiteReport(i, n, samples, tuple(failures), summary)
