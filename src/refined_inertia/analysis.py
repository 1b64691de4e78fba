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
import json
import os
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .engine import (
    InternalCheckError,
    RefinedInertia,
    _inertia_counts,
    _integer_char_poly,
    _shifted_inertia,
    arrow_shift_det,
    char_poly,
    refined_inertia_exact,
)
from .patterns import SignPattern, family_pattern
from .realization import (
    ArrowMatrix,
    MembershipError,
    RationalMatrix,
    RealizationConfig,
    _draw_rows,
    _family_draw,
    _redraw_tied_diagonal,
    _signed_draws,
    _signs,
    _spoke_expansion,
    arrow_char_poly,
    embed_witness,
    family_index,
    matrix_to_json,
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


def canonical_dumps(data) -> str:
    """Canonical JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


_SPLITMIX_MULT = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1


def _sample_seed(base: int, index: int) -> int:
    """Per-sample seed derivation; fixed formula so reports never depend on job count."""
    z = (base * _SPLITMIX_MULT + (index + 1) * _SPLITMIX_MIX) & _MASK64
    z = ((z ^ (z >> 30)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _exact_inertia(num: Sequence[int]) -> tuple[int, int, int, int]:
    """Inertia counts of a falsifier sample or shrink candidate, as a 4-tuple.

    num holds the integer coefficients, low to high, of a polynomial whose
    roots are a positive multiple of the eigenvalues, which keeps every
    count.  This is how the falsifier classifies every one: _falsify_chunk
    builds a sample's from its integer draws, and _shrink_counterexample a
    candidate's by char_poly.  An internal-check failure names num over 1,
    a polynomial that reproduces it through refined_inertia_exact.
    """
    return _inertia_counts(num)


def _falsify_chunk(args) -> tuple[dict, int | None]:
    """Histogram of samples start..start+count-1 and the index of the first outside one.

    The pattern's nonzero signs are read, and one generator made, once per
    call; each sample reseeds that generator with its own seed and draws
    from it (realization._signed_draws), so chunks that run at the same
    time never share one.  Each sample goes from its integer draws to the
    integer coefficients of a polynomial with its eigenvalues' refined
    inertia and on to its four counts, a plain 4-tuple, which keys the
    histogram and is looked up in the task's members.  When the task's
    family flag is set, the draws are read as the arrow's integers
    (realization._family_draw) and the polynomial is the spoke expansion's
    G(y), whose roots are b_den > 0 times the eigenvalues
    (realization._spoke_expansion); no ArrowMatrix, RationalPoly or
    RefinedInertia is built.  Otherwise Berkowitz runs on the draws laid
    out as integer rows (realization._draw_rows).  No sample becomes a
    Fraction.
    """
    pattern, family, seed, start, count, members = args
    signs, rng = _signs(pattern), random.Random(seed)  # seeded to skip an OS entropy read
    histogram: Counter = Counter()
    first_outside: int | None = None
    for k in range(start, start + count):
        rng.seed(_sample_seed(seed, k))
        draws = _signed_draws(signs, rng)
        if family:
            num = _spoke_expansion(*_family_draw(draws))
        else:
            num = _integer_char_poly(*_draw_rows(pattern, draws)).num
        counts = _exact_inertia(num)
        if counts not in members and first_outside is None:
            first_outside = k
        histogram[counts] += 1
    return dict(histogram), first_outside


def _shrink_counterexample(matrix: RationalMatrix, members) -> RationalMatrix:
    """Pull entries toward +-1 by bisection while the certified verdict holds.

    Every move keeps each entry's sign, so every candidate stays in the
    qualitative class of matrix.  Each candidate is classified as a matrix,
    through char_poly, whatever its pattern, and is outside while its
    counts are not in members.
    """

    def still_outside(rows) -> bool:
        return _exact_inertia(char_poly(rows).num) not in members

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


def _falsify_tasks(
    pattern: SignPattern, budget: int, cfg: RealizationConfig, jobs: int
) -> list[tuple]:
    """One request's _falsify_chunk tasks: jobs contiguous runs of the sample indices.

    falsify_each samples run w in process w, this one being process 0.
    Every sample has the sign pattern it was drawn from, so the pattern is
    classified once, here, and each task carries the answer as a flag:
    (pattern, family, seed, start, count, members), data that pickles for a
    worker started by spawn or forkserver; members is hn_set(pattern.n).
    _falsify_chunk reads the flag to pick the family pattern's spoke route
    or the integer-row route; both read the one draw stream of
    realization._signed_draws, so the matrix that _falsify_report rebuilds
    for an outside sample is the sample that was classified.
    """
    members = hn_set(pattern.n)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    family = family_index(pattern.rows) is not None
    bounds = [budget * w // jobs for w in range(jobs + 1)]
    return [(pattern, family, cfg.seed, bounds[w], bounds[w + 1] - bounds[w], members) for w in range(jobs)]


def _falsify_report(
    pattern: SignPattern, budget: int, cfg: RealizationConfig, results: list[tuple[dict, int | None]]
) -> AnalysisReport:
    """Merge one request's chunk results, shrink its first outside sample, pick the verdict."""
    histogram: Counter = Counter()
    for hist, _ in results:
        histogram.update(hist)
    outside = [k for _, k in results if k is not None]

    counterexample = None
    if outside:
        sample_cfg = RealizationConfig(seed=_sample_seed(cfg.seed, min(outside)))
        counterexample = _shrink_counterexample(sample_realization(pattern, sample_cfg), hn_set(pattern.n))
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


def _send_chunks(conn, tasks: list[tuple]) -> None:
    """Body of a sampling process: send each task's chunk result through conn, in order.

    An exception stops the process and is sent in place of the result, or,
    if it does not survive pickling, a WorkerError with its type name and
    message.  Nothing is printed: a reader that is gone leaves nothing to
    report to.
    """
    from multiprocessing.reduction import ForkingPickler

    try:
        for task in tasks:
            conn.send(_falsify_chunk(task))
    except Exception as exc:
        try:
            payload = ForkingPickler.dumps(exc)
            ForkingPickler.loads(payload)
        except Exception:
            payload = ForkingPickler.dumps(WorkerError(f"{type(exc).__name__}: {exc}"))
        with contextlib.suppress(OSError):
            conn.send_bytes(payload)


def _run_chunks(task_lists: list[list[tuple]]) -> Iterator[list[tuple[dict, int | None]]]:
    """Yield [_falsify_chunk(tasks[i]) for tasks in task_lists] for i = 0, 1, ... in order.

    task_lists[0] runs here, each task when its step is asked for; each
    further list runs in a multiprocessing.Process started here, which
    sends every result, or the exception that stopped it, back through
    one one-way Pipe.  Step i raises the first exception among its chunks,
    in list order, or WorkerError if a worker died before sending.  However
    the generator ends, every worker is joined, and one that still owes a
    result is killed first.  multiprocessing.Process is looked up at call
    time, so a test can swap in a thread-backed stand-in; multiprocessing
    is imported only when there is a worker to start.
    """
    workers = []  # [process, reader, results it still owes]
    try:
        if len(task_lists) > 1:
            import multiprocessing
        for tasks in task_lists[1:]:
            reader, writer = multiprocessing.Pipe(duplex=False)
            try:
                process = multiprocessing.Process(target=_send_chunks, args=(writer, tasks), daemon=True)
                process.start()
            finally:
                writer.close()  # the worker holds its own end, so its exit reads as EOF here
            workers.append([process, reader, len(tasks)])
        for i, task in enumerate(task_lists[0]):
            results = [_falsify_chunk(task)]
            for w, worker in enumerate(workers, 1):
                process, reader, _ = worker
                try:
                    result = reader.recv()
                except EOFError:
                    process.join()
                    pattern, _, _, start, count, _ = task_lists[w][i]
                    raise WorkerError(
                        f"a sampling process exited with code {process.exitcode} before it sent "
                        f"samples {start}..{start + count - 1} of order {pattern.n}"
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

    jobs counts the processes that sample, this one included, and is
    clamped to [1, min(budget, CPU count)].  Every request is planned at
    the first report into jobs chunks; jobs - 1 workers (_run_chunks,
    which imports multiprocessing only for them) start then and sample
    their chunk of every request in order, while this process samples
    chunk 0 of each request when its report is asked for, so the caller
    can work on report k while the workers run ahead.  A fault in
    any chunk is raised at its request's report, with its own type and
    message, and a worker that dies first raises WorkerError there.  No
    worker outlives the generator: closing it early kills the workers
    that still have work, so a caller that may stop early closes it.
    """
    jobs = max(1, min(jobs, budget, os.cpu_count() or 1))
    planned = [(pattern, cfg, _falsify_tasks(pattern, budget, cfg, jobs)) for pattern, cfg in requests]
    chunks = _run_chunks([[tasks[w] for _, _, tasks in planned] for w in range(jobs)])
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
    falsify_each clamps), and each chunk reports only the index of its
    first outside sample; that one sample is rebuilt as a matrix by
    sample_realization and shrunk as a matrix.  The sample multiset is a
    pure function of (pattern, budget, seed), independent of the job
    count.  A worker that dies raises WorkerError.  This is falsify_each's
    one-request case.
    """
    [report] = falsify_each([(pattern, cfg)], budget, jobs)
    return report


# -- lemma validators ----------------------------------------------------------


@dataclass
class LemmaCheck:
    check: str
    status: str  # "pass" or "fail"
    details: dict

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _sorted_descending(a: Sequence, b: Sequence) -> tuple[list, list]:
    """The arrow parameters of a permutation-similar matrix whose b descend, as the identities assume."""
    order = sorted(range(len(b)), key=b.__getitem__, reverse=True)
    return list(a[:2]) + [a[k + 2] for k in order], [b[k] for k in order]


def validate_lemmas(arrow: ArrowMatrix, i: int) -> list[LemmaCheck]:
    """Run the exact identity checks behind the distinct-parameter analysis.

    Membership in family i's class is read from the signs of the
    parameters (ArrowMatrix.in_family).  The matrix is then permuted so the
    diagonal parameters descend, which is the normalization the sign table
    assumes.  Its characteristic polynomial comes once from Berkowitz's
    recurrence on the arrow's integer rows, with rows and columns reversed
    so the dense hub comes last: every leading block is then diagonal with
    a zero border column, so each step but the hub's is one O(k)
    multiplication, and the hub's reads power sums over that diagonal
    (both permutations are similarities, which keep p).
    L-det requires p to equal the spoke expansion
    (arrow_char_poly) and to give every closed-form shift determinant
    (arrow_shift_det); L-sign and L-excl read those certified values.
    L-delta classifies an integer Taylor shift of the same polynomial
    (_shifted_inertia).  Every step runs on the arrow's integers; Fractions
    carry only the reported values and the shift points b_j, which reach
    the shift kernel as the reduced integers of -b_j.  Raises ValueError
    when a diagonal parameter repeats (the
    identities assume distinct ones; see deflate_repeated for that case) or
    i is not a family index, and MembershipError if the matrix is not in
    the family's qualitative class, and never raises on a mere check
    failure: each result carries its computed quantities.
    """
    if not arrow.in_family(i):
        raise MembershipError(f"arrow matrix is not in the qualitative class of family {i}")
    if len(set(arrow.b_num)) != len(arrow.b_num):
        raise ValueError("lemma checks require distinct b values")
    n = arrow.n
    a, b = _sorted_descending(arrow.a_num, arrow.b_num)
    arrow = ArrowMatrix.from_ints(a, arrow.a_den, b, arrow.b_den)
    rows, scale = arrow.integer_rows()
    p = _integer_char_poly([row[::-1] for row in reversed(rows)], scale)
    inertia = refined_inertia_exact(p)
    checks: list[LemmaCheck] = []

    # L-det: the spoke expansion and every closed-form shift determinant
    # agree with the Berkowitz polynomial p, det(b_j I + B) = (-1)^n p(-b_j).
    # The values are reused by the sign-table and exclusion checks below.
    shift_dets: dict[int, Fraction] = {}
    error = None
    try:
        if arrow_char_poly(arrow) != p:
            raise InternalCheckError(
                "spoke expansion differs from the Berkowitz characteristic polynomial; "
                f"arrow {json.dumps(arrow.to_json())}"
            )
        for j in range(1, n - 1):
            shift_dets[j] = arrow_shift_det(arrow, j, p)
    except InternalCheckError as exc:
        error = str(exc)
    details: dict = {"det_values": shift_dets}
    if error is not None:
        details["error"] = error
    checks.append(LemmaCheck("L-det", "fail" if error is not None else "pass", details))

    # L-sign: the alternating sign table of det(b_j I + B); a determinant
    # L-det could not certify is missing from actual and fails the table.
    top = n - 2 if i in (1, 2) else n - 3
    expected = {j: (-1) ** (j + 1) if i == 1 else (-1) ** j for j in range(1, top + 1)}
    actual = {j: (v > 0) - (v < 0) for j, v in shift_dets.items() if j <= top}
    checks.append(
        LemmaCheck(
            "L-sign",
            "pass" if actual == expected else "fail",
            {"expected": expected, "actual": actual},
        )
    )

    # L-excl: no -b_j is an eigenvalue, p(-b_j) = (-1)^n det(b_j I + B) != 0;
    # a value L-det could not certify is missing and fails the check.
    values = {j: (-1) ** n * v for j, v in shift_dets.items()}
    ok = len(values) == n - 2 and all(v != 0 for v in shift_dets.values())
    checks.append(LemmaCheck("L-excl", "pass" if ok else "fail", {"char_poly_values": values}))

    # L-low: lower bounds on the negative count.
    bound = n - 3 if i != 3 else n - 4
    ok = inertia.n_minus >= bound
    checks.append(
        LemmaCheck("L-low", "pass" if ok else "fail", {"n_minus": inertia.n_minus, "bound": bound})
    )

    # L-par: determinant sign, no zero eigenvalues, parity of the negative count.
    det = (-1) ** n * p.constant
    sign_ok = ((det > 0) - (det < 0)) == (-1) ** n
    parity_ok = (n - inertia.n_minus) % 2 == 0
    checks.append(
        LemmaCheck(
            "L-par",
            "pass" if (sign_ok and inertia.n_zero == 0 and parity_ok) else "fail",
            {"det": det, "n_zero": inertia.n_zero, "n_minus": inertia.n_minus},
        )
    )

    # L-delta: for j <= n - 3, Delta_j, the number of eigenvalues with
    # Re <= -b_j, has the table's parity, and (-1)^Delta_j is the sign of
    # L-det's det(b_j I + B) = prod (lambda + b_j), since each non-real pair
    # contributes |lambda + b_j|^2 > 0; a value L-det could not certify is
    # missing from actual and fails the check.  Delta_j is read off an
    # integer polynomial whose roots are those of p(x - b_j) times the
    # reduced denominator of b_j, which moves no root across the axis.
    rows = {}
    ok = True
    for j in range(1, n - 2):
        shifted = _shifted_inertia(p, Fraction(b[j - 1], arrow.b_den))
        delta = shifted.n_minus + shifted.n_zero + shifted.two_n_p
        rows[j] = (shifted.n_minus, delta)
        ok = ok and expected[j] == actual.get(j) == (-1) ** delta
    checks.append(LemmaCheck("L-delta", "pass" if ok else "fail", {"pairs": rows}))

    # L-k: the negative count reaches n - 2.
    ok = inertia.n_minus >= n - 2
    checks.append(
        LemmaCheck("L-k", "pass" if ok else "fail", {"n_minus": inertia.n_minus, "bound": n - 2})
    )

    return checks


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


def run_lemma_suite(
    i: int, n: int, samples: int, cfg: RealizationConfig
) -> LemmaSuiteReport:
    """Validate the lemma checks over seeded samples with distinct b.

    One generator serves the call: sample k reseeds it with
    _sample_seed(cfg.seed, k) and draws (realization._signed_draws), and a
    b_j that repeats an earlier one, which the checks reject, is drawn
    again from the same stream until it is new
    (realization._redraw_tied_diagonal).  So sample k depends on k alone,
    and a tie-free sample is its plain draw.  The law is whole-sample
    rejection's: the 4096 * 20 grid pairs (m, e) are equally likely, so
    redrawing each tied b_j in turn gives the uniform law over ordered
    tuples of distinct b (for any order up to 81 922), independent of the
    a_k.  validate_lemmas runs on the arrow read from the integer draws
    (realization._family_draw).  Raises ValueError, before any draw, for a
    negative sample count.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    pattern = family_pattern(i, n)
    signs, rng = _signs(pattern), random.Random(cfg.seed)  # seeded to skip an OS entropy read
    failures: list[tuple[int, str]] = []
    counts: Counter = Counter()
    for k in range(samples):
        rng.seed(_sample_seed(cfg.seed, k))
        draws = _signed_draws(signs, rng)
        _redraw_tied_diagonal(draws, rng)
        for check in validate_lemmas(ArrowMatrix.from_ints(*_family_draw(draws)), i):
            counts[(check.check, check.status)] += 1
            if check.failed:
                failures.append((k, check.check))
    summary = tuple(sorted((f"{check}:{status}", cnt) for (check, status), cnt in counts.items()))
    return LemmaSuiteReport(i, n, samples, tuple(failures), summary)
