"""Command-line front end: pattern fixtures, inertia computation, analysis pipelines.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error (a closed
stdout included), 3 a certified counterexample was found, 4 an internal
identity check failed or the pipeline raised on valid input (which the
underlying theory rules out, so either signals an engine bug).

JSON output is canonical (sorted keys, fixed layout) and every command is
bit-reproducible for a fixed --seed; RI_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .analysis import (
    Verdict,
    WitnessCertificationError,
    WorkerError,
    _sample_seed,
    canonical_dump,
    canonical_dumps,
    falsify_each,
    falsify_requires,
    run_lemma_suite,
    witness_suite,
)
from .engine import (
    EigenSolverError,
    InternalCheckError,
    char_poly,
    refined_inertia_exact,
    refined_inertia_numeric,
)
from .patterns import family_pattern, parse_pattern
from .realization import MembershipError, RealizationConfig, matrix_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_INTERNAL = 4

# Lower bounds of the bounded integer options, checked by main before dispatch.
_MINIMUM = {"order": 4, "budget": 0, "samples": 0, "jobs": 1}

# What an engine fault raises; a check failure is reported as such.
_CHECK_FAILURES = (InternalCheckError, WitnessCertificationError, MembershipError)
_FAULTS = (*_CHECK_FAILURES, ValueError, WorkerError)

_JOBS_HELP = (
    "processes that sample, this one included, at most the number of samples and the CPU count; "
    "a worker that dies is an internal error (exit 4), and none outlives the command"
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="riq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", parents=[], help="print a family pattern")
    p_family.add_argument("-i", "--family", type=int, required=True, choices=(1, 2, 3))
    p_family.add_argument("-n", "--order", type=int, required=True)
    p_family.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_inertia = sub.add_parser("inertia", help="refined inertia of a matrix file")
    p_inertia.add_argument("--matrix", required=True, help="matrix JSON file")
    mode = p_inertia.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact engine (rational entries only)")
    mode.add_argument("--numeric", action="store_true", help="dense eigensolver")
    p_inertia.add_argument("--tol", type=float, default=1e-9, help="relative axis tolerance")

    p_witness = sub.add_parser("witness", help="emit the certified witness suite")
    p_witness.add_argument("-i", "--family", type=int, required=True, choices=(1, 2, 3))
    p_witness.add_argument("-n", "--order", type=int, required=True)
    p_witness.add_argument("--out", help="write JSON here instead of stdout")

    p_falsify = sub.add_parser("falsify", help="sample a pattern's class hunting for counterexamples")
    p_falsify.add_argument("--pattern", required=True, help="pattern text file (.sp)")
    p_falsify.add_argument("--budget", type=int, required=True)
    p_falsify.add_argument("--seed", type=int, default=None)
    p_falsify.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p_falsify.add_argument("--csv", help="also write the histogram as CSV here")

    p_lemmas = sub.add_parser("lemmas", help="validate the exact lemma checks over samples")
    p_lemmas.add_argument("-i", "--family", type=int, required=True, choices=(1, 2, 3))
    p_lemmas.add_argument("-n", "--order", type=int, required=True)
    p_lemmas.add_argument("--samples", type=int, required=True)
    p_lemmas.add_argument("--seed", type=int, default=None)
    p_lemmas.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)

    p_analyze = sub.add_parser("analyze", help="requires + allows pipeline over a range of orders")
    p_analyze.add_argument("-i", "--family", type=int, required=True, choices=(1, 2, 3))
    p_analyze.add_argument("--n-range", required=True, help="orders as A..B, inclusive")
    p_analyze.add_argument("--budget", type=int, required=True)
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)

    return parser


def _fault(exc: Exception, order: int | None = None) -> int:
    """Report an engine fault as one stderr line, naming the order if given."""
    kind = "internal check failure" if isinstance(exc, _CHECK_FAILURES) else "internal error"
    where = "" if order is None else f" at order {order}"
    print(f"{kind}{where}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def _write(path: str, text: str) -> int:
    """Write text to the file at path: EXIT_OK, or EXIT_IO after one stderr line."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error writing {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_family(args) -> int:
    pattern = family_pattern(args.family, args.order)
    if args.json:
        canonical_dump(pattern.to_json(), sys.stdout)
    else:
        print(pattern.render())
    return EXIT_OK


def _cmd_inertia(args) -> int:
    try:
        with open(args.matrix, "r", encoding="utf-8") as handle:
            matrix = matrix_from_json(json.load(handle))
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error reading matrix: {exc}", file=sys.stderr)
        return EXIT_IO
    rational = all(isinstance(x, Fraction) for row in matrix for x in row)
    if args.exact or (not args.numeric and rational):
        if not rational:
            print("error reading matrix: non-rational entries; exact engine unavailable", file=sys.stderr)
            return EXIT_IO
        inertia = refined_inertia_exact(char_poly(matrix))
        method = "exact"
    else:
        try:
            inertia = refined_inertia_numeric(matrix, axis_eps=args.tol)
        except OverflowError as exc:
            print(f"error reading matrix: out of float range: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: --tol: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except EigenSolverError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        method = "numeric"
    sys.stdout.write(canonical_dumps({"inertia": inertia._asdict(), "method": method}))
    return EXIT_OK


def _cmd_witness(args) -> int:
    text = canonical_dumps(witness_suite(args.family, args.order).to_json_dict())
    if args.out:
        return _write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_falsify(args) -> int:
    try:
        with open(args.pattern, "r", encoding="utf-8") as handle:
            pattern = parse_pattern(handle.read())
    except (OSError, ValueError) as exc:
        print(f"error reading pattern: {exc}", file=sys.stderr)
        return EXIT_IO
    if pattern.n < 3:
        print("error: falsification needs order >= 3", file=sys.stderr)
        return EXIT_USAGE
    cfg = RealizationConfig(seed=args.seed)
    report = falsify_requires(pattern, args.budget, cfg, jobs=args.jobs)
    if args.csv and _write(args.csv, report.histogram_csv()) != EXIT_OK:
        return EXIT_IO
    sys.stdout.write(canonical_dumps(report.to_json_dict()))
    return EXIT_COUNTEREXAMPLE if report.verdict is Verdict.COUNTEREXAMPLE else EXIT_OK


def _cmd_lemmas(args) -> int:
    cfg = RealizationConfig(seed=args.seed)
    report = run_lemma_suite(args.family, args.order, args.samples, cfg, jobs=args.jobs)
    print(f"family {args.family}, order {args.order}, samples {report.samples}")
    for label, count in report.check_counts:
        print(f"  {label}: {count}")
    if report.all_passed:
        print("all lemma checks passed")
        return EXIT_OK
    for index, check in report.failures:
        print(f"FAIL sample {index} (seed {_sample_seed(args.seed, index)}): {check}")
    return EXIT_INTERNAL


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)  # int("") raises when ".." is missing
    except ValueError:
        raise ValueError(f"range must look like A..B, got {text!r}") from None


def _cmd_analyze(args) -> int:
    """Falsifier report and witness suite per order, one row each.

    The reports come from one falsify_each generator.  --jobs counts the
    sampling processes, this one included: with --jobs > 1, the workers
    start once and sample their chunk of every order, while this process
    samples its own chunk of order n and certifies its witnesses.  An
    early exit, at the last order or at a fault, closes the generator,
    which kills the workers that still have work; a worker that died is
    reported at its order as an internal error.
    """
    try:
        lo, hi = _parse_range(args.n_range)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if lo < 4 or hi < lo:
        print("error: order range must satisfy 4 <= A <= B", file=sys.stderr)
        return EXIT_USAGE
    print(f"family {args.family}, orders {lo}..{hi}, budget {args.budget}, seed {args.seed}")
    print("n   samples  inside_target  all3_realized  verdict")
    orders = range(lo, hi + 1)
    requests = [
        (family_pattern(args.family, n), RealizationConfig(seed=args.seed + n)) for n in orders
    ]
    worst = EXIT_OK
    with contextlib.closing(falsify_each(requests, args.budget, args.jobs)) as reports:
        for n in orders:
            try:
                report = next(reports)
            except _FAULTS as exc:
                return _fault(exc, n)
            try:
                witness_suite(args.family, n)
                witnesses_ok = "yes"
            except _CHECK_FAILURES as exc:
                witnesses_ok = "NO"
                worst = max(worst, _fault(exc, n))
            except ValueError as exc:
                return _fault(exc, n)
            inside = "yes" if report.verdict is not Verdict.COUNTEREXAMPLE else "NO"
            if report.verdict is Verdict.COUNTEREXAMPLE:
                worst = max(worst, EXIT_COUNTEREXAMPLE)
            print(
                f"{n:<3} {report.samples:<8} {inside:<14} {witnesses_ok:<14} {report.verdict.value}"
            )
    return worst


_HANDLERS = {
    "family": _cmd_family,
    "inertia": _cmd_inertia,
    "witness": _cmd_witness,
    "falsify": _cmd_falsify,
    "lemmas": _cmd_lemmas,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, low in _MINIMUM.items():
        value = getattr(args, name, low)
        if value < low:
            print(f"error: --{name} must be >= {low}, got {value}", file=sys.stderr)
            return EXIT_USAGE
    if "seed" in args and args.seed is None:
        raw = os.environ.get("RI_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            print(f"error: RI_SEED must be an integer, got {raw!r}", file=sys.stderr)
            return EXIT_USAGE
    # Usage is checked before the pipelines run, so anything they raise
    # past their command's own handlers is an engine fault.  stdout is
    # flushed here so that a reader that closed it early is caught too.
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except _FAULTS as exc:
        return _fault(exc)
    except BrokenPipeError:
        # Point stdout at devnull, so the interpreter's last flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
