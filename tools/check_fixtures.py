"""Every stdlib-only check, in one command: the CI's ``stdlib-only`` job.

    PYTHONPATH=src python -W error::DeprecationWarning tools/check_fixtures.py

It needs only the standard library, so any installed interpreter can check
that the sample stream and the exact engine reproduce.  It prints one line
per check, ``ok``, ``FAIL`` or, where two outputs must be the same bytes,
``DIFF``; then a summary.  It exits 1 if any check fails.  In order:

* 4000 products, from a fixed seed, of factors whose roots are known by
  construction (x, t x - s, (x^2 + c)^m for m <= 4, x^2 - c, a complex
  pair and an opposite quadruple, under a lead of either sign): the
  refined inertia refined_inertia_exact gives each must be its roots'.
  So must the counts of the falsifier's block entry, _exact_inertia, on
  the same products shuffled into blocks of analysis.BLOCK, which mix
  degrees, zero roots, imaginary tails and chains that leave the lockstep.
* Two inputs those products miss.  AFTER_A_GAP's remainder chain takes a
  run of one-degree steps after a gap, which must restart its divisors
  at 1; its counts (4, 5, 0, 0) are those of the full-length reference
  chain in tests/test_ratpoly.py.  ZERO_BORDER's second Berkowitz step
  has a zero column but a nonzero row, which ends the diagonal leading
  block, so the third step must not read power sums over it.
  ``riq inertia --exact`` must give it (1, 2, 0, 0): det(xI - A) is
  x^3 + x^2 - 8, with one positive root r by Descartes' rule, and the
  other two sum to -1 - r < 0 with product 8 / r > 0, so both lie in the
  open left half-plane.
* ``riq inertia --exact`` (Berkowitz on the dense matrix, not the witness
  suite's spoke expansion) must put every counterexample a pinned report
  holds outside the target set, and at least one must be pinned.  Every
  matrix ``riq witness`` emits for families 1-3 at orders 4 and 10 must be
  in its family's class with the inertia ``riq inertia --exact`` gives
  it, and each suite's three inertias must be the target set.
* ``riq`` runs (RUNS): each must exit 0, an analyze run must print a
  ConsistentWithRequires row, and every run of one command must print the
  first run's bytes.  Runs go through cli.main in this process, except
  one at ``--jobs 2`` in a fresh interpreter that asks for forkserver
  (the default start method from Python 3.14; fork before), whose workers
  get their tasks pickled.  DeprecationWarning is an error in both, so a
  fork from a multi-threaded parent fails.  Analyze at orders 4..10 with
  budget 100 draws every falsifier sample the benchmark's CLI workload
  draws.  At order 40 each sample slices 117 draws into the arrow's
  integers, the spoke expansion runs 38 steps, L-det compares it with a
  Berkowitz polynomial whose steps, all but the hub's, take the
  zero-border branch, and L-delta's Taylor shifts reach degree 40.  The
  lemmas at order 10 are the benchmark's largest, and sample 1263 at
  order 6, seed 2 draws a tied b_j in families 1 and 2, which those runs
  redraw.
* ``riq falsify`` at ``--jobs`` 1 and 2 must print the eight reports in
  ``tests/fixtures/falsify/``, each ``falsify_requires(pattern, 50, seed
  7075)`` for families 1-3 at orders 4 and 10, the all-plus 4x4 pattern
  or a 6x6 block pattern with zero entries.  Berkowitz counts the last
  two's samples: the all-plus steps are dense, and the block pattern
  gives a diagonal step and a zero border after a dense step.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refined_inertia import cli  # noqa: E402
from refined_inertia.analysis import BLOCK, _exact_inertia, hn_set  # noqa: E402
from refined_inertia.engine import InternalCheckError, RefinedInertia, refined_inertia_exact  # noqa: E402
from refined_inertia.patterns import (  # noqa: E402
    Sign,
    SignPattern,
    family_pattern,
    parse_pattern,
    sgn_of_matrix,
)
from refined_inertia.ratpoly import RationalPoly  # noqa: E402
from refined_inertia.realization import matrix_from_json, matrix_to_json  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures" / "falsify"
BUDGET = 50
SEED = 7075
JOBS = (1, 2)
FAMILIES = (1, 2, 3)
WITNESS_ORDERS = (4, 10)
BLOCK_6 = """
- + 0 0 0 0
+ - + 0 0 0
0 - + 0 0 0
+ 0 - - + 0
0 + 0 - 0 +
- 0 0 + - -
"""
KNOWN_ROOT_PRODUCTS = 4000
AFTER_A_GAP = [-1, 3, 7, 1, 0, -2, 0, -3, -9, -3]
ZERO_BORDER = [[-1, 0, 2], [-2, 0, 0], [0, -2, 0]]
# (riq arguments, the --jobs values run in this process, whether --jobs 2 also runs under forkserver)
RUNS = [
    *((f"analyze -i {i} --n-range 4..10 --budget 100 --seed 7", (1, 2, 3), True) for i in FAMILIES),
    *((f"analyze -i {i} --n-range 40..40 --budget 10 --seed 7", (1, 2), False) for i in FAMILIES),
    *(
        (f"lemmas -i {i} -n {n} --samples {count} --seed {seed}", jobs, forkserver)
        for i in FAMILIES
        for n, count, seed, jobs, forkserver in (
            (4, 50, 7, (1,), False),
            (40, 2, 7, (1,), False),
            (6, 50, 7, (1, 2), True),
            (10, 50, 7, (1, 2), True),
            (6, 1300, 2, (1, 2), True),
        )
    ),
]
FORKSERVER = (
    f"import multiprocessing, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
    "multiprocessing.set_start_method('forkserver'); "
    "from refined_inertia.cli import main; sys.exit(main(sys.argv[1:]))"
)


def check(ok: bool, line: str, tag: str = "FAIL") -> bool:
    """Print line under ok or tag, and return ok."""
    print(f"{'ok  ' if ok else tag} {line}")
    return ok


def fixture_patterns() -> dict[str, SignPattern]:
    patterns = {f"family-{i}-order-{n}": family_pattern(i, n) for i in FAMILIES for n in (4, 10)}
    patterns["all-plus-4"] = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])
    patterns["block-order-6"] = parse_pattern(BLOCK_6)
    return patterns


def _times(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def known_root_product(rng: random.Random) -> tuple[list[int], tuple[int, int, int, int]]:
    """(num, counts): a lead times one to five factors, and the refined inertia their roots give."""
    num, counts = [rng.choice((-3, -1, 1, 2, 5))], [0, 0, 0, 0]  # n_plus, n_minus, n_zero, two_n_p
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(6)
        s, t, c = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4), rng.randint(1, 12)
        side = 0 if s > 0 else 1
        if kind == 0:  # x: a zero root
            factor, roots = [0, 1], {2: 1}
        elif kind == 1:  # t x - s: the root s / t
            factor, roots = [-s, t], {side: 1}
        elif kind == 2:  # (x^2 + c)^m: +-i sqrt(c), m times
            m = rng.randint(1, 4)
            factor, roots = [1], {3: 2 * m}
            for _ in range(m):
                factor = _times(factor, [c, 0, 1])
        elif kind == 3:  # x^2 - c: +-sqrt(c)
            factor, roots = [-c, 0, 1], {0: 1, 1: 1}
        elif kind == 4:  # (t x - s)^2 + c: (s +- i sqrt(c)) / t
            factor, roots = [s * s + c, -2 * s * t, t * t], {side: 2}
        else:  # the pair above and its opposite: (+-s +- i sqrt(c)) / t
            factor = _times([s * s + c, -2 * s * t, t * t], [s * s + c, 2 * s * t, t * t])
            roots = {0: 2, 1: 2}
        num = _times(num, factor)
        for where, count in roots.items():
            counts[where] += count
    return num, tuple(counts)


def check_known_roots() -> Iterator[bool]:
    """Whether refined_inertia_exact, and _exact_inertia in shuffled blocks, give every known-root product its roots' counts."""
    rng = random.Random(SEED)
    products = [known_root_product(rng) for _ in range(KNOWN_ROOT_PRODUCTS)]
    failures = 0
    for k, (num, counts) in enumerate(products):
        try:
            got = refined_inertia_exact(RationalPoly.from_ints(num))
        except (InternalCheckError, ValueError) as exc:  # ValueError: a negative count
            got = exc
        if got != counts:
            failures += 1
            print(f"FAIL known-root product {k} {num}: counted {got}, its roots give {counts}")
    passed = KNOWN_ROOT_PRODUCTS - failures
    yield check(not failures, f"{passed}/{KNOWN_ROOT_PRODUCTS} known-root products counted exactly")
    order = list(range(KNOWN_ROOT_PRODUCTS))
    rng.shuffle(order)
    failures = 0
    for start in range(0, KNOWN_ROOT_PRODUCTS, BLOCK):
        block = order[start : start + BLOCK]
        try:
            found = _exact_inertia([products[k][0] for k in block])
        except (InternalCheckError, ValueError) as exc:
            found = [exc] * len(block)
        for k, got in zip(block, found):
            num, counts = products[k]
            if got != counts:
                failures += 1
                print(f"FAIL known-root product {k} {num} in a block: counted {got}, its roots give {counts}")
    passed = KNOWN_ROOT_PRODUCTS - failures
    yield check(not failures, f"{passed}/{KNOWN_ROOT_PRODUCTS} known-root products counted exactly in blocks of {BLOCK}")


def check_kernel_inputs(path: Path) -> Iterator[bool]:
    """Whether the remainder chain counts AFTER_A_GAP, and Berkowitz ZERO_BORDER, as their roots give."""
    try:
        got = refined_inertia_exact(RationalPoly.from_ints(AFTER_A_GAP))
    except InternalCheckError as exc:
        got = exc
    yield check(got == (4, 5, 0, 0), f"after a gap {AFTER_A_GAP}: counted {got}, its roots give (4, 5, 0, 0)")
    inertia = exact_inertia(path, matrix_to_json(ZERO_BORDER))
    yield check(inertia == (1, 2, 0, 0), f"zero border {ZERO_BORDER}: certified {inertia}, its roots give (1, 2, 0, 0)")


def riq(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of a riq command, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def riq_forkserver(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of a riq command, run in a fresh interpreter whose workers start by forkserver."""
    argv = [sys.executable, "-W", "error::DeprecationWarning", "-c", FORKSERVER, *argv]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    return done.returncode, done.stdout


def riq_json(argv: list[str]) -> dict | None:
    """The JSON a riq command prints, run in this process; None if it exits nonzero."""
    code, out = riq(argv)
    return json.loads(out) if code == cli.EXIT_OK else None


def exact_inertia(path: Path, matrix: dict) -> RefinedInertia | None:
    """The inertia riq inertia --exact certifies for the matrix JSON, written to path first."""
    path.write_text(json.dumps(matrix))
    result = riq_json(["inertia", "--matrix", str(path), "--exact"]) or {}
    return RefinedInertia(**result["inertia"]) if result.get("method") == "exact" else None


def recertify_counterexamples(path: Path) -> Iterator[bool]:
    """Whether riq inertia --exact puts every pinned counterexample outside the target set."""
    reports = {fixture.name: json.loads(fixture.read_text()) for fixture in sorted(FIXTURES.glob("*.json"))}
    pinned = [(name, report["counterexample"]) for name, report in reports.items() if report["counterexample"]]
    yield check(bool(pinned), f"{len(pinned)} fixture reports pin a counterexample")
    for name, matrix in pinned:
        inertia = exact_inertia(path, matrix)
        yield check(
            inertia is not None and inertia not in hn_set(matrix["n"]),
            f"{name}: counterexample certified {inertia}, outside the target set",
        )


def recertify_witnesses(path: Path) -> Iterator[bool]:
    """Whether riq inertia --exact certifies every witness riq witness emits as listed."""
    for i in FAMILIES:
        for n in WITNESS_ORDERS:
            suite = riq_json(["witness", "-i", str(i), "-n", str(n)]) or {"witnesses": []}
            got = []
            for witness in suite["witnesses"]:
                inertia = exact_inertia(path, witness["matrix"])
                in_class = sgn_of_matrix(matrix_from_json(witness["matrix"])) == family_pattern(i, n)
                if in_class and inertia == RefinedInertia(**witness["inertia"]):
                    got.append(inertia)
            certified = ", ".join(map(str, got))
            yield check(Counter(got) == Counter(hn_set(n)), f"riq witness -i {i} -n {n}: certified {certified}")


def check_runs(args: str, jobs: tuple[int, ...], forkserver: bool) -> Iterator[bool]:
    """Whether every run of riq args exits 0, prints the first run's bytes and, for analyze, a consistent row."""
    argv = args.split()
    runs = [(f"--jobs {j}", riq([*argv, "--jobs", str(j)])) for j in jobs]
    if forkserver:
        runs.append(("--jobs 2 under forkserver", riq_forkserver([*argv, "--jobs", "2"])))
    first_label, (_, first) = runs[0]
    for label, (code, out) in runs:
        if code != cli.EXIT_OK or (argv[0] == "analyze" and "ConsistentWithRequires" not in out):
            missing = "" if code else ", no ConsistentWithRequires row"
            yield check(False, f"riq {args} {label}: exit {code}{missing}")
            print("".join(f"     {line}\n" for line in out.splitlines()), end="")
        elif label == first_label:
            yield check(True, f"riq {args} {label}: exit 0")
        else:
            yield check(out == first, f"riq {args} {label}: exit 0, the bytes of {first_label}", "DIFF")


def check_reports(path: Path) -> Iterator[bool]:
    """Whether riq falsify prints every pinned report, byte for byte, at each job count."""
    for name, pattern in fixture_patterns().items():
        expected = (FIXTURES / f"{name}.json").read_text()
        path.write_text(pattern.render())
        for jobs in JOBS:
            argv = ["falsify", "--pattern", str(path), "--budget", str(BUDGET), "--seed", str(SEED), "--jobs", str(jobs)]
            code, out = riq(argv)
            same = code in (cli.EXIT_OK, cli.EXIT_COUNTEREXAMPLE) and out == expected
            yield check(same, f"riq falsify {name} --jobs {jobs}: exit {code}, the pinned report", "DIFF")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        results = [*check_known_roots(), *check_kernel_inputs(path)]
        results += [*recertify_counterexamples(path), *recertify_witnesses(path)]
        results += [ok for run in RUNS for ok in check_runs(*run)]
        reports = list(check_reports(path))
    results += reports
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{sum(reports)}/{len(reports)} reports match and {sum(results)}/{len(results)} checks pass on Python {version}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
