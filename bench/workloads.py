"""The benchmark's four workloads: inputs from a seed, timed operations, checks.

A workload builds its inputs once from ``--seed`` and then runs them in
rounds: every round makes the same operations on the same inputs, so each
round does identical work and the traced per-round counts repeat exactly.
Each operation is one call into the package's public API.  The checks run
after timing, on the first round's outputs, against the independent
computations in ``oracle``; every later round must reproduce the first
round's outputs exactly.  ``oracle`` (sympy, mpmath) is imported only by
the checks, so that it costs nothing in set-up or in the timed part.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

from refined_inertia import analysis, cli, engine, patterns, realization

FAMILIES = (1, 2, 3)


class Op:
    """One timed call, ``fn(*args)``, completing ``samples`` samples.

    ``(kind, key)`` names the call; outputs are checked under that name.  A
    workload's ``samples_per_s`` is the samples of a round over the time of
    its calls whose kind is in the workload's ``rate_kinds``.
    """

    def __init__(self, kind: str, key, samples: int, fn, *args):
        self.kind = kind
        self.key = key
        self.samples = samples
        self.fn = fn
        self.args = args

    def __call__(self):
        return self.fn(*self.args)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class FalsifyGrid:
    """falsify_requires for families 1-3 at orders 4..10, one process (jobs=1)."""

    name = "falsify-grid"
    orders = range(4, 11)
    budget = 100
    pool_jobs = 0
    rate_kinds = ("falsify",)

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        self.seeds = {(i, n): rng.randrange(2**31) for i in FAMILIES for n in self.orders}

    def ops(self) -> list[Op]:
        return [
            Op("falsify", (i, n), self.budget, self._falsify, i, n, s)
            for (i, n), s in self.seeds.items()
        ]

    def _falsify(self, i: int, n: int, seed: int):
        cfg = realization.RealizationConfig(seed=seed)
        return analysis.falsify_requires(patterns.family_pattern(i, n), self.budget, cfg)

    def check(self, outputs: dict) -> list[str]:
        import oracle

        problems = []
        seen = {i: set() for i in FAMILIES}
        for (_, (i, n)), report in outputs.items():
            where = f"family {i}, order {n}"
            counts = {ri.as_tuple(): count for ri, count in report.histogram}
            if sum(counts.values()) != self.budget:
                problems.append(f"{where}: histogram sums to {sum(counts.values())}")
            outside = set(counts) - oracle.target_set(n)
            if outside:
                problems.append(f"{where}: inertias outside H_{n}: {sorted(outside)}")
            if report.counterexample is not None or report.verdict.value == "CounterexampleFound":
                problems.append(f"{where}: counterexample reported")
            # (n_plus, two_n_p) tells the targets apart independently of n.
            seen[i].update((p, z) for p, _, _, z in counts)
        for i, kinds in seen.items():
            # Both open-condition inertias, (0, n, 0, 0) and (2, n-2, 0, 0),
            # fill sets of positive measure; across the 7 orders they must show.
            if not {(0, 0), (2, 0)} <= kinds:
                problems.append(f"family {i}: an open-condition inertia was never observed")
        return problems


class LemmaSuite:
    """run_lemma_suite for families 1-3 at orders 5..10; exact path only."""

    name = "lemma-suite"
    orders = range(5, 11)
    samples = 16
    pool_jobs = 0
    rate_kinds = ("lemmas",)

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        self.seeds = {(i, n): rng.randrange(2**31) for i in FAMILIES for n in self.orders}

    def ops(self) -> list[Op]:
        return [
            Op("lemmas", (i, n), self.samples, self._lemmas, i, n, s)
            for (i, n), s in self.seeds.items()
        ]

    def _lemmas(self, i: int, n: int, seed: int):
        cfg = realization.RealizationConfig(seed=seed)
        return analysis.run_lemma_suite(i, n, self.samples, cfg)

    def check(self, outputs: dict) -> list[str]:
        expected = {
            f"{check}:pass": self.samples
            for check in ("L-det", "L-sign", "L-excl", "L-low", "L-par", "L-delta", "L-k")
        }
        problems = []
        for (_, (i, n)), report in outputs.items():
            if report.failures or not report.all_passed:
                problems.append(f"family {i}, order {n}: failed checks {report.failures}")
            if dict(report.check_counts) != expected:
                problems.append(f"family {i}, order {n}: check counts {report.check_counts}")
        return problems


def _unit_triangular(rng: random.Random, n: int, lower: bool) -> list[list[int]]:
    return [
        [1 if r == c else (rng.choice((-1, 1)) if (r > c) == lower and rng.random() < 0.3 else 0)
         for c in range(n)]
        for r in range(n)
    ]


def _unit_triangular_inverse(t: list[list[int]], lower: bool) -> list[list[int]]:
    """Inverse of a unit triangular integer matrix, by substitution (stays integral)."""
    n = len(t)
    inv = [[int(r == c) for c in range(n)] for r in range(n)]
    rows = range(n) if lower else range(n - 1, -1, -1)
    for r in rows:
        for c in range(n):
            inner = range(r) if lower else range(r + 1, n)
            inv[r][c] -= sum(t[r][k] * inv[k][c] for k in inner)
    return inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def known_spectrum_matrix(rng: random.Random, n: int) -> tuple[list[list[int]], tuple]:
    """Integer matrix P D P^-1 with a block-diagonal D of known spectrum, and its inertia.

    D always holds a zero eigenvalue and an imaginary pair; the rest are
    real eigenvalues (zero included), further imaginary pairs (repeats
    allowed) and complex pairs off the axis.  P is a product of unit
    triangular integer matrices, so P^-1 is integral too.
    """
    blocks = [[[0]], [[0, -1], [1, 0]]]
    counts = [0, 0, 1, 2]  # n_plus, n_minus, n_zero, two_n_p
    size = 3
    while size < n:
        kind = rng.choice(("real", "zero", "axis", "complex") if n - size >= 2 else ("real", "zero"))
        if kind == "real":
            lam = rng.choice((-3, -2, -1, 1, 2, 3))
            blocks.append([[lam]])
            counts[0 if lam > 0 else 1] += 1
        elif kind == "zero":
            blocks.append([[0]])
            counts[2] += 1
        elif kind == "axis":
            b = rng.randint(1, 3)
            blocks.append([[0, -b], [b, 0]])
            counts[3] += 2
        else:
            a, b = rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)
            blocks.append([[a, -b], [b, a]])
            counts[0 if a > 0 else 1] += 2
        size += len(blocks[-1])
    rng.shuffle(blocks)
    d = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for r, row in enumerate(block):
            for c, x in enumerate(row):
                d[at + r][at + c] = x
        at += len(block)
    lower, upper = _unit_triangular(rng, n, True), _unit_triangular(rng, n, False)
    p = _matmul(lower, upper)
    p_inv = _matmul(_unit_triangular_inverse(upper, False), _unit_triangular_inverse(lower, True))
    return _matmul(_matmul(p, d), p_inv), tuple(counts)


class DenseExact:
    """Dense integer matrices, orders 3..10, certified exactly and numerically,
    plus the all-plus negative control through the falsifier."""

    name = "dense-exact"
    orders = range(3, 11)
    per_order = 3  # of each kind: random and known-spectrum
    controls = 4
    control_budget = 25
    pool_jobs = 0
    # A sample here is one matrix through both engines; the negative
    # control's seed-dependent shrinking shows in run_s instead.
    rate_kinds = ("certify", "numeric")

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        self.matrices = []  # (key, matrix, known inertia or None)
        for n in self.orders:
            for k in range(self.per_order):
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                self.matrices.append((("random", n, k), m, None))
                m, inertia = known_spectrum_matrix(rng, n)
                self.matrices.append((("known", n, k), m, inertia))
        self.control_seeds = [rng.randrange(2**31) for _ in range(self.controls)]

    def ops(self) -> list[Op]:
        ops = []
        for key, m, _ in self.matrices:
            ops.append(Op("certify", key, 1, self._certify, m))
            ops.append(Op("numeric", key, 0, self._numeric, m))
        for k, seed in enumerate(self.control_seeds):
            ops.append(Op("control", k, self.control_budget, self._control, seed))
        return ops

    @staticmethod
    def _numeric(m):
        return engine.refined_inertia_numeric(m)

    @staticmethod
    def _certify(m):
        p = engine.char_poly(m)
        return p, engine.refined_inertia_exact(p)

    def _control(self, seed: int):
        pattern = patterns.SignPattern([[patterns.Sign.PLUS] * 4 for _ in range(4)])
        cfg = realization.RealizationConfig(seed=seed)
        return analysis.falsify_requires(pattern, self.control_budget, cfg)

    def check(self, outputs: dict) -> list[str]:
        import oracle

        problems = []
        for key, m, known in self.matrices:
            if ("certify", key) not in outputs:
                continue  # the call failed; it is counted in `failed`
            p, exact = outputs[("certify", key)]
            numeric = outputs.get(("numeric", key), exact)
            reference = oracle.char_poly_ascending(m)
            if list(p.coeffs) != reference:
                problems.append(f"{key}: char_poly differs from sympy's charpoly")
            expected = known if known is not None else oracle.refined_inertia(reference)
            if exact.as_tuple() != expected:
                problems.append(f"{key}: exact inertia {exact} but expected {expected}")
            if numeric != exact:
                # The classifier's only excuse: an eigenvalue in its guard strip.
                scale = max(sum(abs(x) for x in row) for row in m)
                if not oracle.has_root_in_band(reference, Fraction(10, 10**9) * scale):
                    problems.append(f"{key}: numeric {numeric} != exact {exact} off the guard band")
        for (kind, k), report in outputs.items():
            if kind == "control":
                problems += self._check_control(report, f"negative control {k}")
        return problems

    def _check_control(self, report, where: str) -> list[str]:
        import oracle

        problems = []
        example = report.counterexample
        if report.verdict.value != "CounterexampleFound" or example is None:
            return [f"{where}: no counterexample"]
        if len(example) != 4 or any(len(row) != 4 or min(row) <= 0 for row in example):
            problems.append(f"{where}: counterexample left the all-plus pattern")
        inertia = oracle.refined_inertia(oracle.char_poly_ascending(example))
        if inertia in oracle.target_set(4):
            problems.append(f"{where}: counterexample inertia {inertia} is in H_4")
        if sum(count for _, count in report.histogram) != self.control_budget:
            problems.append(f"{where}: histogram does not sum to the budget")
        return problems


class AnalyzeCli:
    """riq analyze through cli.main for families 1-3, orders 4..10, two workers."""

    name = "analyze-cli"
    lo, hi = 4, 10
    budget = 100
    pool_jobs = 2
    rate_kinds = ("analyze",)

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        self.argvs = {
            i: [
                "analyze", "-i", str(i), "--n-range", f"{self.lo}..{self.hi}",
                "--budget", str(self.budget), "--seed", str(rng.randrange(2**31)),
                "--jobs", str(self.pool_jobs),
            ]
            for i in FAMILIES
        }

    def ops(self) -> list[Op]:
        samples = self.budget * (self.hi - self.lo + 1)
        return [Op("analyze", i, samples, self._analyze, argv) for i, argv in self.argvs.items()]

    @staticmethod
    def _analyze(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for (_, i), (code, text) in outputs.items():
            if code != 0:
                problems.append(f"family {i}: exit code {code}")
            rows = {}
            for line in text.splitlines()[2:]:
                fields = line.split()
                rows[int(fields[0])] = fields[1:]
            for n in range(self.lo, self.hi + 1):
                expected = [str(self.budget), "yes", "yes", "ConsistentWithRequires"]
                if rows.get(n) != expected:
                    problems.append(f"family {i}, order {n}: row {rows.get(n)}")
            for n in range(self.lo, self.hi + 1):
                problems += _recertify_witnesses(i, n)
        return problems


def _recertify_witnesses(i: int, n: int) -> list[str]:
    """Re-derive each witness inertia of the suite the CLI certified."""
    import oracle

    problems = []
    suite = analysis.witness_suite(i, n)
    pattern = patterns.family_pattern(i, n)
    got = set()
    for inertia, arrow in suite.witnesses:
        matrix = arrow.to_matrix()
        if patterns.sgn_of_matrix(matrix) != pattern:
            problems.append(f"family {i}, order {n}: witness {inertia} outside the class")
        independent = oracle.refined_inertia(oracle.char_poly_ascending(matrix))
        if independent != inertia.as_tuple():
            problems.append(f"family {i}, order {n}: witness {inertia} recertifies as {independent}")
        got.add(independent)
    if got != oracle.target_set(n):
        problems.append(f"family {i}, order {n}: witnesses cover {sorted(got)}")
    return problems


WORKLOADS = {w.name: w for w in (FalsifyGrid, LemmaSuite, DenseExact, AnalyzeCli)}
