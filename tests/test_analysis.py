"""Witness suites, the falsifier, and the lemma validators."""

import importlib.util
import json
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from refined_inertia import analysis, engine, realization
from refined_inertia.analysis import (
    AnalysisReport,
    Verdict,
    WitnessCertificationError,
    WorkerError,
    _falsify_tasks,
    _run_chunks,
    _sample_seed,
    canonical_dumps,
    falsify_each,
    falsify_requires,
    hn_set,
    run_lemma_suite,
    validate_lemmas,
    witness_suite,
)
from refined_inertia.engine import (
    RefinedInertia,
    char_poly,
    count_eigen_re_leq,
    refined_inertia_exact,
)
from refined_inertia.patterns import Sign, SignPattern, family_pattern, parse_pattern, sgn_of_matrix
from refined_inertia.ratpoly import RationalPoly
from refined_inertia.realization import (
    ArrowMatrix,
    MembershipError,
    RealizationConfig,
    arrow_char_poly,
    family_index,
    sample_realization,
    to_arrow_form,
)

from polys import evaluate

ALL_PLUS_4 = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])


def _plain_arrow(pattern: SignPattern, seed: int) -> ArrowMatrix:
    """The arrow of a family pattern's sample for seed, as drawn: no tied b_j is redrawn."""
    draws = realization._signed_draws(realization._signs(pattern), random.Random(seed))
    return ArrowMatrix.from_ints(*realization._family_draw(draws))


def _random_pattern(n: int, seed: int) -> SignPattern:
    rng = random.Random(seed)
    return SignPattern([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)])


# Patterns outside the three families, whose samples take the integer-row draw.
RANDOM_5, RANDOM_7 = _random_pattern(5, 515), _random_pattern(7, 717)
# Non-family patterns whose zeros steer Berkowitz's steps on their integer
# rows.  The hub-last arrow takes the zero-border step at every border but
# the hub's, which takes the diagonal block's power sums.  The upper
# triangle takes only zero-border steps.  The block pattern's first border
# takes the diagonal step and its third a dense one; its fourth, beside the
# now dense leading 3 x 3 block, is a zero border.
HUB_LAST_6 = parse_pattern(
    "- 0 0 0 0 +\n0 - 0 0 0 -\n0 0 + 0 0 +\n0 0 0 - 0 -\n0 0 0 0 - +\n+ - + + - -"
)
UPPER_5 = parse_pattern("- + 0 - +\n0 + - + 0\n0 0 - + -\n0 0 0 0 +\n0 0 0 0 -")
BLOCK_6 = parse_pattern(
    "- + 0 0 0 0\n+ - + 0 0 0\n0 - + 0 0 0\n+ 0 - - + 0\n0 + 0 - 0 +\n- 0 0 + - -"
)


def _count_constructions(monkeypatch, *targets) -> Counter:
    """Calls of each (class, method) in targets, by class name, counted while the test runs."""
    built = Counter()

    def counting(cls, name):
        original = cls.__dict__[name]
        call = original.__func__ if isinstance(original, staticmethod) else original

        def counted(*args, **kwargs):
            built[cls.__name__] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in targets:
        counting(cls, name)
    return built


class TestHnSet:
    def test_order_4(self):
        got = {ri.as_tuple() for ri in hn_set(4)}
        assert got == {(0, 4, 0, 0), (0, 2, 0, 2), (2, 2, 0, 0)}

    def test_order_5(self):
        got = {ri.as_tuple() for ri in hn_set(5)}
        assert got == {(0, 5, 0, 0), (0, 3, 0, 2), (2, 3, 0, 0)}

    def test_too_small(self):
        with pytest.raises(ValueError):
            hn_set(2)

    def test_membership(self):
        hn = hn_set(6)
        assert RefinedInertia(0, 6, 0, 0) in hn
        assert RefinedInertia(1, 5, 0, 0) not in hn


class TestWitnesses:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_stored_4x4_triples_certified(self, i):
        suite = witness_suite(i, 4)
        pattern = family_pattern(i, 4)
        keys = set()
        for inertia, arrow in suite.witnesses:
            assert sgn_of_matrix(arrow.to_matrix()) == pattern
            assert refined_inertia_exact(char_poly(arrow.to_matrix())) == inertia
            keys.add(inertia.as_tuple())
        assert keys == {(0, 4, 0, 0), (0, 2, 0, 2), (2, 2, 0, 0)}

    def test_suite_order_7_keys(self):
        suite = witness_suite(1, 7)
        got = {ri.as_tuple() for ri, _ in suite.witnesses}
        assert got == {(0, 7, 0, 0), (0, 5, 0, 2), (2, 5, 0, 0)}

    def test_family_3_trailing_parameter_negative(self):
        suite = witness_suite(3, 5)
        for _, arrow in suite.witnesses:
            assert arrow.b[-1] < 0
            assert all(b > 0 for b in arrow.b[:-1])

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_embedding_preserves_all_but_n_minus(self, i):
        base = {ri.as_tuple(): arrow for ri, arrow in witness_suite(i, 4).witnesses}
        lifted = witness_suite(i, 6)
        for inertia, _ in lifted.witnesses:
            source = (inertia.n_plus, inertia.n_minus - 2, inertia.n_zero, inertia.two_n_p)
            assert source in base

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 7])
    def test_each_witness_certified_once(self, i, n, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return refined_inertia_exact(p)

        monkeypatch.setattr(analysis, "refined_inertia_exact", counting)
        witness_suite(i, n)
        assert len(calls) == 3
        assert all(p.degree == n for p in calls)

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 7])
    def test_hopf_witness_vanishes_at_i(self, i, n):
        # p(i) = E(-1) + i O(-1), where p(x) = E(x^2) + x O(x^2).
        witnesses = dict(witness_suite(i, n).witnesses)
        hopf = witnesses[RefinedInertia(0, n - 2, 0, 2)]
        p = arrow_char_poly(hopf)
        even, odd = (RationalPoly.from_ints(p.num[k::2], p.den) for k in (0, 1))
        assert evaluate(even, -1) == evaluate(odd, -1) == 0
        # The open-condition witnesses move only a_1, by 1/10 either way.
        sides = [witnesses[RefinedInertia(0, n, 0, 0)], witnesses[RefinedInertia(2, n - 2, 0, 0)]]
        assert sorted(arrow.a[0] - hopf.a[0] for arrow in sides) == [Fraction(-1, 10), Fraction(1, 10)]
        assert all(arrow.a[1:] == hopf.a[1:] and arrow.b == hopf.b for arrow in sides)

    def test_hopf_arrow_whose_sides_agree_raises(self, monkeypatch):
        # With spokes (1, -5) the even part has a double root at x^2 = -1, so
        # moving a_1 either way certifies (2, 2, 0, 0).
        monkeypatch.setitem(analysis._HOPF, 3, ((1, -1), (1, -5)))
        with pytest.raises(WitnessCertificationError, match="family 3, order 4 certify"):
            witness_suite(3, 4)

    def test_bad_family_index(self):
        with pytest.raises(ValueError):
            witness_suite(4, 4)
        with pytest.raises(ValueError):
            witness_suite(1, 3)


class _TwoArgumentFault(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


class TestFalsifier:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_families_consistent(self, i):
        pattern = family_pattern(i, 5)
        report = falsify_requires(pattern, 200, RealizationConfig(seed=41))
        assert report.verdict is not Verdict.COUNTEREXAMPLE
        hn = hn_set(5)
        assert all(ri in hn for ri, _ in report.histogram)
        assert sum(c for _, c in report.histogram) == 200

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_family_chunk_builds_no_arrow_polynomial_or_inertia(self, i, monkeypatch):
        # A family sample goes from its integer draws to its four counts:
        # no ArrowMatrix, RationalPoly or RefinedInertia is constructed.
        # Every constructor of the first two runs _set; the control calls
        # below show that each counter sees one construction.
        built = _count_constructions(
            monkeypatch, (ArrowMatrix, "_set"), (RationalPoly, "_set"), (RefinedInertia, "__new__")
        )
        pattern = family_pattern(i, 10)
        refined_inertia_exact(arrow_char_poly(_plain_arrow(pattern, 1)))
        assert built == {"ArrowMatrix": 1, "RationalPoly": 1, "RefinedInertia": 1}
        task = _falsify_tasks(pattern, 40, RealizationConfig(seed=i), 1)[0]
        built.clear()
        histogram, _ = analysis._falsify_chunk(task)
        assert built == {}
        assert sum(histogram.values()) == 40
        assert all(type(key) is tuple and len(key) == 4 for key in histogram)

    def test_generic_chunk_builds_no_polynomial_inertia_or_fraction(self, monkeypatch):
        # A sample outside the families goes from its integer rows to
        # det(yI - A) and its four counts: no RationalPoly, RefinedInertia or
        # Fraction is constructed.  The control, the same sample through
        # char_poly and refined_inertia_exact, shows that each counter sees
        # constructions.
        built = _count_constructions(
            monkeypatch, (RationalPoly, "_set"), (RefinedInertia, "__new__"), (Fraction, "__new__")
        )
        task = _falsify_tasks(RANDOM_7, 40, RealizationConfig(seed=7), 1)[0]
        refined_inertia_exact(char_poly(sample_realization(RANDOM_7, RealizationConfig(seed=7))))
        assert {name: built[name] > 0 for name in built} == dict.fromkeys(
            ["RationalPoly", "RefinedInertia", "Fraction"], True
        )
        built.clear()
        histogram, _ = analysis._falsify_chunk(task)
        assert built == {}
        assert sum(histogram.values()) == 40
        assert all(type(key) is tuple and len(key) == 4 for key in histogram)

    def test_family_chunk_makes_one_generator(self, monkeypatch):
        # The chunk reseeds one generator per sample rather than making one:
        # 50 samples at order 10 construct exactly one random.Random.
        made = []

        class Counted(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        task = _falsify_tasks(family_pattern(2, 10), 50, RealizationConfig(seed=3), 1)[0]
        expected = analysis._falsify_chunk(task)
        monkeypatch.setattr(random, "Random", Counted)
        assert analysis._falsify_chunk(task) == expected
        assert len(made) == 1

    @pytest.mark.parametrize(
        "pattern",
        [family_pattern(i, n) for i in (1, 2, 3) for n in (4, 5, 6, 10)]
        + [ALL_PLUS_4, RANDOM_5, RANDOM_7, HUB_LAST_6, UPPER_5, BLOCK_6],
        ids=[f"family-{i}-order-{n}" for i in (1, 2, 3) for n in (4, 5, 6, 10)]
        + ["all-plus-4", "random-order-5", "random-order-7", "hub-last-6", "upper-5", "block-6"],
    )
    def test_histogram_is_the_exact_classification(self, pattern):
        # Every sample is certified: the histogram is the Counter of the exact
        # inertias, through the generic char_poly, of the same seeded samples.
        # The falsifier reads family samples' arrow form straight from their
        # draws, and counts any other sample on det(yI - A) of its integer
        # rows A, through every Berkowitz step; order 10 pins the family
        # path at the largest benchmarked order.
        cfg = RealizationConfig(seed=29)
        report = falsify_requires(pattern, 60, cfg)
        samples = (
            sample_realization(pattern, RealizationConfig(seed=_sample_seed(cfg.seed, k)))
            for k in range(60)
        )
        expected = Counter(refined_inertia_exact(char_poly(sample)) for sample in samples)
        assert dict(report.histogram) == expected

    def test_all_plus_counterexample(self):
        report = falsify_requires(ALL_PLUS_4, 150, RealizationConfig(seed=41))
        assert report.verdict is Verdict.COUNTEREXAMPLE
        assert report.counterexample is not None
        # certified violation, re-checked here through the generic engine
        inertia = refined_inertia_exact(char_poly(report.counterexample))
        assert inertia not in hn_set(4)
        assert sgn_of_matrix(report.counterexample) == ALL_PLUS_4

    @pytest.mark.parametrize(
        "pattern", [family_pattern(3, 6), ALL_PLUS_4], ids=["family-3-order-6", "all-plus-4"]
    )
    def test_pattern_classified_once_per_call(self, pattern, monkeypatch):
        # Every sample, and every shrinking candidate, has the sampled sign
        # pattern, so the falsifier classifies it once and not per sample.
        calls = []

        def counting(matrix):
            calls.append(1)
            return family_index(matrix)

        monkeypatch.setattr(analysis, "family_index", counting)
        monkeypatch.setattr(realization, "family_index", counting)
        report = falsify_requires(pattern, 80, RealizationConfig(seed=5))
        assert (report.counterexample is not None) == (pattern == ALL_PLUS_4)
        assert len(calls) <= 1

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize(
        "pattern, family",
        [(family_pattern(3, 6), True), (ALL_PLUS_4, False)],
        ids=["family-3-order-6", "all-plus-4"],
    )
    def test_tasks_carry_the_route_as_a_flag(self, pattern, family, jobs):
        # A task is plain data: the family flag picks the route inside the
        # chunk, so no task holds a function for the pool to pickle.
        # The seed travels as the int the samplers take, not as the config.
        tasks = _falsify_tasks(pattern, 30, RealizationConfig(seed=5), jobs)
        assert len(tasks) == jobs
        assert all(task[1] is family for task in tasks)
        assert all(type(task[2]) is int and task[2] == 5 for task in tasks)
        assert not any(callable(field) for task in tasks for field in task)

    def test_budget_zero_vacuous(self):
        report = falsify_requires(family_pattern(1, 5), 0, RealizationConfig(seed=1))
        assert report.samples == 0
        assert report.histogram == ()
        assert report.verdict is Verdict.CONSISTENT

    def test_report_determinism(self):
        pattern = family_pattern(2, 5)
        cfg = RealizationConfig(seed=77)
        a = falsify_requires(pattern, 120, cfg)
        b = falsify_requires(pattern, 120, cfg)
        assert canonical_dumps(a.to_json_dict()) == canonical_dumps(b.to_json_dict())

    def test_jobs_do_not_change_report(self):
        pattern = family_pattern(1, 5)
        cfg = RealizationConfig(seed=13)
        serial = falsify_requires(pattern, 60, cfg, jobs=1)
        parallel = falsify_requires(pattern, 60, cfg, jobs=3)
        assert canonical_dumps(serial.to_json_dict()) == canonical_dumps(parallel.to_json_dict())

    def test_unpicklable_task_raises_without_starting_a_pool(self):
        # A pattern class defined in a function cannot be pickled.  Under
        # spawn, Process.start pickles the worker's tasks in this thread, so
        # the error is raised before any work starts, and no worker is left;
        # the run goes in its own session so that a hang is killed with
        # every process it started.  The tasks carry the seed as an int, so
        # a caller's config class, which never reaches a worker, runs at
        # jobs=2 as it does at jobs=1.
        script = (
            "import multiprocessing, os\n"
            "from refined_inertia import RealizationConfig, falsify_requires\n"
            "from refined_inertia.patterns import Sign, SignPattern\n"
            "multiprocessing.set_start_method('spawn')\n"
            "os.cpu_count = lambda: 2\n"
            "def run():\n"
            "    class LocalPattern(SignPattern):\n"
            "        pass\n"
            "    class LocalConfig(RealizationConfig):\n"
            "        pass\n"
            "    rows = [[Sign.PLUS] * 4 for _ in range(4)]\n"
            "    try:\n"
            "        falsify_requires(LocalPattern(rows), 20, RealizationConfig(seed=3), jobs=2)\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n"
            "    print('workers left:', multiprocessing.active_children())\n"
            "    one = falsify_requires(SignPattern(rows), 20, LocalConfig(seed=3), jobs=1)\n"
            "    two = falsify_requires(SignPattern(rows), 20, LocalConfig(seed=3), jobs=2)\n"
            "    print('config runs agree:', one == two)\n"
            "if __name__ == '__main__':\n"
            "    run()\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("falsify_requires hung on a task that cannot be pickled")
        assert proc.returncode == 0, err
        assert "LocalPattern" in out, out
        assert "workers left: []" in out, out
        assert "config runs agree: True" in out, out

    @pytest.mark.parametrize("where", ["local", "two-argument"])
    def test_unpicklable_worker_exception_arrives_as_its_name_and_message(
        self, monkeypatch, thread_processes, where
    ):
        # A class defined in a function does not pickle; _TwoArgumentFault
        # pickles but cannot be rebuilt from its one message argument.
        class LocalFault(Exception):
            pass

        fault = {"local": LocalFault("forced failure"), "two-argument": _TwoArgumentFault("forced", "failure")}
        chunk = analysis._falsify_chunk

        def fails_past_sample_0(task):
            if task[3] > 0:
                raise fault[where]
            return chunk(task)

        monkeypatch.setattr(analysis, "_falsify_chunk", fails_past_sample_0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        name = type(fault[where]).__name__
        with pytest.raises(WorkerError, match=f"^{name}: forced failure$"):
            falsify_requires(family_pattern(1, 5), 20, RealizationConfig(seed=0), jobs=2)
        assert len(thread_processes) == 1

    def test_minimized_counterexample_stays_in_class(self):
        report = falsify_requires(ALL_PLUS_4, 60, RealizationConfig(seed=5))
        ce = report.counterexample
        assert ce is not None
        assert sgn_of_matrix(ce) == ALL_PLUS_4
        # minimization pulls magnitudes toward 1
        assert max(abs(x) for row in ce for x in row) <= Fraction(1000)

    def test_histogram_csv_format(self):
        report = falsify_requires(family_pattern(1, 5), 40, RealizationConfig(seed=2))
        lines = report.histogram_csv().strip().splitlines()
        assert lines[0] == "n_plus,n_minus,n_zero,two_n_p,count"
        assert len(lines) == len(report.histogram) + 1

    def test_report_invariant_enforced(self):
        pattern = family_pattern(1, 5)
        with pytest.raises(ValueError):
            AnalysisReport(
                pattern=pattern,
                samples=1,
                histogram=((RefinedInertia(0, 5, 0, 0), 1),),
                verdict=Verdict.COUNTEREXAMPLE,
                counterexample=None,
                seed=0,
            )

    def test_family_counterexample_is_the_shrunk_first_outside_sample(self, monkeypatch, thread_processes):
        # Samples 13 and 27 are forced outside the target set.  The falsifier
        # classifies a family sample by its spoke expansion G(y), which
        # recognises them; a shrink candidate goes through char_poly and is
        # recognised by its trace, which a shrink move keeps exactly when it
        # leaves the diagonal alone.  No sample's G reads as a forced trace.
        pattern, n, budget = family_pattern(2, 6), 6, 40
        cfg = RealizationConfig(seed=17)
        drawn = [
            sample_realization(pattern, RealizationConfig(seed=_sample_seed(cfg.seed, k)))
            for k in range(budget)
        ]
        traces = [sum(sample[r][r] for r in range(n)) for sample in drawn]
        forced = {traces[13], traces[27]}
        assert sum(t in forced for t in traces) == 2
        rng, signs, spokes = random.Random(), realization._signs(pattern), []
        for k in range(budget):
            rng.seed(_sample_seed(cfg.seed, k))
            draw = realization._family_draw(realization._signed_draws(signs, rng))
            spokes.append(realization._spoke_expansion(*draw))
        forced_spokes = [spokes[13], spokes[27]]
        assert not any(Fraction(-g[-2], g[-1]) in forced for g in spokes)
        exact = analysis._exact_inertia

        def classify(num):
            if num in forced_spokes or Fraction(-num[-2], num[-1]) in forced:
                return (n, 0, 0, 0)
            return exact(num)

        monkeypatch.setattr(analysis, "_exact_inertia", classify)
        # A worker thread shares the patched classifier on every platform;
        # it samples 20..39, so sample 27 is classified there.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial, parallel = (falsify_requires(pattern, budget, cfg, jobs=j) for j in (1, 2))
        assert len(thread_processes) == 1
        assert dict(serial.histogram)[RefinedInertia(n, 0, 0, 0)] == 2
        ce = serial.counterexample
        assert ce == analysis._shrink_counterexample(drawn[13], hn_set(n))
        assert sgn_of_matrix(ce) == pattern
        for r in range(n):
            for c in range(n):
                expected = drawn[13][r][r] if r == c else Sign.from_value(drawn[13][r][c])
                assert ce[r][c] == expected, (r, c)
        assert canonical_dumps(serial.to_json_dict()) == canonical_dumps(parallel.to_json_dict())


class TestWorkerLifetime:
    """No worker process outlives falsify_each, however it ends."""

    REQUESTS = [(family_pattern(1, n), RealizationConfig(seed=n)) for n in (4, 5, 6)]

    @pytest.fixture
    def started(self, monkeypatch):
        """Real worker processes, recorded as they are made; three CPUs claimed."""
        real = multiprocessing.Process
        made = []

        def record(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(multiprocessing, "Process", record)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        return made

    @staticmethod
    def assert_reaped(started, count):
        assert len(started) == count
        assert all(process.exitcode is not None for process in started)
        assert multiprocessing.active_children() == []

    def test_exhausted(self, started):
        reports = list(falsify_each(self.REQUESTS, 30, 3))
        assert reports == [falsify_requires(pattern, 30, cfg) for pattern, cfg in self.REQUESTS]
        self.assert_reaped(started, 2)

    def test_closed_after_the_first_report(self, started):
        pattern, cfg = self.REQUESTS[0]
        reports = falsify_each(self.REQUESTS, 30, 3)
        assert next(reports) == falsify_requires(pattern, 30, cfg)
        reports.close()
        self.assert_reaped(started, 2)

    @pytest.mark.parametrize("where", [0, 1], ids=["this-process", "worker"])
    def test_fault_in_a_chunk(self, started, where):
        # The second step's chunk in task list `where` is not a task: it
        # raises there, in this process or in the first worker.
        tasks = _falsify_tasks(family_pattern(1, 5), 30, RealizationConfig(seed=0), 3)
        lists = [[task, task] for task in tasks]
        lists[where][1] = None
        steps = _run_chunks(analysis._falsify_chunk, lists, analysis._falsify_span)
        assert next(steps) == [analysis._falsify_chunk(task) for task in tasks]
        with pytest.raises(TypeError, match="cannot unpack"):
            next(steps)
        self.assert_reaped(started, 2)

    def test_failed_start_reaps_the_started(self, started, monkeypatch):
        record = multiprocessing.Process

        def second_fails(*args, **kwargs):
            if started:
                raise OSError("forced: no second worker")
            return record(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Process", second_fails)
        with pytest.raises(OSError, match="forced: no second worker"):
            next(falsify_each(self.REQUESTS, 30, 3))
        self.assert_reaped(started, 1)


FIXTURES = Path(__file__).parent / "fixtures" / "falsify"
FIXTURE_PATTERNS = {
    **{f"family-{i}-order-{n}": family_pattern(i, n) for i in (1, 2, 3) for n in (4, 10)},
    "all-plus-4": ALL_PLUS_4,
    "block-order-6": BLOCK_6,
}


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("name", FIXTURE_PATTERNS)
def test_report_bytes_match_fixture(name, jobs):
    # The fixtures were written by earlier code: the Fraction-only sampler,
    # before family samples were drawn as integers, and block-order-6 before
    # samples outside the families were counted on det(yI - A).  The sample
    # stream, the counterexample and its shrinking must not move by a byte,
    # for any job count.
    report = falsify_requires(FIXTURE_PATTERNS[name], 50, RealizationConfig(seed=7075), jobs=jobs)
    expected = (FIXTURES / f"{name}.json").read_bytes()
    assert canonical_dumps(report.to_json_dict()).encode("utf-8") == expected


CHECK_FIXTURES = Path(__file__).resolve().parents[1] / "tools" / "check_fixtures.py"


def test_check_fixtures_script_reproduces_every_report():
    # The stdlib-only job the CI runs on an interpreter with nothing
    # installed; here it runs under the test interpreter.
    argv = [sys.executable, "-W", "error::DeprecationWarning", str(CHECK_FIXTURES)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("16/16 reports match")
    assert not [line for line in result.stdout.splitlines() if line.startswith(("FAIL", "DIFF"))]


def test_check_fixtures_prints_diff_for_output_that_depends_on_jobs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("check_fixtures_under_test", CHECK_FIXTURES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real_main = script.cli.main

    def main(argv):
        if argv[0] != "lemmas":
            return real_main(argv)
        print(f"ran at {argv[argv.index('--jobs') + 1]} jobs")
        return script.cli.EXIT_OK

    monkeypatch.setattr(script.cli, "main", main)
    monkeypatch.setattr(script, "RUNS", [("lemmas -i 1 -n 6 --samples 50 --seed 7", (1, 2), False)])
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("FAIL", "DIFF"))] == [
        "DIFF riq lemmas -i 1 -n 6 --samples 50 --seed 7 --jobs 2: exit 0, the bytes of --jobs 1"
    ]
    total = len([line for line in lines if line.startswith(("ok", "DIFF"))])
    assert lines[-1].startswith(f"16/16 reports match and {total - 1}/{total} checks pass")


class TestLemmaValidation:
    def sampled_arrow(self, i, n, seed):
        cfg = RealizationConfig(seed=seed)
        sample = sample_realization(family_pattern(i, n), cfg)
        return to_arrow_form(sample)

    def test_all_checks_pass_on_samples(self):
        for seed in range(15):
            arrow = self.sampled_arrow(1, 6, seed)
            if len(set(arrow.b)) != len(arrow.b):
                continue
            results = validate_lemmas(arrow, 1)
            assert [r.check for r in results] == [
                "L-det",
                "L-sign",
                "L-excl",
                "L-low",
                "L-par",
                "L-delta",
                "L-k",
            ]
            assert all(r.status == "pass" for r in results)

    def test_membership_guard(self):
        arrow = self.sampled_arrow(1, 5, 3)
        flipped = ArrowMatrix((arrow.a[0], arrow.a[1], -arrow.a[2]) + arrow.a[3:], arrow.b)
        with pytest.raises(MembershipError):
            validate_lemmas(flipped, 1)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_membership_reads_every_parameter_sign(self, i):
        # Membership comes from the signs of the a_k and b_j alone: flipping
        # or zeroing any one of them leaves family i's class.
        for n in range(4, 8):
            arrow = self.sampled_arrow(i, n, n)
            assert len(validate_lemmas(arrow, i)) == 7
            for k in range(n):
                for x in (-arrow.a[k], 0):
                    a = arrow.a[:k] + (x,) + arrow.a[k + 1 :]
                    with pytest.raises(MembershipError):
                        validate_lemmas(ArrowMatrix(a, arrow.b), i)
            for k in range(n - 2):
                for x in (-arrow.b[k], 0):
                    b = arrow.b[:k] + (x,) + arrow.b[k + 1 :]
                    with pytest.raises(MembershipError):
                        validate_lemmas(ArrowMatrix(arrow.a, b), i)

    def test_repeated_b_rejected(self):
        arrow = ArrowMatrix([1, -1, -1, -1, -1], [2, 2, 5])
        with pytest.raises(ValueError, match="distinct b"):
            validate_lemmas(arrow, 1)

    def test_delta_against_numeric_oracle(self):
        """count_eigen_re_leq vs numpy rooting, on spectra with certified separation."""
        rng = random.Random(314)
        checked = 0
        while checked < 100:
            i = rng.choice([1, 2, 3])
            n = rng.randint(5, 7)
            arrow = self.sampled_arrow(i, n, rng.randint(0, 10**6))
            if len(set(arrow.b)) != len(arrow.b):
                continue
            M = arrow.to_matrix()
            A = np.array([[float(x) for x in row] for row in M])
            eigs = np.linalg.eigvals(A)
            scale = float(np.abs(A).sum(axis=1).max())
            for bj in arrow.b:
                r = float(bj)
                if min(abs(eigs.real + r)) <= 1e-6 * scale:
                    continue
                assert count_eigen_re_leq(M, bj) == int((eigs.real <= -r).sum())
                checked += 1

    def test_parity_chain_for_family_3(self):
        """Delta(b_j) has the parity of j for descending distinct b, family 3."""
        from refined_inertia.analysis import _sorted_descending

        checked = 0
        for seed in range(40):
            arrow = self.sampled_arrow(3, 6, seed)
            if len(set(arrow.b)) != len(arrow.b):
                continue
            arrow = ArrowMatrix(*_sorted_descending(arrow.a, arrow.b))
            M = arrow.to_matrix()
            for j in range(1, arrow.n - 2):  # j <= n - 3
                delta = count_eigen_re_leq(M, arrow.b[j - 1])
                assert delta % 2 == j % 2
            checked += 1
        assert checked >= 30

    def test_spoke_expansion_mismatch_fails_l_det(self, monkeypatch):
        # The spoke expansion is off by 1/5, num / den + 1/5.
        spoke = analysis._spoke_char_poly

        def off(a, c, b, q):
            num, den = spoke(a, c, b, q)
            return [5 * num[0] + den] + [5 * x for x in num[1:]], 5 * den

        monkeypatch.setattr(analysis, "_spoke_char_poly", off)
        arrow = self.sampled_arrow(2, 6, 11)
        results = {r.check: r for r in validate_lemmas(arrow, 2)}
        message = results["L-det"].details["error"]
        assert results["L-det"].failed
        assert "\n" not in message
        data = json.loads(message[message.index("{") :])
        assert ArrowMatrix(map(Fraction, data["a"]), map(Fraction, data["b"])) == ArrowMatrix(
            *analysis._sorted_descending(arrow.a, arrow.b)
        )
        # Nothing was certified, so the checks that read L-det's values fail
        # too; the rest run on the Berkowitz polynomial and still pass.
        assert {c for c, r in results.items() if r.failed} == {"L-det", "L-sign", "L-excl", "L-delta"}

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_excl_values_are_char_poly_at_minus_b(self, i):
        checked = 0
        for seed in range(12):
            arrow = self.sampled_arrow(i, 4 + seed % 4, seed)
            if len(set(arrow.b)) != len(arrow.b):
                continue
            results = {r.check: r for r in validate_lemmas(arrow, i)}
            p = arrow_char_poly(arrow)
            b = sorted(arrow.b, reverse=True)
            expected = {j: evaluate(p, -bj) for j, bj in enumerate(b, start=1)}
            assert results["L-excl"].details["char_poly_values"] == expected
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_l_delta_fails_when_shifted_negative_counts_move(self, i, monkeypatch):
        # One more negative eigenvalue in every shifted spectrum flips the
        # parity and the sign L-delta reads; the unshifted checks still pass.
        # Each shifted polynomial gains the factor (x + 1), a root at -1.
        shifted = analysis._shifted

        def bumped(coeffs, s, t):
            g = shifted(coeffs, s, t)
            return [x + y for x, y in zip([0, *g], [*g, 0])]

        monkeypatch.setattr(analysis, "_shifted", bumped)
        report = run_lemma_suite(i, 8, 10, RealizationConfig(seed=3))
        assert report.failures == tuple((k, "L-delta") for k in range(10))

    def test_l_delta_pairs_match_the_exact_taylor_shift(self):
        # L-delta classifies an integer shift of its Berkowitz polynomial;
        # here each pair is recounted from p(x - b_j) itself, with p read
        # off the Fraction matrix.
        checked = 0
        for k in range(108):
            i, n = 1 + k % 3, 5 + k % 6
            arrow = _plain_arrow(family_pattern(i, n), _sample_seed(29, k))
            if len(set(arrow.b)) != len(arrow.b):
                continue
            pairs = {r.check: r for r in validate_lemmas(arrow, i)}["L-delta"].details["pairs"]
            p = char_poly(arrow.to_matrix())
            b = sorted(arrow.b, reverse=True)
            expected = {}
            for j in range(1, n - 2):
                shifted = refined_inertia_exact(p.taylor_shift(-b[j - 1]))
                expected[j] = (shifted.n_minus, shifted.n_minus + shifted.n_zero + shifted.two_n_p)
            assert pairs == expected
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("n", [5, 10, 40])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_hub_last_polynomial_is_the_arrows(self, i, n, monkeypatch):
        # validate_lemmas hands Berkowitz the rows with the hub last, so
        # every border column before the hub's is zero; its polynomial is
        # the spoke expansion's and the hub-first kernel's.  The checks that
        # follow are cut off, since L-delta's shifts dominate at order 40.
        class Built(Exception):
            pass

        built = []

        def capture(rows, scale):
            built.append((rows, engine._integer_char_poly(rows, scale)))
            raise Built

        monkeypatch.setattr(analysis, "_char_poly_ints", capture)
        arrow = _plain_arrow(family_pattern(i, n), _sample_seed(7, 0))
        assert len(set(arrow.b_num)) == n - 2
        with pytest.raises(Built):
            validate_lemmas(arrow, i)
        (rows, p), = built
        assert all(not any(rows[r][k] for r in range(k)) for k in range(n - 1))
        assert p == arrow_char_poly(arrow)
        assert p == engine._integer_char_poly(*arrow.integer_rows())

    def test_suite_runner(self):
        report = run_lemma_suite(3, 5, 25, RealizationConfig(seed=6))
        assert report.all_passed
        assert report.samples == 25
        assert all(label.endswith(":pass") for label, _ in report.check_counts)

    def test_suite_runner_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_lemma_suite(1, 5, -3, RealizationConfig(seed=0))

    @staticmethod
    def drawn_arrows(monkeypatch, i, n, samples, seed):
        """The arrows run_lemma_suite hands _lemma_checks, which is stubbed to check nothing."""
        arrows = []

        def record(a, a_den, b, b_den, i):
            arrows.append(ArrowMatrix.from_ints(a, a_den, b, b_den))
            return (), None

        monkeypatch.setattr(analysis, "_lemma_checks", record)
        report = run_lemma_suite(i, n, samples, RealizationConfig(seed=seed))
        assert report.all_passed and report.check_counts == ()
        return arrows

    def test_suite_runner_redraws_only_a_tied_b(self, monkeypatch):
        # Sample 1263 of family 1, order 6, seed 2 draws b_4 equal to b_1.
        # Only that draw is redrawn, from the same stream, and every other
        # sample, the ones after it too, is its plain draw.
        pattern = family_pattern(1, 6)
        arrows = self.drawn_arrows(monkeypatch, 1, 6, 1266, 2)
        assert len(arrows) == 1266
        for k, arrow in enumerate(arrows):
            assert len(set(arrow.b)) == 4, k
            if k != 1263:
                assert arrow == _plain_arrow(pattern, _sample_seed(2, k)), k
        tied, plain = arrows[1263], _plain_arrow(pattern, _sample_seed(2, 1263))
        assert plain.b[3] == plain.b[0]
        assert tied.a == plain.a and tied.b[:3] == plain.b[:3] and tied.b[3] != plain.b[3]

    def test_suite_runner_makes_one_generator(self, monkeypatch):
        # One generator serves every sample of a call: it is reseeded per
        # sample, not made twice per sample.
        made = []

        class Counted(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        expected = run_lemma_suite(2, 6, 5, RealizationConfig(seed=4))
        monkeypatch.setattr(random, "Random", Counted)
        assert run_lemma_suite(2, 6, 5, RealizationConfig(seed=4)) == expected
        assert made == [(4,)]

    def test_suite_runner_has_no_order_bound(self, monkeypatch):
        # At order 2000 the 1998 b_j tie often; each tie is redrawn, so every
        # sample comes out with distinct b.
        arrows = self.drawn_arrows(monkeypatch, 1, 2000, 5, 1)
        assert len(arrows) == 5
        assert all(len(set(arrow.b_num)) == 1998 for arrow in arrows)
        pattern = family_pattern(1, 2000)
        assert any(len(set(_plain_arrow(pattern, _sample_seed(1, k)).b_num)) < 1998 for k in range(5))

    def test_suite_runner_reads_the_integer_draw(self, monkeypatch):
        # The arrow form comes from the integer draws and every check runs
        # on its integers: no sample becomes a Fraction matrix, is classified
        # by its signs, has its rows brought back to integers, or has its
        # parameters read as Fractions.
        def refuse(*args):
            raise AssertionError("run_lemma_suite left the integer path")

        monkeypatch.setattr(analysis, "sample_realization", refuse)
        monkeypatch.setattr(realization, "sample_realization", refuse)
        monkeypatch.setattr(analysis, "family_index", refuse)
        monkeypatch.setattr(realization, "family_index", refuse)
        monkeypatch.setattr(ArrowMatrix, "to_matrix", refuse)
        monkeypatch.setattr(analysis, "rational_rows", refuse)
        monkeypatch.setattr(engine, "rational_rows", refuse)
        monkeypatch.setattr(realization, "rational_rows", refuse)
        monkeypatch.setattr(ArrowMatrix, "a", property(refuse))
        monkeypatch.setattr(ArrowMatrix, "b", property(refuse))
        report = run_lemma_suite(2, 6, 5, RealizationConfig(seed=4))
        assert report.all_passed and report.samples == 5


class TestLemmaRunner:
    """run_lemma_suite on the chunk runner: contiguous k ranges, one per process."""

    def test_chunk_builds_no_arrow_polynomial_inertia_check_or_fraction(self, monkeypatch):
        # A lemma sample goes from its integer draws to seven statuses: no
        # ArrowMatrix, RationalPoly, RefinedInertia, LemmaCheck or Fraction
        # is constructed.  The control calls show that each counter sees
        # constructions.
        built = _count_constructions(
            monkeypatch,
            (ArrowMatrix, "_set"),
            (RationalPoly, "_set"),
            (RefinedInertia, "__new__"),
            (analysis.LemmaCheck, "__init__"),
            (Fraction, "__new__"),
        )
        arrow = _plain_arrow(family_pattern(2, 8), 1)
        refined_inertia_exact(arrow_char_poly(arrow))
        validate_lemmas(arrow, 2)
        assert {name: built[name] > 0 for name in built} == dict.fromkeys(
            ["ArrowMatrix", "RationalPoly", "RefinedInertia", "LemmaCheck", "Fraction"], True
        )
        built.clear()
        failures, counts = analysis._lemma_chunk((2, 8, 5, 0, 20))
        assert built == {}
        assert failures == [] and sum(counts.values()) == 20 * 7

    def test_reports_are_equal_at_jobs_1_2_and_3(self, monkeypatch, thread_processes):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for i in (1, 2, 3):
            reports = [run_lemma_suite(i, 6, 25, RealizationConfig(seed=4), jobs=jobs) for jobs in (1, 2, 3)]
            assert reports[1:] == reports[:1] * 2
            assert reports[0].all_passed and dict(reports[0].check_counts)["L-det:pass"] == 25
        # Per family, jobs 2 starts one worker and jobs 3 two; each takes a
        # contiguous run of k after this process's.
        assert [worker.tasks for worker in thread_processes[:3]] == [
            [(1, 6, 4, 12, 13)],
            [(1, 6, 4, 8, 8)],
            [(1, 6, 4, 16, 9)],
        ]

    def test_failures_from_two_chunks_merge_in_k_order(self, monkeypatch, thread_processes):
        # Every check fails on a sample whose a_1 numerator is a multiple
        # of 3; such samples fall in both halves, and the merged report lists
        # them in k order, each sample's checks in their fixed order, as at
        # jobs 1.
        def fails_on_a_multiple_of_3(a, a_den, b, b_den, i):
            return (a[0] % 3 != 0,) * 7, None

        monkeypatch.setattr(analysis, "_lemma_checks", fails_on_a_multiple_of_3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial, parallel = (run_lemma_suite(1, 7, 40, RealizationConfig(seed=8), jobs=j) for j in (1, 2))
        assert len(thread_processes) == 1
        assert parallel == serial
        failed = sorted({k for k, _ in serial.failures})
        assert min(failed) < 20 <= max(failed)
        assert serial.failures == tuple((k, check) for k in failed for check in analysis._LEMMA_CHECKS)
        counts = dict(serial.check_counts)
        assert counts["L-k:fail"] == len(failed) and counts["L-k:pass"] == 40 - len(failed)

    def test_lemma_task_pickles_without_a_sign_pattern(self, monkeypatch, thread_processes):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_lemma_suite(3, 9, 6, RealizationConfig(seed=2), jobs=2)
        [worker] = thread_processes
        assert worker.chunk is analysis._lemma_chunk
        [task] = worker.tasks
        assert task == (3, 9, 2, 3, 3)
        assert all(type(x) is int for x in task)
        payload = pickle.dumps(task)
        assert pickle.loads(payload) == task
        assert b"SignPattern" not in payload

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="only a forked worker inherits the patch"
    )
    def test_dead_lemma_worker_raises_worker_error(self, monkeypatch):
        chunk = analysis._lemma_chunk

        def dies_past_sample_0(task):
            if task[3] > 0:
                os._exit(1)
            return chunk(task)

        monkeypatch.setattr(analysis, "_lemma_chunk", dies_past_sample_0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
        message = "^a sampling process exited with code 1 before it sent samples 5..9 of order 6$"
        with pytest.raises(WorkerError, match=message):
            run_lemma_suite(2, 6, 10, RealizationConfig(seed=0), jobs=2)
        assert multiprocessing.active_children() == []


class TestSerialization:
    def test_report_json_shape(self):
        report = falsify_requires(family_pattern(1, 5), 30, RealizationConfig(seed=9))
        data = report.to_json_dict()
        text = canonical_dumps(data)
        parsed = json.loads(text)
        assert parsed["samples"] == 30
        assert parsed["seed"] == 9
        assert parsed["verdict"] == "ConsistentWithRequires"
        assert parsed["counterexample"] is None
        for entry in parsed["histogram"]:
            assert set(entry) == {"inertia", "count"}

    def test_verdicts_answer_only_the_requires_direction(self):
        # The witness suites report the allows direction; a falsifier report
        # either finds a certified outside inertia or does not.
        assert [v.value for v in Verdict] == ["ConsistentWithRequires", "CounterexampleFound"]

    def test_witness_suite_json_shape(self):
        data = witness_suite(2, 5).to_json_dict()
        assert data["order"] == 5
        assert len(data["witnesses"]) == 3
        for item in data["witnesses"]:
            assert set(item) == {"inertia", "arrow", "matrix"}
            n = item["matrix"]["n"]
            assert len(item["matrix"]["entries"]) == n * n
