"""The benchmark tracer's hooks resolve in the package.

bench/spans.py wraps package functions by module and attribute name, so a
rename or a changed return shape breaks only the traced benchmark runs.
These tests load it by file path and check its targets without sympy.
"""

import importlib
import importlib.util
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from refined_inertia import analysis
from refined_inertia.engine import RefinedInertia
from refined_inertia.patterns import family_pattern
from refined_inertia.realization import RealizationConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(f"refined_inertia.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_resolves():
    targets = list(_load_spans().SPANS.values())
    targets += [("analysis", "_exact_inertia"), ("ratpoly", "RationalPoly.taylor_shift")]
    for module_name, attr in targets:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_numeric_hook_returns_the_pair_the_tracer_unpacks():
    pytest.importorskip("numpy")
    inertia, flag = _resolve("engine", "_numeric_inertia_flagged")([[-1, 0], [0, 2]])
    assert inertia == RefinedInertia(1, 1, 0, 0)
    assert isinstance(flag, bool)


def test_traced_run_counts_the_hooked_calls():
    # The tracer's wrappers keep each hooked function's call shape: a traced
    # falsifier and lemma run give the untraced results.
    pattern = family_pattern(2, 5)
    cfg = RealizationConfig(seed=3)
    plain = analysis.falsify_requires(pattern, 12, cfg), analysis.run_lemma_suite(2, 5, 2, cfg)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        traced = analysis.falsify_requires(pattern, 12, cfg), analysis.run_lemma_suite(2, 5, 2, cfg)
        analysis.validate_lemmas(analysis.witness_suite(2, 4).witnesses[0][1], 2)
    finally:
        tracer.uninstall()
    assert traced == plain
    # The tracer counts calls of _exact_inertia, which classifies a block of
    # samples: the 12 samples are one block, so one call.
    assert tracer.escalations == 1
    assert tracer.calls["analysis.falsify_requires"] == 1
    # The suite's samples run on the integer core, _lemma_checks, which
    # reads the spoke expansion's and the shift determinants' integers:
    # only the one direct call is a validate_lemmas span, and neither it
    # nor the falsifier's samples reach arrow_char_poly or arrow_shift_det.
    # The three witnesses do reach arrow_char_poly.
    assert tracer.calls["analysis.validate_lemmas"] == 1
    assert tracer.calls["realization.arrow_char_poly"] == 3
    assert tracer.calls["engine.arrow_shift_det"] == 0
    # uninstall put the originals back
    assert analysis.refined_inertia_exact.__module__ == "refined_inertia.engine"


def test_traced_pool_run_gives_the_untraced_report():
    # The tracer replaces hooked functions with closures, which do not
    # pickle, so no chunk task may carry one: a traced falsifier run on a
    # pattern outside the families, through a process pool, returns the
    # untraced report.  The traced run comes first, before any pool has
    # opened, and runs in its own session under a timeout, so a pool that
    # never returns fails the test and its workers are killed with it.
    script = (
        "import importlib.util, os, sys\n"
        "import refined_inertia.cli  # the tracer hooks every package module\n"
        "from refined_inertia import analysis\n"
        "from refined_inertia.patterns import Sign, SignPattern\n"
        "from refined_inertia.realization import RealizationConfig\n"
        "spec = importlib.util.spec_from_file_location('bench_spans_under_test', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "os.cpu_count = lambda: 2\n"
        "def report():\n"
        "    pattern = SignPattern([[Sign.PLUS] * 4 for _ in range(4)])\n"
        "    found = analysis.falsify_requires(pattern, 20, RealizationConfig(seed=3), jobs=2)\n"
        "    return analysis.canonical_dumps(found.to_json_dict())\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "try:\n"
        "    traced = report()\n"
        "finally:\n"
        "    tracer.uninstall()\n"
        "plain = report()\n"
        "print(traced == plain, tracer.calls['analysis.falsify_requires'], tracer.calls['analysis.shrink'])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(SPANS_PATH)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the traced falsifier run with jobs=2 did not return within 60 s")
    assert proc.returncode == 0, err
    assert out.split() == ["True", "1", "1"]
