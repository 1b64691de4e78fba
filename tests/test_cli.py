"""CLI behavior: outputs, exit codes, reproducibility."""

import contextlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refined_inertia import analysis, cli, engine, realization
from refined_inertia.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from refined_inertia.engine import InternalCheckError
from refined_inertia.patterns import family_pattern
from refined_inertia.ratpoly import RationalPoly, _primitive
from refined_inertia.realization import ArrowMatrix, matrix_to_json

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "a1_5.sp"
    path.write_text(family_pattern(1, 5).render())
    return str(path)


@pytest.fixture
def all_plus_file(tmp_path):
    path = tmp_path / "allplus.sp"
    path.write_text("\n".join(["+ + + +"] * 4))
    return str(path)


def test_family_text_output(capsys):
    assert main(["family", "-i", "1", "-n", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.strip() == "+ + + +\n- 0 0 0\n- 0 - 0\n- 0 0 -"


def test_family_json_output(capsys):
    assert main(["family", "-i", "2", "-n", "4", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data[0] == ["-", "+", "+", "+"]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_family_json_is_streamed_as_the_canonical_text(capsys, i):
    # riq family --json writes the pattern's JSON as it is encoded
    # (canonical_dump); the bytes are canonical_dumps'.
    data = family_pattern(i, 7).to_json()
    buffer = io.StringIO()
    analysis.canonical_dump(data, buffer)
    assert buffer.getvalue() == analysis.canonical_dumps(data)
    assert main(["family", "-i", str(i), "-n", "7", "--json"]) == EXIT_OK
    assert capsys.readouterr().out == analysis.canonical_dumps(data)


def test_family_bad_order_is_usage_error(capsys):
    assert main(["family", "-i", "1", "-n", "3"]) == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["not-a-command"])
    assert info.value.code == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_bad_family_choice_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["family", "-i", "9", "-n", "4"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines() == ["riq family: error: argument -i/--family: invalid choice: 9 (choose from 1, 2, 3)"]


def test_inertia_exact(tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(matrix_to_json([[-1, 0, 0, 0], [0, -2, 0, 0], [0, 0, -3, 0], [0, 0, 0, -4]])))
    assert main(["inertia", "--matrix", str(path), "--exact"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["inertia"] == {"n_plus": 0, "n_minus": 4, "n_zero": 0, "two_n_p": 2 * 0}
    assert data["method"] == "exact"


def test_inertia_float_matrix_goes_numeric(tmp_path, capsys):
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"n": 2, "entries": [0.0, 1.0, -1.0, 0.0]}))
    assert main(["inertia", "--matrix", str(path)]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "numeric"
    assert data["inertia"]["two_n_p"] == 2


def test_numpy_is_imported_only_by_the_numeric_path(tmp_path):
    # A fresh interpreter: importing the CLI leaves numpy unloaded, and
    # `riq inertia --numeric` loads it on first use and still classifies.
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"n": 2, "entries": [0.0, 1.0, -1.0, 0.0]}))
    script = (
        "import sys\n"
        "import refined_inertia.cli as cli\n"
        "print('numpy' in sys.modules)\n"
        "code = cli.main(['inertia', '--matrix', sys.argv[1], '--numeric'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == f"{EXIT_OK} True"
    data = json.loads("\n".join(lines[1:-1]))
    assert data["method"] == "numeric"
    assert data["inertia"] == {"n_plus": 0, "n_minus": 0, "n_zero": 0, "two_n_p": 2}


def test_process_pool_is_imported_only_when_a_pool_opens(all_plus_file):
    # A fresh interpreter: importing the CLI and a --jobs 1 falsify leave
    # multiprocessing unloaded; a --jobs 2 falsify, on two CPUs, loads it
    # to start its worker and prints the same report.
    script = (
        "import contextlib, io, os, sys\n"
        "import refined_inertia.cli as cli\n"
        "def loaded():\n"
        "    return 'multiprocessing' in sys.modules\n"
        "def falsify(jobs):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(['falsify', '--pattern', sys.argv[1], '--budget', '20', '--seed', '3', '--jobs', jobs])\n"
        "    return code, out.getvalue()\n"
        "print(loaded())\n"
        "serial = falsify('1')\n"
        "print(serial[0], loaded())\n"
        "os.cpu_count = lambda: 2\n"
        "pooled = falsify('2')\n"
        "print(pooled[0], loaded(), pooled == serial)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script, all_plus_file], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "False",
        f"{EXIT_COUNTEREXAMPLE} False",
        f"{EXIT_COUNTEREXAMPLE} True True",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "-i", "1", "-n", "3000"],
        ["analyze", "-i", "1", "--n-range", "4..5", "--budget", "5", "--seed", "0", "--jobs", "1"],
        ["family", "-i", "1", "-n", "300", "--json"],
    ],
    ids=["family", "analyze", "family-json"],
)
def test_closed_stdout_exits_2_without_traceback(argv):
    # The reader closes the pipe before the command writes, as `riq ... |
    # head` does once head has read enough: the write or the final flush
    # fails, and the command exits 2 (I/O error) with nothing on stderr.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "refined_inertia.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_IO
    assert err == b"", err.decode()  # no traceback, no message


def test_inertia_float_matrix_exact_is_input_error(tmp_path, capsys):
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"n": 1, "entries": [0.5]}))
    assert main(["inertia", "--matrix", str(path), "--exact"]) == EXIT_IO


def test_inertia_missing_file_exits_2(capsys):
    assert main(["inertia", "--matrix", "/nonexistent.json"]) == EXIT_IO


def test_witness_stdout_and_file(tmp_path, capsys):
    assert main(["witness", "-i", "3", "-n", "5"]) == EXIT_OK
    streamed = capsys.readouterr().out
    out = tmp_path / "suite.json"
    assert main(["witness", "-i", "3", "-n", "5", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == streamed
    data = json.loads(streamed)
    assert len(data["witnesses"]) == 3


def test_falsify_consistent_exit_0(pattern_file, capsys):
    assert main(["falsify", "--pattern", pattern_file, "--budget", "40", "--seed", "3"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "ConsistentWithRequires"


def test_falsify_counterexample_exit_3(all_plus_file, capsys):
    code = main(["falsify", "--pattern", all_plus_file, "--budget", "40", "--seed", "3"])
    assert code == EXIT_COUNTEREXAMPLE
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "CounterexampleFound"
    assert data["counterexample"] is not None


def test_falsify_byte_reproducible(pattern_file, capsys):
    main(["falsify", "--pattern", pattern_file, "--budget", "50", "--seed", "11"])
    first = capsys.readouterr().out
    main(["falsify", "--pattern", pattern_file, "--budget", "50", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second


def test_falsify_csv_export(pattern_file, tmp_path, capsys):
    out = tmp_path / "hist.csv"
    main(["falsify", "--pattern", pattern_file, "--budget", "30", "--seed", "1", "--csv", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_plus,n_minus,n_zero,two_n_p,count"


def test_falsify_seed_env_default(pattern_file, capsys, monkeypatch):
    monkeypatch.setenv("RI_SEED", "11")
    main(["falsify", "--pattern", pattern_file, "--budget", "50"])
    via_env = capsys.readouterr().out
    monkeypatch.delenv("RI_SEED")
    main(["falsify", "--pattern", pattern_file, "--budget", "50", "--seed", "11"])
    via_flag = capsys.readouterr().out
    assert via_env == via_flag


def test_falsify_bad_pattern_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sp"
    bad.write_text("+ x\n0 0")
    assert main(["falsify", "--pattern", str(bad), "--budget", "5"]) == EXIT_IO


def test_lemmas_all_pass_exit_0(capsys):
    assert main(["lemmas", "-i", "2", "-n", "5", "--samples", "5", "--seed", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all lemma checks passed" in out


def test_lemmas_usage_guard(capsys):
    assert main(["lemmas", "-i", "2", "-n", "3", "--samples", "5"]) == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_analyze_table(capsys):
    code = main(["analyze", "-i", "2", "--n-range", "4..5", "--budget", "40", "--seed", "7"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[1].startswith("n ")
    assert len(lines) == 4  # header line, column line, two order rows
    for row in lines[2:]:
        assert "yes" in row


def _fake_cauchy_index(index):
    """A stand-in for the Cauchy-index chain: a fixed index and a constant tail."""
    return lambda *args: (index, [1])


def _fake_cauchy_indices(index):
    """A stand-in for the block chain, cauchy_index_lines: a fixed index and a constant tail for each pair."""
    return lambda f0_columns, f1_columns, f0_odd: [(index, [1])] * len(f0_columns[0])


def test_falsify_internal_check_failure_exits_4(all_plus_file, capsys, monkeypatch):
    # A Cauchy index off by one breaks the half-plane parity identity.  The
    # falsifier counts its samples in blocks, so the fault is in the block chain.
    monkeypatch.setattr(engine, "cauchy_index_lines", _fake_cauchy_indices(1))
    argv = ["falsify", "--pattern", all_plus_file, "--budget", "10", "--seed", "0", "--jobs", "1"]
    assert main(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal check failure: ")


def test_falsify_index_beyond_degree_exits_4(tmp_path, capsys, monkeypatch):
    # An index of the right parity but larger than the axis-free degree 4.
    path = tmp_path / "a1_4.sp"
    path.write_text(family_pattern(1, 4).render())
    monkeypatch.setattr(engine, "cauchy_index_lines", _fake_cauchy_indices(6))
    argv = ["falsify", "--pattern", str(path), "--budget", "5", "--seed", "0", "--jobs", "1"]
    assert main(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal check failure: half-plane difference -6 exceeds ")


def test_inertia_exact_internal_check_failure_exits_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "diag.json"
    path.write_text('{"n": 2, "entries": [[-1, 1], [0, 1], [0, 1], [-2, 1]]}')
    monkeypatch.setattr(engine, "cauchy_index_line", _fake_cauchy_index(1))
    assert main(["inertia", "--matrix", str(path), "--exact"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal check failure: half-plane split has impossible parity")


def test_analyze_internal_check_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(engine, "cauchy_index_lines", _fake_cauchy_indices(1))
    argv = ["analyze", "-i", "1", "--n-range", "4..4", "--budget", "10", "--seed", "0"]
    argv += ["--jobs", "1"]
    assert main(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("internal check failure at order 4: ")


def test_analyze_witness_internal_check_marks_row(capsys, monkeypatch):
    def broken(i, n):
        raise InternalCheckError(f"forced failure at order {n}")

    monkeypatch.setattr(cli, "witness_suite", broken)
    argv = ["analyze", "-i", "2", "--n-range", "4..4", "--budget", "10", "--seed", "0"]
    argv += ["--jobs", "1"]
    assert main(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2].split()[:4] == ["4", "10", "yes", "NO"]
    assert captured.err == "internal check failure at order 4: forced failure at order 4\n"


def _break_witness_fixture(monkeypatch):
    """Give family 1's Hopf arrow spokes (-3, -3), which make a_2 = 11/10 > 0, out of the class."""
    monkeypatch.setitem(analysis._HOPF, 1, ((1, 2), (-3, -3)))


@pytest.mark.parametrize("order", ["4", "6"])
def test_witness_outside_class_exits_4(capsys, monkeypatch, order):
    # The base is checked before it is lifted, so both orders name it.
    _break_witness_fixture(monkeypatch)
    assert main(["witness", "-i", "1", "-n", order]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"internal check failure: witness for family 1, order {order} ")
    assert 'arrow {"a": ["27/10", "11/10", "-3/1", "-3/1"], ' in captured.err


def test_analyze_witness_outside_class_marks_row(capsys, monkeypatch):
    _break_witness_fixture(monkeypatch)
    argv = ["analyze", "-i", "1", "--n-range", "6..6", "--budget", "10", "--seed", "0"]
    argv += ["--jobs", "1"]
    assert main(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2].split()[:4] == ["6", "10", "yes", "NO"]
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal check failure at order 6: ")


def _deep_value_error(*args):
    raise ValueError("forced failure inside the exact engine")


_ANALYZE_HEADER = (
    "family 1, orders 4..4, budget 5, seed 0\n"
    "n   samples  inside_target  all3_realized  verdict\n"
)


@pytest.mark.parametrize(
    "chain, argv, out, err",
    [
        (
            "cauchy_index_lines",
            ["falsify", "--pattern", "{pattern}", "--budget", "5", "--seed", "0", "--jobs", "1"],
            "",
            "internal error: ",
        ),
        ("cauchy_index_line", ["witness", "-i", "1", "-n", "4"], "", "internal error: "),
        ("cauchy_index_line", ["lemmas", "-i", "1", "-n", "5", "--samples", "2", "--seed", "0"], "", "internal error: "),
        (
            "cauchy_index_lines",
            ["analyze", "-i", "1", "--n-range", "4..4", "--budget", "5", "--seed", "0"],
            _ANALYZE_HEADER,
            "internal error at order 4: ",
        ),
        (
            # With no samples drawn, the witness certification is the first to fail.
            "cauchy_index_line",
            ["analyze", "-i", "1", "--n-range", "4..4", "--budget", "0", "--seed", "0"],
            _ANALYZE_HEADER.replace("budget 5", "budget 0"),
            "internal error at order 4: ",
        ),
    ],
    ids=["falsify", "witness", "lemmas", "analyze", "analyze-witness"],
)
def test_value_error_inside_pipeline_exits_4(pattern_file, capsys, monkeypatch, chain, argv, out, err):
    # Usage is checked before the pipeline runs, so a ValueError raised
    # inside the exact engine is an internal failure, not bad usage.  The
    # falsifier's samples are counted by the block chain, cauchy_index_lines,
    # and a single polynomial by cauchy_index_line.
    monkeypatch.setattr(engine, chain, _deep_value_error)
    assert main([arg.format(pattern=pattern_file) for arg in argv]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err + "forced failure inside the exact engine\n"


def test_analyze_bad_range(capsys):
    for n_range in ("8", "5..4"):
        assert main(["analyze", "-i", "1", "--n-range", n_range, "--budget", "10"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("n_range", ["4..x", "x..5", "4..", "4..5.5"])
def test_analyze_non_integer_range_bound(capsys, n_range):
    assert main(["analyze", "-i", "1", "--n-range", n_range, "--budget", "10"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: range must look like A..B, got '{n_range}'\n"


# -- worker processes ----------------------------------------------------------


@pytest.mark.parametrize(
    "budget, jobs, cpus, workers",
    [(500, 5000, 3, [3]), (2, 5000, 3, [2]), (500, 2, 3, [2]), (500, 5000, None, [])],
)
def test_falsify_workers_capped(
    pattern_file, capsys, monkeypatch, thread_processes, budget, jobs, cpus, workers
):
    # The cap is min(--jobs, --budget, CPU count) sampling processes, this
    # one included, so it starts one fewer; workers lists the cap when it
    # is above one, and one sampling process starts no other.
    argv = ["falsify", "--pattern", pattern_file, "--budget", str(budget), "--seed", "2"]
    assert main(argv + ["--jobs", "1"]) == EXIT_OK
    serial = capsys.readouterr().out
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert main(argv + ["--jobs", str(jobs)]) == EXIT_OK
    assert len(thread_processes) == max(workers, default=1) - 1
    assert capsys.readouterr().out == serial


def test_analyze_opens_one_pool(capsys, monkeypatch, thread_processes):
    # --jobs 2 starts one worker for the whole run: it samples the second
    # half of every order, and it has returned when the run does, without
    # a kill, since it sent every result.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["analyze", "-i", "3", "--n-range", "4..7", "--budget", "20", "--seed", "0"]
    assert main(argv + ["--jobs", "2"]) == EXIT_OK
    [worker] = thread_processes
    assert [task[0] for task in worker.tasks] == [4, 5, 6, 7]
    assert all(task[2:4] == (10, 10) for task in worker.tasks)
    assert not worker.is_alive()
    assert not worker.killed
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_analyze_failure_at_second_order_shuts_the_pool(capsys, monkeypatch, thread_processes):
    # The fault is raised in this process's chunk of order 5 before the
    # worker's result for that order is read, so the worker still owes
    # orders 5..7 and is killed.
    exact = analysis._exact_inertia

    def broken_at_order_5(block):
        if any(len(num) - 1 == 5 for num in block):
            raise InternalCheckError("forced failure at degree 5")
        return exact(block)

    monkeypatch.setattr(analysis, "_exact_inertia", broken_at_order_5)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["analyze", "-i", "2", "--n-range", "4..7", "--budget", "20", "--seed", "0"]
    assert main(argv + ["--jobs", "2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]
    assert [row.split()[:4] for row in rows] == [["4", "20", "yes", "yes"]]
    assert captured.err == "internal check failure at order 5: forced failure at degree 5\n"
    [worker] = thread_processes
    assert worker.killed
    assert not worker.is_alive()


def _analyze_order_5_sample_13():
    """Sample 13 of order 5 in `riq analyze -i 2 --seed 0`: its arrow's integers and their G(y).

    G is _spoke_expansion's polynomial, the one the falsifier classifies.
    """
    pattern = family_pattern(2, 5)
    draws = realization._signed_draws(realization._signs(pattern), random.Random(analysis._sample_seed(0 + 5, 13)))
    draw = realization._family_draw(draws)
    return draw, realization._spoke_expansion(*draw)


def test_worker_check_failure_is_reported_as_at_jobs_1(capsys, monkeypatch, thread_processes):
    # Sample 13 of order 5 falls in the worker's chunk at --jobs 2 (samples
    # 10..19) and in this process's at --jobs 1: its classifier fails in
    # either, and the run stops at the same order with the same line.
    _, target = _analyze_order_5_sample_13()
    exact = analysis._exact_inertia

    def broken_at_sample_13(block):
        if target in block:
            raise InternalCheckError("forced failure at sample 13")
        return exact(block)

    monkeypatch.setattr(analysis, "_exact_inertia", broken_at_sample_13)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["analyze", "-i", "2", "--n-range", "4..7", "--budget", "20", "--seed", "0"]
    outputs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == EXIT_INTERNAL
        outputs.append(capsys.readouterr())
    assert outputs[0].err == "internal check failure at order 5: forced failure at sample 13\n"
    assert outputs[1] == outputs[0]
    # The worker stopped at its own fault and owes nothing, so it is not killed.
    [worker] = thread_processes
    assert not worker.killed


def test_falsifier_check_failure_names_a_polynomial_that_reproduces_it(capsys, monkeypatch, thread_processes):
    # The chain miscounts one sample's half-plane split, sample 13 of order
    # 5, at any positive scale.  The falsifier classifies that sample's
    # spoke expansion G(y) as it comes, so its one line names G, which
    # rescales to the sample's characteristic polynomial and on which
    # refined_inertia_exact fails the same check; --jobs 2 meets the
    # sample in the worker and prints the same line.  The falsifier counts
    # the sample in a block and refined_inertia_exact alone, so both the
    # block chain and the one-pair chain miscount its pair.
    (a, c, b, q), target = _analyze_order_5_sample_13()
    chain, chains = engine.cauchy_index_line, engine.cauchy_index_lines
    first_calls = []
    monkeypatch.setattr(engine, "cauchy_index_line", lambda *args: first_calls.append(args) or chain(*args))
    engine._inertia_counts(target)
    monkeypatch.undo()
    f0, f1, _ = first_calls[0]
    miscounted = (_primitive(f0), _primitive(f1))

    def miscounting(f0, f1, f0_odd):
        index, tail = chain(f0, f1, f0_odd)
        return index + ((_primitive(f0), _primitive(f1)) == miscounted), tail

    def miscounting_block(f0_columns, f1_columns, f0_odd):
        pairs = zip(zip(*f0_columns), zip(*f1_columns))
        return [
            (index + ((_primitive(f0), _primitive(f1)) == miscounted), tail)
            for (index, tail), (f0, f1) in zip(chains(f0_columns, f1_columns, f0_odd), pairs)
        ]

    monkeypatch.setattr(engine, "cauchy_index_line", miscounting)
    monkeypatch.setattr(engine, "cauchy_index_lines", miscounting_block)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["analyze", "-i", "2", "--n-range", "4..7", "--budget", "20", "--seed", "0"]
    outputs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == EXIT_INTERNAL
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    [line] = outputs[0].err.splitlines()
    prefix = "internal check failure at order 5: half-plane split has impossible parity; polynomial "
    assert line.startswith(prefix)
    data = json.loads(line[len(prefix) :])
    assert data == {"num": target, "den": 1}
    rescaled = RationalPoly.from_ints([g * q**k for k, g in enumerate(target)], c * q**5)
    assert rescaled == realization.arrow_char_poly(ArrowMatrix.from_ints(a, c, b, q))
    named = RationalPoly.from_ints(data["num"], data["den"])
    with pytest.raises(InternalCheckError, match="impossible parity") as info:
        engine.refined_inertia_exact(named)
    assert f"polynomial {json.dumps(data)}" in str(info.value)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="only a forked worker inherits the patch"
)
@pytest.mark.parametrize(
    "argv, out, err",
    [
        (
            ["analyze", "-i", "1", "--n-range", "4..5", "--budget", "20", "--seed", "0", "--jobs", "2"],
            "family 1, orders 4..5, budget 20, seed 0\nn   samples  inside_target  all3_realized  verdict\n",
            "internal error at order 4: a sampling process exited with code 1 before it sent samples 10..19 of order 4\n",
        ),
        (
            ["falsify", "--pattern", "{pattern}", "--budget", "20", "--seed", "0", "--jobs", "2"],
            "",
            "internal error: a sampling process exited with code 1 before it sent samples 10..19 of order 5\n",
        ),
        (
            ["lemmas", "-i", "2", "-n", "6", "--samples", "10", "--seed", "0", "--jobs", "2"],
            "",
            "internal error: a sampling process exited with code 1 before it sent samples 5..9 of order 6\n",
        ),
    ],
    ids=["analyze", "falsify", "lemmas"],
)
def test_dead_worker_is_one_line_exit_4(pattern_file, capsys, monkeypatch, argv, out, err):
    # The worker dies in its first chunk, without a word, and its pipe
    # closes before the result arrives.
    name = "_lemma_chunk" if argv[0] == "lemmas" else "_falsify_chunk"
    chunk = getattr(analysis, name)

    def dies_past_sample_0(task):
        if task[2] > 0:
            os._exit(1)
        return chunk(task)

    monkeypatch.setattr(analysis, name, dies_past_sample_0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    assert main([arg.format(pattern=pattern_file) for arg in argv]) == EXIT_INTERNAL
    assert capsys.readouterr() == (out, err)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_analyze_stdout_does_not_depend_on_start_method(method):
    # Under spawn and forkserver, every worker imports the package afresh
    # and gets its tasks pickled; two CPUs are claimed so that --jobs 2
    # starts one on any runner.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    script = (
        "import multiprocessing, os, sys\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "os.cpu_count = lambda: 2\n"
        "from refined_inertia.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    argv = ["analyze", "-i", "3", "--n-range", "4..7", "--budget", "40", "--seed", "9", "--jobs"]
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script, method, *argv, jobs],
            capture_output=True,
            env=env,
            timeout=120,
        )
        for jobs in ("1", "2")
    ]
    assert [(proc.returncode, proc.stderr) for proc in outputs] == [(EXIT_OK, b"")] * 2
    assert len(outputs[0].stdout.splitlines()) == 6
    assert outputs[1].stdout == outputs[0].stdout


@pytest.mark.parametrize("budget", ["40", "1", "0"])
@pytest.mark.parametrize("family", ["1", "2", "3"])
def test_analyze_stdout_does_not_depend_on_jobs(capsys, monkeypatch, family, budget):
    # Real worker processes, so a spawn start method runs them too.  Three
    # CPUs are claimed so that --jobs 3 splits the budget three ways anywhere.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["analyze", "-i", family, "--n-range", "4..7", "--budget", budget, "--seed", "9"]
    outputs = []
    for jobs in ("1", "2", "3"):
        assert main(argv + ["--jobs", jobs]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0].err == ""
    assert len(outputs[0].out.splitlines()) == 6
    assert outputs[1:] == outputs[:1] * 2


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_lemmas_stdout_does_not_depend_on_start_method(method):
    # A lemma task is five ints, pickled for a worker that imports the
    # package afresh; two CPUs are claimed so that --jobs 2 starts one.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    script = (
        "import multiprocessing, os, sys\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "os.cpu_count = lambda: 2\n"
        "from refined_inertia.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    argv = ["lemmas", "-i", "3", "-n", "7", "--samples", "30", "--seed", "9", "--jobs"]
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script, method, *argv, jobs],
            capture_output=True,
            env=env,
            timeout=120,
        )
        for jobs in ("1", "2")
    ]
    assert [(proc.returncode, proc.stderr) for proc in outputs] == [(EXIT_OK, b"")] * 2
    assert outputs[0].stdout.endswith(b"all lemma checks passed\n")
    assert outputs[1].stdout == outputs[0].stdout


@pytest.mark.parametrize("family", ["1", "2", "3"])
def test_lemmas_stdout_does_not_depend_on_jobs(capsys, monkeypatch, family):
    # Real worker processes; three CPUs are claimed so that --jobs 3 splits
    # the samples three ways anywhere.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["lemmas", "-i", family, "-n", "6", "--samples", "40", "--seed", "9"]
    outputs = []
    for jobs in ("1", "2", "3"):
        assert main(argv + ["--jobs", jobs]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0].err == ""
    assert outputs[0].out.splitlines()[-1] == "all lemma checks passed"
    assert outputs[1:] == outputs[:1] * 2


def test_lemma_failure_line_names_the_seed_that_rebuilds_its_sample(capsys, monkeypatch):
    # Sample 1263 of family 1, order 6, seed 2 draws b_4 equal to b_1, so
    # its b_4 is redrawn.  Its L-k is forced to fail; the line's seed, put
    # through the suite's draw, gives the arrow that was checked.
    checked = []

    def l_k_fails_at_1263(a, a_den, b, b_den, i):
        checked.append((a, a_den, b, b_den))
        return (True,) * 6 + (len(checked) - 1 != 1263,), None

    monkeypatch.setattr(analysis, "_lemma_checks", l_k_fails_at_1263)
    assert main(["lemmas", "-i", "1", "-n", "6", "--samples", "1266", "--seed", "2"]) == EXIT_INTERNAL
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"FAIL sample 1263 (seed {analysis._sample_seed(2, 1263)}): L-k"
    assert "  L-k:fail: 1" in lines
    seed = int(lines[-1].split("seed ")[1].split(")")[0])
    rng = random.Random(seed)
    draws = realization._signed_draws(realization._signs(family_pattern(1, 6)), rng)
    plain = realization._family_draw(draws)
    realization._redraw_tied_diagonal(draws, rng)
    assert realization._family_draw(draws) == checked[1263] != plain


def test_lemmas_has_no_order_bound(capsys):
    # A tied b_j is redrawn on its own, so no order is refused up front.
    assert main(["lemmas", "-i", "1", "-n", "2000", "--samples", "0", "--seed", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "family 1, order 2000, samples 0\nall lemma checks passed\n"
    assert captured.err == ""


def test_lemmas_at_a_large_order_build_no_n_by_n_pattern():
    # The lemma path reads the family's signs in O(n) (patterns._family_signs):
    # building the 2000 x 2000 pattern raised the peak by about 60 MB, to
    # 77 MB in all.  The draws read the same signs in the same order
    # (test_family_draw_signs_are_the_pattern_signs), so the stream and
    # the printed lines do not change.
    pytest.importorskip("resource")
    script = (
        "import resource, sys\n"
        "from refined_inertia.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = main(['lemmas', '-i', '1', '-n', '2000', '--samples', '0', '--seed', '1'])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, (after - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    *printed, last = done.stdout.splitlines()
    code, grown = map(int, last.split())
    assert code == EXIT_OK
    assert printed == ["family 1, order 2000, samples 0", "all lemma checks passed"]
    assert grown < 16 * 2**20


MALFORMED_MATRICES = {
    "zero-denominator": '{"n": 1, "entries": [[1, 0]]}',
    "n-zero": '{"n": 0, "entries": []}',
    "n-bool": '{"n": true, "entries": [[1, 1]]}',
    "top-level-array": "[[1, 1]]",
    "bool-entry": '{"n": 1, "entries": [true]}',
    "nan-entry": '{"n": 1, "entries": [NaN]}',
    "wrong-count": '{"n": 2, "entries": [[1, 1]]}',
    "three-element-entry": '{"n": 1, "entries": [[1, 2, 3]]}',
    "truncated-json": '{"n": 1, "entries": [[1',
    "deeply-nested": "[" * 100_000 + "]" * 100_000,
    "row-sum-overflow": json.dumps({"n": 3, "entries": [1e308, -1e308, 1e308] * 3}),
}


@pytest.mark.parametrize("text", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
@pytest.mark.parametrize("mode", [[], ["--exact"], ["--numeric"]], ids=["auto", "exact", "numeric"])
def test_inertia_malformed_matrix_exits_2(tmp_path, capsys, text, mode):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["inertia", "--matrix", str(path), *mode]) == EXIT_IO
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error reading matrix: ")


def test_numeric_inertia_past_the_float_range_exits_2(tmp_path, capsys):
    # Exact entries the float reader cannot hold: an int and a Fraction.
    path = tmp_path / "big.json"
    for big in ([10**400, 1], [10**400, 3]):
        path.write_text(json.dumps({"n": 2, "entries": [[1, 1], big, [0, 1], [1, 1]]}))
        assert main(["inertia", "--matrix", str(path), "--numeric"]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error reading matrix: out of float range: ")


def test_numeric_inertia_fault_is_not_reported_as_tol(tmp_path, capsys, monkeypatch):
    # --tol is checked before the eigensolve, so a ValueError from it is an
    # engine fault; the reader already rejects a NaN entry with exit 2.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json([[1, 0], [0, -1]])))

    def not_a_number(matrix, axis_eps):
        raise ValueError("an entry is not a number")

    monkeypatch.setattr(cli, "refined_inertia_numeric", not_a_number)
    assert main(["inertia", "--matrix", str(path), "--numeric"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: an entry is not a number\n"
    assert main(["inertia", "--matrix", str(path), "--numeric", "--tol", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --tol: axis_eps must be positive, got 0.0\n"


USAGE_ERRORS = {
    "falsify-order-2": ["falsify", "--pattern", "{order2}", "--budget", "5"],
    "falsify-negative-budget": ["falsify", "--pattern", "{order4}", "--budget", "-1"],
    "analyze-negative-budget": ["analyze", "-i", "1", "--n-range", "4..5", "--budget", "-1"],
    "falsify-jobs-0": ["falsify", "--pattern", "{order4}", "--budget", "5", "--jobs", "0"],
    "analyze-jobs-0": ["analyze", "-i", "1", "--n-range", "4..5", "--budget", "5", "--jobs", "0"],
    "lemmas-jobs-0": ["lemmas", "-i", "1", "-n", "5", "--samples", "5", "--seed", "0", "--jobs", "0"],
    "witness-order-3": ["witness", "-i", "1", "-n", "3"],
    "family-order-3": ["family", "-i", "1", "-n", "3"],
    "lemmas-order-3": ["lemmas", "-i", "1", "-n", "3", "--samples", "1", "--seed", "0"],
    "lemmas-negative-samples": ["lemmas", "-i", "1", "-n", "5", "--samples", "-1", "--seed", "0"],
    # Bounds are checked before the pattern file is read.
    "falsify-missing-file-negative-budget": ["falsify", "--pattern", "{missing}", "--budget", "-1"],
    "numeric-tol-0": ["inertia", "--matrix", "{matrix}", "--numeric", "--tol", "0"],
    "numeric-tol-inf": ["inertia", "--matrix", "{matrix}", "--numeric", "--tol", "inf"],
    "bad-RI_SEED": ["lemmas", "-i", "1", "-n", "5", "--samples", "1"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch, argv):
    files = {"order2": "+ -\n- +", "order4": family_pattern(1, 4).render()}
    files["matrix"] = json.dumps(matrix_to_json([[1, 0], [0, -1]]))
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    paths["missing"] = tmp_path / "missing.sp"
    monkeypatch.setenv("RI_SEED", "abc" if argv[0] == "lemmas" else "0")
    assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


# -- mangled input files -------------------------------------------------------

VALID_MATRIX = json.dumps(matrix_to_json([[-1, 2, 0], [1, 0, 3], [0, -2, -1]])).encode()
VALID_PATTERN = family_pattern(2, 4).render().encode()
TOKENS = [b"true", b"NaN", b"0", b"-", b"[", b"]", b",", b"+", b"\n", b"1e400", b"\xff", b'"']

edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.sampled_from(["insert", "delete", "replace"]),
        st.binary(min_size=1, max_size=6) | st.sampled_from(TOKENS),
    ),
    min_size=1,
    max_size=4,
)


def mangle(data: bytes, changes) -> bytes:
    out = bytearray(data)
    for pos, kind, chunk in changes:
        at = pos % (len(out) + 1)
        if kind == "insert":
            out[at:at] = chunk
        elif kind == "delete":
            del out[at : at + len(chunk)]
        else:
            out[at : at + len(chunk)] = chunk
    return bytes(out)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(edits, edits, st.sampled_from([[], ["--exact"], ["--numeric"]]))
def test_mangled_input_files_never_raise(matrix_edits, pattern_edits, mode):
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "m.json"
        matrix.write_bytes(mangle(VALID_MATRIX, matrix_edits))
        pattern = Path(tmp) / "p.sp"
        pattern.write_bytes(mangle(VALID_PATTERN, pattern_edits))
        for argv in (
            ["inertia", "--matrix", str(matrix), *mode],
            ["falsify", "--pattern", str(pattern), "--budget", "3", "--seed", "1"],
        ):
            code, err = run_quietly(argv)
            assert code in (0, 1, 2, 3), (argv, code, err)
            assert len(err.splitlines()) <= 1, (argv, err)
