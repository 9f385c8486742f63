import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invseq import cli, gentree, oracle
from invseq.cli import main
from invseq.gentree import ClassId
from invseq.oracle import BOUND_ENV_VAR, DEFAULT_BOUND

OVER = DEFAULT_BOUND + 1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.strip().splitlines()


class TestCount:
    def test_class_gentree(self, capsys):
        code, lines = run(capsys, "count", "--class", "1176", "--n", "7")
        assert code == 0
        assert lines[0] == "0 1"
        assert lines[-1] == "7 1176"

    def test_patterns_oracle(self, capsys):
        code, lines = run(
            capsys, "count", "--patterns", "001", "--n", "5", "--engine", "oracle"
        )
        assert code == 0
        assert lines[-1] == "5 16"

    def test_one_letter_pattern(self, capsys):
        code, lines = run(capsys, "count", "--patterns", "0", "--n", "3")
        assert code == 0
        assert lines == ["0 1", "1 0", "2 0", "3 0"]

    def test_triple_selector(self, capsys):
        code, lines = run(capsys, "count", "--triple", ">,<=,!=", "--n", "6")
        assert code == 0
        assert lines[-1] == "6 299"

    def test_triple_starting_with_a_dash(self, capsys):
        # "-,-,>" alone would be read as an option; the brackets keep it a value
        code, lines = run(capsys, "count", "--triple", "(-,-,>)", "--n", "6")
        assert code == 0
        assert lines[-1] == "6 332"
        assert run(capsys, "count", "--class", "1420", "--n", "6")[1] == lines

    def test_n_zero(self, capsys):
        code, lines = run(capsys, "count", "--class", "1016", "--n", "0")
        assert code == 0
        assert lines == ["0 1"]

    def test_json_lines_round_trip(self, capsys):
        code, lines = run(
            capsys, "count", "--class", "733", "--n", "6", "--format", "json-lines"
        )
        rows = [json.loads(l) for l in lines]
        assert [r["count"] for r in rows] == [1, 1, 2, 5, 15, 51, 188]

    def test_unknown_class(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--class", "999", "--n", "3"])

    def test_gentree_needs_class(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--patterns", "001", "--n", "3", "--engine", "gentree"])

    def test_b_file_regeneration_is_byte_identical(self, capsys):
        _, first = run(capsys, "count", "--class", "214", "--n", "10")
        _, second = run(capsys, "count", "--class", "214", "--n", "10")
        assert first == second

    def test_table_equals_b_file(self, capsys):
        argv = ("count", "--patterns", "001", "--n", "6", "--format")
        assert run(capsys, *argv, "table") == run(capsys, *argv, "b-file")


class TestSeries:
    def test_verdict_ok(self, capsys):
        code, lines = run(capsys, "series", "--class", "663A", "--order", "8")
        assert code == 0
        assert lines[-1] == "verdict OK: series matches counts"
        assert lines[-2] == "8 2552"

    def test_verdict_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_class", lambda cid, n: [0] * (n + 1))
        code, lines = run(capsys, "series", "--class", "663A", "--order", "8")
        assert code == 1
        assert lines[-1] == "verdict FAIL: series matches counts"

    def test_table_equals_b_file(self, capsys):
        argv = ("series", "--class", "1016", "--order", "9", "--verify-minpoly", "--format")
        code, lines = run(capsys, *argv, "table")
        assert code == 0
        assert (code, lines) == run(capsys, *argv, "b-file")
        assert lines[-2:] == [
            "verdict OK: series matches counts",
            "verdict OK: annihilator degree 2",
        ]

    def test_verify_minpoly(self, capsys):
        code, lines = run(
            capsys,
            "series", "--class", "1833A", "--order", "10", "--verify-minpoly",
            "--format", "json-lines",
        )
        assert code == 0
        checks = [json.loads(l) for l in lines if '"check"' in l]
        assert all(c["ok"] for c in checks)
        assert any("degree 6" in c["check"] for c in checks)

    def test_catalytic_source(self, capsys):
        code, lines = run(
            capsys, "series", "--class", "1420", "--order", "8", "--source", "catalytic"
        )
        assert code == 0
        assert lines[-1].startswith("verdict OK")

    def test_no_closed_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["series", "--class", "830", "--order", "10"])

    @pytest.mark.parametrize(
        "argv", ["--class 830", "--class 733 --source catalytic"], ids=["830", "733-catalytic"]
    )
    def test_refuses_the_class_before_counting(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_class", None)  # not to be called
        with pytest.raises(SystemExit) as exc:
            main(["series", *argv.split(), "--order", "250"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: no ")


class TestClassify:
    def test_summary_lines(self, capsys):
        code, lines = run(capsys, "classify")
        assert code == 0
        assert lines[-3] == "total triples 343"
        assert lines[-2] == "equivalence classes 98"
        assert lines[-1] == "wilf classes 63"

    def test_json_lines(self, capsys):
        code, lines = run(capsys, "classify", "--format", "json-lines")
        rows = [json.loads(l) for l in lines]
        summary = rows[-1]
        assert summary["equivalence_classes"] == 98
        assert summary["wilf_classes"] == 63
        assert sum(r["n_triples"] for r in rows[:-1]) == 343


class TestAsymptotics:
    def test_algebraic(self, capsys):
        code, lines = run(
            capsys,
            "asymptotics", "--class", "1420", "--terms", "120",
            "--format", "json-lines",
        )
        assert code == 0
        row = json.loads(lines[0])
        assert abs(row["mu"] - 5.4) < 1e-6
        assert row["relative_error"] < 1e-6

    def test_stretched(self, capsys):
        code, lines = run(
            capsys,
            "asymptotics", "--class", "759", "--terms", "150",
            "--model", "stretched", "--format", "json-lines",
        )
        assert code == 0
        row = json.loads(lines[0])
        assert row["sigma"] == 0.375
        assert row["base"] == 9.0

    def test_table_shows_each_field_in_order(self, capsys):
        argv = ("asymptotics", "--class", "1420", "--terms", "120", "--format")
        code, lines = run(capsys, *argv, "table")
        assert code == 0
        row = json.loads(run(capsys, *argv, "json-lines")[1][0])
        keys = ["class", "model", "mu", "exponent", "reference_mu", "relative_error"]
        assert lines == [f"{k} {row[k]}" for k in keys]


class TestWords:
    def test_r1r2(self, capsys):
        code, lines = run(capsys, "words", "--k", "6", "--b", "4", "--rules", "R1R2")
        assert code == 0
        assert "formula 140" in lines
        assert "enumerated 140" in lines

    def test_r1r3_catalan(self, capsys):
        code, lines = run(capsys, "words", "--k", "3", "--b", "3", "--rules", "R1R3")
        assert code == 0
        assert "formula 5" in lines

    def test_r1r3_out_of_support(self, capsys):
        code, lines = run(capsys, "words", "--k", "5", "--b", "2", "--rules", "R1R3")
        assert code == 0
        assert "formula 0" in lines

    def test_verdict_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_words", lambda constraint, bound: 139)
        code, lines = run(capsys, "words", "--k", "6", "--b", "4", "--rules", "R1R2")
        assert code == 1
        assert lines == ["formula 140", "enumerated 139", "verdict FAIL"]


@pytest.mark.parametrize(
    "command, env",
    [
        ("count --patterns 0012 --n 3", {}),
        ("count --triple <,?,- --n 3", {}),
        ("count --patterns 1 --n 3", {}),
        ("count --patterns 001 --n -1", {}),
        ("count --class 214 --n -1", {}),
        ("words --k 2 --b 3 --rules R1R2", {}),
        ("asymptotics --class 1420 --terms 10", {}),
        ("asymptotics --class 247 --terms 40", {}),
        ("count --patterns 001 --n 3", {BOUND_ENV_VAR: "abc"}),
        (f"verify-all --n {OVER}", {}),
        ("verify-all --order 4", {}),
        ("verify-all --max-k 0", {}),
        ("asymptotics --class 1420 --terms 60 --points 0", {}),
        ("asymptotics --class 1420 --terms 60 --points -3", {}),
        ("classify --max-n -1", {}),
        ("series --class 1176 --order -1", {}),
        ("count --patterns 0a1 --n 3", {}),
        ("count --patterns -1 --n 3", {}),
        ("asymptotics --class 1420 --terms 60 --points 1", {}),
        ("classify --max-n 3 --bound -1", {}),
        ("count --patterns 001 --n 3", {BOUND_ENV_VAR: "-1"}),
        ("count --class 214", {}),
        ("count --class 214 --n 3 --format xml", {}),
        ("count --n x", {}),
    ],
)
def test_bad_input_exits_2_with_one_error_line(command, env, capsys, monkeypatch):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "command",
    [
        f"classify --max-n {OVER}",
        f"count --patterns 001 --n {OVER}",
        f"words --k {OVER} --b 2 --rules R1R2",
    ],
)
def test_oracle_bound_error_names_the_variable(command, capsys, monkeypatch):
    monkeypatch.delenv(BOUND_ENV_VAR, raising=False)
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"exceeds exhaustive-search bound {DEFAULT_BOUND}" in err[0]
    assert BOUND_ENV_VAR in err[0]


def test_bound_flag_error_does_not_name_the_variable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--patterns", "001", "--n", "3", "--bound", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: n=3 exceeds exhaustive-search bound 2"]


def test_negative_series_order_names_the_option(capsys):
    with pytest.raises(SystemExit):
        main(["series", "--class", "1176", "--order", "-1"])
    assert capsys.readouterr().err == "error: --order must be nonnegative\n"


def test_negative_asymptotics_terms_names_the_option(capsys):
    with pytest.raises(SystemExit):
        main(["asymptotics", "--class", "1420", "--terms", "-3"])
    assert capsys.readouterr().err == "error: --terms must be nonnegative\n"


def test_cli_imports_the_standard_library_only():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, invseq.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n"


def test_closed_pipe_exits_quietly():
    """A reader that leaves early, as ``head -1`` does, gets no traceback."""
    argv = [sys.executable, "-m", "invseq.cli", "count", "--class", "214", "--n", "50"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate()
    assert err == b"" and proc.returncode != 0


class TestVerifyAll:
    def test_quick_battery_passes(self, capsys):
        code, lines = run(
            capsys, "verify-all", "--n", "5", "--order", "15", "--max-k", "5"
        )
        assert code == 0
        assert len(lines) == 6
        assert all(l.startswith("PASS") for l in lines)

    def test_fail_line_names_class_and_n(self, capsys, monkeypatch):
        count_avoiders, broken = cli.count_avoiders, ClassId.C1420.patterns

        def off_by_one(n, patterns, bound=None):
            return count_avoiders(n, patterns, bound) + (n == 4 and patterns == broken)

        monkeypatch.setattr(cli, "count_avoiders", off_by_one)
        code, lines = run(
            capsys, "verify-all", "--n", "5", "--order", "15", "--max-k", "5"
        )
        assert code == 1
        assert lines[0].startswith("FAIL succession rules vs oracle: class 1420 n=4:")
        assert all(l.startswith("PASS") for l in lines[1:])

    def test_exception_in_battery_is_a_fail_line(self, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("not a simple root")

        monkeypatch.setattr(cli, "kernel_root", broken)
        code, lines = run(
            capsys, "verify-all", "--n", "5", "--order", "15", "--max-k", "5"
        )
        assert code == 1
        assert lines[3] == "FAIL kernel roots: raised ValueError: not a simple root"
        assert sum(l.startswith("PASS") for l in lines) == 5


def test_traced_benchmark_finds_every_entry_point():
    """The benchmark's tracer wraps invseq's entry points by name; a renamed
    one makes install() raise, and uninstall() puts every original back.
    It also counts one oracle span per n, so the oracle keeps that call shape."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = gentree.count_class
    tracer = spans.Tracer(run_id="tier-1", clock=time.perf_counter)
    try:
        tracer.install()
        gentree.count_class(ClassId.C214, 5)
        for n in range(6):
            oracle.count_avoiders(n, ClassId.C214.patterns)
    finally:
        tracer.uninstall()
    assert gentree.count_class is original
    assert tracer.spans[0][0] == "gentree.count_class"
    assert [s[0] for s in tracer.spans].count("oracle.count_avoiders") == 6
