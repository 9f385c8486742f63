import argparse
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from invseq import cli, gentree, oracle
from invseq.cli import main
from invseq.gentree import ClassId
from invseq.oracle import BOUND_ENV_VAR, DEFAULT_BOUND
from invseq.series import TruncatedSeries

OVER = DEFAULT_BOUND + 1
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
        code, lines = run(capsys, "count", "--patterns", "001", "--n", "5")
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

    def test_b_file_regeneration_is_byte_identical(self, capsys):
        _, first = run(capsys, "count", "--class", "214", "--n", "10")
        _, second = run(capsys, "count", "--class", "214", "--n", "10")
        assert first == second

    def test_repeated_patterns_add_up(self, capsys):
        repeated = run(capsys, "count", "--patterns", "000", "001", "--patterns", "012", "--n", "5")
        assert repeated == run(capsys, "count", "--patterns", "000", "001", "012", "--n", "5")
        assert repeated[1][-1] == "5 0"


class TestSeries:
    def test_verdict_ok(self, capsys):
        code, lines = run(capsys, "series", "--class", "663A", "--order", "8")
        assert code == 0
        assert lines[-2:] == [
            "verdict OK: series matches counts",
            "verdict OK: annihilator degree 3",
        ]
        assert lines[-3] == "8 2552"

    def test_verdict_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_class", lambda cid, n: [0] * (n + 1))
        code, lines = run(capsys, "series", "--class", "663A", "--order", "8")
        assert code == 1
        assert lines[-2:] == [
            "verdict FAIL: series matches counts",
            "verdict FAIL: annihilator degree 3",
        ]

    def test_annihilator_verdict_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_minimal_polynomial", lambda cid, coeffs: False)
        code, lines = run(capsys, "series", "--class", "663A", "--order", "8")
        assert code == 1
        assert lines[-1] == "verdict FAIL: annihilator degree 3"

    def test_verify_minpoly(self, capsys):
        code, lines = run(
            capsys,
            "series", "--class", "1833A", "--order", "10", "--format", "json-lines",
        )
        assert code == 0
        checks = [json.loads(l) for l in lines if '"check"' in l]
        assert all(c["ok"] for c in checks)
        assert any("degree 6" in c["check"] for c in checks)

    @pytest.mark.parametrize("argv", ["--class 830"], ids=["830"])
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
            "asymptotics", "--class", "759", "--terms", "150", "--format", "json-lines",
        )
        assert code == 0
        row = json.loads(lines[0])
        assert row["model"] == "stretched"
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
        monkeypatch.setattr(cli, "count_words", lambda constraint: 139)
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
        (f"verify-all --max-k {OVER}", {}),
        ("verify-all --n 9", {BOUND_ENV_VAR: "9"}),
        ("count --class 999 --n 3", {}),
        ("count --patterns 001 --n 3 --engine gentree", {}),
        ("asymptotics --class 247 --model algebraic", {}),
        ("words --k 3 --b 2 --rules R1R2 --bound 9", {}),
        ("series --class 1420 --order 8 --source catalytic", {}),
        ("verify-all", {BOUND_ENV_VAR: "9"}),
        ("count --class 214 --n 3 --format table", {}),
        ("series --class 1016 --order 3 --format table", {}),
        ("series --class 663A --order 3 --verify-minpoly", {}),
        ("words --k -1 --b 1 --rules R1R2", {}),
        ("words --k 1 --b 0 --rules R1R2", {}),
        ("count --triple <,> --n 3", {}),
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


# Every option of every subcommand.  A setting the program already knows
# (the counter of a named class, the growth model of a class, the
# exhaustive-search bound) is not an option; adding one is an edit here.
CLI_OPTIONS = {
    "count": ["--class", "--patterns", "--triple", "--n", "--format"],
    "series": ["--class", "--order", "--format"],
    "classify": ["--max-n", "--format"],
    "asymptotics": ["--class", "--terms", "--format"],
    "words": ["--k", "--b", "--rules", "--format"],
    "verify-all": [],
}


def test_cli_options_are_the_pinned_set():
    def options(parser):
        strings = [s for action in parser._actions for s in action.option_strings]
        return [s for s in strings if s not in ("-h", "--help")]

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == []
    assert {name: options(p) for name, p in commands.choices.items()} == CLI_OPTIONS


def test_readme_usage_lines_parse():
    """Every ``invseq`` line in the README's sh blocks is a valid command line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [l for b in blocks for l in b.splitlines() if l.startswith("invseq ")]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(l, comments=True)[1:]).command for l in lines}
    assert commands == set(CLI_OPTIONS)


def test_readme_module_entry_points_exist():
    """Every backticked Python name in the README's module list belongs to its module."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("## Modules\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- \*\*`invseq\.(\w+)`\*\*(.*?)(?=^- |\Z)", section, re.M | re.S)
    pyproject = (root / "pyproject.toml").read_text()
    script = re.search(r"^\[project\.scripts\]\n(\w+) =", pyproject, re.M)
    # two names are not attributes: the oracle's variable and the command itself
    named = {"INVSEQ_ORACLE_BOUND": oracle.BOUND_ENV_VAR, "invseq": script.group(1)}
    modules = {p.stem for p in (root / "src" / "invseq").glob("*.py") if not p.stem.startswith("_")}
    assert sorted(m for m, _ in bullets) == sorted(modules)
    for module, text in bullets:
        mod = importlib.import_module(f"invseq.{module}")
        for name in re.findall(r"`([^`]+)`", text):
            if name in named:
                assert named[name] == name
            elif name.isidentifier():
                assert hasattr(mod, name), (module, name)


def test_negative_series_order_names_the_option(capsys):
    with pytest.raises(SystemExit):
        main(["series", "--class", "1176", "--order", "-1"])
    assert capsys.readouterr().err == "error: --order must be nonnegative\n"


def test_negative_asymptotics_terms_names_the_option(capsys):
    with pytest.raises(SystemExit):
        main(["asymptotics", "--class", "1420", "--terms", "-3"])
    assert capsys.readouterr().err == "error: --terms must be nonnegative\n"


def test_negative_classify_max_n_names_the_option(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--max-n", "-1"])
    assert capsys.readouterr().err == "error: --max-n must be nonnegative\n"


@pytest.mark.parametrize(
    "argv, message",
    [("--k -1 --b 1", "--k must be at least --b"), ("--k 1 --b 0", "--b must be at least 1")],
)
def test_words_refusals_name_the_options(argv, message, capsys):
    with pytest.raises(SystemExit):
        main(["words", *argv.split(), "--rules", "R1R2"])
    assert capsys.readouterr().err == f"error: {message}\n"


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
        code, lines = run(capsys, "verify-all")
        assert code == 0
        assert len(lines) == 6
        assert all(l.startswith("PASS") for l in lines)

    def test_fail_line_names_class_and_n(self, capsys, monkeypatch):
        count_avoiders, broken = cli.count_avoiders, ClassId.C1420.patterns

        def off_by_one(n, patterns, bound=None):
            return count_avoiders(n, patterns, bound) + (n == 4 and patterns == broken)

        monkeypatch.setattr(cli, "count_avoiders", off_by_one)
        code, lines = run(capsys, "verify-all")
        assert code == 1
        assert lines[0].startswith("FAIL succession rules vs oracle: class 1420 n=4:")
        assert all(l.startswith("PASS") for l in lines[1:])

    def test_exception_in_battery_is_a_fail_line(self, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("not a simple root")

        monkeypatch.setattr(cli, "kernel_root", broken)
        code, lines = run(capsys, "verify-all")
        assert code == 1
        assert lines[3] == "FAIL kernel roots: raised ValueError: not a simple root"
        assert sum(l.startswith("PASS") for l in lines) == 5

    def test_check_that_compares_nothing_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "CLOSED_FORM_CLASSES", ())
        code, lines = run(capsys, "verify-all")
        assert code == 1
        assert lines[1] == "FAIL closed forms vs counts: nothing was compared"
        assert sum(l.startswith("PASS") for l in lines) == 5


def test_root_prefix_compares_exact_coefficients(monkeypatch):
    # int() would truncate 129/2 to the expected 64
    root = TruncatedSeries([1, 2, 5, 17, Fraction(129, 2)], 5)
    monkeypatch.setattr(cli, "kernel_root", lambda ks, x0, order: root)
    found = {where: (want, got) for where, want, got in cli.check_kernel_roots()}
    want, got = found["class 1420 root prefix"]
    assert want != got


def _load_perfbench(name: str):
    """perfbench/<name>.py as a module; perfbench/ is not a package."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_verify_ops_match_their_references():
    """Every op of the benchmark's verify workload returns its recorded
    verdict, so a fault in a kernel those ops call fails here, not only
    in a benchmark run."""
    workloads = _load_perfbench("workloads")
    ref = json.loads((PERFBENCH / "refs" / "verify.json").read_text())
    ops = list(workloads.verify_ops(random.Random(0), ref))
    assert len(ops) == len(ref["verdicts"]) == 133
    assert [op_id for op_id, run, check in ops if not check(run())] == []


def test_traced_benchmark_finds_every_entry_point(monkeypatch):
    """The benchmark's tracer wraps invseq's entry points by name; a renamed
    one makes install() raise, and uninstall() puts every original back.
    It also counts one oracle span per n, so the oracle keeps that call shape,
    and sees every step of 830, which counts every label, and of 214, whose
    lagged step reads its count through one ``counted_total`` each."""
    spans = _load_perfbench("spans")
    original = gentree.count_class
    tracer = spans.Tracer(run_id="tier-1", clock=time.perf_counter)
    monkeypatch.setattr(gentree, "_MEMO", {})
    try:
        tracer.install()
        gentree.count_class(ClassId.C214, 5)
        for n in range(6):
            oracle.count_avoiders(n, ClassId.C214.patterns)
        monkeypatch.setattr(gentree, "_MEMO", {})
        gentree.count_class(ClassId.C830, 5)
    finally:
        tracer.uninstall()
    assert gentree.count_class is original
    assert tracer.spans[0][0] == "gentree.count_class"
    assert [s[0] for s in tracer.spans].count("oracle.count_avoiders") == 6
    step_spans = [(i, s[4]) for i, s in enumerate(tracer.spans) if s[0] == "gentree.step_state"]
    for cls in ("214", "830"):
        assert [attrs for _, attrs in step_spans if attrs[0] == cls] == [(cls, d) for d in range(6)]
    steps_214 = [i for i, attrs in step_spans if attrs[0] == "214"]
    parents = [s[3] for s in tracer.spans if s[0] == "gentree.counted_total"]
    assert [i for i in parents if i in steps_214] == steps_214
