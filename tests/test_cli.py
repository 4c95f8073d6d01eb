"""Command-line surface: outputs, files, exit codes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from incmeter.cli import _build_parser, main
from incmeter.solver import parse_dimacs, solve_internal, SolveStatus


@pytest.fixture
def kb_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_contension_k4(kb_file, capsys):
    path = kb_file("k4.kb", "x&&y\n!y\n")
    code, out, _ = run_cli(
        capsys, "measure", "--measure", "contension", "--method", "sat",
        "--search", "binary", path,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    payload = json.loads("\n".join(lines[1:]))
    assert payload["value"] == "1"
    assert payload["solverCalls"] >= 1
    assert set(payload["phaseTimes"]) == {
        "encoding", "cnfTransform", "solving", "other",
    }
    counters = payload["engineCounters"]
    assert set(counters) == {"decisions", "propagations", "conflicts", "restarts"}
    assert counters["propagations"] > 0


def test_measure_hs_naive_k6_prints_inf(kb_file, capsys):
    path = kb_file("k6.kb", "x&&!x\ny\nz\n")
    code, out, _ = run_cli(
        capsys, "measure", "--measure", "hitting-set", "--method", "naive", path
    )
    assert code == 0
    assert out.splitlines()[0] == "inf"


def test_measure_deterministic_stdout_modulo_times(kb_file, capsys):
    path = kb_file("k7.kb", "x&&y\nx||y\n!x\n")
    argv = ["measure", "--measure", "sum-distance", "--method", "sat",
            "--search", "linear", path]

    def normalized():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        payload = json.loads("\n".join(lines[1:]))
        payload["phaseTimes"] = None
        payload["totalSeconds"] = None
        return lines[0], payload

    assert normalized() == normalized()


def test_encode_writes_satisfiable_dimacs(kb_file, tmp_path, capsys):
    path = kb_file("k7.kb", "x&&y\nx||y\n!x\n")
    out_path = tmp_path / "out.cnf"
    code, _, _ = run_cli(
        capsys, "encode", "--measure", "hit-distance", "-u", "1", path,
        "-o", str(out_path),
    )
    assert code == 0
    cnf = parse_dimacs(out_path.read_text())
    assert cnf.clauses and cnf.num_vars > 0
    assert solve_internal(cnf).status is SolveStatus.SAT


def test_encode_requires_bound(kb_file, capsys):
    path = kb_file("k4.kb", "x&&y\n!y\n")
    code, _, err = run_cli(capsys, "encode", "--measure", "contension", path)
    assert code == 1


def test_encode_maxsat_wcnf(kb_file, tmp_path, capsys):
    path = kb_file("k4.kb", "x&&y\n!y\n")
    out_path = tmp_path / "out.wcnf"
    code, _, _ = run_cli(
        capsys, "encode", "--measure", "contension", "--maxsat", path,
        "-o", str(out_path),
    )
    assert code == 0
    header = out_path.read_text().splitlines()[0].split()
    assert header[:2] == ["p", "wcnf"]
    assert header[4] == "3"  # top weight = |soft| + 1 = 3


def test_emit_asp_writes_program(kb_file, tmp_path, capsys):
    path = kb_file("k7.kb", "x&&y\nx||y\n!x\n")
    out_path = tmp_path / "k7.lp"
    code, _, _ = run_cli(
        capsys, "emit-asp", "--measure", "hitting-set", path, "-o", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert "interpretation(1..3)." in text
    assert "#minimize{1,I : interpretationActive(I)}." in text


def test_generate_then_bench(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    reports = tmp_path / "reports"
    code, out, _ = run_cli(
        capsys, "generate", "--out", str(corpus), "--count", "4", "--atoms", "3",
        "--formulas", "2:4", "--seed", "17",
    )
    assert code == 0
    assert len(list(corpus.glob("*.kb"))) == 4
    assert (corpus / "manifest.json").exists()

    code, out, _ = run_cli(
        capsys, "bench", str(corpus), "--measures", "contension,hit-distance",
        "--methods", "sat-binary,naive", "--out", str(reports),
    )
    assert code == 0
    assert (reports / "results.csv").exists()
    assert (reports / "summary.csv").exists()


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "measure")[0] == 1
    assert run_cli(capsys, "unknown-command")[0] == 1


@pytest.mark.parametrize("command", ["measure", "encode", "bench"])
def test_card_is_an_unknown_argument(kb_file, tmp_path, capsys, command):
    path = kb_file("k4.kb", "x&&y\n!y\n")
    extra = {"measure": ["--measure", "contension"],
             "encode": ["--measure", "contension", "-u", "1"],
             "bench": ["--out", str(tmp_path / "reports")]}[command]
    code, _, err = run_cli(capsys, command, path, *extra, "--card", "sequential")
    assert code == 1
    assert "unrecognized arguments: --card" in err


def test_readme_commands_parse():
    """Every incmeter command in the README's shell blocks names only
    options the parser knows."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("incmeter ")]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "measure", "--measure", "contension", "/nonexistent.kb"
    )
    assert code == 1


def test_syntax_error_exit_code(kb_file, capsys):
    path = kb_file("bad.kb", "x &&\n")
    code, _, err = run_cli(capsys, "measure", "--measure", "contension", path)
    assert code == 1
    assert "error" in err


def test_backend_failure_exit_code(kb_file, capsys, monkeypatch):
    monkeypatch.delenv("INCMETER_ASP_SOLVER", raising=False)
    monkeypatch.setenv("PATH", "")
    path = kb_file("k4.kb", "x&&y\n!y\n")
    code, _, err = run_cli(
        capsys, "measure", "--measure", "contension", "--method", "asp", path
    )
    assert code == 2
    assert "backend" in err


def test_bench_records_a_missing_asp_solver(kb_file, tmp_path, capsys):
    path = kb_file("k4.kb", "x&&y\n!y\n")
    reports = tmp_path / "reports"
    code, out, _ = run_cli(
        capsys, "bench", path, "--measures", "contension", "--methods", "sat-binary,asp",
        "--asp-solver", str(tmp_path / "no-such-clingo"), "--out", str(reports),
    )
    assert code == 0
    assert "1 backend errors" in out
    rows = (reports / "results.csv").read_text().splitlines()
    assert any(row.startswith("k4,contension,asp,backend-error,") for row in rows)


def test_timeout_exit_code(kb_file, capsys):
    path = kb_file("k4.kb", "x&&y\n!y\n")
    code, out, _ = run_cli(
        capsys, "measure", "--measure", "contension", "--timeout", "1e-9", path
    )
    assert code == 3
    assert out.splitlines()[0] == "timeout"
    assert json.loads("\n".join(out.splitlines()[1:]))["bounds"] == [0, 2]


@pytest.mark.parametrize("timeout", ["nan", "inf"])
def test_timeout_that_is_not_finite_is_a_usage_error(kb_file, capsys, timeout):
    path = kb_file("k4.kb", "x&&y\n!y\n")
    code, out, err = run_cli(
        capsys, "measure", "--measure", "contension", "--timeout", timeout, path
    )
    assert code == 1 and out == ""
    assert "timeout must be a finite positive number" in err


@pytest.mark.parametrize("command", ["measure", "bench"])
def test_timeout_beyond_what_the_bridges_can_wait_for_is_a_usage_error(
    kb_file, capsys, tmp_path, command
):
    """An external solver cannot be waited for 3e6 s: a usage error, exit 1,
    not an OverflowError from inside ``subprocess.run``."""
    path = kb_file("k4.kb", "x&&y\n!y\n")
    extra = ["--measure", "contension"] if command == "measure" else [
        "--measures", "contension", "--methods", "sat-binary", "--out", str(tmp_path / "out")]
    code, out, err = run_cli(
        capsys, command, *extra, "--sat-solver", "/bin/cat", "--timeout", "3e6", path
    )
    assert code == 1 and out == ""
    assert "timeout must be a finite positive number of at most 2147483 seconds" in err


def test_sat_solver_env_selects_the_backend(kb_file, fake_solver, capsys, monkeypatch):
    """$INCMETER_SAT_SOLVER is the default of --sat-solver: a missing binary is
    a backend failure, and a working one answers without the internal engine."""
    path = kb_file("k7.kb", "x&&y\nx||y\n!x\n")
    monkeypatch.setenv("INCMETER_SAT_SOLVER", "/nonexistent/sat")
    code, _, err = run_cli(capsys, "measure", "--measure", "contension", path)
    assert code == 2 and "backend" in err
    monkeypatch.setenv("INCMETER_SAT_SOLVER", fake_solver)
    code, out, _ = run_cli(capsys, "measure", "--measure", "contension", path)
    assert code == 0 and out.splitlines()[0] == "1"
    payload = json.loads("\n".join(out.splitlines()[1:]))
    assert set(payload["engineCounters"].values()) == {0}


def test_measure_with_external_sat_solver(kb_file, fake_solver, capsys):
    path = kb_file("k7.kb", "x&&y\nx||y\n!x\n")
    code, out, _ = run_cli(
        capsys, "measure", "--measure", "forgetting", "--method", "sat",
        "--search", "linear", "--sat-solver", fake_solver, path,
    )
    assert code == 0
    assert out.splitlines()[0] == "1"
