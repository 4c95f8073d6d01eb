"""Answer-set program emission, golden static blocks, and value extraction."""

import stat
import sys
import textwrap
from pathlib import Path

import pytest

from incmeter.asp import (
    STATIC_BLOCKS,
    AnswerSetReport,
    asp_backend_available,
    emit_asp,
    extract_value,
    parse_asp_output,
    solve_asp,
)
from incmeter.bench import SrsParams, generate_corpus
from incmeter.kb import parse_kb
from incmeter.oracles import MeasureUndefinedError, oracle_value
from incmeter.solver import BackendUnavailableError, SolverOutputError
from incmeter.values import INF, MEASURES

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDEN_FILES = {
    "contension": "asp_contension_static.lp",
    "forgetting": "asp_forgetting_static.lp",
    "hitting-set": "asp_hitting_set_static.lp",
    "max-distance": "asp_max_distance_static.lp",
    "sum-distance": "asp_sum_distance_static.lp",
    "hit-distance": "asp_hit_distance_static.lp",
}


@pytest.mark.parametrize("measure", MEASURES)
def test_static_rule_blocks_match_goldens(measure):
    golden = (GOLDEN_DIR / GOLDEN_FILES[measure]).read_text(encoding="utf-8")
    assert STATIC_BLOCKS[measure] == golden


@pytest.mark.parametrize("measure", MEASURES)
def test_emitted_static_part_is_the_block(measure, k7):
    program = emit_asp(measure, k7)
    assert program.static_rules == STATIC_BLOCKS[measure]
    assert program.text().endswith(STATIC_BLOCKS[measure])


# --- K7 fact emission, mirroring the published worked examples ---------------

def test_contension_facts_k7(k7):
    facts = emit_asp("contension", k7).facts
    assert facts == [
        "kbMember(f_0).",
        "kbMember(f_1).",
        "kbMember(f_2).",
        "atom(a_x).",
        "atom(a_y).",
        "conjunction(f_0,f_0_l,f_0_r).",
        "formulaIsAtom(f_0_l,a_x).",
        "formulaIsAtom(f_0_r,a_y).",
        "disjunction(f_1,f_1_l,f_1_r).",
        "formulaIsAtom(f_1_l,a_x).",
        "formulaIsAtom(f_1_r,a_y).",
        "negation(f_2,f_2_l).",
        "formulaIsAtom(f_2_l,a_x).",
    ]


def test_forgetting_facts_k7_carry_labels(k7):
    facts = emit_asp("forgetting", k7).facts
    assert "formulaIsAtomOcc(f_0_l,a_x,1)." in facts
    assert "formulaIsAtomOcc(f_1_l,a_x,2)." in facts
    assert "formulaIsAtomOcc(f_2_l,a_x,3)." in facts
    assert "formulaIsAtomOcc(f_0_r,a_y,1)." in facts
    assert "formulaIsAtomOcc(f_1_r,a_y,2)." in facts
    assert not any(f.startswith("atom(") for f in facts)  # derived, not stated


def test_hs_facts_k7(k7):
    facts = emit_asp("hitting-set", k7).facts
    assert "interpretation(1..3)." in facts
    assert "1{interpretationActive(I) : interpretation(I)}3." in facts


def test_dmax_facts_k7(k7):
    facts = emit_asp("max-distance", k7).facts
    assert "kbMember(f_0,0)." in facts
    assert "kbMember(f_2,2)." in facts
    assert "interpretation(0..3)." in facts
    assert (
        "dMax(X) :- X = #max{Y : d(I,3,Y), interpretation(I)}, X >= 0." in facts
    )


def test_dsum_facts_k7(k7):
    facts = emit_asp("sum-distance", k7).facts
    assert "interpretation(0..3)." in facts
    assert (
        "dSum(X) :- X = #sum{Y,I : d(I,3,Y), interpretation(I)}, X >= 0." in facts
    )


def test_symbol_table_round_trip(k5):
    program = emit_asp("contension", k5)
    constants = list(program.symbol_table.values())
    assert len(constants) == len(set(constants))  # injective
    # every constant used in the facts maps back to a site or atom
    known = set(constants)
    for fact in program.facts:
        if fact.startswith(("kbMember", "conjunction", "disjunction", "negation", "formulaIsAtom")):
            inner = fact[fact.index("(") + 1 : fact.rindex(")")]
            for arg in inner.split(","):
                if not arg.isdigit():
                    assert arg in known, (fact, arg)


def test_atom_constants_are_lowercased_and_collision_free():
    program = emit_asp("contension", parse_kb("Ax && aX\nax"))
    consts = sorted(program.atom_constants())
    assert len(consts) == 3
    assert all(c.startswith("a_a") for c in consts)


def test_static_blocks_identical_across_kbs(k4, k5):
    for measure in MEASURES:
        assert (
            emit_asp(measure, k4).static_rules == emit_asp(measure, k5).static_rules
        )


# --- answer-set interpretation ------------------------------------------------

def test_parse_asp_output_optimum():
    report = parse_asp_output(
        "clingo version x\nSolving...\nAnswer: 1\n"
        "truthValue(a_y,b) atom(a_y)\nOptimization: 1\nOPTIMUM FOUND\n"
    )
    assert report.status == "optimal"
    assert report.optimization_cost == 1
    assert "truthValue(a_y,b)" in report.shown_atoms


def test_parse_asp_output_unsat():
    assert parse_asp_output("Solving...\nUNSATISFIABLE\n").status == "unsatisfiable"


def test_parse_asp_output_garbage():
    with pytest.raises(SolverOutputError):
        parse_asp_output("segfault\n")


def test_extract_contension_counts_atom_b_assignments(k4):
    program = emit_asp("contension", k4)
    report = AnswerSetReport(
        "optimal",
        {"truthValue(a_y,b)", "truthValue(a_x,t)", "truthValue(f_0,t)"},
        1,
    )
    assert extract_value("contension", program, report) == 1


def test_extract_forgetting_counts_forgotten(k5):
    program = emit_asp("forgetting", k5)
    report = AnswerSetReport("optimal", {"atomOccForgotten(a_x,3)"}, 1)
    assert extract_value("forgetting", program, report) == 1


def test_extract_hs_counts_active_interpretations(k4):
    program = emit_asp("hitting-set", k4)
    report = AnswerSetReport(
        "optimal", {"interpretationActive(1)", "interpretationActive(2)"}, 2
    )
    assert extract_value("hitting-set", program, report) == 1


def test_extract_distance_values(k7):
    dmax = AnswerSetReport("optimal", {"dMax(1)"}, 1)
    dsum = AnswerSetReport("optimal", {"dSum(1)"}, 1)
    dhit = AnswerSetReport("optimal", {"truthValueKbMember(f_2,f)"}, 1)
    assert extract_value("max-distance", emit_asp("max-distance", k7), dmax) == 1
    assert extract_value("sum-distance", emit_asp("sum-distance", k7), dsum) == 1
    assert extract_value("hit-distance", emit_asp("hit-distance", k7), dhit) == 1


def test_extract_unsat_maps_to_infinity_only_where_allowed(k6):
    report = AnswerSetReport("unsatisfiable")
    for measure in ("hitting-set", "max-distance", "sum-distance"):
        assert extract_value(measure, emit_asp(measure, k6), report) == INF
    for measure in ("contension", "forgetting", "hit-distance"):
        with pytest.raises(MeasureUndefinedError):
            extract_value(measure, emit_asp(measure, k6), report)


# --- solver bridge -------------------------------------------------------------

FAKE_ASP = textwrap.dedent(
    """\
    #!{python}
    import sys
    # canned clingo-style output, independent of the program file
    print("clingo version 5.x (fake)")
    print("Solving...")
    print("Answer: 1")
    print("truthValue(a_y,b) interpretationActive(1)")
    print("Optimization: 1")
    print("OPTIMUM FOUND")
    """
)


@pytest.fixture
def fake_asp_solver(tmp_path):
    script = tmp_path / "fakeclingo"
    script.write_text(FAKE_ASP.format(python=sys.executable))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_solve_asp_via_subprocess(fake_asp_solver, k4):
    program = emit_asp("contension", k4)
    report = solve_asp(program, solver_path=fake_asp_solver, timeout=30)
    assert report.status == "optimal"
    assert extract_value("contension", program, report) == 1


def test_solve_asp_missing_backend(k4, monkeypatch):
    monkeypatch.delenv("INCMETER_ASP_SOLVER", raising=False)
    monkeypatch.setenv("PATH", "")
    with pytest.raises(BackendUnavailableError):
        solve_asp(emit_asp("contension", k4), timeout=5)


def test_solve_asp_env_variable(fake_asp_solver, k4, monkeypatch):
    monkeypatch.setenv("INCMETER_ASP_SOLVER", fake_asp_solver)
    report = solve_asp(emit_asp("contension", k4), timeout=30)
    assert report.status == "optimal"


def test_solve_asp_timeout_kills_a_sleeping_solver(sleepy_solver, k4):
    """A solver that never answers is cut at the limit, plus a little slack
    for starting and killing the child."""
    import time

    begin = time.monotonic()
    report = solve_asp(emit_asp("contension", k4), solver_path=sleepy_solver, timeout=0.3)
    assert report.status == "timeout"
    assert time.monotonic() - begin < 0.3 + 1.0


def test_asp_time_limit_includes_emission(fake_asp_solver, k4, monkeypatch):
    """A program emitted slower than the whole limit ends the run on the
    limit without starting the solver."""
    import time

    from incmeter import asp
    from incmeter.search import RunConfig, compute
    from incmeter.solver import BackendConfig

    runs = []
    monkeypatch.setattr(asp, "emit_asp", lambda *args: time.sleep(0.5) or emit_asp(*args))
    monkeypatch.setattr(
        asp, "solve_asp", lambda *args, **kw: runs.append(kw) or solve_asp(*args, **kw)
    )
    cfg = RunConfig(backend=BackendConfig(timeout=0.3), asp_solver=fake_asp_solver)
    out = compute("contension", k4, "asp", cfg)
    assert out.status == "timeout" and out.value is None
    assert out.solver_calls == 0 and runs == []


# --- full pipeline against a real solver (skipped without one) -----------------

needs_backend = pytest.mark.skipif(
    not asp_backend_available(), reason="no ASP solver on this machine"
)


@needs_backend
def test_asp_values_match_oracles_on_fixtures(k4, k5, k6, k7):
    for kb in (k4, k5, k6, k7):
        for measure in MEASURES:
            program = emit_asp(measure, kb)
            report = solve_asp(program)
            assert extract_value(measure, program, report) == oracle_value(
                kb, measure
            ), measure


@needs_backend
def test_asp_values_match_oracles_on_random_suite():
    for kb_id, kb in generate_corpus(SrsParams(4, 1, 6, seed=404), 10):
        for measure in MEASURES:
            program = emit_asp(measure, kb)
            report = solve_asp(program)
            assert extract_value(measure, program, report) == oracle_value(
                kb, measure
            ), (kb_id, measure)
