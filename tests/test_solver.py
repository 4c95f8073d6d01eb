"""SAT backends: internal engine, DIMACS bridge, MaxSAT."""

import itertools
import random
import time

import pytest

from incmeter.cnf import CnfInstance, tseitin_append, VarMap
from incmeter.kb import parse_kb
from incmeter.solver import (
    MAX_TIMEOUT,
    BackendConfig,
    BackendUnavailableError,
    HardClausesUnsatisfiableError,
    MaxSatInstance,
    SolveStatus,
    SolverOutputError,
    _Cdcl,
    emit_dimacs,
    emit_wcnf,
    parse_dimacs,
    parse_solver_output,
    solve,
    solve_internal,
)
from incmeter.search import solve_maxsat


def test_unit_conflict_unsat():
    res = solve_internal(CnfInstance(1, [[1], [-1]]))
    assert res.status is SolveStatus.UNSAT


def test_unit_propagation_forces_model():
    res = solve_internal(CnfInstance(2, [[1, 2], [-1]]))
    assert res.status is SolveStatus.SAT
    assert res.model == {1: False, 2: True}


def test_kb_conjunction_unsat(k4):
    vm = VarMap()
    clauses = []
    for f in k4:
        tseitin_append(f, vm, clauses)
    assert solve_internal(CnfInstance(len(vm), clauses, vm)).status is SolveStatus.UNSAT


def test_empty_clause_unsat():
    assert solve_internal(CnfInstance(1, [[]])).status is SolveStatus.UNSAT


def test_no_clauses_sat():
    res = solve_internal(CnfInstance(3, []))
    assert res.status is SolveStatus.SAT
    assert set(res.model) == {1, 2, 3}


def _random_cnf(rng, max_vars=16):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, 3 * n)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(4, n))
        lits = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    return CnfInstance(n, clauses)


def _truth_table_sat(cnf):
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in cnf.clauses):
            return True
    return False


def test_internal_agrees_with_truth_table_randomized():
    rng = random.Random(0xC0FFEE)
    for _ in range(400):
        cnf = _random_cnf(rng, max_vars=10)
        got = solve_internal(cnf).status is SolveStatus.SAT
        assert got == _truth_table_sat(cnf)


def test_models_are_verified_total():
    rng = random.Random(7)
    for _ in range(50):
        cnf = _random_cnf(rng, max_vars=12)
        res = solve_internal(cnf)
        if res.status is SolveStatus.SAT:
            assert set(res.model) == set(range(1, cnf.num_vars + 1))
            for clause in cnf.clauses:
                assert any(res.model[abs(l)] == (l > 0) for l in clause)


def test_deterministic_across_runs():
    rng = random.Random(99)
    cnfs = [_random_cnf(rng) for _ in range(25)]
    first = [solve_internal(c).model for c in cnfs]
    second = [solve_internal(c).model for c in cnfs]
    assert first == second


def test_timeout_is_reported():
    # a hard pigeonhole-style instance with an immediate deadline
    n_holes = 8
    vm = VarMap()
    var = {}
    for p in range(n_holes + 1):
        for h in range(n_holes):
            var[p, h] = vm.var(("atom", f"p{p}h{h}"))
    clauses = [[var[p, h] for h in range(n_holes)] for p in range(n_holes + 1)]
    for h in range(n_holes):
        for p1 in range(n_holes + 1):
            for p2 in range(p1 + 1, n_holes + 1):
                clauses.append([-var[p1, h], -var[p2, h]])
    res = solve_internal(CnfInstance(len(vm), clauses, vm), deadline=time.monotonic())
    assert res.status is SolveStatus.TIMEOUT


def _pigeonhole(pigeons, holes):
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, h), -var(p2, h)])
    return CnfInstance(pigeons * holes, clauses)


def test_engine_counts_its_work():
    """A call reports its decisions, propagated literals, conflicts and
    restarts; ticks beyond loading are the propagated literals plus one per
    decision rule consulted."""
    res = solve_internal(CnfInstance(4, [[1], [-1, 2], [-2, 3]]))
    assert (res.decisions, res.propagations, res.conflicts, res.restarts) == (1, 4, 0, 0)
    res = solve_internal(_pigeonhole(6, 5))
    assert res.status is SolveStatus.UNSAT
    assert res.conflicts > 128 and res.restarts == 1 and res.decisions > 0
    rng = random.Random(41)
    for _ in range(200):
        cnf = _random_cnf(rng)
        engine = cnf.engine = _Cdcl()
        engine.load(cnf)
        loaded, loaded_ok = engine.ticks, engine.ok
        res = solve_internal(cnf)
        assert engine.ticks - loaded == res.propagations + res.decisions + res.is_sat
        if res.refuted:  # by a conflict at level 0, unless loading found one
            assert (res.conflicts > 0) == loaded_ok
        again = solve_internal(cnf, assumptions=[1])
        assert again.conflicts <= again.propagations


# --- DIMACS ---------------------------------------------------------------

def test_emit_dimacs_exact_text():
    assert emit_dimacs(CnfInstance(2, [[1, -2]])) == "p cnf 2 1\n1 -2 0\n"


def test_parse_solver_output_unsat():
    assert parse_solver_output("s UNSATISFIABLE\n", 2).status is SolveStatus.UNSAT


def test_parse_solver_output_model():
    res = parse_solver_output("c comment\ns SATISFIABLE\nv 1 -2 0\n", 2)
    assert res.status is SolveStatus.SAT
    assert res.model == {1: True, 2: False}


def test_parse_solver_output_garbage():
    with pytest.raises(SolverOutputError):
        parse_solver_output("hello\n", 1)


def test_dimacs_round_trip_preserves_clauses():
    rng = random.Random(5)
    for _ in range(100):
        cnf = _random_cnf(rng)
        back = parse_dimacs(emit_dimacs(cnf))
        assert back.num_vars == cnf.num_vars
        assert sorted(map(tuple, back.clauses)) == sorted(map(tuple, cnf.clauses))


def test_emit_wcnf_header_and_weights():
    text = emit_wcnf(CnfInstance(3, [[1, 2]]), [-3, -2])
    lines = text.splitlines()
    assert lines[0] == "p wcnf 3 3 3"
    assert lines[1] == "3 1 2 0"
    assert lines[2] == "1 -3 0"
    assert lines[3] == "1 -2 0"


# --- external backend ------------------------------------------------------

def test_external_backend_round_trip(fake_solver):
    cfg = BackendConfig(solver_path=fake_solver, timeout=60)
    sat = solve(CnfInstance(2, [[1, 2], [-1]]), cfg)
    assert sat.status is SolveStatus.SAT and sat.model == {1: False, 2: True}
    unsat = solve(CnfInstance(1, [[1], [-1]]), cfg)
    assert unsat.status is SolveStatus.UNSAT


def test_external_backend_agreement_randomized(fake_solver):
    cfg = BackendConfig(solver_path=fake_solver, timeout=60)
    rng = random.Random(21)
    for _ in range(10):
        cnf = _random_cnf(rng, max_vars=8)
        assert solve(cnf, cfg).is_sat == solve_internal(cnf).is_sat


def test_external_backend_agreement_on_measure_encodings(fake_solver, k4, k7):
    from incmeter.encodings import encode
    from incmeter.search import search_range
    from incmeter.values import MEASURES

    cfg = BackendConfig(solver_path=fake_solver, timeout=60)
    for kb in (k4, k7):
        for measure in MEASURES:
            rng = search_range(measure, kb)
            for u in (rng.min, rng.max):
                cnf = encode(measure, kb, u).cnf
                assert solve(cnf, cfg).is_sat == solve_internal(cnf).is_sat


def test_external_backend_missing():
    cfg = BackendConfig(solver_path="/nonexistent/sat", timeout=5)
    with pytest.raises(BackendUnavailableError):
        solve(CnfInstance(1, [[1]]), cfg)


def _exiting_solver(tmp_path, code):
    """A DIMACS solver that prints no status line and exits with `code`."""
    script = tmp_path / f"exit{code}sat"
    script.write_text(f"#!/bin/sh\necho c no verdict here\nexit {code}\n")
    script.chmod(0o755)
    return str(script)


def test_external_exit_code_20_without_status_line_is_unsat(tmp_path):
    cfg = BackendConfig(solver_path=_exiting_solver(tmp_path, 20), timeout=60)
    res = solve(CnfInstance(1, [[1], [-1]]), cfg)
    assert res.status is SolveStatus.UNSAT and res.refuted


def test_external_exit_code_10_without_status_line_is_an_output_error(tmp_path):
    cfg = BackendConfig(solver_path=_exiting_solver(tmp_path, 10), timeout=60)
    with pytest.raises(SolverOutputError):
        solve(CnfInstance(1, [[1]]), cfg)


def test_external_backend_timeout_kills_process(sleepy_solver):
    cfg = BackendConfig(solver_path=sleepy_solver, timeout=0.2)
    res = solve(CnfInstance(1, [[1]]), cfg)
    assert res.status is SolveStatus.TIMEOUT


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
def test_timeout_must_be_finite_and_positive(timeout):
    with pytest.raises(ValueError):
        BackendConfig(timeout=timeout)


def test_timeout_beyond_what_the_bridges_can_wait_for_is_rejected():
    """``subprocess.run`` cannot wait 3e6 s, so no backend takes that limit."""
    with pytest.raises(ValueError):
        BackendConfig(timeout=3e6)
    with pytest.raises(ValueError):
        BackendConfig(solver_path="/bin/cat", timeout=MAX_TIMEOUT * 1.000001)
    assert BackendConfig(solver_path="/bin/cat", timeout=MAX_TIMEOUT).timeout == MAX_TIMEOUT


# --- MaxSAT ----------------------------------------------------------------

def test_maxsat_no_conflict_costs_zero():
    inst = MaxSatInstance(CnfInstance(1, []), [-1])
    cost, model = solve_maxsat(inst)
    assert cost == 0 and model[1] is False


def test_maxsat_forced_violations():
    # hard forces both vars true; softs prefer them false
    inst = MaxSatInstance(CnfInstance(2, [[1], [2]]), [-1, -2])
    cost, model = solve_maxsat(inst)
    assert cost == 2 and model == {1: True, 2: True}


def test_maxsat_positive_soft_literals_need_relaxation():
    inst = MaxSatInstance(CnfInstance(2, [[-1, -2]]), [1, 2])
    cost, _ = solve_maxsat(inst)
    assert cost == 1


def test_maxsat_hard_unsat_reported():
    inst = MaxSatInstance(CnfInstance(1, [[1], [-1]]), [-1])
    with pytest.raises(HardClausesUnsatisfiableError):
        solve_maxsat(inst)


def test_maxsat_contension_examples(k4, k7):
    from incmeter.encodings import encode_contension_maxsat

    for kb, want in ((k4, 1), (k7, 1), (parse_kb("x\ny"), 0)):
        inst = encode_contension_maxsat(kb)
        cost, _ = solve_maxsat(inst)
        assert cost == want


def test_maxsat_call_count_recorded(k4):
    from incmeter.encodings import encode_contension_maxsat
    from incmeter.search import _PhaseClock

    clock = _PhaseClock()
    solve_maxsat(encode_contension_maxsat(k4), clock=clock)
    assert clock.calls >= 1
    assert clock.counters["propagations"] > 0
    assert clock.acc["solving"] > 0


# --- the engine's search, pinned ------------------------------------------

def _recorded_search(monkeypatch, cells):
    """Run every (measure, method, kb) of `cells` and give, per (measure,
    method), the solver calls, the summed engine counters and a digest of
    every call's status and model, in call order."""
    import hashlib

    from incmeter import search

    seen = []

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(search, "solve", recording)
    got = {}
    for measure, method, kb in cells:
        seen.clear()
        outcome = search.compute(measure, kb, method)
        assert outcome.status == "ok" and outcome.solver_calls == len(seen)
        entry = got.setdefault((measure, method), [0, 0, 0, 0, 0, hashlib.sha256()])
        entry[0] += outcome.solver_calls
        for i, name in enumerate(("decisions", "propagations", "conflicts", "restarts")):
            entry[i + 1] += outcome.engine_counters[name]
        for result in seen:
            model = sorted(v for v, value in (result.model or {}).items() if value)
            entry[5].update(f"{result.status.value}:{model};".encode())
    return {key: (*entry[:5], entry[5].hexdigest()[:16]) for key, entry in got.items()}


# (measure, method): solver calls, decisions, propagations, conflicts,
# restarts, and the first 16 hex digits of the models' digest
_PINNED_SEARCH = {
    ("contension", "sat-binary"): (68, 226, 10822, 65, 0, "219c17a32594c938"),
    ("contension", "sat-linear"): (68, 44, 5993, 52, 0, "5496395fe6afb2e4"),
    ("forgetting", "sat-binary"): (106, 4730, 27857, 155, 0, "9923e2ffa648880e"),
    ("forgetting", "sat-linear"): (78, 241, 11765, 113, 0, "9475c17a8ea9de42"),
    ("hitting-set", "sat-binary"): (79, 2155, 7121, 36, 0, "33598701f6d12976"),
    ("hitting-set", "sat-linear"): (71, 192, 1280, 27, 0, "16ea912d2a067d42"),
    ("max-distance", "sat-binary"): (69, 1028, 4903, 19, 0, "ccb2c45de96c6150"),
    ("max-distance", "sat-linear"): (63, 492, 3392, 8, 0, "c9889197f8861ce6"),
    ("sum-distance", "sat-binary"): (136, 3425, 18937, 144, 0, "092adf4ac674df9f"),
    ("sum-distance", "sat-linear"): (250, 128, 7383, 83, 0, "bf6089e8aec1c9c9"),
    ("hit-distance", "sat-binary"): (79, 1780, 5256, 48, 0, "93ae52ab17a47a44"),
    ("hit-distance", "sat-linear"): (67, 93, 2635, 59, 0, "7143fc203ef311e3"),
    ("contension", "maxsat"): (90, 356, 14077, 66, 0, "d92693e8c992f652"),
}


def test_engine_search_is_pinned(monkeypatch, k4, k5, k6, k7):
    """K4-K7 and the sat-mix base corpus, every measure by binary and linear
    search and contension by maxsat: the engine makes the same decisions,
    propagations, conflicts and restarts and returns the same models as when
    this pin was written.  A change that means to alter the search updates
    the pin."""
    from incmeter.bench import SrsParams, generate_corpus
    from incmeter.values import MEASURES

    kbs = [k4, k5, k6, k7] + [kb for _, kb in generate_corpus(SrsParams(6, 8, 14, seed=7), 20)]
    pairs = [(m, meth) for m in MEASURES for meth in ("sat-binary", "sat-linear")]
    pairs.append(("contension", "maxsat"))
    got = _recorded_search(monkeypatch, [(m, meth, kb) for m, meth in pairs for kb in kbs])
    assert got == _PINNED_SEARCH
    # a run with restarts and long learned clauses: forgetting by binary
    # search on the first KB of the 24-atom corpus
    _, kb = generate_corpus(SrsParams(24, 60, 80, seed=31), 1)[0]
    got = _recorded_search(monkeypatch, [("forgetting", "sat-binary", kb)])
    assert got == {
        ("forgetting", "sat-binary"): (7, 2124, 165146, 573, 4, "d7e6bf7b4b4c61d5"),
    }
