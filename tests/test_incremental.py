"""Incremental solving: assumptions, the kept engine, growing encodings,
and search sessions that probe one instance."""

import gc
import itertools
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

from incmeter import search
from incmeter.bench import SrsParams, generate_corpus
from incmeter.cardinality import CounterAllocator, SequentialCounter
from incmeter.cnf import TAG_INV, CnfInstance
from incmeter.encodings import (
    encode,
    encode_contension_maxsat,
    expected_base_size,
    prepare_kb,
)
from incmeter.kb import atoms_of, parse_kb
from incmeter.oracles import MeasureUndefinedError, oracle_value
from incmeter.search import binary_search, linear_search
from incmeter.solver import (
    BackendConfig,
    SolveStatus,
    _Cdcl,
    _DeadlineReached,
    solve,
    solve_internal,
)
from incmeter.search import solve_maxsat
from incmeter.values import MEASURES

N_VARS = 8
literals = st.integers(1, N_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
clauses = st.lists(literals, min_size=1, max_size=4)
steps = st.lists(
    st.tuples(
        st.lists(clauses, max_size=6),
        st.lists(literals, max_size=4, unique_by=abs),
    ),
    min_size=1,
    max_size=8,
)


@given(steps)
def test_kept_engine_agrees_with_fresh_solves(calls):
    """Clauses appended between calls and changing assumptions give the
    verdict of a fresh solve with the assumptions as units; once refuted,
    the engine stays refuted, and only ever for unsatisfiable clauses."""
    cnf = CnfInstance(0, [])
    refuted = False
    for new_clauses, assumptions in calls:
        cnf.clauses.extend(new_clauses)
        used = [abs(lit) for c in cnf.clauses for lit in c] + [abs(a) for a in assumptions]
        cnf.num_vars = max([cnf.num_vars, *used])
        got = solve_internal(cnf, assumptions=assumptions)
        units = [[a] for a in assumptions]
        fresh = solve_internal(CnfInstance(cnf.num_vars, cnf.clauses + units))
        assert got.status is fresh.status
        if refuted:
            assert got.status is SolveStatus.UNSAT and got.refuted
        if got.refuted:
            alone = solve_internal(CnfInstance(cnf.num_vars, list(cnf.clauses)))
            assert alone.status is SolveStatus.UNSAT
        refuted = got.refuted


def _scan_decision(engine):
    """The decision rule written as a scan: highest activity, lowest index."""
    best, best_act = 0, -1.0
    for var in range(1, engine.n + 1):
        if engine.assign[var] == 0 and engine.activity[var] > best_act:
            best, best_act = var, engine.activity[var]
    return best


ops = st.lists(
    st.one_of(
        st.tuples(st.just("bump"), st.integers(1, 40)),
        st.tuples(st.just("assign"), st.integers(-40, 40).filter(bool)),
        st.tuples(st.just("backtrack"), st.integers(0, 6)),
        st.tuples(st.just("decide"), st.just(0)),
        st.tuples(st.just("inflate"), st.just(0)),
    ),
    max_size=120,
)


@given(ops)
def test_heap_decision_equals_scan(sequence):
    engine = _Cdcl()
    engine.load(CnfInstance(40, []))
    level = 0
    for op, arg in sequence:
        if op == "bump":
            engine._bump(arg)
        elif op == "assign" and engine.assign[abs(arg)] == 0:
            level += 1
            engine._enqueue(arg, None, level)
        elif op == "backtrack":
            level = min(level, arg)
            engine._backtrack(level)
        elif op == "inflate" and engine.act_inc < 1e50:
            engine.act_inc *= 1e60  # the next bumps pass the rescaling limit
        elif op == "decide":
            want = _scan_decision(engine)
            assert engine._decide() == want
            if want:
                level += 1
                engine._enqueue(-want, None, level)
    assert engine._decide() == _scan_decision(engine)


@pytest.mark.parametrize("n", range(1, 6))
def test_growing_counter_bounds_by_assumption(n):
    """One counter serves every bound, asked for in any order."""
    variables = list(range(1, n + 1))
    alloc = CounterAllocator(n)
    counter = SequentialCounter(variables, alloc)
    cnf = CnfInstance(n, [])
    for k in random.Random(n).sample(range(n + 1), n + 1):
        new_clauses, lit = counter.at_most(k)
        cnf.clauses.extend(new_clauses)
        cnf.num_vars = alloc.top
        assert (lit is None) == (k >= n)
        for bits in itertools.product([False, True], repeat=n):
            inputs = [v if b else -v for v, b in zip(variables, bits)]
            assumptions = inputs + ([lit] if lit is not None else [])
            got = solve_internal(cnf, assumptions=assumptions).is_sat
            assert got == (sum(bits) <= k), (n, k, bits)


def test_bound_free_encoding_takes_bounds_by_assumption(k7):
    for measure in MEASURES:
        rng = search.search_range(measure, k7)
        enc = encode(measure, k7)
        for u in reversed(range(rng.min, rng.max + 1)):
            assumptions = enc.assume(u)
            want = solve(encode(measure, k7, u).cnf).is_sat
            assert solve(enc.cnf, None, assumptions).is_sat == want, (measure, u)
        with pytest.raises(ValueError):
            encode(measure, k7, rng.min).assume(rng.min)


@pytest.mark.parametrize("runner", [binary_search, linear_search])
@pytest.mark.parametrize("measure", MEASURES)
def test_session_probes_match_one_shot_encodings(monkeypatch, runner, measure):
    """Every probe of a session answers as a fresh one-shot encoding would."""
    probes = []
    original = search._Session.probe

    def recording(self, bound):
        verdict = original(self, bound)
        probes.append((self.kb, bound, verdict))
        return verdict

    monkeypatch.setattr(search._Session, "probe", recording)
    kbs = generate_corpus(SrsParams(4, 1, 8, seed=811), 10)
    kbs.append(("bottom", parse_kb("x\n- && y\n!x || z")))
    for _kb_id, kb in kbs:
        try:
            runner(measure, kb)
        except MeasureUndefinedError:
            pass
    assert probes
    for pkb, bound, verdict in probes:
        assert verdict == solve(encode(measure, pkb, bound).cnf).is_sat, (pkb, bound)


def test_search_prepares_the_kb_once(monkeypatch, k7):
    from incmeter import encodings

    calls = []
    original = encodings.prepare_kb
    monkeypatch.setattr(encodings, "prepare_kb", lambda kb: calls.append(kb) or original(kb))
    for measure in MEASURES:
        for runner in (binary_search, linear_search):
            calls.clear()
            runner(measure, k7)
            assert len(calls) == 1, (measure, runner)
    calls.clear()
    search.compute("contension", k7, "maxsat")
    assert len(calls) == 1


def test_maxsat_leaves_the_instance_alone(k7):
    inst = encode_contension_maxsat(k7)
    clauses = [list(c) for c in inst.hard.clauses]
    cost, model = solve_maxsat(inst)
    assert cost == 1
    assert inst.hard.clauses == clauses
    assert set(model) == set(range(1, inst.hard.num_vars + 1))


def test_external_backend_takes_assumptions_as_units(fake_solver):
    cfg = BackendConfig(kind="external", solver_path=fake_solver, timeout=60)
    cnf = CnfInstance(3, [[1, 2], [-1, 3]])
    for assumptions in ([], [1], [1, -3], [-1, -2]):
        ext = solve(cnf, cfg, assumptions)
        internal = solve_internal(CnfInstance(3, list(cnf.clauses)), None, assumptions)
        assert ext.status is internal.status
        if ext.is_sat:
            assert all(ext.model[abs(a)] == (a > 0) for a in assumptions)
    assert solve(CnfInstance(1, [[1], [-1]]), cfg).refuted


def test_deadline_holds_while_clauses_load():
    """A limit far below the loading time of the instance cuts the call short."""
    rng = random.Random(5)
    n = 30000
    big = CnfInstance(n, [
        [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)] for _ in range(300000)
    ])
    begin = time.monotonic()
    res = solve(big, BackendConfig(timeout=0.05))
    elapsed = time.monotonic() - begin
    assert res.status is SolveStatus.TIMEOUT
    assert elapsed < 0.05 + 0.25


def test_prepared_kb_is_not_prepared_again(k7):
    pkb = prepare_kb(k7)
    assert search.search_range("contension", pkb) == search.search_range("contension", k7)
    assert encode("contension", pkb, 1).cnf.clauses == encode("contension", k7, 1).cnf.clauses


def test_engine_resumes_propagation_cut_by_the_deadline():
    """Level-0 literals queued when the deadline struck still propagate on
    the next call, so their clauses are not skipped."""
    n = 5000
    clash = [[-(n - 1), -n]]  # falsified once the star below has propagated
    cnf = CnfInstance(n, clash + [[-1, k] for k in range(2, n + 1)] + [[1]])
    engine = cnf.engine = _Cdcl()
    engine.load(cnf)
    engine.deadline = time.monotonic() - 1.0
    assert engine.solve().status is SolveStatus.TIMEOUT
    res = solve_internal(cnf)
    assert res.status is SolveStatus.UNSAT and res.refuted


@pytest.mark.parametrize("measure", MEASURES)
def test_one_shot_encoding_is_the_session_plus_units(k7, measure):
    """encode(m, kb, u) is encode(m, kb) grown by assume(u), plus one unit
    clause per literal assumed."""
    kbs = [k7] + [kb for _, kb in generate_corpus(SrsParams(3, 1, 5, seed=97), 6)]
    for kb in kbs:
        rng = search.search_range(measure, kb)
        for u in range(rng.min, rng.max + 1):
            session = encode(measure, kb)
            lits = session.assume(u)
            one_shot = encode(measure, kb, u)
            assert one_shot.cnf.clauses == session.cnf.clauses + [[lit] for lit in lits], u
            assert one_shot.cnf.num_vars == session.cnf.num_vars, u


# --- distance counters over the atoms each formula mentions -----------------

DISTANCES = ("max-distance", "sum-distance")
# Each formula mentions few of the seven atoms; "d || +" folds to +.
SPARSE = parse_kb("a && b\n!a && !b && c\nd || +\n!c\ne && !f\nf || g\n!g")


def _sparse_kbs():
    corpus = generate_corpus(SrsParams(8, 3, 7, pd=0.25, pc=0.25, pn=0.2, seed=401), 8)
    return [kb for _, kb in corpus] + [SPARSE, parse_kb("a\n- && b\n!a || c")]


def _mentioned_invs(enc, kb):
    """inv(x, i) for each atom x of the i-th prepared formula, formula by formula."""
    return [
        enc.varmap.id_of((TAG_INV, x, i))
        for i, formula in enumerate(prepare_kb(kb), 1)
        for x in sorted(atoms_of(formula))
    ]


def _counted(measure, kb):
    """How many literals the bound can count: per formula, or in total."""
    sizes = [len(atoms_of(f)) for f in prepare_kb(kb)]
    return max(sizes) if measure == "max-distance" else sum(sizes)


@pytest.mark.parametrize("measure", DISTANCES)
def test_distance_counters_take_only_mentioned_atoms(k7, measure):
    for kb in (k7, SPARSE):
        enc = encode(measure, kb)
        invs = _mentioned_invs(enc, kb)
        assert [-lit for lit in enc.assume(0)] == invs
        tag = "SDM7" if measure == "max-distance" else "SDS7"
        for u in range(1, _counted(measure, kb)):
            enc.assume(u)
        used = {
            abs(lit)
            for rule, start, end in enc.rule_spans if rule == tag
            for clause in enc.cnf.clauses[start:end]
            for lit in clause
        }
        aux = {v for v in used if enc.varmap.name_of(v)[0] == "aux"}
        assert used - aux <= set(invs), measure
    assert len(invs) == 11  # of SPARSE's 49 inv variables


@pytest.mark.parametrize("measure", DISTANCES)
def test_distance_bound_past_the_counted_atoms_adds_nothing(k7, measure):
    for kb in (k7, SPARSE):
        enc = encode(measure, kb)
        size = (len(enc.cnf.clauses), enc.cnf.num_vars)
        count = _counted(measure, kb)
        for u in (count, count + 1, search.search_range(measure, kb).max):
            assert enc.assume(u) == [], (measure, u)
            assert (len(enc.cnf.clauses), enc.cnf.num_vars) == size


@pytest.mark.parametrize("measure", DISTANCES)
def test_distance_values_on_sparse_kbs_match_the_oracle(measure):
    for kb in _sparse_kbs():
        want = oracle_value(kb, measure)
        assert binary_search(measure, kb).value == want, kb
        assert linear_search(measure, kb).value == want, kb


def test_distance_base_sizes_hold_on_sparse_kbs(k7):
    for kb in [k7, *_sparse_kbs()]:
        for measure in DISTANCES:
            enc = encode(measure, kb)
            assert enc.base_signature_size == expected_base_size(measure, kb)


def test_finished_searches_leave_no_instance_for_the_cyclic_collector(k7):
    """No encoding, its clauses or its kept engine outlive the search in a
    reference cycle: with the collector off, none is left alive."""

    def live():
        return sum(isinstance(obj, CnfInstance) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live()
        for measure in MEASURES:
            for method in ("sat-binary", "sat-linear"):
                search.compute(measure, k7, method)
                assert live() == before, (measure, method)
        search.compute("contension", k7, "maxsat")
        assert live() == before
    finally:
        gc.enable()


# --- the literal-indexed engine ---------------------------------------------


def _watched(engine):
    """Every clause the engine watches, by id, after checking that each one
    sits in exactly the watch lists of its first two literals."""
    where = {}
    clauses = {}
    for lit in range(-engine.n, engine.n + 1):
        for clause in engine.watches[lit]:
            where.setdefault(id(clause), []).append(lit)
            clauses[id(clause)] = clause
    for key, clause in clauses.items():
        assert sorted(where[key]) == sorted([-clause[0], -clause[1]]), clause
    return clauses


def _simplified(facts, raw):
    """The clauses as loading should keep them, each simplified against the
    facts and the unit clauses loaded before it: (level-0 literals in load
    order, clauses of two or more literals, whether an empty clause arose)."""
    fixed = list(facts)
    kept = []
    for clause in raw:
        if any(lit in fixed or -lit in clause for lit in clause):
            continue  # satisfied at level 0, or a tautology
        short = list(dict.fromkeys(lit for lit in clause if -lit not in fixed))
        if not short:
            return fixed, kept, True
        if len(short) == 1:
            fixed.append(short[0])
        else:
            kept.append(short)
    return fixed, kept, False


@given(
    st.lists(literals, max_size=4, unique_by=abs),
    st.lists(st.lists(literals, min_size=1, max_size=6), max_size=10),
    st.lists(literals, max_size=3, unique_by=abs),
)
def test_add_clause_simplifies_against_level_zero(facts, raw, assumptions):
    """Repeated literals, tautologies and literals fixed at level 0: the
    engine keeps exactly the simplified clauses and answers as a fresh solve
    of them does."""
    cnf = CnfInstance(N_VARS, [[lit] for lit in facts] + raw)
    engine = cnf.engine = _Cdcl()
    engine.load(cnf)
    fixed, kept, refuted = _simplified(facts, raw)
    assert engine.ok is not refuted
    assert not any(engine.seen)
    if not refuted:
        assert engine.trail == fixed
        assert sorted(_watched(engine).values()) == sorted(kept)
    got = solve_internal(cnf, assumptions=assumptions)
    _watched(engine)  # the watch invariant holds after a search too
    if refuted:
        assert got.refuted
        assert solve_internal(CnfInstance(N_VARS, cnf.clauses)).status is SolveStatus.UNSAT
        return
    units = [[a] for a in assumptions]
    fresh = solve_internal(CnfInstance(N_VARS, [[lit] for lit in fixed] + kept + units))
    assert got.status is fresh.status


def test_load_cut_by_the_deadline_resumes_at_the_first_unloaded_clause():
    """A load that the deadline cuts leaves the engine as if it had loaded
    the clauses before the cut and no other: loading the rest later gives
    the trail, watch lists and ticks of one uncut load."""
    rng = random.Random(17)
    n = 3000
    clauses = []
    for _ in range(3 * _Cdcl.CHECK_EVERY):
        width = 1 if rng.random() < 0.01 else rng.choice([2, 3, 4])
        clause = [rng.choice([v, -v]) for v in rng.choices(range(1, n + 1), k=width)]
        if rng.random() < 0.05:
            clause += [clause[0], -clause[-1]]  # a repeat and a tautology
        clauses.append(clause)

    def engine_state(engine):
        return engine.trail, engine.watches, engine.assign, engine.ticks, engine.loaded, engine.ok

    whole = _Cdcl()
    whole.load(CnfInstance(n, clauses))
    assert whole.ok and whole.trail and whole.ticks == len(clauses)
    cut = _Cdcl()
    cnf = CnfInstance(n, clauses)
    cut.deadline = time.monotonic() - 1.0
    with pytest.raises(_DeadlineReached):
        cut.load(cnf)
    assert 0 < cut.loaded < len(clauses) and cut.ticks == cut.loaded
    assert not any(cut.seen)
    before = engine_state(cut)
    with pytest.raises(_DeadlineReached):  # past the deadline, nothing more loads
        cut.load(cnf)
    assert engine_state(cut) == before
    cut.deadline = None
    cut.load(cnf)
    assert engine_state(cut) == engine_state(whole)


def test_engine_grows_across_loads_and_agrees_with_fresh_solves():
    """One engine's variable count grows from a few to several hundred over
    many loads.  Its per-literal arrays stay consistent, and its level-0
    facts, learned clauses and verdicts under assumptions agree with fresh
    solves of the clauses it was given."""
    rng = random.Random(7)
    cnf = CnfInstance(0, [])
    checked: set[int] = set()
    facts_checked = 0
    verdicts = set()

    def implied(clause):
        units = [[-lit] for lit in clause]
        return solve_internal(CnfInstance(cnf.num_vars, cnf.clauses + units)).status is SolveStatus.UNSAT

    while cnf.num_vars < 400:
        old = cnf.num_vars
        cnf.num_vars += rng.randint(1, 15)
        new = range(old + 1, cnf.num_vars + 1)
        for _ in range(2 * len(new)):
            lits = [rng.choice(new)] + rng.sample(range(1, cnf.num_vars + 1), min(2, cnf.num_vars))
            cnf.clauses.append(list({v * rng.choice((1, -1)) for v in lits}))
        if rng.random() < 0.2:
            cnf.clauses.append([rng.choice((1, -1)) * rng.randint(1, cnf.num_vars)])
        picked = rng.sample(range(1, cnf.num_vars + 1), min(8, cnf.num_vars))
        assumptions = [v * rng.choice((1, -1)) for v in picked]
        got = solve_internal(cnf, assumptions=assumptions)
        units = [[a] for a in assumptions]
        assert got.status is solve_internal(CnfInstance(cnf.num_vars, cnf.clauses + units)).status
        verdicts.add(got.status)
        engine = cnf.engine
        n = engine.n
        assert n == cnf.num_vars
        assert len(engine.assign) == len(engine.watches) == 2 * n + 1
        assert all(engine.assign[v] == -engine.assign[-v] for v in range(1, n + 1))
        for lit in engine.trail[facts_checked:]:  # level-0 facts since the last step
            assert implied([lit]), lit
        facts_checked = len(engine.trail)
        given_sets = [set(c) for c in cnf.clauses]
        for clause in _watched(engine).values():
            if id(clause) not in checked and not any(set(clause) <= g for g in given_sets):
                checked.add(id(clause))
                assert implied(clause), clause
    assert engine.ok and facts_checked > 10 and len(checked) > 10
    assert verdicts == {SolveStatus.SAT, SolveStatus.UNSAT}


# --- forgetting counts forgotten occurrences ---------------------------------


def _forgetting_kbs(k7):
    corpus = generate_corpus(SrsParams(5, 3, 7, seed=523), 8)
    return [k7, *(kb for _, kb in corpus), parse_kb("x && !x\n(x || y) && !y\n+ || z")]


def test_forgetting_counter_takes_one_literal_per_occurrence(k7):
    for kb in _forgetting_kbs(k7):
        occurrences = len(prepare_kb(kb).occurrences())
        enc = encode("forgetting", kb)
        assert enc.base_signature_size == 3 * occurrences == expected_base_size("forgetting", kb)
        lits = enc.assume(0)
        assert len(set(lits)) == len(lits) == occurrences
        assert all(enc.varmap.name_of(-lit)[0] == "aux" for lit in lits)


def test_forgetting_values_match_the_oracle(k7):
    values = set()
    for kb in _forgetting_kbs(k7):
        want = oracle_value(kb, "forgetting")
        values.add(want)
        assert binary_search("forgetting", kb).value == want, kb
        assert linear_search("forgetting", kb).value == want, kb
    assert len(values) > 2
