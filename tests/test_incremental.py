"""Incremental solving: assumptions, the kept engine, growing encodings,
and search sessions that probe one instance."""

import gc
import heapq
import itertools
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

from incmeter import search
from incmeter.bench import SrsParams, generate_corpus
from incmeter.cardinality import SumCounter
from incmeter.cnf import TAG_BLOCK, TAG_COPY, TAG_INV, CnfInstance, VarMap
from incmeter.encodings import (
    SatEncoding,
    encode,
    encode_contension_maxsat,
    expected_base_size,
    prepare_kb,
)
from incmeter.kb import KnowledgeBase, atoms_of, eval2, interpretations, parse_formula, parse_kb
from incmeter.oracles import MeasureUndefinedError, oracle_value
from incmeter.search import binary_search, linear_search
from incmeter.solver import (
    BackendConfig,
    SolveStatus,
    _Cdcl,
    _DeadlineReached,
    fixed_false,
    solve,
    solve_internal,
)
from incmeter.search import solve_maxsat
from incmeter.values import INF, MEASURES
from test_cardinality import _splits

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


def _reference_backtrack(engine, back_level):
    """The backtrack written as a per-literal loop: pop while the last
    literal's level is above `back_level`."""
    trail = engine.trail
    while trail and engine.level[abs(trail[-1])] > back_level:
        lit = trail.pop()
        var = abs(lit)
        engine.saved[var] = lit > 0
        engine.assign[lit] = engine.assign[-lit] = 0
        engine.reason[var] = None
        if engine.activity[var] > 0.0:
            if not engine.in_heap[var]:
                heapq.heappush(engine.heap, (-engine.activity[var], var))
                engine.in_heap[var] = 1
        elif var < engine.cursor:
            engine.cursor = var
    engine.qhead = min(engine.qhead, len(trail))
    del engine.lim[back_level:]  # so that the next enqueue opens its level


trail_ops = st.lists(
    st.one_of(
        st.tuples(st.just("bump"), st.integers(1, 12)),
        # a literal at the current level (with a reason; at level 0, a
        # fact), at the next level, or past an empty level, as an assumption
        # that already holds leaves
        st.tuples(st.sampled_from(["imply", "open", "skip"]), st.integers(-12, 12).filter(bool)),
        st.tuples(st.just("backtrack"), st.integers(0, 8)),
        st.tuples(st.just("decide"), st.booleans()),
        st.tuples(st.just("propagated"), st.just(0)),
    ),
    max_size=150,
)


@given(trail_ops)
def test_backtrack_by_level_boundaries_equals_per_literal_loop(sequence):
    """Random enqueue, backtrack and decide sequences: undoing the trail from
    each level's boundary leaves the trail, values, reasons, saved phases,
    decision heap, cursor and queue head of a per-literal loop."""
    engine, ref = _Cdcl(), _Cdcl()
    for e in (engine, ref):
        e.load(CnfInstance(12, []))
    level = 0

    def state(e):
        return (e.trail, e.assign, e.reason, e.saved, e.heap, e.in_heap, e.cursor, e.qhead,
                e.lim, e.ticks)

    for op, arg in sequence:
        if op == "bump":
            engine._bump(arg)
            ref._bump(arg)
        elif op in ("imply", "open", "skip") and engine.assign[abs(arg)] == 0:
            if op != "imply":
                level += 2 if op == "skip" else 1
            for e in (engine, ref):
                e._enqueue(arg, [arg, -arg] if op == "imply" else None, level)
        elif op == "backtrack" and arg < level:
            level = arg
            engine._backtrack(level)
            _reference_backtrack(ref, level)
        elif op == "decide":
            var = engine._decide()
            assert ref._decide() == var
            if var:
                level += 1
                for e in (engine, ref):
                    e._enqueue(var if arg else -var, None, level)
        elif op == "propagated":
            engine.qhead = ref.qhead = len(engine.trail)
        assert state(engine) == state(ref)
    engine._backtrack(0)
    _reference_backtrack(ref, 0)
    assert state(engine) == state(ref)
    assert all(engine.level[abs(lit)] == 0 for lit in engine.trail)


@pytest.mark.parametrize("n", range(1, 6))
def test_growing_counter_bounds_by_assumption(n):
    """One counter serves every bound, asked for in any order."""
    variables = list(range(1, n + 1))
    alloc = VarMap(n)
    counter = SumCounter([variables], alloc)
    cnf = CnfInstance(n, [])
    for k in random.Random(n).sample(range(n + 1), n + 1):
        new_clauses, lit = counter.at_most(k)
        cnf.clauses.extend(new_clauses)
        cnf.num_vars = len(alloc)
        assert (lit is None) == (k >= n)
        for bits in itertools.product([False, True], repeat=n):
            inputs = [v if b else -v for v, b in zip(variables, bits)]
            assumptions = inputs + ([lit] if lit is not None else [])
            got = solve_internal(cnf, assumptions=assumptions).is_sat
            assert got == (sum(bits) <= k), (n, k, bits)


@pytest.mark.parametrize("n", range(1, 7))
def test_summed_counter_bounds_every_split_by_assumption(n):
    """One summed counter per split of the inputs into parts serves every
    bound, asked for in a seeded order: under the inputs and the bound
    literal the instance is satisfiable exactly when the sum is at most k."""
    variables = list(range(1, n + 1))
    rng = random.Random(n)
    for parts in _splits(n):
        alloc = VarMap(n)
        counter = SumCounter(parts, alloc)
        cnf = CnfInstance(n, [])
        for k in rng.sample(range(n + 1), n + 1):
            new_clauses, lit = counter.at_most(k)
            cnf.clauses.extend(new_clauses)
            cnf.num_vars = len(alloc)
            assert (lit is None) == (k >= n)
            for bits in itertools.product([False, True], repeat=n):
                inputs = [v if b else -v for v, b in zip(variables, bits)]
                assumptions = inputs + ([lit] if lit is not None else [])
                got = solve_internal(cnf, assumptions=assumptions).is_sat
                assert got == (sum(bits) <= k), (parts, k, bits)


class _SequentialReference:
    """Sinz's sequential counter, grown one register column at a time:
    register s[i, j] holds once at least j + 1 of the first i + 1 inputs are
    true, and a column's ids are taken before its clauses are written."""

    def __init__(self, variables, alloc):
        self.x, self.alloc, self.s, self.width = list(variables), alloc, {}, 0

    def at_most(self, k):
        x, s, n = self.x, self.s, len(self.x)
        if k >= n:
            return [], None
        clauses = []
        for j in range(self.width, k + 1):
            for i in range(j, n):
                s[i, j] = self.alloc.fresh_aux()
            for i in range(j, n):
                clauses.append([-x[i]] + ([-s[i - 1, j - 1]] if j else []) + [s[i, j]])
                if i > j:
                    clauses.append([-s[i - 1, j], s[i, j]])
        self.width = max(self.width, k + 1)
        return clauses, -s[n - 1, k]


@pytest.mark.parametrize("n", range(1, 7))
def test_one_part_sum_is_the_sequential_counter(n):
    """With one non-empty part, a summed counter gives the sequential
    counter's ids, clauses and literal, bound by bound."""
    variables = list(range(1, n + 1))
    seq_alloc, sum_alloc = VarMap(n), VarMap(n)
    sequential = _SequentialReference(variables, seq_alloc)
    summed = SumCounter([[], variables, []], sum_alloc)
    for k in random.Random(n).sample(range(n + 2), n + 2):
        assert summed.at_most(k) == sequential.at_most(k), k
        assert len(sum_alloc) == len(seq_alloc), k


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
        probes.append((kb, bound, verdict))  # kb: the one the runner is on
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
    for kb, bound, verdict in probes:
        assert verdict == solve(encode(measure, kb, bound).cnf).is_sat, (kb, bound)


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
    cfg = BackendConfig(solver_path=fake_solver, timeout=60)
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


def test_deadline_cuts_do_not_count_the_work_they_cut_off():
    """On a star that propagates one literal per tick, a solve cut in
    propagation by a past deadline and then resumed ends at the ticks of an
    uncut solve; a cut decision leaves the ticks before it."""
    n = 5000
    star = [[-1, k] for k in range(2, n + 1)] + [[1]]
    uncut = CnfInstance(n, list(star))
    assert solve_internal(uncut).is_sat
    assert uncut.engine.ticks == 2 * n + 1  # n clauses, n literals, one decision
    cut = CnfInstance(n, list(star))
    engine = cut.engine = _Cdcl()
    engine.load(cut)
    engine.deadline = time.monotonic() - 1.0
    assert engine.solve().status is SolveStatus.TIMEOUT
    assert 0 < engine.qhead < n and engine.ticks % _Cdcl.CHECK_EVERY == _Cdcl.CHECK_EVERY - 1
    assert solve_internal(cut).is_sat
    assert engine.ticks == uncut.engine.ticks
    # Two loaded clauses and one propagated literal put every decision on an
    # even tick, so the deadline check falls on a decision.
    free = CnfInstance(n, [[1], [1]])
    engine = free.engine = _Cdcl()
    engine.load(free)
    engine.deadline = time.monotonic() - 1.0
    assert engine.solve().status is SolveStatus.TIMEOUT
    assert engine.decisions == _Cdcl.CHECK_EVERY // 2 - 2
    assert engine.ticks == _Cdcl.CHECK_EVERY - 1


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


@pytest.mark.parametrize("measure", DISTANCES)
def test_distance_pairs_of_unmentioned_atoms_are_level_zero_units(k7, measure):
    """The instance has the unit clauses !x_i and !inv(x, i) for each atom x
    that the i-th formula does not mention, and no unit on another inv."""
    for kb in [k7, *_sparse_kbs()]:
        enc = encode(measure, kb)
        fixed = {clause[0] for clause in enc.cnf.clauses if len(clause) == 1}
        pkb = prepare_kb(kb)
        for i, formula in enumerate(pkb, 1):
            for x in pkb.signature():
                copy = enc.varmap.id_of((TAG_COPY, x, i))
                inv = enc.varmap.id_of((TAG_INV, x, i))
                free = x not in atoms_of(formula)
                assert (-inv in fixed) == free and inv not in fixed, (x, i)
                if free:
                    assert -copy in fixed, (x, i)


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


@given(st.lists(st.lists(literals, min_size=1, max_size=5), max_size=24), st.integers(0, 30))
def test_loading_by_runs_equals_loading_clause_by_clause(raw, offset):
    """Clauses of 1-5 literals (repeats, tautologies, units true, free or
    false at level 0, refuting clauses) loaded at once, in runs between
    clock reads, leave the trail, watch lists, ok, loaded and ticks of one
    load per clause, and keep what simplifying them says.  The ticks start
    so that the clock is read before clause `offset`: a past deadline cuts
    the load there, and loading the rest gives the state of the uncut load."""
    start = _Cdcl.CHECK_EVERY - 1 - offset

    def fresh(deadline):
        engine = _Cdcl()
        engine.ticks, engine.deadline = start, deadline
        return engine

    def state(engine):
        return engine.trail, engine.watches, engine.assign, engine.ok, engine.loaded, engine.ticks

    later = time.monotonic() + 3600
    whole = fresh(later)
    whole.load(CnfInstance(N_VARS, raw))
    fixed, kept, refuted = _simplified([], raw)
    # a refuting clause is the last one counted
    counted = next((k + 1 for k in range(len(raw)) if _simplified([], raw[:k + 1])[2]), len(raw))
    assert whole.ok is not refuted and whole.trail == fixed and not any(whole.seen)
    assert whole.loaded == len(raw) and whole.ticks == start + counted
    if not refuted:
        assert sorted(_watched(whole).values()) == sorted(kept)
    one_by_one = fresh(later)
    growing = CnfInstance(N_VARS, [])
    one_by_one.load(growing)
    for clause in raw:
        growing.clauses.append(clause)
        one_by_one.load(growing)
    assert state(one_by_one) == state(whole)
    cut = fresh(time.monotonic() - 1.0)
    cnf = CnfInstance(N_VARS, raw)
    if offset < counted:
        with pytest.raises(_DeadlineReached):
            cut.load(cnf)
        assert (cut.loaded, cut.ticks) == (offset, start + offset) and not any(cut.seen)
        cut.deadline = None
    cut.load(cnf)
    assert state(cut) == state(whole)


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


# --- settled hitting-set sessions --------------------------------------------

UNSAT_FORMULA = parse_formula("(a || b) && !a && !b")  # no model, and folds to no constant
# pairwise contradictory formulas: three blocks, value 2
THREE_BLOCKS = parse_kb("x && y\n!x\nx && !y")


def _satisfiable(formula):
    names = tuple(sorted(atoms_of(formula)))
    return any(eval2(formula, w) for w in interpretations(names))


def _finite_hs_kbs(k4, k5, k7):
    """Seeded KBs cut down to at most seven satisfiable formulas (one more
    stays within the oracle caps), K4, K5, K7 and a KB of value 2: every
    hitting-set value is finite."""
    corpus = generate_corpus(SrsParams(3, 5, 8, seed=17), 8)
    kbs = [KnowledgeBase(tuple([f for f in kb if _satisfiable(f)][:7])) for _, kb in corpus]
    return kbs + [k4, k5, k7, THREE_BLOCKS]


def _with_unsat_formula(kb, where):
    formulas = list(kb)
    formulas.insert({"first": 0, "middle": len(formulas) // 2, "last": len(formulas)}[where],
                    UNSAT_FORMULA)
    return KnowledgeBase(tuple(formulas))


def _recording_probes(monkeypatch):
    """Patch the session to record (settled, clauses, variables) after each probe."""
    seen = []
    original = search._Session.probe

    def recording(self, bound):
        verdict = original(self, bound)
        cnf = self.enc.cnf
        seen.append((self.settled, len(cnf.clauses), cnf.num_vars))
        return verdict

    monkeypatch.setattr(search._Session, "probe", recording)
    return seen


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_hitting_set_with_an_unsatisfiable_formula_settles_at_inf(monkeypatch, k4, k5, k7, where):
    """One unsatisfiable formula, placed first, in the middle or last (formula
    idx may only join blocks 1..idx+1): both drivers give the oracle's inf,
    and the sessions settle on one membership their formula may take."""
    seen = _recording_probes(monkeypatch)
    for kb in _finite_hs_kbs(k4, k5, k7):
        bad = _with_unsat_formula(kb, where)
        assert oracle_value(bad, "hitting-set") == INF
        for runner in (binary_search, linear_search):
            seen.clear()
            out = runner("hitting-set", bad)
            assert out.value == INF, (runner, bad)
            settled = [s for s, _, _ in seen if s is not None]
            assert settled and all(s == settled[0] and len(s) == 1 for s in settled)


def test_hitting_set_values_of_finite_kbs_match_the_oracle(monkeypatch, k4, k5, k6, k7):
    """No session of a KB whose formulas are all satisfiable settles, and
    K4-K7 and the seeded KBs get the oracle's value from both drivers; some
    values need three blocks, whose SH-order units fix memberships false."""
    seen = _recording_probes(monkeypatch)
    values = set()
    for kb in _finite_hs_kbs(k4, k5, k7) + [k6]:
        want = oracle_value(kb, "hitting-set")
        values.add(want)
        seen.clear()
        assert binary_search("hitting-set", kb).value == want, kb
        assert linear_search("hitting-set", kb).value == want, kb
        if want != INF:
            assert all(s is None for s, _, _ in seen), kb
    assert {0, 1, 2, INF} <= values


def test_settled_linear_search_stops_growing_the_instance(monkeypatch, k7):
    """Once a linear search settles, no probe appends clauses or variables,
    and the search still makes one solver call per value of its range."""
    seen = _recording_probes(monkeypatch)
    kb = _with_unsat_formula(generate_corpus(SrsParams(3, 6, 8, seed=17), 1)[0][1], "middle")
    out = linear_search("hitting-set", kb)
    assert out.value == INF
    assert out.solver_calls == search.search_range("hitting-set", kb).size
    first = next(i for i, (s, _, _) in enumerate(seen) if s is not None)
    assert first < len(seen) - 2
    assert seen[first][0] != []  # settled on a membership, not refuted
    assert {(clauses, num_vars) for _, clauses, num_vars in seen[first:]} == {seen[first][1:]}


def test_settled_probe_is_one_solver_call_answered_at_once(monkeypatch):
    """Once the first probe of a sum-distance search on an inf KB refutes
    the clauses, each later probe is one search.solve call and nothing more:
    no bound is encoded, and each call returns a fresh refuted result with
    no engine work.  The phase times stay inside the run's total."""
    kb = parse_kb("x && !x\ny || z\n!z && w")
    results, assumed = [], []
    real_solve, real_assume = search.solve, SatEncoding.assume

    def solve_counted(*args):
        results.append(real_solve(*args))
        return results[-1]

    def assume_counted(enc, bound):
        assumed.append(bound)
        return real_assume(enc, bound)

    monkeypatch.setattr(search, "solve", solve_counted)
    monkeypatch.setattr(SatEncoding, "assume", assume_counted)
    out = linear_search("sum-distance", kb)
    assert out.value == INF
    assert out.solver_calls == len(results) == search.search_range("sum-distance", kb).size > 2
    assert assumed == [0]
    assert all(r.status is SolveStatus.UNSAT and r.refuted for r in results)
    assert len({id(r) for r in results}) == len(results)
    for r in results[1:]:
        assert (r.model, r.decisions, r.propagations, r.conflicts, r.restarts) == (None, 0, 0, 0, 0)
    phases = out.phase_times
    assert phases["encoding"] + phases["cnfTransform"] + phases["solving"] <= out.total_seconds


def test_settled_membership_is_one_its_formula_may_take(k7):
    """The settling literals are exactly the memberships m[idx][b] with
    b <= idx + 1 of the blocks built so far."""
    kb = _with_unsat_formula(k7, "middle")
    enc = encode("hitting-set", kb)
    for u in range(len(kb)):
        enc.assume(u)
        names = [enc.varmap.name_of(lit) for lit in enc.settling]
        assert sorted(names) == sorted(
            (TAG_BLOCK, idx, b) for b in range(1, u + 2) for idx in range(b - 1, len(kb))
        )


def test_external_backend_never_settles(monkeypatch, fake_solver, k7):
    """An external solver reports no level-0 facts: no session settles, and
    the value and solver calls are those of the internal engine."""
    seen = _recording_probes(monkeypatch)
    cfg = search.RunConfig(BackendConfig(solver_path=fake_solver, timeout=60))
    for kb in (_with_unsat_formula(k7, "first"), k7):
        for runner in (binary_search, linear_search):
            seen.clear()
            ext = runner("hitting-set", kb, cfg)
            assert all(s is None for s, _, _ in seen)
            internal = runner("hitting-set", kb)
            assert (ext.value, ext.solver_calls) == (internal.value, internal.solver_calls)


def test_fixed_false_reads_level_zero_facts_of_the_kept_engine():
    cnf = CnfInstance(3, [[-1], [1, 2], [2, 3]])
    assert fixed_false(cnf, [1, -1, 2, 3]) == []  # no engine yet
    assert solve_internal(cnf, assumptions=[-3]).is_sat
    assert fixed_false(cnf, [1, -1, -2, 3, -3, 4]) == [1, -2]
