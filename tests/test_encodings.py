"""Upper-bound SAT encodings: worked examples, sizes, theorem conformance."""

import random

import pytest

from incmeter import encodings
from incmeter.bench import SrsParams, generate_corpus
from incmeter.cnf import TAG_BLOCK, TAG_COPY, TAG_TRI, Lit
from incmeter.encodings import (
    encode,
    encode_contension,
    encode_contension_maxsat,
    encode_dhit,
    encode_dmax,
    encode_dsum,
    encode_forgetting,
    encode_hs,
    expected_base_size,
    prepare_kb,
)
from incmeter.kb import Implies, parse_kb, substitute_atoms
from incmeter.oracles import oracle_value
from incmeter.search import search_range
from incmeter.solver import SolveStatus, solve_internal
from incmeter.values import INF, MEASURES


def sat(enc):
    res = solve_internal(enc.cnf)
    assert res.status is not SolveStatus.TIMEOUT
    return res.status is SolveStatus.SAT


# --- worked examples --------------------------------------------------------

def test_contension_k7_bounds(k7):
    assert sat(encode_contension(k7, 1))
    assert not sat(encode_contension(k7, 0))


def test_contension_consistent_at_zero(consistent_kb):
    assert sat(encode_contension(consistent_kb, 0))


def test_forgetting_k7_bounds(k7):
    assert sat(encode_forgetting(k7, 2))  # the published example instance
    assert sat(encode_forgetting(k7, 1))
    assert not sat(encode_forgetting(k7, 0))


def test_forgetting_consistent_at_zero(consistent_kb):
    assert sat(encode_forgetting(consistent_kb, 0))


def test_forgetting_unforgotten_occurrences_share_value():
    # without value sharing this instance would wrongly be satisfiable at 0
    assert not sat(encode_forgetting(parse_kb("x\n!x"), 0))
    assert sat(encode_forgetting(parse_kb("x\n!x"), 1))


def test_hs_k4_blocks(k4):
    assert sat(encode_hs(k4, 2))
    assert not sat(encode_hs(k4, 1))


def test_hs_k6_all_block_counts_unsat(k6):
    for blocks in (1, 2, 3):
        assert not sat(encode_hs(k6, blocks))


def test_hs_rejects_empty_or_bad_blocks(k4, empty_kb):
    with pytest.raises(ValueError):
        encode_hs(empty_kb, 1)
    with pytest.raises(ValueError):
        encode_hs(k4, 0)
    with pytest.raises(ValueError):
        encode_hs(k4, 3)


def test_dmax_k4_bounds(k4):
    assert sat(encode_dmax(k4, 1))
    assert not sat(encode_dmax(k4, 0))


def test_dmax_k6_always_unsat(k6):
    for u in range(len(k6.signature()) + 1):
        assert not sat(encode_dmax(k6, u))


def test_dmax_consistent_at_zero(consistent_kb):
    assert sat(encode_dmax(consistent_kb, 0))


def test_dsum_bounds(k4, k7, consistent_kb):
    assert sat(encode_dsum(k4, 1))
    assert not sat(encode_dsum(k4, 0))
    assert sat(encode_dsum(k7, 1))
    assert sat(encode_dsum(consistent_kb, 0))


def test_dhit_bounds(k4, k6, consistent_kb):
    assert sat(encode_dhit(k4, 1))
    assert not sat(encode_dhit(k4, 0))
    assert sat(encode_dhit(k6, 1))  # dropping the contradictory member is enough
    assert sat(encode_dhit(consistent_kb, 0))


def test_maxsat_instance_structure(k4):
    inst = encode_contension_maxsat(k4)
    tri_b = {
        -inst.hard.varmap.id_of((TAG_TRI, x, "b")) for x in ("x", "y")
    }
    assert set(inst.soft_units) == tri_b
    # hard part must be satisfiable on its own (everything may be b)
    assert solve_internal(inst.hard).status is SolveStatus.SAT


# --- structural properties ---------------------------------------------------

def test_base_signature_sizes_on_fixtures(k4, k5, k6, k7):
    for kb in (k4, k5, k6, k7):
        n_atoms = len(kb.signature())
        n = len(kb)
        sites = len(prepare_kb(kb).subformula_sites())
        occ = len(prepare_kb(kb).occurrences())
        assert encode_contension(kb, 0).base_signature_size == 3 * n_atoms + 3 * sites
        assert encode_forgetting(kb, 0).base_signature_size == 3 * occ
        for blocks in range(1, n + 1):
            assert encode_hs(kb, blocks).base_signature_size == blocks * (n_atoms + n)
        assert encode_dmax(kb, 0).base_signature_size == n_atoms + 2 * n * n_atoms
        assert encode_dsum(kb, 0).base_signature_size == n_atoms + 2 * n * n_atoms
        assert encode_dhit(kb, 0).base_signature_size == n_atoms + n


def test_contension_k7_signature_matches_worked_example(k7):
    # 2 atoms and 8 subformula sites: 6 + 24 base variables
    enc = encode_contension(k7, 1)
    assert enc.base_signature_size == 30
    assert expected_base_size("contension", k7) == 30


def test_forgetting_k7_signature_size(k7):
    assert encode_forgetting(k7, 2).base_signature_size == 15  # 3 * |Occ| = 15


def test_rule_spans_cover_all_clauses(k7):
    for enc in (
        encode_contension(k7, 1),
        encode_forgetting(k7, 1),
        encode_hs(k7, 2),
        encode_dmax(k7, 1),
        encode_dsum(k7, 1),
        encode_dhit(k7, 1),
    ):
        covered = []
        for tag, start, end in enc.rule_spans:
            assert start < end
            covered.extend(range(start, end))
        assert covered == list(range(len(enc.cnf.clauses))), enc.measure
        enc.cnf.validate()


def test_every_variable_is_named(k7):
    enc = encode_contension(k7, 1)
    for vid in range(1, enc.cnf.num_vars + 1):
        assert enc.varmap.name_of(vid)


def test_contension_without_bound_has_no_aux_vars(k4, k5, k7):
    # Every rule below SC17 is written over the base signature, and SC17 is
    # empty once u reaches the atom count.
    for kb in (k4, k5, k7, parse_kb("x && (y || !z)\n!(x || z) && -")):
        n_atoms = len(prepare_kb(kb).signature())
        for u in (n_atoms, n_atoms + 1):
            enc = encode_contension(kb, u)
            assert enc.cnf.num_vars == enc.base_signature_size
        assert encode_contension_maxsat(kb).hard.num_vars == enc.base_signature_size


def test_zero_bound_compiles_to_unit_negatives(k4):
    enc = encode_dhit(k4, 0)
    tag, start, end = next(s for s in enc.rule_spans if s[0] == "SDH4")
    units = enc.cnf.clauses[start:end]
    assert all(len(c) == 1 and c[0] < 0 for c in units)
    assert len(units) == len(k4)


# --- theorem conformance ------------------------------------------------------

def _conformance_suite():
    kbs = []
    for atoms, seed in ((3, 61), (4, 67), (5, 71)):
        kbs += generate_corpus(SrsParams(atoms, 1, 7, seed=seed), 10)
    return kbs


@pytest.mark.parametrize("measure", MEASURES)
def test_theorem_conformance_random_suite(measure):
    """SAT(encode(K, u)) iff oracle(K) <= u, for every u in range."""
    for kb_id, kb in _conformance_suite():
        want = oracle_value(kb, measure)
        rng = search_range(measure, kb)
        previous = False
        for u in range(rng.min, rng.max + 1):
            verdict = sat(encode(measure, kb, u))
            assert verdict == (want <= u), (kb_id, measure, u, want)
            assert verdict >= previous  # monotone in u
            previous = verdict


@pytest.mark.parametrize("measure", MEASURES)
def test_base_sizes_match_caption_formulas_on_random_kbs(measure):
    for kb_id, kb in _conformance_suite()[:12]:
        if measure == "hitting-set":
            for blocks in range(1, len(kb) + 1):
                enc = encode_hs(kb, blocks)
                assert enc.base_signature_size == expected_base_size(
                    measure, kb, blocks
                )
        else:
            enc = encode(measure, kb, 0)
            assert enc.base_signature_size == expected_base_size(measure, kb)


def test_maxsat_cost_equals_search_value_on_random_kbs():
    from incmeter.search import solve_maxsat

    for kb_id, kb in _conformance_suite()[:15]:
        cost, _ = solve_maxsat(encode_contension_maxsat(kb))
        assert cost == oracle_value(kb, "contension"), kb_id


# --- constants ---------------------------------------------------------------

def test_constant_members_fold_through_encodings():
    kb = parse_kb("+\nx || +\n!x\nx")  # second formula folds to +
    assert oracle_value(kb, "hit-distance") == 1
    assert sat(encode_dhit(kb, 1))
    assert not sat(encode_dhit(kb, 0))
    assert sat(encode_contension(kb, 1))
    assert not sat(encode_contension(kb, 0))


def test_constant_false_member_distances():
    kb = parse_kb("x\n- && y")
    for u in range(3):
        assert not sat(encode_dmax(kb, u))
        assert not sat(encode_hs(kb, min(u + 1, 2)))
    assert oracle_value(kb, "max-distance") == INF
    assert sat(encode_dhit(kb, 1))


# --- hitting-set blocks from one clausified template -------------------------

def _reference_hs(kb, blocks=None):
    """The hitting-set encoding with every block clausified on its own: SH1
    copies, SH2 memberships and SH3 Tseitin-converted per block, SH4 looked
    up by name.  The encoder must build exactly this instance."""
    pkb = encodings.prepared(kb)
    atoms = pkb.signature()
    b = encodings.SatEncoding("hitting-set")

    def add_block(enc, i):
        vm = enc.varmap
        for x in atoms:
            vm.var((TAG_COPY, x, i))
        for idx in range(len(pkb)):
            vm.var((TAG_BLOCK, idx, i))
        for idx, formula in enumerate(pkb):
            copy = substitute_atoms(formula, lambda x: Lit(vm.id_of((TAG_COPY, x, i))))
            enc.assert_formula("SH3", Implies(Lit(vm.id_of((TAG_BLOCK, idx, i))), copy))

    built = 0

    def assume(enc, u):
        nonlocal built
        while built <= u:
            built += 1
            add_block(enc, built)
        vm = enc.varmap
        switch = vm.fresh_aux()
        enc.add_clauses("SH4", [
            [vm.id_of((TAG_BLOCK, idx, i)) for i in range(1, u + 2)] + [-switch]
            for idx in range(len(pkb))
        ])
        return [switch]

    b._bound_rule = ("SH4", assume)
    return b.finish(0, None if blocks is None else blocks - 1)


def _instance(enc):
    return enc.cnf.num_vars, enc.cnf.clauses, enc.rule_spans, enc.base_signature_size


def _hs_corpus(k4, k5, k6, k7):
    kbs = [k4, k5, k6, k7, parse_kb("+\nx || +\n!x\nx"), parse_kb("x\n- && y")]
    for atoms, lo, hi, seed in ((3, 1, 7, 61), (6, 8, 14, 7), (9, 12, 18, 11)):
        kbs += [kb for _, kb in generate_corpus(SrsParams(atoms, lo, hi, seed=seed), 4)]
    return kbs


def test_hs_blocks_match_the_per_block_clausification(k4, k5, k6, k7):
    """The one-shot instance at every block count, and sessions grown in
    shuffled bound orders, equal the per-block reference: the same ids, the
    same clauses in the same order, the same rule spans and base sizes."""
    rng = random.Random(5)
    for kb in _hs_corpus(k4, k5, k6, k7):
        n = len(kb)
        for blocks in range(1, n + 1):
            assert _instance(encode_hs(kb, blocks)) == _instance(_reference_hs(kb, blocks))
        for _ in range(3):
            session, reference = encode_hs(kb), _reference_hs(kb)
            for u in rng.sample(range(n), n):
                assert session.assume(u) == reference.assume(u)
                assert _instance(session) == _instance(reference), u


def test_hs_session_clausifies_each_formula_once(k7, monkeypatch):
    """However many blocks an encoding builds, Tseitin runs once per formula."""
    calls = []
    original = encodings.tseitin_append

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(encodings, "tseitin_append", counted)
    larger = generate_corpus(SrsParams(6, 8, 14, seed=7), 1)[0][1]
    for kb in (k7, larger):
        calls.clear()
        session = encode_hs(kb)
        for u in range(len(kb)):
            session.assume(u)
        assert len(calls) == len(kb)
        calls.clear()
        encode_hs(kb, len(kb))
        assert len(calls) == len(kb)
