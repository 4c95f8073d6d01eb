"""Upper-bound SAT encodings: worked examples, sizes, theorem conformance."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from incmeter import encodings
from incmeter.bench import SrsParams, generate_corpus
from incmeter.cnf import TAG_BLOCK, TAG_COPY, TAG_OCC, TAG_TRI, Lit
from incmeter.encodings import (
    EncodingError,
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
from incmeter.kb import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    Top,
    format_formula,
    parse_kb,
    substitute_atoms,
)
from incmeter.oracles import oracle_value
from incmeter.search import binary_search, linear_search, search_range
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

def _reference_hs(kb, blocks=None, ordered=True):
    """The hitting-set encoding with every block clausified on its own: SH1
    copies and SH2 memberships; SH-order units keeping each formula idx out
    of blocks past idx + 1; SH3 Tseitin-converted per block for the formulas
    that may join it, last to first; SH4 over each formula's allowed blocks,
    looked up by name.  The encoder must build exactly this instance.
    Unordered, every formula may join every block."""
    pkb = encodings.prepared(kb)
    atoms = pkb.signature()
    n = len(pkb)
    b = encodings.SatEncoding("hitting-set")

    def add_block(enc, i):
        vm = enc.varmap
        for x in atoms:
            vm.var((TAG_COPY, x, i))
        for idx in range(n):
            vm.var((TAG_BLOCK, idx, i))
        first = i - 1 if ordered else 0
        enc.add_clauses("SH-order", [[-vm.id_of((TAG_BLOCK, idx, i))] for idx in range(first)])
        for idx, formula in reversed(list(enumerate(pkb))[first:]):
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
            [vm.id_of((TAG_BLOCK, idx, i)) for i in range(1, (min(u, idx) if ordered else u) + 2)]
            + [-switch]
            for idx in range(n)
        ])
        return [switch]

    b._bound_rule = ("SH4", assume)
    if blocks is None:
        return b.finish(0)
    return b.finish(expected_base_size("hitting-set", kb, blocks), blocks - 1)


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


def _small_hs_kbs():
    """Seeded KBs within the oracle caps, each also with constant members."""
    kbs = [parse_kb("+\nx || +\n!x\nx"), parse_kb("x\n- && y"), parse_kb("x\n!x\nx && y\n!y"),
           parse_kb("x && y\n!x && y\n!y\nx"), parse_kb("x && y\nx && !y\n+\n!x && y\n!x && !y")]
    for atoms, seed in ((3, 131), (4, 137), (5, 139), (6, 149)):
        for _, kb in generate_corpus(SrsParams(atoms, 2, 6, seed=seed), 5):
            kbs += [kb, KnowledgeBase(kb.formulas[:1] + (Top(),) + kb.formulas[1:] + (Bottom(),))]
    return kbs


def test_hs_block_order_keeps_every_block_count_and_value():
    """The ordered instance is satisfiable at every block count exactly when
    the unordered one is, and both drivers give the oracle's value."""
    values = set()
    for kb in _small_hs_kbs():
        for blocks in range(1, len(kb) + 1):
            assert sat(encode_hs(kb, blocks)) == sat(_reference_hs(kb, blocks, ordered=False)), (
                kb, blocks)
        want = oracle_value(kb, "hitting-set")
        values.add(want)
        assert binary_search("hitting-set", kb).value == want, kb
        assert linear_search("hitting-set", kb).value == want, kb
    assert {0, 1, 2, 3, INF} <= values


def test_hs_order_fixes_late_memberships_at_level_zero(k7):
    """The instance has a unit clause keeping formula idx out of each block
    past idx + 1, and no unit on another membership."""
    for kb in [k7, *_small_hs_kbs()]:
        n = len(kb)
        enc = encode_hs(kb, n)
        fixed = {clause[0] for clause in enc.cnf.clauses if len(clause) == 1}
        for idx in range(n):
            for i in range(1, n + 1):
                member = enc.varmap.id_of((TAG_BLOCK, idx, i))
                assert (-member in fixed) == (i > idx + 1) and member not in fixed, (idx, i)


def _finish_hs(kb, blocks, extra_name):
    """The one-shot hitting-set instance with `blocks` blocks, its bound rule
    naming one more variable when `extra_name` is set."""
    enc = encode_hs(kb)
    tag, add_blocks = enc._bound_rule

    def grow(e, u):
        if extra_name:
            e.varmap.var(("extra", u))
        return add_blocks(e, u)

    enc._bound_rule = (tag, grow)
    return enc.finish(expected_base_size("hitting-set", kb, blocks), blocks - 1)


def test_finish_checks_the_base_size_with_the_bound_applied(k4):
    """The base signature is checked with the bound's blocks built: the
    formula holds then, and a bound rule that names one variable more than
    the formula counts fails."""
    for blocks in range(1, len(k4) + 1):
        want = expected_base_size("hitting-set", k4, blocks)
        assert encode_hs(k4, blocks).base_signature_size == want
        assert _finish_hs(k4, blocks, False).base_signature_size == want
        with pytest.raises(EncodingError, match="base signature drifted"):
            _finish_hs(k4, blocks, True)


def test_size_checks_raise_under_python_O():
    """The base-size check and the hitting-set size formula without a block
    count raise EncodingError, not AssertionError, so `python -O` keeps them."""
    assert not issubclass(EncodingError, AssertionError)
    script = (
        "from incmeter.encodings import EncodingError, SatEncoding, expected_base_size\n"
        "from incmeter.kb import parse_kb\n"
        "enc = SatEncoding('hitting-set')\n"
        "enc.varmap.var(('extra', 0))\n"
        "for check in (lambda: enc.finish(0), lambda: expected_base_size('hitting-set', parse_kb('x'))):\n"
        "    try:\n"
        "        check()\n"
        "    except EncodingError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-O", "-c", script], env=env, check=True)


# --- forgetting by occurrence values -----------------------------------------

def _forgetting_suite():
    """Seeded KBs over three atoms, so atoms repeat across formulas, and KBs
    with members that fold to a constant (`x || +`, `!y || (x && -)`)."""
    corpus = generate_corpus(SrsParams(3, 3, 6, seed=89), 12)
    return [kb for _, kb in corpus] + [
        parse_kb("x || +\nx && !x\n!y || (x && -)\ny"),
        parse_kb("+ || z\nz\n!z && (z || y)\n!y"),
    ]


def test_forgetting_by_occurrence_values_matches_the_oracle():
    """Both drivers give the oracle's value, the base signature keeps its
    3 |Occ| formula, and SF3 reads every occurrence's value variable."""
    values = set()
    for kb in _forgetting_suite():
        want = oracle_value(kb, "forgetting")
        values.add(want)
        assert binary_search("forgetting", kb).value == want, kb
        assert linear_search("forgetting", kb).value == want, kb
        enc = encode_forgetting(kb)
        assert enc.base_signature_size == expected_base_size("forgetting", kb)
        read = {
            abs(lit)
            for tag, start, end in enc.rule_spans if tag == "SF3"
            for clause in enc.cnf.clauses[start:end]
            for lit in clause
        }
        for occ in prepare_kb(kb).occurrences():
            assert enc.varmap.id_of((TAG_OCC, occ.atom, occ.label)) in read, (kb, occ)
    assert len(values) > 2


# --- pinned encodings of every connective and both constants -----------------

def _connective_kb(rng):
    """1-8 formulas over four atoms built from every connective, with the
    constants + and - among the leaves."""
    leaves = [Atom(x) for x in "abcd"] * 2 + [TOP, BOTTOM]

    def formula(depth):
        roll = rng.random()
        if depth == 4 or roll < 0.3:
            return rng.choice(leaves)
        if roll < 0.45:
            return Not(formula(depth + 1))
        return rng.choice((And, Or, Implies, Iff))(formula(depth + 1), formula(depth + 1))

    return KnowledgeBase(tuple(formula(0) for _ in range(rng.randint(1, 8))))


def _connective_digests():
    rng = random.Random(23)
    kbs = [_connective_kb(rng) for _ in range(200)]
    kbs += [kb for _, kb in generate_corpus(SrsParams(10, 14, 20, seed=3), 8)]
    h = hashlib.sha256()
    for kb in kbs:
        h.update(repr([format_formula(f) for f in prepare_kb(kb)]).encode())
    digests = {"prepare_kb": h.hexdigest()[:16]}
    for measure in MEASURES:
        h = hashlib.sha256()
        for kb in kbs:
            bounds = search_range(measure, kb)
            enc = encode(measure, kb)
            for u in range(bounds.min, bounds.max + 1)[:4]:
                lits = enc.assume(u)
                h.update(repr((enc.cnf.num_vars, enc.cnf.clauses, enc.rule_spans, lits)).encode())
        digests[measure] = h.hexdigest()[:16]
    return digests


def test_encodings_of_connectives_and_constants_are_pinned():
    """200 seeded KBs with =>, <=>, + and - (so prepare_kb rewrites and folds,
    contension fixes constant members and Tseitin meets constant leaves) and
    the encode-heavy base corpus: the same prepared formulas, and for every
    measure the same clauses, variable ids, rule spans and assumption
    literals of a bound-free session grown at its first four bounds, as when
    this pin was written.  A change that means to alter an encoding updates
    the pin."""
    assert _connective_digests() == {
        "prepare_kb": "b64a87eb237b0de1",
        "contension": "f9d1612056ba6203",
        "forgetting": "6baf1312edbdb039",
        "hitting-set": "f70d16fdb8cc4c5e",
        "max-distance": "115248b55087c1d2",
        "sum-distance": "6e0f143e1bb2d1b4",
        "hit-distance": "83a14d339f051615",
    }
