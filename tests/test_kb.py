"""Formula AST, parser, KB derivations, and two-valued semantics."""

import random

import pytest
from hypothesis import given

from conftest import hypothesis_formulas
from incmeter.bench import SrsParams, generate_corpus
from incmeter.encodings import prepare_kb
from incmeter.kb import (
    And,
    Atom,
    AtomOccurrence,
    BOTTOM,
    Bottom,
    Iff,
    Implies,
    KbSyntaxError,
    KnowledgeBase,
    Not,
    Or,
    TOP,
    Top,
    atoms_of,
    count_occurrences,
    enumerate_models,
    eval2,
    fold_constants,
    format_formula,
    formula_size,
    interpretations,
    parse_formula,
    parse_kb,
    reduce_connectives,
)
from incmeter.oracles import eval3


def test_parse_k4(k4):
    assert k4.formulas == (And(Atom("x"), Atom("y")), Not(Atom("y")))


def test_parse_k7_shape(k7):
    assert len(k7) == 3
    assert k7.signature() == ("x", "y")
    assert k7.formulas[2] == Not(Atom("x"))


def test_parse_empty_is_valid_kb():
    kb = parse_kb("")
    assert len(kb) == 0 and kb.signature() == ()


def test_parse_comments_and_blank_lines():
    kb = parse_kb("# header\nx && y  # trailing\n\n!y\n")
    assert len(kb) == 2


@pytest.mark.parametrize(
    "text,expected",
    [
        ("!x && y", And(Not(Atom("x")), Atom("y"))),
        ("x && y || z", Or(And(Atom("x"), Atom("y")), Atom("z"))),
        ("x || y => z", Implies(Or(Atom("x"), Atom("y")), Atom("z"))),
        ("x => y <=> z", Iff(Implies(Atom("x"), Atom("y")), Atom("z"))),
        ("x => y => z", Implies(Atom("x"), Implies(Atom("y"), Atom("z")))),
        ("x && y && z", And(Atom("x"), And(Atom("y"), Atom("z")))),
        ("(x || y) && z", And(Or(Atom("x"), Atom("y")), Atom("z"))),
        ("+ && -", And(TOP, BOTTOM)),
        ("!!x", Not(Not(Atom("x")))),
    ],
)
def test_precedence_and_associativity(text, expected):
    assert parse_formula(text) == expected


@pytest.mark.parametrize("bad", ["x &&", "(x", "x y", "&& x", "x <=", "x ** y"])
def test_syntax_errors_carry_position(bad):
    with pytest.raises(KbSyntaxError) as exc:
        parse_kb(bad)
    assert exc.value.line == 1
    assert exc.value.column >= 1


def test_syntax_error_reports_offending_line():
    with pytest.raises(KbSyntaxError) as exc:
        parse_kb("x&&y\n!y\nz||")
    assert exc.value.line == 3


@given(hypothesis_formulas(constants=True))
def test_print_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


def test_kb_text_round_trip(k5):
    assert parse_kb(k5.to_text()).formulas == k5.formulas


def test_generated_kb_round_trip():
    from incmeter.bench import SrsParams, generate_corpus

    for _, kb in generate_corpus(SrsParams(5, 1, 10, seed=77), 25):
        assert parse_kb(kb.to_text()).formulas == kb.formulas


def test_signature_sorted():
    kb = parse_kb("zz||b\na&&zz")
    assert kb.signature() == ("a", "b", "zz")


def test_subformula_sites_k7(k7):
    sites = k7.subformula_sites()
    assert len(sites) == 8  # 3 roots + 4 atom children + 1 negation child
    roots = [node for site, node in sites if not site.path]
    assert roots == list(k7.formulas)


def test_subformula_sites_count_small():
    assert len(parse_kb("x&&y").subformula_sites()) == 3
    assert len(parse_kb("!x").subformula_sites()) == 2


def test_count_occurrences_example():
    phi1 = parse_formula("x && y || !x && z")
    assert count_occurrences("x", phi1) == 2
    assert count_occurrences("y", phi1) == 1
    assert count_occurrences("w", parse_formula("x && y")) == 0


def test_count_occurrences_kb(k7):
    assert count_occurrences("x", k7) == 3
    assert count_occurrences("y", k7) == 2


def test_occurrence_labels_k7(k7):
    occs = k7.occurrences()
    assert [(o.atom, o.label) for o in occs] == [
        ("x", 1), ("y", 1), ("x", 2), ("y", 2), ("x", 3),
    ]


def test_occurrence_labels_k5(k5):
    occs = k5.occurrences()
    by_atom = {}
    for occ in occs:
        by_atom.setdefault(occ.atom, []).append(occ.label)
    assert by_atom == {"x": [1, 2, 3], "y": [1, 2], "z": [1]}


def test_occurrence_total_is_leaf_count(k5, k7):
    for kb in (k5, k7):
        leaves = sum(
            1 for _, node in kb.subformula_sites() if isinstance(node, Atom)
        )
        assert len(kb.occurrences()) == leaves
        assert leaves == sum(count_occurrences(a, kb) for a in kb.signature())


def test_empty_kb_has_no_occurrences(empty_kb):
    assert empty_kb.occurrences() == []


def _occurrences_of_all_sites(kb):
    """The atom occurrences read off the sites of every subformula."""
    counts = {}
    out = []
    for site, node in kb.subformula_sites():
        if isinstance(node, Atom):
            counts[node.name] = counts.get(node.name, 0) + 1
            out.append(AtomOccurrence(node.name, counts[node.name], site))
    return out


def test_occurrences_and_atoms_match_the_sites_of_every_subformula():
    """On the sat-mix base corpus and 200 seeded KBs with every connective
    and both constants, given and prepared: the occurrences are the atom
    leaves among all sites, with the same labels, sites and order, and
    atoms_of and the signature name the atoms those leaves hold."""
    from test_encodings import _connective_kb

    rng = random.Random(31)
    kbs = [kb for _, kb in generate_corpus(SrsParams(6, 8, 14, seed=7), 20)]
    kbs += [_connective_kb(rng) for _ in range(200)]
    for kb in kbs + [prepare_kb(kb) for kb in kbs]:
        occurrences = kb.occurrences()
        assert occurrences == _occurrences_of_all_sites(kb)
        for idx, f in enumerate(kb):
            assert atoms_of(f) == {o.atom for o in occurrences if o.site.formula_index == idx}
        assert kb.signature() == tuple(sorted({o.atom for o in occurrences}))


def test_eval2_basics():
    assert eval2(parse_formula("x && y"), {"x": True, "y": True}) is True
    assert eval2(parse_formula("x => y"), {"x": True, "y": False}) is False
    assert eval2(parse_formula("!y"), {"x": False, "y": False}) is True
    assert eval2(TOP, {}) is True and eval2(BOTTOM, {}) is False


def test_eval2_undeclared_atom():
    with pytest.raises(ValueError):
        eval2(Atom("q"), {"x": True})


def test_enumerate_models_k4_is_empty(k4):
    assert enumerate_models(k4) == []


def test_enumerate_models_against_example():
    # over {x, y}: x && y has one model, !y has two
    sig = ("x", "y")
    conj = enumerate_models(parse_kb("x&&y"), signature=sig)
    assert conj == [{"x": True, "y": True}]
    neg = enumerate_models(parse_kb("!y"), signature=sig)
    assert neg == [{"x": False, "y": False}, {"x": True, "y": False}]


def test_enumerate_models_cap():
    kb = parse_kb(" || ".join(f"a{i}" for i in range(8)))
    with pytest.raises(ValueError):
        enumerate_models(kb, cap=4)


def test_reduce_connectives_shapes():
    assert reduce_connectives(parse_formula("x => y")) == parse_formula("!x || y")
    assert reduce_connectives(Atom("x")) == Atom("x")
    assert reduce_connectives(parse_formula("x <=> y")) == parse_formula(
        "(!x || y) && (!y || x)"
    )


@given(hypothesis_formulas(atoms=("a", "b", "c", "d", "e", "f")))
def test_reduce_preserves_two_valued_semantics(f):
    reduced = reduce_connectives(f)
    sig = tuple(sorted({a for a in "abcdef"}))
    for w in interpretations(sig):
        assert eval2(f, w) == eval2(reduced, w)


@given(hypothesis_formulas(atoms=("a", "b", "c", "d"), max_leaves=6))
def test_reduce_preserves_three_valued_semantics(f):
    import itertools

    reduced = reduce_connectives(f)
    double_reduced = reduce_connectives(reduced)
    sig = ("a", "b", "c", "d")
    for values in itertools.product("tfb", repeat=len(sig)):
        w3 = dict(zip(sig, values))
        assert eval3(reduced, w3) == eval3(double_reduced, w3)


def test_iff_reduction_three_valued_table():
    """The <=> rewriting agrees with the derived connective on all 9 cells."""
    import itertools

    f = parse_formula("x <=> y")
    reduced = reduce_connectives(f)
    for vx, vy in itertools.product("tfb", repeat=2):
        w3 = {"x": vx, "y": vy}
        # native <=> in the three-valued logic: (!x | y) & (!y | x)
        direct = eval3(parse_formula("(!x || y) && (!y || x)"), w3)
        assert eval3(reduced, w3) == direct


@given(hypothesis_formulas(constants=True, max_leaves=8))
def test_fold_constants_removes_constants_and_preserves_semantics(f):
    folded = fold_constants(f)
    if not isinstance(folded, (Top, Bottom)):
        assert all(
            not isinstance(node, (Top, Bottom))
            for _, node in KnowledgeBase((folded,)).subformula_sites()
        )
    sig = ("a", "b", "c", "d", "e", "f")
    for w in interpretations(sig):
        assert eval2(f, w) == eval2(folded, w)


def test_formula_size():
    assert formula_size(Atom("x")) == 1
    assert formula_size(parse_formula("x && !y")) == 4
