"""Tseitin conversion and the equivalence-preserving clause form."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import hypothesis_formulas
from incmeter.cnf import (
    TAG_ATOM,
    CnfInstance,
    Lit,
    VarMap,
    to_clauses_distributive,
    tseitin,
    tseitin_append,
)
from incmeter.kb import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    eval2,
    formula_size,
    interpretations,
    parse_formula,
)
from incmeter.solver import SolveStatus, solve_internal

# Leaves that repeat, negate one another and meet constants, so clauses get
# duplicate literals and tautologies; Lit(1)..Lit(3) share their ids with the
# leaf map below.
_LEAVES = st.sampled_from(
    [Atom(name) for name in "abc"] + [Lit(v) for v in (1, -1, 2, -3)] + [TOP, BOTTOM])
_FORMULAS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=14,
)


def truth_table_satisfiable(f, atoms):
    return any(eval2(f, w) for w in interpretations(tuple(atoms)))


def test_tseitin_single_atom_is_one_unit_clause():
    cnf = tseitin(Atom("x"))
    assert cnf.clauses == [[1]]
    assert cnf.num_vars == 1


def test_tseitin_contradiction_unsat():
    cnf = tseitin(parse_formula("x && !x"))
    assert solve_internal(cnf).status is SolveStatus.UNSAT


def test_tseitin_k4_conjunction_unsat(k4):
    vm = VarMap()
    clauses = []
    for f in k4:
        tseitin_append(f, vm, clauses)
    res = solve_internal(CnfInstance(len(vm), clauses, vm))
    assert res.status is SolveStatus.UNSAT


@given(hypothesis_formulas(constants=True, max_leaves=10))
def test_tseitin_equisatisfiable_with_truth_table(f):
    cnf = tseitin(f)
    cnf.validate()
    want = truth_table_satisfiable(f, "abcdef")
    got = solve_internal(cnf).status is SolveStatus.SAT
    assert got == want


@given(hypothesis_formulas(max_leaves=12))
def test_tseitin_linear_size(f):
    cnf = tseitin(f)
    assert len(cnf.clauses) <= 5 * formula_size(f) + 2
    assert cnf.num_vars <= formula_size(f) + 2


def test_tseitin_model_extends_formula_model():
    f = parse_formula("(a || b) && (!a || c)")
    cnf = tseitin(f)
    res = solve_internal(cnf)
    assert res.status is SolveStatus.SAT
    w = {
        name[1]: res.model[vid]
        for name, vid in ((cnf.varmap.name_of(v), v) for v in range(1, cnf.num_vars + 1))
        if name[0] == "atom"
    }
    assert eval2(f, w)


def test_distributive_clauses_tautology_free():
    clauses = to_clauses_distributive(parse_formula("x || !x"))
    assert clauses == set()


def test_distributive_clauses_basic():
    clauses = to_clauses_distributive(parse_formula("x && (y || !z)"))
    assert frozenset({("x", True)}) in clauses
    assert frozenset({("y", True), ("z", False)}) in clauses


def test_distributive_clauses_constant_false():
    assert to_clauses_distributive(parse_formula("-")) is None
    assert to_clauses_distributive(parse_formula("x && -")) is None


@given(hypothesis_formulas(atoms=("a", "b", "c", "d"), max_leaves=8))
def test_distributive_clauses_equivalent(f):
    clauses = to_clauses_distributive(f)
    sig = ("a", "b", "c", "d")
    for w in interpretations(sig):
        if clauses is None:
            assert not eval2(f, w)
            continue
        value = all(
            any(w[name] == pos for name, pos in clause) for clause in clauses
        )
        assert value == eval2(f, w)


def test_varmap_round_trip():
    vm = VarMap()
    a = vm.var(("atom", "x"))
    b = vm.var(("tri", "x", "b"))
    assert vm.var(("atom", "x")) == a
    assert vm.name_of(b) == ("tri", "x", "b")
    assert vm.id_of(("atom", "x")) == a
    assert vm.base_count() == 2
    aux = vm.fresh_aux()
    assert vm.base_count() == 2 and len(vm) == 3
    assert vm.name_of(aux) == ("aux", aux)
    assert vm.var(("atom", "y")) == 4 and vm.base_count() == 3


def test_varmap_run_allocates_a_family_and_refuses_a_taken_name():
    vm = VarMap(2)
    assert vm.run([("atom", "x"), ("tri", "x", "b")]) == range(3, 5)
    assert vm.id_of(("tri", "x", "b")) == 4 and vm.name_of(3) == ("atom", "x")
    assert vm.base_count() == 2 and len(vm) == 4
    assert vm.var(("atom", "y")) == 5 and vm.name_of(5) == ("atom", "y")
    with pytest.raises(ValueError):
        vm.run([("atom", "z"), ("atom", "x")])
    with pytest.raises(ValueError):
        VarMap().run([("atom", "z"), ("atom", "z")])


def _reference_tseitin_append(f, vm, clauses, leaf=None):
    """The clausifier of nested recursive closures that the closure-free
    `tseitin_append` replaced, kept as the reference it must match."""
    leaf = leaf or (lambda name: vm.var((TAG_ATOM, name)))
    const_true = []

    def emit(clause):
        deduped = []
        for lit in clause:
            if -lit in deduped:
                return  # tautology, always satisfied
            if lit not in deduped:
                deduped.append(lit)
        clauses.append(deduped)

    def const_var():
        if not const_true:
            v = vm.fresh_aux()
            clauses.append([v])
            const_true.append(v)
        return const_true[0]

    def walk(node):
        if isinstance(node, Atom):
            return leaf(node.name)
        if isinstance(node, Lit):
            return node.lit
        if isinstance(node, Top):
            return const_var()
        if isinstance(node, Bottom):
            return -const_var()
        if isinstance(node, Not):
            return -walk(node.child)
        a = walk(node.left)
        b = walk(node.right)
        v = vm.fresh_aux()
        if isinstance(node, And):
            emit([-v, a])
            emit([-v, b])
            emit([v, -a, -b])
        elif isinstance(node, Or):
            emit([-v, a, b])
            emit([v, -a])
            emit([v, -b])
        elif isinstance(node, Implies):
            emit([-v, -a, b])
            emit([v, a])
            emit([v, -b])
        else:
            assert isinstance(node, Iff)
            emit([-v, -a, b])
            emit([-v, a, -b])
            emit([v, a, b])
            emit([v, -a, -b])
        return v

    def assert_true(node):
        # Standard top-level extraction: asserted conjunctions split into
        # their conjuncts, asserted disjunctions/implications become a single
        # clause over their disjuncts' literals, asserted biconditionals
        # become two clauses.  Everything below the top level is definitional.
        if isinstance(node, And):
            assert_true(node.left)
            assert_true(node.right)
        elif isinstance(node, (Or, Implies)):
            clause = []
            stack = [node]
            while stack:
                cur = stack.pop()
                if isinstance(cur, Or):
                    stack.append(cur.right)
                    stack.append(cur.left)
                elif isinstance(cur, Implies):
                    stack.append(cur.right)
                    stack.append(Not(cur.left))
                elif isinstance(cur, Not) and isinstance(cur.child, Not):
                    stack.append(cur.child.child)
                else:
                    clause.append(walk(cur))
            emit(clause)
        elif isinstance(node, Iff):
            a = walk(node.left)
            b = walk(node.right)
            if a != b:
                emit([-a, b])
                emit([a, -b])
        else:
            emit([walk(node)])

    assert_true(f)


def _clausify(clausifier, f, mapped):
    """Clauses, variables and leaf-map calls of one clausification into a map
    whose ids 1..3 are the Lit leaves': by default leaves, or through a map
    that sends a, b and c to 1, -1 and 2 and records each call."""
    vm = VarMap(3)
    clauses = [[3]]
    calls = []

    def leaf(name):
        calls.append(name)
        return {"a": 1, "b": -1, "c": 2}[name]

    clausifier(f, vm, clauses, leaf if mapped else None)
    names = [vm.name_of(v) for v in range(1, len(vm) + 1)]
    return clauses, len(vm), names, calls


@settings(max_examples=400)
@given(_FORMULAS, st.booleans())
def test_tseitin_append_matches_the_recursive_clausifier(f, mapped):
    """The same clauses in the same order (tautologies and repeated literals
    dropped alike), the same variables and names, and the same leaf-map calls
    in the same order as the recursive clausifier it replaced."""
    assert _clausify(tseitin_append, f, mapped) == _clausify(_reference_tseitin_append, f, mapped)
