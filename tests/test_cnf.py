"""Tseitin conversion and the equivalence-preserving clause form."""

from hypothesis import given

from conftest import hypothesis_formulas
from incmeter.cnf import CnfInstance, VarMap, to_clauses_distributive, tseitin, tseitin_append
from incmeter.kb import (
    Atom,
    eval2,
    formula_size,
    interpretations,
    parse_formula,
)
from incmeter.solver import SolveStatus, solve_internal


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
