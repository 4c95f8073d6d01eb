"""At-most-k encoders: exact shapes, soundness, completeness."""

import itertools
from math import comb

import pytest

from incmeter.cardinality import (
    CounterAllocator,
    at_most,
    at_most_binomial,
    sequential_clause_bound,
)
from incmeter.cnf import CnfInstance, VarMap
from incmeter.solver import SolveStatus, solve_internal


def test_binomial_k1_three_vars():
    clauses = at_most_binomial(1, [1, 2, 3])
    assert clauses == [[-1, -2], [-1, -3], [-2, -3]]


def test_binomial_k0_is_unit_negatives():
    assert at_most_binomial(0, [1, 2]) == [[-1], [-2]]


def test_binomial_slack_bound_is_empty():
    assert at_most_binomial(2, [1, 2]) == []
    assert at_most_binomial(5, [1, 2, 3]) == []


@pytest.mark.parametrize("n", range(1, 9))
def test_binomial_clause_count(n):
    variables = list(range(1, n + 1))
    for k in range(n + 1):
        assert len(at_most_binomial(k, variables)) == comb(n, k + 1)


def test_sequential_k0():
    alloc = CounterAllocator(2)
    assert at_most(0, [1, 2], alloc) == [[-1], [-2]]


def test_sequential_aux_recorded_in_varmap():
    vm = VarMap()
    for i in range(4):
        vm.var(("atom", f"x{i}"))
    at_most(2, [1, 2, 3, 4], vm)
    assert vm.base_count() == 4
    assert len(vm) > 4  # registers allocated as aux entries


def _extension_satisfiable(clauses, n_vars, top, assignment):
    units = [[v if value else -v] for v, value in assignment.items()]
    res = solve_internal(CnfInstance(top, clauses + units))
    return res.status is SolveStatus.SAT


@pytest.mark.parametrize("n", range(1, 7))
def test_sequential_exhaustive_soundness(n):
    variables = list(range(1, n + 1))
    for k in range(n + 1):
        alloc = CounterAllocator(n)
        clauses = at_most(k, variables, alloc)
        for bits in itertools.product([False, True], repeat=n):
            assignment = dict(zip(variables, bits))
            ok = _extension_satisfiable(clauses, n, alloc.top, assignment)
            assert ok == (sum(bits) <= k), (n, k, bits)


@pytest.mark.parametrize("n", range(1, 7))
def test_sequential_matches_binomial_projection(n):
    variables = list(range(1, n + 1))
    for k in range(n + 1):
        alloc = CounterAllocator(n)
        seq = at_most(k, variables, alloc)
        bino = at_most_binomial(k, variables)
        for bits in itertools.product([False, True], repeat=n):
            assignment = dict(zip(variables, bits))
            seq_ok = _extension_satisfiable(seq, n, alloc.top, assignment)
            bino_ok = all(
                any(assignment[abs(lit)] == (lit > 0) for lit in clause)
                for clause in bino
            )
            assert seq_ok == bino_ok


@pytest.mark.parametrize("n", range(1, 9))
def test_sequential_clause_budget(n):
    variables = list(range(1, n + 1))
    for k in range(n + 1):
        clauses = at_most(k, variables, CounterAllocator(n))
        assert len(clauses) <= sequential_clause_bound(n, k)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        at_most_binomial(-1, [1])
    with pytest.raises(ValueError):
        at_most(-1, [1], CounterAllocator(1))
