"""At-most-k encoders: exact shapes, soundness, completeness."""

import hashlib
import itertools
import random
from math import comb

import pytest

from incmeter.bench import SrsParams, generate_corpus
from incmeter.cardinality import (
    SumCounter,
    at_most,
    at_most_binomial,
    sequential_clause_bound,
)
from incmeter.cnf import CnfInstance, VarMap
from incmeter.encodings import encode
from incmeter.search import search_range
from incmeter.solver import SolveStatus, solve_internal
from incmeter.values import MEASURES


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
    alloc = VarMap(2)
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
        alloc = VarMap(n)
        clauses = at_most(k, variables, alloc)
        for bits in itertools.product([False, True], repeat=n):
            assignment = dict(zip(variables, bits))
            ok = _extension_satisfiable(clauses, n, len(alloc), assignment)
            assert ok == (sum(bits) <= k), (n, k, bits)


@pytest.mark.parametrize("n", range(1, 7))
def test_sequential_matches_binomial_projection(n):
    variables = list(range(1, n + 1))
    for k in range(n + 1):
        alloc = VarMap(n)
        seq = at_most(k, variables, alloc)
        bino = at_most_binomial(k, variables)
        for bits in itertools.product([False, True], repeat=n):
            assignment = dict(zip(variables, bits))
            seq_ok = _extension_satisfiable(seq, n, len(alloc), assignment)
            bino_ok = all(
                any(assignment[abs(lit)] == (lit > 0) for lit in clause)
                for clause in bino
            )
            assert seq_ok == bino_ok


@pytest.mark.parametrize("n", range(1, 9))
def test_sequential_clause_budget(n):
    variables = list(range(1, n + 1))
    for k in range(n + 1):
        clauses = at_most(k, variables, VarMap(n))
        assert len(clauses) <= sequential_clause_bound(n, k)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        at_most_binomial(-1, [1])
    with pytest.raises(ValueError):
        at_most(-1, [1], VarMap(1))



def _splits(n):
    """Every split of the inputs 1..n into consecutive non-empty parts."""
    for cuts in itertools.product([False, True], repeat=n - 1):
        parts = [[1]]
        for v, cut in zip(range(2, n + 1), cuts):
            if cut:
                parts.append([])
            parts[-1].append(v)
        yield parts


def _encoding_digests():
    """One digest for the one-shot counter, one for the summed counter and
    one per measure's encodings of the sat-mix base corpus."""
    digests = {}
    h = hashlib.sha256()
    for n in range(1, 9):
        for k in range(n + 1):
            h.update(repr(at_most(k, list(range(1, n + 1)), VarMap(n))).encode())
    digests["at_most"] = h.hexdigest()[:16]
    h = hashlib.sha256()
    for n in range(1, 7):
        rng = random.Random(n)
        for parts in _splits(n):
            alloc = VarMap(n)
            counter = SumCounter(parts, alloc)
            for k in rng.sample(range(n + 1), n + 1):
                h.update(repr((counter.at_most(k), len(alloc))).encode())
    digests["SumCounter"] = h.hexdigest()[:16]

    def update(h, enc, lits=None):
        h.update(repr((enc.cnf.num_vars, enc.cnf.clauses, enc.rule_spans, lits)).encode())

    kbs = [kb for _, kb in generate_corpus(SrsParams(6, 8, 14, seed=7), 20)]
    for measure in MEASURES:
        h = hashlib.sha256()
        for i, kb in enumerate(kbs):
            rng = search_range(measure, kb)
            bounds = list(range(rng.min, rng.max + 1))
            for u in bounds[:6] + bounds[-2:]:
                update(h, encode(measure, kb, u))
            shuffled = random.Random(i).sample(bounds, len(bounds))
            for order in (bounds, bounds[::-1], shuffled):
                enc = encode(measure, kb)
                for u in order:
                    update(h, enc, enc.assume(u))
        digests[measure] = h.hexdigest()[:16]
    return digests


def test_counter_and_encoding_clauses_are_pinned():
    """The one-shot counter for n <= 8, the summed counter over every split
    of n <= 6 inputs with its bounds in a seeded order, and every measure's
    one-shot encodings (the first six and the last two bounds) and bound-free
    sessions (bounds ascending, descending and shuffled) on the sat-mix base
    corpus, 1,320 encodings: the same clauses, variable ids, rule spans and
    assumption literals as when this pin was written.  A change that means to
    alter a counter or an encoding updates the pin."""
    assert _encoding_digests() == {
        "at_most": "15803484a51affbe",
        "SumCounter": "891bcb7bd6de8cbd",
        "contension": "56b6ff3540c4e7c1",
        "forgetting": "02d9275a977b24a0",
        "hitting-set": "d0be017e4ed42620",
        "max-distance": "49b43f257cbbbe51",
        "sum-distance": "d06901a93d8e7607",
        "hit-distance": "b08fed59f2117a34",
    }
