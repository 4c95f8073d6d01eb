"""Acceptance criteria, one test per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  The random suite (criteria 2, 3, 7, 9) uses one fixed seeded
corpus of 300 KBs with at most 5 atoms and at most 8 formulas each.
"""

import itertools
import math
import random
import time
from math import comb
from pathlib import Path

import pytest

from incmeter.asp import STATIC_BLOCKS, asp_backend_available, emit_asp, extract_value, solve_asp
from incmeter.bench import SrsParams, generate_corpus
from incmeter.cardinality import at_most, at_most_binomial
from incmeter.cnf import CnfInstance, VarMap, tseitin
from incmeter.encodings import encode, encode_hs, expected_base_size
from incmeter.kb import Atom, eval2, interpretations, parse_kb
from incmeter.oracles import naive_measure, oracle_value
from incmeter.search import binary_search, compute, linear_search, search_range
from incmeter.solver import SolveStatus, solve_internal
from incmeter.values import INF, MEASURES

WORKED = {
    "K4": "x&&y\n!y",
    "K5": "x&&y\nx||y\nz\n!x",
    "K6": "x&&!x\ny\nz",
    "K7": "x&&y\nx||y\n!x",
}

EXPECTED = {
    ("K4", "contension"): 1,
    ("K4", "forgetting"): 1,
    ("K4", "hitting-set"): 1,
    ("K4", "max-distance"): 1,
    ("K4", "sum-distance"): 1,
    ("K4", "hit-distance"): 1,
    ("K5", "forgetting"): 1,
    ("K6", "hitting-set"): INF,
    ("K6", "max-distance"): INF,
    ("K6", "sum-distance"): INF,
    ("K6", "hit-distance"): 1,
    **{("K7", measure): 1 for measure in MEASURES},
}


def _report(criterion: int, name: str, ok: bool, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {criterion} {name}: {verdict}{suffix}")


@pytest.fixture(scope="session")
def corpus():
    kbs = []
    for atoms, seed in ((3, 1000), (4, 2000), (5, 3000)):
        for i, (kb_id, kb) in enumerate(
            generate_corpus(SrsParams(atoms, 1, 8, seed=seed), 100)
        ):
            kbs.append((f"at{atoms}_{kb_id}", kb))
    assert len(kbs) == 300
    for _, kb in kbs:
        assert len(kb.signature()) <= 5 and len(kb) <= 8
    return kbs


@pytest.fixture(scope="session")
def corpus_oracle(corpus):
    return {
        (kb_id, measure): oracle_value(kb, measure)
        for kb_id, kb in corpus
        for measure in MEASURES
    }


def _binary_pass(corpus):
    """(value, solver calls) per (kb, measure) via binary search."""
    results = {}
    for kb_id, kb in corpus:
        for measure in MEASURES:
            outcome = binary_search(measure, kb)
            results[(kb_id, measure)] = (outcome.value, outcome.solver_calls)
    return results


@pytest.fixture(scope="session")
def corpus_binary(corpus):
    return _binary_pass(corpus)


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    kbs = {name: parse_kb(text) for name, text in WORKED.items()}
    failures = []
    has_asp = asp_backend_available()
    for (name, measure), want in EXPECTED.items():
        kb = kbs[name]
        methods = ["sat-binary", "sat-linear", "naive"]
        if measure == "contension":
            methods.append("maxsat")
        if has_asp:
            methods.append("asp")
        for method in methods:
            got = compute(measure, kb, method).value
            if got != want:
                failures.append((name, measure, method, got, want))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    note = f"{elapsed:.2f}s" + ("" if has_asp else ", asp skipped: no backend")
    _report(1, "worked-example suite", ok, note)
    assert not failures, failures
    assert elapsed < 5.0, f"worked-example suite took {elapsed:.2f}s"


def test_criterion_2_theorem_conformance(corpus, corpus_oracle):
    start = time.perf_counter()
    violations = []
    checks = 0
    for kb_id, kb in corpus:
        for measure in MEASURES:
            want = corpus_oracle[(kb_id, measure)]
            rng = search_range(measure, kb)
            for u in range(rng.min, rng.max + 1):
                enc = encode(measure, kb, u)
                res = solve_internal(enc.cnf)
                assert res.status is not SolveStatus.TIMEOUT
                verdict = res.status is SolveStatus.SAT
                checks += 1
                if verdict != (want <= u):
                    violations.append((kb_id, measure, u, want, verdict))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 600.0
    _report(2, "theorem conformance", ok, f"{checks} checks, {elapsed:.1f}s")
    assert not violations, violations[:10]
    assert elapsed < 600.0


def test_criterion_3_method_agreement(corpus, corpus_oracle, corpus_binary):
    has_asp = asp_backend_available()
    disagreements = []
    for kb_id, kb in corpus:
        for measure in MEASURES:
            want = corpus_oracle[(kb_id, measure)]
            got = {"sat-binary": corpus_binary[(kb_id, measure)][0]}
            got["sat-linear"] = linear_search(measure, kb).value
            got["naive"] = naive_measure(kb, measure)
            if measure == "contension":
                got["maxsat"] = compute(measure, kb, "maxsat").value
            if has_asp:
                program = emit_asp(measure, kb)
                got["asp"] = extract_value(measure, program, solve_asp(program))
            for method, value in got.items():
                if value != want:
                    disagreements.append((kb_id, measure, method, value, want))
    note = "asp included" if has_asp else "asp skipped: no backend"
    _report(3, "method agreement", not disagreements, note)
    assert not disagreements, disagreements[:10]


def test_criterion_4_cardinality_exhaustive():
    bad = []
    for n in range(1, 9):
        variables = list(range(1, n + 1))
        for k in range(n + 1):
            bino = at_most_binomial(k, variables)
            if len(bino) != comb(n, k + 1):
                bad.append(("binomial-count", n, k))
            alloc = VarMap(n)
            seq = at_most(k, variables, alloc)
            for bits in itertools.product([False, True], repeat=n):
                want = sum(bits) <= k
                bino_ok = all(
                    any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
                    for clause in bino
                )
                units = [[v] if bit else [-v] for v, bit in zip(variables, bits)]
                seq_res = solve_internal(CnfInstance(len(alloc), seq + units))
                seq_ok = seq_res.status is SolveStatus.SAT
                if bino_ok != want or seq_ok != want:
                    bad.append((n, k, bits, bino_ok, seq_ok, want))
    _report(4, "cardinality correctness", not bad)
    assert not bad, bad[:10]


def test_criterion_5_tseitin_equisatisfiability():
    rng = random.Random(0xACCE55)
    atoms = ["a", "b", "c", "d", "e", "f"]

    def random_formula(depth):
        roll = rng.random()
        if depth >= 5 or roll < 0.35:
            return Atom(rng.choice(atoms))
        if roll < 0.5:
            from incmeter.kb import Not

            return Not(random_formula(depth + 1))
        from incmeter.kb import And, Iff, Implies, Or

        op = rng.choice([And, Or, Implies, Iff])
        return op(random_formula(depth + 1), random_formula(depth + 1))

    mismatches = 0
    for _ in range(500):
        f = random_formula(0)
        want = any(eval2(f, w) for w in interpretations(tuple(atoms)))
        got = solve_internal(tseitin(f)).status is SolveStatus.SAT
        if got != want:
            mismatches += 1
    _report(5, "Tseitin equisatisfiability", mismatches == 0, "500 formulas")
    assert mismatches == 0


def test_criterion_6_encoding_sizes(corpus):
    sample = corpus[::6][:50]
    assert len(sample) == 50
    bad = []
    for kb_id, kb in sample:
        for measure in MEASURES:
            if measure == "hitting-set":
                for blocks in range(1, len(kb) + 1):
                    enc = encode_hs(kb, blocks)
                    if enc.base_signature_size != expected_base_size(
                        measure, kb, blocks
                    ):
                        bad.append((kb_id, measure, blocks))
            else:
                enc = encode(measure, kb, 0)
                if enc.base_signature_size != expected_base_size(measure, kb):
                    bad.append((kb_id, measure))
    _report(6, "encoding-size conformance", not bad, "50 KBs")
    assert not bad, bad[:10]


def test_criterion_7_search_cost(corpus, corpus_binary):
    over_budget = []
    for kb_id, kb in corpus:
        for measure in MEASURES:
            rng = search_range(measure, kb)
            budget = math.floor(math.log2(rng.size)) + 1
            calls = corpus_binary[(kb_id, measure)][1]
            if calls > budget:
                over_budget.append((kb_id, measure, calls, budget))
    consistent = parse_kb("x||y\n!x||z")
    single_call = all(
        linear_search(measure, consistent).solver_calls == 1 for measure in MEASURES
    )
    ok = not over_budget and single_call
    _report(7, "search-cost bound", ok)
    assert not over_budget, over_budget[:10]
    assert single_call


def test_criterion_8_asp_goldens():
    golden_dir = Path(__file__).parent / "goldens"
    files = {
        "contension": "asp_contension_static.lp",
        "forgetting": "asp_forgetting_static.lp",
        "hitting-set": "asp_hitting_set_static.lp",
        "max-distance": "asp_max_distance_static.lp",
        "sum-distance": "asp_sum_distance_static.lp",
        "hit-distance": "asp_hit_distance_static.lp",
    }
    mismatched = [
        measure
        for measure, fname in files.items()
        if (golden_dir / fname).read_text(encoding="utf-8") != STATIC_BLOCKS[measure]
    ]
    k7 = parse_kb(WORKED["K7"])
    fact_checks = {
        "contension": ["kbMember(f_0).", "conjunction(f_0,f_0_l,f_0_r).",
                       "formulaIsAtom(f_2_l,a_x)."],
        "forgetting": ["formulaIsAtomOcc(f_2_l,a_x,3)."],
        "hitting-set": ["interpretation(1..3)."],
        "max-distance": ["interpretation(0..3).",
                         "dMax(X) :- X = #max{Y : d(I,3,Y), interpretation(I)}, X >= 0."],
        "sum-distance": ["dSum(X) :- X = #sum{Y,I : d(I,3,Y), interpretation(I)}, X >= 0."],
        "hit-distance": ["kbMember(f_2)."],
    }
    missing_facts = []
    for measure, expected_facts in fact_checks.items():
        facts = emit_asp(measure, k7).facts
        for fact in expected_facts:
            if fact not in facts:
                missing_facts.append((measure, fact))
    ok = not mismatched and not missing_facts
    _report(8, "ASP golden files", ok)
    assert not mismatched, mismatched
    assert not missing_facts, missing_facts


def test_criterion_9_determinism(corpus, corpus_binary):
    rerun = _binary_pass(corpus)
    same = rerun == corpus_binary
    regenerated = []
    for atoms, seed in ((3, 1000), (4, 2000), (5, 3000)):
        for kb_id, kb in generate_corpus(SrsParams(atoms, 1, 8, seed=seed), 100):
            regenerated.append((f"at{atoms}_{kb_id}", kb.to_text()))
    corpus_texts = [(kb_id, kb.to_text()) for kb_id, kb in corpus]
    same_corpus = regenerated == corpus_texts
    _report(9, "determinism", same and same_corpus)
    assert same_corpus
    assert same
