"""Binary/linear search drivers and the method dispatcher."""

import math

import pytest

from incmeter import search
from incmeter.bench import SrsParams, generate_corpus
from incmeter.kb import parse_kb
from incmeter.oracles import MeasureUndefinedError, oracle_value
from incmeter.search import (
    ENGINE_COUNTERS,
    METHODS,
    PHASES,
    RunConfig,
    binary_search,
    compute,
    linear_search,
    search_range,
)
from incmeter.solver import BackendConfig
from incmeter.values import INF, MEASURES


def test_search_ranges_k7(k7):
    assert search_range("contension", k7).max == 2
    assert search_range("forgetting", k7).max == 5
    assert search_range("hitting-set", k7).max == 2
    assert search_range("max-distance", k7).max == 2
    assert search_range("sum-distance", k7).max == 6
    assert search_range("hit-distance", k7).max == 3


def test_infinity_policy_flags(k7):
    flags = {m: search_range(m, k7).infinity_possible for m in MEASURES}
    assert flags == {
        "contension": False,
        "forgetting": False,
        "hitting-set": True,
        "max-distance": True,
        "sum-distance": True,
        "hit-distance": False,
    }


def test_binary_search_k4_contension_within_call_budget(k4):
    out = binary_search("contension", k4)
    assert out.value == 1
    assert out.solver_calls <= math.floor(math.log2(len(k4.signature()) + 1)) + 1


def test_binary_search_hs_k6_infinite(k6):
    assert binary_search("hitting-set", k6).value == INF


def test_binary_search_dsum_k7(k7):
    assert binary_search("sum-distance", k7).value == 1


def test_linear_search_consistent_single_call(consistent_kb):
    for measure in MEASURES:
        out = linear_search(measure, consistent_kb)
        assert out.value == 0
        assert out.solver_calls == 1


def test_linear_search_dmax_k4_two_calls(k4):
    out = linear_search("max-distance", k4)
    assert out.value == 1 and out.solver_calls == 2


def test_linear_search_forgetting_k5(k5):
    assert linear_search("forgetting", k5).value == 1


def test_empty_kb_no_solver_calls(empty_kb):
    for measure in MEASURES:
        for runner in (binary_search, linear_search):
            out = runner(measure, empty_kb)
            assert out.value == 0 and out.solver_calls == 0


def test_phase_times_partition_total(k7):
    out = binary_search("contension", k7)
    assert set(out.phase_times) == set(PHASES)
    assert sum(out.phase_times.values()) <= out.total_seconds + 1e-6


def test_search_call_budget_and_agreement_on_random_kbs():
    kbs = generate_corpus(SrsParams(4, 1, 6, seed=301), 12)
    for kb_id, kb in kbs:
        for measure in MEASURES:
            rng = search_range(measure, kb)
            want = oracle_value(kb, measure)
            b = binary_search(measure, kb)
            l = linear_search(measure, kb)
            assert b.value == l.value == want, (kb_id, measure)
            assert b.solver_calls <= math.floor(math.log2(rng.size)) + 1


def _published_bounds(method, rng, verdicts):
    """The bounds the published scheme probes when it gets `verdicts`, up to
    where it stops, and whether it has stopped after them.  Binary search
    probes the lower midpoint of [lo, hi], then goes on in [lo, mid - 1] on
    a satisfiable verdict and in [mid + 1, hi] on an unsatisfiable one,
    until the range is empty.  Linear search probes min, min + 1, ... until
    the first satisfiable bound or the end of the range."""
    bounds = []
    if method == "sat-linear":
        for bound, verdict in zip(range(rng.min, rng.max + 1), verdicts):
            bounds.append(bound)
            if verdict:
                return bounds, True
        return bounds, len(bounds) == rng.size
    lo, hi = rng.min, rng.max
    for verdict in verdicts:
        if lo > hi:
            break
        mid = (lo + hi) // 2
        bounds.append(mid)
        if verdict:
            hi = mid - 1
        else:
            lo = mid + 1
    return bounds, lo > hi


@pytest.mark.parametrize("method", ["sat-binary", "sat-linear"])
def test_searches_probe_in_the_published_order(monkeypatch, k4, k5, k6, k7, method):
    """Each bound a search probes is the one the published scheme picks from
    the verdicts before it, and the search stops where the scheme does.
    The value is the least satisfiable bound, and unless it is the range's
    minimum, value - 1 was probed unsatisfiable; inf follows an
    unsatisfiable probe at the top of the range."""
    probes = []
    original = search._Session.probe

    def recording(self, bound):
        verdict = original(self, bound)
        probes.append((bound, verdict))
        return verdict

    monkeypatch.setattr(search._Session, "probe", recording)
    kbs = [k4, k5, k6, k7] + [kb for _, kb in generate_corpus(SrsParams(6, 8, 14, seed=7), 20)]
    for kb in kbs:
        for measure in MEASURES:
            probes.clear()
            out = compute(measure, kb, method)
            rng = search_range(measure, kb)
            bounds, stopped = _published_bounds(method, rng, [v for _, v in probes])
            assert [b for b, _ in probes] == bounds and stopped, (measure, kb, probes)
            assert out.solver_calls == len(probes)
            satisfiable = [b for b, v in probes if v]
            if out.value == INF:
                assert not satisfiable and (rng.max, False) in probes, (measure, kb)
                continue
            assert out.value == min(satisfiable), (measure, kb)
            if out.value > rng.min:
                assert (out.value - 1, False) in probes, (measure, kb)


def test_infinity_only_with_contradictory_member():
    from incmeter.kb import KnowledgeBase, enumerate_models

    kbs = generate_corpus(SrsParams(3, 1, 5, seed=523), 15)
    for kb_id, kb in kbs:
        has_contradiction = any(
            not enumerate_models(KnowledgeBase((f,))) for f in kb
        )
        for measure in MEASURES:
            rng = search_range(measure, kb)
            value = binary_search(measure, kb).value
            if value == INF:
                assert rng.infinity_possible and has_contradiction, (kb_id, measure)
            elif rng.infinity_possible:
                assert not has_contradiction, (kb_id, measure)


@pytest.mark.parametrize("method", ["sat-binary", "sat-linear", "maxsat"])
def test_timeout_carries_the_undecided_range(k7, method):
    """A limit that ends the run before its first call leaves the whole
    range [0, |atoms|] of contension on K7 undecided."""
    cfg = RunConfig(backend=BackendConfig(timeout=1e-9))
    out = compute("contension", k7, method, cfg)
    assert out.timed_out and out.value is None
    assert out.bounds == (0, 2)


def test_measure_undefined_when_constant_false():
    kb = parse_kb("x\n-")
    with pytest.raises(MeasureUndefinedError):
        binary_search("contension", kb)
    with pytest.raises(MeasureUndefinedError):
        linear_search("forgetting", kb)
    with pytest.raises(MeasureUndefinedError):
        compute("contension", kb, "maxsat")
    with pytest.raises(MeasureUndefinedError):
        compute("contension", kb, "naive")
    # measures that admit infinity exhaust their range instead
    assert binary_search("hitting-set", kb).value == INF
    assert compute("max-distance", kb, "naive").value == INF
    assert compute("hit-distance", kb, "sat-binary").value == 1


def test_compute_dispatch_examples(k4):
    assert compute("contension", k4, "maxsat").value == 1
    assert compute("hit-distance", k4, "naive").value == 1
    assert compute("contension", k4, "sat-binary").value == 1
    assert compute("contension", k4, "sat-linear").value == 1


def test_compute_rejects_bad_pairs(k4):
    with pytest.raises(ValueError):
        compute("forgetting", k4, "maxsat")
    with pytest.raises(ValueError):
        compute("contension", k4, "dpll")
    with pytest.raises(ValueError):
        compute("entropy", k4, "naive")


def test_compute_methods_agree_on_fixtures(k4, k5, k6, k7, consistent_kb):
    for kb in (k4, k5, k6, k7, consistent_kb):
        for measure in MEASURES:
            values = set()
            for method in ("sat-binary", "sat-linear", "naive"):
                values.add(compute(measure, kb, method).value)
            if measure == "contension":
                values.add(compute(measure, kb, "maxsat").value)
            assert len(values) == 1, (measure, values)


def test_compute_maxsat_empty_kb(empty_kb):
    assert compute("contension", empty_kb, "maxsat").value == 0


def test_method_list_is_exact():
    assert METHODS == ("sat-binary", "sat-linear", "maxsat", "naive", "asp")


@pytest.mark.parametrize("method", ["sat-binary", "sat-linear"])
def test_timed_out_sat_call_is_counted(k7, sleepy_solver, method):
    backend = BackendConfig(solver_path=sleepy_solver, timeout=0.5)
    out = compute("hit-distance", k7, method, RunConfig(backend=backend))
    assert out.status == "timeout"
    assert out.solver_calls == 1


def test_timed_out_maxsat_call_is_counted(k7, sleepy_solver):
    backend = BackendConfig(solver_path=sleepy_solver, timeout=0.5)
    out = compute("contension", k7, "maxsat", RunConfig(backend=backend))
    assert out.status == "timeout"
    assert out.solver_calls == 1


@pytest.mark.parametrize("method", ["sat-binary", "sat-linear", "maxsat"])
def test_time_limit_includes_encoding(k7, monkeypatch, method):
    """An encoder slower than the whole limit ends the run on the limit, with
    no SAT call, whichever SAT pipeline it belongs to."""
    import time

    from incmeter import encodings

    for name in ("encode", "encode_contension_maxsat"):
        original = getattr(encodings, name)

        def slow(*args, original=original):
            time.sleep(0.5)
            return original(*args)

        monkeypatch.setattr(encodings, name, slow)
    out = compute("contension", k7, method, RunConfig(backend=BackendConfig(timeout=0.3)))
    assert out.status == "timeout" and out.value is None
    assert out.solver_calls == 0
    assert out.total_seconds < 0.5 + 0.25


def test_maxsat_values_and_calls_are_pinned():
    """(value, SAT calls) of the MaxSAT search per KB of the sat-mix
    benchmark corpus, as its bisection with model-guided upper ends makes
    them (srs0009 needs the model's cost to end after 3 calls)."""
    want = [(3, 4), (2, 4), (2, 4), (0, 4), (3, 4), (1, 4), (1, 4), (2, 3), (4, 4), (4, 3),
            (2, 4), (3, 4), (2, 4), (1, 4), (2, 4), (2, 4), (1, 4), (3, 4), (2, 4), (0, 4)]
    kbs = generate_corpus(SrsParams(6, 8, 14, seed=7), 20)
    got = [compute("contension", kb, "maxsat") for _, kb in kbs]
    assert [(out.value, out.solver_calls) for out in got] == want


@pytest.mark.parametrize("method", ["sat-binary", "sat-linear", "maxsat"])
def test_outcome_sums_the_engine_counters_of_its_calls(k7, monkeypatch, method):
    from incmeter import search

    results = []
    original = search.solve

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(search, "solve", recording)
    out = compute("contension", k7, method)
    assert len(results) == out.solver_calls
    assert set(out.engine_counters) == set(ENGINE_COUNTERS)
    for name in ENGINE_COUNTERS:
        assert out.engine_counters[name] == sum(getattr(r, name) for r in results), name
    assert out.engine_counters["propagations"] > 0
