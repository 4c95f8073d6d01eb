"""Self-checks of the benchmark: per-layer counts repeat and seeds agree.

Run from the root of a checkout (takes a few minutes)::

    python3 -m pytest perfbench -q

The deadline workload is exempt from the count check: where its cells stop
depends on the clock.
"""

from __future__ import annotations

import pytest

from run import load, run_pass
from tracer import Tracer
from workloads import WORKLOADS, cells

COUNTS = (
    "search.probes", "solver.calls", "solver.sat", "solver.unsat",
    "solver.clauses_loaded", "encodings.calls", "encodings.vars",
    "encodings.clauses", "encodings.reencoded_frac", "cardinality.calls",
    "cardinality.aux_vars", "cardinality.clauses", "cnf.tseitin_calls",
    "kb.prepare_calls",
)


def traced_pass(workload: str, seed: int):
    """Counts and per-cell values of one traced pass after a fresh set-up."""
    w = WORKLOADS[workload]
    lib, kbs, round_trip_ok = load(w, seed)
    assert round_trip_ok
    tracer = Tracer()
    tracer.install(lib)
    try:
        _wall, results = run_pass(lib, w, cells(w, list(kbs), seed), kbs, tracer)
    finally:
        tracer.remove()
    assert all(r.status == "ok" for r in results), [r for r in results if r.status != "ok"]
    metrics = tracer.layer_metrics(len(results))
    values = {r.cell.index: r.value for r in results}
    return {key: metrics[key] for key in COUNTS}, values


@pytest.mark.parametrize("workload", ["sat-mix", "solve-heavy", "encode-heavy"])
def test_counts_repeat_and_seeds_agree(workload):
    by_seed = {}
    for seed in (1, 2):
        first_counts, first_values = traced_pass(workload, seed)
        again_counts, again_values = traced_pass(workload, seed)
        assert first_counts == again_counts
        assert first_values == again_values
        by_seed[seed] = first_values
    # Seeds rename atoms and reorder formulas, which leaves every value as is.
    assert by_seed[1] == by_seed[2]
