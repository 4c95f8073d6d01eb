"""Random KB generation, matrix runs, CSV reports."""

import csv
import json
from pathlib import Path

import pytest

from incmeter.bench import (
    BenchRecord,
    SrsParams,
    ValueDisagreementError,
    _check_agreement,
    emit_reports,
    generate_corpus,
    generate_srs,
    run_matrix,
    write_corpus,
)
from incmeter.kb import Atom, KnowledgeBase, parse_kb
from incmeter.search import ENGINE_COUNTERS, RunConfig, compute
from incmeter.solver import BackendConfig
from incmeter.values import MEASURES


def test_params_validation():
    with pytest.raises(ValueError):
        SrsParams(3, 5, 2)
    with pytest.raises(ValueError):
        SrsParams(3, 1, 2, pd=0.5, pc=0.4, pn=0.3)
    with pytest.raises(ValueError):
        SrsParams(3, 1, 2, discount=1.0)
    with pytest.raises(ValueError):
        SrsParams(0, 1, 2)


def test_zero_connective_probability_yields_atoms():
    params = SrsParams(3, 5, 15, pd=0.0, pc=0.0, pn=0.0, seed=3)
    kb = generate_srs(params)
    assert all(isinstance(f, Atom) for f in kb)


def test_generation_deterministic():
    params = SrsParams(3, 5, 15, seed=7)
    assert generate_srs(params).to_text() == generate_srs(params).to_text()
    a = generate_corpus(params, 5)
    b = generate_corpus(params, 5)
    assert [kb.to_text() for _, kb in a] == [kb.to_text() for _, kb in b]


def test_mean_atoms_per_formula_band():
    """Empirical band around the published per-formula signature statistic."""
    total_atoms = 0
    total_formulas = 0
    for _, kb in generate_corpus(SrsParams(3, 5, 15, seed=42), 200):
        for f in kb:
            total_atoms += len(KnowledgeBase((f,)).signature())
            total_formulas += 1
    mean = total_atoms / total_formulas
    assert 1.2 <= mean <= 2.2, mean


def test_formula_counts_respect_range():
    for _, kb in generate_corpus(SrsParams(4, 2, 6, seed=13), 40):
        assert 2 <= len(kb) <= 6


def test_write_corpus_round_trips(tmp_path):
    params = SrsParams(3, 2, 5, seed=11)
    names = write_corpus(params, 4, tmp_path)
    assert len(names) == 4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["count"] == 4
    assert manifest["params"]["seed"] == 11
    for kb_id, info in manifest["instances"].items():
        text = (tmp_path / info["file"]).read_text()
        regenerated = generate_srs(
            SrsParams(3, 2, 5, seed=info["seed"])
        )
        assert parse_kb(text).formulas == regenerated.formulas


def test_run_matrix_values_on_k4(k4):
    records = run_matrix([("k4", k4)], MEASURES, ["sat-binary", "naive"], 60)
    assert len(records) == 12
    by_cell = {(r.measure, r.method): r for r in records}
    for measure in MEASURES:
        assert by_cell[(measure, "sat-binary")].value == 1
        assert by_cell[(measure, "naive")].value == 1


def test_run_matrix_hs_inf_on_k6(k6):
    records = run_matrix([("k6", k6)], ["hitting-set"], ["sat-binary"], 60)
    assert records[0].value_text() == "inf"


def test_run_matrix_empty_methods(k4):
    assert run_matrix([("k4", k4)], MEASURES, [], 60) == []


def test_run_matrix_skips_maxsat_on_other_measures(k4):
    records = run_matrix([("k4", k4)], ["forgetting", "contension"], ["maxsat"], 60)
    assert [r.measure for r in records] == ["contension"]


def test_run_matrix_parallel_matches_serial(k4, k7):
    kbs = [("k4", k4), ("k7", k7)]
    serial = run_matrix(kbs, MEASURES, ["sat-binary"], 60, workers=1)
    parallel = run_matrix(kbs, MEASURES, ["sat-binary"], 60, workers=4)
    key = lambda r: (r.kb_id, r.measure, r.method)
    assert [(key(r), r.value) for r in serial] == [
        (key(r), r.value) for r in parallel
    ]


def test_agreement_check_raises():
    records = [
        BenchRecord("kb", "contension", "sat-binary", 1, 0.1, {}, 1),
        BenchRecord("kb", "contension", "naive", 2, 0.1, {}, 1),
    ]
    with pytest.raises(ValueDisagreementError):
        _check_agreement(records)


def test_agreement_ignores_timeouts():
    records = [
        BenchRecord("kb", "contension", "sat-binary", 1, 0.1, {}, 1),
        BenchRecord("kb", "contension", "naive", None, 0.1, {}, 1),
    ]
    _check_agreement(records)  # no exception


def test_run_matrix_records_cap_and_undefined_cells(tmp_path):
    over_cap = parse_kb("\n".join(f"x{i} && !x{(i + 1) % 10}" for i in range(10)))
    undefined = parse_kb("x\n- && y")
    records = run_matrix(
        [("cap10", over_cap), ("bottom", undefined)],
        ["hitting-set", "contension"],
        ["sat-binary", "naive"],
        60,
    )
    status = {(r.kb_id, r.measure, r.method): r.status for r in records}
    assert status[("cap10", "hitting-set", "naive")] == "cap"
    assert status[("cap10", "hitting-set", "sat-binary")] == "ok"
    assert status[("bottom", "contension", "sat-binary")] == "undefined"
    assert status[("bottom", "hitting-set", "naive")] == "ok"
    emit_reports(records, tmp_path, timeout_seconds=60)
    rows = _read(tmp_path / "results.csv")
    assert rows[0][3:5] == ["status", "value"]
    by_cell = {tuple(row[:3]): row[3:5] for row in rows[1:]}
    assert by_cell[("cap10", "hitting-set", "naive")] == ["cap", "cap"]
    assert by_cell[("cap10", "hitting-set", "sat-binary")][0] == "ok"
    summary = {tuple(row[:2]): row[2:5] for row in _read(tmp_path / "summary.csv")[1:]}
    assert summary[("hitting-set", "naive")] == ["2", "1", "0"]


def test_agreement_ignores_cells_that_did_not_run():
    records = [
        BenchRecord("kb", "hitting-set", "sat-binary", 1, 0.1, {}, 1),
        BenchRecord("kb", "hitting-set", "naive", None, 0.0, {}, 0, "cap"),
    ]
    _check_agreement(records)  # no exception
    assert not records[1].timed_out and not records[1].solved


def test_run_matrix_records_backend_errors(k4, tmp_path):
    garbled = tmp_path / "garbledsat"
    garbled.write_text("#!/bin/sh\necho hello\n")
    garbled.chmod(0o755)
    records = run_matrix(
        [("k4", k4)], ["contension"], ["sat-binary", "asp"], 60,
        cfg=RunConfig(asp_solver=str(tmp_path / "no-such-clingo")),
    )
    assert {r.method: r.status for r in records} == {"sat-binary": "ok", "asp": "backend-error"}
    external = RunConfig(backend=BackendConfig(kind="external", solver_path=str(garbled)))
    records = run_matrix([("k4", k4)], ["contension"], ["sat-linear", "naive"], 60, cfg=external)
    assert {r.method: r.status for r in records} == {"sat-linear": "backend-error", "naive": "ok"}
    assert not records[0].solved and not records[0].timed_out


def test_timeout_rows_carry_the_remaining_bounds(k7, sleepy_solver, tmp_path):
    backend = BackendConfig(kind="external", solver_path=sleepy_solver, timeout=0.5)
    records = run_matrix(
        [("k7", k7)], ["hit-distance"], ["sat-binary", "naive"], 0.5,
        cfg=RunConfig(backend=backend),
    )
    by_method = {r.method: r for r in records}
    assert by_method["sat-binary"].status == "timeout"
    assert by_method["sat-binary"].bounds == (0, 3)  # the first probe never answered
    assert by_method["naive"].status == "ok" and by_method["naive"].bounds is None
    emit_reports(records, tmp_path, timeout_seconds=0.5)
    rows = _read(tmp_path / "results.csv")
    assert rows[0][-2:] == ["bounds_lo", "bounds_hi"]
    by_row = {row[2]: row[-2:] for row in rows[1:]}
    assert by_row == {"sat-binary": ["0", "3"], "naive": ["", ""]}


def test_result_rows_carry_the_engine_counters(k7, tmp_path):
    """The engine counter columns are the outcome's sums over the cell's SAT
    calls; a cell without an outcome writes 0."""
    over_cap = parse_kb("\n".join(f"x{i} && !x{(i + 1) % 10}" for i in range(10)))
    records = run_matrix(
        [("k7", k7), ("cap10", over_cap)], ["contension", "hitting-set"],
        ["sat-binary", "maxsat", "naive"], 60,
    )
    emit_reports(records, tmp_path, timeout_seconds=60)
    rows = _read(tmp_path / "results.csv")
    columns = rows[0].index("decisions")
    assert rows[0][columns:] == [*ENGINE_COUNTERS, "bounds_lo", "bounds_hi"]
    by_cell = {tuple(row[:3]): [int(x) for x in row[columns:-2]] for row in rows[1:]}
    for method in ("sat-binary", "maxsat"):
        counters = compute("contension", k7, method).engine_counters
        assert counters["propagations"] > 0
        assert by_cell[("k7", "contension", method)] == [counters[n] for n in ENGINE_COUNTERS]
    cap = next(row for row in rows if row[:4] == ["cap10", "hitting-set", "naive", "cap"])
    assert [int(x) for x in cap[columns:-2]] == [0] * len(ENGINE_COUNTERS)


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_emit_reports_empty_records(tmp_path):
    written = emit_reports([], tmp_path)
    rows = _read(tmp_path / "results.csv")
    assert len(rows) == 1  # header only
    assert _read(tmp_path / "summary.csv") == [
        ["measure", "method", "instances", "solved", "timeouts", "cumulative_seconds"]
    ]
    assert all(Path(p).exists() for p in written)


def test_emit_reports_counts_timeouts(tmp_path):
    records = [
        BenchRecord("a", "contension", "sat-binary", 1, 0.5, {}, 2),
        BenchRecord("b", "contension", "sat-binary", None, 9.0, {}, 1),
        BenchRecord("c", "contension", "sat-binary", None, 9.0, {}, 1),
        BenchRecord("d", "contension", "sat-binary", 0, 0.25, {}, 1),
        BenchRecord("e", "contension", "sat-binary", 2, 0.75, {}, 3),
    ]
    emit_reports(records, tmp_path, timeout_seconds=9.0)
    summary = _read(tmp_path / "summary.csv")
    assert summary[1] == ["contension", "sat-binary", "5", "3", "2", "1.500000"]


def test_cactus_sorted_and_excludes_timeouts(tmp_path):
    records = [
        BenchRecord("a", "contension", "naive", 1, 0.9, {}, 1),
        BenchRecord("b", "contension", "naive", 0, 0.1, {}, 1),
        BenchRecord("c", "contension", "naive", None, 5.0, {}, 1),
        BenchRecord("d", "contension", "naive", 1, 0.4, {}, 1),
    ]
    emit_reports(records, tmp_path, timeout_seconds=5.0)
    rows = _read(tmp_path / "cactus_contension_naive.csv")[1:]
    seconds = [float(r[1]) for r in rows]
    assert len(rows) == 3
    assert seconds == sorted(seconds)


def test_scatter_pins_timeouts(tmp_path):
    records = [
        BenchRecord("a", "contension", "naive", 1, 0.9, {}, 1),
        BenchRecord("a", "contension", "sat-binary", None, 33.0, {}, 1),
    ]
    emit_reports(records, tmp_path, timeout_seconds=10.0)
    rows = _read(tmp_path / "scatter_contension_naive_vs_sat-binary.csv")
    assert rows[0] == ["kb_id", "naive_seconds", "sat-binary_seconds"]
    assert rows[1] == ["a", "0.900000", "10.000000"]


def test_matrix_records_carry_phase_times(k4):
    records = run_matrix([("k4", k4)], ["contension"], ["sat-binary"], 60)
    rec = records[0]
    assert set(rec.phase_times) == {"encoding", "cnfTransform", "solving", "other"}
    assert rec.solver_calls >= 1
