"""Random KB generation, benchmark matrix runs, and CSV reporting.

Generation follows the syntactic random-sampling scheme: each formula is
grown top-down, choosing disjunction / conjunction / negation / atom with
probabilities (pd, pc, pn, 1 - pd - pc - pn), where the three connective
probabilities shrink by a discount factor at every recursion level so the
process terminates.  A corpus is reproducible from its seed.

``run_matrix`` executes every (kb, measure, method) cell under a hard
timeout, records a cell whose method cannot run on its KB, or whose external
solver fails, with a status instead of aborting, and cross-checks that all
methods that finished agree on the value;
``emit_reports`` writes the result, cactus, scatter, and summary CSV files.
"""

from __future__ import annotations

import csv
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .kb import And, Atom, Formula, KnowledgeBase, Not, Or
from .oracles import CapExceededError, MeasureUndefinedError
from .search import ENGINE_COUNTERS, PHASES, RunConfig, SearchOutcome, compute
from .solver import BackendConfig, BackendUnavailableError, SolverOutputError
from .values import Value, format_value


@dataclass(frozen=True)
class SrsParams:
    signature_size: int
    formulas_min: int
    formulas_max: int
    pd: float = 0.3
    pc: float = 0.3
    pn: float = 0.3
    discount: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("pd", "pc", "pn"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.pd + self.pc + self.pn > 1.0:
            raise ValueError("pd + pc + pn must not exceed 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if self.signature_size < 1:
            raise ValueError("signature_size must be positive")
        if not 1 <= self.formulas_min <= self.formulas_max:
            raise ValueError("formula count range must satisfy 1 <= lo <= hi")


def _random_formula(rng: random.Random, atoms: Sequence[str], params: SrsParams,
                    level: int) -> Formula:
    scale = params.discount**level
    roll = rng.random()
    pd = params.pd * scale
    pc = params.pc * scale
    pn = params.pn * scale
    if roll < pd:
        return Or(
            _random_formula(rng, atoms, params, level + 1),
            _random_formula(rng, atoms, params, level + 1),
        )
    if roll < pd + pc:
        return And(
            _random_formula(rng, atoms, params, level + 1),
            _random_formula(rng, atoms, params, level + 1),
        )
    if roll < pd + pc + pn:
        return Not(_random_formula(rng, atoms, params, level + 1))
    return Atom(rng.choice(atoms))


def generate_srs(params: SrsParams) -> KnowledgeBase:
    """One random KB; deterministic for a fixed parameter set."""
    rng = random.Random(params.seed)
    atoms = [f"x{i}" for i in range(params.signature_size)]
    count = rng.randint(params.formulas_min, params.formulas_max)
    return KnowledgeBase(
        tuple(_random_formula(rng, atoms, params, 0) for _ in range(count))
    )


def generate_corpus(params: SrsParams, count: int) -> list[tuple[str, KnowledgeBase]]:
    """`count` KBs with per-instance seeds derived from the base seed."""
    out = []
    for i in range(count):
        inst = SrsParams(
            params.signature_size, params.formulas_min, params.formulas_max,
            params.pd, params.pc, params.pn, params.discount, params.seed + i,
        )
        out.append((f"srs{i:04d}", generate_srs(inst)))
    return out


def write_corpus(params: SrsParams, count: int, out_dir: str | Path) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "params": asdict(params),
        "count": count,
        "instances": {},
    }
    names = []
    for i, (kb_id, kb) in enumerate(generate_corpus(params, count)):
        path = out / f"{kb_id}.kb"
        path.write_text(kb.to_text(), encoding="utf-8")
        manifest["instances"][kb_id] = {"seed": params.seed + i, "file": path.name}
        names.append(str(path))
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return names


# ---------------------------------------------------------------------------
# Matrix runs


@dataclass
class BenchRecord:
    kb_id: str
    measure: str
    method: str
    value: Value | None  # None iff the status is not "ok"
    total_seconds: float
    phase_times: dict[str, float]
    solver_calls: int
    # "ok" | "timeout" | "cap" (over an oracle cap) | "undefined" (measure
    # undefined on the KB) | "backend-error" (an external solver could not be
    # run or understood); left empty, it is "ok" or, without a value, "timeout"
    status: str = ""
    bounds: tuple[int, int] | None = None  # remaining search range on timeout
    # the internal engine's work summed over the cell's SAT calls; 0 without
    # an outcome ("cap", "undefined", "backend-error")
    engine_counters: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(ENGINE_COUNTERS, 0))

    def __post_init__(self) -> None:
        if not self.status:
            self.status = "ok" if self.value is not None else "timeout"

    @property
    def solved(self) -> bool:
        return self.status == "ok"

    @property
    def timed_out(self) -> bool:
        return self.status == "timeout"

    def value_text(self) -> str:
        return format_value(self.value) if self.solved else self.status


class ValueDisagreementError(RuntimeError):
    pass


def _record(kb_id: str, outcome: SearchOutcome, timeout: float) -> BenchRecord:
    timed_out = outcome.timed_out or outcome.total_seconds > timeout
    return BenchRecord(
        kb_id,
        outcome.measure,
        outcome.method,
        None if timed_out else outcome.value,
        outcome.total_seconds,
        dict(outcome.phase_times),
        outcome.solver_calls,
        "timeout" if timed_out else "ok",
        outcome.bounds if timed_out else None,
        dict(outcome.engine_counters),
    )


def run_matrix(
    kbs: Sequence[tuple[str, KnowledgeBase]],
    measures: Sequence[str],
    methods: Sequence[str],
    timeout_seconds: float = 600.0,
    workers: int = 1,
    cfg: RunConfig | None = None,
) -> list[BenchRecord]:
    """Run every (kb, measure, method) cell and verify value agreement."""
    if cfg is None:
        cfg = RunConfig(backend=BackendConfig(timeout=timeout_seconds))
    tasks = [
        (kb_id, kb, measure, method)
        for kb_id, kb in kbs
        for measure in measures
        for method in methods
        if not (method == "maxsat" and measure != "contension")
    ]

    def run(task) -> BenchRecord:
        kb_id, kb, measure, method = task
        begin = time.perf_counter()
        try:
            outcome = compute(measure, kb, method, cfg)
        except (CapExceededError, MeasureUndefinedError,
                BackendUnavailableError, SolverOutputError) as exc:
            status = ("cap" if isinstance(exc, CapExceededError)
                      else "undefined" if isinstance(exc, MeasureUndefinedError)
                      else "backend-error")
            elapsed = time.perf_counter() - begin
            return BenchRecord(kb_id, measure, method, None, elapsed, {}, 0, status)
        return _record(kb_id, outcome, timeout_seconds)

    if workers <= 1:
        records = [run(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, tasks))
    _check_agreement(records)
    return records


def _check_agreement(records: Iterable[BenchRecord]) -> None:
    by_cell: dict[tuple[str, str], dict[str, Value]] = {}
    for rec in records:
        if rec.solved:
            by_cell.setdefault((rec.kb_id, rec.measure), {})[rec.method] = rec.value
    mismatches = [
        (cell, values)
        for cell, values in by_cell.items()
        if len(set(values.values())) > 1
    ]
    if mismatches:
        lines = [
            f"{kb_id}/{measure}: " + ", ".join(f"{m}={format_value(v)}" for m, v in sorted(vals.items()))
            for (kb_id, measure), vals in mismatches
        ]
        raise ValueDisagreementError(
            "methods disagree on inconsistency values:\n" + "\n".join(lines)
        )


# ---------------------------------------------------------------------------
# CSV reports


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def emit_reports(
    records: Sequence[BenchRecord], out_dir: str | Path, timeout_seconds: float = 600.0
) -> list[str]:
    """Write results/cactus/scatter/summary CSV files; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    results = out / "results.csv"
    _write_csv(
        results,
        ["kb_id", "measure", "method", "status", "value", "total_seconds", "solver_calls"]
        + [f"{phase}_seconds" for phase in PHASES]
        + list(ENGINE_COUNTERS)
        + ["bounds_lo", "bounds_hi"],
        [
            [
                rec.kb_id,
                rec.measure,
                rec.method,
                rec.status,
                rec.value_text(),
                f"{rec.total_seconds:.6f}",
                rec.solver_calls,
            ]
            + [f"{rec.phase_times.get(phase, 0.0):.6f}" for phase in PHASES]
            + [rec.engine_counters[name] for name in ENGINE_COUNTERS]
            + list(rec.bounds or ("", ""))
            for rec in records
        ],
    )
    written.append(str(results))

    cells: dict[tuple[str, str], list[BenchRecord]] = {}
    for rec in records:
        cells.setdefault((rec.measure, rec.method), []).append(rec)

    for (measure, method), recs in sorted(cells.items()):
        solved = sorted(r.total_seconds for r in recs if r.solved)
        cactus = out / f"cactus_{measure}_{method}.csv"
        _write_csv(
            cactus,
            ["solved_instances", "seconds"],
            [[i + 1, f"{t:.6f}"] for i, t in enumerate(solved)],
        )
        written.append(str(cactus))

    by_measure: dict[str, dict[str, dict[str, BenchRecord]]] = {}
    for rec in records:
        by_measure.setdefault(rec.measure, {}).setdefault(rec.method, {})[
            rec.kb_id
        ] = rec
    for measure, methods_map in sorted(by_measure.items()):
        names = sorted(methods_map)
        for i, m1 in enumerate(names):
            for m2 in names[i + 1 :]:
                rows = []
                for kb_id in sorted(set(methods_map[m1]) & set(methods_map[m2])):
                    r1, r2 = methods_map[m1][kb_id], methods_map[m2][kb_id]
                    t1 = r1.total_seconds if r1.solved else timeout_seconds
                    t2 = r2.total_seconds if r2.solved else timeout_seconds
                    rows.append([kb_id, f"{t1:.6f}", f"{t2:.6f}"])
                scatter = out / f"scatter_{measure}_{m1}_vs_{m2}.csv"
                _write_csv(scatter, ["kb_id", f"{m1}_seconds", f"{m2}_seconds"], rows)
                written.append(str(scatter))

    summary = out / "summary.csv"
    _write_csv(
        summary,
        ["measure", "method", "instances", "solved", "timeouts", "cumulative_seconds"],
        [
            [
                measure,
                method,
                len(recs),
                sum(1 for r in recs if r.solved),
                sum(1 for r in recs if r.timed_out),
                f"{sum(r.total_seconds for r in recs if r.solved):.6f}",
            ]
            for (measure, method), recs in sorted(cells.items())
        ],
    )
    written.append(str(summary))
    return written
