"""incmeter benchmark: run one workload's cells and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sat-mix --seed 1 --seconds 20 --trace 0

A cell is one (KB, measure, method) triple run through
``incmeter.search.compute`` in this one process and thread, under the
workload's per-cell time limit (see ``workloads.py``), starting from a
collected heap.  A run sets the library up several times, then runs passes
over every cell of the workload: at least two, and more while the next one
is expected to end within ``--seconds``.  Untraced runs also run the quick
cells again between the cells of a pass (see ``Sweeper``).  Every value is
checked against the brute-force oracles where the KB is within their caps,
and against every other value for the same (KB, measure) in the run,
whichever method or pass gave it.  A cell run ends ``ok``, ``timeout`` (past
its limit), ``error`` (raised) or ``wrong``.

End-to-end metrics (``--trace 0``).  A cell's time is its fastest run:

* ``wall_s``: the sum of the cell times, the time to finish every cell.
* ``cell_p50_s``: the median cell time.
* ``cell_tail_s``: the highest whole percentile of cell times with at least
  ten cells beyond it; the percentile and cell count are printed above.
* ``solved_frac``: ``ok`` runs over runs in the passes, 1 - fail_frac.
* ``peak_rss_mb``: peak resident memory before the oracle checks run.
* ``setup_s``: median time to import incmeter afresh, generate the corpus
  and round-trip its KB text through ``kb.parse_kb``.

``--trace 1`` alternates untraced and traced passes and prints per-layer
metrics of the traced ones (medians over them, see ``tracer.py``), the
oracle time, the workload properties (``cells.inf_frac``,
``search.probes_per_cell``, ``encodings.reencoded_frac``), the statuses
(``cells.fail_frac``, ``cells.overshoot_s``) and the tracing overhead.
Cell runs and spans are written to ``perfbench/out``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed`` counts ``error`` and ``wrong`` runs.
The exit code is 0 only if there were none and the KB text round trip held.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Cell, Workload, base_corpus, cells, variant_texts  # noqa: E402

SETUP_REPEATS = 11
MIN_PASSES = 2  # with --trace 1, one untraced and one traced
QUICK_S = 0.25  # see Sweeper
SWEEP_SHARE = 0.25
TAIL_BEYOND = 10  # cells that must lie beyond the reported tail percentile
UNDEFINED = "undefined"  # value of a cell whose measure is undefined on its KB
MODULES = ("bench", "cardinality", "encodings", "kb", "oracles", "search", "solver")
STATUSES = ("ok", "timeout", "error", "wrong")


@dataclass
class CellResult:
    cell: Cell
    status: str  # one of STATUSES
    value: object  # a Value, UNDEFINED, or None when no value came back
    seconds: float
    detail: str = ""


@dataclass
class Run:
    plain: list[list[CellResult]] = field(default_factory=list)
    plain_walls: list[float] = field(default_factory=list)
    traced: list[list[CellResult]] = field(default_factory=list)
    tracers: list[Tracer] = field(default_factory=list)
    swept: list[CellResult] = field(default_factory=list)  # quick cells run again

    @property
    def passes(self) -> list[list[CellResult]]:
        return self.plain + self.traced

    @property
    def everything(self) -> list[list[CellResult]]:
        return self.passes + [self.swept]

    def count(self, status: str, passes=None) -> int:
        return sum(r.status == status for p in (passes or self.everything) for r in p)


# ---------------------------------------------------------------------------
# Set-up: import, corpus generation and the KB text round trip


def load(w: Workload, seed: int):
    """Import incmeter afresh and build the workload's KBs from their text."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "incmeter" or m.startswith("incmeter.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"incmeter.{m}") for m in MODULES})
    if not Path(lib.kb.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"incmeter loaded from {lib.kb.__file__}, not from {SRC}")
    texts = variant_texts(base_corpus(lib.bench, w), lib.kb, seed)
    kbs = {kb_id: lib.kb.parse_kb(text) for kb_id, text in texts}
    round_trip_ok = all(kbs[kb_id].to_text() == text for kb_id, text in texts)
    return lib, kbs, round_trip_ok


def timed_setup(w: Workload, seed: int):
    times = []
    for _ in range(SETUP_REPEATS):
        begin = perf_counter()
        loaded = load(w, seed)
        times.append(perf_counter() - begin)
    return loaded, statistics.median(times)


# ---------------------------------------------------------------------------
# Passes


def run_cell(lib, w: Workload, cell: Cell, kb, tracer: Tracer | None) -> CellResult:
    cfg = lib.search.RunConfig(backend=lib.solver.BackendConfig(timeout=w.limit_s))
    value, status, detail = None, "ok", ""
    span = None
    # Start from a collected heap, as a fresh `incmeter measure` would, so a
    # collection that an earlier cell's garbage made due is not timed here.
    gc.collect()
    if tracer is not None:
        tracer.cell = cell.index
        span = tracer.open("search.cell")
    begin = perf_counter()
    try:
        outcome = lib.search.compute(cell.measure, kb, cell.method, cfg)
    except lib.oracles.MeasureUndefinedError:
        value = UNDEFINED
    except Exception as exc:  # one failing cell never aborts the workload
        status, detail = "error", f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    else:
        value = outcome.value
        if outcome.timed_out:
            status = "timeout"
    seconds = perf_counter() - begin
    if span is not None:
        seconds = tracer.close(span)
    if status == "ok" and seconds > w.limit_s:
        status = "timeout"
    return CellResult(cell, status, value, seconds, detail)


class Sweeper:
    """Runs the quick cells again between the cells of untraced passes.

    Load from other processes on the machine comes in phases of a second or
    more.  A long cell spans several of them; a quick cell run once per pass
    may land in slow phases every time.  A cell is quick once it has ended
    ``ok`` within QUICK_S; the quick cells are all run again whenever
    enough time has gone by that the sweep adds at most SWEEP_SHARE to it.
    """

    def __init__(self, lib, w: Workload, kbs) -> None:
        self.lib, self.w, self.kbs = lib, w, kbs
        self.quick: dict[int, Cell] = {}
        self.quick_s = 0.0
        self.results: list[CellResult] = []
        self.last = perf_counter()

    def after(self, r: CellResult) -> None:
        if r.status == "ok" and r.seconds < QUICK_S and r.cell.index not in self.quick:
            self.quick[r.cell.index] = r.cell
            self.quick_s += r.seconds
        if self.quick and perf_counter() - self.last >= self.quick_s / SWEEP_SHARE:
            for c in self.quick.values():
                self.results.append(run_cell(self.lib, self.w, c, self.kbs[c.kb_id], None))
            self.last = perf_counter()


def run_pass(lib, w, order, kbs, tracer=None, sweeper=None):
    begin = perf_counter()
    results = []
    for cell in order:
        results.append(run_cell(lib, w, cell, kbs[cell.kb_id], tracer))
        if sweeper is not None:
            sweeper.after(results[-1])
    return perf_counter() - begin, results


def run_passes(lib, w: Workload, order, kbs, seconds: float, trace: bool) -> Run:
    """Untraced passes (alternating with traced ones if `trace`) until the
    next one would end past `seconds`, at least MIN_PASSES in all.  Only
    runs without tracing sweep quick cells, so that traced and untraced
    passes compare like for like."""
    run = Run()
    sweeper = None if trace else Sweeper(lib, w, kbs)
    begin = perf_counter()
    while True:
        if trace and len(run.traced) < len(run.plain):
            tracer = Tracer()
            tracer.install(lib)
            try:
                wall, results = run_pass(lib, w, order, kbs, tracer)
            finally:
                tracer.remove()
            run.tracers.append(tracer)
            run.traced.append(results)
        else:
            wall, results = run_pass(lib, w, order, kbs, None, sweeper)
            run.plain.append(results)
            run.plain_walls.append(wall)
        # Whole passes only: stop before one that would end past `seconds`.
        done = len(run.plain) + len(run.traced)
        if done >= MIN_PASSES and perf_counter() - begin + wall > seconds:
            if sweeper is not None:
                run.swept = sweeper.results
            return run


# ---------------------------------------------------------------------------
# Correctness gate


def _reference(lib, kb, measure):
    """The oracle's value, or None where the KB is beyond the oracle caps."""
    try:
        return lib.oracles.oracle_value(kb, measure)
    except lib.oracles.CapExceededError:
        return None
    except lib.oracles.MeasureUndefinedError:
        return UNDEFINED


def check_values(lib, kbs, passes: list[list[CellResult]]) -> tuple[float, int]:
    """Mark wrong values in place; returns oracle time and oracle-checked groups.

    A value is wrong if it differs from the oracle, or, where the KB is beyond
    the oracle caps, from another value for the same (KB, measure) in the run.
    """
    groups: dict[tuple[str, str], list[CellResult]] = {}
    for results in passes:
        for r in results:
            if r.value is not None:
                groups.setdefault((r.cell.kb_id, r.cell.measure), []).append(r)
    begin = perf_counter()
    refs = {key: _reference(lib, kbs[key[0]], key[1]) for key in sorted(groups)}
    oracle_s = perf_counter() - begin
    for key, group in groups.items():
        ref = refs[key]
        if ref is None:
            bad = group if len({r.value for r in group}) > 1 else []
        else:
            bad = [r for r in group if r.value != ref]
        for r in bad:
            r.status = "wrong"
            r.detail = f"value {r.value}, oracle {ref}"
    return oracle_s, sum(ref is not None for ref in refs.values())


# ---------------------------------------------------------------------------
# Metrics


def fastest_seconds(passes: list[list[CellResult]]) -> list[float]:
    """Each cell's fastest run: other processes only ever add time to it."""
    by_cell: dict[int, float] = {}
    for results in passes:
        for r in results:
            by_cell[r.cell.index] = min(r.seconds, by_cell.get(r.cell.index, math.inf))
    return list(by_cell.values())


def tail(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND cells beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return 0, min(times)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(times)[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(run: Run, w: Workload, oracle_s: float, inf_frac: float) -> tuple[dict, bool]:
    """Per-layer metrics (medians over traced passes) and whether the layer
    self times add up to the cell times in every traced pass."""
    per_pass = [t.layer_metrics(len(run.traced[0])) for t in run.tracers]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    accounted = True
    for tracer, results in zip(run.tracers, run.traced):
        cell_s = sum(r.seconds for r in results)
        layer_s = tracer.layer_seconds()
        if not math.isclose(cell_s, sum(layer_s.values()), rel_tol=1e-9, abs_tol=1e-6):
            print(f"  layer self times {sum(layer_s.values()):.6f} s "
                  f"do not add up to the cell time {cell_s:.6f} s")
            accounted = False
    print("  layer shares of traced cell time: " + ", ".join(
        f"{layer} {seconds / cell_s:.3f}" for layer, seconds in layer_s.items()))
    traced_wall = sum(fastest_seconds(run.traced))
    attempted = sum(len(p) for p in run.passes)
    ok = run.count("ok", run.passes)
    metrics.update({
        "oracles.check_s": oracle_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - sum(fastest_seconds(run.plain)),
        "cells.fail_frac": (attempted - ok) / attempted,
        "cells.overshoot_s": max(
            max(0.0, r.seconds - w.limit_s) for p in run.everything for r in p
        ),
        "cells.inf_frac": inf_frac,
    })
    return metrics, accounted


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_per_cell")):
        return "ratio"
    return "count"


def write_outputs(name: str, seed: int, run: Run) -> None:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}"
    with open(f"{stem}-cells.csv", "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(["pass", "kind", "cell", "kb_id", "measure", "method",
                      "status", "value", "seconds", "detail"])
        labels = ["untraced"] * len(run.plain) + ["traced"] * len(run.traced) + ["sweeps"]
        for i, (label, results) in enumerate(zip(labels, run.everything)):
            for r in results:
                c = r.cell
                out.writerow([i, label, c.index, c.kb_id, c.measure, c.method,
                              r.status, r.value, f"{r.seconds:.6f}", r.detail])
    if run.tracers:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for i, tracer in enumerate(run.tracers):
                for span_name, start, end, parent, cell, _child in tracer.spans:
                    handle.write(json.dumps({
                        "traced_pass": i, "name": span_name, "start": start,
                        "end": end, "parent": parent, "cell": cell,
                    }) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "incmeter" / "__init__.py").is_file():
        print(f"incmeter sources not found under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    (lib, kbs, round_trip_ok), setup_s = timed_setup(w, args.seed)
    order = cells(w, list(kbs), args.seed)
    run = run_passes(lib, w, order, kbs, args.seconds, bool(args.trace))
    rss = peak_rss_mb()
    oracle_s, oracle_groups = check_values(lib, kbs, run.everything)

    attempted = sum(len(p) for p in run.everything)
    failed = run.count("error") + run.count("wrong")
    correct = failed == 0 and round_trip_ok
    times = fastest_seconds(run.plain + [run.swept])
    in_passes = sum(len(p) for p in run.passes)
    pct, tail_s = tail(times)
    first = [r for r in run.plain[0] if r.status == "ok"]
    inf_frac = sum(r.value == math.inf for r in first) / len(first) if first else 0.0

    print(f"workload {w.name} seed {args.seed}: {len(order)} cells, "
          f"{len(run.plain)} untraced + {len(run.traced)} traced passes "
          f"+ {len(run.swept)} quick re-runs, limit {w.limit_s:g} s")
    print("  cell runs: " + ", ".join(f"{s} {run.count(s)}" for s in STATUSES)
          + f"; fail_frac {1 - run.count('ok', run.passes) / in_passes:.4f} in passes")
    print(f"  untraced pass walls: {', '.join(f'{t:.3f}' for t in run.plain_walls)} s")
    print(f"  cell_tail_s is the p{pct} of {len(times)} cells")
    print(f"  oracle-checked (KB, measure) groups: {oracle_groups}; "
          f"KB text round trip {'ok' if round_trip_ok else 'FAILED'}")
    for p in run.everything:
        for r in p:
            if r.status in ("error", "wrong"):
                print(f"  {r.status}: {r.cell} {r.detail}")

    if args.trace:
        metrics, accounted = per_layer(run, w, oracle_s, inf_frac)
        correct = correct and accounted
    else:
        metrics = {
            "wall_s": sum(times),
            "cell_p50_s": statistics.median(times),
            "cell_tail_s": tail_s,
            "solved_frac": run.count("ok", run.plain) / in_passes,
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
    write_outputs(w.name, args.seed, run)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
