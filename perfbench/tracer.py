"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces the module functions the SAT pipelines call with thin
wrappers that open a span, call the original and close the span; ``remove``
puts the originals back.  Layers are incmeter's modules, and a span is named
after its layer and the call it wraps:

* ``search.cell``: one cell, opened by the benchmark around ``search.compute``;
* ``search.range``: ``search.search_range``;
* ``kb.prepare``: ``encodings.prepare_kb``;
* ``encodings.encode``: ``encodings.encode`` and
  ``encodings.encode_contension_maxsat``;
* ``cardinality.at_most``: ``cardinality.at_most``;
* ``cnf.tseitin``: one child span per encoding, as long as its
  ``cnf_transform_seconds``;
* ``solver.solve``: ``solver.solve`` and ``search.solve`` (the same function);
* ``solver.maxsat``: ``search.solve_maxsat``, whose SAT calls are nested
  ``solver.solve`` spans.

Tseitin time is read from ``SatEncoding.cnf_transform_seconds`` instead of a
span per ``tseitin_append`` call: an encoding makes hundreds to thousands of
those calls, and a span for each would cost more than the smaller ones
take.  The calls are still counted.

The asp pipeline needs an external ASP solver and is not run; bench and
cli are bypassed, since cells call ``search.compute`` directly.  The
oracles, the correctness reference, are timed apart from every cell.

A span's self time is its duration minus the durations of its child spans;
spans of one thread never overlap, so the self times of every layer add up
to the duration of the ``search.cell`` spans.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

# Rule tags whose clauses depend on the searched bound.  Every other rule of
# a SAT encoding is the same at every bound, except for hitting-set, where
# the block count is the bound and every rule is rebuilt per block.
BOUND_TAGS = frozenset({"SC17", "SF5", "SDM7", "SDS7", "SDH4"})

LAYERS = ("search", "kb", "encodings", "cardinality", "cnf", "solver")

# Span fields: name, start, end, parent index, cell index, child seconds.
NAME, START, END, PARENT, CELL, CHILD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_seconds: list[float] = []
        self.cell: int | None = None
        self._stack: list[int] = []
        self._probed: set[int] = set()  # cells that have encoded a probe
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.cell, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[END] = perf_counter()
        self._stack.pop()
        duration = span[END] - span[START]
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += duration
        return duration

    def _derived_child(self, name: str, parent: int, seconds: float) -> None:
        """A child span whose length was measured inside the program."""
        start = self.spans[parent][START]
        self.spans.append([name, start, start + seconds, parent, self.cell, 0.0])
        self.spans[parent][CHILD] += seconds

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before else None
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(idx, args, result, token)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _count(self, owner, attr: str, key: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def install(self, lib) -> None:
        """Wrap the pipeline functions of the loaded incmeter modules."""
        self._wrap(lib.search, "search_range", "search.range")
        self._wrap(lib.encodings, "prepare_kb", "kb.prepare")
        self._wrap(lib.encodings, "encode", "encodings.encode", after=self._after_encode)
        self._wrap(lib.encodings, "encode_contension_maxsat", "encodings.encode",
                   after=self._after_encode_maxsat)
        self._wrap(lib.cardinality, "at_most", "cardinality.at_most",
                   before=lambda args: len(args[2]), after=self._after_at_most)
        self._count(lib.encodings, "tseitin_append", "cnf.tseitin_calls")
        self._wrap(lib.solver, "solve", "solver.solve", after=self._after_solve)
        self._wrap(lib.search, "solve", "solver.solve", after=self._after_solve)
        self._wrap(lib.search, "solve_maxsat", "solver.maxsat")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counts ------------------------------------------------------------

    def _after_encode(self, idx, args, enc, _token) -> None:
        self._derived_child("cnf.tseitin", idx, enc.cnf_transform_seconds)
        c = self.counts
        c["encodings.calls"] += 1
        c["search.probes"] += 1
        c["encodings.vars"] += enc.cnf.num_vars
        c["encodings.clauses"] += len(enc.cnf.clauses)
        if self.cell in self._probed and enc.measure != "hitting-set":
            c["encodings.reencoded_clauses"] += sum(
                end - start for tag, start, end in enc.rule_spans if tag not in BOUND_TAGS
            )
        self._probed.add(self.cell)

    def _after_encode_maxsat(self, idx, args, inst, _token) -> None:
        self._derived_child("cnf.tseitin", idx, inst.cnf_transform_seconds)
        c = self.counts
        c["encodings.calls"] += 1
        c["encodings.vars"] += inst.hard.num_vars
        c["encodings.clauses"] += len(inst.hard.clauses)

    def _after_at_most(self, idx, args, clauses, vars_before) -> None:
        c = self.counts
        c["cardinality.calls"] += 1
        c["cardinality.aux_vars"] += len(args[2]) - vars_before
        c["cardinality.clauses"] += len(clauses)

    def _after_solve(self, idx, args, result, _token) -> None:
        span = self.spans[idx]
        self.solve_seconds.append(span[END] - span[START])
        c = self.counts
        c["solver.calls"] += 1
        c["solver." + result.status.value] += 1
        c["solver.clauses_loaded"] += len(args[0].clauses)
        parent = span[PARENT]
        if parent is not None and self.spans[parent][NAME] == "solver.maxsat":
            c["search.probes"] += 1

    # -- report ------------------------------------------------------------

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer: span durations minus their child spans."""
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            out[span[NAME].split(".", 1)[0]] += span[END] - span[START] - span[CHILD]
        return out

    def layer_metrics(self, cells: int) -> dict[str, float]:
        """Per-layer metric values of everything recorded so far."""
        layer_s = self.layer_seconds()
        c = self.counts
        calls = self.solve_seconds or [0.0]
        probes = c["search.probes"]
        return {
            "solver.solve_s": layer_s["solver"],
            "solver.calls": c["solver.calls"],
            "solver.sat": c["solver.sat"],
            "solver.unsat": c["solver.unsat"],
            "solver.timeouts": c["solver.timeout"],
            "solver.call_p50_s": statistics.median(calls),
            "solver.call_max_s": max(calls),
            "solver.clauses_loaded": c["solver.clauses_loaded"],
            "cardinality.at_most_s": layer_s["cardinality"],
            "cardinality.calls": c["cardinality.calls"],
            "cardinality.aux_vars": c["cardinality.aux_vars"],
            "cardinality.clauses": c["cardinality.clauses"],
            "cnf.tseitin_s": layer_s["cnf"],
            "cnf.tseitin_calls": c["cnf.tseitin_calls"],
            "encodings.self_s": layer_s["encodings"],
            "encodings.calls": c["encodings.calls"],
            "encodings.vars": c["encodings.vars"],
            "encodings.clauses": c["encodings.clauses"],
            "encodings.reencoded_frac": (
                c["encodings.reencoded_clauses"] / c["encodings.clauses"]
                if c["encodings.clauses"] else 0.0
            ),
            "search.probes": probes,
            "search.probes_per_cell": probes / cells if cells else 0.0,
            "search.self_s": layer_s["search"],
            "search.range_s": sum(
                s[END] - s[START] for s in self.spans if s[NAME] == "search.range"
            ),
            "kb.prepare_calls": sum(1 for s in self.spans if s[NAME] == "kb.prepare"),
            "kb.prepare_s": layer_s["kb"],
        }
