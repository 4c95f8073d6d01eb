"""Workload definitions and seeded input generation for the benchmark.

A workload is an ``incmeter generate`` corpus (fixed generator parameters and
base seed), a list of (measure, method) pairs run on every KB of it, and a
per-cell time limit.  A cell is one (KB, measure, method) triple.

The run seed draws an isomorphic variant of the corpus: atoms are renamed by
a seeded permutation, the formulas of each KB are shuffled and the cells are
run in a seeded order.  Every measure is invariant under renaming atoms and
reordering formulas, so all seeds ask for the same values and the same
amount of search, while the variable order the encodings and the solver see
changes from seed to seed.  Fresh corpora per seed were rejected: in trial
runs one fresh solve-heavy KB took from 0.8 s to 9.9 s and one fresh
encode-heavy KB from under 0.1 s to 11.8 s, so with 6 to 8 KBs a workload's
run time would depend mostly on which KBs the seed drew.

The deadline workload's limit sits in the widest gap of its cell times:
its finishing cells take under 0.05 s and the others at least 0.19 s on a
2-CPU x86 machine.  At a 1 s limit, seven cells take 0.4 s to 1.3 s and
their status would change between runs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

ALL_MEASURES = (
    "contension", "forgetting", "hitting-set",
    "max-distance", "sum-distance", "hit-distance",
)
DISTANCE_FAMILY = ("sum-distance", "max-distance", "hitting-set", "forgetting")


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    atoms: int
    formulas: tuple[int, int]
    corpus_seed: int
    pairs: tuple[tuple[str, str], ...]  # (measure, method)
    limit_s: float
    why: str


def _pairs(measures, methods, extra=()) -> tuple[tuple[str, str], ...]:
    return tuple((m, meth) for m in measures for meth in methods) + tuple(extra)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sat-mix", 20, 6, (8, 14), 7,
            _pairs(ALL_MEASURES, ("sat-binary", "sat-linear"),
                   (("contension", "maxsat"),)),
            30.0,
            "20 small KBs, all six measures by binary and linear search plus "
            "maxsat: every SAT pipeline runs, and per-probe fixed costs weigh "
            "most",
        ),
        Workload(
            "solve-heavy", 6, 9, (12, 18), 11,
            _pairs(DISTANCE_FAMILY, ("sat-binary",)),
            60.0,
            "6 larger KBs, four measures by binary search: the CDCL engine "
            "takes nearly all of the run, so encoding changes are bypassed",
        ),
        Workload(
            "encode-heavy", 8, 10, (14, 20), 3,
            _pairs(DISTANCE_FAMILY, ("sat-linear",)),
            60.0,
            "8 larger KBs, four measures by linear search: every probe "
            "re-encodes and inf KBs probe the whole range, so encoding "
            "dominates and solver changes are bypassed",
        ),
        Workload(
            "deadline", 5, 12, (20, 30), 3,
            _pairs(("sum-distance", "hitting-set"), ("sat-binary", "sat-linear")),
            0.1,
            "5 medium KBs under a 0.1 s limit: 16 of 20 cells end on the "
            "deadline path, so time spent past the limit shows",
        ),
    )
}


@dataclass(frozen=True)
class Cell:
    index: int  # position in the workload's canonical (KB, pair) order
    kb_id: str
    measure: str
    method: str


def base_corpus(incmeter_bench, w: Workload):
    """The workload's corpus as ``incmeter generate`` would write it."""
    lo, hi = w.formulas
    params = incmeter_bench.SrsParams(w.atoms, lo, hi, seed=w.corpus_seed)
    return incmeter_bench.generate_corpus(params, w.count)


def variant_texts(corpus, kb_mod, seed: int) -> list[tuple[str, str]]:
    """KB texts of the seeded isomorphic variant of `corpus`."""
    rng = random.Random(seed)
    out = []
    for kb_id, kb in corpus:
        names = list(kb.signature())
        renamed = names[:]
        rng.shuffle(renamed)
        mapping = {old: kb_mod.Atom(new) for old, new in zip(names, renamed)}
        formulas = [kb_mod.substitute_atoms(f, mapping.__getitem__) for f in kb]
        rng.shuffle(formulas)
        out.append((kb_id, kb_mod.KnowledgeBase(tuple(formulas)).to_text()))
    return out


def cells(w: Workload, kb_ids: list[str], seed: int) -> list[Cell]:
    """Every cell of the workload, in the seeded run order."""
    ordered = [
        Cell(i, kb_id, measure, method)
        for i, (kb_id, (measure, method)) in enumerate(itertools.product(kb_ids, w.pairs))
    ]
    random.Random(seed).shuffle(ordered)
    return ordered
