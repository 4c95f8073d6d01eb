"""Satisfiability backends and the text formats spoken with external tools.

* :func:`solve` — complete SAT decision under assumptions with model
  extraction, either via the built-in CDCL engine, which stays with an
  append-only instance between calls, or an external DIMACS solver run as a
  subprocess, which gets the assumptions as unit clauses.
* :func:`emit_dimacs` / :func:`emit_wcnf` / :func:`parse_solver_output` —
  the text formats, WCNF for a :class:`MaxSatInstance`, whose search is
  ``search.solve_maxsat``.

Returned models are always verified against the clause set and the
assumptions before being surfaced.
"""

from __future__ import annotations

import heapq
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .cnf import CnfInstance


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass
class SolverResult:
    status: SolveStatus
    model: dict[int, bool] | None = None
    # UNSAT whatever the assumptions: the clauses alone have no model
    refuted: bool = False
    # the internal engine's work in this call (0 from an external solver)
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is SolveStatus.SAT


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "internal"  # "internal" | "external"
    solver_path: str | None = None
    timeout: float = 600.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class BackendUnavailableError(RuntimeError):
    """An external solver was requested but cannot be run."""


class SolverOutputError(RuntimeError):
    """External solver output could not be interpreted."""


class HardClausesUnsatisfiableError(RuntimeError):
    """The hard part of a MaxSAT instance has no model."""


SAT_SOLVER_ENV = "INCMETER_SAT_SOLVER"


# ---------------------------------------------------------------------------
# Internal CDCL engine


class _Cdcl:
    """Small incremental conflict-driven clause-learning solver.

    Two watched literals, 1UIP learning, geometric restarts, phase saving
    with a false-first default (cardinality registers stay low), and a
    deterministic max-activity decision rule (ties broken by variable index).

    The engine outlives one call: clauses and variables may be added between
    calls, and each call decides the clauses under a list of assumption
    literals, taken as the first decisions (MiniSat's scheme, Eén & Sörensson,
    SAT 2003).  Learned clauses, level-0 facts, activities and saved phases
    carry over, since none of them depends on the assumptions.  A conflict
    at level 0 refutes the clauses themselves, and every later call answers
    UNSAT at once.

    Truth values and watch lists are indexed by literal: entry ``v`` holds
    literal v and entry ``-v`` (read from the end of the list) literal -v,
    so ``assign[v]`` is also variable v's value.
    """

    CHECK_EVERY = 2048  # ticks (propagated literals, decisions, loaded clauses)

    def __init__(self) -> None:
        self.n = 0
        self.assign = [0]  # by literal: 0 free, 1 true, -1 false
        self.watches: list[list[list[int]]] = [[]]  # by literal: clauses to visit once it is true
        self.level = [0]
        self.reason: list[list[int] | None] = [None]
        self.saved = [False]
        self.activity = [0.0]
        self.act_inc = 1.0
        # scratch marks, all zero between uses: 1 per variable in _analyze,
        # the sign of the literal taken (1 or 2) in load
        self.seen = bytearray(1)
        # Decision order: a lazy heap of (-activity, var) holding every free
        # variable of positive activity (stale keys and assigned variables
        # are skipped when popped), plus a cursor below which no free variable
        # has zero activity.  Zero-activity variables stay out of the heap.
        self.heap: list[tuple[float, int]] = []
        self.in_heap = bytearray(1)  # an entry with the current key is queued
        self.bumped: list[int] = []  # variables of positive activity
        self.cursor = 1
        self.trail: list[int] = []
        self.qhead = 0
        self.loaded = 0  # clauses of the instance added so far
        self.deadline: float | None = None
        self.ok = True  # False once the clauses are refuted
        self.ticks = 0
        # work of the current call
        self.decisions = self.propagations = self.conflicts = self.restarts = 0

    def _tick(self) -> None:
        """Count one unit of work; past the deadline, end the call."""
        self.ticks += 1
        if self.deadline is not None and self.ticks % self.CHECK_EVERY == 0:
            if time.monotonic() > self.deadline:
                raise _DeadlineReached

    def _enqueue(self, lit: int, reason: list[int] | None, level: int) -> None:
        var = abs(lit)
        self.assign[lit] = 1
        self.assign[-lit] = -1
        self.level[var] = level
        self.reason[var] = reason
        self.trail.append(lit)

    def load(self, cnf: CnfInstance) -> None:
        """Add the variables and clauses appended to `cnf` since the last call."""
        extra = cnf.num_vars - self.n
        if extra > 0:
            # new literals go between the positive and the negative ends
            mid = self.n + 1
            self.assign[mid:mid] = [0] * (2 * extra)
            self.watches[mid:mid] = [[] for _ in range(2 * extra)]
            self.n = cnf.num_vars
            self.level += [0] * extra
            self.reason += [None] * extra
            self.saved += [False] * extra
            self.activity += [0.0] * extra
            self.seen += bytes(extra)
            self.in_heap += bytes(extra)
        # Each clause is simplified against the level-0 facts: repeated and
        # false literals dropped, satisfied or tautological clauses skipped,
        # a unit enqueued at level 0, an empty clause refuting the instance.
        clauses, end = cnf.clauses, len(cnf.clauses)
        assign, seen, watches = self.assign, self.seen, self.watches
        deadline, check = self.deadline, self.CHECK_EVERY
        ticks = self.ticks
        i = self.loaded if self.ok else end  # a refuted engine takes no more clauses
        while i < end:
            ticks += 1
            if deadline is not None and ticks % check == 0 and time.monotonic() > deadline:
                self.loaded, self.ticks = i, ticks - 1  # clause i neither loaded nor counted
                raise _DeadlineReached
            clause: list[int] = []
            skip = False
            for lit in clauses[i]:
                var, mark = (lit, 1) if lit > 0 else (-lit, 2)
                if seen[var]:
                    if seen[var] != mark:
                        skip = True  # tautology
                        break
                    continue
                val = assign[lit]
                if val > 0:
                    skip = True  # satisfied for good
                    break
                if val == 0:
                    seen[var] = mark
                    clause.append(lit)
            i += 1
            for lit in clause:
                seen[lit if lit > 0 else -lit] = 0
            if skip:
                continue
            if len(clause) > 1:
                watches[-clause[0]].append(clause)
                watches[-clause[1]].append(clause)
            elif clause:
                self._enqueue(clause[0], None, 0)
            else:
                self.ok = False
                break
        self.loaded, self.ticks = end, ticks

    def _propagate(self, level: int) -> list[int] | None:
        """Propagate the trail from the queue head; the conflicting clause,
        if one arises.  Each watch list is compacted in place."""
        assign, watches, trail = self.assign, self.watches, self.trail
        levels, reasons = self.level, self.reason
        deadline, check = self.deadline, self.CHECK_EVERY
        qhead = start = self.qhead
        ticks = self.ticks
        conflict = None
        while qhead < len(trail):
            ticks += 1
            if deadline is not None and ticks % check == 0 and time.monotonic() > deadline:
                self.qhead, self.ticks = qhead, ticks
                self.propagations += qhead - start
                raise _DeadlineReached
            lit = trail[qhead]
            qhead += 1
            ws = watches[lit]
            false_lit = -lit
            i = j = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                i += 1
                # Normalize: watched literals sit at positions 0 and 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0], clause[1] = first, false_lit
                val = assign[first]
                if val <= 0:
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if assign[other] >= 0:
                            clause[1], clause[k] = other, false_lit
                            watches[-other].append(clause)
                            break
                    else:  # no other literal to watch: unit or conflicting
                        ws[j] = clause
                        j += 1
                        if val < 0:
                            conflict = clause
                            break
                        assign[first] = 1
                        assign[-first] = -1
                        var = first if first > 0 else -first
                        levels[var] = level
                        reasons[var] = clause
                        trail.append(first)
                    continue
                ws[j] = clause
                j += 1
            del ws[j:i]
            if conflict is not None:
                break
        self.qhead, self.ticks = qhead, ticks
        self.propagations += qhead - start
        return conflict

    def _bump(self, var: int) -> None:
        activity = self.activity
        if activity[var] == 0.0:
            self.bumped.append(var)
        activity[var] += self.act_inc
        if activity[var] > 1e100:
            for v in self.bumped:
                activity[v] *= 1e-100
            self.act_inc *= 1e-100
            self._rebuild_heap()
        else:
            heapq.heappush(self.heap, (-activity[var], var))
            self.in_heap[var] = 1

    def _rebuild_heap(self) -> None:
        """Requeue every free variable of positive activity, dropping stale
        entries; a variable whose activity underflowed to zero goes back to
        the cursor's side."""
        activity, assign, in_heap = self.activity, self.assign, self.in_heap
        bumped = []
        for v in self.bumped:
            in_heap[v] = 0
            if activity[v] > 0.0:
                bumped.append(v)
            elif not assign[v] and v < self.cursor:
                self.cursor = v
        self.bumped = bumped
        self.heap = [(-activity[v], v) for v in bumped if not assign[v]]
        heapq.heapify(self.heap)
        for _, v in self.heap:
            in_heap[v] = 1

    def _analyze(self, conflict: list[int], level: int) -> tuple[list[int], int]:
        learned = [0]
        seen, levels, trail, reasons = self.seen, self.level, self.trail, self.reason
        counter = 0
        lit0 = 0
        reason = conflict
        idx = len(trail) - 1
        while True:
            for lit in reason:
                if lit == lit0:
                    continue  # the implied literal of its own reason clause
                var = abs(lit)
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if levels[var] >= level:
                        counter += 1
                    else:
                        learned.append(lit)
            while not seen[abs(trail[idx])]:
                idx -= 1
            lit0 = trail[idx]
            seen[abs(lit0)] = 0
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason = reasons[abs(lit0)] or []
        learned[0] = -lit0
        for lit in learned[1:]:
            seen[abs(lit)] = 0
        back_level = 0
        if len(learned) > 1:
            max_i = 1
            for i in range(2, len(learned)):
                if levels[abs(learned[i])] > levels[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            back_level = levels[abs(learned[1])]
        # Keep the compaction cost linear in the pushes that made the garbage.
        if len(self.heap) > 2 * len(self.bumped) + 1024:
            self._rebuild_heap()
        return learned, back_level

    def _backtrack(self, back_level: int) -> None:
        trail, level, assign = self.trail, self.level, self.assign
        activity, in_heap = self.activity, self.in_heap
        saved, reason, heap = self.saved, self.reason, self.heap
        while trail and level[abs(trail[-1])] > back_level:
            lit = trail.pop()
            var = abs(lit)
            saved[var] = lit > 0
            assign[lit] = assign[-lit] = 0
            reason[var] = None
            if activity[var] > 0.0:
                if not in_heap[var]:
                    heapq.heappush(heap, (-activity[var], var))
                    in_heap[var] = 1
            elif var < self.cursor:
                self.cursor = var
        self.qhead = min(self.qhead, len(trail))

    def _decide(self) -> int:
        """The free variable of highest activity, lowest index first; 0 if
        every variable is assigned."""
        self._tick()
        heap, activity, assign = self.heap, self.activity, self.assign
        while heap:
            key, var = heapq.heappop(heap)
            if -key != activity[var]:
                continue  # stale: the variable was bumped since
            self.in_heap[var] = 0
            if not assign[var]:
                return var
        var, n = self.cursor, self.n
        while var <= n and (assign[var] or activity[var] > 0.0):
            var += 1
        self.cursor = var
        return var if var <= n else 0

    def solve(self, assumptions: Sequence[int] = ()) -> SolverResult:
        self.decisions = self.propagations = self.conflicts = self.restarts = 0
        try:
            result = self._search(assumptions)
        except _DeadlineReached:
            result = SolverResult(SolveStatus.TIMEOUT)
        finally:
            self._backtrack(0)
        result.decisions, result.propagations = self.decisions, self.propagations
        result.conflicts, result.restarts = self.conflicts, self.restarts
        return result

    def _search(self, assumptions: Sequence[int]) -> SolverResult:
        refuted = SolverResult(SolveStatus.UNSAT, refuted=True)
        if not self.ok:
            return refuted
        assign, saved = self.assign, self.saved
        propagate, decide, enqueue = self._propagate, self._decide, self._enqueue
        level = 0
        conflicts_until_restart = 128
        while True:
            conflict = propagate(level)
            if conflict is not None:
                self.conflicts += 1
                if level == 0:
                    self.ok = False
                    return refuted
                learned, back_level = self._analyze(conflict, level)
                self._backtrack(back_level)
                level = back_level
                if len(learned) == 1:
                    enqueue(learned[0], None, 0)
                else:
                    self.watches[-learned[0]].append(learned)
                    self.watches[-learned[1]].append(learned)
                    enqueue(learned[0], learned, level)
                self.act_inc *= 1.05
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0 and level > 0:
                    conflicts_until_restart = 128
                    self.restarts += 1
                    self._backtrack(0)
                    level = 0
                continue
            # Assumption i is the decision of level i + 1; one that already
            # holds opens an empty level, one that is false ends the call.
            lit = 0
            while not lit and level < len(assumptions):
                val = assign[assumptions[level]]
                if val < 0:
                    return SolverResult(SolveStatus.UNSAT)
                lit = assumptions[level] if val == 0 else 0
                level += 1
            if not lit:
                var = decide()
                if var == 0:
                    model = {v: assign[v] > 0 for v in range(1, self.n + 1)}
                    return SolverResult(SolveStatus.SAT, model)
                self.decisions += 1
                level += 1
                lit = var if saved[var] else -var
            enqueue(lit, None, level)


class _DeadlineReached(Exception):
    pass


def _verify_model(
    cnf: CnfInstance, model: dict[int, bool], assumptions: Sequence[int] = ()
) -> None:
    true_lits = {v if value else -v for v, value in model.items()}
    for clause in cnf.clauses:
        if true_lits.isdisjoint(clause):
            raise AssertionError(f"model does not satisfy clause {clause}")
    for lit in assumptions:
        if lit not in true_lits:
            raise AssertionError(f"model violates assumption {lit}")


def solve_internal(
    cnf: CnfInstance,
    deadline: float | None = None,
    assumptions: Sequence[int] = (),
) -> SolverResult:
    """Decide `cnf` under `assumptions` with the built-in engine.

    The engine is kept with the instance: a later call loads only the
    clauses appended since, and keeps what the engine learned.  Fully
    deterministic: no randomized choices, ties broken by variable index, so
    identical call sequences give identical models and work counts.
    """
    if cnf.engine is None:
        cnf.engine = _Cdcl()
    engine = cnf.engine
    engine.deadline = deadline
    try:
        engine.load(cnf)
    except _DeadlineReached:
        return SolverResult(SolveStatus.TIMEOUT)
    result = engine.solve(assumptions)
    if result.status is SolveStatus.SAT:
        assert result.model is not None
        _verify_model(cnf, result.model, assumptions)
    return result


# ---------------------------------------------------------------------------
# DIMACS text formats


def emit_dimacs(cnf: CnfInstance) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    num_vars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SolverOutputError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    return CnfInstance(num_vars, clauses)


@dataclass
class MaxSatInstance:
    """Hard clauses plus unit soft literals, each of weight 1."""

    hard: CnfInstance
    soft_units: list[int]
    # time spent clausifying the hard rules that embed KB formulas
    cnf_transform_seconds: float = 0.0


def emit_wcnf(hard: CnfInstance, soft_units: Sequence[int]) -> str:
    """Weighted DIMACS with unit soft clauses of weight 1."""
    top = len(soft_units) + 1
    lines = [f"p wcnf {hard.num_vars} {len(hard.clauses) + len(soft_units)} {top}"]
    for clause in hard.clauses:
        lines.append(f"{top} " + " ".join(str(lit) for lit in clause) + " 0")
    for lit in soft_units:
        lines.append(f"1 {lit} 0")
    return "\n".join(lines) + "\n"


def parse_solver_output(text: str, num_vars: int) -> SolverResult:
    """Interpret the s/v lines a DIMACS solver writes to standard output."""
    status: SolveStatus | None = None
    lits: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            verdict = line[2:].strip().upper()
            if verdict == "SATISFIABLE":
                status = SolveStatus.SAT
            elif verdict == "UNSATISFIABLE":
                status = SolveStatus.UNSAT
            elif verdict in ("UNKNOWN", "INDETERMINATE"):
                status = SolveStatus.TIMEOUT
            else:
                raise SolverOutputError(f"unrecognized status line: {line!r}")
        elif line.startswith("v ") or line == "v":
            lits.extend(int(tok) for tok in line[1:].split())
    if status is None:
        raise SolverOutputError("no status line in solver output")
    if status is not SolveStatus.SAT:
        return SolverResult(status)
    model = {v: False for v in range(1, num_vars + 1)}
    for lit in lits:
        if lit == 0:
            continue
        if abs(lit) <= num_vars:
            model[abs(lit)] = lit > 0
    return SolverResult(SolveStatus.SAT, model)


def _external_solver_path(cfg: BackendConfig) -> str:
    path = cfg.solver_path or os.environ.get(SAT_SOLVER_ENV)
    if not path:
        raise BackendUnavailableError(
            f"no external SAT solver configured (set {SAT_SOLVER_ENV})"
        )
    resolved = shutil.which(path) or (path if os.path.exists(path) else None)
    if resolved is None:
        raise BackendUnavailableError(f"SAT solver not found: {path!r}")
    return resolved


def solve_external(
    cnf: CnfInstance, cfg: BackendConfig, assumptions: Sequence[int] = ()
) -> SolverResult:
    """Run the configured DIMACS solver on `cnf` plus one unit clause per
    assumption."""
    path = _external_solver_path(cfg)
    units = [[lit] for lit in assumptions]
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cnf", prefix="incmeter_", delete=False
    ) as handle:
        handle.write(emit_dimacs(CnfInstance(cnf.num_vars, cnf.clauses + units)))
        cnf_path = handle.name
    try:
        try:
            proc = subprocess.run(
                [path, cnf_path],
                capture_output=True,
                text=True,
                timeout=cfg.timeout,
            )
        except subprocess.TimeoutExpired:
            return SolverResult(SolveStatus.TIMEOUT)
        except OSError as exc:
            raise BackendUnavailableError(f"failed to run {path!r}: {exc}") from exc
        try:
            result = parse_solver_output(proc.stdout, cnf.num_vars)
        except SolverOutputError:
            # Fall back on the conventional exit codes.
            if proc.returncode == 10:
                raise
            if proc.returncode == 20:
                result = SolverResult(SolveStatus.UNSAT)
            else:
                raise
        if result.status is SolveStatus.SAT:
            assert result.model is not None
            _verify_model(cnf, result.model, assumptions)
        result.refuted = result.status is SolveStatus.UNSAT and not units
        return result
    finally:
        os.unlink(cnf_path)


def solve(
    cnf: CnfInstance,
    cfg: BackendConfig | None = None,
    assumptions: Sequence[int] = (),
) -> SolverResult:
    """Complete SAT decision for `cnf` with every literal of `assumptions`
    true.  `cnf` is append-only: clauses may be added between calls, and the
    internal backend then loads only those."""
    if cfg is None:
        cfg = BackendConfig()
    if cfg.kind == "internal":
        deadline = time.monotonic() + cfg.timeout
        return solve_internal(cnf, deadline, assumptions)
    if cfg.kind == "external":
        return solve_external(cnf, cfg, assumptions)
    raise ValueError(f"unknown backend kind {cfg.kind!r}")
