"""Satisfiability backends and the text formats spoken with external tools.

* :func:`solve` — complete SAT decision under assumptions with model
  extraction, either via the built-in CDCL engine, which stays with an
  append-only instance between calls, or an external DIMACS solver run as a
  subprocess, which gets the assumptions as unit clauses.
* :func:`run_on_text` — the one bridge to an external solver binary, for
  SAT and ASP alike: the input goes through a temp file, the run is cut at
  the deadline.
* :func:`fixed_false` — which of some literals the internal engine has
  found false in every model of the clauses (an external solver: none).
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


# The longest limit, in seconds, that the external bridges can wait for:
# ``subprocess.run`` waits by ``poll``, which takes a C int of milliseconds
# (2**31 - 1 ms); from 2,147,484 s on it raises ``OverflowError``.
MAX_TIMEOUT = 2_147_483.0


@dataclass(frozen=True)
class BackendConfig:
    solver_path: str | None = None  # an external DIMACS solver; None: the internal engine
    timeout: float = 600.0

    def __post_init__(self) -> None:
        if not 0 < self.timeout <= MAX_TIMEOUT:  # nan fails both comparisons
            raise ValueError(
                f"timeout must be a finite positive number of at most {MAX_TIMEOUT:.0f} seconds")


class BackendUnavailableError(RuntimeError):
    """An external solver was requested but cannot be run."""


class SolverOutputError(RuntimeError):
    """External solver output could not be interpreted."""


class HardClausesUnsatisfiableError(RuntimeError):
    """The hard part of a MaxSAT instance has no model."""


# ---------------------------------------------------------------------------
# Internal CDCL engine


class _Cdcl:
    """Small incremental conflict-driven clause-learning solver.

    Two watched literals, 1UIP learning, a fixed restart interval (back to
    level 0 once a call has had 128 conflicts since its start or its last
    restart), phase saving with a false-first default (cardinality
    registers stay low), and a deterministic max-activity decision rule
    (ties broken by variable index).

    The engine outlives one call: clauses and variables may be added between
    calls, and each call decides the clauses under a list of assumption
    literals, taken as the first decisions (MiniSat's scheme, Eén & Sörensson,
    SAT 2003).  Learned clauses, level-0 facts, activities and saved phases
    carry over, since none of them depends on the assumptions.  A conflict
    at level 0 refutes the clauses themselves, and every later call answers
    UNSAT at once.

    Truth values and watch lists are indexed by literal: entry ``v`` holds
    literal v and entry ``-v`` (read from the end of the list) literal -v,
    so ``assign[v]`` is also variable v's value.  As in MiniSat, the trail
    index at which each level above 0 opened is kept, so a backtrack undoes
    one slice of the trail.  Loading takes a 2- or 3-literal clause of free,
    distinct variables as it stands, with no marks; every other clause is
    simplified against the level-0 facts first.  None of this enters the
    search: the same calls give the same decisions, propagations, conflicts,
    learned clauses, restarts and models.
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
        self.lim: list[int] = []  # lim[k]: the trail index where level k + 1 opened
        self.qhead = 0
        self.loaded = 0  # clauses of the instance added so far
        self.deadline: float | None = None
        self.ok = True  # False once the clauses are refuted
        self.ticks = 0
        # work of the current call
        self.decisions = self.propagations = self.conflicts = self.restarts = 0

    def _enqueue(self, lit: int, reason: list[int] | None, level: int) -> None:
        """Assign `lit` at `level`, opening that level, and any below it
        that is not open yet, at the end of the trail."""
        trail, lim = self.trail, self.lim
        while len(lim) < level:
            lim.append(len(trail))
        var = lit if lit > 0 else -lit
        self.assign[lit] = 1
        self.assign[-lit] = -1
        self.level[var] = level
        self.reason[var] = reason
        trail.append(lit)

    def load(self, cnf: CnfInstance) -> None:
        """Add the variables and clauses appended to `cnf` since the last call."""
        if self.loaded == len(cnf.clauses) and self.n == cnf.num_vars:
            return  # nothing appended
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
        # A clause of two or three free literals on distinct variables needs
        # none of that and is stored as it stands.
        clauses, end = cnf.clauses, len(cnf.clauses)
        assign, seen, watches = self.assign, self.seen, self.watches
        ticks = self.ticks
        check = self.CHECK_EVERY
        # the clock is read on every tick that is a multiple of CHECK_EVERY
        check_at = -1 if self.deadline is None else (ticks // check + 1) * check
        i = self.loaded if self.ok else end  # a refuted engine takes no more clauses
        while i < end:
            ticks += 1
            if ticks == check_at:
                if time.monotonic() > self.deadline:
                    self.loaded, self.ticks = i, ticks - 1  # clause i neither loaded nor counted
                    raise _DeadlineReached
                check_at += check
            clause = clauses[i]
            i += 1
            width = len(clause)
            if width == 2:
                a, b = clause
                if not assign[a] and not assign[b] and a != b and a != -b:
                    clause = [a, b]
                    watches[-a].append(clause)
                    watches[-b].append(clause)
                    continue
            elif width == 3:
                a, b, c = clause
                if (not assign[a] and not assign[b] and not assign[c]
                        and a != b and a != -b and a != c and a != -c and b != c and b != -c):
                    clause = [a, b, c]
                    watches[-a].append(clause)
                    watches[-b].append(clause)
                    continue
            kept: list[int] = []
            skip = False
            for lit in clause:
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
                    kept.append(lit)
            for lit in kept:
                seen[lit if lit > 0 else -lit] = 0
            if skip:
                continue
            if len(kept) > 1:
                watches[-kept[0]].append(kept)
                watches[-kept[1]].append(kept)
            elif kept:
                self._enqueue(kept[0], None, 0)
            else:
                self.ok = False
                break
        self.loaded, self.ticks = end, ticks

    def _propagate(self, level: int) -> list[int] | None:
        """Propagate the trail from the queue head; the conflicting clause,
        if one arises.  Each watch list is compacted in place."""
        assign, watches, trail = self.assign, self.watches, self.trail
        levels, reasons = self.level, self.reason
        qhead = start = self.qhead
        ticks = self.ticks
        base = ticks - start  # the ticks once the literals before qhead are propagated
        # The clock is read on every tick that is a multiple of CHECK_EVERY,
        # before propagating the literal that tick counts: at qhead == check_at.
        check = self.CHECK_EVERY
        check_at = -1 if self.deadline is None else (ticks // check + 1) * check - base - 1
        while qhead < len(trail):
            if qhead == check_at:
                if time.monotonic() > self.deadline:
                    self.qhead, self.ticks = qhead, base + qhead  # literal qhead not propagated
                    self.propagations += qhead - start
                    raise _DeadlineReached
                check_at += check
            lit = trail[qhead]
            qhead += 1
            ws = watches[lit]
            if not ws:
                continue
            false_lit = -lit
            j = moved = 0  # clauses kept, clauses moved to another watch list
            for clause in ws:
                # Normalize: watched literals sit at positions 0 and 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0], clause[1] = first, false_lit
                val = assign[first]
                if val > 0:
                    ws[j] = clause
                    j += 1
                    continue
                width = len(clause)
                if width > 2:
                    for k in range(2, width):
                        other = clause[k]
                        if assign[other] >= 0:
                            break
                    else:
                        k = 0  # every other literal is false
                    if k:
                        clause[1], clause[k] = other, false_lit
                        watches[-other].append(clause)
                        moved += 1
                        continue
                # no other literal to watch: unit or conflicting
                ws[j] = clause
                j += 1
                if val < 0:
                    break
                assign[first] = 1
                assign[-first] = -1
                var = first if first > 0 else -first
                levels[var] = level
                reasons[var] = clause
                trail.append(first)
            else:
                if moved:
                    del ws[j:]
                continue
            if moved:  # the clauses after the conflicting one stay
                del ws[j:j + moved]
            self.qhead, self.ticks = qhead, base + qhead
            self.propagations += qhead - start
            return clause
        self.qhead, self.ticks = qhead, base + qhead
        self.propagations += qhead - start
        return None

    def _bump(self, var: int) -> None:
        """Raise var's activity by the increment (the rule `_analyze` inlines)."""
        activity = self.activity
        if activity[var] == 0.0:
            self.bumped.append(var)
        activity[var] += self.act_inc
        if activity[var] > 1e100:
            self._rescale()
        else:
            heapq.heappush(self.heap, (-activity[var], var))
            self.in_heap[var] = 1

    def _rescale(self) -> None:
        activity = self.activity
        for v in self.bumped:
            activity[v] *= 1e-100
        self.act_inc *= 1e-100
        self._rebuild_heap()

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
        activity, heap, in_heap, bumped = self.activity, self.heap, self.in_heap, self.bumped
        inc = self.act_inc
        heappush = heapq.heappush
        counter = 0
        lit0 = 0
        reason = conflict
        idx = len(trail) - 1
        while True:
            for lit in reason:
                if lit == lit0:
                    continue  # the implied literal of its own reason clause
                var = lit if lit > 0 else -lit
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    # _bump, inlined
                    act = activity[var]
                    if act == 0.0:
                        bumped.append(var)
                    act += inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale()
                        heap, inc, bumped = self.heap, self.act_inc, self.bumped
                    else:
                        heappush(heap, (-act, var))
                        in_heap[var] = 1
                    if levels[var] >= level:
                        counter += 1
                    else:
                        learned.append(lit)
            lit0 = trail[idx]
            while not seen[lit0 if lit0 > 0 else -lit0]:
                idx -= 1
                lit0 = trail[idx]
            var = lit0 if lit0 > 0 else -lit0
            seen[var] = 0
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason = reasons[var] or []
        learned[0] = -lit0
        for lit in learned[1:]:
            seen[lit if lit > 0 else -lit] = 0
        back_level = 0
        if len(learned) > 1:
            lit = learned[1]
            max_i, back_level = 1, levels[lit if lit > 0 else -lit]
            for i in range(2, len(learned)):
                lit = learned[i]
                lit_level = levels[lit if lit > 0 else -lit]
                if lit_level > back_level:
                    max_i, back_level = i, lit_level
            learned[1], learned[max_i] = learned[max_i], learned[1]
        # Keep the compaction cost linear in the pushes that made the garbage.
        if len(heap) > 2 * len(bumped) + 1024:
            self._rebuild_heap()
        return learned, back_level

    def _backtrack(self, back_level: int) -> None:
        """Undo every level above `back_level`, last literal first."""
        lim = self.lim
        if len(lim) <= back_level:
            return
        start = lim[back_level]
        del lim[back_level:]
        trail, assign, saved, reason = self.trail, self.assign, self.saved, self.reason
        activity, in_heap, heap = self.activity, self.in_heap, self.heap
        cursor = self.cursor
        for lit in reversed(trail[start:]):
            if lit > 0:
                var = lit
                saved[var] = True
            else:
                var = -lit
                saved[var] = False
            assign[lit] = assign[-lit] = 0
            reason[var] = None
            act = activity[var]
            if act > 0.0:
                if not in_heap[var]:
                    heapq.heappush(heap, (-act, var))
                    in_heap[var] = 1
            elif var < cursor:
                cursor = var
        del trail[start:]
        self.cursor = cursor
        if self.qhead > start:
            self.qhead = start

    def _decide(self) -> int:
        """The free variable of highest activity, lowest index first; 0 if
        every variable is assigned.  Counts one tick; past the deadline,
        ends the call."""
        self.ticks += 1
        if (self.deadline is not None and self.ticks % self.CHECK_EVERY == 0
                and time.monotonic() > self.deadline):
            self.ticks -= 1  # the decision cut off is not made
            raise _DeadlineReached
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


def find_binary(path: str) -> str | None:
    """`path` as a command on PATH or as an existing file; None if neither."""
    return shutil.which(path) or (path if os.path.exists(path) else None)


def run_on_text(path: str, args: Sequence[str], text: str, suffix: str,
                deadline: float) -> subprocess.CompletedProcess | None:
    """Run the solver binary `path` as ``path *args FILE``, FILE a temp file
    holding `text`, for the time left until `deadline` (a
    ``time.monotonic()`` instant), and return the finished process.  None if
    no time is left or the run is cut at the deadline (the child is killed
    then).  Raises :class:`BackendUnavailableError` if the binary cannot be
    found or started."""
    binary = find_binary(path)
    if binary is None:
        raise BackendUnavailableError(f"solver not found: {path!r}")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    with tempfile.NamedTemporaryFile("w", suffix=suffix, prefix="incmeter_",
                                     delete=False) as handle:
        handle.write(text)
    try:
        return subprocess.run([binary, *args, handle.name], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    except OSError as exc:
        raise BackendUnavailableError(f"failed to run {binary!r}: {exc}") from exc
    finally:
        os.unlink(handle.name)


def solve_external(
    cnf: CnfInstance, cfg: BackendConfig, assumptions: Sequence[int], deadline: float
) -> SolverResult:
    """Run the configured DIMACS solver on `cnf` plus one unit clause per
    assumption, for the time left until `deadline`.  Without an ``s`` line,
    exit code 20 reads as UNSAT."""
    units = [[lit] for lit in assumptions]
    text = emit_dimacs(CnfInstance(cnf.num_vars, cnf.clauses + units))
    proc = run_on_text(cfg.solver_path, [], text, ".cnf", deadline)
    if proc is None:
        return SolverResult(SolveStatus.TIMEOUT)
    try:
        result = parse_solver_output(proc.stdout, cnf.num_vars)
    except SolverOutputError:
        if proc.returncode != 20:
            raise
        result = SolverResult(SolveStatus.UNSAT)
    if result.status is SolveStatus.SAT:
        assert result.model is not None
        _verify_model(cnf, result.model, assumptions)
    result.refuted = result.status is SolveStatus.UNSAT and not units
    return result


def solve(
    cnf: CnfInstance,
    cfg: BackendConfig | None = None,
    assumptions: Sequence[int] = (),
    deadline: float | None = None,
) -> SolverResult:
    """Complete SAT decision for `cnf` with every literal of `assumptions`
    true.  `cnf` is append-only: clauses may be added between calls, and the
    internal backend then loads only those.  The call ends by `deadline` (a
    ``time.monotonic()`` instant) if one is given, else within the
    configured timeout.  The backend is external iff a solver path is
    configured."""
    if cfg is None:
        cfg = BackendConfig()
    if deadline is None:
        deadline = time.monotonic() + cfg.timeout
    if cfg.solver_path is None:
        return solve_internal(cnf, deadline, assumptions)
    return solve_external(cnf, cfg, assumptions, deadline)


def fixed_false(cnf: CnfInstance, lits: Sequence[int]) -> list[int]:
    """The literals of `lits` that every model of `cnf`'s clauses makes
    false, as far as the solver has found: those the internal engine kept
    with `cnf` holds false at level 0.  An external solver keeps nothing
    between calls and answers none."""
    engine = cnf.engine
    if engine is None:
        return []
    assign, n = engine.assign, engine.n
    return [lit for lit in lits if abs(lit) <= n and assign[lit] < 0]
