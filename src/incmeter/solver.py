"""Satisfiability backends.

Three entry points:

* :func:`solve` — complete SAT decision with model extraction, either via the
  built-in CDCL engine or an external DIMACS solver run as a subprocess.
* :func:`solve_maxsat` — unweighted MaxSAT over unit soft clauses, by binary
  search on the number of violated softs with a cardinality constraint.
* :func:`emit_dimacs` / :func:`emit_wcnf` / :func:`parse_solver_output` —
  the text formats spoken with external tools.

Returned models are always verified against the clause set before being
surfaced.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .cardinality import CounterAllocator, at_most_sequential
from .cnf import CnfInstance


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass
class SolverResult:
    status: SolveStatus
    model: dict[int, bool] | None = None
    elapsed: float = 0.0

    @property
    def is_sat(self) -> bool:
        return self.status is SolveStatus.SAT


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "internal"  # "internal" | "external"
    solver_path: str | None = None
    solver_args: tuple[str, ...] = ()
    timeout: float = 600.0
    seed: int = 0

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
    """Small conflict-driven clause-learning solver.

    Two watched literals, 1UIP learning, geometric restarts, phase saving
    with a false-first default (cardinality registers stay low), and a
    deterministic max-activity decision rule (ties broken by variable index).
    """

    CHECK_EVERY = 2048  # propagations between deadline checks

    def __init__(self, num_vars: int, deadline: float | None):
        n = num_vars
        self.n = n
        self.assign = [0] * (n + 1)  # 0 free, 1 true, -1 false
        self.level = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.saved = [False] * (n + 1)
        self.activity = [0.0] * (n + 1)
        self.act_inc = 1.0
        self.watches: dict[int, list[list[int]]] = {}
        self.clauses: list[list[int]] = []
        self.trail: list[int] = []
        self.qhead = 0
        self.deadline = deadline
        self.ok = True
        self.ticks = 0

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: list[int] | None, level: int) -> None:
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = level
        self.reason[var] = reason
        self.trail.append(lit)

    def add_clause(self, lits: Sequence[int]) -> None:
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            lit = clause[0]
            val = self._value(lit)
            if val < 0:
                self.ok = False
            elif val == 0:
                self._enqueue(lit, None, 0)
            return
        self._attach(clause)

    def _attach(self, clause: list[int]) -> None:
        self.clauses.append(clause)
        for lit in clause[:2]:
            self.watches.setdefault(-lit, []).append(clause)

    def _propagate(self, level: int) -> list[int] | None:
        while self.qhead < len(self.trail):
            self.ticks += 1
            if self.deadline is not None and self.ticks % self.CHECK_EVERY == 0:
                if time.monotonic() > self.deadline:
                    raise _DeadlineReached
            lit = self.trail[self.qhead]
            self.qhead += 1
            watch_list = self.watches.get(lit)
            if not watch_list:
                continue
            kept = []
            i = 0
            while i < len(watch_list):
                clause = watch_list[i]
                i += 1
                # Normalize: watched literals sit at positions 0 and 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) > 0:
                    kept.append(clause)
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) >= 0:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(-clause[1], []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if self._value(first) < 0:
                    kept.extend(watch_list[i:])
                    self.watches[lit] = kept
                    return clause
                self._enqueue(first, clause, level)
            self.watches[lit] = kept
        return None

    def _bump(self, var: int) -> None:
        self.activity[var] += self.act_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.n + 1):
                self.activity[v] *= 1e-100
            self.act_inc *= 1e-100

    def _analyze(self, conflict: list[int], level: int) -> tuple[list[int], int]:
        learned = [0]
        seen = [False] * (self.n + 1)
        counter = 0
        lit0 = 0
        reason = conflict
        idx = len(self.trail) - 1
        while True:
            for lit in reason:
                if lit == lit0:
                    continue  # the implied literal of its own reason clause
                var = abs(lit)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= level:
                        counter += 1
                    else:
                        learned.append(lit)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            lit0 = self.trail[idx]
            seen[abs(lit0)] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(lit0)] or []
        learned[0] = -lit0
        back_level = 0
        if len(learned) > 1:
            max_i = 1
            for i in range(2, len(learned)):
                if self.level[abs(learned[i])] > self.level[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            back_level = self.level[abs(learned[1])]
        return learned, back_level

    def _backtrack(self, back_level: int) -> None:
        while self.trail and self.level[abs(self.trail[-1])] > back_level:
            lit = self.trail.pop()
            var = abs(lit)
            self.saved[var] = lit > 0
            self.assign[var] = 0
            self.reason[var] = None
        self.qhead = len(self.trail)

    def _decide(self) -> int:
        best = 0
        best_act = -1.0
        activity = self.activity
        assign = self.assign
        for var in range(1, self.n + 1):
            if assign[var] == 0 and activity[var] > best_act:
                best_act = activity[var]
                best = var
        return best

    def solve(self) -> SolverResult:
        start = time.monotonic()
        try:
            return self._search()
        except _DeadlineReached:
            return SolverResult(SolveStatus.TIMEOUT, elapsed=time.monotonic() - start)

    def _search(self) -> SolverResult:
        if not self.ok:
            return SolverResult(SolveStatus.UNSAT)
        if self._propagate(0) is not None:
            return SolverResult(SolveStatus.UNSAT)
        level = 0
        conflicts_until_restart = 128
        while True:
            conflict = self._propagate(level)
            if conflict is not None:
                if level == 0:
                    return SolverResult(SolveStatus.UNSAT)
                learned, back_level = self._analyze(conflict, level)
                self._backtrack(back_level)
                level = back_level
                if len(learned) == 1:
                    self._enqueue(learned[0], None, 0)
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned, level)
                self.act_inc *= 1.05
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0 and level > 0:
                    conflicts_until_restart = 128
                    self._backtrack(0)
                    level = 0
                continue
            var = self._decide()
            if var == 0:
                model = {v: self.assign[v] > 0 for v in range(1, self.n + 1)}
                return SolverResult(SolveStatus.SAT, model)
            level += 1
            lit = var if self.saved[var] else -var
            self._enqueue(lit, None, level)


class _DeadlineReached(Exception):
    pass


def _verify_model(cnf: CnfInstance, model: dict[int, bool]) -> None:
    for clause in cnf.clauses:
        if not any(model[abs(lit)] == (lit > 0) for lit in clause):
            raise AssertionError(f"model does not satisfy clause {clause}")


def solve_internal(cnf: CnfInstance, deadline: float | None = None) -> SolverResult:
    """Decide `cnf` with the built-in engine.

    Fully deterministic: no randomized choices, ties broken by variable
    index, so identical inputs give identical models and work counts.
    """
    engine = _Cdcl(cnf.num_vars, deadline)
    for clause in cnf.clauses:
        if not engine.ok:
            break
        engine.add_clause(clause)
    result = engine.solve()
    if result.status is SolveStatus.SAT:
        assert result.model is not None
        _verify_model(cnf, result.model)
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


def solve_external(cnf: CnfInstance, cfg: BackendConfig) -> SolverResult:
    path = _external_solver_path(cfg)
    start = time.monotonic()
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cnf", prefix="incmeter_", delete=False
    ) as handle:
        handle.write(emit_dimacs(cnf))
        cnf_path = handle.name
    try:
        try:
            proc = subprocess.run(
                [path, *cfg.solver_args, cnf_path],
                capture_output=True,
                text=True,
                timeout=cfg.timeout,
            )
        except subprocess.TimeoutExpired:
            return SolverResult(SolveStatus.TIMEOUT, elapsed=time.monotonic() - start)
        except OSError as exc:
            raise BackendUnavailableError(f"failed to run {path!r}: {exc}") from exc
        try:
            result = parse_solver_output(proc.stdout, cnf.num_vars)
        except SolverOutputError:
            # Fall back on the conventional exit codes.
            if proc.returncode == 10:
                raise
            if proc.returncode == 20:
                return SolverResult(SolveStatus.UNSAT)
            raise
        if result.status is SolveStatus.SAT:
            assert result.model is not None
            _verify_model(cnf, result.model)
        result.elapsed = time.monotonic() - start
        return result
    finally:
        os.unlink(cnf_path)


def solve(cnf: CnfInstance, cfg: BackendConfig | None = None) -> SolverResult:
    """Complete SAT decision for a CNF instance."""
    if cfg is None:
        cfg = BackendConfig()
    if cfg.kind == "internal":
        deadline = time.monotonic() + cfg.timeout
        return solve_internal(cnf, deadline)
    if cfg.kind == "external":
        return solve_external(cnf, cfg)
    raise ValueError(f"unknown backend kind {cfg.kind!r}")


# ---------------------------------------------------------------------------
# MaxSAT


@dataclass
class MaxSatInstance:
    """Hard clauses plus unit soft literals, each of weight 1."""

    hard: CnfInstance
    soft_units: list[int]


def solve_maxsat(
    inst: MaxSatInstance,
    cfg: BackendConfig | None = None,
    stats: dict[str, int] | None = None,
) -> tuple[int, dict[int, bool]]:
    """Minimize the number of violated soft units.

    Iterative SAT: binary search on the violation budget k, each probe adding
    a sequential at-most-k constraint over the violation indicators.  When
    `stats` is given, the number of SAT calls is recorded under ``"calls"``.
    """
    if cfg is None:
        cfg = BackendConfig()
    if stats is None:
        stats = {}
    stats["calls"] = 0
    deadline = time.monotonic() + cfg.timeout

    base = solve(inst.hard, cfg)
    stats["calls"] += 1
    if base.status is SolveStatus.TIMEOUT:
        raise TimeoutError("MaxSAT hard-part check timed out")
    if base.status is SolveStatus.UNSAT:
        raise HardClausesUnsatisfiableError("hard clauses are unsatisfiable")
    assert base.model is not None

    num_vars = inst.hard.num_vars
    clauses = [list(c) for c in inst.hard.clauses]
    violation_vars: list[int] = []
    for lit in inst.soft_units:
        if lit < 0:
            violation_vars.append(-lit)
        else:
            num_vars += 1
            relax = num_vars
            clauses.append([lit, relax])
            violation_vars.append(relax)

    def violations(model: dict[int, bool]) -> int:
        return sum(
            1 for lit in inst.soft_units if model[abs(lit)] != (lit > 0)
        )

    best_model = base.model
    lo, hi = 0, violations(base.model)
    while lo < hi:
        mid = (lo + hi) // 2
        alloc = CounterAllocator(num_vars)
        card = at_most_sequential(mid, violation_vars, alloc)
        probe = CnfInstance(alloc.top, clauses + card)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("MaxSAT search timed out")
        probe_cfg = BackendConfig(
            cfg.kind, cfg.solver_path, cfg.solver_args, remaining, cfg.seed
        )
        result = solve(probe, probe_cfg)
        stats["calls"] += 1
        if result.status is SolveStatus.TIMEOUT:
            raise TimeoutError("MaxSAT search timed out")
        if result.status is SolveStatus.SAT:
            assert result.model is not None
            full_model = {v: result.model.get(v, False) for v in range(1, num_vars + 1)}
            best_model = full_model
            hi = min(mid, violations(full_model))
        else:
            lo = mid + 1
    model = {v: best_model.get(v, False) for v in range(1, inst.hard.num_vars + 1)}
    return lo, model
