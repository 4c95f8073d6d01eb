"""Value search: turning upper-bound queries into inconsistency values.

The binary search follows the published scheme step for step: probe the
midpoint of the remaining range, keep the bound on satisfiable, move up on
unsatisfiable, and fall back to infinity when the range is exhausted and the
measure admits it.  A linear variant probes 0, 1, 2, ... instead.  The
hitting-set measure searches over block counts internally (satisfiability of
the b-block instance certifies value <= b - 1), so both searches operate on
the plain value range [0, |K|-1].

Each search runs one :class:`_Session`: the KB is prepared once, the rules
every bound shares are encoded once, and each probe appends only what its
bound adds and is one SAT call under assumptions on the same instance, so
the internal engine keeps what it learned from one probe to the next.
One driver, :func:`_drive`, runs every search; a search differs only in the
rule that picks the next bound and in what a model is worth.  The maxsat
pipeline is the contension search under MaxSAT's rule: one unbounded probe,
then the upper midpoint, where a model is worth its count of b-assigned
atoms.  :func:`solve_maxsat` runs that rule on a standalone MaxSAT instance,
over its hard clauses and a counter of the violated soft units.

``compute`` is the one entry point: it dispatches a (measure, method) pair
to the right pipeline, answers an empty KB, and reports phase timings split
into encoding generation, CNF transformation, solving, and everything else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import asp as asp_mod
from . import encodings
from .cnf import CnfInstance, VarMap
from .kb import KnowledgeBase
from .oracles import MeasureUndefinedError, naive_measure
from .solver import (
    BackendConfig,
    HardClausesUnsatisfiableError,
    MaxSatInstance,
    SolveStatus,
    fixed_false,
    solve,
)
from .values import INF, INFINITY_MEASURES, MEASURES, Value

METHODS = ("sat-binary", "sat-linear", "maxsat", "naive", "asp")

PHASES = ("encoding", "cnfTransform", "solving", "other")

# the internal engine's work counts, summed over a search's SAT calls
ENGINE_COUNTERS = ("decisions", "propagations", "conflicts", "restarts")


@dataclass(frozen=True)
class SearchRange:
    measure: str
    min: int
    max: int
    infinity_possible: bool

    @property
    def size(self) -> int:
        return self.max - self.min + 1


def search_range(measure: str, kb: KnowledgeBase) -> SearchRange:
    """Value range to search, computed on the prepared KB."""
    pkb = encodings.prepared(kb)
    n_atoms = len(pkb.signature())
    n_formulas = len(pkb)
    if measure in ("contension", "max-distance"):
        top = n_atoms
    elif measure == "forgetting":
        top = len(pkb.occurrences())
    elif measure == "hitting-set":
        top = n_formulas - 1
    elif measure == "sum-distance":
        top = n_atoms * n_formulas
    elif measure == "hit-distance":
        top = n_formulas
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return SearchRange(measure, 0, top, measure in INFINITY_MEASURES)


@dataclass(frozen=True)
class RunConfig:
    backend: BackendConfig = field(default_factory=BackendConfig)
    asp_solver: str | None = None

    @property
    def timeout(self) -> float:
        return self.backend.timeout


@dataclass
class SearchOutcome:
    measure: str
    method: str
    value: Value | None
    solver_calls: int
    phase_times: dict[str, float]
    total_seconds: float
    status: str = "ok"  # "ok" | "timeout"
    bounds: tuple[int, int] | None = None  # remaining range on timeout
    engine_counters: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(ENGINE_COUNTERS, 0))

    @property
    def timed_out(self) -> bool:
        return self.status == "timeout"


class _PhaseClock:
    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.acc = {"encoding": 0.0, "cnfTransform": 0.0, "solving": 0.0}
        self.calls = 0  # solver calls that ran, timed-out ones included
        self.counters = dict.fromkeys(ENGINE_COUNTERS, 0)


class _Session:
    """One SAT session: an encoding built on the first probe and grown by each.

    ``build`` makes the bound-free encoding; each probe then appends what its
    bound adds and decides the grown instance under that bound's
    assumptions, or under none for an unbounded probe.  ``model`` is the last
    probe's model, if it had one.

    ``settled`` holds the assumptions under which every later probe is
    unsatisfiable, once a call has shown that there are some: ``[]`` when
    the clauses themselves are refuted, or one of the encoding's
    ``settling`` literals that the engine holds false at level 0 after an
    unsatisfiable probe.  A settled probe adds nothing and asks the same
    instance again, so it is still one solver call, and it fails at once.
    """

    def __init__(self, build: Callable[[], encodings.SatEncoding], backend: BackendConfig,
                 clock: _PhaseClock, deadline: float):
        self.build, self.backend, self.clock, self.deadline = build, backend, clock, deadline
        self.enc: encodings.SatEncoding | None = None
        self.settled: list[int] | None = None
        self.model: dict[int, bool] | None = None

    def probe(self, bound: int | None) -> bool | None:
        """One upper-bound query; None signals a timeout, before or in the solver."""
        clock = self.clock
        acc = clock.acc
        enc, assumptions = self.enc, self.settled
        begin = begin_solving = time.perf_counter()
        if assumptions is None:  # not settled: encode the bound (a settled probe adds nothing)
            tseitin_before = enc.cnf_transform_seconds if enc else 0.0
            if enc is None:
                enc = self.enc = self.build()
            assumptions = [] if bound is None else enc.assume(bound)
            tseitin = enc.cnf_transform_seconds - tseitin_before
            acc["cnfTransform"] += tseitin
            begin_solving = time.perf_counter()
            acc["encoding"] += begin_solving - begin - tseitin
        if time.monotonic() >= self.deadline:
            return None
        self.model = None  # not held while the next call runs
        result = solve(enc.cnf, self.backend, assumptions, self.deadline)
        acc["solving"] += time.perf_counter() - begin_solving
        clock.calls += 1
        counters = clock.counters
        counters["decisions"] += result.decisions
        counters["propagations"] += result.propagations
        counters["conflicts"] += result.conflicts
        counters["restarts"] += result.restarts
        if result.status is SolveStatus.TIMEOUT:
            return None
        if self.settled is None and result.status is SolveStatus.UNSAT:
            self.settled = [] if result.refuted else fixed_false(enc.cnf, enc.settling)[:1] or None
        self.model = result.model
        return result.status is SolveStatus.SAT


# A rule picks the next bound from the undecided range [lo, hi] and the
# least value a model has met so far (None before the first model); a
# valuation says what a model of the encoding found at a bound is worth.
# (A type alias naming SatEncoding would be evaluated at import and cached
# by `typing`, keeping every imported copy of the package alive.)
_Rule = Callable[[int, int, int | None], int | None]


def _bound_value(_enc: encodings.SatEncoding, bound: int | None,
                 _model: dict[int, bool]) -> int:
    """A satisfiable bound is itself the value it certifies."""
    return bound


def _count_value(enc: encodings.SatEncoding, _bound: int | None,
                 model: dict[int, bool]) -> int:
    """A model is worth its count of the literals the bound counts."""
    return enc.count(model)


_BINARY = (lambda lo, hi, _value: lo + (hi - lo) // 2, _bound_value)
_LINEAR = (lambda lo, _hi, _value: lo, _bound_value)
# one unbounded probe, then the upper midpoint of [lo, least count - 1]
_MAXSAT = (lambda lo, hi, value: None if value is None else lo + (hi - lo + 1) // 2, _count_value)


def _drive(session: _Session, lo: int, hi: int, next_bound: _Rule,
           value_of: Callable[[encodings.SatEncoding, int | None, dict[int, bool]], int],
           ) -> tuple[int | None, dict[int, bool] | None, tuple[int, int] | None]:
    """Probe `next_bound(lo, hi, value)` until the undecided range is empty.

    A model moves hi below its value, ``value_of(encoding, bound, model)``;
    an unsatisfiable probe moves lo above its bound, or past hi if
    unbounded.  Returns the least value a model met and that model (None if
    none did), and the undecided range if a probe timed out."""
    value = model = None
    while lo <= hi:
        bound = next_bound(lo, hi, value)
        verdict = session.probe(bound)
        if verdict is None:
            return value, model, (lo, hi)
        if verdict:
            model = session.model
            value = value_of(session.enc, bound, model)
            hi = value - 1
        else:
            lo = hi + 1 if bound is None else bound + 1
    return value, model, None


def _search(next_bound: _Rule, value_of: Callable, measure: str, kb: KnowledgeBase,
            cfg: RunConfig, clock: _PhaseClock, deadline: float,
            ) -> tuple[Value | None, tuple[int, int] | None]:
    """One search over the measure's range, on the KB prepared once."""
    pkb = encodings.prepare_kb(kb)
    session = _Session(lambda: encodings.encode(measure, pkb), cfg.backend, clock, deadline)
    rng = search_range(measure, pkb)
    value, _model, undecided = _drive(session, rng.min, rng.max, next_bound, value_of)
    if undecided is not None:
        return None, undecided
    if value is not None:
        return value, None
    if rng.infinity_possible:
        return INF, None
    raise MeasureUndefinedError(
        f"no upper bound of {measure} found in its range; "
        "a formula constant-folds to -"
    )


def binary_search(measure: str, kb: KnowledgeBase, cfg: RunConfig | None = None) -> SearchOutcome:
    """Published binary-search scheme over the measure's value range."""
    return compute(measure, kb, "sat-binary", cfg)


def linear_search(measure: str, kb: KnowledgeBase, cfg: RunConfig | None = None) -> SearchOutcome:
    """Probe u = 0, 1, 2, ...; the first satisfiable bound is the value."""
    return compute(measure, kb, "sat-linear", cfg)


def solve_maxsat(
    inst: MaxSatInstance,
    cfg: BackendConfig | None = None,
    clock: _PhaseClock | None = None,
) -> tuple[int, dict[int, bool]]:
    """Minimize the number of violated soft units.

    One session over a copy of the hard clauses (the caller's instance is
    left as is) and a sequential counter over the violation literals,
    searched by MaxSAT's rule, as the maxsat pipeline searches contension.
    The session records into `clock`, when given: counter growth as
    encoding, SAT calls as solving, and the calls and engine counters.
    """
    cfg = cfg or BackendConfig()

    def build() -> encodings.SatEncoding:
        hard = inst.hard
        enc = encodings.SatEncoding(
            "maxsat", CnfInstance(hard.num_vars, list(hard.clauses), VarMap(hard.num_vars))
        )
        enc.at_most("soft", [[[-lit for lit in inst.soft_units]]])
        return enc

    session = _Session(build, cfg, clock or _PhaseClock(), time.monotonic() + cfg.timeout)
    value, model, undecided = _drive(session, 0, len(inst.soft_units), *_MAXSAT)
    if undecided is not None:
        raise TimeoutError("MaxSAT search timed out")
    if model is None:
        raise HardClausesUnsatisfiableError("hard clauses are unsatisfiable")
    return value, {v: model[v] for v in range(1, inst.hard.num_vars + 1)}


def _naive(measure: str, kb: KnowledgeBase, cfg: RunConfig,
           clock: _PhaseClock, deadline: float) -> tuple[Value, None]:
    begin = time.perf_counter()
    value = naive_measure(kb, measure)
    clock.acc["solving"] += time.perf_counter() - begin
    clock.calls += 1
    return value, None


def _asp(measure: str, kb: KnowledgeBase, cfg: RunConfig,
         clock: _PhaseClock, deadline: float) -> tuple[Value | None, None]:
    begin = time.perf_counter()
    program = asp_mod.emit_asp(measure, kb)
    clock.acc["encoding"] += time.perf_counter() - begin
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, None
    begin = time.perf_counter()
    report = asp_mod.solve_asp(program, solver_path=cfg.asp_solver, timeout=remaining)
    clock.acc["solving"] += time.perf_counter() - begin
    clock.calls += 1
    if report.status == "timeout":
        return None, None
    return asp_mod.extract_value(measure, program, report), None


_PIPELINES = {
    "sat-binary": partial(_search, *_BINARY),
    "sat-linear": partial(_search, *_LINEAR),
    "maxsat": partial(_search, *_MAXSAT),
    "naive": _naive,
    "asp": _asp,
}


def compute(measure: str, kb: KnowledgeBase, method: str = "sat-binary",
            cfg: RunConfig | None = None) -> SearchOutcome:
    """Compute the measure's value with the chosen pipeline.

    The run's clock and time limit start here and cover the whole pipeline.
    An empty KB has value 0 under every method, with no call.  A pipeline
    returns its value, or None on a timeout with the range it left
    undecided, if it searched one.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "maxsat" and measure != "contension":
        raise ValueError("the MaxSAT pipeline only supports the contension measure")
    cfg = cfg or RunConfig()
    clock = _PhaseClock()
    if len(kb) == 0:
        value, bounds = 0, None
    else:
        deadline = time.monotonic() + cfg.timeout
        value, bounds = _PIPELINES[method](measure, kb, cfg, clock, deadline)
    total = time.perf_counter() - clock.start
    phases = dict(clock.acc, other=max(0.0, total - sum(clock.acc.values())))
    return SearchOutcome(measure, method, value, clock.calls, phases, total,
                         "ok" if value is not None else "timeout", bounds,
                         dict(clock.counters))
