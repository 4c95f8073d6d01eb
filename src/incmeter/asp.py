"""Answer-set programs for the six measures, plus the solver bridge.

Each measure maps to a program with an instance-specific part (facts
describing the KB's composition, plus the few rules that embed the formula
count) and a fixed static part.  The static blocks below are the interface
contract: they are compared byte-for-byte against checked-in golden files.

Programs are written in the clingo dialect (ASP-Core-2 aggregates,
``#minimize`` with weight-and-tuple elements); an external grounder/solver
is driven over a temp file (``solver.run_on_text``) and its
Answer/Optimization/UNSATISFIABLE output is interpreted per measure.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field

from .encodings import prepare_kb
from .kb import And, Atom, KnowledgeBase, Not, Or, Site, Top
from .oracles import MeasureUndefinedError
from .solver import SolverOutputError, find_binary, run_on_text
from .values import INF, INFINITY_MEASURES, Value

ASP_SOLVER_ENV = "INCMETER_ASP_SOLVER"


# ---------------------------------------------------------------------------
# Static rule blocks

CONTENSION_STATIC = """\
tv(t;f;b).
1{truthValue(A,T) : tv(T)}1 :- atom(A).
truthValue(F,t) :- conjunction(F,G,H), truthValue(G,t), truthValue(H,t).
truthValue(F,f) :- conjunction(F,G,H), 1{truthValue(G,f); truthValue(H,f)}.
truthValue(F,b) :- conjunction(F,_,_), not truthValue(F,t), not truthValue(F,f).
truthValue(F,f) :- disjunction(F,G,H), truthValue(G,f), truthValue(H,f).
truthValue(F,t) :- disjunction(F,G,H), 1{truthValue(G,t); truthValue(H,t)}.
truthValue(F,b) :- disjunction(F,_,_), not truthValue(F,t), not truthValue(F,f).
truthValue(F,t) :- negation(F,G), truthValue(G,f).
truthValue(F,f) :- negation(F,G), truthValue(G,t).
truthValue(F,b) :- negation(F,G), truthValue(G,b).
truthValue(F,T) :- formulaIsAtom(F,G), truthValue(G,T), tv(T).
:- truthValue(F,f), kbMember(F).
#minimize{1,A : truthValue(A,b), atom(A)}.
"""

FORGETTING_STATIC = """\
tv(t;f).
atv(t;f;forgetTop;forgetBot).
atomOcc(A,L) :- formulaIsAtomOcc(_,A,L).
atom(A) :- atomOcc(A,_).
1{truthValue(A,T) : tv(T)}1 :- atom(A).
truthValue(F,t) :- conjunction(F,G,H), truthValue(G,t), truthValue(H,t).
truthValue(F,f) :- conjunction(F,_,_), not truthValue(F,t).
truthValue(F,f) :- disjunction(F,G,H), truthValue(G,f), truthValue(H,f).
truthValue(F,t) :- disjunction(F,_,_), not truthValue(F,f).
truthValue(F,t) :- negation(F,G), truthValue(G,f).
truthValue(F,f) :- negation(F,G), truthValue(G,t).
truthValue(F,t) :- formulaIsAtomOcc(F,A,L), atomTruthValue(A,L,t).
truthValue(F,t) :- formulaIsAtomOcc(F,A,L), atomTruthValue(A,L,forgetTop).
truthValue(F,f) :- formulaIsAtomOcc(F,A,L), atomTruthValue(A,L,f).
truthValue(F,f) :- formulaIsAtomOcc(F,A,L), atomTruthValue(A,L,forgetBot).
atomTruthValue(A,L,forgetTop) :- atomOcc(A,L), not atomTruthValue(A,L,t), not atomTruthValue(A,L,f), not atomTruthValue(A,L,forgetBot).
atomTruthValue(A,L,forgetBot) :- atomOcc(A,L), not atomTruthValue(A,L,t), not atomTruthValue(A,L,f), not atomTruthValue(A,L,forgetTop).
atomTruthValue(A,L,t) :- atomOcc(A,L), truthValue(A,t), not atomTruthValue(A,L,f), not atomTruthValue(A,L,forgetTop), not atomTruthValue(A,L,forgetBot).
atomTruthValue(A,L,f) :- atomOcc(A,L), truthValue(A,f), not atomTruthValue(A,L,t), not atomTruthValue(A,L,forgetTop), not atomTruthValue(A,L,forgetBot).
:- truthValue(F,f), kbMember(F).
atomOccForgotten(A,L) :- atomTruthValue(A,L,forgetTop).
atomOccForgotten(A,L) :- atomTruthValue(A,L,forgetBot).
#minimize{1,A,L : atomOccForgotten(A,L)}.
"""

HITTING_SET_STATIC = """\
tv(t;f).
1{truthValueInt(A,I,T) : tv(T)}1 :- atom(A), interpretation(I).
truthValueInt(F,I,t) :- conjunction(F,G,H), interpretation(I), truthValueInt(G,I,t), truthValueInt(H,I,t).
truthValueInt(F,I,f) :- conjunction(F,_,_), interpretation(I), not truthValueInt(F,I,t).
truthValueInt(F,I,f) :- disjunction(F,G,H), interpretation(I), truthValueInt(G,I,f), truthValueInt(H,I,f).
truthValueInt(F,I,t) :- disjunction(F,_,_), interpretation(I), not truthValueInt(F,I,f).
truthValueInt(F,I,t) :- negation(F,G), truthValueInt(G,I,f).
truthValueInt(F,I,f) :- negation(F,G), truthValueInt(G,I,t).
truthValueInt(F,I,T) :- formulaIsAtom(F,G), truthValueInt(G,I,T), interpretation(I), tv(T).
truthValue(F,t) :- truthValueInt(F,I,t), kbMember(F), interpretation(I), interpretationActive(I).
truthValue(F,f) :- kbMember(F), not truthValue(F,t).
:- truthValue(F,f), kbMember(F).
#minimize{1,I : interpretationActive(I)}.
"""

_DISTANCE_STATIC_COMMON = """\
tv(t;f).
1{truthValueInt(A,I,T) : tv(T)}1 :- atom(A), interpretation(I).
truthValueInt(F,I,t) :- conjunction(F,G,H), interpretation(I), truthValueInt(G,I,t), truthValueInt(H,I,t).
truthValueInt(F,I,f) :- conjunction(F,_,_), interpretation(I), not truthValueInt(F,I,t).
truthValueInt(F,I,f) :- disjunction(F,G,H), interpretation(I), truthValueInt(G,I,f), truthValueInt(H,I,f).
truthValueInt(F,I,t) :- disjunction(F,_,_), interpretation(I), not truthValueInt(F,I,f).
truthValueInt(F,I,t) :- negation(F,G), truthValueInt(G,I,f).
truthValueInt(F,I,f) :- negation(F,G), truthValueInt(G,I,t).
truthValueInt(F,I,T) :- formulaIsAtom(F,G), truthValueInt(G,I,T), interpretation(I), tv(T).
truthValueInt(F,L,I,T) :- kbMember(F,L), interpretation(I), tv(T), truthValueInt(F,I,T).
:- truthValueInt(F,L,I,f), kbMember(F,L), interpretation(I), L == I.
diff(A,I,J) :- atom(A), interpretation(I), interpretation(J), truthValueInt(A,I,T), truthValueInt(A,J,U), T != U.
d(I,J,X) :- interpretation(I), interpretation(J), X = #count{A : diff(A,I,J), atom(A)}.
"""

MAX_DISTANCE_STATIC = _DISTANCE_STATIC_COMMON + "#minimize{X : dMax(X)}.\n"

SUM_DISTANCE_STATIC = _DISTANCE_STATIC_COMMON + "#minimize{X : dSum(X)}.\n"

HIT_DISTANCE_STATIC = """\
tv(t;f).
1{truthValue(A,T) : tv(T)}1 :- atom(A).
truthValue(F,t) :- conjunction(F,G,H), truthValue(G,t), truthValue(H,t).
truthValue(F,f) :- conjunction(F,_,_), not truthValue(F,t).
truthValue(F,f) :- disjunction(F,G,H), truthValue(G,f), truthValue(H,f).
truthValue(F,t) :- disjunction(F,_,_), not truthValue(F,f).
truthValue(F,t) :- negation(F,G), truthValue(G,f).
truthValue(F,f) :- negation(F,G), truthValue(G,t).
truthValue(F,T) :- formulaIsAtom(F,G), truthValue(G,T), tv(T).
truthValueKbMember(F,T) :- kbMember(F), tv(T), truthValue(F,T).
#minimize{1,F : truthValueKbMember(F,f)}.
"""

STATIC_BLOCKS = {
    "contension": CONTENSION_STATIC,
    "forgetting": FORGETTING_STATIC,
    "hitting-set": HITTING_SET_STATIC,
    "max-distance": MAX_DISTANCE_STATIC,
    "sum-distance": SUM_DISTANCE_STATIC,
    "hit-distance": HIT_DISTANCE_STATIC,
}


# ---------------------------------------------------------------------------
# Program emission


@dataclass
class AspProgram:
    measure: str
    facts: list[str]
    static_rules: str
    # injective map from formula sites and atoms to ASP constants
    symbol_table: dict[tuple, str]

    def text(self) -> str:
        return "\n".join(self.facts) + "\n\n" + self.static_rules

    def atom_constants(self) -> set[str]:
        return {
            const for key, const in self.symbol_table.items() if key[0] == "atom"
        }


def _atom_constants(signature: tuple[str, ...]) -> dict[str, str]:
    used: set[str] = set()
    table = {}
    for name in signature:
        base = "a_" + name.lower()
        const = base
        serial = 1
        while const in used:
            serial += 1
            const = f"{base}_{serial}"
        used.add(const)
        table[name] = const
    return table


def _site_constant(site) -> str:
    return f"f_{site.formula_index}" + "".join(
        "_l" if step == 0 else "_r" for step in site.path
    )


def emit_asp(measure: str, kb: KnowledgeBase) -> AspProgram:
    """Build the program for `measure`; the KB is connective-reduced and
    constant-folded first, as the rule set only covers !, &&, ||."""
    if measure not in STATIC_BLOCKS:
        raise ValueError(f"unknown measure {measure!r}")
    pkb = prepare_kb(kb)
    sig = pkb.signature()
    atom_consts = _atom_constants(sig)
    symbols: dict[tuple, str] = {("atom", name): const for name, const in atom_consts.items()}
    sites = pkb.subformula_sites()
    for site, _ in sites:
        symbols[("site", site.formula_index, site.path)] = _site_constant(site)

    indexed_members = measure in ("max-distance", "sum-distance")
    interpretations_fact = None
    if measure == "hitting-set":
        interpretations_fact = f"interpretation(1..{len(pkb)})."
    elif indexed_members:
        interpretations_fact = f"interpretation(0..{len(pkb)})."

    facts: list[str] = []
    for idx in range(len(pkb)):
        const = _site_constant(Site(idx, ()))
        if indexed_members:
            facts.append(f"kbMember({const},{idx}).")
        else:
            facts.append(f"kbMember({const}).")
    if measure != "forgetting":
        for name in sig:
            facts.append(f"atom({atom_consts[name]}).")
    if interpretations_fact:
        facts.append(interpretations_fact)

    occ_labels = {
        (occ.site.formula_index, occ.site.path): (occ.atom, occ.label)
        for occ in pkb.occurrences()
    }
    structure: list[str] = []
    constant_support: list[str] = []
    for site, node in sites:
        const = _site_constant(site)
        if isinstance(node, And):
            left, right = _site_constant(site.child(0)), _site_constant(site.child(1))
            structure.append(f"conjunction({const},{left},{right}).")
        elif isinstance(node, Or):
            left, right = _site_constant(site.child(0)), _site_constant(site.child(1))
            structure.append(f"disjunction({const},{left},{right}).")
        elif isinstance(node, Not):
            structure.append(f"negation({const},{_site_constant(site.child(0))}).")
        elif isinstance(node, Atom):
            if measure == "forgetting":
                atom, label = occ_labels[(site.formula_index, site.path)]
                structure.append(
                    f"formulaIsAtomOcc({const},{atom_consts[atom]},{label})."
                )
            else:
                structure.append(f"formulaIsAtom({const},{atom_consts[node.name]}).")
        else:
            # Whole-formula constant left by folding: pin its truth value so
            # the static rules treat it like any (un)satisfiable member.
            value = "t" if isinstance(node, Top) else "f"
            if measure in ("hitting-set", "max-distance", "sum-distance"):
                constant_support.append(
                    f"truthValueInt({const},I,{value}) :- interpretation(I)."
                )
            else:
                constant_support.append(f"truthValue({const},{value}).")
    facts.extend(structure)
    facts.extend(constant_support)

    if measure == "hitting-set":
        facts.append(
            f"1{{interpretationActive(I) : interpretation(I)}}{len(pkb)}."
        )
    elif measure == "max-distance":
        facts.append(
            f"dMax(X) :- X = #max{{Y : d(I,{len(pkb)},Y), interpretation(I)}}, X >= 0."
        )
    elif measure == "sum-distance":
        facts.append(
            f"dSum(X) :- X = #sum{{Y,I : d(I,{len(pkb)},Y), interpretation(I)}}, X >= 0."
        )
    return AspProgram(measure, facts, STATIC_BLOCKS[measure], symbols)


# ---------------------------------------------------------------------------
# Solver bridge


@dataclass
class AnswerSetReport:
    status: str  # "optimal" | "unsatisfiable" | "timeout"
    shown_atoms: set[str] = field(default_factory=set)
    optimization_cost: int | None = None


def _asp_solver(explicit: str | None) -> str:
    """The ASP solver to run: `explicit`, else $INCMETER_ASP_SOLVER, else clingo."""
    return explicit or os.environ.get(ASP_SOLVER_ENV) or "clingo"


def asp_backend_available(explicit: str | None = None) -> bool:
    return find_binary(_asp_solver(explicit)) is not None


def parse_asp_output(text: str) -> AnswerSetReport:
    answer_atoms: set[str] = set()
    cost: int | None = None
    saw_answer = False
    expect_atoms = False
    status: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if expect_atoms:
            answer_atoms = set(line.split()) if line else set()
            expect_atoms = False
            continue
        if line.startswith("Answer:"):
            saw_answer = True
            expect_atoms = True
        elif line.startswith("Optimization:"):
            parts = line.split()
            if len(parts) >= 2:
                cost = int(parts[1])
        elif line == "UNSATISFIABLE":
            status = "unsatisfiable"
        elif line == "OPTIMUM FOUND":
            status = "optimal"
        elif line == "SATISFIABLE" and saw_answer and status is None:
            status = "optimal"
    if status is None:
        raise SolverOutputError("could not interpret ASP solver output")
    return AnswerSetReport(status, answer_atoms, cost)


def solve_asp(
    program: AspProgram,
    solver_path: str | None = None,
    timeout: float = 600.0,
) -> AnswerSetReport:
    """Run the ASP solver on `program` for at most `timeout` seconds."""
    proc = run_on_text(_asp_solver(solver_path), ["--quiet=1"], program.text(), ".lp",
                       time.monotonic() + timeout)
    if proc is None:
        return AnswerSetReport("timeout")
    # clingo exit codes are a bitmask; 10/20/30 all carry a verdict in
    # the text, so parse stdout and only fail on clearly broken output.
    return parse_asp_output(proc.stdout)


# ---------------------------------------------------------------------------
# Answer-set interpretation

_GROUND_ATOM = re.compile(r"^([a-zA-Z]\w*)\((.*)\)$")


def _ground_atoms(report: AnswerSetReport, predicate: str) -> list[tuple[str, ...]]:
    out = []
    for token in report.shown_atoms:
        match = _GROUND_ATOM.match(token)
        if match and match.group(1) == predicate:
            out.append(tuple(match.group(2).split(",")))
    return out


def extract_value(measure: str, program: AspProgram, report: AnswerSetReport) -> Value:
    """Read the inconsistency value out of an optimal answer set."""
    if report.status == "timeout":
        raise TimeoutError("ASP solver timed out")
    if report.status == "unsatisfiable":
        if measure in INFINITY_MEASURES:
            return INF
        raise MeasureUndefinedError(
            f"unsatisfiable program for {measure}: either a formula folds to - "
            "or the emitted program is broken"
        )
    if measure == "contension":
        atom_consts = program.atom_constants()
        return sum(
            1
            for args in _ground_atoms(report, "truthValue")
            if len(args) == 2 and args[0] in atom_consts and args[1] == "b"
        )
    if measure == "forgetting":
        return len(_ground_atoms(report, "atomOccForgotten"))
    if measure == "hitting-set":
        return len(_ground_atoms(report, "interpretationActive")) - 1
    if measure in ("max-distance", "sum-distance"):
        predicate = "dMax" if measure == "max-distance" else "dSum"
        hits = _ground_atoms(report, predicate)
        if not hits:
            raise SolverOutputError(f"no {predicate} atom in the answer set")
        return int(hits[0][0])
    if measure == "hit-distance":
        return sum(
            1
            for args in _ground_atoms(report, "truthValueKbMember")
            if len(args) == 2 and args[1] == "f"
        )
    raise ValueError(f"unknown measure {measure!r}")
