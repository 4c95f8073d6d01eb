"""Brute-force ground truth for all six measures, plus the naive baselines.

The oracle functions compute each measure straight from its definition at
desk scale; every other computation path in the package is validated against
them.  The ``naive_*`` functions are a separate family: simple generate-and-
test procedures (CNF clause deletion, growing substitution tuples,
interpretation-tuple enumeration, full interpretation sweeps) that must land
on the same values by a different route.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .cnf import to_clauses_distributive
from .kb import (
    And,
    Atom,
    AtomOccurrence,
    Bottom,
    Formula,
    Iff,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    Top,
    TOP,
    BOTTOM,
    eval2,
    interpretations,
    reduce_kb,
    replace_at,
    subformula_at,
)
from .values import INF, Value


class CapExceededError(ValueError):
    """The input is beyond the advertised brute-force caps."""


class MeasureUndefinedError(ValueError):
    """No finite value exists and the measure does not admit infinity.

    Only reachable when a formula constant-folds to `-`: no three-valued
    model exists and no sequence of forgetting operations can help.
    """


CONTENSION_ATOM_CAP = 12
FORGETTING_ATOM_CAP = 12
HS_ATOM_CAP = 10
HS_FORMULA_CAP = 8
DISTANCE_ATOM_CAP = 10


def _check_cap(label: str, actual: int, cap: int) -> None:
    if actual > cap:
        raise CapExceededError(f"{label} {actual} exceeds oracle cap {cap}")


# ---------------------------------------------------------------------------
# Priest's three-valued logic
#
# Truth values are ordered f < b < t; conjunction is the minimum,
# disjunction the maximum, and negation swaps t and f while fixing b.

TRUE3 = "t"
BOTH3 = "b"
FALSE3 = "f"

_RANK = {FALSE3: 0, BOTH3: 1, TRUE3: 2}
_BY_RANK = (FALSE3, BOTH3, TRUE3)
_NEG3 = {TRUE3: FALSE3, BOTH3: BOTH3, FALSE3: TRUE3}


def eval3(f: Formula, w3: Mapping[str, str]) -> str:
    """Three-valued truth value of a {!,&&,||}-formula (constants allowed)."""
    if isinstance(f, Atom):
        try:
            value = w3[f.name]
        except KeyError:
            raise ValueError(f"atom {f.name!r} not declared in interpretation") from None
        if value not in _RANK:
            raise ValueError(f"bad truth value {value!r}")
        return value
    if isinstance(f, Top):
        return TRUE3
    if isinstance(f, Bottom):
        return FALSE3
    if isinstance(f, Not):
        return _NEG3[eval3(f.child, w3)]
    if isinstance(f, And):
        return _BY_RANK[min(_RANK[eval3(f.left, w3)], _RANK[eval3(f.right, w3)])]
    if isinstance(f, Or):
        return _BY_RANK[max(_RANK[eval3(f.left, w3)], _RANK[eval3(f.right, w3)])]
    raise ValueError(f"eval3 requires a reduced formula, got {type(f).__name__}")


def is_three_valued_model(kb: KnowledgeBase, w3: Mapping[str, str]) -> bool:
    """True when no formula evaluates to f."""
    return all(eval3(f, w3) != FALSE3 for f in kb)


def contension_oracle(kb: KnowledgeBase) -> Value:
    """Minimal number of atoms assigned b over all three-valued models."""
    reduced = reduce_kb(kb)
    sig = reduced.signature()
    _check_cap("signature size", len(sig), CONTENSION_ATOM_CAP)
    # Try assignments with few b's first; the first hit is the value.
    for b_count in range(len(sig) + 1):
        for b_atoms in itertools.combinations(sig, b_count):
            rest = [a for a in sig if a not in b_atoms]
            for tf in itertools.product((TRUE3, FALSE3), repeat=len(rest)):
                w3 = dict(zip(rest, tf))
                w3.update((a, BOTH3) for a in b_atoms)
                if is_three_valued_model(reduced, w3):
                    return b_count
    raise MeasureUndefinedError(
        "knowledge base has no three-valued model (a formula folds to -)"
    )


# ---------------------------------------------------------------------------
# Forgetting


def forget(f: Formula, occ: AtomOccurrence, mode: str = "both") -> Formula:
    """Replace one atom occurrence by +, -, or the disjunction of both.

    ``mode`` is one of ``"top"``, ``"bottom"``, ``"both"``; the site must
    address an occurrence of ``occ.atom`` inside ``f``.
    """
    target = subformula_at(f, occ.site.path)
    if not isinstance(target, Atom) or target.name != occ.atom:
        raise ValueError(f"site {occ.site} is not an occurrence of {occ.atom!r}")
    if mode == "top":
        return replace_at(f, occ.site.path, TOP)
    if mode == "bottom":
        return replace_at(f, occ.site.path, BOTTOM)
    if mode == "both":
        return Or(
            replace_at(f, occ.site.path, TOP), replace_at(f, occ.site.path, BOTTOM)
        )
    raise ValueError(f"unknown forget mode {mode!r}")


def _min_substitutions(f: Formula, w: Mapping[str, bool], target: bool) -> Value:
    """Fewest +/- substitutions inside `f` forcing it to `target` under `w`."""
    if isinstance(f, Atom):
        return 0 if w[f.name] == target else 1
    if isinstance(f, Top):
        return 0 if target else INF
    if isinstance(f, Bottom):
        return INF if target else 0
    if isinstance(f, Not):
        return _min_substitutions(f.child, w, not target)
    lt = _min_substitutions(f.left, w, True)
    lf = _min_substitutions(f.left, w, False)
    rt = _min_substitutions(f.right, w, True)
    rf = _min_substitutions(f.right, w, False)
    if isinstance(f, And):
        return lt + rt if target else min(lf, rf)
    if isinstance(f, Or):
        return min(lt, rt) if target else lf + rf
    if isinstance(f, Implies):
        return min(lf, rt) if target else lt + rf
    assert isinstance(f, Iff)
    if target:
        return min(lt + rt, lf + rf)
    return min(lt + rf, lf + rt)


def forgetting_oracle(kb: KnowledgeBase) -> Value:
    """Minimal number of atom occurrences to forget for satisfiability.

    Forgetting an occurrence replaces it by the better of + and -, so for a
    fixed interpretation of the kept atoms the cheapest repair decomposes
    over the formula trees; minimizing over all interpretations gives the
    measure.  Occurrences are counted on the connective-reduced KB so all
    computation paths agree.
    """
    reduced = reduce_kb(kb)
    sig = reduced.signature()
    _check_cap("signature size", len(sig), FORGETTING_ATOM_CAP)
    best: Value = INF
    for w in interpretations(sig):
        total: Value = 0
        for f in reduced:
            total += _min_substitutions(f, w, True)
            if total >= best:
                break
        if total < best:
            best = total
            if best == 0:
                break
    if best == INF:
        raise MeasureUndefinedError(
            "forgetting cannot repair a formula that folds to -"
        )
    return best


# ---------------------------------------------------------------------------
# Hitting sets


def hs_oracle(kb: KnowledgeBase) -> Value:
    """Minimal hitting-set size minus one; infinity iff some formula is
    individually unsatisfiable; 0 for the empty KB."""
    if len(kb) == 0:
        return 0
    sig = kb.signature()
    _check_cap("signature size", len(sig), HS_ATOM_CAP)
    _check_cap("formula count", len(kb), HS_FORMULA_CAP)
    n = len(kb)
    full = (1 << n) - 1
    sat_masks = set()
    for w in interpretations(sig):
        mask = 0
        for i, f in enumerate(kb):
            if eval2(f, w):
                mask |= 1 << i
        sat_masks.add(mask)
    satisfiable = [False] * (full + 1)
    satisfiable[0] = True
    for subset in range(1, full + 1):
        satisfiable[subset] = any(mask & subset == subset for mask in sat_masks)
    for i in range(n):
        if not satisfiable[1 << i]:
            return INF
    # Minimal partition of the formulas into jointly satisfiable blocks.
    min_blocks = [0] * (full + 1)
    for subset in range(1, full + 1):
        lowest = subset & -subset
        best = n + 1
        block = subset
        while block:
            if block & lowest and satisfiable[block]:
                best = min(best, 1 + min_blocks[subset ^ block])
            block = (block - 1) & subset
        min_blocks[subset] = best
    return min_blocks[full] - 1


# ---------------------------------------------------------------------------
# Dalal distances


def dalal(
    a: Mapping[str, bool] | Iterable[Mapping[str, bool]], b: Mapping[str, bool]
) -> Value:
    """Hamming distance between interpretations; min over a set, inf if empty."""
    if isinstance(a, Mapping):
        if set(a) != set(b):
            raise ValueError("interpretations must share a signature")
        return sum(1 for atom in a if a[atom] != b[atom])
    distances = [dalal(w, b) for w in a]
    return min(distances) if distances else INF


def _model_masks(kb: KnowledgeBase, sig: tuple[str, ...]) -> list[list[int]]:
    """Per formula, the models over the KB signature as bitmask ints."""
    masks: list[list[int]] = [[] for _ in kb]
    for idx, w in enumerate(interpretations(sig)):
        for i, f in enumerate(kb):
            if eval2(f, w):
                masks[i].append(idx)
    return masks


def distance_oracles(kb: KnowledgeBase, kind: str) -> Value:
    """Min over all interpretations of the max / sum / positive-count of
    Dalal distances to each formula's model set."""
    if kind not in ("max", "sum", "hit"):
        raise ValueError(f"unknown distance kind {kind!r}")
    if len(kb) == 0:
        return 0
    sig = kb.signature()
    _check_cap("signature size", len(sig), DISTANCE_ATOM_CAP)
    models = _model_masks(kb, sig)
    if kind in ("max", "sum") and any(not m for m in models):
        return INF
    best: Value = INF
    for omega in range(1 << len(sig)):
        dists = [
            min(((m ^ omega).bit_count() for m in ms), default=INF) for ms in models
        ]
        if kind == "max":
            agg: Value = max(dists, default=0)
        elif kind == "sum":
            agg = sum(dists)
        else:
            agg = sum(1 for d in dists if d > 0)
        if agg < best:
            best = agg
            if best == 0:
                break
    return best


def oracle_value(kb: KnowledgeBase, measure: str) -> Value:
    if measure == "contension":
        return contension_oracle(kb)
    if measure == "forgetting":
        return forgetting_oracle(kb)
    if measure == "hitting-set":
        return hs_oracle(kb)
    if measure == "max-distance":
        return distance_oracles(kb, "max")
    if measure == "sum-distance":
        return distance_oracles(kb, "sum")
    if measure == "hit-distance":
        return distance_oracles(kb, "hit")
    raise ValueError(f"unknown measure {measure!r}")


# ---------------------------------------------------------------------------
# Naive baselines
#
# Generate-and-test procedures over growing candidate sets.  They share no
# search logic with the oracles above and none of the SAT machinery below
# the satisfiability checks.


def _clauses_satisfiable(clauses: set[frozenset]) -> bool:
    from .cnf import CnfInstance
    from .solver import SolveStatus, solve_internal

    names = sorted({name for clause in clauses for name, _ in clause})
    index = {name: i + 1 for i, name in enumerate(names)}
    int_clauses = [
        [index[name] if pos else -index[name] for name, pos in clause]
        for clause in clauses
    ]
    if any(not c for c in int_clauses):
        return False
    result = solve_internal(CnfInstance(len(names), int_clauses))
    assert result.status is not SolveStatus.TIMEOUT
    return result.status is SolveStatus.SAT


def naive_contension(kb: KnowledgeBase) -> Value:
    """CNF conversion followed by clause removal over growing atom subsets.

    Removing every clause that mentions an atom is the clause-level way of
    assigning it the paradoxical value.
    """
    sig = kb.signature()
    _check_cap("signature size", len(sig), CONTENSION_ATOM_CAP)
    clauses: set[frozenset] = set()
    for f in kb:
        cnf = to_clauses_distributive(f)
        if cnf is None:
            raise MeasureUndefinedError(
                "knowledge base has no three-valued model (a formula folds to -)"
            )
        clauses |= cnf
    for size in range(len(sig) + 1):
        for removed in itertools.combinations(sig, size):
            kept = {
                clause
                for clause in clauses
                if not any(name in removed for name, _ in clause)
            }
            if _clauses_satisfiable(kept):
                return size
    raise AssertionError("unreachable: removing all atoms leaves a satisfiable set")


def _bit_masks(sig: tuple[str, ...]) -> dict[str, int]:
    """Truth-table column for each atom over the 2^n interpretations."""
    n = len(sig)
    columns = {}
    for i, name in enumerate(sig):
        period = 1 << (i + 1)
        half = 1 << i
        block = ((1 << half) - 1) << half
        column = 0
        for start in range(0, 1 << n, period):
            column |= block << start
        columns[name] = column
    return columns


def _truth_mask(f: Formula, columns: Mapping[str, int], full: int) -> int:
    if isinstance(f, Atom):
        return columns[f.name]
    if isinstance(f, Top):
        return full
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Not):
        return full ^ _truth_mask(f.child, columns, full)
    left = _truth_mask(f.left, columns, full)
    right = _truth_mask(f.right, columns, full)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (full ^ left) | right
    assert isinstance(f, Iff)
    return full ^ (left ^ right)


def naive_forgetting(kb: KnowledgeBase) -> Value:
    """Growing tuples of occurrence substitutions, each checked for
    satisfiability over the KB signature."""
    reduced = reduce_kb(kb)
    sig = reduced.signature()
    _check_cap("signature size", len(sig), FORGETTING_ATOM_CAP)
    full = (1 << (1 << len(sig))) - 1 if sig else 1
    columns = _bit_masks(sig)
    formulas = list(reduced.formulas)
    base_masks = [_truth_mask(f, columns, full) for f in formulas]

    def satisfiable_with(subs: dict[int, Formula]) -> bool:
        joint = full
        for i, mask in enumerate(base_masks):
            joint &= _truth_mask(subs[i], columns, full) if i in subs else mask
            if not joint:
                return False
        return bool(joint)

    if satisfiable_with({}):
        return 0
    occs = reduced.occurrences()
    for n in range(1, len(occs) + 1):
        for chosen in itertools.combinations(occs, n):
            for constants in itertools.product((TOP, BOTTOM), repeat=n):
                subs: dict[int, Formula] = {}
                for occ, const in zip(chosen, constants):
                    i = occ.site.formula_index
                    subs[i] = replace_at(subs.get(i, formulas[i]), occ.site.path, const)
                if satisfiable_with(subs):
                    return n
    raise MeasureUndefinedError("forgetting cannot repair a formula that folds to -")


def naive_hs(kb: KnowledgeBase) -> Value:
    """Exhaustive enumeration of interpretation tuples of growing size."""
    if len(kb) == 0:
        return 0
    sig = kb.signature()
    _check_cap("signature size", len(sig), HS_ATOM_CAP)
    _check_cap("formula count", len(kb), HS_FORMULA_CAP)
    full = (1 << len(kb)) - 1
    masks = set()
    for w in interpretations(sig):
        mask = 0
        for i, f in enumerate(kb):
            if eval2(f, w):
                mask |= 1 << i
        masks.add(mask)
    # Interpretations whose satisfied-formula set is dominated never help.
    maximal = [m for m in masks if not any(m != o and m | o == o for o in masks)]
    for size in range(1, len(kb) + 1):
        for combo in itertools.combinations(maximal, size):
            joined = 0
            for m in combo:
                joined |= m
            if joined == full:
                return size - 1
    return INF


def _naive_distance(kb: KnowledgeBase, kind: str) -> Value:
    if len(kb) == 0:
        return 0
    sig = kb.signature()
    _check_cap("signature size", len(sig), DISTANCE_ATOM_CAP)
    all_interps = list(interpretations(sig))
    models = [
        [w for w in all_interps if eval2(f, w)]
        for f in kb
    ]
    best: Value = INF
    for w in all_interps:
        dists = [dalal(ms, w) for ms in models]
        if kind == "max":
            agg: Value = max(dists)
        elif kind == "sum":
            agg = sum(dists)
        else:
            agg = sum(1 for d in dists if d > 0)
        best = min(best, agg)
    return best


def naive_measure(kb: KnowledgeBase, measure: str) -> Value:
    if measure == "contension":
        return naive_contension(kb)
    if measure == "forgetting":
        return naive_forgetting(kb)
    if measure == "hitting-set":
        return naive_hs(kb)
    if measure == "max-distance":
        return _naive_distance(kb, "max")
    if measure == "sum-distance":
        return _naive_distance(kb, "sum")
    if measure == "hit-distance":
        return _naive_distance(kb, "hit")
    raise ValueError(f"unknown measure {measure!r}")
