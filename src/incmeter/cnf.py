"""Clause-level machinery: variable maps, CNF instances, Tseitin conversion.

Solver variables are positive integers; literals are non-zero integers with
sign for polarity.  Every base variable carries a structured semantic name in
a :class:`VarMap` so encodings stay inspectable and debuggable; auxiliary
variables (Tseitin definitions, cardinality registers) are bare ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .kb import (
    And,
    Atom,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    fold_constants,
    reduce_connectives,
)

# Variable name tags. Names are tuples whose first element is one of these;
# every named variable counts toward an encoding's base signature.
TAG_ATOM = "atom"          # (atom, name)               plain propositional atom
TAG_TRI = "tri"            # (tri, name, "t"|"f"|"b")   three-valued indicator
TAG_VAL = "val"            # (val, site, "t"|"f"|"b")   per-site valuation
TAG_OCC = "occ"            # (occ, name, label)         occurrence's value after forgetting
TAG_FORGET_TOP = "ftop"    # (ftop, name, label)        occurrence replaced by +
TAG_FORGET_BOT = "fbot"    # (fbot, name, label)        occurrence replaced by -
TAG_BLOCK = "block"        # (block, formula_idx, i)    formula membership in block i
TAG_COPY = "copy"          # (copy, name, i)            per-index atom copy
TAG_OPT = "opt"            # (opt, name)                atom of the chosen world
TAG_INV = "inv"            # (inv, name, i)             inverted-assignment flag
TAG_HIT = "hit"            # (hit, formula_idx)         formula dropped marker
TAG_AUX = "aux"            # (aux, id)                  reported for unnamed ids


VarName = tuple


class VarMap:
    """Names of the base variables; auxiliary variables are bare ids."""

    def __init__(self, top: int = 0) -> None:
        """Ids 1..`top` are taken already, by auxiliary variables."""
        self._by_name: dict[VarName, int] = {}
        self._by_id: dict[int, VarName] = {}
        self._top = top

    def __len__(self) -> int:
        return self._top

    def var(self, name: VarName) -> int:
        """Return the id for `name`, allocating a fresh variable if needed."""
        vid = self._by_name.get(name)
        if vid is None:
            self._top += 1
            vid = self._top
            self._by_name[name] = vid
            self._by_id[vid] = name
        return vid

    def fresh_aux(self) -> int:
        self._top += 1
        return self._top

    def id_of(self, name: VarName) -> int:
        return self._by_name[name]

    def name_of(self, vid: int) -> VarName:
        if not 1 <= vid <= self._top:
            raise KeyError(vid)
        return self._by_id.get(vid, (TAG_AUX, vid))

    def base_count(self) -> int:
        """Number of named (non-auxiliary) variables allocated so far."""
        return len(self._by_name)


@dataclass
class CnfInstance:
    """A clause set that only ever grows: variables and clauses may be
    appended, never changed, so a solver engine kept with it (``engine``)
    stays valid and loads only what was appended."""

    num_vars: int
    clauses: list[list[int]]
    varmap: VarMap = field(default_factory=VarMap)
    engine: object = field(default=None, repr=False, compare=False)

    def validate(self) -> None:
        for clause in self.clauses:
            assert clause, "empty clause"
            assert all(lit != 0 and abs(lit) <= self.num_vars for lit in clause)
            assert not any(-lit in clause for lit in clause), "tautological clause"


@dataclass(frozen=True, slots=True)
class Lit(Formula):
    """A formula leaf that stands for the solver literal `lit` itself."""

    lit: int


def tseitin_append(f: Formula, vm: VarMap, clauses: list[list[int]],
                   leaf: Callable[[str], int] | None = None) -> None:
    """Append clauses equisatisfiable with asserting `f` to `clauses`.

    :class:`Lit` leaves are their own literals.  An :class:`Atom` leaf is the
    literal that the leaf map `leaf` gives for its name, by default the
    variable named ``(atom, name)`` in `vm`.  The map is called once per
    Atom leaf, in reading order (left to right), so it may hand out one
    literal per occurrence instead of one per atom.  Every internal
    connective below the top level gets an auxiliary variable constrained by
    a full biconditional (no polarity optimization); negation is folded into
    literal signs.
    """
    leaf = leaf or (lambda name: vm.var((TAG_ATOM, name)))
    const_true: list[int] = []

    def emit(clause: list[int]) -> None:
        deduped: list[int] = []
        for lit in clause:
            if -lit in deduped:
                return  # tautology, always satisfied
            if lit not in deduped:
                deduped.append(lit)
        clauses.append(deduped)

    def const_var() -> int:
        if not const_true:
            v = vm.fresh_aux()
            clauses.append([v])
            const_true.append(v)
        return const_true[0]

    def walk(node: Formula) -> int:
        if isinstance(node, Atom):
            return leaf(node.name)
        if isinstance(node, Lit):
            return node.lit
        if isinstance(node, Top):
            return const_var()
        if isinstance(node, Bottom):
            return -const_var()
        if isinstance(node, Not):
            return -walk(node.child)
        a = walk(node.left)
        b = walk(node.right)
        v = vm.fresh_aux()
        if isinstance(node, And):
            emit([-v, a])
            emit([-v, b])
            emit([v, -a, -b])
        elif isinstance(node, Or):
            emit([-v, a, b])
            emit([v, -a])
            emit([v, -b])
        elif isinstance(node, Implies):
            emit([-v, -a, b])
            emit([v, a])
            emit([v, -b])
        else:
            assert isinstance(node, Iff)
            emit([-v, -a, b])
            emit([-v, a, -b])
            emit([v, a, b])
            emit([v, -a, -b])
        return v

    def assert_true(node: Formula) -> None:
        # Standard top-level extraction: asserted conjunctions split into
        # their conjuncts, asserted disjunctions/implications become a single
        # clause over their disjuncts' literals, asserted biconditionals
        # become two clauses.  Everything below the top level is definitional.
        if isinstance(node, And):
            assert_true(node.left)
            assert_true(node.right)
        elif isinstance(node, (Or, Implies)):
            clause: list[int] = []
            stack = [node]
            while stack:
                cur = stack.pop()
                if isinstance(cur, Or):
                    stack.append(cur.right)
                    stack.append(cur.left)
                elif isinstance(cur, Implies):
                    stack.append(cur.right)
                    stack.append(Not(cur.left))
                elif isinstance(cur, Not) and isinstance(cur.child, Not):
                    stack.append(cur.child.child)
                else:
                    clause.append(walk(cur))
            emit(clause)
        elif isinstance(node, Iff):
            a = walk(node.left)
            b = walk(node.right)
            if a != b:
                emit([-a, b])
                emit([a, -b])
        else:
            emit([walk(node)])

    assert_true(f)


def tseitin(f: Formula, vm: VarMap | None = None) -> CnfInstance:
    """Equisatisfiable CNF of `f` with the root asserted as a unit clause."""
    if vm is None:
        vm = VarMap()
    clauses: list[list[int]] = []
    tseitin_append(f, vm, clauses)
    return CnfInstance(len(vm), clauses, vm)


# ---------------------------------------------------------------------------
# Equivalence-preserving CNF (distributive laws)
#
# Used by the naive contension baseline, which deletes all clauses that
# mention an atom; definition variables from Tseitin would break that
# 'set the atom to the paradoxical value' reading.

Clause = frozenset  # of (atom, positive) literal pairs


def to_clauses_distributive(f: Formula) -> set[Clause] | None:
    """Logically equivalent clause set over the formula's own atoms.

    Returns ``None`` when the formula is unsatisfiable by constant folding
    alone (i.e. it reduces to the constant `-`).  Tautological clauses are
    dropped, so a valid formula yields the empty set.
    """
    folded = fold_constants(reduce_connectives(f))
    if isinstance(folded, Bottom):
        return None
    if isinstance(folded, Top):
        return set()

    def nnf(node: Formula, negate: bool) -> Formula:
        if isinstance(node, Atom):
            return Not(node) if negate else node
        if isinstance(node, Not):
            return nnf(node.child, not negate)
        assert isinstance(node, (And, Or))
        left = nnf(node.left, negate)
        right = nnf(node.right, negate)
        if negate:
            return Or(left, right) if isinstance(node, And) else And(left, right)
        return type(node)(left, right)

    def clauses_of(node: Formula) -> set[Clause]:
        if isinstance(node, Atom):
            return {frozenset([(node.name, True)])}
        if isinstance(node, Not):
            assert isinstance(node.child, Atom)
            return {frozenset([(node.child.name, False)])}
        if isinstance(node, And):
            return clauses_of(node.left) | clauses_of(node.right)
        assert isinstance(node, Or)
        out = set()
        for cl in clauses_of(node.left):
            for cr in clauses_of(node.right):
                merged = cl | cr
                if not any((name, not pos) in merged for name, pos in merged):
                    out.add(merged)
        return out

    return clauses_of(nnf(folded, False))
