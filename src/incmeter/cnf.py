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
        self._by_id: dict[int, VarName] = {}  # rebuilt by name_of when stale
        self._top = top

    def __len__(self) -> int:
        return self._top

    def var(self, name: VarName) -> int:
        """Return the id for `name`, allocating a fresh variable if needed."""
        vid = self._by_name.get(name)
        return self.run([name])[0] if vid is None else vid

    def run(self, names: list[VarName]) -> range:
        """Allocate a named-variable family as one run of fresh ids, `names`
        in order, and return the run: one dict update, after which a rule
        finds each id by arithmetic on the run.  A name taken already, or
        twice, raises (the map is then unusable): one length check of the
        name index after the update detects it."""
        ids = range(self._top + 1, self._top + 1 + len(names))
        expected = len(self._by_name) + len(names)
        self._by_name.update(zip(names, ids))
        if len(self._by_name) != expected:
            raise ValueError("a variable name in the run is taken already")
        self._top = ids.stop - 1
        return ids

    def fresh_aux(self) -> int:
        self._top += 1
        return self._top

    def id_of(self, name: VarName) -> int:
        return self._by_name[name]

    def name_of(self, vid: int) -> VarName:
        if not 1 <= vid <= self._top:
            raise KeyError(vid)
        if len(self._by_id) != len(self._by_name):
            self._by_id = {v: name for name, v in self._by_name.items()}
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


def _emit(clauses: list[list[int]], clause: list[int]) -> None:
    """Append `clause` without repeated literals, or nothing if a tautology."""
    deduped = list(dict.fromkeys(clause))
    if not any(-lit in deduped for lit in deduped):
        clauses.append(deduped)


def _define(node: Formula, vm: VarMap, clauses: list[list[int]],
            leaf: Callable[[str], int], const: list[int]) -> int:
    """The literal that equals `node`: a leaf's own, or a fresh variable
    defined by a full biconditional per connective, children first."""
    kind = type(node)
    if kind is Atom:
        return leaf(node.name)
    if kind is Not:
        return -_define(node.child, vm, clauses, leaf, const)
    if kind is Lit:
        return node.lit
    if kind is Top or kind is Bottom:
        if not const:  # one variable, true by a unit, serves every constant
            const.append(vm.fresh_aux())
            clauses.append([const[0]])
        return const[0] if kind is Top else -const[0]
    left, right = node.left, node.right
    a = leaf(left.name) if type(left) is Atom else _define(left, vm, clauses, leaf, const)
    b = leaf(right.name) if type(right) is Atom else _define(right, vm, clauses, leaf, const)
    v = vm.fresh_aux()
    if kind is And:
        gate = ([-v, a], [-v, b], [v, -a, -b])
    elif kind is Or:
        gate = ([-v, a, b], [v, -a], [v, -b])
    elif kind is Implies:
        gate = ([-v, -a, b], [v, a], [v, -b])
    else:
        assert kind is Iff
        gate = ([-v, -a, b], [-v, a, -b], [v, a, b], [v, -a, -b])
    if a == b or a == -b:  # v is fresh, so only a and b can repeat a variable
        for clause in gate:
            _emit(clauses, clause)
    else:
        clauses += gate
    return v


def tseitin_append(f: Formula, vm: VarMap, clauses: list[list[int]],
                   leaf: Callable[[str], int] | None = None) -> None:
    """Append clauses equisatisfiable with asserting `f` to `clauses`.

    :class:`Lit` leaves are their own literals.  An :class:`Atom` leaf is the
    literal that the leaf map `leaf` gives for its name, by default the
    variable named ``(atom, name)`` in `vm`.  The map is called once per
    Atom leaf, in reading order (left to right), so it may hand out one
    literal per occurrence instead of one per atom; every literal a leaf
    stands for must be a variable of `vm` already.  Every internal
    connective below the top level gets an auxiliary variable constrained by
    a full biconditional (no polarity optimization); negation is folded into
    literal signs.  Repeated literals are dropped from a clause, and a
    tautological clause is not appended.  The gates are written by a
    module-level recursive function and the asserted top level is walked by
    a loop, not by nested closures, so a call leaves no reference cycle.
    """
    leaf = leaf or (lambda name: vm.var((TAG_ATOM, name)))
    const: list[int] = []  # the variable true by a unit, once a constant needs it
    # Standard top-level extraction: asserted conjunctions split into their
    # conjuncts, asserted disjunctions/implications become a single clause
    # over their disjuncts' literals, asserted biconditionals become two
    # clauses.  Everything below the top level is definitional.
    todo = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is And:
            todo += (node.right, node.left)
        elif kind is Or or kind is Implies:
            clause: list[int] = []
            stack = [node]
            while stack:
                cur = stack.pop()
                cur_kind = type(cur)
                if cur_kind is Or:
                    stack += (cur.right, cur.left)
                elif cur_kind is Implies:
                    stack += (cur.right, Not(cur.left))
                elif cur_kind is Not and type(cur.child) is Not:
                    stack.append(cur.child.child)
                else:
                    clause.append(_define(cur, vm, clauses, leaf, const))
            _emit(clauses, clause)
        elif kind is Iff:
            a = _define(node.left, vm, clauses, leaf, const)
            b = _define(node.right, vm, clauses, leaf, const)
            if a != b:
                _emit(clauses, [-a, b])
                _emit(clauses, [a, -b])
        else:
            clauses.append([_define(node, vm, clauses, leaf, const)])


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
    folded = fold_constants(f)
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
