"""SAT encodings of the upper-bound decision problem for all six measures.

Each ``encode_*`` function builds a propositional instance that is
satisfiable exactly when the measure's value is at most the given bound
(for the hitting-set measure the bound is a block count, satisfiable iff
the value is at most ``blocks - 1``).  Called without a bound, it builds only
the rules every bound shares; a search then probes each bound through
:meth:`SatEncoding.assume`, which appends what that bound adds (counter
columns, blocks) and returns literals to assume, so the instance is encoded
once per search and only ever grows.  Called with a bound, it builds the
same and writes that bound's assumptions as unit clauses.

Construction follows a fixed shape: allocate the base signature, write the
fixed-shape rules as clauses over it, clausify the rules that embed a KB
formula with the Tseitin converter, and bound the counted literals with a
sequential counter per group, grown one register column per probed bound
(``cardinality.SequentialCounter``).  The resulting :class:`SatEncoding`
records which clause range each rule produced and the size of the base
signature (auxiliary variables excluded), so structural properties can be
checked against the per-encoding size formulas.  Every encoder accepts a
KB that :func:`prepare_kb` already prepared and then does not prepare it
again."""

from __future__ import annotations

import time
from typing import Callable

from . import cardinality
from .cnf import (
    CnfInstance,
    Lit,
    TAG_ATOM,
    TAG_BLOCK,
    TAG_COPY,
    TAG_FORGET_BOT,
    TAG_FORGET_TOP,
    TAG_HIT,
    TAG_INV,
    TAG_OCC,
    TAG_OPT,
    TAG_TRI,
    TAG_VAL,
    VarMap,
    tseitin_append,
)
from .kb import (
    And,
    Atom,
    Formula,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    Top,
    atoms_of,
    fold_constants,
    reduce_connectives,
    replace_at,
    substitute_atoms,
)
from .solver import MaxSatInstance

THREE_VALUES = ("t", "f", "b")


class PreparedKB(KnowledgeBase):
    """A KB whose formulas :func:`prepare_kb` has already reduced and folded."""


def prepare_kb(kb: KnowledgeBase) -> PreparedKB:
    """Reduce => / <=> and fold constants; the per-formula result is either
    constant-free or exactly + / -."""
    return PreparedKB(tuple(fold_constants(reduce_connectives(f)) for f in kb))


def prepared(kb: KnowledgeBase) -> PreparedKB:
    """`kb` itself if :func:`prepare_kb` made it, else its prepared form."""
    return kb if isinstance(kb, PreparedKB) else prepare_kb(kb)


class SatEncoding:
    """One measure's upper-bound instance of one KB, as tagged rules.

    It holds the rules every bound shares, and :meth:`assume` adds each
    probed bound.  :meth:`finish` given a bound writes that bound's
    assumptions as unit clauses and closes the encoding: the one-shot
    instance, satisfiable exactly when the measure's value is at most the
    bound.  ``rule_spans`` records which clause range each rule produced and
    ``base_signature_size`` counts the named variables (auxiliary ones
    excluded), so structural properties can be checked against the
    per-encoding size formulas.
    """

    def __init__(self, measure: str, cnf: CnfInstance | None = None) -> None:
        self.measure = measure
        self.cnf = cnf or CnfInstance(0, [], VarMap())
        self.base_signature_size = 0
        # (rule tag, first clause index, one past last clause index)
        self.rule_spans: list[tuple[str, int, int]] = []
        # time spent clausifying the rules that embed KB formulas
        self.cnf_transform_seconds = 0.0
        # the rule tag a bound belongs to, and what probing a bound adds; the
        # rule is handed the encoding, so it holds no reference back to it
        # and a finished encoding is freed without the cyclic collector
        self._bound_rule: tuple[str, Callable[[SatEncoding, int], list[int]]] | None = None

    @property
    def varmap(self) -> VarMap:
        return self.cnf.varmap

    def assume(self, bound: int) -> list[int]:
        """Append what probing `bound` adds to the bound-free instance and
        return the literals to assume: under them the instance is
        satisfiable exactly when the value is at most `bound`.  Clauses are
        only ever appended, so one solver engine serves every probe."""
        if self._bound_rule is None:
            raise ValueError("a one-shot encoding takes no further bounds")
        lits = self._bound_rule[1](self, bound)
        self.cnf.num_vars = len(self.varmap)
        return lits

    def assert_formula(self, tag: str, formula: Formula) -> None:
        """Tseitin-clausify a rule that embeds a KB formula."""
        start = len(self.cnf.clauses)
        begin = time.perf_counter()
        tseitin_append(formula, self.varmap, self.cnf.clauses)
        self.cnf_transform_seconds += time.perf_counter() - begin
        self._record(tag, start)

    def add_clauses(self, tag: str, clauses: list[list[int]]) -> None:
        start = len(self.cnf.clauses)
        self.cnf.clauses.extend(clauses)
        self._record(tag, start)

    def at_most(self, tag: str, groups: list[list[int]]) -> None:
        """At most the bound of each group's literals are true, a bound per
        :meth:`assume`: at most 0 makes every input false; above 0, a
        sequential counter per group grows to the bound.  A bound that no
        group exceeds in size adds nothing and assumes nothing."""
        counters = [cardinality.SequentialCounter(g, self.varmap) for g in groups]

        def assume(enc: SatEncoding, u: int) -> list[int]:
            if u == 0:
                return [-lit for g in groups for lit in g]
            lits = []
            for counter in counters:
                clauses, lit = counter.at_most(u)
                enc.add_clauses(tag, clauses)
                if lit is not None:
                    lits.append(lit)
            return lits

        self._bound_rule = (tag, assume)

    def _record(self, tag: str, start: int) -> None:
        end = len(self.cnf.clauses)
        spans = self.rule_spans
        if spans and spans[-1][0] == tag and spans[-1][2] == start:
            spans[-1] = (tag, spans[-1][1], end)
        elif end > start:
            spans.append((tag, start, end))

    def finish(self, base_size: int, bound: int | None = None) -> SatEncoding:
        """Check the base signature against its size formula; with a bound,
        make this the one-shot instance of that bound."""
        assert self.varmap.base_count() == base_size, "base signature drifted"
        if bound is not None:
            tag = self._bound_rule[0]
            self.add_clauses(tag, [[lit] for lit in self.assume(bound)])
            self._bound_rule = None
        self.base_signature_size = self.varmap.base_count()
        self.cnf.num_vars = len(self.varmap)
        return self


def _iff(a: int, b: int) -> list[list[int]]:
    return [[-a, b], [a, -b]]


def _iff_and(v: int, a: int, b: int) -> list[list[int]]:
    """v <-> a & b; with every literal negated, v <-> a | b."""
    return [[-v, a], [-v, b], [v, -a, -b]]


def _iff_neither(v: int, a: int, b: int, c: int, d: int) -> list[list[int]]:
    """v <-> !(a & b) & !c & !d."""
    return [[-v, -a, -b], [-v, -c], [-v, -d], [v, a, c, d], [v, b, c, d]]


# ---------------------------------------------------------------------------
# Contension (three-valued models with few b-assignments)


def _site_key(site) -> tuple:
    return (site.formula_index, site.path)


def encode_contension(kb: KnowledgeBase, u: int | None = None) -> SatEncoding:
    pkb = prepared(kb)
    atoms = pkb.signature()
    sites = pkb.subformula_sites()
    b = SatEncoding("contension")
    for x in atoms:  # SC1
        for v in THREE_VALUES:
            b.varmap.var((TAG_TRI, x, v))
    for site, _ in sites:  # SC2
        for v in THREE_VALUES:
            b.varmap.var((TAG_VAL, _site_key(site), v))
    base_size = 3 * len(atoms) + 3 * len(sites)

    def tri(x: str, v: str) -> int:
        return b.varmap.id_of((TAG_TRI, x, v))

    def val(site, v: str) -> int:
        return b.varmap.id_of((TAG_VAL, _site_key(site), v))

    for x in atoms:  # SC3: exactly one of X_t, X_f, X_b
        t, f, bb = tri(x, "t"), tri(x, "f"), tri(x, "b")
        b.add_clauses("SC3", [[t, f, bb], [-t, -f], [-t, -bb], [-bb, -f]])
    for site, node in sites:
        vt, vf, vb = (val(site, v) for v in THREE_VALUES)
        if isinstance(node, (And, Or)):  # SC4-SC6 / SC7-SC9
            lt, lf, _ = (val(site.child(0), v) for v in THREE_VALUES)
            rt, rf, _ = (val(site.child(1), v) for v in THREE_VALUES)
            if isinstance(node, And):
                b.add_clauses("SC4", _iff_and(vt, lt, rt))
                b.add_clauses("SC5", _iff_and(-vf, -lf, -rf))
                b.add_clauses("SC6", _iff_neither(vb, lt, rt, lf, rf))
            else:
                b.add_clauses("SC7", _iff_and(-vt, -lt, -rt))
                b.add_clauses("SC8", _iff_and(vf, lf, rf))
                b.add_clauses("SC9", _iff_neither(vb, lf, rf, lt, rt))
        elif isinstance(node, Not):  # SC10-SC12
            c = site.child(0)
            b.add_clauses("SC10", _iff(vt, val(c, "f")))
            b.add_clauses("SC11", _iff(vf, val(c, "t")))
            b.add_clauses("SC12", _iff(vb, val(c, "b")))
        elif isinstance(node, Atom):  # SC13-SC15
            b.add_clauses("SC13", _iff(vt, tri(node.name, "t")))
            b.add_clauses("SC14", _iff(vf, tri(node.name, "f")))
            b.add_clauses("SC15", _iff(vb, tri(node.name, "b")))
        else:  # whole-formula constant left by folding; fix its valuation
            top = isinstance(node, Top)
            b.add_clauses("SC-const", [[vt if top else -vt], [-vf if top else vf], [-vb]])
    for idx in range(len(pkb)):  # SC16: every KB member is t or b
        root = next(site for site, _ in sites if site.formula_index == idx and not site.path)
        b.add_clauses("SC16", [[val(root, "t"), val(root, "b")]])
    b_vars = [tri(x, "b") for x in atoms]
    b.at_most("SC17", [b_vars])
    return b.finish(base_size, u)


def encode_contension_maxsat(kb: KnowledgeBase) -> MaxSatInstance:
    """Hard clauses SC3-SC16 with one weight-1 soft unit !X_b per atom."""
    pkb = prepared(kb)
    enc = encode_contension(pkb)  # SC17 left out
    soft = [-enc.varmap.id_of((TAG_TRI, x, "b")) for x in pkb.signature()]
    return MaxSatInstance(enc.cnf, soft, enc.cnf_transform_seconds)


# ---------------------------------------------------------------------------
# Forgetting (occurrence substitution switches)


def encode_forgetting(kb: KnowledgeBase, u: int | None = None) -> SatEncoding:
    pkb = prepared(kb)
    occurrences = pkb.occurrences()
    b = SatEncoding("forgetting")
    for occ in occurrences:  # SF1-SF2
        b.varmap.var((TAG_OCC, occ.atom, occ.label))
        b.varmap.var((TAG_FORGET_TOP, occ.atom, occ.label))
        b.varmap.var((TAG_FORGET_BOT, occ.atom, occ.label))
    base_size = 3 * len(occurrences)

    def var(tag: str, occ) -> int:
        return b.varmap.id_of((tag, occ.atom, occ.label))

    # SF3: replace each occurrence X^l by (t_{X,l} | X^l) & !f_{X,l}.
    by_formula: dict[int, list] = {}
    for occ in occurrences:
        by_formula.setdefault(occ.site.formula_index, []).append(occ)
    for idx, formula in enumerate(pkb):
        substituted = formula
        for occ in by_formula.get(idx, ()):
            switch = And(
                Or(Lit(var(TAG_FORGET_TOP, occ)), Lit(var(TAG_OCC, occ))),
                Not(Lit(var(TAG_FORGET_BOT, occ))),
            )
            substituted = replace_at(substituted, occ.site.path, switch)
        b.assert_formula("SF3", substituted)
    # Occurrences of one atom that are not forgotten share its truth value.
    by_atom: dict[str, list] = {}
    for occ in occurrences:
        by_atom.setdefault(occ.atom, []).append(occ)
    for _, occs in sorted(by_atom.items()):
        for occ in occs[1:]:
            b.add_clauses("SF-link", _iff(var(TAG_OCC, occs[0]), var(TAG_OCC, occ)))
    for occ in occurrences:  # SF4
        b.add_clauses("SF4", [[-var(TAG_FORGET_TOP, occ), -var(TAG_FORGET_BOT, occ)]])
    # SF5 counts forgotten occurrences: d_{X,l} holds when either switch of
    # X^l does, and SF4 makes the two exclusive, so the count is unchanged
    # while the counter takes |Occ| inputs instead of 2 * |Occ|.
    forgotten = []
    for occ in occurrences:
        d = b.varmap.fresh_aux()
        b.add_clauses("SF5", [[-var(TAG_FORGET_TOP, occ), d], [-var(TAG_FORGET_BOT, occ), d]])
        forgotten.append(d)
    b.at_most("SF5", [forgotten])
    return b.finish(base_size, u)


# ---------------------------------------------------------------------------
# Hitting set (partition into satisfiable blocks)


def encode_hs(kb: KnowledgeBase, blocks: int | None = None) -> SatEncoding:
    """Satisfiable iff the KB partitions into `blocks` satisfiable blocks,
    i.e. iff the hitting-set value is at most blocks - 1.

    Without a block count the instance starts empty; :meth:`SatEncoding.assume`
    takes the value bound u, adds blocks up to u + 1 and puts that bound's
    SH4 clauses behind a fresh switch literal to assume.

    A block's SH3 clauses are the first block's with every variable id
    shifted: each block allocates its SH1 copies, its SH2 memberships and
    then its Tseitin auxiliaries, all in one run of ids, and no SH3 clause
    mentions a variable outside its block.  So SH3 is clausified once, for
    the first block built, and every block (the first at offset 0) appends
    those clauses shifted to its own first id.  SH4 reads each formula's
    membership variables from a list kept per formula."""
    if len(kb) == 0:
        raise ValueError("hitting-set encoding requires a non-empty KB")
    if blocks is not None and not 1 <= blocks <= len(kb):
        raise ValueError(f"block count {blocks} outside 1..{len(kb)}")
    pkb = prepared(kb)
    atoms = pkb.signature()
    b = SatEncoding("hitting-set")
    member: list[list[int]] = [[] for _ in pkb]  # SH2 variables by formula, block-major
    # SH3 of the first block built, its first variable id and its width in ids
    template: list[list[int]] = []
    first_id = width = 0

    def add_block(enc: SatEncoding, i: int) -> None:
        nonlocal first_id, width
        vm = enc.varmap
        start = len(vm) + 1
        for x in atoms:  # SH1
            vm.var((TAG_COPY, x, i))
        for idx in range(len(pkb)):  # SH2
            member[idx].append(vm.var((TAG_BLOCK, idx, i)))
        if not width:  # SH3, clausified once
            begin = time.perf_counter()
            for idx, formula in enumerate(pkb):
                copy = substitute_atoms(formula, lambda x: Lit(vm.id_of((TAG_COPY, x, i))))
                tseitin_append(Implies(Lit(member[idx][-1]), copy), vm, template)
            enc.cnf_transform_seconds += time.perf_counter() - begin
            first_id, width = start, len(vm) + 1 - start
        while len(vm) + 1 < start + width:  # the block's Tseitin auxiliaries
            vm.fresh_aux()
        shift = start - first_id
        enc.add_clauses("SH3", [
            [lit + shift if lit > 0 else lit - shift for lit in clause] for clause in template
        ])

    built = 0

    def assume(enc: SatEncoding, u: int) -> list[int]:
        nonlocal built
        while built <= u:
            built += 1
            add_block(enc, built)
        switch = enc.varmap.fresh_aux()
        enc.add_clauses("SH4", [  # every formula in one of the u + 1 blocks
            blocks_of[:u + 1] + [-switch] for blocks_of in member
        ])
        return [switch]

    b._bound_rule = ("SH4", assume)
    return b.finish(0, None if blocks is None else blocks - 1)


# ---------------------------------------------------------------------------
# Max- and sum-distance (chosen world plus per-formula witness worlds)


def _encode_distance_common(
    kb: KnowledgeBase, u: int | None, per_formula_bound: bool
) -> SatEncoding:
    tags = "SDM" if per_formula_bound else "SDS"
    pkb = prepared(kb)
    atoms = pkb.signature()
    n = len(pkb)
    b = SatEncoding("max-distance" if per_formula_bound else "sum-distance")
    for x in atoms:  # SDM1/SDS1
        b.varmap.var((TAG_OPT, x))
    for x in atoms:  # SDM2-SDM3 / SDS2-SDS3
        for i in range(1, n + 1):
            b.varmap.var((TAG_COPY, x, i))
            b.varmap.var((TAG_INV, x, i))
    base_size = len(atoms) + 2 * n * len(atoms)
    for idx, formula in enumerate(pkb):  # SDM4/SDS4: assert the i-th copy
        i = idx + 1
        copy = substitute_atoms(formula, lambda x, i=i: Lit(b.varmap.id_of((TAG_COPY, x, i))))
        b.assert_formula(f"{tags}4", copy)
    for x in atoms:  # SDM5-SDM6 / SDS5-SDS6: xi != xo implies inv
        xo = b.varmap.id_of((TAG_OPT, x))
        for i in range(1, n + 1):
            xi = b.varmap.id_of((TAG_COPY, x, i))
            inv = b.varmap.id_of((TAG_INV, x, i))
            b.add_clauses(f"{tags}5", [[-xi, xo, inv]])
            b.add_clauses(f"{tags}6", [[xi, -xo, inv]])
    # SDM7/SDS7 count inv(x, i) only for the atoms x that the i-th formula
    # mentions: a copy of any other atom can take xo's value without changing
    # the formula's truth, so its inv never needs to be true.
    groups = [
        [b.varmap.id_of((TAG_INV, x, idx + 1)) for x in sorted(atoms_of(formula))]
        for idx, formula in enumerate(pkb)
    ]
    if per_formula_bound:  # SDM7: one bound per formula index
        b.at_most("SDM7", groups)
    else:  # SDS7: one global bound, formula-major
        b.at_most("SDS7", [[lit for g in groups for lit in g]])
    return b.finish(base_size, u)


def encode_dmax(kb: KnowledgeBase, u: int | None = None) -> SatEncoding:
    return _encode_distance_common(kb, u, True)


def encode_dsum(kb: KnowledgeBase, u: int | None = None) -> SatEncoding:
    return _encode_distance_common(kb, u, False)


# ---------------------------------------------------------------------------
# Hit-distance (drop few formulas)


def encode_dhit(kb: KnowledgeBase, u: int | None = None) -> SatEncoding:
    pkb = prepared(kb)
    atoms = pkb.signature()
    b = SatEncoding("hit-distance")
    for idx in range(len(pkb)):  # SDH1
        b.varmap.var((TAG_HIT, idx))
    for x in atoms:  # SDH2
        b.varmap.var((TAG_ATOM, x))
    base_size = len(atoms) + len(pkb)
    for idx, formula in enumerate(pkb):  # SDH3
        # Atom leaves clausify to the (atom, x) variables allocated above.
        b.assert_formula("SDH3", Or(formula, Lit(b.varmap.id_of((TAG_HIT, idx)))))
    hit_vars = [b.varmap.id_of((TAG_HIT, idx)) for idx in range(len(pkb))]
    b.at_most("SDH4", [hit_vars])
    return b.finish(base_size, u)


# ---------------------------------------------------------------------------
# Dispatch helpers


def expected_base_size(measure: str, kb: KnowledgeBase, bound: int | None = None) -> int:
    """The per-encoding signature-size formula, on the prepared KB."""
    pkb = prepared(kb)
    n_atoms = len(pkb.signature())
    if measure == "contension":
        return 3 * n_atoms + 3 * len(pkb.subformula_sites())
    if measure == "forgetting":
        return 3 * len(pkb.occurrences())
    if measure == "hitting-set":
        assert bound is not None
        return bound * (n_atoms + len(pkb))
    if measure in ("max-distance", "sum-distance"):
        return n_atoms + 2 * len(pkb) * n_atoms
    if measure == "hit-distance":
        return n_atoms + len(pkb)
    raise ValueError(f"unknown measure {measure!r}")


def encode(measure: str, kb: KnowledgeBase, bound: int | None = None) -> SatEncoding:
    """Build the upper-bound encoding; for hitting-set, `bound` is the value
    and the instance uses `bound + 1` blocks.  Without a bound, the result
    holds the bound-free rules and takes each bound by
    :meth:`SatEncoding.assume`."""
    if measure == "contension":
        return encode_contension(kb, bound)
    if measure == "forgetting":
        return encode_forgetting(kb, bound)
    if measure == "hitting-set":
        return encode_hs(kb, None if bound is None else bound + 1)
    if measure == "max-distance":
        return encode_dmax(kb, bound)
    if measure == "sum-distance":
        return encode_dsum(kb, bound)
    if measure == "hit-distance":
        return encode_dhit(kb, bound)
    raise ValueError(f"unknown measure {measure!r}")
