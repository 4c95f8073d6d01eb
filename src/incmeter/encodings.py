"""SAT encodings of the upper-bound decision problem for all six measures.

Each ``encode_*`` function builds a propositional instance that is
satisfiable exactly when the measure's value is at most the given bound
(for the hitting-set measure the bound is a block count, satisfiable iff
the value is at most ``blocks - 1``).  Called without a bound, it builds only
the rules every bound shares; a search then probes each bound through
:meth:`SatEncoding.assume`, which appends what that bound adds (counter
registers, blocks) and returns literals to assume, so the instance is encoded
once per search and only ever grows.  Called with a bound, it builds the
same and writes that bound's assumptions as unit clauses.

Construction follows a fixed shape: allocate the base signature, write the
fixed-shape rules as clauses over the ids that allocation returned, clausify
the rules that embed a KB formula (SF3, SH3, SDM4/SDS4, SDH3) with the
Tseitin converter straight from the prepared formula, its atom leaves
mapped through a leaf map to the literals the rule puts there (an atom's
copy, an occurrence's value in reading order, the atom itself), and bound
each counted sum with one ``cardinality.SumCounter`` grown to each probed
bound: a sequential counter when the sum has one part, and for the sums
over formulas (SDS7, SF5) a sequential counter per formula merged up a
tree.  No substituted copy of a formula is built.  Forgetting gives each
atom occurrence one variable, the value it takes after forgetting, so its
formulas embed no per-occurrence subformula.  The resulting :class:`SatEncoding`
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
)
from .solver import MaxSatInstance

THREE_VALUES = ("t", "f", "b")


class EncodingError(ValueError):
    """An encoding broke one of its size formulas, or a size formula was
    asked for without what it depends on."""


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
        # Literals each of which, once the clauses force it false, makes
        # every bound unsatisfiable (for hitting-set, the memberships each
        # formula may take): a search is then settled on assuming it.
        self.settling: list[int] = []
        # the literals :meth:`at_most` bounds, over all its sums
        self._counted: list[int] = []

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

    def assert_formula(self, tag: str, formula: Formula,
                       leaf: Callable[[str], int] | None = None) -> None:
        """Tseitin-clausify a rule that embeds a KB formula, its atom leaves
        through the leaf map `leaf` (see :func:`cnf.tseitin_append`)."""
        clauses: list[list[int]] = []
        begin = time.perf_counter()
        tseitin_append(formula, self.varmap, clauses, leaf)
        self.cnf_transform_seconds += time.perf_counter() - begin
        self.add_clauses(tag, clauses)

    def add_clauses(self, tag: str, clauses: list[list[int]]) -> None:
        """Append `clauses` as rule `tag`, extending the last span if it is
        the same rule's and ends here."""
        cnf_clauses = self.cnf.clauses
        start = len(cnf_clauses)
        cnf_clauses.extend(clauses)
        end = len(cnf_clauses)
        spans = self.rule_spans
        if spans and spans[-1][0] == tag and spans[-1][2] == start:
            spans[-1] = (tag, spans[-1][1], end)
        elif end > start:
            spans.append((tag, start, end))

    def at_most(self, tag: str, sums: list[list[list[int]]]) -> None:
        """At most the bound of each sum's literals are true, a bound per
        :meth:`assume`.  A sum is a list of parts, each a list of literals:
        at most 0 makes every input false; above 0, a
        ``cardinality.SumCounter`` per sum grows to the bound (a one-part
        sum is that part's sequential counter).  A bound that no sum exceeds
        in size adds nothing and assumes nothing."""
        counters = [cardinality.SumCounter(parts, self.varmap) for parts in sums]
        counted = self._counted = [lit for parts in sums for part in parts for lit in part]

        def assume(enc: SatEncoding, u: int) -> list[int]:
            if u == 0:
                return [-lit for lit in counted]
            lits = []
            for counter in counters:
                clauses, lit = counter.at_most(u)
                enc.add_clauses(tag, clauses)
                if lit is not None:
                    lits.append(lit)
            return lits

        self._bound_rule = (tag, assume)

    def count(self, model: dict[int, bool]) -> int:
        """How many literals that :meth:`at_most` bounds `model` makes true.
        Under the assumptions of bound u a one-sum encoding's count is at
        most u, so a model is worth its count: MaxSAT's violated soft units,
        contension's b-assigned atoms (SC17)."""
        return sum(model[abs(lit)] == (lit > 0) for lit in self._counted)

    def finish(self, base_size: int, bound: int | None = None) -> SatEncoding:
        """With a bound, make this the one-shot instance of that bound; then
        check the base signature, the bound's named variables included,
        against its size formula."""
        if bound is not None:
            tag = self._bound_rule[0]
            self.add_clauses(tag, [[lit] for lit in self.assume(bound)])
            self._bound_rule = None
        count = self.varmap.base_count()
        if count != base_size:
            raise EncodingError(
                f"base signature drifted: {count} named variables, "
                f"the size formula gives {base_size}")
        self.base_signature_size = count
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


def encode_contension(kb: KnowledgeBase, u: int | None = None) -> SatEncoding:
    """Site k of ``subformula_sites`` (pre-order within each formula) has its
    t, f and b valuations at ids first + 3k, + 1 and + 2, in SC2's order; a
    Not's child is site k + 1, and a binary node's right child sits past its
    left child's subtree."""
    pkb = prepared(kb)
    atoms = pkb.signature()
    sites = pkb.subformula_sites()
    b = SatEncoding("contension")
    vm = b.varmap
    tri = {x: [vm.var((TAG_TRI, x, v)) for v in THREE_VALUES] for x in atoms}  # SC1
    first = len(vm) + 1
    for site, _ in sites:  # SC2
        key = (site.formula_index, site.path)
        for v in THREE_VALUES:
            vm.var((TAG_VAL, key, v))
    base_size = 3 * len(atoms) + 3 * len(sites)
    size = [1] * len(sites)  # subtree sizes, children before parents
    for k in range(len(sites) - 1, -1, -1):
        node = sites[k][1]
        if isinstance(node, Not):
            size[k] += size[k + 1]
        elif isinstance(node, (And, Or)):
            size[k] += size[k + 1] + size[k + 1 + size[k + 1]]

    for t, f, bb in tri.values():  # SC3: exactly one of X_t, X_f, X_b
        b.add_clauses("SC3", [[t, f, bb], [-t, -f], [-t, -bb], [-bb, -f]])
    roots = []
    for k, (site, node) in enumerate(sites):
        vt = first + 3 * k
        vf, vb = vt + 1, vt + 2
        if not site.path:
            roots.append(vt)
        if isinstance(node, (And, Or)):  # SC4-SC6 / SC7-SC9
            lt = vt + 3
            rt = first + 3 * (k + 1 + size[k + 1])
            lf, rf = lt + 1, rt + 1
            if isinstance(node, And):
                b.add_clauses("SC4", _iff_and(vt, lt, rt))
                b.add_clauses("SC5", _iff_and(-vf, -lf, -rf))
                b.add_clauses("SC6", _iff_neither(vb, lt, rt, lf, rf))
            else:
                b.add_clauses("SC7", _iff_and(-vt, -lt, -rt))
                b.add_clauses("SC8", _iff_and(vf, lf, rf))
                b.add_clauses("SC9", _iff_neither(vb, lf, rf, lt, rt))
        elif isinstance(node, Not):  # SC10-SC12
            ct = vt + 3
            b.add_clauses("SC10", _iff(vt, ct + 1))
            b.add_clauses("SC11", _iff(vf, ct))
            b.add_clauses("SC12", _iff(vb, ct + 2))
        elif isinstance(node, Atom):  # SC13-SC15
            t, f, bb = tri[node.name]
            b.add_clauses("SC13", _iff(vt, t))
            b.add_clauses("SC14", _iff(vf, f))
            b.add_clauses("SC15", _iff(vb, bb))
        else:  # whole-formula constant left by folding; fix its valuation
            top = isinstance(node, Top)
            b.add_clauses("SC-const", [[vt if top else -vt], [-vf if top else vf], [-vb]])
    for vt in roots:  # SC16: every KB member is t or b
        b.add_clauses("SC16", [[vt, vt + 2]])
    b.at_most("SC17", [[[bb for _, _, bb in tri.values()]]])
    return b.finish(base_size, u)


def encode_contension_maxsat(kb: KnowledgeBase) -> MaxSatInstance:
    """Hard clauses SC3-SC16 with one weight-1 soft unit !X_b per atom."""
    pkb = prepared(kb)
    enc = encode_contension(pkb)  # SC17 left out
    soft = [-enc.varmap.id_of((TAG_TRI, x, "b")) for x in pkb.signature()]
    return MaxSatInstance(enc.cnf, soft, enc.cnf_transform_seconds)


# ---------------------------------------------------------------------------
# Forgetting (occurrence values and switches)


def encode_forgetting(kb: KnowledgeBase, u: int | None = None) -> SatEncoding:
    """Satisfiable iff forgetting at most `u` occurrences makes the KB
    consistent.  ``(occ, X, l)`` is the value occurrence X^l takes after
    forgetting, and SF3 asserts each formula with X^l replaced by it.  Each
    atom X has one auxiliary world variable w_X; SF-world forgets every
    occurrence whose value differs from w_X, as + (t_{X,l}) if the value is
    true and as - (f_{X,l}) if false.

    Both directions hold.  A model forgets at most the occurrences whose d
    SF5 counts, since the value of every other occurrence is w_X's.  A
    forgetting of at most `u` occurrences with model w extends to a model:
    set each forgotten occurrence to its constant and each other to w(X)."""
    pkb = prepared(kb)
    occurrences = pkb.occurrences()
    b = SatEncoding("forgetting")
    vm = b.varmap
    value, top, bot = [], [], []
    for occ in occurrences:  # SF1-SF2
        value.append(vm.var((TAG_OCC, occ.atom, occ.label)))
        top.append(vm.var((TAG_FORGET_TOP, occ.atom, occ.label)))
        bot.append(vm.var((TAG_FORGET_BOT, occ.atom, occ.label)))
    base_size = 3 * len(occurrences)
    # SF3 meets the atom leaves in reading order, the order of `occurrences`
    values = iter(value)
    for formula in pkb:
        b.assert_formula("SF3", formula, lambda _atom: next(values))
    world = {x: vm.fresh_aux() for x in pkb.signature()}
    b.add_clauses("SF-world", [  # a value off the world is forgotten
        clause
        for occ, o, t, f in zip(occurrences, value, top, bot)
        for clause in ([-o, world[occ.atom], t], [o, -world[occ.atom], f])
    ])
    b.add_clauses("SF4", [[-t, -f] for t, f in zip(top, bot)])
    # SF5 counts forgotten occurrences: d_{X,l} holds when either switch of
    # X^l does, and SF4 makes the two exclusive, so the count is unchanged
    # while the counter takes |Occ| inputs instead of 2 * |Occ|; one part
    # per formula.
    by_formula: list[list[int]] = [[] for _ in pkb]
    for j, occ in enumerate(occurrences):
        by_formula[occ.site.formula_index].append(j)
    forgotten = []
    for js in by_formula:
        part = [vm.fresh_aux() for _ in js]
        b.add_clauses("SF5", [
            clause for j, d in zip(js, part) for clause in ([-top[j], d], [-bot[j], d])
        ])
        forgotten.append(part)
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

    The blocks are ordered to break their symmetry: formula idx (from 0) may
    only join blocks 1..idx + 1, so block b fixes the membership of every
    formula before b - 1 false by an ``SH-order`` unit.  This keeps every
    value: drop repeated memberships from a cover and number its blocks by
    their lowest member, and each formula idx sits in a block b <= idx + 1.
    So block b needs SH3 only for formulas b - 1 onwards, and at bound u the
    SH4 clause of formula idx lists blocks 1..min(u, idx) + 1 only.  Every
    block still allocates all its SH1 copies and SH2 memberships, so the base
    signature is unchanged.

    A block's SH3 clauses are a prefix of block 1's with every variable id
    shifted: each block allocates its SH1 copies, its SH2 memberships and
    then the Tseitin auxiliaries of its formulas from the last down to b - 1,
    all in one run of ids, and no SH3 clause mentions a variable outside its
    block.  So SH3 is clausified once, for block 1 (always built first), and
    every block (block 1 at offset 0) appends the part for formulas b - 1
    onwards shifted to its own first id.  SH4 reads each formula's membership
    variables from a list kept per formula.

    The memberships each formula may take (block b <= idx + 1) are the
    encoding's ``settling`` literals.  If formula idx has a model w, the
    clauses have a model with any one of them true: every SH4 switch false,
    every other membership false, that block's atom copies w and each Tseitin
    auxiliary its subformula's value.  So once the clauses force one false,
    formula idx is unsatisfiable and no block count is.  A membership that
    ``SH-order`` fixes false says nothing of its formula and is not one."""
    if len(kb) == 0:
        raise ValueError("hitting-set encoding requires a non-empty KB")
    if blocks is not None and not 1 <= blocks <= len(kb):
        raise ValueError(f"block count {blocks} outside 1..{len(kb)}")
    pkb = prepared(kb)
    atoms = pkb.signature()
    b = SatEncoding("hitting-set")
    member: list[list[int]] = [[] for _ in pkb]  # SH2 variables by formula, block-major
    # SH3 of block 1, formulas last to first; for each formula idx, the number
    # of those clauses and the width in ids that formulas idx onwards take
    template: list[list[int]] = []
    clauses_from = [0] * len(pkb)
    width_from = [0] * len(pkb)

    def add_block(enc: SatEncoding, i: int) -> None:
        vm = enc.varmap
        start = len(vm) + 1
        copies = {x: vm.var((TAG_COPY, x, i)) for x in atoms}  # SH1
        for idx in range(len(pkb)):  # SH2
            member[idx].append(vm.var((TAG_BLOCK, idx, i)))
        enc.add_clauses("SH-order", [[-member[idx][-1]] for idx in range(i - 1)])
        enc.settling += [member[idx][-1] for idx in range(i - 1, len(pkb))]
        if i == 1:  # SH3, clausified once
            begin = time.perf_counter()
            for idx, formula in reversed(list(enumerate(pkb))):
                tseitin_append(Implies(Lit(member[idx][0]), formula), vm, template,
                               copies.__getitem__)
                clauses_from[idx], width_from[idx] = len(template), len(vm) + 1 - start
            enc.cnf_transform_seconds += time.perf_counter() - begin
        while len(vm) + 1 < start + width_from[i - 1]:  # the live Tseitin auxiliaries
            vm.fresh_aux()
        shift = start - 1  # block 1 starts the instance
        enc.add_clauses("SH3", [
            [lit + shift if lit > 0 else lit - shift for lit in clause]
            for clause in template[:clauses_from[i - 1]]
        ])

    built = 0

    def assume(enc: SatEncoding, u: int) -> list[int]:
        nonlocal built
        while built <= u:
            built += 1
            add_block(enc, built)
        switch = enc.varmap.fresh_aux()
        enc.add_clauses("SH4", [  # every formula in one of its first u + 1 blocks
            blocks_of[:min(u, idx) + 1] + [-switch] for idx, blocks_of in enumerate(member)
        ])
        return [switch]

    b._bound_rule = ("SH4", assume)
    if blocks is None:
        return b.finish(0)
    return b.finish(blocks * (len(atoms) + len(pkb)), blocks - 1)


# ---------------------------------------------------------------------------
# Max- and sum-distance (chosen world plus per-formula witness worlds)


def _encode_distance_common(
    kb: KnowledgeBase, u: int | None, per_formula_bound: bool
) -> SatEncoding:
    """Max-distance (one bound per formula) or sum-distance (one bound over
    all formulas): a chosen world xo, a copy x_i of the signature per formula
    that satisfies the i-th formula (SDM4/SDS4), and inv(x, i) set wherever
    x_i differs from xo (SDM5-6/SDS5-6), counted by SDM7/SDS7.

    A pair (x, i) whose atom the i-th formula does not mention gets the units
    !x_i and !inv(x, i) (``SDM-free``/``SDS-free``) in place of SDM5-6: x_i
    can always take xo's value without changing the formula's truth, so
    fixing both false keeps every value, and the engine sets them once at
    level 0 instead of deciding them on every call.  The copy of such an
    atom is therefore no part of a witness: read the i-th formula's model
    on the atoms it mentions only.  Every copy and inv variable is still
    allocated, so the base signature is unchanged."""
    tags = "SDM" if per_formula_bound else "SDS"
    pkb = prepared(kb)
    atoms = pkb.signature()
    n = len(pkb)
    b = SatEncoding("max-distance" if per_formula_bound else "sum-distance")
    vm = b.varmap
    opt = [vm.var((TAG_OPT, x)) for x in atoms]  # SDM1/SDS1
    copies: list[dict[str, int]] = [{} for _ in pkb]  # x_i, by index from 0
    invs: list[dict[str, int]] = [{} for _ in pkb]
    for x in atoms:  # SDM2-SDM3 / SDS2-SDS3
        for i in range(n):
            copies[i][x] = vm.var((TAG_COPY, x, i + 1))
            invs[i][x] = vm.var((TAG_INV, x, i + 1))
    base_size = len(atoms) + 2 * n * len(atoms)
    for formula, copy in zip(pkb, copies):  # SDM4/SDS4: assert the i-th copy
        b.assert_formula(f"{tags}4", formula, copy.__getitem__)
    mentioned = [atoms_of(formula) for formula in pkb]
    for x, xo in zip(atoms, opt):  # SDM5-SDM6 / SDS5-SDS6: xi != xo implies inv
        for i in range(n):
            xi, inv = copies[i][x], invs[i][x]
            if x in mentioned[i]:
                b.add_clauses(f"{tags}5", [[-xi, xo, inv]])
                b.add_clauses(f"{tags}6", [[xi, -xo, inv]])
            else:  # the i-th formula ignores xi: fix the pair at level 0
                b.add_clauses(f"{tags}-free", [[-xi], [-inv]])
    # SDM7/SDS7 count inv(x, i) only for the atoms x that the i-th formula
    # mentions: the inv of any other atom is fixed false above.
    groups = [[inv[x] for x in sorted(atoms_i)] for inv, atoms_i in zip(invs, mentioned)]
    if per_formula_bound:  # SDM7: one bound per formula index
        b.at_most("SDM7", [[g] for g in groups])
    else:  # SDS7: one bound on the sum of the per-formula counts
        b.at_most("SDS7", [groups])
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
    vm = b.varmap
    hits = [vm.var((TAG_HIT, idx)) for idx in range(len(pkb))]  # SDH1
    atom_ids = {x: vm.var((TAG_ATOM, x)) for x in atoms}  # SDH2
    base_size = len(atoms) + len(pkb)
    for formula, hit in zip(pkb, hits):  # SDH3
        b.assert_formula("SDH3", Or(formula, Lit(hit)), atom_ids.__getitem__)
    b.at_most("SDH4", [[hits]])
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
        if bound is None:
            raise EncodingError("the hitting-set base signature needs a block count")
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
