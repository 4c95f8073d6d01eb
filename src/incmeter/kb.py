"""Propositional core: formula AST, knowledge bases, parsing, evaluation.

A knowledge base is an ordered sequence of formulas (duplicates are kept;
several encodings index formulas by position).  Formulas are immutable
trees built from atoms, the constants `+` / `-`, and the connectives
``!``, ``&&``, ``||``, ``=>``, ``<=>``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping


# ---------------------------------------------------------------------------
# Formula AST


class Formula:
    """Base class for formula nodes. All nodes are immutable and hashable."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


TOP = Top()
BOTTOM = Bottom()

_BINARY = (And, Or, Implies, Iff)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    return ()


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    return 1 + sum(formula_size(c) for c in children(f))


def atoms_of(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    out: set[str] = set()
    for c in children(f):
        out |= atoms_of(c)
    return out


# ---------------------------------------------------------------------------
# Sites and occurrences
#
# A site addresses one syntactic position inside a knowledge base: the
# index of the hosting formula plus the child-index path from its root
# (0 = left/only child, 1 = right child).  Structurally equal subformulas
# at different positions are distinct sites.


@dataclass(frozen=True, slots=True)
class Site:
    formula_index: int
    path: tuple[int, ...]

    def child(self, i: int) -> "Site":
        return Site(self.formula_index, self.path + (i,))


@dataclass(frozen=True, slots=True)
class AtomOccurrence:
    """The label-th occurrence of an atom, counted KB-wide in reading order."""

    atom: str
    label: int
    site: Site


def subformula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    node = f
    for i in path:
        kids = children(node)
        if i >= len(kids):
            raise ValueError(f"invalid path {path!r}")
        node = kids[i]
    return node


def replace_at(f: Formula, path: tuple[int, ...], replacement: Formula) -> Formula:
    """Return a copy of `f` with the subformula at `path` swapped out."""
    if not path:
        return replacement
    i, rest = path[0], path[1:]
    kids = children(f)
    if i >= len(kids):
        raise ValueError(f"invalid path {path!r}")
    new_child = replace_at(kids[i], rest, replacement)
    if isinstance(f, Not):
        return Not(new_child)
    assert isinstance(f, _BINARY)
    pair = (new_child, f.right) if i == 0 else (f.left, new_child)
    return type(f)(*pair)


# ---------------------------------------------------------------------------
# Knowledge base


@dataclass(frozen=True)
class KnowledgeBase:
    formulas: tuple[Formula, ...] = ()
    _sig: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        names: set[str] = set()
        for f in self.formulas:
            names |= atoms_of(f)
        object.__setattr__(self, "_sig", tuple(sorted(names)))

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)

    def signature(self) -> tuple[str, ...]:
        """Atoms occurring in the KB, lexicographically sorted."""
        return self._sig

    def subformula_sites(self) -> list[tuple[Site, Formula]]:
        """All subformula sites in formula order, pre-order within a formula."""
        out: list[tuple[Site, Formula]] = []

        def walk(node: Formula, site: Site) -> None:
            out.append((site, node))
            for i, c in enumerate(children(node)):
                walk(c, site.child(i))

        for idx, f in enumerate(self.formulas):
            walk(f, Site(idx, ()))
        return out

    def occurrences(self) -> list[AtomOccurrence]:
        """Atom occurrences in reading order; labels count per atom, KB-wide."""
        counts: dict[str, int] = {}
        out: list[AtomOccurrence] = []
        for site, node in self.subformula_sites():
            if isinstance(node, Atom):
                counts[node.name] = counts.get(node.name, 0) + 1
                out.append(AtomOccurrence(node.name, counts[node.name], site))
        return out

    def count_occurrences(self, atom: str) -> int:
        return count_occurrences(atom, self)

    def to_text(self) -> str:
        return "".join(format_formula(f) + "\n" for f in self.formulas)


def count_occurrences(atom: str, scope: Formula | KnowledgeBase) -> int:
    """Multiplicity of `atom` in a formula or across a whole KB."""
    if isinstance(scope, KnowledgeBase):
        return sum(count_occurrences(atom, f) for f in scope)
    if isinstance(scope, Atom):
        return 1 if scope.name == atom else 0
    return sum(count_occurrences(atom, c) for c in children(scope))


# ---------------------------------------------------------------------------
# Parser
#
# Grammar (one formula per non-comment line, `#` comments):
#   iff     := implies ("<=>" iff)?
#   implies := or ("=>" implies)?
#   or      := and ("||" or)?
#   and     := unary ("&&" and)?
#   unary   := "!" unary | "(" iff ")" | "+" | "-" | IDENT
# All binary operators are right-associative;
# precedence ! > && > || > => > <=>.

_TOKEN_RE = re.compile(
    r"[ \t\r]+|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=>|=>|&&|\|\||[!()+-])"
)


class KbSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize(text: str, line_no: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise KbSyntaxError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos + 1))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group(), pos + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> KbSyntaxError:
        return KbSyntaxError(message, self.line_no, self.peek()[2])

    def expect_op(self, op: str) -> None:
        kind, text, _ = self.peek()
        if kind != "op" or text != op:
            raise self.error(f"expected {op!r}")
        self.take()

    def at_op(self, op: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text == op

    def parse_formula(self) -> Formula:
        f = self.parse_iff()
        if self.peek()[0] != "eof":
            raise self.error(f"unexpected token {self.peek()[1]!r}")
        return f

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.at_op("<=>"):
            self.take()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.at_op("=>"):
            self.take()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        if self.at_op("||"):
            self.take()
            return Or(left, self.parse_or())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        if self.at_op("&&"):
            self.take()
            return And(left, self.parse_and())
        return left

    def parse_unary(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "op" and text == "!":
            self.take()
            return Not(self.parse_unary())
        if kind == "op" and text == "(":
            self.take()
            f = self.parse_iff()
            self.expect_op(")")
            return f
        if kind == "op" and text == "+":
            self.take()
            return TOP
        if kind == "op" and text == "-":
            self.take()
            return BOTTOM
        if kind == "ident":
            self.take()
            return Atom(text)
        raise self.error("expected a formula")


def parse_formula(text: str, line_no: int = 1) -> Formula:
    return _Parser(_tokenize(text, line_no), line_no).parse_formula()


def parse_kb(text: str) -> KnowledgeBase:
    """Parse KB text, one formula per non-comment line. Empty input is valid."""
    formulas = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        formulas.append(parse_formula(line, line_no))
    return KnowledgeBase(tuple(formulas))


def load_kb(path: str) -> KnowledgeBase:
    with open(path, encoding="utf-8") as handle:
        return parse_kb(handle.read())


# ---------------------------------------------------------------------------
# Printing

_PRECEDENCE = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}
_OP_TEXT = {Iff: "<=>", Implies: "=>", Or: "||", And: "&&"}


def format_formula(f: Formula) -> str:
    """Render in the KB surface syntax; output reparses to the same AST."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "+"
    if isinstance(f, Bottom):
        return "-"
    if isinstance(f, Not):
        child = format_formula(f.child)
        if isinstance(f.child, _BINARY):
            child = f"({child})"
        return "!" + child
    prec = _PRECEDENCE[type(f)]
    left = format_formula(f.left)
    right = format_formula(f.right)
    # Binary operators associate to the right: parenthesize a left child of
    # equal precedence, and any child of lower precedence.
    if isinstance(f.left, _BINARY) and _PRECEDENCE[type(f.left)] <= prec:
        left = f"({left})"
    if isinstance(f.right, _BINARY) and _PRECEDENCE[type(f.right)] < prec:
        right = f"({right})"
    return f"{left} {_OP_TEXT[type(f)]} {right}"


# ---------------------------------------------------------------------------
# Two-valued evaluation and model enumeration


def eval2(f: Formula, w: Mapping[str, bool]) -> bool:
    """Classical truth value of `f` under a total assignment."""
    if isinstance(f, Atom):
        try:
            return w[f.name]
        except KeyError:
            raise ValueError(f"atom {f.name!r} not declared in interpretation") from None
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not eval2(f.child, w)
    if isinstance(f, And):
        return eval2(f.left, w) and eval2(f.right, w)
    if isinstance(f, Or):
        return eval2(f.left, w) or eval2(f.right, w)
    if isinstance(f, Implies):
        return (not eval2(f.left, w)) or eval2(f.right, w)
    assert isinstance(f, Iff)
    return eval2(f.left, w) == eval2(f.right, w)


def interpretations(signature: tuple[str, ...]) -> Iterator[dict[str, bool]]:
    """All 2^n assignments over the signature, in a fixed deterministic order."""
    for values in itertools.product((False, True), repeat=len(signature)):
        yield dict(zip(signature, values))


def enumerate_models(
    kb: KnowledgeBase, cap: int = 20, signature: tuple[str, ...] | None = None
) -> list[dict[str, bool]]:
    """Models of the KB over its signature (or an explicit superset)."""
    sig = kb.signature() if signature is None else signature
    if len(sig) > cap:
        raise ValueError(f"signature size {len(sig)} exceeds cap {cap}")
    return [w for w in interpretations(sig) if all(eval2(f, w) for f in kb)]


# ---------------------------------------------------------------------------
# Connective reduction and constant folding


def reduce_connectives(f: Formula) -> Formula:
    """Rewrite => and <=> in terms of !, &&, ||.

    The rewriting preserves both the classical and the three-valued
    (paraconsistent) truth value of the formula.  A node none of whose
    children changed is returned as it is.
    """
    if isinstance(f, (Atom, Top, Bottom)):
        return f
    if isinstance(f, Not):
        child = reduce_connectives(f.child)
        return f if child is f.child else Not(child)
    left = reduce_connectives(f.left)
    right = reduce_connectives(f.right)
    if isinstance(f, Implies):
        return Or(Not(left), right)
    if isinstance(f, Iff):
        return And(Or(Not(left), right), Or(Not(right), left))
    return f if left is f.left and right is f.right else type(f)(left, right)


def reduce_kb(kb: KnowledgeBase) -> KnowledgeBase:
    return KnowledgeBase(tuple(reduce_connectives(f) for f in kb))


def fold_constants(f: Formula) -> Formula:
    """Eliminate +/- leaves; the result is constant-free unless it is itself
    a constant.  Folding preserves two- and three-valued truth values.  A
    node none of whose children changed is returned as it is."""
    if isinstance(f, (Atom, Top, Bottom)):
        return f
    if isinstance(f, Not):
        c = fold_constants(f.child)
        if isinstance(c, Top):
            return BOTTOM
        if isinstance(c, Bottom):
            return TOP
        return f if c is f.child else Not(c)
    left = fold_constants(f.left)
    right = fold_constants(f.right)
    if isinstance(f, And):
        if isinstance(left, Bottom) or isinstance(right, Bottom):
            return BOTTOM
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        return f if left is f.left and right is f.right else And(left, right)
    if isinstance(f, Or):
        if isinstance(left, Top) or isinstance(right, Top):
            return TOP
        if isinstance(left, Bottom):
            return right
        if isinstance(right, Bottom):
            return left
        return f if left is f.left and right is f.right else Or(left, right)
    if isinstance(f, Implies):
        return fold_constants(Or(Not(left), right))
    assert isinstance(f, Iff)
    return fold_constants(And(Or(Not(left), right), Or(Not(right), left)))


def substitute_atoms(f: Formula, rename: Callable[[str], Formula]) -> Formula:
    """Replace every atom leaf by `rename(name)`."""
    if isinstance(f, Atom):
        return rename(f.name)
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(substitute_atoms(f.child, rename))
    assert isinstance(f, _BINARY)
    return type(f)(substitute_atoms(f.left, rename), substitute_atoms(f.right, rename))
