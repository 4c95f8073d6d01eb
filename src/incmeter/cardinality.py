"""At-most-k constraint encoders.

Two encodings over a list of solver variables:

* :func:`at_most` — the sequential-counter construction with O(n*k)
  auxiliary register variables and clauses, the one the SAT encodings use.
  :class:`SequentialCounter` grows it column by column and bounds the count
  by one literal, so a search can add bounds by assumption.
* :func:`at_most_binomial` — one all-negative clause per (k+1)-subset,
  C(n, k+1) clauses, no auxiliary variables; kept as the reference the
  sequential counter is checked against.

Both treat k >= n as the empty constraint and k == 0 as unit negatives.

:class:`SumCounter` bounds a sum of several parts' counts, the measures
that bound a total over formulas: each part is a sequential counter, and
the parts' unary counts are merged pairwise up a balanced tree of
totalizer nodes (Bailleux & Boufkhad, CP 2003) whose outputs grow in place
to each bound asked for (Martins, Joshi, Manquinho & Lynce, CP 2014).  With
one part it is exactly that part's sequential counter.
"""

from __future__ import annotations

from itertools import combinations
from typing import Protocol, Sequence


class AuxAllocator(Protocol):
    def fresh_aux(self) -> int: ...


class CounterAllocator:
    """Plain id allocator for clause sets built outside a VarMap."""

    def __init__(self, start: int):
        self.top = start

    def fresh_aux(self) -> int:
        self.top += 1
        return self.top


def at_most_binomial(k: int, variables: Sequence[int]) -> list[list[int]]:
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= len(variables):
        return []
    return [[-v for v in subset] for subset in combinations(variables, k + 1)]


class SequentialCounter:
    """Sequential counter over `variables`, grown one register column at a time.

    Register s[i][j] (j <= i) is forced true once at least j+1 of the first
    i+1 inputs are true; column j holds s[j][j] .. s[n-1][j].  Every clause
    only pushes registers up, so the inputs count at most k exactly when
    !s[n-1][k] can hold, and that one literal bounds the count.  Columns once
    built serve every later bound, which lets a search probe bounds by
    assumption instead of re-encoding.
    """

    def __init__(self, variables: Sequence[int], alloc: AuxAllocator):
        self.x = list(variables)
        self.alloc = alloc
        self.columns: list[list[int]] = []  # columns[j][i - j] is s[i][j]

    def at_most(self, k: int) -> tuple[list[list[int]], int | None]:
        """The clauses of the columns bound k still needs, and the literal
        that bounds the count by k (None when k >= n leaves nothing to bound)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        n = len(self.x)
        if k >= n:
            return [], None
        clauses: list[list[int]] = []
        x, cols = self.x, self.columns
        for j in range(len(cols), k + 1):
            col = [self.alloc.fresh_aux() for _ in range(j, n)]
            if j == 0:
                clauses.append([-x[0], col[0]])
                for i in range(1, n):
                    clauses.append([-x[i], col[i]])
                    clauses.append([-col[i - 1], col[i]])
            else:
                prev = cols[j - 1]  # prev[i - j + 1] is s[i][j-1]
                clauses.append([-x[j], -prev[0], col[0]])
                for i in range(j + 1, n):
                    clauses.append([-x[i], -prev[i - j], col[i - j]])
                    clauses.append([-col[i - j - 1], col[i - j]])
            cols.append(col)
        return clauses, -cols[k][-1]


class _Leaf:
    """One part's sequential counter; its unary count is the last row of
    registers, s[n-1][j] being "at least j+1 of the part are true"."""

    def __init__(self, variables: Sequence[int], alloc: AuxAllocator):
        self.counter = SequentialCounter(variables, alloc)
        self.size = len(variables)

    def grow(self, m: int, clauses: list[list[int]]) -> list[int]:
        """The first min(m, size) unary outputs, building what they still need."""
        m = min(m, self.size)
        columns = self.counter.columns
        if m > len(columns):
            clauses.extend(self.counter.at_most(m - 1)[0])
        return [col[-1] for col in columns]


class _Merge:
    """The sum of two subtrees' unary counts: output o_r is forced true by
    a_i & b_j for every i + j = r (a_0 and b_0 read as true).  Every clause
    only pushes outputs up, like the sequential counter's."""

    def __init__(self, left: _Leaf | _Merge, right: _Leaf | _Merge, alloc: AuxAllocator):
        self.left, self.right, self.alloc = left, right, alloc
        self.size = left.size + right.size
        self.outputs: list[int] = []

    def grow(self, m: int, clauses: list[list[int]]) -> list[int]:
        """The first min(m, size) outputs, building what they still need.  A
        child output above the old count only reaches outputs above it, so
        the clauses of outputs built before stay complete."""
        m = min(m, self.size)
        out = self.outputs
        if m <= len(out):
            return out
        a = self.left.grow(m, clauses)
        b = self.right.grow(m, clauses)
        for r in range(len(out) + 1, m + 1):
            o = self.alloc.fresh_aux()
            out.append(o)
            for i in range(max(0, r - len(b)), min(r, len(a)) + 1):
                j = r - i
                clauses.append(([-a[i - 1]] if i else []) + ([-b[j - 1]] if j else []) + [o])
        return out


def _tree(nodes: list[_Leaf], alloc: AuxAllocator) -> _Leaf | _Merge:
    if len(nodes) == 1:
        return nodes[0]
    mid = len(nodes) // 2
    return _Merge(_tree(nodes[:mid], alloc), _tree(nodes[mid:], alloc), alloc)


class SumCounter:
    """At most k of the inputs of all `parts` together, grown to each bound
    asked for: a sequential counter per non-empty part, merged pairwise up a
    tree that splits the parts in half by count.  The root's output o_{k+1}
    holds once more than k inputs are true, so !o_{k+1} bounds the sum.
    With one part it is that part's :class:`SequentialCounter`: the same
    ids, clauses and bounding literal."""

    def __init__(self, parts: Sequence[Sequence[int]], alloc: AuxAllocator):
        leaves = [_Leaf(part, alloc) for part in parts if part]
        self.size = sum(leaf.size for leaf in leaves)
        self.root = _tree(leaves, alloc) if leaves else None

    def at_most(self, k: int) -> tuple[list[list[int]], int | None]:
        """The clauses bound k still needs, and the literal that bounds the
        sum by k (None when k >= the input count leaves nothing to bound)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if k >= self.size:
            return [], None
        clauses: list[list[int]] = []
        outputs = self.root.grow(k + 1, clauses)
        return clauses, -outputs[k]


def at_most(
    k: int, variables: Sequence[int], alloc: AuxAllocator
) -> list[list[int]]:
    """Sequential counter for sum(variables) <= k, as a one-shot clause set:
    the counter's columns up to k with its bounding literal as a unit.

    Any total assignment of the inputs extends to a satisfying assignment of
    the returned clauses iff at most k inputs are true.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= len(variables):
        return []
    if k == 0:
        return [[-v] for v in variables]
    clauses, lit = SequentialCounter(variables, alloc).at_most(k)
    return clauses + [[lit]]


def sequential_clause_bound(n: int, k: int) -> int:
    """Declared upper bound on the sequential encoding's clause count."""
    return 3 * n * k + n
