"""At-most-k constraint encoders.

:class:`SumCounter` is the one counter: it bounds the sum of several parts'
counts and grows to each bound asked for, so a search can add bounds by
assumption instead of re-encoding.  Each part is a sequential counter (Sinz,
CP 2005) with O(n*k) auxiliary register variables and clauses, and the
parts' unary counts are merged pairwise up a balanced tree of totalizer
nodes (Bailleux & Boufkhad, CP 2003) whose outputs grow in place to each
bound (Martins, Joshi, Manquinho & Lynce, CP 2014).  Every encoding bounds
its counted sums through it.

Two one-shot clause sets over a list of solver variables:

* :func:`at_most` — a one-part :class:`SumCounter` grown to k, with its
  bounding literal as a unit;
* :func:`at_most_binomial` — one all-negative clause per (k+1)-subset,
  C(n, k+1) clauses, no auxiliary variables; kept as the reference the
  sequential counter is checked against.

Both treat k >= n as the empty constraint and k == 0 as unit negatives.
Auxiliary ids come from a :class:`~incmeter.cnf.VarMap`; ``VarMap(n)``
hands out n + 1, n + 2, ... for a clause set over the variables 1..n.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .cnf import VarMap


def at_most_binomial(k: int, variables: Sequence[int]) -> list[list[int]]:
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= len(variables):
        return []
    return [[-v for v in subset] for subset in combinations(variables, k + 1)]


class _Leaf:
    """One part's sequential counter, grown one register column at a time.

    Register s[i][j] (j <= i) is forced true once at least j+1 of the first
    i+1 inputs are true; column j holds s[j][j] .. s[n-1][j].  Every clause
    only pushes registers up, and the unary count is the last row of
    registers, s[n-1][j] being "at least j+1 of the part are true"."""

    def __init__(self, variables: Sequence[int], alloc: VarMap):
        self.x = list(variables)
        self.alloc = alloc
        self.size = len(self.x)
        self.columns: list[list[int]] = []  # columns[j][i - j] is s[i][j]

    def grow(self, m: int, clauses: list[list[int]]) -> list[int]:
        """The first min(m, size) unary outputs, building what they still need."""
        x, cols, n = self.x, self.columns, self.size
        for j in range(len(cols), min(m, n)):
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
        return [col[-1] for col in cols]


class _Merge:
    """The sum of two subtrees' unary counts: output o_r is forced true by
    a_i & b_j for every i + j = r (a_0 and b_0 read as true).  Every clause
    only pushes outputs up, like the sequential counter's."""

    def __init__(self, left: _Leaf | _Merge, right: _Leaf | _Merge, alloc: VarMap):
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


def _tree(nodes: list[_Leaf], alloc: VarMap) -> _Leaf | _Merge:
    if len(nodes) == 1:
        return nodes[0]
    mid = len(nodes) // 2
    return _Merge(_tree(nodes[:mid], alloc), _tree(nodes[mid:], alloc), alloc)


class SumCounter:
    """At most k of the inputs of all `parts` together, grown to each bound
    asked for: a sequential counter per non-empty part, merged pairwise up a
    tree that splits the parts in half by count.  The root's output o_{k+1}
    holds once more than k inputs are true, so !o_{k+1} bounds the sum.
    Columns and outputs once built serve every later bound, asked for in
    any order; with one part the root is that part's sequential counter."""

    def __init__(self, parts: Sequence[Sequence[int]], alloc: VarMap):
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


def at_most(k: int, variables: Sequence[int], alloc: VarMap) -> list[list[int]]:
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
    clauses, lit = SumCounter([variables], alloc).at_most(k)
    return clauses + [[lit]]


def sequential_clause_bound(n: int, k: int) -> int:
    """Declared upper bound on the sequential encoding's clause count."""
    return 3 * n * k + n
