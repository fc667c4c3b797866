"""Word mover's distance over an exact transportation-problem solver.

Each label bag becomes a normalized bag-of-words (key counts divided by the
total count). A bag's keys are whatever its vector source indexes: store
tokens with an ``EmbeddingStore``, vocabulary rows with a run's
``Vocabulary``. The distance between two bags is the minimum total cost of
moving one bag's mass onto the other, where moving mass between two keys
costs their embedding Euclidean distance. The balanced transportation LP is
solved exactly, not by an entropic approximation, with the network simplex
of Ahuja-Magnanti-Orlin (*Network Flows*, ch. 11) as Bonneel et al. 2011
use it: a least-cost (matrix-minimum) start, dual-variable pricing, and a
basis tree kept across pivots, of which each pivot re-hangs only the
subtree the leaving cell cuts off. Pivots take the most negative price up
to a cap; past it, Bland's rule (Bland 1977) continues from the same basis,
so the solve terminates on any degenerate instance.

A run's kernel measures one (api, image) at every k with ``prefix_wmd``:
the truth nBOW is built once per image, and one cost block, built against
the object side at the largest k, serves every k through its leading
columns. ``dataset_wmd`` only averages each (api, k)'s distances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingStore, Vocabulary
from .errors import (
    EmptyBagError,
    EmptyDatasetError,
    InfeasibleMarginalsError,
    NumericalFailureError,
)

_MARGINAL_TOL = 1e-9
_PRICE_TOL = 1e-11


@dataclass(frozen=True)
class NBow:
    """Distinct keys in first-appearance order with positive weights summing to 1."""

    tokens: tuple[Hashable, ...]
    weights: np.ndarray


@dataclass(frozen=True)
class TransportPlan:
    """Optimal flow matrix, its objective value, and the optimal duals.

    ``u`` prices the supply rows and ``v`` the demand columns.
    """

    flow: np.ndarray
    objective: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class DatasetWmd:
    """Mean pair distance plus how many pairs were skipped for empty sides."""

    value: float
    used: int
    skipped: int


def build_nbow(bag: Sequence[Hashable]) -> NBow:
    if not bag:
        raise EmptyBagError("cannot build a normalized bag-of-words from an empty bag")
    counts = Counter()
    order: list[str] = []
    for token in bag:
        if token not in counts:
            order.append(token)
        counts[token] += 1
    total = len(bag)
    weights = np.array([counts[t] / total for t in order], dtype=np.float64)
    return NBow(tokens=tuple(order), weights=weights)


def _vectors(keys: Sequence[Hashable],
             source: EmbeddingStore | Vocabulary) -> np.ndarray:
    """The keys' float64 vectors: vocabulary rows, or store tokens."""
    if isinstance(source, Vocabulary):
        return source.gather(keys)[0]
    return source.vectors(keys).astype(np.float64)


def cost_matrix(a: NBow, b: NBow, store: EmbeddingStore | Vocabulary) -> np.ndarray:
    """Euclidean distance of every key pair, upcast to float64.

    Sums squared differences rather than expanding |a|^2 + |b|^2 - 2ab,
    which loses precision between near neighbours; identical keys have
    identical vectors, so they cost exactly 0. Through a Vocabulary, row 0
    is the origin; through a store, ``UNKNOWN_TOKEN`` embeds at the origin
    and any other token the store lacks raises UnresolvedTokenError.
    """
    left, right = _vectors(a.tokens, store), _vectors(b.tokens, store)
    diff = left[:, None, :] - right[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


# The simplex below runs on plain Python lists: flows, costs and duals are
# lists of floats, and the basis is a spanning tree of the m row nodes
# 0..m-1 and the n column nodes m..m+n-1, whose edges are the basic cells.

def _least_cost_start(supply: Sequence[float], demand: Sequence[float],
                      costs: np.ndarray):
    """Matrix-minimum start: allocate cells in (cost, i, j) order.

    Each allocation crosses out exactly one line, the one it exhausts (its
    row on a tie), except that the last open row or column is never crossed
    while the other side still has an open line. So the start has exactly
    m + n - 1 cells; and as every cell is the last one placed in the line
    it crosses, they form no cycle, hence a spanning tree, even when flows
    are zero.
    """
    m, n = len(supply), len(demand)
    flow = [[0.0] * n for _ in range(m)]
    rem_s = list(supply)
    rem_d = list(demand)
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    basis: list[tuple[int, int]] = []
    # a stable sort of the row-major cells breaks cost ties by (i, j)
    for index in np.argsort(costs, axis=None, kind="stable").tolist():
        i, j = divmod(index, n)
        if not (row_open[i] and col_open[j]):
            continue
        moved = min(rem_s[i], rem_d[j])
        flow[i][j] = moved
        rem_s[i] -= moved
        rem_d[j] -= moved
        basis.append((i, j))
        if rows_left == 1 and cols_left == 1:
            break
        if cols_left == 1 or (rows_left > 1 and rem_s[i] <= rem_d[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return flow, basis


class _BasisTree:
    """The basis as a tree rooted at row 0, with its duals.

    ``parent`` and ``depth`` locate every node; a non-root node's parent edge
    is its basic cell. ``u`` prices rows and ``v`` columns so that
    u_i + v_j = c_ij on every basic cell, with u_0 = 0.
    """

    def __init__(self, basis: Sequence[tuple[int, int]], costs: list[list[float]]):
        m, n = len(costs), len(costs[0])
        self.m = m
        self.costs = costs
        self.basic = set(basis)
        self.adjacency: list[list[int]] = [[] for _ in range(m + n)]
        for i, j in basis:
            self.adjacency[i].append(m + j)
            self.adjacency[m + j].append(i)
        self.parent = [-1] * (m + n)
        self.depth = [0] * (m + n)
        self.u = [0.0] * m
        self.v = [0.0] * n
        for child in self.adjacency[0]:
            self.hang(child, 0)

    def hang(self, top: int, above: int) -> None:
        """Hang the subtree holding ``top`` below node ``above``.

        Every node of that subtree takes its parent, depth and dual from its
        new parent edge; the rest of the tree is untouched.
        """
        m, costs, parent, depth, u, v = (
            self.m, self.costs, self.parent, self.depth, self.u, self.v)
        parent[top] = above
        stack = [top]
        while stack:
            node = stack.pop()
            up = parent[node]
            depth[node] = depth[up] + 1
            if node < m:
                u[node] = costs[node][up - m] - v[up - m]
            else:
                v[node - m] = costs[up][node - m] - u[up]
            for other in self.adjacency[node]:
                if other != up:
                    parent[other] = node
                    stack.append(other)

    def cell(self, node: int) -> tuple[int, int]:
        """The basic cell joining a non-root node to its parent."""
        up = self.parent[node]
        return (node, up - self.m) if node < self.m else (up, node - self.m)

    def exchange(self, entering: tuple[int, int], leaving_node: int,
                 leaving_on_row_side: bool) -> None:
        """Swap the leaving cell (``leaving_node``'s parent edge) for the
        entering one, and re-hang only the subtree the leaving cell cuts off.

        That subtree holds the entering cell's row when the leaving cell lies
        on the row's path to the common ancestor, and its column otherwise.
        """
        i, j = entering
        up = self.parent[leaving_node]
        self.basic.remove(self.cell(leaving_node))
        self.basic.add(entering)
        self.adjacency[leaving_node].remove(up)
        self.adjacency[up].remove(leaving_node)
        column = self.m + j
        self.adjacency[i].append(column)
        self.adjacency[column].append(i)
        if leaving_on_row_side:
            self.hang(i, column)
        else:
            self.hang(column, i)


def _entering(basic: set[tuple[int, int]], costs: list[list[float]],
              u: list[float], v: list[float]) -> tuple[int, int] | None:
    """Non-basic cell of most negative price (c - u) - v, row-major first.

    None when no price falls below -_PRICE_TOL: the basis is optimal.
    """
    best = -_PRICE_TOL
    entering = None
    for i, row in enumerate(costs):
        ui = u[i]
        for j, cost in enumerate(row):
            price = (cost - ui) - v[j]
            if price < best and (i, j) not in basic:
                best = price
                entering = (i, j)
    return entering


def _first_entering(basic: set[tuple[int, int]], costs: list[list[float]],
                    u: list[float], v: list[float]) -> tuple[int, int] | None:
    """Bland's entering rule: the first non-basic cell, row-major, whose
    price (c - u) - v falls below -_PRICE_TOL; None when the basis is optimal.
    """
    for i, row in enumerate(costs):
        ui = u[i]
        for j, cost in enumerate(row):
            if (cost - ui) - v[j] < -_PRICE_TOL and (i, j) not in basic:
                return i, j
    return None


def _pivot_loop(flow: list[list[float]], tree: _BasisTree, max_pivots: int,
                entering_rule=_entering) -> bool:
    """Pivot to optimality, updating ``flow`` and ``tree`` in place.

    ``entering_rule`` picks each entering cell. The entering cell closes one
    cycle: the tree paths from its row and its column up to their common
    ancestor. Walking that cycle from the column, cells alternate between
    losing and gaining flow; a path cell loses when its lower node is a row
    on the row's path, or a column on the column's path. The leaving cell is
    the lowest (i, j) among the givers that drop to zero, which with
    ``_first_entering`` is Bland's rule, so those pivots cannot cycle.
    Returns False when the cap hits first.
    """
    m = tree.m
    parent, depth = tree.parent, tree.depth
    for _ in range(max_pivots):
        entering = entering_rule(tree.basic, tree.costs, tree.u, tree.v)
        if entering is None:
            return True
        i, j = entering
        gainers = [entering]
        givers: list[tuple[tuple[int, int], int, bool]] = []
        x, y = i, m + j  # x climbs from the row, y from the column
        while x != y:
            if depth[x] >= depth[y]:
                if x < m:
                    givers.append((tree.cell(x), x, True))
                else:
                    gainers.append(tree.cell(x))
                x = parent[x]
            else:
                if y >= m:
                    givers.append((tree.cell(y), y, False))
                else:
                    gainers.append(tree.cell(y))
                y = parent[y]
        theta = min(flow[a][b] for (a, b), _, _ in givers)
        # the leaving cell: the lowest (i, j) among givers that drop to zero
        _, node, row_side = min(
            giver for giver in givers if flow[giver[0][0]][giver[0][1]] == theta)
        for a, b in gainers:
            flow[a][b] += theta
        for (a, b), _, _ in givers:
            value = flow[a][b] - theta
            flow[a][b] = value if value > 0.0 else 0.0
        tree.exchange(entering, node, row_side)
    return False


def solve_transport(supply, demand, costs, *, max_pivots: int | None = None)\
        -> TransportPlan:
    """Exactly solve the balanced transportation problem.

    Args:
        supply: source weights, summing to the same total as demand
            within 1e-9.
        demand: sink weights.
        costs: non-negative finite cost matrix, shape (len(supply), len(demand)).
        max_pivots: Dantzig pivots (most negative price) before Bland's
            rule takes over from the same basis; default 1000 + 10·m·n.
            Bland's rule then has max(4 * max_pivots, 1000 + 10·m·n) pivots,
            past which NumericalFailureError is raised.

    Returns:
        TransportPlan whose flow satisfies both marginals within 1e-9, whose
        objective is the exact LP optimum up to rounding, and whose duals
        (u, v) certify it: c_ij - u_i - v_j >= 0 on every cell, and
        sum(supply * u) + sum(demand * v) equals the objective.

    Weights must be non-negative and their totals finite and balanced, else
    InfeasibleMarginalsError. Two shapes need no pivot: an empty side gives
    the zero plan with zero duals, and when one side has a single node, its
    only feasible flow is optimal: the WMD of a one-token bag is
    sum_j w_j c_0j. Identical or reordered bags cost exactly 0 without a
    closed form: the start fills their zero-cost cells first and every later
    pivot moves no flow.

    Determinism: the start allocates cells in (cost, i, j) order, so equal
    costs go row-major; entering cells take the most negative price with
    row-major index tie-breaks (past the cap, the first negative price in
    row-major order), leaving cells the lowest index among minimum givers.
    Identical inputs always produce the identical plan.
    """
    s = np.asarray(supply, dtype=np.float64)
    d = np.array(demand, dtype=np.float64)  # a copy: it is rescaled below
    c = np.asarray(costs, dtype=np.float64)
    if s.ndim != 1 or d.ndim != 1 or c.shape != (len(s), len(d)):
        raise ValueError("costs must be shaped (len(supply), len(demand))")
    # One reduction per test; an empty array has no minimum and passes. min
    # propagates NaN, which then fails ">= 0", while fmin skips NaN, as the
    # comparison "w < 0" does, so a NaN weight alone is not negative.
    if c.size and not (c.min() >= 0 and c.max() < np.inf):
        raise ValueError("costs must be finite and non-negative")
    if (s.size and np.fmin.reduce(s) < 0) or (d.size and np.fmin.reduce(d) < 0):
        raise InfeasibleMarginalsError("negative weights are not transportable")
    s_total, d_total = float(s.sum()), float(d.sum())
    if not abs(s_total - d_total) <= _MARGINAL_TOL:  # NaN fails too
        raise InfeasibleMarginalsError(
            f"supply sums to {s_total!r}, demand to {d_total!r}")
    if d_total > 0:
        d *= s_total / d_total  # absorb sub-tolerance imbalance exactly
    m, n = len(s), len(d)
    if m == 0 or n == 0:
        plan, u, v = np.zeros((m, n)), np.zeros(m), np.zeros(n)
    elif m == 1:
        # a single source: all of each sink's demand comes from it
        plan, u, v = d[None, :].copy(), np.zeros(1), c[0].copy()
    elif n == 1:
        plan, u, v = s[:, None].copy(), c[:, 0].copy(), np.zeros(1)
    else:
        if max_pivots is None:
            max_pivots = 1000 + 10 * m * n
        flow, basis = _least_cost_start(s.tolist(), d.tolist(), c)
        tree = _BasisTree(basis, c.tolist())
        # past the cap, Bland's rule finishes from the same basis
        if not (_pivot_loop(flow, tree, max_pivots)
                or _pivot_loop(flow, tree, max(4 * max_pivots, 1000 + 10 * m * n),
                               _first_entering)):
            raise NumericalFailureError("transport solver failed to converge")
        plan = np.array(flow, dtype=np.float64)
        u, v = np.array(tree.u, dtype=np.float64), np.array(tree.v, dtype=np.float64)
    objective = float((plan * c).sum())
    return TransportPlan(flow=plan, objective=max(0.0, objective), u=u, v=v)


def wmd_pair(truth_bag: Sequence[Hashable], predicted_bag: Sequence[Hashable],
             store: EmbeddingStore | Vocabulary) -> float:
    """Distance between two bags keyed by ``store``; 0 means a perfect match."""
    a = build_nbow(truth_bag)
    b = build_nbow(predicted_bag)
    costs = cost_matrix(a, b, store)
    return solve_transport(a.weights, b.weights, costs).objective


def prefix_wmd(truth: NBow, prefixes: Sequence[Sequence[Hashable]],
               store: EmbeddingStore | Vocabulary) -> list[float | None]:
    """Distance from one truth nBOW to each of several prefixes of one bag.

    Each bag of ``prefixes`` must be a prefix of the longest. The cost block
    is built once, against the longest; each prefix solves on its leading
    columns, which are that prefix's own costs, because first-appearance
    order is stable under prefixes. Each value equals ``wmd_pair`` of the
    truth bag and that prefix. An empty prefix gets None, as ``dataset_wmd``
    skips it; bags whose keys are not a prefix of the longest's raise
    ValueError.
    """
    nbows = [build_nbow(bag) if bag else None for bag in prefixes]
    longest = max((b for b in nbows if b is not None),
                  key=lambda b: len(b.tokens), default=None)
    if longest is None:
        return [None] * len(nbows)
    if any(b is not None and b.tokens != longest.tokens[:len(b.tokens)]
           for b in nbows):
        raise ValueError("every bag must be a prefix of the longest")
    block = cost_matrix(truth, longest, store)
    return [None if b is None else
            solve_transport(truth.weights, b.weights,
                            block[:, :len(b.tokens)]).objective
            for b in nbows]


def dataset_wmd(distances: Iterable[float | None]) -> DatasetWmd:
    """Mean of the pair distances in input order, as ``prefix_wmd`` gives
    them; None marks a pair skipped for an empty side.
    """
    total = 0.0
    used = 0
    skipped = 0
    for distance in distances:
        if distance is None:
            skipped += 1
            continue
        total += distance
        used += 1
    if used == 0:
        raise EmptyDatasetError("no evaluable bag pairs")
    return DatasetWmd(value=total / used, used=used, skipped=skipped)
