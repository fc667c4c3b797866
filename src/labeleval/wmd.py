"""Word mover's distance over an exact transportation-problem solver.

Each label bag becomes a normalized bag-of-words (token counts divided by the
total count). The distance between two bags is the minimum total cost of
moving one bag's mass onto the other, where moving mass between two tokens
costs their embedding Euclidean distance. The balanced transportation LP is
solved exactly with the classic basis-tree simplex (northwest-corner start,
dual-variable pricing), not an entropic approximation, in the network-simplex
style of Bonneel et al. 2011.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingStore
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
    """Distinct tokens in first-appearance order with positive weights summing to 1."""

    tokens: tuple[str, ...]
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


def build_nbow(bag: Sequence[str]) -> NBow:
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


def cost_matrix(a: NBow, b: NBow, store: EmbeddingStore) -> np.ndarray:
    """Euclidean distance of every token pair, upcast to float64.

    Sums squared differences rather than expanding |a|^2 + |b|^2 - 2ab,
    which loses precision between near neighbours; identical tokens have
    identical vectors, so they cost exactly 0. ``UNKNOWN_TOKEN`` embeds at
    the origin; any other token the store lacks raises UnresolvedTokenError.
    """
    left = store.vectors(a.tokens).astype(np.float64)
    right = store.vectors(b.tokens).astype(np.float64)
    diff = left[:, None, :] - right[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


# The simplex below runs on plain Python lists: a basis is a list of (i, j)
# cells forming a spanning tree of the m row and n column nodes, and flows,
# costs and duals are lists of floats.

def _northwest_corner(supply: Sequence[float], demand: Sequence[float]):
    m, n = len(supply), len(demand)
    flow = [[0.0] * n for _ in range(m)]
    basis: list[tuple[int, int]] = []
    rem_s = list(supply)
    rem_d = list(demand)
    i = j = 0
    while True:
        basis.append((i, j))
        moved = min(rem_s[i], rem_d[j])
        flow[i][j] = moved
        rem_s[i] -= moved
        rem_d[j] -= moved
        if i == m - 1 and j == n - 1:
            break
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif rem_s[i] <= rem_d[j]:
            i += 1
        else:
            j += 1
    return flow, basis


def _tree(basis: Sequence[tuple[int, int]], m: int, n: int):
    """Adjacency of the basis tree: node -> [(other node, i, j)]."""
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adjacency[i].append((m + j, i, j))
        adjacency[m + j].append((i, i, j))
    return adjacency


def _duals(adjacency: list[list[tuple[int, int, int]]], costs: list[list[float]],
           m: int, n: int):
    """Solve u_i + v_j = c_ij over the basis tree (u_0 fixed at 0)."""
    u: list[float | None] = [None] * m
    v: list[float | None] = [None] * n
    u[0] = 0.0
    stack = [0]
    while stack:
        node = stack.pop()
        for other, i, j in adjacency[node]:
            if other < m:
                if u[other] is None:
                    u[other] = costs[i][j] - v[j]
                    stack.append(other)
            elif v[other - m] is None:
                v[other - m] = costs[i][j] - u[i]
                stack.append(other)
    return u, v


def _entering(basis: Sequence[tuple[int, int]], costs: list[list[float]],
              u: list[float], v: list[float]) -> tuple[int, int] | None:
    """Non-basic cell of most negative price (c - u) - v, row-major first.

    None when no price falls below -_PRICE_TOL: the basis is optimal.
    """
    basic = set(basis)
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


def _cycle(adjacency: list[list[tuple[int, int, int]]], entering: tuple[int, int],
           m: int, n: int) -> list[tuple[int, int]]:
    """Cells of the unique cycle closed by the entering cell, entering first."""
    start, goal = entering[0], m + entering[1]
    parent: list[tuple[int, int, int] | None] = [None] * (m + n)
    parent[start] = (start, -1, -1)
    queue = [start]
    for node in queue:
        if node == goal:
            break
        for other, i, j in adjacency[node]:
            if parent[other] is None:
                parent[other] = (node, i, j)
                queue.append(other)
    cells = [entering]
    node = goal
    while node != start:
        prev, i, j = parent[node]
        cells.append((i, j))
        node = prev
    return cells


def _pivot_loop(flow: list[list[float]], basis: list[tuple[int, int]],
                costs: list[list[float]], max_pivots: int):
    """Pivot to optimality in place; returns the final duals (u, v).

    Returns None when the cap hits first.
    """
    m, n = len(costs), len(costs[0])
    for _ in range(max_pivots):
        adjacency = _tree(basis, m, n)
        u, v = _duals(adjacency, costs, m, n)
        entering = _entering(basis, costs, u, v)
        if entering is None:
            return u, v
        cycle = _cycle(adjacency, entering, m, n)
        givers = cycle[1::2]
        theta = min(flow[i][j] for i, j in givers)
        leaving = min(cell for cell in givers if flow[cell[0]][cell[1]] == theta)
        for position, (i, j) in enumerate(cycle):
            if position % 2 == 0:
                flow[i][j] += theta
            else:
                value = flow[i][j] - theta
                flow[i][j] = value if value > 0.0 else 0.0
        basis.remove(leaving)
        basis.append(entering)
    return None


def _tree_flows(basis: Sequence[tuple[int, int]], supply: Sequence[float],
                demand: Sequence[float]) -> list[list[float]]:
    """Flows implied by a spanning basis for given marginals (leaf elimination)."""
    m, n = len(supply), len(demand)
    flow = [[0.0] * n for _ in range(m)]
    residual = list(supply) + list(demand)
    incident: list[list[int]] = [[] for _ in range(m + n)]
    for e, (i, j) in enumerate(basis):
        incident[i].append(e)
        incident[m + j].append(e)
    used = [False] * len(basis)
    degree = [len(edges) for edges in incident]
    leaves = [node for node in range(m + n) if degree[node] == 1]
    while leaves:
        node = leaves.pop()
        edge = next((e for e in incident[node] if not used[e]), None)
        if edge is None:
            continue
        used[edge] = True
        i, j = basis[edge]
        other = m + j if node == i else i
        flow[i][j] = residual[node]
        residual[node] = 0.0
        residual[other] -= flow[i][j]
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return flow


def solve_transport(supply, demand, costs, *, max_pivots: int | None = None)\
        -> TransportPlan:
    """Exactly solve the balanced transportation problem.

    Args:
        supply: source weights, summing to the same total as demand
            within 1e-9.
        demand: sink weights.
        costs: non-negative finite cost matrix, shape (len(supply), len(demand)).
        max_pivots: pivot cap before the anti-cycling fallback engages.

    Returns:
        TransportPlan whose flow satisfies both marginals within 1e-9, whose
        objective is the exact LP optimum up to rounding, and whose duals
        (u, v) certify it: c_ij - u_i - v_j >= 0 on every cell, and
        sum(supply * u) + sum(demand * v) equals the objective.

    Two shapes need no pivot. When one side has a single node, its only
    feasible flow is optimal: the WMD of a one-token bag is sum_j w_j c_0j.
    When each supply weight meets an equal demand weight at zero cost, as
    for identical bags, that matching is optimal at exactly 0.

    Determinism: entering cells take the most negative price with row-major
    index tie-breaks, leaving cells the lowest index among minimum givers, so
    identical inputs always produce the identical plan.
    """
    s = np.asarray(supply, dtype=np.float64).copy()
    d = np.asarray(demand, dtype=np.float64).copy()
    c = np.asarray(costs, dtype=np.float64)
    if s.ndim != 1 or d.ndim != 1 or c.shape != (len(s), len(d)):
        raise ValueError("costs must be shaped (len(supply), len(demand))")
    if not (np.all(np.isfinite(c)) and np.all(c >= 0)):
        raise ValueError("costs must be finite and non-negative")
    if np.any(s < 0) or np.any(d < 0):
        raise InfeasibleMarginalsError("negative weights are not transportable")
    s_total, d_total = float(s.sum()), float(d.sum())
    if abs(s_total - d_total) > _MARGINAL_TOL:
        raise InfeasibleMarginalsError(
            f"supply sums to {s_total!r}, demand to {d_total!r}")
    cost_rows = c.tolist()
    matching = _free_matching(s.tolist(), d.tolist(), cost_rows)
    if d_total > 0:
        d *= s_total / d_total  # absorb sub-tolerance imbalance exactly
    m, n = len(s), len(d)
    if matching is not None:
        plan = np.zeros((m, n))
        plan[np.arange(m), matching] = s
        u, v = np.zeros(m), np.zeros(n)
    elif m == 1:
        # a single source: all of each sink's demand comes from it
        plan, u, v = d[None, :].copy(), np.zeros(1), c[0].copy()
    elif n == 1:
        plan, u, v = s[:, None].copy(), c[:, 0].copy(), np.zeros(1)
    else:
        if max_pivots is None:
            max_pivots = 1000 + 10 * m * n
        flow, basis = _northwest_corner(s.tolist(), d.tolist())
        duals = _pivot_loop(flow, basis, cost_rows, max_pivots)
        if duals is None:
            flow, duals = _perturbation_fallback(s, d, cost_rows, max_pivots)
        plan = np.array(flow, dtype=np.float64)
        u, v = (np.array(side, dtype=np.float64) for side in duals)
    objective = float(np.sum(plan * c))
    return TransportPlan(flow=plan, objective=max(0.0, objective), u=u, v=v)


def _free_matching(supply: list[float], demand: list[float],
                   costs: list[list[float]]) -> list[int] | None:
    """Columns of a zero-cost matching that moves each weight whole, if found.

    Each row takes the first free column of zero cost and equal weight; the
    matching then moves all mass for nothing, which no plan can beat as costs
    are non-negative. Identical bags always match this way. None when the
    greedy pass misses; the simplex then decides.
    """
    if len(supply) != len(demand):
        return None
    free = list(range(len(demand)))
    matching: list[int] = []
    for weight, row in zip(supply, costs):
        j = next((j for j in free if row[j] == 0.0 and demand[j] == weight), None)
        if j is None:
            return None
        free.remove(j)
        matching.append(j)
    return matching


def _perturbation_fallback(s: np.ndarray, d: np.ndarray, costs: list[list[float]],
                           max_pivots: int):
    """Break suspected cycling by solving a slightly perturbed twin.

    The perturbed instance is non-degenerate, so its pivots terminate; its
    final basis is then re-priced against the original marginals. Returns
    the flow and the basis duals.
    """
    m, n = len(s), len(d)
    eps = 1e-9 / (m + 1)
    bumped_s = s + eps * np.arange(1, m + 1)
    bumped_d = d.copy()
    bumped_d[-1] += eps * (m * (m + 1) / 2)
    flow, basis = _northwest_corner(bumped_s.tolist(), bumped_d.tolist())
    # the perturbed twin is non-degenerate; give it a size-based budget even
    # when the caller capped the first attempt aggressively
    budget = max(4 * max_pivots, 1000 + 10 * m * n)
    if _pivot_loop(flow, basis, costs, budget) is None:
        raise NumericalFailureError("transport solver failed to converge")
    flow = _tree_flows(basis, s.tolist(), d.tolist())
    if min(min(row) for row in flow) < -_MARGINAL_TOL:
        raise NumericalFailureError("perturbed basis infeasible for original marginals")
    flow = [[value if value > 0.0 else 0.0 for value in row] for row in flow]
    u, v = _duals(_tree(basis, m, n), costs, m, n)
    if any((cost - u[i]) - v[j] < -1e-8
           for i, row in enumerate(costs) for j, cost in enumerate(row)):
        raise NumericalFailureError("perturbed basis is not optimal for original costs")
    return flow, (u, v)


def wmd_pair(truth_bag: Sequence[str], predicted_bag: Sequence[str],
             store: EmbeddingStore) -> float:
    """Distance between two token bags; 0 means a perfect match."""
    a = build_nbow(truth_bag)
    b = build_nbow(predicted_bag)
    costs = cost_matrix(a, b, store)
    return solve_transport(a.weights, b.weights, costs).objective


def dataset_wmd(pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
                store: EmbeddingStore) -> DatasetWmd:
    """Mean pair distance in input order; pairs with an empty side are skipped."""
    total = 0.0
    used = 0
    skipped = 0
    for truth_bag, predicted_bag in pairs:
        if not truth_bag or not predicted_bag:
            skipped += 1
            continue
        total += wmd_pair(truth_bag, predicted_bag, store)
        used += 1
    if used == 0:
        raise EmptyDatasetError("no evaluable bag pairs")
    return DatasetWmd(value=total / used, used=used, skipped=skipped)
