"""Minimum-congestion concurrent flow on a host graph.

One unit of flow is routed between every ordered vertex pair; the diagonal
pair (w, w) stays put on its length-0 path. Vertex congestion counts every
path through a vertex, endpoints and length-0 paths included. The optimum
comes from an arc-based linear program (Shahrokhi & Matula, "The maximum
concurrent flow problem", JACM 1990) that routes each unordered pair once:
commodity s < ell - 1 ships a unit from s to every t > s ((ell - 1) * 2|E|
flow variables), and paths[(t, s)] is the reverse of paths[(s, t)], so
every transit unit counts twice. Symmetrizing an optimum of the LP over all
ordered pairs gives a feasible point of this one at the same congestion,
and reversing paths maps back, so the two optima agree. HiGHS solves the
LP by dual simplex with presolve off: presolve removes nothing from this
LP (the iteration counts and the optimum are the same without it) and
costs 10-15% of a solve at ell = 17-21. Each commodity's flow,
taken out of the optimum as Python floats, has its cycles cancelled and is
split greedily into paths to its sinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .graphs import Graph

_EPS = 1e-12
# how far a decomposed pair's path weights may sum from 1 before the LP
# optimum counts as unusable
_DECOMPOSITION_SLACK = 2e-6


class Infeasible(Exception):
    """No concurrent flow exists (the host graph is disconnected)."""


@dataclass
class ConcurrentFlow:
    """Weighted path collections per ordered vertex pair.

    paths[(u, v)] lists (path, weight) with the path running from u to v;
    weights per pair are normalized to sum to exactly 1. congestion is the
    exact maximum vertex load recomputed from the stored paths, while
    lp_congestion is the LP objective value they were derived from.
    """

    graph: Graph
    paths: dict[tuple[int, int], tuple[tuple[tuple[int, ...], float], ...]]
    congestion: float
    lp_congestion: float

    def sample(self, u: int, v: int, rng) -> tuple[int, ...]:
        """Draw one u-v path with probability proportional to its weight."""
        entries = self.paths[(u, v)]
        if len(entries) == 1:
            return entries[0][0]
        r = rng.random()
        acc = 0.0
        for path, w in entries:
            acc += w
            if r < acc:
                return path
        return entries[-1][0]

    def vertex_loads(self) -> list[float]:
        loads = [0.0] * self.graph.vertex_count
        for plist in self.paths.values():
            for path, w in plist:
                for vtx in set(path):
                    loads[vtx] += w
        return loads


def _out_arcs(arcs, vertex_count: int) -> list[list[int]]:
    """Indices of the arcs leaving each vertex, in ascending order."""
    out_arcs: list[list[int]] = [[] for _ in range(vertex_count)]
    for idx, (u, _) in enumerate(arcs):
        out_arcs[u].append(idx)
    return out_arcs


def _find_cycle(flow: list[float], arcs, out_arcs):
    """Arc indices of one directed cycle with positive flow, or None."""
    vertex_count = len(out_arcs)
    state = [0] * vertex_count  # 0 new, 1 on stack, 2 done
    via: dict[int, int] = {}  # vertex -> arc used to reach it on the stack
    for start in range(vertex_count):
        if state[start] != 0:
            continue
        stack = [(start, 0)]
        state[start] = 1
        while stack:
            node, ptr = stack[-1]
            if ptr < len(out_arcs[node]):
                stack[-1] = (node, ptr + 1)
                arc_idx = out_arcs[node][ptr]
                if flow[arc_idx] <= _EPS:
                    continue
                nxt = arcs[arc_idx][1]
                if state[nxt] == 1:
                    cycle = [arc_idx]
                    cur = node
                    while cur != nxt:
                        cycle.append(via[cur])
                        cur = arcs[via[cur]][0]
                    return cycle
                if state[nxt] == 0:
                    state[nxt] = 1
                    via[nxt] = arc_idx
                    stack.append((nxt, 0))
            else:
                state[node] = 2
                stack.pop()
    return None


def _remove_cycles(flow: list[float], arcs, out_arcs) -> None:
    """Cancel directed cycles in one commodity's arc flow, in place."""
    while True:
        cycle = _find_cycle(flow, arcs, out_arcs)
        if cycle is None:
            return
        drop = min(flow[idx] for idx in cycle)
        for idx in cycle:
            flow[idx] -= drop


def _decompose(flow: list[float], arcs, out_arcs, s: int, demand: list[float]):
    """Greedy path decomposition of an acyclic flow out of s.

    demand[w] is what the flow delivers to w (zero at s and at pure transit
    vertices). Each walk leaves s, always follows the smallest-index
    positive arc, and stops at the first vertex with unmet demand, so the
    output is deterministic. A walk that ends at a vertex with neither
    demand nor a positive out-arc followed solver noise; its smallest arc
    flow is cancelled along it and the walk is dropped. Returns per-sink
    lists of (path, weight); flow and demand are used up in place.
    """
    paths: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in demand]
    for _ in range(len(arcs) + len(demand)):
        node = s
        path_vertices = [s]
        path_arcs = []
        while demand[node] <= _EPS:
            nxt_arc = None
            for idx in out_arcs[node]:
                if flow[idx] > _EPS:
                    nxt_arc = idx
                    break
            if nxt_arc is None:
                break
            path_arcs.append(nxt_arc)
            node = arcs[nxt_arc][1]
            path_vertices.append(node)
            if len(path_vertices) > len(demand):
                raise RuntimeError("walk exceeded vertex count; residual flow is not acyclic")
        if demand[node] <= _EPS:
            if not path_arcs:
                break  # the flow out of s is used up
            # a dead end: zero the walk's smallest arc so the loop bound holds
            drop = min(flow[idx] for idx in path_arcs)
            for idx in path_arcs:
                flow[idx] -= drop
            continue
        weight = min(demand[node], *(flow[idx] for idx in path_arcs))
        for idx in path_arcs:
            flow[idx] -= weight
        demand[node] -= weight
        paths[node].append((tuple(path_vertices), weight))
    return paths


def _solve_lp(ell: int, arcs) -> np.ndarray:
    """Optimal arc flows of the LP that routes each unordered pair once:
    entry s * len(arcs) + a is commodity s's flow on arc a, for s < ell - 1,
    and the last entry is gamma."""
    n_arcs = len(arcs)
    gamma_col = (ell - 1) * n_arcs
    tail, head = np.array(arcs).T
    col = np.arange(gamma_col)
    source = col // n_arcs
    arc_tail = tail[col % n_arcs]
    arc_head = head[col % n_arcs]
    enters = arc_head != source
    leaves = arc_tail != source

    # conservation: in_s(w) - out_s(w) = [w > s] in row s * (ell - 1) + rank
    # of w among the vertices other than s; the row of w = s is implied, and
    # the vertex of rank r lies past s exactly when r >= s
    def conservation_row(w):
        return source * (ell - 1) + w - (w > source)

    rank = np.arange(ell - 1)
    demand = np.tile(rank, ell - 1) >= np.repeat(rank, ell - 1)
    eq_rows = np.concatenate([conservation_row(arc_head)[enters], conservation_row(arc_tail)[leaves]])
    eq_cols = np.concatenate([col[enters], col[leaves]])
    eq_vals = np.concatenate([np.ones(enters.sum()), -np.ones(leaves.sum())])
    a_eq = sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=((ell - 1) ** 2, gamma_col + 1))
    # load at w: the fixed endpoint load 2*(ell-1) + 1 plus the transit. Each
    # path also runs reversed, so the transit is twice the sum over s != w of
    # in_s(w) - [w > s], and sum_s [w > s] = w; so
    # 2 * sum in_s(w) - gamma <= 2w - 2(ell-1) - 1
    ub_rows = np.concatenate([arc_head[enters], np.arange(ell)])
    ub_cols = np.concatenate([col[enters], np.full(ell, gamma_col)])
    ub_vals = np.concatenate([np.full(enters.sum(), 2.0), -np.ones(ell)])
    a_ub = sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(ell, gamma_col + 1))
    objective = np.zeros(gamma_col + 1)
    objective[gamma_col] = 1.0
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=2.0 * np.arange(ell) - 2 * (ell - 1) - 1,
        A_eq=a_eq,
        b_eq=demand.astype(float),
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    if not result.success:
        raise Infeasible(f"LP solver failed: {result.message}")
    return np.maximum(result.x, 0.0)


def min_congestion_flow(graph: Graph) -> ConcurrentFlow:
    """Solve the concurrent-flow LP and decompose the optimum into paths.

    Raises Infeasible on disconnected hosts. The returned per-pair weights
    sum to 1 (before normalizing, each pair's decomposed weights sum to
    within _DECOMPOSITION_SLACK of 1), and paths[(v, u)] is the reverse of
    paths[(u, v)].
    """
    ell = graph.vertex_count
    if ell < 1:
        raise ValueError("empty host graph")
    if not graph.is_connected():
        raise Infeasible("host graph is disconnected")
    if ell == 1:
        paths = {(0, 0): (((0,), 1.0),)}
        return ConcurrentFlow(graph, paths, 1.0, 1.0)

    arcs = [arc for u, v in graph.edges for arc in ((u, v), (v, u))]
    n_arcs = len(arcs)
    out_arcs = _out_arcs(arcs, ell)
    x = _solve_lp(ell, arcs).tolist()
    lp_gamma = x[-1]

    paths: dict[tuple[int, int], tuple[tuple[tuple[int, ...], float], ...]] = {}
    for w in range(ell):
        paths[(w, w)] = (((w,), 1.0),)
    for s in range(ell - 1):
        flow = x[s * n_arcs : (s + 1) * n_arcs]
        _remove_cycles(flow, arcs, out_arcs)
        by_sink = _decompose(flow, arcs, out_arcs, s, [float(w > s) for w in range(ell)])
        for t in range(s + 1, ell):
            total = sum(w for _, w in by_sink[t])
            if abs(total - 1.0) > _DECOMPOSITION_SLACK:
                raise Infeasible(f"pair ({s}, {t}) decomposed to value {total}, expected 1")
            paths[(s, t)] = tuple((p, w / total) for p, w in by_sink[t])
            paths[(t, s)] = tuple((p[::-1], w) for p, w in paths[(s, t)])

    flow_obj = ConcurrentFlow(graph, paths, 0.0, lp_gamma)
    flow_obj.congestion = max(flow_obj.vertex_loads())
    return flow_obj


__all__ = ["ConcurrentFlow", "Infeasible", "min_congestion_flow"]
