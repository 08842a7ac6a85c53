"""Minimum-congestion concurrent flow on a host graph.

One unit of flow is routed between every ordered vertex pair; the diagonal
pair (w, w) stays put on its length-0 path. Vertex congestion counts every
path through a vertex, endpoints and length-0 paths included. The optimum
comes from an arc-based linear program with one commodity per source s,
shipping a unit from s to every other vertex (ell * 2|E| flow variables;
Shahrokhi & Matula, "The maximum concurrent flow problem", JACM 1990).
Each source's flow has its cycles cancelled and is split greedily into
paths to its sinks. The u-v paths keep half of u's paths to v and half of
v's paths to u reversed, so paths[(v, u)] reverses paths[(u, v)] and every
vertex keeps its summed transit, hence the LP optimum.
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


def _find_cycle(flow: np.ndarray, arcs, vertex_count: int):
    """Arc indices of one directed cycle with positive flow, or None."""
    out_arcs: list[list[int]] = [[] for _ in range(vertex_count)]
    for idx, (u, _) in enumerate(arcs):
        if flow[idx] > _EPS:
            out_arcs[u].append(idx)
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


def _remove_cycles(flow: np.ndarray, arcs, vertex_count: int) -> None:
    """Cancel directed cycles in one commodity's arc flow, in place."""
    while True:
        cycle = _find_cycle(flow, arcs, vertex_count)
        if cycle is None:
            return
        drop = min(flow[idx] for idx in cycle)
        for idx in cycle:
            flow[idx] -= drop


def _decompose(flow: np.ndarray, arcs, s: int, demand: list[float]):
    """Greedy path decomposition of an acyclic flow out of s.

    demand[w] is what the flow delivers to w (zero at s and at pure transit
    vertices). Each walk leaves s, always follows the smallest-index
    positive arc, and stops at the first vertex with unmet demand, so the
    output is deterministic. Returns per-sink lists of (path, weight);
    flow and demand are used up in place.
    """
    out_arcs: list[list[int]] = [[] for _ in range(len(demand))]
    for idx, (u, _) in enumerate(arcs):
        out_arcs[u].append(idx)
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
            break  # the flow is used up, or what is left is solver noise
        weight = min(demand[node], *(flow[idx] for idx in path_arcs))
        for idx in path_arcs:
            flow[idx] -= weight
        demand[node] -= weight
        paths[node].append((tuple(path_vertices), float(weight)))
    return paths


def _solve_lp(ell: int, arcs) -> np.ndarray:
    """Optimal arc flows of the single-source LP: entry s * len(arcs) + a is
    commodity s's flow on arc a, and the last entry is gamma."""
    n_arcs = len(arcs)
    gamma_col = ell * n_arcs
    tail, head = np.array(arcs).T
    col = np.arange(gamma_col)
    source = col // n_arcs
    arc_tail = tail[col % n_arcs]
    arc_head = head[col % n_arcs]
    enters = arc_head != source
    leaves = arc_tail != source

    # conservation: in_s(w) - out_s(w) = 1 in row s * (ell - 1) + rank of w
    # among the vertices other than s; the row of w = s is implied
    def conservation_row(w):
        return source * (ell - 1) + w - (w > source)

    eq_rows = np.concatenate([conservation_row(arc_head)[enters], conservation_row(arc_tail)[leaves]])
    eq_cols = np.concatenate([col[enters], col[leaves]])
    eq_vals = np.concatenate([np.ones(enters.sum()), -np.ones(leaves.sum())])
    a_eq = sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(ell * (ell - 1), gamma_col + 1))
    # load at w: the fixed endpoint load 2*(ell-1) + 1 plus the transit, the
    # sum over s != w of in_s(w) - 1, at most gamma; so sum in_s(w) - gamma <= -ell
    ub_rows = np.concatenate([arc_head[enters], np.arange(ell)])
    ub_cols = np.concatenate([col[enters], np.full(ell, gamma_col)])
    ub_vals = np.concatenate([np.ones(enters.sum()), -np.ones(ell)])
    a_ub = sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(ell, gamma_col + 1))
    objective = np.zeros(gamma_col + 1)
    objective[gamma_col] = 1.0
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=np.full(ell, -float(ell)),
        A_eq=a_eq,
        b_eq=np.ones(ell * (ell - 1)),
        bounds=(0, None),
        method="highs",
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
    x = _solve_lp(ell, arcs)
    lp_gamma = float(x[-1])

    # directed[s][t]: commodity s's paths to t, weights normalized to 1
    directed = []
    for s in range(ell):
        flow = x[s * n_arcs : (s + 1) * n_arcs].copy()
        _remove_cycles(flow, arcs, ell)
        demand = [0.0 if w == s else 1.0 for w in range(ell)]
        by_sink = _decompose(flow, arcs, s, demand)
        for t, plist in enumerate(by_sink):
            if t == s:
                continue
            total = sum(w for _, w in plist)
            if abs(total - 1.0) > _DECOMPOSITION_SLACK:
                raise Infeasible(f"pair ({s}, {t}) decomposed to value {total}, expected 1")
            by_sink[t] = [(p, w / total) for p, w in plist]
        directed.append(by_sink)

    paths: dict[tuple[int, int], tuple[tuple[tuple[int, ...], float], ...]] = {}
    for w in range(ell):
        paths[(w, w)] = (((w,), 1.0),)
    for s in range(ell):
        for t in range(s + 1, ell):
            # half of each direction, merged; summed transit per vertex is
            # unchanged, so the congestion is still the LP optimum
            merged: dict[tuple[int, ...], float] = {}
            for p, w in directed[s][t]:
                merged[p] = merged.get(p, 0.0) + w / 2
            for p, w in directed[t][s]:
                merged[p[::-1]] = merged.get(p[::-1], 0.0) + w / 2
            paths[(s, t)] = tuple(merged.items())
            paths[(t, s)] = tuple((p[::-1], w) for p, w in merged.items())

    flow_obj = ConcurrentFlow(graph, paths, 0.0, lp_gamma)
    flow_obj.congestion = max(flow_obj.vertex_loads())
    return flow_obj


__all__ = ["ConcurrentFlow", "Infeasible", "min_congestion_flow"]
