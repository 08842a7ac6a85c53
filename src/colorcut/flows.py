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
costs 10-15% of a solve at ell = 17-21. The LP goes to scipy's HiGHS
bindings directly, as the column-wise matrix and with the options that
scipy's linprog(method="highs", options={"presolve": False}) would pass:
linprog's wrapper spends 3-5 ms a solve at ell = 17-21 building duals,
basis statuses and a result object that nothing here reads. The arrays go
over in one passModel call (HighsLp field by field took 0.7 ms more). Each
commodity's flow, taken out of the optimum as Python floats, is split into
paths to its sinks by greedy walks that cancel each cycle they close.

The bindings are one extension module, scipy.optimize._highspy._core, and
it is loaded from its file: importing it by name runs scipy.optimize's
package __init__ first, which imports scipy's linalg, sparse and special:
with scipy 1.17.1 on 2 vCPUs that was 0.49-0.56 s and about 40 MB of every
colorcut process, for modules nothing here calls, where the extension
alone loads in about 0.01 s. The file is found in scipy's directory, so
this still depends on scipy's private layout; the tests check the optimum
against linprog's bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

_HIGHS = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS extension, loaded from its file without scipy.optimize.

    A module already in sys.modules is reused. Otherwise the extension is
    found in scipy's directory, which find_spec names without importing
    scipy, and registered under its own name before it runs, so a later
    scipy.optimize import gets this same module object.
    """
    if _HIGHS in sys.modules:
        return sys.modules[_HIGHS]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError(f"colorcut needs scipy>=1.15 for {_HIGHS}; no scipy package found")
    directory = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(_HIGHS)
    if spec is None:
        raise ImportError(f"colorcut needs scipy>=1.15 for {_HIGHS}; no _core extension in {directory}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS]
        raise
    return module


highs = _load_highs()

# linprog(method="highs", options={"presolve": False})'s options
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "off"
_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False

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
            # decomposed paths are simple, so each vertex counts once
            for path, w in plist:
                for vtx in path:
                    loads[vtx] += w
        return loads


def _out_arcs(arcs, vertex_count: int) -> list[list[int]]:
    """Indices of the arcs leaving each vertex, in ascending order."""
    out_arcs: list[list[int]] = [[] for _ in range(vertex_count)]
    for idx, (u, _) in enumerate(arcs):
        out_arcs[u].append(idx)
    return out_arcs


def _decompose(flow: list[float], arcs, out_arcs, s: int, demand: list[float]):
    """Greedy path decomposition of one commodity's flow out of s.

    demand[w] is what the flow delivers to w (zero at s and at pure transit
    vertices). Each walk leaves s, always follows the smallest-index
    positive arc, and stops at the first vertex with unmet demand, so the
    output is deterministic. A walk that steps onto a vertex already on it
    has closed a cycle: the cycle's smallest arc flow is cancelled around
    it, the walk is cut back to that vertex and goes on from there, so
    every path is simple. A walk that ends at a vertex with neither demand
    nor a positive out-arc followed solver noise; its smallest arc flow is
    cancelled along it and the walk is dropped. Returns per-sink lists of
    (path, weight); flow and demand are used up in place.
    """
    paths: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in demand]
    # each walk that does not end the loop zeroes a demand or an arc, and so
    # does each cycle it cancels
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
            node = arcs[nxt_arc][1]
            if node in path_vertices:
                cut = path_vertices.index(node)
                cycle = path_arcs[cut:] + [nxt_arc]
                drop = min(flow[idx] for idx in cycle)
                for idx in cycle:
                    flow[idx] -= drop
                del path_vertices[cut + 1 :], path_arcs[cut:]
                continue
            path_arcs.append(nxt_arc)
            path_vertices.append(node)
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

    # rows 0..ell-1 bound the load at each vertex w: the fixed endpoint load
    # 2*(ell-1) + 1 plus the transit. Each path also runs reversed, so the
    # transit is twice the sum over s != w of in_s(w) - [w > s], and
    # sum_s [w > s] = w; so 2 * sum in_s(w) - gamma <= 2w - 2(ell-1) - 1.
    # Conservation in_s(w) - out_s(w) = [w > s] follows in row
    # ell + s * (ell - 1) + rank of w among the vertices other than s; the
    # row of w = s is implied, and the vertex of rank r lies past s exactly
    # when r >= s
    def conservation_row(w):
        return ell + source * (ell - 1) + w - (w > source)

    rank = np.arange(ell - 1)
    demand = (np.tile(rank, ell - 1) >= np.repeat(rank, ell - 1)).astype(float)
    rows = np.concatenate(
        [arc_head[enters], conservation_row(arc_head)[enters], conservation_row(arc_tail)[leaves], np.arange(ell)]
    )
    cols = np.concatenate([col[enters], col[enters], col[leaves], np.full(ell, gamma_col)])
    vals = np.concatenate([np.full(enters.sum(), 2.0), np.ones(enters.sum()), -np.ones(leaves.sum()), -np.ones(ell)])
    # column-wise with rows ascending in each column, as linprog hands it over
    order = np.lexsort((rows, cols))
    num_col = gamma_col + 1
    start = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=num_col))]).astype(np.int32)
    cost = (np.arange(num_col) == gamma_col).astype(float)
    # passModel's array form; HiGHS rejects an empty integrality array
    model = (
        num_col, ell + (ell - 1) ** 2, len(order), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        cost, np.zeros(num_col), np.full(num_col, highs.kHighsInf),
        np.concatenate([np.full(ell, -highs.kHighsInf), demand]),
        np.concatenate([2.0 * np.arange(ell) - 2 * (ell - 1) - 1, demand]),
        start, rows[order].astype(np.int32), vals[order], np.zeros(num_col, dtype=np.int32),
    )
    solver = highs._Highs()
    error = highs.HighsStatus.kError
    if (
        solver.passOptions(_OPTIONS) == error
        or solver.passModel(*model) == error
        or solver.run() == error
        or solver.getModelStatus() != highs.HighsModelStatus.kOptimal
    ):
        raise Infeasible(f"LP solver failed: {solver.modelStatusToString(solver.getModelStatus())}")
    return np.maximum(solver.getSolution().col_value, 0.0)


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
