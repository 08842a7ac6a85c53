import hashlib
import random
import warnings

import numpy as np
import oracles
import pytest

from colorcut.config import RunConfig
from colorcut.embedding import build_expander
from colorcut.flows import (
    Infeasible,
    _decompose,
    _out_arcs,
    _remove_cycles,
    _solve_lp,
    min_congestion_flow,
)
from colorcut.graphs import Graph, random_max_degree3_graph

# Hand-derived optima. Endpoint load at any vertex is 2*(ell-1)+1; transit
# flow counts twice (mirrored ordered pairs).
#   K2: no transit                              -> 3
#   P3: middle carries the (0,2) unit           -> 5 + 2 = 7
#   triangle: every pair adjacent               -> 5
#   C4: two antipodal units split over 4 spots  -> 7 + 1 = 8
#   K4: every pair adjacent                     -> 7
#   star K1,3: center carries 3 leaf pairs      -> 7 + 6 = 13
FROZEN = [
    (Graph.make(2, [(0, 1)]), 3.0),
    (Graph.make(3, [(0, 1), (1, 2)]), 7.0),
    (Graph.make(3, [(0, 1), (0, 2), (1, 2)]), 5.0),
    (Graph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 8.0),
    (Graph.make(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), 7.0),
    (Graph.make(4, [(0, 1), (0, 2), (0, 3)]), 13.0),
]


@pytest.mark.parametrize("graph,expected", FROZEN)
def test_frozen_congestion_optima(graph, expected):
    flow = min_congestion_flow(graph)
    assert abs(flow.lp_congestion - expected) < 1e-6
    assert abs(flow.congestion - expected) < 1e-6


def _assert_valid_paths(flow):
    """Every ordered pair has simple paths along host edges between its
    endpoints, weights summing to 1, and paths[(v, u)] reverses paths[(u, v)]."""
    edge_set = frozenset(flow.graph.edges)
    ell = flow.graph.vertex_count
    assert sorted(flow.paths) == [(u, v) for u in range(ell) for v in range(ell)]
    for (u, v), plist in flow.paths.items():
        assert abs(sum(w for _, w in flow.paths[(u, v)]) - 1.0) < 1e-9
        for path, weight in plist:
            assert weight > 0
            assert path[0] == u and path[-1] == v
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert ((a, b) if a < b else (b, a)) in edge_set
        assert flow.paths[(v, u)] == tuple((p[::-1], w) for p, w in plist)


def test_flow_paths_are_valid():
    _assert_valid_paths(min_congestion_flow(Graph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))


def test_flow_diagonal_pairs():
    flow = min_congestion_flow(Graph.make(3, [(0, 1), (1, 2)]))
    for w in range(3):
        assert flow.paths[(w, w)] == (((w,), 1.0),)


def test_flow_mirrored_pairs():
    flow = min_congestion_flow(Graph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    for (u, v), plist in flow.paths.items():
        mirrored = tuple((tuple(reversed(p)), w) for p, w in plist)
        if u != v:
            assert set(flow.paths[(v, u)]) == set(mirrored)


def test_flow_deterministic():
    graph = Graph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    a = min_congestion_flow(graph)
    b = min_congestion_flow(graph)
    assert a.paths == b.paths
    assert a.congestion == b.congestion


class _NoRandomness:
    def random(self):
        raise AssertionError("rng consulted for a single path")


def test_flow_sample_returns_stored_path():
    graph = Graph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    flow = min_congestion_flow(graph)
    rng = random.Random(5)
    stored = {p for p, _ in flow.paths[(0, 2)]}
    for _ in range(50):
        assert flow.sample(0, 2, rng) in stored
    # single-path pairs (the diagonal at least) skip the rng entirely
    for (u, v), plist in flow.paths.items():
        if len(plist) == 1:
            assert flow.sample(u, v, _NoRandomness()) == plist[0][0]


def test_flow_congestion_matches_loads():
    graph = Graph.make(4, [(0, 1), (0, 2), (0, 3)])
    flow = min_congestion_flow(graph)
    loads = flow.vertex_loads()
    assert abs(max(loads) - flow.congestion) < 1e-12
    assert abs(loads[0] - 13.0) < 1e-6
    for leaf in (1, 2, 3):
        assert abs(loads[leaf] - 7.0) < 1e-6


def test_flow_rejects_bad_hosts():
    with pytest.raises(Infeasible):
        min_congestion_flow(Graph.make(2, []))
    with pytest.raises(ValueError):
        min_congestion_flow(Graph.make(0, []))


def test_flow_single_vertex():
    flow = min_congestion_flow(Graph.make(1, []))
    assert flow.paths == {(0, 0): (((0,), 1.0),)}
    assert flow.congestion == 1.0


def test_solve_lp_options_are_all_recognized():
    # scipy drops an option it does not know with only an OptimizeWarning
    graph = build_expander(5).graph
    arcs = [arc for u, v in graph.edges for arc in ((u, v), (v, u))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _solve_lp(5, arcs)
    assert [str(w.message) for w in caught] == []


def test_cycle_removal_then_decompose():
    # unit 0->1 flow with half a unit of circulation layered on top
    arcs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    flow = [1.0, 0.5, 0.5, 0.0, 0.0, 0.5]
    before = flow.copy()
    _remove_cycles(flow, arcs, _out_arcs(arcs, 3))
    assert all(-1e-12 <= f <= b + 1e-12 for f, b in zip(flow, before))
    # divergence at every vertex is untouched, only circulation is gone
    for w in range(3):
        out_delta = sum(
            before[i] - flow[i] for i, (u, _) in enumerate(arcs) if u == w
        )
        in_delta = sum(
            before[i] - flow[i] for i, (_, v) in enumerate(arcs) if v == w
        )
        assert abs(out_delta - in_delta) < 1e-9
    # acyclic: repeatedly strip vertices with no incoming positive arc
    remaining = {i for i, f in enumerate(flow) if f > 1e-9}
    alive = {0, 1, 2}
    while alive:
        heads = {arcs[i][1] for i in remaining if arcs[i][0] in alive}
        sourceless = alive - heads
        assert sourceless, "positive arcs form a directed cycle"
        alive -= sourceless
        remaining = {i for i in remaining if arcs[i][0] in alive}
    paths = _decompose(flow, arcs, _out_arcs(arcs, 3), 0, [0.0, 1.0, 0.0])[1]
    assert sum(w for _, w in paths) == pytest.approx(1.0)
    for path, _ in paths:
        assert path[0] == 0 and path[-1] == 1
        assert len(set(path)) == len(path)
    assert np.allclose(flow, 0.0)


def test_decompose_greedy_split():
    # two parallel routes 0-1 and 0-2-1 carrying half a unit each
    arcs = [(0, 1), (1, 0), (0, 2), (2, 0), (2, 1), (1, 2)]
    flow = [0.5, 0.0, 0.5, 0.0, 0.5, 0.0]
    paths = _decompose(flow, arcs, _out_arcs(arcs, 3), 0, [0.0, 1.0, 0.0])[1]
    assert paths == [((0, 1), 0.5), ((0, 2, 1), 0.5)]


def test_decompose_stops_at_first_unmet_demand():
    # single-source flow on the path 0-1-2: one unit ends at 1, one passes on
    arcs = [(0, 1), (1, 0), (1, 2), (2, 1)]
    flow = [2.0, 0.0, 1.0, 0.0]
    paths = _decompose(flow, arcs, _out_arcs(arcs, 3), 0, [0.0, 1.0, 1.0])
    assert paths == [[], [((0, 1), 1.0)], [((0, 1, 2), 1.0)]]
    assert np.allclose(flow, 0.0)


def test_decompose_cancels_a_dead_end_walk():
    # solver noise on 0->1 leads to a vertex with no demand and no way on;
    # the unit on 0->2 must still reach its sink
    arcs = [(0, 1), (1, 0), (0, 2), (2, 0)]
    flow = [1e-9, 0.0, 1.0, 0.0]
    paths = _decompose(flow, arcs, _out_arcs(arcs, 3), 0, [0.0, 0.0, 1.0])
    assert paths == [[], [], [((0, 2), 1.0)]]
    assert np.allclose(flow, 0.0)


def _connected_max_degree3(ell, rng):
    while True:
        graph = random_max_degree3_graph(ell, rng.randint(ell - 1, 3 * ell // 2), rng)
        if graph.is_connected():
            return graph


ORACLE_HOSTS = {
    **{f"random{ell}": _connected_max_degree3(ell, random.Random(ell)) for ell in range(2, 11)},
    **{f"expander{ell}": build_expander(ell).graph for ell in (8, 17, 21)},
}


@pytest.mark.parametrize("graph", ORACLE_HOSTS.values(), ids=ORACLE_HOSTS.keys())
def test_flow_matches_pairwise_lp_oracle(graph):
    flow = min_congestion_flow(graph)
    expected = oracles.pairwise_congestion_lp(graph)
    assert abs(flow.lp_congestion - expected) < 1e-6
    assert abs(flow.congestion - expected) < 1e-6
    _assert_valid_paths(flow)


# the default expanders up to ell = 24, and (ell, expander_seed) pairs whose
# LP optimum leaves arc flows just above the decomposition's noise floor
EXPANDER_HOSTS = [(ell, 0) for ell in range(2, 25)] + [(38, 0), (28, 2), (36, 2)]


@pytest.mark.parametrize("ell,seed", EXPANDER_HOSTS)
def test_flow_on_certified_expanders(ell, seed):
    flow = min_congestion_flow(build_expander(ell, RunConfig(expander_seed=seed)).graph)
    _assert_valid_paths(flow)
    assert abs(flow.congestion - flow.lp_congestion) < 1e-6


# sha256 over every path (vertex tuple and weight.hex()) and both congestions
# of min_congestion_flow on the default expanders for ell = 4..24 and on
# expander seeds 1-3 at ell in {8, 17, 21}: any change to the LP's optimal
# vertex or to the path decomposition changes it
FLOWS_SHA256 = "ee1d971eb80c3095679b13c451e8e7fcde42bb9af75390175c97de45fc3424aa"
PINNED_FLOW_HOSTS = [(ell, 0) for ell in range(4, 25)] + [
    (ell, seed) for ell in (8, 17, 21) for seed in (1, 2, 3)
]


def test_flows_are_pinned():
    digest = hashlib.sha256()
    for ell, seed in PINNED_FLOW_HOSTS:
        flow = min_congestion_flow(build_expander(ell, RunConfig(expander_seed=seed)).graph)
        for pair, plist in sorted(flow.paths.items()):
            for path, weight in plist:
                digest.update(f"{pair} {path} {weight.hex()}\n".encode())
        digest.update(f"{flow.congestion.hex()} {flow.lp_congestion.hex()}\n".encode())
    assert digest.hexdigest() == FLOWS_SHA256
