import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcut import flows
from colorcut.config import RunConfig
from colorcut.embedding import build_expander
from colorcut.flows import (
    Infeasible,
    _decompose,
    _out_arcs,
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


@pytest.mark.parametrize("step", ["passOptions", "passModel"])
def test_solve_lp_stops_when_highs_rejects_its_input(monkeypatch, step):
    # HiGHS answers a bad option value or a bad model with kError and keeps
    # its defaults; solving on would give an optimum of some other problem
    class Rejecting(flows.highs._Highs):
        def run(self):
            raise AssertionError("solved after HiGHS rejected its input")

    setattr(Rejecting, step, lambda self, *_: flows.highs.HighsStatus.kError)
    monkeypatch.setattr(flows.highs, "_Highs", Rejecting)
    graph = build_expander(5).graph
    arcs = [arc for u, v in graph.edges for arc in ((u, v), (v, u))]
    with pytest.raises(Infeasible, match="^LP solver failed: Not Set$"):
        _solve_lp(5, arcs)


def _assert_decomposes(arcs, before, flow, s, demand, paths):
    """paths deliver every sink its demand along simple walks from s over
    arcs, carry no more than the flow on any arc, and leave a residual
    with no flow out of s and none gained or lost at any vertex."""
    assert len(paths) == len(demand)
    carried = dict.fromkeys(arcs, 0.0)
    for t, plist in enumerate(paths):
        assert sum(w for _, w in plist) == pytest.approx(demand[t], abs=1e-9)
        for path, weight in plist:
            assert weight > 0 and path[0] == s and path[-1] == t
            assert len(set(path)) == len(path)
            for arc in zip(path, path[1:]):
                carried[arc] += weight
    for idx, arc in enumerate(arcs):
        assert -1e-12 <= flow[idx] <= before[idx] + 1e-12
        assert carried[arc] <= before[idx] + 1e-9
    for w in range(len(demand)):
        out_flow = sum(f for f, (u, _) in zip(flow, arcs) if u == w)
        in_flow = sum(f for f, (_, v) in zip(flow, arcs) if v == w)
        assert out_flow == pytest.approx(in_flow, abs=1e-9)
    assert all(f <= 1e-9 for f, (u, _) in zip(flow, arcs) if u == s)


TRIANGLE_ARCS = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]


@pytest.mark.parametrize(
    "flow,demand,expected",
    [
        # a unit 0->1 with half a unit of circulation 0->2->1->0 on top
        ([1.0, 0.5, 0.5, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0], [[], [((0, 1), 1.0)], []]),
        # a unit 0->1->2 whose walk first turns back to s along 1->0
        ([1.5, 0.5, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [[], [], [((0, 1, 2), 1.0)]]),
        # the circulations 0->1->2->0 and 0->2->0, with no demand anywhere
        ([1.0, 0.0, 0.5, 1.5, 1.0, 0.0], [0.0, 0.0, 0.0], [[], [], []]),
    ],
    ids=["circulation-on-a-unit", "cycle-through-s", "pure-circulation"],
)
def test_decompose_cancels_the_cycles_it_closes(flow, demand, expected):
    before = flow.copy()
    paths = _decompose(flow, TRIANGLE_ARCS, _out_arcs(TRIANGLE_ARCS, 3), 0, demand.copy())
    assert paths == expected
    _assert_decomposes(TRIANGLE_ARCS, before, flow, 0, demand, paths)
    # dyadic flows cancel exactly: each cancelled cycle zeroes its smallest arc
    assert flow == [0.0] * 6


# dyadic weights keep every sum exact, so no walk dead-ends on rounding
_WEIGHTS = st.integers(1, 8).map(lambda k: k / 8)


@st.composite
def _layered_flows(draw):
    """(arcs, flow, s, demand): weighted s-paths that follow one vertex
    order, so their sum is acyclic, with weighted directed cycles added,
    on the complete digraph with its arcs in a drawn order."""
    n = draw(st.integers(2, 6))
    s = draw(st.integers(0, n - 1))
    arcs = draw(st.permutations([(u, v) for u in range(n) for v in range(n) if u != v]))
    index = {arc: idx for idx, arc in enumerate(arcs)}
    order = [s, *draw(st.permutations([v for v in range(n) if v != s]))]
    flow = [0.0] * len(arcs)
    demand = [0.0] * n
    for hops, weight in draw(st.lists(st.tuples(st.sets(st.integers(1, n - 1), min_size=1), _WEIGHTS), max_size=4)):
        path = [s] + [order[i] for i in sorted(hops)]
        for arc in zip(path, path[1:]):
            flow[index[arc]] += weight
        demand[path[-1]] += weight
    for perm, length, weight in draw(
        st.lists(st.tuples(st.permutations(range(n)), st.integers(2, n), _WEIGHTS), max_size=4)
    ):
        cycle = perm[:length]
        for arc in zip(cycle, cycle[1:] + cycle[:1]):
            flow[index[arc]] += weight
    return arcs, flow, s, demand


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_layered_flows())
def test_decompose_property_on_layered_circulations(case):
    # a circulation that the walks strand off s's reach may stay behind:
    # the walks from s never see it, and it carries nothing to a sink
    arcs, flow, s, demand = case
    before = flow.copy()
    paths = _decompose(flow, arcs, _out_arcs(arcs, len(demand)), s, demand.copy())
    _assert_decomposes(arcs, before, flow, s, demand, paths)


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
                # vertex_loads counts each vertex of a path once
                assert len(set(path)) == len(path)
                digest.update(f"{pair} {path} {weight.hex()}\n".encode())
        digest.update(f"{flow.congestion.hex()} {flow.lp_congestion.hex()}\n".encode())
    assert digest.hexdigest() == FLOWS_SHA256


REFERENCE_HOSTS = [(ell, seed) for ell in range(4, 25) for seed in range(4)]


@pytest.mark.parametrize("ell,seed", REFERENCE_HOSTS)
def test_solve_lp_matches_linprog(ell, seed):
    # the direct HiGHS call must return linprog's optimum bit for bit; this
    # fails first if a scipy release moves or changes the private bindings
    graph = build_expander(ell, RunConfig(expander_seed=seed)).graph
    arcs = [arc for u, v in graph.edges for arc in ((u, v), (v, u))]
    expected = np.maximum(oracles.per_source_flow_lp(ell, arcs), 0.0)
    assert _solve_lp(ell, arcs).tobytes() == expected.tobytes()


def run_child(script, *path_front):
    """Run script in a fresh interpreter that finds colorcut after path_front."""
    src = str(Path(flows.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [*map(str, path_front), src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_embed_does_not_load_scipy_optimize(tmp_path):
    # flows loads the HiGHS extension from its file; in-process, pytest's
    # filterwarnings setting has already imported scipy.optimize
    script = f"""
        import contextlib, io, random, sys
        from colorcut import cli, flows
        from colorcut.formats import write_graph
        from colorcut.graphs import random_max_degree3_graph

        solves = []
        solve_lp = flows._solve_lp
        flows._solve_lp = lambda *args: solves.append(args) or solve_lp(*args)
        with open({str(tmp_path / "g.graph")!r}, "w") as f:
            f.write(write_graph(random_max_degree3_graph(40, 50, random.Random(3))))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["embed", f.name, "-k", "16", "-o", {str(tmp_path / "g.embed")!r}])
        assert code == 0 and solves, (code, solves)
        loaded = {{"scipy.optimize", "scipy.sparse", "scipy.linalg"}} & set(sys.modules)
        assert not loaded, loaded
    """
    done = run_child(script)
    assert done.returncode == 0, done.stderr


IMPORT_ORDERS = {
    "colorcut-first": "from colorcut import flows\nfrom scipy.optimize import linprog",
    "scipy-first": "from scipy.optimize import linprog\nfrom colorcut import flows",
}


@pytest.mark.parametrize("imports", IMPORT_ORDERS.values(), ids=IMPORT_ORDERS.keys())
def test_linprog_and_flows_share_the_highs_module(imports):
    script = imports + textwrap.dedent(
        """
        import sys
        from colorcut.graphs import Graph

        result = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method="highs")
        assert result.status == 0 and result.x.tolist() == [1.0, 0.0], result
        assert sys.modules["scipy.optimize._highspy._core"] is flows.highs
        assert flows.min_congestion_flow(Graph.make(3, [(0, 1), (1, 2)])).congestion == 7.0
        """
    )
    done = run_child(script)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("stub", ["scipy/__init__.py", "scipy.py"], ids=["empty-package", "plain-module"])
def test_missing_highs_extension_is_an_import_error(tmp_path, stub):
    # a scipy without the extension where flows looks for it, first on the path
    (tmp_path / stub).parent.mkdir(exist_ok=True)
    (tmp_path / stub).write_text("")
    if stub == "scipy.py":
        reason = "no scipy package found"
    else:
        reason = f"no _core extension in {tmp_path / 'scipy' / 'optimize' / '_highspy'}"
    done = run_child("import colorcut.flows", tmp_path)
    expected = f"ImportError: colorcut needs scipy>=1.15 for scipy.optimize._highspy._core; {reason}"
    assert done.stderr.strip().splitlines()[-1] == expected, done.stderr
