import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import numpy as np

import colorcut
from oracles import (
    UnionFind,
    bfs_component_count,
    component_count,
    max_degree,
    random_simple_graph,
)
from colorcut.graphs import (
    Graph,
    component_labels,
    connected_in_subsets,
    is_connected,
    random_max_degree3_graph,
)
from colorcut.gadgets import reduce_psi_to_dcmc
from colorcut.verify import exhaustive_gadget_family


def test_make_normalizes_and_dedupes():
    g = Graph.make(4, [(3, 1), (1, 3), (0, 2), (2, 0)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.edge_count == 2


def test_make_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.make(3, [(1, 1)])


def test_make_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.make(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.make(3, [(-1, 2)])


def test_degrees_and_adjacency():
    g = Graph.make(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degrees() == [3, 1, 1, 1]
    assert max_degree(g) == 3


def test_is_connected_small_cases():
    assert is_connected(0, [])
    assert is_connected(1, [])
    assert not is_connected(2, [])
    assert is_connected(2, [(0, 1)])
    assert is_connected(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_connected(4, [(0, 1), (2, 3)])


def test_component_count():
    assert component_count(5, [(0, 1), (2, 3)]) == 3
    assert component_count(3, []) == 3
    assert component_count(3, [(0, 1), (1, 2)]) == 1


def check_component_labels(n, rows):
    """component_labels against union-find: same count, same partition, and
    each label the smallest vertex id of its component."""
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    count, labels = component_labels(n, edges)
    assert count == component_count(n, rows)
    uf = UnionFind(n)
    for u, v in rows:
        uf.union(u, v)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(uf.find(v), []).append(v)
    expected = [0] * n
    for component in members.values():
        smallest = min(component)
        for v in component:
            expected[v] = smallest
    assert labels.tolist() == expected


def test_component_labels_match_union_find():
    count, labels = component_labels(6, np.array([[0, 1], [2, 3], [3, 4]]))
    assert count == 3
    assert labels[0] == labels[1] != labels[2] == labels[3] == labels[4] != labels[5]
    assert component_labels(3, np.empty((0, 2), dtype=np.int64))[0] == 3
    rng = random.Random(3)
    for _ in range(40):
        g = random_simple_graph(rng.randint(1, 12), 0, rng)
        n = g.vertex_count
        g = random_simple_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
        assert component_labels(n, edges)[0] == component_count(n, g.edges)
        check_component_labels(n, list(g.edges))


def test_component_labels_any_rows():
    # rows with u > v, self-loops and repeats, as a union of color graphs has
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 30)
        rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        rows += rng.sample(rows, len(rows) // 3)
        check_component_labels(n, rows)
    check_component_labels(4, [(3, 1), (1, 3), (3, 3), (2, 0), (2, 0)])
    # every pair union of the largest family dual, hub edges repeated
    largest = max(
        exhaustive_gadget_family(),
        key=lambda inst: (len(inst.pattern_edges), inst.block_size, len(inst.host_edges)),
    )
    dual = reduce_psi_to_dcmc(largest).dual
    for pair in itertools.combinations(range(1, dual.p + 1), 2):
        check_component_labels(dual.vertex_count, dual.union(pair).tolist())


def test_component_labels_without_edges():
    check_component_labels(0, [])
    check_component_labels(1, [])
    check_component_labels(5, [])
    check_component_labels(7, [(5, 2), (2, 6)])  # 0, 1, 3 and 4 stay alone


def test_component_labels_adversarial_shapes():
    n = 10_000
    order = list(range(n))
    random.Random(11).shuffle(order)
    check_component_labels(n, list(zip(order, order[1:])))  # path in random id order
    check_component_labels(50, [(49, v) for v in range(49)])  # centre has the highest id
    check_component_labels(50, [(0, v) for v in range(1, 50)])  # centre has the lowest id
    spine = list(range(99, 49, -1))  # a descending spine, one smaller leaf on each
    caterpillar = list(zip(spine, spine[1:])) + [(s, s - 50) for s in spine]
    check_component_labels(100, caterpillar)


def test_union_tests_do_not_load_scipy_csgraph():
    # the gadget checks and the dual solver label components with numpy alone
    script = textwrap.dedent(
        """
        import itertools, sys
        from colorcut.config import RunConfig
        from colorcut.instances import solve_dual_bruteforce
        from colorcut.verify import check_gadget_instance, exhaustive_gadget_family

        for inst in itertools.islice(exhaustive_gadget_family(), 0, 798, 160):
            result = check_gadget_instance(inst, RunConfig())
            solve_dual_bruteforce(result["reduction"].dual)
        assert "scipy.sparse.csgraph" not in sys.modules
        """
    )
    src = str(Path(colorcut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_connected_in_subset():
    g = Graph.make(5, [(0, 1), (1, 2), (3, 4)])
    subsets = [{0, 1, 2}, {3, 4}, {0, 2}, {0, 3}, {2}, set()]
    # 1 is the only bridge between 0 and 2
    assert connected_in_subsets(g, subsets).tolist() == [True, True, False, False, True, False]
    assert connected_in_subsets(g, []).tolist() == []
    assert connected_in_subsets(Graph.make(3, []), [{0}, {1, 2}, {2}]).tolist() == [True, False, True]


def test_is_connected_matches_oracles():
    rng = random.Random(11)
    cases = [(0, []), (1, []), (2, []), (5, [])]
    for _ in range(300):
        n = rng.randint(2, 12)
        m = rng.randint(0, min(n * (n - 1) // 2, 2 * n))
        cases.append((n, list(random_simple_graph(n, m, rng).edges)))
    for n, edges in cases:
        expected = n <= 1 or bfs_component_count(n, edges) == 1
        assert expected == (n <= 1 or component_count(n, edges) == 1)
        for given in (edges, tuple(edges), [list(e) for e in edges]):
            assert is_connected(n, given) == expected, (n, edges)
        assert Graph.make(n, edges).is_connected() == expected


def _induced_components(graph, subset):
    """Component counts of the subgraph `subset` induces, by BFS and by
    union-find, on the subset's positions in sorted order."""
    index = {w: i for i, w in enumerate(sorted(set(subset)))}
    induced = [(index[u], index[v]) for u, v in graph.edges if u in index and v in index]
    return bfs_component_count(len(index), induced), component_count(len(index), induced)


def test_connected_in_subset_matches_oracles():
    rng = random.Random(12)
    mix = random.Random(13)  # repeats and orders, apart from the graphs

    def repeated(subset):
        """The subset as a list, each member one to three times, shuffled."""
        given = [w for w in subset for _ in range(mix.randint(1, 3))]
        mix.shuffle(given)
        return given

    for _ in range(200):
        n = rng.randint(1, 14)
        graph = random_simple_graph(n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)), rng)
        touched = {w for e in graph.edges for w in e}
        subsets = [set(), {rng.randrange(n)}, set(range(n)) - touched, set(range(n))]
        subsets += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(6)]
        expected = []
        for subset in subsets:
            bfs, uf = _induced_components(graph, subset)
            assert bfs == uf
            expected.append(bfs == 1)
            for given in (subset, frozenset(subset), sorted(subset, reverse=True), repeated(subset)):
                assert connected_in_subsets(graph, [given]).tolist() == [bfs == 1], (graph, subset)
        # all at once, in a shuffled order, as sets and as lists with repeats
        order = rng.sample(range(len(subsets)), len(subsets))
        got = connected_in_subsets(graph, [subsets[i] for i in order]).tolist()
        assert got == [expected[i] for i in order], graph
        got = connected_in_subsets(graph, [repeated(subsets[i]) for i in order]).tolist()
        assert got == [expected[i] for i in order], graph


def test_union_find_tracks_components():
    uf = UnionFind(4)
    assert uf.components == 4
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.union(2, 3)
    assert uf.components == 2
    assert uf.find(1) == uf.find(0)
    assert uf.find(2) != uf.find(0)


def test_random_simple_graph_properties():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 9)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_simple_graph(n, m, rng)
        assert g.edge_count == m
        assert len(set(g.edges)) == m


def test_random_simple_graph_rejects_overfull():
    with pytest.raises(ValueError):
        random_simple_graph(3, 4, random.Random(0))


def test_random_simple_graph_deterministic():
    a = random_simple_graph(8, 10, random.Random(42))
    b = random_simple_graph(8, 10, random.Random(42))
    assert a == b


def test_random_max_degree3_properties():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(4, 40)
        m = rng.randint(0, (3 * n) // 2)
        g = random_max_degree3_graph(n, m, rng)
        assert g.edge_count == m
        assert max_degree(g) <= 3


def test_random_max_degree3_rejects_overfull():
    with pytest.raises(ValueError):
        random_max_degree3_graph(4, 7, random.Random(0))


def test_random_max_degree3_handles_tight_budget():
    # m == 3n/2 forces a 3-regular graph; the restart logic must still finish
    g = random_max_degree3_graph(8, 12, random.Random(3))
    assert g.degrees() == [3] * 8
