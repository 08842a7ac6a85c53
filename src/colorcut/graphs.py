"""Shared undirected-graph primitives.

Canonical simple graphs, connectivity, and the random graph generators
used by the verification suites. Every connectivity question (a whole
graph, many vertex subsets at once, a union of color graphs) is answered
by one numpy hook-and-compress component labelling of edge arrays,
component_labels.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1.

    Edges are stored canonically: u < v, sorted lexicographically, no
    duplicates. Build through Graph.make to get normalization for free.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def make(vertex_count: int, edges) -> "Graph":
        if vertex_count < 0:
            raise ValueError("negative vertex count")
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            seen.add((u, v) if u < v else (v, u))
        return Graph(vertex_count, tuple(sorted(seen)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self) -> bool:
        return is_connected(self.vertex_count, self.edges)


def component_labels(vertex_count: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count and per-vertex component labels of the graph on
    vertex_count vertices whose edges are the rows of an (m, 2) int array.

    labels[v] is the smallest vertex id in v's component, and the count is
    the number of v with labels[v] == v. Rows may have u > v, be self-loops
    or repeat.

    Each round hooks the larger label of every edge whose endpoint labels
    differ to the smallest label it meets, then pointer-jumps until every
    label is a root. Labels only decrease and stay inside their component;
    the smallest vertex of a component is always its own root, so once no
    edge joins two labels each component carries that vertex's id. Every
    vertex starts as its own label, so round 1 hooks the rows as given;
    later rounds keep only the rows whose endpoint labels still differ."""
    labels = np.arange(vertex_count)
    u, v = edges[:, 0], edges[:, 1]
    lu, lv = u, v
    while True:
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if (jumped == labels).all():
                break
            labels = jumped
        lu, lv = labels[u], labels[v]
        differ = lu != lv
        if not differ.any():
            break
        u, v, lu, lv = u[differ], v[differ], lu[differ], lv[differ]
    return int(np.count_nonzero(labels == np.arange(vertex_count))), labels


def is_connected(vertex_count: int, edges) -> bool:
    """True iff the graph has a single component covering every vertex.

    Graphs with at most one vertex count as connected."""
    if vertex_count <= 1:
        return True
    rows = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return component_labels(vertex_count, rows)[0] == 1


def connected_in_subsets(graph: Graph, subsets) -> np.ndarray:
    """For each subset of the graph's vertices, is it nonempty and does it
    induce a connected subgraph? Every member must be a vertex.

    One component labelling answers all of them. There is a node per
    (subset, member) pair, numbered by subset and then by member, and an
    edge between two nodes of one subset wherever the graph joins their
    members. A subset is connected iff all its nodes carry the label of its
    first node, the smallest of them."""
    subsets = list(subsets)
    lengths = [len(s) for s in subsets]
    keys = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.int64, count=sum(lengths))
    keys += np.repeat(np.arange(len(subsets)) * graph.vertex_count, lengths)
    # ascending and without repeats: a node's number is its rank (one sort
    # and a mask, since np.unique costs several times more on small arrays)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    owner, member = np.divmod(keys, graph.vertex_count)
    sizes = np.bincount(owner, minlength=len(subsets))
    # pair each node with every edge (u, v) where u is its member (a Graph
    # keeps its edges sorted); the pair is an induced edge when v is in the
    # subset too
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    lo = np.searchsorted(edges[:, 0], member)
    count = np.searchsorted(edges[:, 0], member, side="right") - lo
    node = np.repeat(np.arange(len(keys)), count)
    edge = np.arange(len(node)) + np.repeat(lo - (np.cumsum(count) - count), count)
    target = owner[node] * graph.vertex_count + edges[edge, 1]
    at = np.searchsorted(keys, target).clip(max=len(keys) - 1)
    inside = keys[at] == target
    labels = component_labels(len(keys), np.stack([node[inside], at[inside]], axis=1))[1]
    split = np.zeros(len(subsets), dtype=bool)
    split[owner[labels != (np.cumsum(sizes) - sizes)[owner]]] = True
    return (sizes > 0) & ~split


def random_max_degree3_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Random simple graph with max degree 3 and exactly m edges.

    m must fit the degree budget (m <= 3n/2). Rare dead ends, where all
    remaining capacity sits on one vertex, trigger a restart.
    """
    if m > (3 * n) // 2:
        raise ValueError("m exceeds the degree-3 budget")
    while True:
        deg = [0] * n
        chosen: set[tuple[int, int]] = set()
        attempts = 0
        stuck = False
        while len(chosen) < m:
            attempts += 1
            if attempts > 200 * (m + 5):
                stuck = True
                break
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v or deg[u] >= 3 or deg[v] >= 3:
                continue
            e = (u, v) if u < v else (v, u)
            if e in chosen:
                continue
            chosen.add(e)
            deg[u] += 1
            deg[v] += 1
        if not stuck:
            return Graph.make(n, chosen)
