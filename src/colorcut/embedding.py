"""Expander hosts and randomized low-depth embeddings into them.

The embedding pipeline: replace high-degree vertices by cycles, bucket the
resulting vertices round-robin onto a certified near-3-regular expander,
and route every cross-bucket edge along two sampled minimum-congestion flow
paths that meet at a uniformly random host vertex. Depth is audited against
big_c * (1 + (n+m)/k) * ln k and the run fails (to be retried with the next
seed) when it lands above.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .config import (
    DEFAULT_BIG_C_HAT,
    DEFAULT_C_HAT,
    DEFAULT_EMBED_RETRIES,
    DEFAULT_EXPANSION_TARGET,
    RunConfig,
)
from .flows import ConcurrentFlow, min_congestion_flow
from .graphs import Graph, connected_in_subsets
from .instances import DEFAULT_GRAPH_VERTEX_CAP, CapExceeded


class InvalidK(ValueError):
    """The size budget k must be at least 2."""


class InvalidEmbedding(ValueError):
    """Branch sets that do not embed a graph into a host."""


class ExpansionTargetUnmet(Exception):
    """No sampled host reached the expansion target; lower the target."""


class EmbeddingFailed(Exception):
    """Depth exceeded the audited bound for this seed."""

    def __init__(self, depth: int, bound: float, seed: int):
        super().__init__(f"depth {depth} exceeds bound {bound:.3f} (seed {seed})")
        self.depth = depth
        self.bound = bound
        self.seed = seed


# ---------------------------------------------------------------------------
# Expanders and their certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpanderCertificate:
    """Host graph with a certified lower bound on its edge expansion.

    delta_hat is exact (a Fraction) when method is "exhaustive" and a float
    spectral lower bound when method is "spectral".
    """

    graph: Graph
    delta_hat: Fraction | float
    method: str


def edge_expansion_exhaustive(graph: Graph) -> Fraction:
    """Exact edge expansion min over nonempty S, |S| <= n/2, of |bd(S)|/|S|.

    Exponential in the vertex count; guarded at 20 vertices. Single-vertex
    graphs certify vacuously at 3 (no eligible S exists).
    """
    n = graph.vertex_count
    if n > 20:
        raise CapExceeded(f"{n} vertices is too many for exhaustive expansion")
    if n <= 1:
        return Fraction(3)
    adj_mask = [0] * n
    for u, v in graph.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best: Fraction | None = None
    half = n // 2
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        if size > half:
            continue
        boundary = 0
        rest = subset
        while rest:
            v = (rest & -rest).bit_length() - 1
            boundary += (adj_mask[v] & ~subset).bit_count()
            rest &= rest - 1
        value = Fraction(boundary, size)
        if best is None or value < best:
            best = value
            if best == 0:
                break
    assert best is not None
    return best


def spectral_expansion_bound(graph: Graph) -> float:
    """Laplacian lower bound: any S with |S| <= n/2 has boundary at least
    lambda2 * |S| * (n - |S|) / n >= lambda2 * |S| / 2."""
    n = graph.vertex_count
    lap = np.zeros((n, n))
    for u, v in graph.edges:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    eigenvalues = np.linalg.eigvalsh(lap)
    return max(0.0, float(eigenvalues[1]) / 2.0)


def _certify(graph: Graph, exhaustive_cap: int) -> ExpanderCertificate:
    if graph.vertex_count <= exhaustive_cap:
        return ExpanderCertificate(graph, edge_expansion_exhaustive(graph), "exhaustive")
    return ExpanderCertificate(graph, spectral_expansion_bound(graph), "spectral")


def _configuration_cubic(ell: int, rng: random.Random) -> Graph | None:
    """One configuration-model draw of a (near-)3-regular graph; None when
    the pairing produces a loop or a parallel edge. Odd ell leaves the last
    vertex at degree 2 to keep the stub count even."""
    stubs = []
    for v in range(ell):
        stubs.extend([v] * (2 if (ell % 2 == 1 and v == ell - 1) else 3))
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            return None
        e = (u, v) if u < v else (v, u)
        if e in edges:
            return None
        edges.add(e)
    return Graph.make(ell, edges)


def _chord_cycle(ell: int) -> Graph:
    """Deterministic fallback: a cycle plus long chords, max degree 3."""
    edges = [(i, (i + 1) % ell) for i in range(ell)]
    edges.extend((i, i + ell // 2) for i in range(ell // 2))
    return Graph.make(ell, edges)


def build_expander(ell: int, cfg: RunConfig = RunConfig()) -> ExpanderCertificate:
    """Connected max-degree-3 host on ell vertices whose certificate meets
    cfg.expander_target: exact subset enumeration up to
    cfg.expander_exhaustive_cap vertices, a spectral lower bound beyond,
    resampling the configuration model (seeded by cfg.expander_seed) up to
    cfg.expander_retries times until the certificate clears the target."""
    exhaustive_cap, target = cfg.expander_exhaustive_cap, cfg.expander_target
    if ell < 1:
        raise ValueError("need at least one vertex")
    if ell <= 3:
        return _certify(Graph.make(ell, combinations(range(ell), 2)), exhaustive_cap)
    rng = random.Random(1_000_003 * cfg.expander_seed + ell)
    for _ in range(cfg.expander_retries):
        graph = _configuration_cubic(ell, rng)
        if graph is None or not graph.is_connected():
            continue
        cert = _certify(graph, exhaustive_cap)
        if float(cert.delta_hat) >= target:
            return cert
    cert = _certify(_chord_cycle(ell), exhaustive_cap)
    if float(cert.delta_hat) >= target:
        return cert
    raise ExpansionTargetUnmet(
        f"no host on {ell} vertices certified above {target}; lower the expansion target"
    )


# ---------------------------------------------------------------------------
# Degree reduction
# ---------------------------------------------------------------------------


def reduce_degrees(graph: Graph) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Replace every vertex of degree > 3 by a cycle on deg(v) vertices.

    Each original incident edge attaches to its own cycle vertex (edges in
    canonical order, attachment points round-robin), so the result has max
    degree 3. Returns the reduced graph and, per original vertex, the tuple
    of replacement vertices (a singleton when nothing changed).
    """
    degs = graph.degrees()
    groups: list[tuple[int, ...]] = []
    next_id = 0
    for v in range(graph.vertex_count):
        size = degs[v] if degs[v] > 3 else 1
        groups.append(tuple(range(next_id, next_id + size)))
        next_id += size
    new_edges: list[tuple[int, int]] = []
    cursor = [0] * graph.vertex_count
    for u, v in graph.edges:
        gu, gv = groups[u], groups[v]
        au = gu[cursor[u] % len(gu)]
        av = gv[cursor[v] % len(gv)]
        cursor[u] += 1
        cursor[v] += 1
        new_edges.append((au, av))
    for group in groups:
        if len(group) > 1:
            for i, w in enumerate(group):
                new_edges.append((w, group[(i + 1) % len(group)]))
    return Graph.make(next_id, new_edges), tuple(groups)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathDraw:
    """Sampled routing of one cross-bucket edge: both paths end at the meet
    vertex; low_path belongs to the endpoint with the smaller bucket."""

    edge: tuple[int, int]
    meet: int
    low_path: tuple[int, ...]
    high_path: tuple[int, ...]


@dataclass
class Embedding:
    """Branch-set assignment of a source graph into a host graph.

    branch_sets are keyed by source vertices. zeta is keyed by the bucketed
    vertices, which are the source vertices themselves unless degree
    reduction renamed them (the `reduced` property tells the two apart).
    """

    host: Graph
    branch_sets: dict[int, frozenset[int]]
    zeta: dict[int, int]
    ell: int
    draws: tuple[PathDraw, ...] = ()

    @property
    def reduced(self) -> bool:
        return set(self.zeta) != set(self.branch_sets)

    @property
    def load(self) -> Counter[int]:
        """Branch sets holding each host vertex, counted per branch-set
        member, so a huge host vertex count costs nothing; ids outside the
        host are validate_embedding's to report."""
        n = self.host.vertex_count
        return Counter(w for bs in self.branch_sets.values() for w in bs if 0 <= w < n)

    @property
    def depth(self) -> int:
        return max(self.load.values(), default=0)

    def depth_profile(self) -> list[int]:
        load = self.load
        return [load[w] for w in range(self.host.vertex_count)]


def depth_bound(k: int, n: int, m: int, big_c: float) -> float:
    return big_c * (1.0 + (n + m) / k) * math.log(k)


_FLOW_CACHE: dict[tuple, tuple[ExpanderCertificate, ConcurrentFlow]] = {}


def expander_flow(
    ell: int, cfg: RunConfig = RunConfig()
) -> tuple[ExpanderCertificate, ConcurrentFlow]:
    """Certified expander plus its concurrent flow, cached per host so
    repeated embeddings at the same budget reuse one LP solve. The key holds
    ell and exactly the fields that change the host or the flow."""
    key = (
        ell,
        cfg.expander_seed,
        cfg.expander_target,
        cfg.expander_exhaustive_cap,
        cfg.expander_retries,
    )
    if key not in _FLOW_CACHE:
        cert = build_expander(ell, cfg)
        flow = min_congestion_flow(cert.graph)
        _FLOW_CACHE[key] = (cert, flow)
    return _FLOW_CACHE[key]


def clear_flow_cache() -> None:
    _FLOW_CACHE.clear()


def _edge_rng(seed: int, edge_index: int) -> random.Random:
    # counter-based split: one independent stream per edge, reproducible
    # regardless of iteration interleaving
    return random.Random(seed * 1_000_003 + edge_index)


def embed(graph: Graph, k: int, seed: int, cfg: RunConfig = RunConfig()) -> Embedding:
    """Randomized embedding of `graph` into a host with |V| + |E| <= k.

    k < 8 collapses everything onto a single host vertex. Otherwise the
    graph is degree-reduced; if it then fits inside k it becomes its own
    host (padded with isolated vertices up to floor(k/4)); otherwise every
    cross-bucket edge of the bucketed graph is routed along two flow paths
    to a uniform random meet vertex on a certified expander with floor(k/4)
    vertices (built from cfg's expander fields). Raises EmbeddingFailed when
    the audited depth lands above cfg.big_c_hat * (1 + (n+m)/k) * ln k, and
    CapExceeded when the graph, or for k >= 8 the host of floor(k/4)
    vertices, has more than DEFAULT_GRAPH_VERTEX_CAP vertices.
    """
    if k < 2:
        raise InvalidK(f"k={k} is below the minimum budget 2")
    n, m = graph.vertex_count, graph.edge_count
    if n > DEFAULT_GRAPH_VERTEX_CAP:
        raise CapExceeded(f"{n} vertices exceed the embedding cap {DEFAULT_GRAPH_VERTEX_CAP}")
    if k >= 8 and k // 4 > DEFAULT_GRAPH_VERTEX_CAP:
        raise CapExceeded(f"a host of k/4 = {k // 4} vertices exceeds the cap {DEFAULT_GRAPH_VERTEX_CAP}")
    emb = _place(graph, k, seed, cfg)
    bound = depth_bound(k, n, m, cfg.big_c_hat)
    if emb.depth > bound:
        raise EmbeddingFailed(emb.depth, bound, seed)
    return emb


def _place(graph: Graph, k: int, seed: int, cfg: RunConfig) -> Embedding:
    """embed's three constructions, before the depth audit."""
    n = graph.vertex_count
    if k < 8:
        host = Graph.make(1, [])
        branch = {v: frozenset({0}) for v in range(n)}
        zeta = {v: 0 for v in range(n)}
        return Embedding(host, branch, zeta, 1)

    reduced, groups = reduce_degrees(graph)
    rn, rm = reduced.vertex_count, reduced.edge_count
    ell = k // 4

    if rn + rm <= k:
        host = Graph.make(max(rn, ell), reduced.edges)
        branch = {v: frozenset(groups[v]) for v in range(n)}
        zeta = {w: w for w in range(rn)}
        return Embedding(host, branch, zeta, host.vertex_count)

    cert, flow = expander_flow(ell, cfg)
    host = cert.graph
    zeta = {w: w % ell for w in range(rn)}
    reduced_branch: list[set[int]] = [{zeta[w]} for w in range(rn)]
    draws: list[PathDraw] = []
    for idx, (x, y) in enumerate(reduced.edges):
        bx, by = zeta[x], zeta[y]
        if bx == by:
            continue
        rng = _edge_rng(seed, idx)
        meet = rng.randrange(ell)
        path_x = flow.sample(bx, meet, rng)
        path_y = flow.sample(by, meet, rng)
        reduced_branch[x].update(path_x)
        reduced_branch[y].update(path_y)
        if bx < by:
            low, high = path_x, path_y
        else:
            low, high = path_y, path_x
        draws.append(PathDraw((x, y), meet, low, high))
    branch = {}
    for v in range(n):
        combined: set[int] = set()
        for w in groups[v]:
            combined |= reduced_branch[w]
        branch[v] = frozenset(combined)
    return Embedding(host, branch, zeta, ell, tuple(draws))


def embed_with_retry(
    graph: Graph, k: int, seed: int, cfg: RunConfig = RunConfig()
) -> tuple[Embedding, int]:
    """Retry embed with seeds seed, seed+1, ... (cfg.embed_retries attempts)
    and return (embedding, seed that worked); re-raises the last
    EmbeddingFailed when all attempts fail."""
    last: EmbeddingFailed | None = None
    for attempt in range(cfg.embed_retries):
        try:
            return embed(graph, k, seed + attempt, cfg), seed + attempt
        except EmbeddingFailed as exc:
            last = exc
    assert last is not None
    raise last


def check_branch_sets(host: Graph, branch_sets, vertex_count: int, edges) -> None:
    """Raise InvalidEmbedding unless every vertex 0..vertex_count-1 has a
    nonempty branch set inside the host that induces a connected subgraph,
    and the branch sets of the two ends of every edge share a host vertex
    or are joined by a host edge. The message names the first vertex that
    fails, and for it the first of these conditions, or else the first edge
    that fails. One connected_in_subsets labelling answers both: two
    connected sets touch exactly when their union is connected."""
    complaint, placed = None, vertex_count
    for v in range(vertex_count):
        bs = branch_sets.get(v)
        if bs is None:
            complaint = f"no branch set for vertex {v}"
        elif not bs:
            complaint = f"empty branch set for vertex {v}"
        elif min(bs) < 0 or max(bs) >= host.vertex_count:
            complaint = f"branch set of {v} leaves the host"
        if complaint is not None:
            placed = v
            break
    # branch sets 0..placed-1 are nonempty and in the host; edges wait for all
    edges = list(edges) if complaint is None else []
    unions = [branch_sets[u] | branch_sets[v] for u, v in edges]
    connected = connected_in_subsets(host, [branch_sets[v] for v in range(placed)] + unions)
    if not connected[:placed].all():
        complaint = f"branch set of {int(np.argmin(connected))} is not connected in the host"
    elif not connected.all():
        u, v = edges[int(np.argmin(connected)) - placed]
        complaint = f"edge ({u}, {v}) does not touch in the host"
    if complaint is not None:
        raise InvalidEmbedding(complaint)


def validate_embedding(emb: Embedding, graph: Graph) -> None:
    """Raise ValueError when a structural invariant fails: the branch sets
    (check_branch_sets, which raises InvalidEmbedding), unbalanced buckets,
    or a bucket outside its own branch set."""
    check_branch_sets(emb.host, emb.branch_sets, graph.vertex_count, graph.edges)
    for v, w in emb.zeta.items():
        if not 0 <= w < emb.ell:
            raise ValueError(f"zeta({v}) = {w} outside 0..{emb.ell - 1}")
    if not emb.reduced:
        for v, w in emb.zeta.items():
            if w not in emb.branch_sets[v]:
                raise ValueError(f"zeta({v}) = {w} is outside the branch set")
    population = len(emb.zeta)
    low, high = population // emb.ell, -(-population // emb.ell)
    buckets = Counter(emb.zeta.values())
    sizes = [buckets[w] for w in range(emb.ell)]
    if any(not low <= s <= high for s in sizes):
        raise ValueError(f"bucket sizes {sizes} are not balanced for {population} vertices")


@dataclass(frozen=True)
class CongestionAudit:
    """Per-host-vertex counts: bucket members (type 0), lower-endpoint path
    hits (type 1), and higher-endpoint path hits (type 2)."""

    type0: tuple[int, ...]
    type1: tuple[int, ...]
    type2: tuple[int, ...]
    depth_profile: tuple[int, ...]

    @property
    def bounded(self) -> bool:
        return all(
            d <= a + b + c
            for d, a, b, c in zip(self.depth_profile, self.type0, self.type1, self.type2)
        )


def audit_congestion(emb: Embedding) -> CongestionAudit:
    """Decompose the depth profile into bucket and path contributions; the
    depth never exceeds type0 + type1 + type2 pointwise."""
    size = emb.host.vertex_count
    buckets = Counter(emb.zeta.values())
    type0 = [buckets[w] for w in range(size)]
    type1 = [0] * size
    type2 = [0] * size
    for draw in emb.draws:
        for w in set(draw.low_path):
            type1[w] += 1
        for w in set(draw.high_path):
            type2[w] += 1
    return CongestionAudit(
        tuple(type0), tuple(type1), tuple(type2), tuple(emb.depth_profile())
    )


def sample_path_family(flow: ConcurrentFlow, p: int, rng: random.Random) -> list[int]:
    """Hit counts of the reference sampling process: for every host vertex x
    and each of p rounds, sample one flow path from x to a uniform target."""
    ell = flow.graph.vertex_count
    hits = [0] * ell
    for x in range(ell):
        for _ in range(p):
            y = rng.randrange(ell)
            for w in set(flow.sample(x, y, rng)):
                hits[w] += 1
    return hits


__all__ = [
    "CongestionAudit",
    "DEFAULT_BIG_C_HAT",
    "DEFAULT_C_HAT",
    "DEFAULT_EMBED_RETRIES",
    "DEFAULT_EXPANSION_TARGET",
    "Embedding",
    "EmbeddingFailed",
    "ExpanderCertificate",
    "ExpansionTargetUnmet",
    "InvalidEmbedding",
    "InvalidK",
    "PathDraw",
    "audit_congestion",
    "build_expander",
    "check_branch_sets",
    "clear_flow_cache",
    "depth_bound",
    "edge_expansion_exhaustive",
    "embed",
    "embed_with_retry",
    "expander_flow",
    "reduce_degrees",
    "sample_path_family",
    "spectral_expansion_bound",
    "validate_embedding",
]
