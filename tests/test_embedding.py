import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from colorcut import graphs
from colorcut.config import RunConfig
from colorcut.embedding import (
    DEFAULT_BIG_C_HAT,
    Embedding,
    EmbeddingFailed,
    ExpansionTargetUnmet,
    InvalidEmbedding,
    InvalidK,
    audit_congestion,
    build_expander,
    check_branch_sets,
    clear_flow_cache,
    depth_bound,
    edge_expansion_exhaustive,
    embed,
    embed_with_retry,
    expander_flow,
    reduce_degrees,
    sample_path_family,
    spectral_expansion_bound,
    validate_embedding,
)
from colorcut.graphs import Graph, random_max_degree3_graph
from colorcut.instances import CapExceeded

CFG = RunConfig()
# no host on 8 vertices certifies expansion 1 within one resample
UNREACHABLE = RunConfig(expander_target=1.0, expander_exhaustive_cap=4, expander_retries=1)

K2 = Graph.make(2, [(0, 1)])
P3 = Graph.make(3, [(0, 1), (1, 2)])
P4 = Graph.make(4, [(0, 1), (1, 2), (2, 3)])
TRIANGLE = Graph.make(3, [(0, 1), (0, 2), (1, 2)])
C4 = Graph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_exhaustive_expansion_frozen():
    assert edge_expansion_exhaustive(K2) == 1
    assert edge_expansion_exhaustive(P3) == 1
    assert edge_expansion_exhaustive(TRIANGLE) == 2
    assert edge_expansion_exhaustive(C4) == 1
    assert edge_expansion_exhaustive(Graph.make(1, [])) == Fraction(3)
    assert edge_expansion_exhaustive(Graph.make(2, [])) == 0
    with pytest.raises(CapExceeded):
        edge_expansion_exhaustive(Graph.make(21, []))


def test_spectral_bound_below_exact():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 9)
        m = rng.randint(0, n * (n - 1) // 2)
        g = oracles.random_simple_graph(n, m, rng)
        assert spectral_expansion_bound(g) <= float(edge_expansion_exhaustive(g)) + 1e-9


def test_build_expander_small_and_exhaustive():
    for ell in range(1, 17):
        cert = build_expander(ell)
        assert cert.graph.vertex_count == ell
        assert cert.method == "exhaustive"
        assert isinstance(cert.delta_hat, Fraction)
        assert float(cert.delta_hat) >= 0.1
        assert oracles.max_degree(cert.graph) <= 3
        if ell > 1:
            assert cert.graph.is_connected()


def test_build_expander_fixed_small_hosts():
    assert build_expander(1).delta_hat == Fraction(3)
    assert build_expander(2).graph.edges == ((0, 1),)
    assert build_expander(3).delta_hat == 2
    # the only connected 3-regular simple graph on 4 vertices
    assert build_expander(4).graph.edge_count == 6


def test_build_expander_spectral_regime():
    cert = build_expander(32)
    assert cert.method == "spectral"
    assert cert.delta_hat >= 0.1
    assert oracles.max_degree(cert.graph) <= 3
    assert cert.graph.is_connected()


def test_build_expander_deterministic():
    a = build_expander(12, replace(CFG, expander_seed=5))
    b = build_expander(12, replace(CFG, expander_seed=5))
    assert a.graph == b.graph and a.delta_hat == b.delta_hat


def test_build_expander_unreachable_target():
    with pytest.raises(ExpansionTargetUnmet):
        build_expander(8, UNREACHABLE)


def test_min_sparsity_frozen():
    assert oracles.min_sparsity_exhaustive(K2) == Fraction(1, 2)
    assert oracles.min_sparsity_exhaustive(P3) == Fraction(1, 4)
    assert oracles.min_sparsity_exhaustive(TRIANGLE) == Fraction(1, 3)
    assert oracles.min_sparsity_exhaustive(C4) == Fraction(2, 9)
    assert oracles.min_sparsity_exhaustive(P4) == Fraction(1, 6)
    with pytest.raises(CapExceeded):
        oracles.min_sparsity_exhaustive(Graph.make(13, []))


def test_reduce_degrees_identity_when_cubic():
    reduced, groups = reduce_degrees(C4)
    assert reduced == C4
    assert groups == ((0,), (1,), (2,), (3,))


def test_reduce_degrees_star():
    star = Graph.make(6, [(0, i) for i in range(1, 6)])
    reduced, groups = reduce_degrees(star)
    assert groups[0] == (0, 1, 2, 3, 4)
    assert all(len(g) == 1 for g in groups[1:])
    assert reduced.vertex_count == 10
    assert reduced.edge_count == 10  # 5 original + 5 cycle edges
    assert oracles.max_degree(reduced) <= 3


def test_depth_bound_formula():
    assert depth_bound(10, 5, 5, 2.0) == pytest.approx(2.0 * 2.0 * math.log(10))


def test_embed_rejects_small_k():
    with pytest.raises(InvalidK):
        embed(P3, 1, seed=0)
    with pytest.raises(InvalidK):
        embed(P3, 0, seed=0)


def test_embed_tiny_budget_single_host_vertex():
    emb = embed(P3, 5, seed=0)
    assert emb.host.vertex_count == 1
    assert emb.ell == 1
    assert emb.depth == 3
    assert emb.zeta == {0: 0, 1: 0, 2: 0}
    assert emb.draws == ()
    validate_embedding(emb, P3)


def test_embed_identity_host_when_graph_fits():
    emb = embed(C5, 12, seed=0)
    assert emb.host.vertex_count == 5
    assert emb.host.edges == C5.edges
    assert emb.branch_sets == {v: frozenset({v}) for v in range(5)}
    assert emb.depth == 1
    validate_embedding(emb, C5)


def test_embed_identity_host_pads_to_quarter_k():
    emb = embed(K2, 12, seed=0)
    assert emb.host.vertex_count == 3  # max(rn, k // 4)
    assert emb.ell == 3
    assert emb.zeta == {0: 0, 1: 1}
    validate_embedding(emb, K2)


def test_embed_expander_route():
    rng = random.Random(9)
    graph = random_max_degree3_graph(60, 80, rng)
    emb = embed(graph, 40, seed=2)
    assert emb.ell == 10
    assert emb.host.vertex_count == 10
    assert not emb.reduced
    assert emb.zeta == {w: w % 10 for w in range(60)}
    assert emb.draws
    validate_embedding(emb, graph)
    audit = audit_congestion(emb)
    assert audit.bounded
    assert emb.depth <= depth_bound(40, 60, 80, DEFAULT_BIG_C_HAT)


def test_embed_expander_route_with_degree_reduction():
    star = Graph.make(12, [(0, i) for i in range(1, 12)])
    extra = [(i, i + 1) for i in range(1, 11)]
    graph = Graph.make(12, list(star.edges) + extra)
    emb = embed(graph, 8, seed=3)
    assert emb.ell == 2
    assert emb.reduced
    validate_embedding(emb, graph)


def test_embed_deterministic():
    rng = random.Random(10)
    graph = random_max_degree3_graph(50, 60, rng)
    a = embed(graph, 36, seed=4)
    b = embed(graph, 36, seed=4)
    assert a.branch_sets == b.branch_sets
    assert a.zeta == b.zeta
    assert a.draws == b.draws
    assert a.depth == b.depth
    c = embed(graph, 36, seed=5)
    assert c.draws != a.draws


def test_embed_failure_carries_seed_and_bound():
    rng = random.Random(12)
    graph = random_max_degree3_graph(60, 80, rng)
    with pytest.raises(EmbeddingFailed) as info:
        embed(graph, 40, seed=7, cfg=replace(CFG, big_c_hat=0.01))
    assert info.value.seed == 7
    assert info.value.depth > info.value.bound
    assert info.value.bound == pytest.approx(depth_bound(40, 60, 80, 0.01))


def test_embed_with_retry_reports_used_seed():
    rng = random.Random(13)
    graph = random_max_degree3_graph(60, 80, rng)
    emb, used = embed_with_retry(graph, 40, seed=6)
    assert used == 6
    validate_embedding(emb, graph)
    with pytest.raises(EmbeddingFailed) as info:
        embed_with_retry(graph, 40, seed=6, cfg=replace(CFG, embed_retries=3, big_c_hat=0.01))
    assert info.value.seed == 8  # last attempted seed


def _corrupt(emb: Embedding, **changes) -> Embedding:
    fields = dict(
        host=emb.host,
        branch_sets=dict(emb.branch_sets),
        zeta=dict(emb.zeta),
        ell=emb.ell,
        draws=emb.draws,
    )
    fields.update(changes)
    return Embedding(**fields)


def test_validate_embedding_catches_corruption():
    base = embed(C5, 12, seed=0)

    missing = _corrupt(base, branch_sets={v: base.branch_sets[v] for v in range(4)})
    with pytest.raises(ValueError, match="no branch set"):
        validate_embedding(missing, C5)

    empty = _corrupt(base, branch_sets={**base.branch_sets, 0: frozenset()})
    with pytest.raises(ValueError, match="empty branch set"):
        validate_embedding(empty, C5)

    escaped = _corrupt(base, branch_sets={**base.branch_sets, 0: frozenset({9})})
    with pytest.raises(ValueError, match="leaves the host"):
        validate_embedding(escaped, C5)

    split = _corrupt(base, branch_sets={**base.branch_sets, 0: frozenset({0, 2})})
    with pytest.raises(ValueError, match="not connected"):
        validate_embedding(split, C5)

    # move vertex 0 away so edge (0, 1) no longer touches; zeta must follow
    moved = _corrupt(
        base,
        branch_sets={**base.branch_sets, 0: frozenset({3})},
        zeta={**base.zeta, 0: 3},
    )
    with pytest.raises(ValueError, match="does not touch"):
        validate_embedding(moved, C5)

    out_of_range = _corrupt(base, zeta={**base.zeta, 0: 7})
    with pytest.raises(ValueError, match="outside 0"):
        validate_embedding(out_of_range, C5)

    outside_branch = _corrupt(base, zeta={**base.zeta, 0: 1})
    with pytest.raises(ValueError, match="outside the branch set|not balanced"):
        validate_embedding(outside_branch, C5)

    # vertex 1 keeps a legal branch set covering bucket 0, emptying bucket 1
    lopsided = _corrupt(
        base,
        branch_sets={**base.branch_sets, 1: frozenset({0, 1})},
        zeta={**base.zeta, 1: 0},
    )
    with pytest.raises(ValueError, match="not balanced"):
        validate_embedding(lopsided, C5)


def _two_step_complaint(host, branch_sets, vertex_count, edges):
    """check_branch_sets' message, or None, from two separate steps on the
    oracles: each vertex in order (present, nonempty, inside the host,
    connected by BFS), then each edge in the given order (oracles.touches)."""
    for v in range(vertex_count):
        bs = branch_sets.get(v)
        if bs is None:
            return f"no branch set for vertex {v}"
        if not bs:
            return f"empty branch set for vertex {v}"
        if any(not 0 <= w < host.vertex_count for w in bs):
            return f"branch set of {v} leaves the host"
        rank = {w: i for i, w in enumerate(sorted(bs))}
        induced = [(rank[x], rank[y]) for x, y in host.edges if x in bs and y in bs]
        if oracles.bfs_component_count(len(rank), induced) != 1:
            return f"branch set of {v} is not connected in the host"
    for u, v in edges:
        if not oracles.touches(host, branch_sets[u], branch_sets[v]):
            return f"edge ({u}, {v}) does not touch in the host"
    return None


def _grown_set(host, size, rng):
    """A connected vertex set of the host, grown from a random vertex by
    random neighbours, of at most the given size."""
    grown = {rng.randrange(host.vertex_count)}
    while len(grown) < size:
        rim = sorted({w for e in host.edges for w in e if set(e) & grown} - grown)
        if not rim:
            break
        grown.add(rng.choice(rim))
    return frozenset(grown)


def test_check_branch_sets_matches_the_two_step_reference():
    rng = random.Random(24)
    seen = Counter()
    for _ in range(1500):
        ell = rng.randint(1, 9)
        host = oracles.random_simple_graph(ell, rng.randint(0, min(ell * (ell - 1) // 2, 2 * ell)), rng)
        n = rng.randint(1, 6)
        graph = oracles.random_simple_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        branch_sets = {}
        for v in range(n):
            roll = rng.random()
            if roll < 0.02:
                continue  # missing
            if roll < 0.04:
                branch_sets[v] = frozenset()
            elif roll < 0.06:
                branch_sets[v] = frozenset({rng.randrange(ell), rng.choice([-1, ell])})
            elif roll < 0.2:
                branch_sets[v] = frozenset(rng.sample(range(ell), rng.randint(1, ell)))
            else:
                branch_sets[v] = _grown_set(host, rng.randint(1, 3), rng)
        # edges in a shuffled order, some of them reversed
        edges = [e[::-1] if rng.random() < 0.3 else e for e in rng.sample(graph.edges, graph.edge_count)]
        expected = _two_step_complaint(host, branch_sets, n, edges)
        try:
            check_branch_sets(host, branch_sets, n, edges)
            got = None
        except InvalidEmbedding as exc:
            got = str(exc)
        assert got == expected, (host, branch_sets, edges)
        seen[re.sub(r"[-\d]+", "#", got or "valid")] += 1
    assert set(seen) == {
        "no branch set for vertex #",
        "empty branch set for vertex #",
        "branch set of # leaves the host",
        "branch set of # is not connected in the host",
        "edge (#, #) does not touch in the host",
        "valid",
    }, seen
    assert min(seen.values()) >= 20, seen


def test_check_branch_sets_runs_one_labelling(monkeypatch):
    calls = []
    labels = graphs.component_labels

    def counted(*args):
        calls.append(args)
        return labels(*args)

    monkeypatch.setattr(graphs, "component_labels", counted)
    base = embed(C5, 12, seed=0)
    check_branch_sets(base.host, base.branch_sets, C5.vertex_count, C5.edges)
    assert len(calls) == 1
    # a failing edge is found by that same labelling
    moved = {**base.branch_sets, 0: frozenset({3})}
    with pytest.raises(InvalidEmbedding, match=r"^edge \(0, 1\) does not touch in the host$"):
        check_branch_sets(base.host, moved, C5.vertex_count, C5.edges)
    assert len(calls) == 2


def test_expander_flow_cache():
    clear_flow_cache()
    first = expander_flow(8)
    again = expander_flow(8)
    assert first[0] is again[0] and first[1] is again[1]
    clear_flow_cache()
    fresh = expander_flow(8)
    assert fresh[0] is not first[0]
    assert fresh[0].graph == first[0].graph  # same seed, same host


def test_expander_flow_cache_keys_every_argument():
    clear_flow_cache()
    expander_flow(8)
    with pytest.raises(ExpansionTargetUnmet):
        expander_flow(8, UNREACHABLE)


def test_expander_flow_cache_key_is_the_host_fields():
    clear_flow_cache()
    first = expander_flow(8)
    unrelated = replace(CFG, big_c_hat=1e18, c_hat=3.0, seed=5, trials=7, embed_retries=2)
    assert expander_flow(8, unrelated) is first
    for change in (
        {"expander_seed": 1},
        {"expander_target": 0.2},
        {"expander_exhaustive_cap": 4},
        {"expander_retries": 63},
    ):
        assert expander_flow(8, replace(CFG, **change)) is not first, change


def test_sample_path_family_counts():
    _, flow = expander_flow(8)
    rng = random.Random(21)
    hits = sample_path_family(flow, 5, rng)
    assert len(hits) == 8
    # every start vertex appears on each of its own 5 draws
    assert all(h >= 5 for h in hits)
    assert sum(hits) >= 8 * 5
