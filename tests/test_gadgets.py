import hashlib
import itertools
import random

import numpy as np
import pytest

import oracles
from colorcut.gadgets import (
    HUB,
    GadgetParams,
    PatternDisconnected,
    WitnessDecodeError,
    _index_to_vector,
    build_f_maps,
    build_gadgets,
    choose_prime,
    connectivize_pattern,
    decode_dual_witness,
    reduce_psi_to_dcmc,
)
from colorcut import formats, gadgets
from colorcut.formats import write_dcmc, write_gadget_map
from colorcut.instances import (
    CapExceeded,
    PsiInstance,
    psi_selection_ok,
    solve_dual_bruteforce,
    solve_psi_bruteforce,
)
from colorcut.verify import EXHAUSTIVE_PATTERNS, exhaustive_gadget_family


def _params(inst: PsiInstance, rho: int) -> GadgetParams:
    a = len(inst.pattern_edges)
    return GadgetParams(
        rho=rho,
        a=a,
        b=2 * a,
        h=inst.pattern_vertex_count,
        edge_order=tuple(sorted(inst.pattern_edges)),
        f_maps=build_f_maps(inst, rho),
    )


def _blocks(h: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(x * n, (x + 1) * n)) for x in range(h))


def test_choose_prime_frozen():
    assert choose_prime(1, 1) == 2
    assert choose_prime(2, 1) == 3
    assert choose_prime(3, 1) == 5
    assert choose_prime(3, 2) == 3
    assert choose_prime(1, 2) == 2


def test_choose_prime_properties():
    for n in range(1, 31):
        for a in range(1, 4):
            rho = choose_prime(n, a)
            assert (rho - 1) ** a >= n
            assert rho ** (2 * a) >= n * n
            # primality
            assert all(rho % d for d in range(2, rho))
            # interval: strictly above the ceil root, at most twice it
            root = 1
            while root**a < n:
                root += 1
            assert root < rho <= 2 * root


def test_choose_prime_bad_args():
    with pytest.raises(ValueError):
        choose_prime(0, 1)
    with pytest.raises(ValueError):
        choose_prime(1, 0)


def test_index_to_vector_lexicographic():
    seq = [_index_to_vector(i, 3, 2) for i in range(4)]
    assert seq == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert _index_to_vector(0, 5, 3) == (1, 1, 1)
    assert _index_to_vector(1, 5, 3) == (1, 1, 2)
    assert _index_to_vector(4, 5, 3) == (1, 2, 1)


def test_f_maps_injective_and_sized():
    inst = PsiInstance(2, ((0, 1),), 3, _blocks(2, 3), frozenset())
    maps = build_f_maps(inst, 5)
    for block, fmap in zip(inst.blocks, maps):
        assert sorted(fmap) == list(block)
        vecs = list(fmap.values())
        assert len(set(vecs)) == len(vecs)
        assert all(len(v) == 1 and 1 <= v[0] <= 4 for v in vecs)
    with pytest.raises(ValueError):
        build_f_maps(inst, 2)  # (2-1)^1 < 3


def test_gadget_params_sizes():
    # two pattern edges, blocks of three: rho 3, b 4, base 15
    inst = PsiInstance(3, ((0, 1), (1, 2)), 3, _blocks(3, 3), frozenset())
    p = _params(inst, choose_prime(3, 2))
    assert (p.rho, p.b, p.base, p.block_span) == (3, 4, 15, 225)
    assert p.vertex_count == 676
    # one pattern edge, blocks of three: rho 5, b 2
    inst2 = PsiInstance(2, ((0, 1),), 3, _blocks(2, 3), frozenset())
    p2 = _params(inst2, choose_prime(3, 1))
    assert (p2.rho, p2.b, p2.base, p2.block_span) == (5, 2, 15, 15)
    assert p2.vertex_count == 31


def test_decode_inverts_coord_vertex():
    inst = PsiInstance(3, ((0, 1), (1, 2)), 3, _blocks(3, 3), frozenset())
    p = _params(inst, 3)
    seen = set()
    for z in range(p.h):
        for r1, t1, r2, t2 in itertools.product(range(3), range(5), range(3), range(5)):
            w = oracles.coord_vertex(p, z, (oracles.digit(p, r1, t1), oracles.digit(p, r2, t2)))
            got = oracles.decode_vertex(p, w)
            assert got.block == z
            assert got.coords == ((r1, t1), (r2, t2))
            seen.add(w)
    assert len(seen) == p.vertex_count - 1
    assert min(seen) == 1 and max(seen) == p.vertex_count - 1
    assert oracles.decode_vertex(p, HUB).block is None


def test_hat_block_and_hat_vertex():
    inst = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), frozenset())
    p = _params(inst, 3)
    hats = list(p.hat_blocks[1])
    assert len(hats) == 3  # rho^a
    assert hats == sorted(hats)
    for w in hats:
        coord = oracles.decode_vertex(p, w)
        assert coord.block == 1
        assert all(t == 0 for _, t in coord.coords)
    assert p.hat_vertex(1, 2) in hats
    assert p.hat_vertex(1, 2) != p.hat_vertex(1, 3)
    # hat_vertex reads hat_blocks at the rank of the field vector; the
    # oracle places the same vertex digit by digit
    two_edges = PsiInstance(3, ((0, 1), (1, 2)), 4, _blocks(3, 4), frozenset())
    for q in (p, _params(two_edges, 3)):
        for x, fmap in enumerate(q.f_maps):
            for v, vec in fmap.items():
                digits = [oracles.digit(q, r, 0) for r in vec]
                assert q.hat_vertex(x, v) == oracles.coord_vertex(q, x, digits)
        # every hat, at its rank, is the oracle's all-tier-zero vertex
        for x in range(q.h):
            for rank, residues in enumerate(itertools.product(range(q.rho), repeat=q.a)):
                digits = [oracles.digit(q, r, 0) for r in reversed(residues)]
                assert q.hat_blocks[x, rank] == oracles.coord_vertex(q, x, digits)


def test_layout_is_built_once_per_key():
    inst = PsiInstance(3, ((0, 1), (1, 2)), 3, _blocks(3, 3), frozenset())
    first, again = _params(inst, 3), _params(inst, 3)
    assert first is not again
    assert first.hat_blocks is again.hat_blocks and first.anchors is again.anchors
    assert not first.hat_blocks.flags.writeable and not first.anchors.flags.writeable
    # another rho, or another pattern with the same rho, lays out other blocks
    one_edge = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), frozenset())
    for other in (_params(inst, 5), _params(one_edge, 3)):
        assert other.hat_blocks is not first.hat_blocks
        assert not np.array_equal(other.hat_blocks, first.hat_blocks)
        assert not np.array_equal(other.anchors, first.anchors)


def test_host_edge_with_its_lower_vertex_in_the_later_block():
    # block 0 holds host vertices 2, 3, so each host edge (u, v) with u < v
    # has u in block 1 and enters the gadgets as (alpha, v, u)
    inst = PsiInstance(2, ((0, 1),), 2, ((2, 3), (0, 1)), frozenset({(0, 2), (1, 3)}))
    red = reduce_psi_to_dcmc(inst)
    assert red.color_map == ((1, 2, 0), (1, 3, 1))
    want = solve_psi_bruteforce(inst).decision
    assert want and oracles.psi_decision_backtracking(inst)
    answer = solve_dual_bruteforce(red.dual)
    assert answer.decision == oracles.dual_decision(red.dual) == want
    pick = decode_dual_witness(red, answer.witness)
    assert pick in {(2, 0), (3, 1)}
    assert psi_selection_ok(inst, pick)


def test_a_edges_count_and_shape():
    inst = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), frozenset({(0, 2)}))
    p = _params(inst, 3)
    rows = build_gadgets([(1, 0, 2)], p)[0].tolist()
    edges = set(map(tuple, rows))
    assert len(rows) == len(edges)
    ex, ey = p.hat_vertex(0, 0), p.hat_vertex(1, 2)
    assert (min(ex, ey), max(ex, ey)) in edges
    # hub edges to every all-tier-zero vertex of the two blocks but ex, ey
    hats = set(p.hat_blocks[[0, 1]].ravel().tolist())
    hub_edges = [e for e in edges if e[0] == HUB and e[1] in hats]
    assert 1 + len(hub_edges) == 1 + 2 * p.rho**p.a - 2  # 5
    assert {w for _, w in hub_edges} == hats - {ex, ey}


def test_padding_count_and_shape():
    inst = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), frozenset({(0, 2)}))
    p = _params(inst, 3)
    rows = build_gadgets([(1, 0, 2)], p)[0].tolist()
    assert p.rows_per_color == 1 + 2 * p.rho**p.a - 2 + p.h * (1 + p.rho * p.b)
    # each anchor's hub edge is also a hub edge to a hat of block x or y
    assert len(set(map(tuple, rows))) == len(rows) == p.rows_per_color - 2 * p.rho ** (p.a - 1)
    # the edges inside block 0; the hub counts as no block
    stars = [e for e in rows if {oracles.decode_vertex(p, w).block for w in e} == {0}]
    # one free-coordinate setting: rho*b star edges around one anchor
    assert len(stars) == p.rho * p.b  # 6
    anchor = p.anchors[0][0]
    assert (HUB, anchor) in map(tuple, rows)
    assert oracles.decode_vertex(p, anchor).coords == ((0, 0),)
    for u, v in stars:
        cu, cv = oracles.decode_vertex(p, u), oracles.decode_vertex(p, v)
        center, leaf = (cu, cv) if cu.coords[0][1] == 0 else (cv, cu)
        r, _ = center.coords[0]
        lr, lt = leaf.coords[0]
        assert 1 <= lt <= p.b
        g = p.g_vector(1, 0, 2)
        assert lr == (r + g[lt - 1]) % p.rho


def test_build_gadgets_without_colors():
    inst = PsiInstance(3, ((0, 1), (1, 2)), 2, _blocks(3, 2), frozenset())
    edges, offsets = build_gadgets([], _params(inst, 3))
    assert edges.shape == (0, 2) and offsets.tolist() == [0]


def test_build_gadgets_cap(monkeypatch):
    inst = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), frozenset({(0, 2), (1, 3)}))
    p = _params(inst, 3)
    colors = [(1, 0, 2), (1, 1, 3)]
    monkeypatch.setattr(gadgets, "DEFAULT_DUAL_ROW_CAP", 2 * p.rows_per_color)
    assert len(build_gadgets(colors, p)[1]) == 3
    monkeypatch.setattr(gadgets, "DEFAULT_DUAL_ROW_CAP", 2 * p.rows_per_color - 1)
    with pytest.raises(CapExceeded, match=f"{2 * p.rows_per_color} gadget rows"):
        build_gadgets(colors, p)


def _reduction_rows(h, pattern, n, p):
    """Pre-dedup rows of a reduction with p colors, from its parameters
    alone."""
    inst = PsiInstance(h, pattern, n, _blocks(h, n), frozenset())
    return p * _params(inst, choose_prime(n, len(pattern))).rows_per_color


def test_dual_cap_admits_the_suites_and_refuses_the_repros():
    cap = gadgets.DEFAULT_DUAL_ROW_CAP
    # the top sat-chain rung; the a = 3 triangle at n = 2 on a full host
    assert _reduction_rows(2, ((0, 1),), 144, 144) < cap
    assert _reduction_rows(3, ((0, 1), (0, 2), (1, 2)), 2, 12) < cap
    # the 6-edge pattern of `csp_to_psi` at k = 8; a = 1 with 3,000-value blocks
    six = ((0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4))
    assert _reduction_rows(5, six, 2, 8) > cap
    assert _reduction_rows(2, ((0, 1),), 3000, 3000) > cap


def _assert_gadgets_match_naive(inst: PsiInstance) -> int:
    red = reduce_psi_to_dcmc(inst)
    params = red.params
    edges, offsets = build_gadgets(red.color_map, params)
    assert np.array_equal(edges, red.dual.edges)
    assert np.array_equal(offsets, red.dual.offsets)
    for graph, (alpha, vx, vy) in zip(red.dual.color_graphs, red.color_map):
        assert list(map(tuple, graph.tolist())) == sorted(
            oracles.naive_gadget_edges(alpha, vx, vy, params)
        )
        assert len(graph) == params.rows_per_color - 2 * params.rho ** (params.a - 1)
    return params.rho


def test_gadgets_match_naive_builder_on_the_family():
    # the gadget of a color depends only on the pattern, n and the color, so
    # the instance with every admissible host edge holds every color of the
    # family for its (pattern, n)
    groups = itertools.groupby(
        exhaustive_gadget_family(), key=lambda inst: (inst.pattern_edges, inst.block_size)
    )
    fullest = [max(group, key=lambda inst: len(inst.host_edges)) for _, group in groups]
    assert len(fullest) == 2 * len(EXHAUSTIVE_PATTERNS)
    for inst in fullest:
        _assert_gadgets_match_naive(inst)


@pytest.mark.parametrize(
    "h,pattern,n,host_count,rho",
    [
        (2, ((0, 1),), 144, 4, 149),  # the top sat-chain rung
        (3, ((0, 1), (1, 2)), 3, 4, 3),
        (3, ((0, 1), (0, 2), (1, 2)), 2, 3, 3),
    ],
    ids=["a1-rho149", "a2-path", "a3-triangle"],
)
def test_gadgets_match_naive_builder(h, pattern, n, host_count, rho):
    blocks = _blocks(h, n)
    admissible = sorted((u, v) for x, y in pattern for u in blocks[x] for v in blocks[y])
    host = frozenset(random.Random(n).sample(admissible, host_count))
    assert _assert_gadgets_match_naive(PsiInstance(h, pattern, n, blocks, host)) == rho


# sha256 of write_dcmc and write_gadget_map of every family reduction, in
# family order: any change to a gadget or to the dcmc layout changes it
FAMILY_ARTIFACTS_SHA256 = "c0252086cadc5d015ebc7ff3cd06412f03559f8b92c4b251427d24a74f38c8cb"


def test_family_artifacts_are_pinned():
    digest = hashlib.sha256()
    for inst in exhaustive_gadget_family():
        red = reduce_psi_to_dcmc(inst)
        text = write_dcmc(red.dual)
        # the parser's fast path takes every text the writer emits
        assert formats._parse_dcmc_canonical(text) == red.dual
        digest.update(text.encode())
        digest.update(write_gadget_map(red.color_map).encode())
    assert digest.hexdigest() == FAMILY_ARTIFACTS_SHA256


def test_reduction_rejects_bad_patterns():
    with pytest.raises(PatternDisconnected):
        reduce_psi_to_dcmc(PsiInstance(1, (), 2, _blocks(1, 2), frozenset()))
    with pytest.raises(PatternDisconnected):
        reduce_psi_to_dcmc(
            PsiInstance(3, ((0, 1),), 1, _blocks(3, 1), frozenset({(0, 1)}))
        )


def test_reduction_shape_one_color_per_host_edge():
    inst = PsiInstance(
        2, ((0, 1),), 2, _blocks(2, 2), frozenset({(0, 2), (0, 3), (1, 3)})
    )
    red = reduce_psi_to_dcmc(inst)
    assert red.dual.p == 3
    assert red.dual.a == 1
    assert red.dual.vertex_count == red.params.vertex_count
    assert red.color_map == ((1, 0, 2), (1, 0, 3), (1, 1, 3))
    # every vertex named by some edge is in range
    for graph in red.dual.color_graphs:
        for u, v in graph:
            assert 0 <= u < v < red.dual.vertex_count


def test_reduction_matches_bruteforce_on_single_edge_patterns():
    inst0 = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), frozenset())
    all_host = sorted((u, v) for u in inst0.blocks[0] for v in inst0.blocks[1])
    for bits in range(1 << len(all_host)):
        chosen = frozenset(e for i, e in enumerate(all_host) if bits >> i & 1)
        inst = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), chosen)
        want = solve_psi_bruteforce(inst).decision
        red = reduce_psi_to_dcmc(inst)
        got = solve_dual_bruteforce(red.dual)
        assert got.decision == want
        if got.decision:
            pick = decode_dual_witness(red, got.witness)
            assert psi_selection_ok(inst, pick)


def test_reduction_matches_bruteforce_on_a_path_pattern():
    inst = PsiInstance(
        3,
        ((0, 1), (1, 2)),
        1,
        _blocks(3, 1),
        frozenset({(0, 1), (1, 2)}),
    )
    red = reduce_psi_to_dcmc(inst)
    assert red.dual.vertex_count == 301
    got = solve_dual_bruteforce(red.dual)
    assert got.decision
    assert decode_dual_witness(red, got.witness) == (0, 1, 2)


def test_connectivize_identity_on_connected():
    inst = PsiInstance(2, ((0, 1),), 2, _blocks(2, 2), frozenset({(0, 2)}))
    assert connectivize_pattern(inst) is inst


def test_connectivize_structure():
    inst = PsiInstance(2, (), 2, _blocks(2, 2), frozenset())
    out = connectivize_pattern(inst)
    assert out.pattern_vertex_count == 3
    assert out.pattern_edges == ((0, 2), (1, 2))
    assert out.blocks == ((0, 1), (2, 3), (4, 5))
    assert out.host_edges == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})
    assert out.block_size == 2


def test_connectivize_preserves_decisions():
    # edgeless patterns stay vacuous-yes through the whole chain
    for n in (1, 2):
        inst = PsiInstance(2, (), n, _blocks(2, n), frozenset())
        assert solve_psi_bruteforce(inst).decision
        out = connectivize_pattern(inst)
        assert solve_psi_bruteforce(out).decision
        red = reduce_psi_to_dcmc(out)
        assert red.dual.vertex_count == (301 if n == 1 else 676)
        assert solve_dual_bruteforce(red.dual).decision
    # disconnected patterns keep their decision at the selection level
    yes = PsiInstance(3, ((0, 1),), 1, _blocks(3, 1), frozenset({(0, 1)}))
    no = PsiInstance(3, ((0, 1),), 1, _blocks(3, 1), frozenset())
    for inst in (yes, no):
        want = solve_psi_bruteforce(inst).decision
        assert solve_psi_bruteforce(connectivize_pattern(inst)).decision == want


def test_decode_witness_rejects_duplicate_pattern_edge():
    inst = PsiInstance(
        2,
        ((0, 1),),
        2,
        _blocks(2, 2),
        frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}),
    )
    red = reduce_psi_to_dcmc(inst)
    with pytest.raises(WitnessDecodeError):
        decode_dual_witness(red, (1, 2))


def test_decode_witness_rejects_inconsistent_blocks():
    inst = PsiInstance(
        3,
        ((0, 1), (1, 2)),
        2,
        _blocks(3, 2),
        frozenset({(0, 2), (3, 4)}),
    )
    red = reduce_psi_to_dcmc(inst)
    # color 1 selects vertex 2 for block 1, color 2 selects vertex 3
    assert red.color_map == ((1, 0, 2), (2, 3, 4))
    with pytest.raises(WitnessDecodeError):
        decode_dual_witness(red, (1, 2))


def test_decode_witness_accepts_consistent_selection():
    inst = PsiInstance(
        3,
        ((0, 1), (1, 2)),
        2,
        _blocks(3, 2),
        frozenset({(0, 2), (2, 4)}),
    )
    red = reduce_psi_to_dcmc(inst)
    assert decode_dual_witness(red, (1, 2)) == (0, 2, 4)
