import hashlib
import random

import pytest

import oracles
from colorcut.config import RunConfig
from colorcut.embedding import Embedding, embed, validate_embedding
from colorcut.formats import write_csp, write_dcmc, write_psi
from colorcut.gadgets import reduce_psi_to_dcmc
from colorcut.graphs import Graph
from colorcut.instances import (
    BinaryCsp,
    CapExceeded,
    CnfFormula,
    solve_csp_bruteforce,
    solve_dual_bruteforce,
    solve_psi_bruteforce,
    solve_sat_bruteforce,
)
from colorcut.pipeline import (
    UNIVERSAL,
    InvalidEmbedding,
    _PaddingValue,
    _UniversalValue,
    csp_to_psi,
    pipeline_budget,
    route_csp,
    sat_to_csp_g,
    sat_to_dcmc,
)
from colorcut.verify import enumerate_formulas, random_formula


def _identity_route(formula: CnfFormula):
    base, incidence = sat_to_csp_g(formula)
    branch = {v: frozenset({v}) for v in range(incidence.vertex_count)}
    return base, route_csp(base, branch, incidence)


def test_sat_to_csp_structure():
    base, incidence = sat_to_csp_g(CnfFormula(2, ((1, -2),)))
    assert base.domains == [(False, True), (False, True), (1, 2)]
    assert incidence == Graph.make(3, [(0, 2), (1, 2)])
    # variable 0 satisfies position 1 only when true
    assert base.constraints[(0, 2)] == {(False, 2), (True, 2), (True, 1)}
    # variable 1 satisfies position 2 only when false
    assert base.constraints[(1, 2)] == {(False, 1), (True, 1), (False, 2)}


def test_sat_to_csp_decision_matches_sat():
    rng = random.Random(55)
    for _ in range(30):
        f = random_formula(rng)
        base, _ = sat_to_csp_g(f)
        assert (
            solve_csp_bruteforce(base).decision
            == solve_sat_bruteforce(f).decision
        )


def test_route_identity_preserves_decision():
    for clauses in [((1, 2), (-1,)), ((1,), (-1,)), ((1, -2), (2,), (-1, 2))]:
        f = CnfFormula(2, clauses)
        base, ctx = _identity_route(f)
        want = solve_csp_bruteforce(base).decision
        assert solve_csp_bruteforce(ctx.csp).decision == want
        ctx.csp.validate()


def test_route_single_vertex_host_collapses_to_solutions():
    f = CnfFormula(2, ((1, 2),))
    base, _ = sat_to_csp_g(f)
    host = Graph.make(1, [])
    branch = {v: frozenset({0}) for v in range(3)}
    ctx = route_csp(base, branch, host)
    assert ctx.members == ((0, 1, 2),)
    solutions = {
        t
        for t in ctx.csp.domains[0]
    }
    # every surviving tuple satisfies the base constraints
    for t in solutions:
        for (u, v), rel in base.constraints.items():
            assert (t[u], t[v]) in rel
    assert bool(solutions) == solve_csp_bruteforce(base).decision

    unsat = CnfFormula(1, ((1,), (-1,)))
    base_u, _ = sat_to_csp_g(unsat)
    ctx_u = route_csp(base_u, {v: frozenset({0}) for v in range(3)}, host)
    assert ctx_u.csp.domains[0] == ()
    assert not solve_csp_bruteforce(ctx_u.csp).decision


def test_route_shared_variable_agreement():
    base = BinaryCsp([(0, 1)])
    host = Graph.make(2, [(0, 1)])
    ctx = route_csp(base, {0: frozenset({0, 1})}, host)
    rel = ctx.csp.constraints[(0, 1)]
    assert rel == {((0,), (0,)), ((1,), (1,))}
    assert solve_csp_bruteforce(ctx.csp).decision


def test_route_rejects_bad_embeddings():
    f = CnfFormula(1, ((1,),))
    base, incidence = sat_to_csp_g(f)
    host = Graph.make(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidEmbedding, match="no branch set"):
        route_csp(base, {0: frozenset({0})}, host)
    with pytest.raises(InvalidEmbedding, match="leaves the host"):
        route_csp(base, {0: frozenset({0}), 1: frozenset({9})}, host)
    with pytest.raises(InvalidEmbedding, match="not connected"):
        route_csp(base, {0: frozenset({0, 2}), 1: frozenset({1})}, host)
    with pytest.raises(InvalidEmbedding, match="does not touch"):
        route_csp(base, {0: frozenset({0}), 1: frozenset({2})}, host)


# (branch sets of the edge 0-1 on the host path 0-1-2-3, message)
CORRUPT_BRANCH_SETS = [
    ({0: {0}}, "no branch set for vertex 1"),
    ({0: {0}, 1: set()}, "empty branch set for vertex 1"),
    ({0: {0}, 1: {9}}, "branch set of 1 leaves the host"),
    ({0: {0, 2}, 1: {1}}, "branch set of 0 is not connected in the host"),
    ({0: {0}, 1: {2}}, "edge (0, 1) does not touch in the host"),
    # the first failing vertex is named, whatever the later ones do wrong
    ({0: {0, 2}}, "branch set of 0 is not connected in the host"),
    ({0: {0, 3}, 1: {1, 3}}, "branch set of 0 is not connected in the host"),
    ({0: {0, 1, 2, 3}, 1: {1, 3}}, "branch set of 1 is not connected in the host"),
    ({0: set(), 1: {0, 2}}, "empty branch set for vertex 0"),
    ({0: {-1}, 1: {0, 2}}, "branch set of 0 leaves the host"),
    ({0: {0, 1}, 1: {2, 9}}, "branch set of 1 leaves the host"),
]


@pytest.mark.parametrize("branch, message", CORRUPT_BRANCH_SETS)
def test_route_and_validate_share_branch_set_checks(branch, message):
    host = Graph.make(4, [(0, 1), (1, 2), (2, 3)])
    branch = {v: frozenset(ws) for v, ws in branch.items()}
    base = BinaryCsp([(0, 1), (0, 1)])
    base.constrain(0, 1, [(0, 1), (1, 0)])
    with pytest.raises(InvalidEmbedding) as routed:
        route_csp(base, branch, host)
    emb = Embedding(host, branch, {0: 0, 1: 1, 2: 2, 3: 3}, 4)
    with pytest.raises(InvalidEmbedding) as validated:
        validate_embedding(emb, Graph.make(2, [(0, 1)]))
    assert str(routed.value) == str(validated.value) == message


def test_route_domain_cap():
    f = CnfFormula(2, ((1, 2),))
    base, incidence = sat_to_csp_g(f)
    branch = {v: frozenset({v}) for v in range(3)}
    with pytest.raises(CapExceeded):
        route_csp(base, branch, incidence, domain_cap=1)


def _one_vertex_route(formula: CnfFormula, cap: int):
    base, incidence = sat_to_csp_g(formula)
    branch = {v: frozenset({0}) for v in range(incidence.vertex_count)}
    return base, route_csp(base, branch, Graph.make(1, []), domain_cap=cap)


def test_route_cap_counts_consistent_tuples():
    # 2 * 2 * 2 * 3 = 24 raw tuples, of which 12 point at a true literal
    f = CnfFormula(3, ((1, 2, 3),))
    base, ctx = _one_vertex_route(f, 12)
    assert ctx.csp.domains[0] == oracles.filtered_product(base, (0, 1, 2, 3))
    assert len(ctx.csp.domains[0]) == 12
    # the 8 assignments of the variables form a layer before the clause joins
    with pytest.raises(CapExceeded, match="more than 7 tuples on its first 3 of 4 members"):
        _one_vertex_route(f, 7)


def test_route_cap_bounds_every_layer():
    # a cap routes iff every prefix of the members keeps at most cap tuples
    rng = random.Random(17)
    for _ in range(25):
        f = random_formula(rng)
        base, incidence = sat_to_csp_g(f)
        members = tuple(range(incidence.vertex_count))
        widest = max(
            len(oracles.filtered_product(base, members[:i])) for i in range(1, len(members) + 1)
        )
        _, ctx = _one_vertex_route(f, widest)
        assert ctx.csp.domains[0] == oracles.filtered_product(base, members)
        with pytest.raises(CapExceeded, match=f"more than {widest - 1} tuples"):
            _one_vertex_route(f, widest - 1)


def test_route_empty_domain_empties_the_vertex_under_any_cap():
    # the raw product is 0, so no layer before the empty domain is built
    base = BinaryCsp([tuple(range(5)), ()])
    ctx = route_csp(base, {0: frozenset({0}), 1: frozenset({0})}, Graph.make(1, []), domain_cap=1)
    assert ctx.csp.domains == [()]


def test_routed_domains_match_the_filtered_product():
    rng = random.Random(29)
    for seed in range(12):
        f = random_formula(rng, 12)
        base, incidence = sat_to_csp_g(f)
        emb = embed(incidence, 8 + seed, 0, RunConfig(big_c_hat=1e18))
        ctx = route_csp(base, emb.branch_sets, emb.host)
        assert ctx.csp.domains == [oracles.filtered_product(base, ms) for ms in ctx.members]


def test_csp_to_psi_connected_pattern():
    f = CnfFormula(2, ((1, 2), (-1, 2)))
    base, ctx = _identity_route(f)
    psi, codec = csp_to_psi(ctx)
    assert psi.pattern_vertex_count == 4  # no universal vertex added
    assert psi.pattern_edges == ctx.host.edges
    assert solve_psi_bruteforce(psi).decision == solve_sat_bruteforce(f).decision
    # codec lines blocks up with host vertices in order
    size = psi.block_size
    for w in range(4):
        for i in range(size):
            assert codec[w * size + i][0] == w


def test_csp_to_psi_adds_universal_on_edgeless_pattern():
    f = CnfFormula(2, ((1, 2),))
    base, _ = sat_to_csp_g(f)
    host = Graph.make(1, [])
    ctx = route_csp(base, {v: frozenset({0}) for v in range(3)}, host)
    psi, codec = csp_to_psi(ctx)
    assert psi.pattern_vertex_count == 2
    assert psi.pattern_edges == ((0, 1),)
    size = psi.block_size
    assert codec[size] == (1, UNIVERSAL)
    # universal connects to every real value, padding to nothing
    real = len(ctx.csp.domains[0])
    assert len(psi.host_edges) == real
    pad_ids = {i for i, (_, val) in enumerate(codec) if isinstance(val, _PaddingValue)}
    assert all(u not in pad_ids and v not in pad_ids for u, v in psi.host_edges)
    assert solve_psi_bruteforce(psi).decision == solve_sat_bruteforce(f).decision


def test_csp_to_psi_unsat_collapses_to_empty_block():
    f = CnfFormula(1, ((1,), (-1,)))
    base, _ = sat_to_csp_g(f)
    ctx = route_csp(base, {v: frozenset({0}) for v in range(3)}, Graph.make(1, []))
    psi, codec = csp_to_psi(ctx)
    assert psi.host_edges == frozenset()
    assert not solve_psi_bruteforce(psi).decision
    red = reduce_psi_to_dcmc(psi)
    assert red.dual.p == 0 and red.dual.a == 1
    assert not solve_dual_bruteforce(red.dual).decision


def test_csp_to_psi_adds_universal_on_disconnected_pattern():
    base = BinaryCsp([(0, 1), (0, 1)])
    host = Graph.make(2, [])
    ctx = route_csp(base, {0: frozenset({0}), 1: frozenset({1})}, host)
    psi, codec = csp_to_psi(ctx)
    assert psi.pattern_vertex_count == 3
    assert psi.pattern_edges == ((0, 2), (1, 2))
    assert solve_psi_bruteforce(psi).decision


def test_csp_to_psi_unconstrained_host_edge_is_fully_adjacent():
    # no base constraint joins the two variables, so the host edge between
    # their blocks admits every value pair
    base = BinaryCsp([(0, 1), (0, 1, 2)])
    ctx = route_csp(base, {0: frozenset({0}), 1: frozenset({1})}, Graph.make(2, [(0, 1)]))
    assert ctx.csp.constraints.get((0, 1)) is None
    psi, codec = csp_to_psi(ctx)
    assert psi.pattern_edges == ((0, 1),)
    assert psi.host_edges == {(a, b) for a in (0, 1) for b in (3, 4, 5)}
    want = solve_csp_bruteforce(base).decision
    assert want
    assert solve_psi_bruteforce(psi).decision == oracles.psi_decision_backtracking(psi) == want
    assert solve_dual_bruteforce(reduce_psi_to_dcmc(psi).dual).decision == want


def test_pipeline_budget_frozen():
    assert pipeline_budget(CnfFormula(1, ())) == 2
    assert pipeline_budget(CnfFormula(2, ((1, 2), (-1, 2)))) == 2
    assert pipeline_budget(CnfFormula(3, ((1, 2), (-1, 3)))) == 3
    assert pipeline_budget(CnfFormula(5, ((1,), (2,), (3,), (4,)))) == 3
    assert pipeline_budget(CnfFormula(5, ((1,), (2,), (3,), (4,), (5,)))) == 4


def test_sat_to_dcmc_matches_oracles():
    rng = random.Random(77)
    for i in range(12):
        f = random_formula(rng)
        run = sat_to_dcmc(f, seed=i)
        want = solve_sat_bruteforce(f).decision
        assert oracles.sat_decision_dpll(f) == want
        assert solve_csp_bruteforce(run.base_csp).decision == want
        assert solve_csp_bruteforce(run.routed.csp).decision == want
        assert solve_psi_bruteforce(run.psi).decision == want
        assert solve_dual_bruteforce(run.reduction.dual).decision == want


def test_sat_to_dcmc_report_and_determinism():
    f = CnfFormula(3, ((1, 2, 3), (-1, 2), (-3,)))
    a = sat_to_dcmc(f, seed=0)
    b = sat_to_dcmc(f, seed=0)
    assert a.report == b.report
    assert write_dcmc(a.reduction.dual) == write_dcmc(b.reduction.dual)
    keys = [key for key, _ in a.report]
    assert keys == [
        "variables",
        "clauses",
        "k",
        "seed",
        "embed_seed",
        "host_vertices",
        "host_edges",
        "embed_depth",
        "max_routed_domain",
        "pattern_vertices",
        "pattern_edges",
        "block_size",
        "connectivized",
        "rho",
        "b",
        "dual_vertices",
        "dual_colors",
        "dual_budget",
    ]
    report = dict(a.report)
    assert report["variables"] == "3" and report["clauses"] == "3"
    assert report["k"] == "3"
    assert int(report["dual_vertices"]) == a.reduction.dual.vertex_count


def test_pipeline_through_multi_vertex_host():
    # identity-host embeddings keep every stage small enough to solve
    for f, expect in [
        (CnfFormula(1, ((1,),)), True),
        (CnfFormula(1, ((1,), (-1,))), False),
    ]:
        base, incidence = sat_to_csp_g(f)
        emb = embed(incidence, 8, seed=0)
        assert emb.host.edges == incidence.edges
        ctx = route_csp(base, emb.branch_sets, emb.host)
        psi, _ = csp_to_psi(ctx)
        assert solve_psi_bruteforce(psi).decision == expect
        red = reduce_psi_to_dcmc(psi)
        assert solve_dual_bruteforce(red.dual).decision == expect


def test_csp_to_psi_on_wider_hosts_matches_sat():
    # four-vertex incidence pattern, stopping before the gadget blowup
    f = CnfFormula(2, ((1, 2), (-1, 2)))
    base, incidence = sat_to_csp_g(f)
    emb = embed(incidence, 12, seed=0)
    assert emb.host.vertex_count == incidence.vertex_count
    ctx = route_csp(base, emb.branch_sets, emb.host)
    psi, _ = csp_to_psi(ctx)
    assert solve_psi_bruteforce(psi).decision == solve_sat_bruteforce(f).decision


# sha256 of write_csp of the routed CSP and write_psi of its PSI for every
# formula of enumerate_formulas(3, 2) embedded at k = 8, 12, 16 (seed 0, no
# depth bound): any change to routing or to the PSI numbering changes it
ROUTED_ARTIFACTS_SHA256 = "d5f4dd7f546023aef38d12c4d5daa8189cdbcacb77977a032cc9c830ff2b976e"


def test_routed_artifacts_are_pinned():
    cfg = RunConfig(big_c_hat=1e18)
    digest = hashlib.sha256()
    routes = expander_routes = 0
    for f in enumerate_formulas(3, 2):
        base, incidence = sat_to_csp_g(f)
        for k in (8, 12, 16):
            emb = embed(incidence, k, 0, cfg)
            ctx = route_csp(base, emb.branch_sets, emb.host)
            psi, _ = csp_to_psi(ctx)
            digest.update((write_csp(ctx.csp) + write_psi(psi)).encode())
            routes += 1
            expander_routes += bool(emb.draws)
    # every host has several vertices; 238 are certified expanders
    assert (routes, expander_routes) == (1170, 238)
    assert digest.hexdigest() == ROUTED_ARTIFACTS_SHA256


def test_universal_is_a_singleton():
    assert _UniversalValue() is UNIVERSAL
    assert repr(UNIVERSAL) == "universal"
    assert repr(_PaddingValue(0, 1)) == "pad0.1"
    assert _PaddingValue(0, 1) == _PaddingValue(0, 1)
    assert _PaddingValue(0, 1) != _PaddingValue(1, 1)
