import random
from dataclasses import replace

import numpy as np
import pytest

import oracles
from colorcut.instances import (
    Answer,
    BinaryCsp,
    CapExceeded,
    CnfFormula,
    ColoredMultigraph,
    DualCmcInstance,
    PsiInstance,
    cmc_to_dual,
    dual_to_cmc,
    psi_selection_ok,
    solve_cmc_bruteforce,
    solve_csp_bruteforce,
    solve_dual_bruteforce,
    solve_psi_bruteforce,
    solve_sat_bruteforce,
)
from colorcut.config import RunConfig
from colorcut.gadgets import reduce_psi_to_dcmc
from colorcut.verify import (
    enumerate_formulas,
    exhaustive_gadget_family,
    random_cmc,
    random_formula,
)


# ---------------------------------------------------------------------------
# Colored min-cut
# ---------------------------------------------------------------------------


def test_cmc_validation():
    with pytest.raises(ValueError):
        ColoredMultigraph(0, (), 0, 0)
    with pytest.raises(ValueError):
        ColoredMultigraph(2, ((0, 1, 1),), 1, 2)  # k > p
    with pytest.raises(ValueError):
        ColoredMultigraph(2, ((0, 0, 1),), 1, 0)  # self-loop
    with pytest.raises(ValueError):
        ColoredMultigraph(2, ((0, 1, 2),), 1, 0)  # color out of range


def test_cmc_canonical_sorts_and_dedupes():
    g = ColoredMultigraph(3, ((2, 0, 1), (0, 2, 1), (1, 0, 1)), 1, 0).canonical()
    assert g.edges == ((0, 1, 1), (0, 2, 1))


def test_cmc_parallel_edges_with_distinct_colors_survive():
    g = ColoredMultigraph(2, ((0, 1, 1), (1, 0, 2)), 2, 1).canonical()
    assert g.edges == ((0, 1, 1), (0, 1, 2))


def test_cut_colors():
    g = ColoredMultigraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 2)), 2, 1)
    assert g.cut_colors({0}) == {1, 2}
    assert g.cut_colors({2}) == {2}
    assert g.cut_colors({0, 1, 2}) == set()


def test_full_palette_check():
    g = ColoredMultigraph(2, ((0, 1, 2),), 2, 1)
    with pytest.raises(ValueError):
        g.require_full_palette()


def test_cmc_known_instance():
    # two vertices joined by edges of both colors: any cut meets 2 colors
    g = ColoredMultigraph(2, ((0, 1, 1), (0, 1, 2)), 2, 1)
    assert solve_cmc_bruteforce(g) == Answer(False, None)
    assert solve_cmc_bruteforce(replace(g, k=2)).decision


def test_cmc_single_vertex_has_no_cut():
    g = ColoredMultigraph(1, (), 1, 1)
    assert not solve_cmc_bruteforce(g).decision


def test_cmc_cap():
    g = ColoredMultigraph(5, ((0, 1, 1),), 1, 1)
    with pytest.raises(CapExceeded):
        solve_cmc_bruteforce(g, cap=4)


def test_cmc_matches_subset_oracle():
    rng = random.Random(101)
    for _ in range(60):
        g = random_cmc(rng)
        best = oracles.cmc_best_cut_colors(g)
        answer = solve_cmc_bruteforce(g)
        assert answer.decision == (best <= g.k)
        if answer.decision:
            side = answer.witness
            assert 0 < len(side) < g.vertex_count
            assert len(g.cut_colors(side)) == best  # witness is optimal


def test_cmc_witness_is_smallest_side():
    g = ColoredMultigraph(4, ((0, 1, 1), (2, 3, 1)), 1, 0)
    # color 1 crosses no cut separating {0,1} from {2,3}
    answer = solve_cmc_bruteforce(g)
    assert answer.decision
    assert answer.witness == (0, 1)


# ---------------------------------------------------------------------------
# Dual colored min-cut
# ---------------------------------------------------------------------------


def test_dual_validation():
    with pytest.raises(ValueError):
        DualCmcInstance(0, (), 0)
    with pytest.raises(ValueError):
        DualCmcInstance(2, (), -1)
    with pytest.raises(ValueError):
        DualCmcInstance(2, (frozenset({(1, 0)}),), 1)  # not normalized


def test_dual_messages_name_the_color():
    # a bad row in a middle block
    with pytest.raises(ValueError, match=r"^color graph 2 edge \(4, 4\) not normalized in range$"):
        DualCmcInstance(10, ([(0, 1), (2, 3)], [(1, 2), (4, 4), (5, 6)], [(0, 9)]), 1)
    # an unsorted block is sorted first, so its smallest bad row is named
    with pytest.raises(ValueError, match=r"^color graph 2 edge \(3, 2\) not normalized in range$"):
        DualCmcInstance(10, ([(0, 1)], [(5, 6), (1, 2), (5, 6), (3, 2)], [(0, 9)]), 1)
    with pytest.raises(ValueError, match=r"^color graph 3 edge \(0, 10\) not normalized in range$"):
        DualCmcInstance(10, ([(0, 1)], [(5, 6), (1, 2), (5, 6)], [(0, 10)]), 1)
    with pytest.raises(ValueError, match="^color graph edges must be vertex pairs$"):
        DualCmcInstance(10, ([(0, 1)], [(1, 2, 3)], [(0, 9)]), 1)
    with pytest.raises(ValueError, match="^color graph vertex beyond the int64 range$"):
        DualCmcInstance(10, ([(0, 1)], [(1, 2**64)], [(0, 9)]), 1)
    # unsorted and repeated rows are sorted and dropped, block by block
    d = DualCmcInstance(10, ([(0, 1)], [(5, 6), (1, 2), (5, 6)], [], [(0, 9)]), 1)
    assert d.offsets.tolist() == [0, 1, 3, 3, 4]
    assert d.edges.tolist() == [[0, 1], [1, 2], [5, 6], [0, 9]]


def test_dual_from_rows_keeps_the_array():
    blocks = ([(0, 1)], [(1, 2), (5, 6)], [], [(0, 9)])
    edges = np.array([row for block in blocks for row in block], dtype=np.int64)
    d = DualCmcInstance.from_rows(10, edges, [0, 1, 3, 3, 4], 1)
    assert d == DualCmcInstance(10, blocks, 1)
    assert d.edges is edges and not edges.flags.writeable
    assert [g.tolist() for g in d.color_graphs] == [[list(e) for e in b] for b in blocks]


def test_dual_from_rows_shares_the_tuple_checks():
    # an unsorted block is sorted and deduplicated in a copy
    edges = np.array([[0, 1], [5, 6], [1, 2], [5, 6], [0, 9]], dtype=np.int64)
    d = DualCmcInstance.from_rows(10, edges, [0, 1, 4, 5], 1)
    assert d.offsets.tolist() == [0, 1, 3, 4]
    assert d.edges.tolist() == [[0, 1], [1, 2], [5, 6], [0, 9]]
    assert edges.flags.writeable
    with pytest.raises(ValueError, match=r"^color graph 3 edge \(0, 10\) not normalized in range$"):
        DualCmcInstance.from_rows(10, [(0, 1), (1, 2), (0, 10)], [0, 1, 2, 3], 1)
    with pytest.raises(ValueError, match="^need at least one vertex$"):
        DualCmcInstance.from_rows(0, np.empty((0, 2), dtype=np.int64), [0], 0)
    for offsets in ([], [1, 2], [0, 1], [0, 2, 1, 2], [[0, 2]]):
        with pytest.raises(ValueError, match="^offsets must rise"):
            DualCmcInstance.from_rows(10, [(0, 1), (1, 2)], offsets, 1)


def test_dual_budget_above_p_is_vacuously_no():
    d = DualCmcInstance(3, (frozenset({(0, 1)}),), 2)
    assert d.a > d.p
    assert solve_dual_bruteforce(d) == Answer(False, None)
    with pytest.raises(ValueError):
        dual_to_cmc(d)


def test_dual_known_instance():
    d = DualCmcInstance(
        3,
        (frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(0, 1), (0, 2), (1, 2)})),
        1,
    )
    answer = solve_dual_bruteforce(d)
    assert answer.decision
    assert answer.witness == (1,)  # first singleton whose union is disconnected


def test_dual_cap():
    d = DualCmcInstance(2, tuple(frozenset() for _ in range(30)), 15)
    with pytest.raises(CapExceeded):
        solve_dual_bruteforce(d, cap=10)


def test_dual_matches_bfs_oracle():
    rng = random.Random(55)
    for _ in range(60):
        g = random_cmc(rng)
        d = cmc_to_dual(g)
        answer = solve_dual_bruteforce(d)
        assert answer.decision == oracles.dual_decision(d)
        if answer.decision:
            union = d.union(answer.witness).tolist()
            assert len(answer.witness) == d.a
            assert oracles.component_count(d.vertex_count, union) >= 2


def test_duality_decision_equivalence():
    rng = random.Random(77)
    for _ in range(80):
        g = random_cmc(rng)
        assert solve_cmc_bruteforce(g).decision == solve_dual_bruteforce(cmc_to_dual(g)).decision


def test_round_trip_is_identity_on_canonical():
    rng = random.Random(13)
    for _ in range(40):
        g = random_cmc(rng)
        assert dual_to_cmc(cmc_to_dual(g)) == g.canonical()


# ---------------------------------------------------------------------------
# Partitioned subgraph isomorphism
# ---------------------------------------------------------------------------


def _psi(h, pattern_edges, n, host_edges):
    blocks = tuple(tuple(range(x * n, (x + 1) * n)) for x in range(h))
    return PsiInstance(h, tuple(pattern_edges), n, blocks, frozenset(host_edges))


def test_psi_validation():
    with pytest.raises(ValueError):
        _psi(2, [(0, 1)], 2, [(0, 1)])  # host edge inside block 0
    with pytest.raises(ValueError):
        _psi(3, [(0, 1)], 1, [(1, 2)])  # blocks 1, 2 are not pattern-adjacent
    with pytest.raises(ValueError):
        _psi(2, [(1, 0)], 1, [])  # pattern edge not normalized
    with pytest.raises(ValueError):
        PsiInstance(2, ((0, 1),), 2, ((0, 1), (1, 2)), frozenset())  # not a partition


def test_psi_selection_and_solver():
    inst = _psi(2, [(0, 1)], 2, [(0, 3)])
    assert psi_selection_ok(inst, (0, 3))
    assert not psi_selection_ok(inst, (0, 2))
    answer = solve_psi_bruteforce(inst)
    assert answer == Answer(True, (0, 3))

    empty = _psi(2, [(0, 1)], 2, [])
    assert solve_psi_bruteforce(empty) == Answer(False, None)


def test_psi_cap():
    inst = _psi(2, [(0, 1)], 4, [(0, 4)])
    with pytest.raises(CapExceeded):
        solve_psi_bruteforce(inst, cap=15)


def _random_psi(rng):
    h = rng.randint(2, 4)
    n = rng.randint(1, 3)
    pattern = [
        (x, y) for x in range(h) for y in range(x + 1, h) if rng.random() < 0.6
    ]
    possible = []
    for x, y in pattern:
        for u in range(x * n, (x + 1) * n):
            for v in range(y * n, (y + 1) * n):
                possible.append((u, v))
    host = [e for e in possible if rng.random() < 0.5]
    return _psi(h, pattern, n, host)


def test_psi_matches_backtracking_oracle():
    rng = random.Random(31)
    for _ in range(120):
        inst = _random_psi(rng)
        assert solve_psi_bruteforce(inst).decision == oracles.psi_decision_backtracking(inst)


# ---------------------------------------------------------------------------
# Binary CSPs
# ---------------------------------------------------------------------------


def test_csp_constrain_orients_and_intersects():
    csp = BinaryCsp([(0, 1), (0, 1)])
    csp.constrain(1, 0, {(0, 0), (1, 0), (1, 1)})  # reversed key gets flipped
    assert csp.constraints == {(0, 1): frozenset({(0, 0), (0, 1), (1, 1)})}
    csp.constrain(0, 1, {(0, 0), (0, 1)})
    assert csp.constraints[(0, 1)] == frozenset({(0, 0), (0, 1)})


def test_csp_constrain_rejects_bad_pairs():
    csp = BinaryCsp([(0,), (0,)])
    with pytest.raises(ValueError):
        csp.constrain(0, 0, set())
    with pytest.raises(ValueError):
        csp.constrain(0, 2, set())


def test_csp_validate_rejects_stray_values():
    csp = BinaryCsp([(0,), (0,)])
    csp.constraints[(0, 1)] = frozenset({(0, 5)})
    with pytest.raises(ValueError):
        csp.validate()


def test_csp_solver_basics():
    empty = BinaryCsp([])
    assert solve_csp_bruteforce(empty) == Answer(True, ())

    csp = BinaryCsp([(0, 1), (0, 1)])
    csp.constrain(0, 1, {(0, 1), (1, 0)})
    answer = solve_csp_bruteforce(csp)
    assert answer == Answer(True, (0, 1))

    csp2 = BinaryCsp([(0,), (0,)])
    csp2.constrain(0, 1, set())
    assert solve_csp_bruteforce(csp2) == Answer(False, None)


def test_csp_cap():
    csp = BinaryCsp([tuple(range(10)) for _ in range(3)])
    with pytest.raises(CapExceeded):
        solve_csp_bruteforce(csp, cap=999)


def _random_csp(rng):
    n = rng.randint(1, 4)
    domains = [tuple(range(rng.randint(1, 3))) for _ in range(n)]
    csp = BinaryCsp(domains)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                pairs = {
                    (a, b)
                    for a in domains[i]
                    for b in domains[j]
                    if rng.random() < 0.6
                }
                csp.constrain(i, j, pairs)
    return csp


def test_csp_matches_backtracking_oracle():
    rng = random.Random(99)
    for _ in range(150):
        csp = _random_csp(rng)
        assert solve_csp_bruteforce(csp).decision == oracles.csp_decision_backtracking(csp)


# ---------------------------------------------------------------------------
# CNF formulas
# ---------------------------------------------------------------------------


def test_cnf_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, ((),))  # empty clause
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, 2, -1),))  # repeated variable
    with pytest.raises(ValueError):
        CnfFormula(2, ((3,),))  # variable out of range
    with pytest.raises(ValueError):
        CnfFormula(1, ((1, 0),))  # zero literal
    with pytest.raises(ValueError):
        CnfFormula(4, ((1, 2, 3, 4),))  # wider than three literals


def test_sat_known_answers():
    assert solve_sat_bruteforce(CnfFormula(1, ((1,), (-1,)))).decision is False
    assert solve_sat_bruteforce(CnfFormula(0, ())) == Answer(True, ())
    answer = solve_sat_bruteforce(CnfFormula(2, ((-1,), (1, 2))))
    assert answer.decision
    assert answer.witness == (False, True)


def test_sat_witness_satisfies_formula():
    rng = random.Random(5)
    for _ in range(80):
        f = random_formula(rng)
        answer = solve_sat_bruteforce(f)
        if answer.decision:
            values = answer.witness
            for clause in f.clauses:
                assert any((lit > 0) == values[abs(lit) - 1] for lit in clause)


def test_sat_cap():
    f = CnfFormula(6, ((1,),))
    with pytest.raises(CapExceeded):
        solve_sat_bruteforce(f, cap=5)


def test_sat_matches_dpll_exhaustive_small():
    for f in enumerate_formulas(2, 2):
        assert solve_sat_bruteforce(f).decision == oracles.sat_decision_dpll(f)


def test_sat_matches_dpll_random():
    rng = random.Random(17)
    for _ in range(120):
        f = random_formula(rng)
        assert solve_sat_bruteforce(f).decision == oracles.sat_decision_dpll(f)


# ---------------------------------------------------------------------------
# Array solver against the union-find reference
# ---------------------------------------------------------------------------


def _assert_same_answer(d):
    assert solve_dual_bruteforce(d) == oracles.solve_dual_union_find(d)


def test_dual_solver_matches_union_find_on_duality_instances():
    # the instances verify_duality draws with the default seed and trials
    rng = random.Random(RunConfig().seed)
    for _ in range(RunConfig().trials):
        _assert_same_answer(cmc_to_dual(random_cmc(rng)))


def test_dual_solver_matches_union_find_on_the_gadget_family():
    for inst in exhaustive_gadget_family():
        _assert_same_answer(reduce_psi_to_dcmc(inst).dual)


@pytest.mark.parametrize(
    "d",
    [
        DualCmcInstance(3, (((0, 1),),), 2),  # a > p
        DualCmcInstance(1, ((), ()), 1),  # one vertex
        DualCmcInstance(1, (), 0),
        DualCmcInstance(3, ((), (), ()), 2),  # empty color graphs
        DualCmcInstance(2, ((), ((0, 1),)), 1),
        DualCmcInstance(3, ((), ((0, 1), (1, 2))), 0),  # a = 0
        DualCmcInstance(10**11, (((0, 1),), ((1, 2), (5, 10**10))), 1),
        DualCmcInstance(10**11, (((0, 1),), ((1, 2), (5, 10**10))), 2),
        DualCmcInstance(4, (((0, 1), (2, 3)), ((1, 2),), ((0, 3),)), 2),
        DualCmcInstance(4, (((0, 1), (0, 2), (1, 2)), ((0, 3),)), 1),
    ],
    ids=[
        "a-above-p",
        "one-vertex",
        "one-vertex-p0",
        "empty",
        "empty-first",
        "a0",
        "huge-a1",
        "huge-a2",
        "mixed",
        "isolated-vertex",
    ],
)
def test_dual_solver_matches_union_find_on_edge_cases(d):
    _assert_same_answer(d)
