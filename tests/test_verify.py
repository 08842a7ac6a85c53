import hashlib
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from colorcut import verify
from colorcut.config import RunConfig
from colorcut.embedding import ExpansionTargetUnmet
from colorcut.gadgets import HUB, WitnessDecodeError
from colorcut.instances import (
    DualCmcInstance,
    PsiInstance,
    solve_psi_bruteforce,
    solve_sat_bruteforce,
)
from colorcut.verify import (
    EXHAUSTIVE_PATTERNS,
    all_clauses,
    calibrate,
    check_gadget_instance,
    check_pipeline_formula,
    hit_overflow_fraction,
    enumerate_formulas,
    exhaustive_gadget_family,
    expander_certificates,
    flow_congestion_ratios,
    random_cmc,
    random_formula,
    verify_duality,
    verify_embedding,
    verify_gadgets,
    verify_pipeline,
)

CFG = RunConfig()


def test_all_clauses_counts_and_shape():
    assert len(all_clauses(1)) == 2
    assert len(all_clauses(2)) == 8
    assert len(all_clauses(3)) == 26
    for clause in all_clauses(3):
        variables = [abs(lit) for lit in clause]
        assert variables == sorted(variables)
        assert len(set(variables)) == len(variables)
        assert 1 <= len(clause) <= 3


def test_enumerate_formulas_counts():
    by_n = {1: 0, 2: 0, 3: 0}
    total = 0
    for f in enumerate_formulas(3, 3):
        by_n[f.variable_count] += 1
        total += 1
        assert 1 <= len(f.clauses) <= 3
        assert len(set(f.clauses)) == len(f.clauses)
    assert by_n == {1: 3, 2: 92, 3: 2951}
    assert total == 3046


def test_exhaustive_gadget_family_count():
    instances = list(exhaustive_gadget_family())
    assert len(instances) == 798
    # patterns stay in the advertised family
    seen = {(inst.pattern_vertex_count, inst.pattern_edges) for inst in instances}
    assert seen == set(EXHAUSTIVE_PATTERNS)
    assert {inst.block_size for inst in instances} == {1, 2}
    # host edge subsets are distinct per (pattern, n)
    keys = [
        (inst.pattern_vertex_count, inst.pattern_edges, inst.block_size, inst.host_edges)
        for inst in instances
    ]
    assert len(set(keys)) == 798


def test_random_formula_bounds():
    rng = random.Random(1)
    for _ in range(100):
        f = random_formula(rng)
        assert f.variable_count + len(f.clauses) <= 8
        assert f.variable_count >= 1 and len(f.clauses) >= 1
        for clause in f.clauses:
            assert 1 <= len(clause) <= 3
            variables = [abs(lit) for lit in clause]
            assert len(set(variables)) == len(variables)
            assert all(1 <= v <= f.variable_count for v in variables)


def test_random_cmc_covers_palette():
    rng = random.Random(2)
    for _ in range(50):
        g = random_cmc(rng)
        used = {c for _, _, c in g.edges}
        assert used == set(range(1, g.p + 1))
        assert 0 <= g.k <= g.p
        g.require_full_palette()


def test_verify_duality_smoke():
    result = verify_duality(replace(CFG, trials=15, seed=3))
    assert result.ok
    assert result.metrics["violations"] == 0
    assert any(line == "duality_ok=1" for line in result.lines)


# one pattern edge, two host edges: a yes instance
YES_PSI = PsiInstance(2, ((0, 1),), 2, ((0, 1), (2, 3)), frozenset({(0, 2), (1, 3)}))


def test_check_gadget_instance_flags():
    result = check_gadget_instance(YES_PSI, CFG)
    for key in ("size_ok", "spanning_ok", "pairs_ok", "equiv_ok", "decode_ok", "forward_ok"):
        assert result[key], key
    assert result["psi_decision"] and result["dual_decision"]
    assert result["reduction"].dual.p == 2


def _raise(exc):
    def decode(reduction, witness):
        raise exc

    return decode


def test_check_gadget_instance_decode_errors(monkeypatch):
    # a selection that does not decode is a failed check; a bug in decoding
    # must surface instead of reading as one
    monkeypatch.setattr(verify, "decode_dual_witness", _raise(WitnessDecodeError("no")))
    result = check_gadget_instance(YES_PSI, CFG)
    assert result["dual_decision"] and result["decode_ok"] is False
    monkeypatch.setattr(verify, "decode_dual_witness", _raise(IndexError("bug")))
    with pytest.raises(IndexError):
        check_gadget_instance(YES_PSI, CFG)


def _reduce_with(monkeypatch, edit):
    """Make check_gadget_instance see reduce_psi_to_dcmc's output with color
    graphs edit(reduction, graphs) in place of the dual's own."""
    reduce = verify.reduce_psi_to_dcmc

    def edited(inst):
        red = reduce(inst)
        graphs = edit(red, list(red.dual.color_graphs))
        dual = DualCmcInstance(red.dual.vertex_count, tuple(graphs), red.dual.a)
        return replace(red, dual=dual)

    monkeypatch.setattr(verify, "reduce_psi_to_dcmc", edited)


def _strip(red, graphs):
    # a gadget stripped down to its selection edge
    _, v_x, v_y = red.color_map[0]
    graphs[0] = [(red.params.hat_vertex(0, v_x), red.params.hat_vertex(1, v_y))]
    return graphs


def _connect(red, graphs):
    # hub edges to every vertex in the gadget the PSI witness selects
    pick = solve_psi_bruteforce(YES_PSI).witness
    i = red.color_map.index((1, *pick))
    hub = [(HUB, w) for w in range(1, red.dual.vertex_count)]
    graphs[i] = np.concatenate([graphs[i], hub])
    return graphs


def test_check_gadget_instance_pair_that_stays_split(monkeypatch):
    # a stripped gadget leaves the other gadget's selected images apart from
    # the hub, so that pair fails and only it
    _reduce_with(monkeypatch, _strip)
    result = check_gadget_instance(YES_PSI, CFG)
    assert result["pairs_ok"] is False
    assert result["forward_ok"] is True


def test_check_gadget_instance_selection_that_stays_connected(monkeypatch):
    # hub edges in the selected gadget connect its union, so the forward
    # check fails while every pair still connects
    _reduce_with(monkeypatch, _connect)
    result = check_gadget_instance(YES_PSI, CFG)
    assert result["forward_ok"] is False
    assert result["pairs_ok"] is True


@pytest.mark.parametrize(
    "edit, failed", [(_strip, "pairs_ok"), (_connect, "forward_ok")], ids=["strip", "connect"]
)
def test_check_gadget_instance_edits_after_a_warm_memo(monkeypatch, edit, failed):
    # the real reduction's unions are in the memo first; an edited dual has
    # the same colors but other rows, so it must be labelled afresh
    assert all(check_gadget_instance(YES_PSI, CFG)[key] for key in ("pairs_ok", "forward_ok"))
    _reduce_with(monkeypatch, edit)
    result = check_gadget_instance(YES_PSI, CFG)
    assert result[failed] is False
    other = ({"pairs_ok", "forward_ok"} - {failed}).pop()
    assert result[other] is True


def _digest(rows) -> bytes:
    return hashlib.blake2b(np.asarray(rows, dtype=np.uint16), digest_size=16).digest()


def test_union_memo_keys_are_row_digests():
    verify._union_labels.clear()
    result = check_gadget_instance(YES_PSI, CFG)
    red = result["reduction"]
    graphs = red.dual.color_graphs
    w = red.dual.vertex_count
    pick = solve_psi_bruteforce(YES_PSI).witness
    chosen = red.color_map.index((1, *pick))
    hats = tuple(red.params.hat_vertex(x, pick[x]) for x in range(2))
    pair = (w, tuple(sorted(map(_digest, graphs))), (HUB,))
    forward = (w, (_digest(graphs[chosen]),), (HUB, *hats))
    assert list(verify._union_labels) == [pair, forward]
    # the pair is connected; the forward union splits the hub from the images
    assert verify._union_labels[pair] == (1, (0,))
    count, (hub, *images) = verify._union_labels[forward]
    assert count >= 2 and len(set(images)) == 1 and hub not in images


FLAGS = (
    "size_ok",
    "spanning_ok",
    "pairs_ok",
    "equiv_ok",
    "decode_ok",
    "forward_ok",
    "psi_decision",
    "dual_decision",
)


def test_union_memo_cold_and_warm_flags_agree():
    cold = []
    for inst in exhaustive_gadget_family():
        verify._union_labels.clear()
        result = check_gadget_instance(inst, CFG)
        cold.append([result[key] for key in FLAGS])
    verify._union_labels.clear()
    warm = [
        [result[key] for key in FLAGS]
        for result in (check_gadget_instance(inst, CFG) for inst in exhaustive_gadget_family())
    ]
    assert warm == cold
    # 30 distinct pairs and 32 distinct forward unions
    assert len(verify._union_labels) == 62
    # a second pass finds every union in the memo
    before = list(verify._union_labels)
    for inst in exhaustive_gadget_family():
        check_gadget_instance(inst, CFG)
    assert sorted(verify._union_labels) == sorted(before)


def _keys_of(inst) -> list:
    verify._union_labels.clear()
    check_gadget_instance(inst, CFG)
    return list(verify._union_labels)


def test_union_memo_evicts_least_recently_used(monkeypatch):
    a = _keys_of(YES_PSI)
    seen = set(a)
    others = []
    for inst in exhaustive_gadget_family():
        keys = _keys_of(inst)
        if keys and seen.isdisjoint(keys):
            others.append((inst, keys))
            seen.update(keys)
        if len(others) == 2:
            break
    (b_inst, b), (c_inst, c) = others
    monkeypatch.setattr(verify, "_UNION_CACHE_SIZE", len(a) + len(b))
    verify._union_labels.clear()
    for inst in (YES_PSI, b_inst, YES_PSI):
        check_gadget_instance(inst, CFG)
    # the hits moved YES_PSI's unions behind b's, so c evicts b's first
    assert list(verify._union_labels) == b + a
    check_gadget_instance(c_inst, CFG)
    assert list(verify._union_labels) == (b + a + c)[len(c) :]


def test_check_gadget_instance_labels_once(monkeypatch):
    calls = []
    labels = verify.component_labels

    def counted(*args):
        calls.append(args)
        return labels(*args)

    monkeypatch.setattr(verify, "component_labels", counted)
    # on a cold memo, the one pair and the PSI witness's selection share one
    # labelling
    verify._union_labels.clear()
    result = check_gadget_instance(YES_PSI, CFG)
    assert result["pairs_ok"] and result["forward_ok"]
    assert len(calls) == 1
    w = result["reduction"].dual.vertex_count
    assert calls[0][0] == 2 * w
    # the same check again finds both unions in the memo
    result = check_gadget_instance(YES_PSI, CFG)
    assert result["pairs_ok"] and result["forward_ok"]
    assert len(calls) == 1
    # no host edge: no pair, a no answer, and nothing to label
    empty = replace(YES_PSI, host_edges=frozenset())
    result = check_gadget_instance(empty, CFG)
    assert not result["psi_decision"] and result["pairs_ok"] and result["forward_ok"]
    assert len(calls) == 1


def test_check_gadget_instance_sample_of_family():
    sample = itertools.islice(exhaustive_gadget_family(), 0, 798, 37)
    for inst in sample:
        result = check_gadget_instance(inst, CFG)
        assert result["equiv_ok"]
        assert result["size_ok"]


def test_verify_gadgets_lines():
    result = verify_gadgets(CFG)
    assert result.ok
    assert result.lines == [
        "gadget_instances=798",
        "gadget_yes=640",
        *(
            f"gadget_{key}_failures=0"
            for key in ("decode", "equiv", "forward", "pairs", "size", "spanning")
        ),
        "gadgets_ok=1",
    ]


def test_verify_gadgets_names_its_first_failure(monkeypatch):
    check = verify.check_gadget_instance
    count = itertools.count()

    def failing(inst, cfg):
        result = check(inst, cfg)
        if next(count) in (5, 9):
            result.update(pairs_ok=False, forward_ok=False)
        return result

    monkeypatch.setattr(verify, "check_gadget_instance", failing)
    result = verify_gadgets(CFG)
    assert not result.ok
    assert result.lines[-3:] == [
        "gadget_spanning_failures=0",
        "gadget_first_failure=5 forward,pairs",
        "gadgets_ok=0",
    ]
    assert "gadget_pairs_failures=2" in result.lines


def test_verify_embedding_smoke():
    result = verify_embedding(replace(CFG, trials=10, seed=1))
    assert result.ok
    assert result.metrics["invalid"] == 0
    assert result.metrics["fraction"] >= 0.5


def test_flow_congestion_ratios_small():
    ratios = flow_congestion_ratios(CFG, ells=(4, 8))
    assert set(ratios) == {4, 8}
    for ratio in ratios.values():
        assert 0 < ratio <= CFG.c_hat


def test_hit_overflow_fraction_small():
    fraction = hit_overflow_fraction(CFG, 4, trials=20)
    assert 0.0 <= fraction <= 0.1


def test_hit_overflow_fraction_uses_configured_host():
    cfg = RunConfig(expander_target=1.0, expander_exhaustive_cap=4, expander_retries=1)
    with pytest.raises(ExpansionTargetUnmet):
        hit_overflow_fraction(cfg, 8, trials=1)


def test_expander_certificates_range():
    certs = expander_certificates(CFG, max_ell=8)
    assert sorted(certs) == list(range(1, 9))
    for ell, cert in certs.items():
        assert cert.graph.vertex_count == ell
        assert cert.method == "exhaustive"
        assert float(cert.delta_hat) >= CFG.expander_target


def test_check_pipeline_formula_both_ways():
    from colorcut.instances import CnfFormula

    sat_case = check_pipeline_formula(CnfFormula(2, ((1, 2),)), 0, CFG)
    assert sat_case["ok"] and sat_case["sat"]
    unsat_case = check_pipeline_formula(CnfFormula(1, ((1,), (-1,))), 0, CFG)
    assert unsat_case["ok"] and not unsat_case["sat"]
    assert unsat_case["stages"] == (False, False, False, False)
    assert not solve_sat_bruteforce(unsat_case["run"].formula).decision


def test_verify_pipeline_smoke():
    result = verify_pipeline(replace(CFG, trials=5, seed=2))
    assert result.ok
    assert result.metrics["failures"] == 0
    # 3 one-variable and 36 two-variable exhaustive formulas plus the randoms
    assert result.metrics["checked"] == 39 + 5


def test_calibrate_smoke():
    result = calibrate(replace(CFG, seed=0, trials=5))
    assert result.ok
    assert result.metrics["c_hat_observed"] <= CFG.c_hat
    assert len(result.metrics["depth_ratios"]) == 5
    keys = {line.split("=", 1)[0] for line in result.lines}
    assert "c_hat_observed" in keys
    assert "delta_hat_exhaustive_min" in keys
    assert "depth_ratio_max" in keys
    assert "calibration_ok" in keys
