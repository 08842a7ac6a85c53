"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Heavy shared work (the exhaustive gadget family and the formula family)
runs once in module-scoped fixtures; every criterion then asserts on the
collected results. Tolerances are pinned inline next to each assertion.
"""

import hashlib
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from oracles import min_sparsity_exhaustive
from colorcut.config import RunConfig
from colorcut.formats import render_report, write_dcmc, write_gadget_map
from colorcut.gadgets import reduce_psi_to_dcmc
from colorcut.instances import (
    PsiInstance,
    solve_dual_bruteforce,
    solve_sat_bruteforce,
)
from colorcut.pipeline import sat_to_dcmc
from colorcut.verify import (
    check_gadget_instance,
    hit_overflow_fraction,
    enumerate_formulas,
    exhaustive_gadget_family,
    expander_certificates,
    flow_congestion_ratios,
    random_formula,
    verify_embedding,
)

CFG = RunConfig()


def announce(capsys, number: int, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'}{suffix}")


def reduction_digest(reduction) -> str:
    blob = write_dcmc(reduction.dual) + "\x00" + write_gadget_map(reduction.color_map)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_digest(run) -> str:
    blob = (
        write_dcmc(run.reduction.dual)
        + "\x00"
        + write_gadget_map(run.reduction.color_map)
        + "\x00"
        + render_report(run.report)
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def gadget_family():
    """(instance, check result, artifact digest) over all 798 instances."""
    rows = []
    for inst in exhaustive_gadget_family():
        result = check_gadget_instance(inst, CFG)
        rows.append((inst, result, reduction_digest(result["reduction"])))
    return rows


@pytest.fixture(scope="module")
def pipeline_family():
    """All 3046 formulas with N <= 3, M <= 3 plus 100 random ones with
    N + M <= 8, each run once with seed = its index."""
    formulas = list(enumerate_formulas(3, 3))
    rng = Random(777)
    formulas.extend(random_formula(rng) for _ in range(100))
    rows = []
    started = time.perf_counter()
    for i, formula in enumerate(formulas):
        run = sat_to_dcmc(formula, i, CFG)
        dual = solve_dual_bruteforce(run.reduction.dual, CFG.cap_dual_combinations)
        sat = solve_sat_bruteforce(formula, CFG.cap_sat_variables)
        rows.append((formula, i, dual.decision, sat.decision, run_digest(run)))
    return rows, time.perf_counter() - started


def test_criterion_1_exact_sizes(capsys, gadget_family):
    sizes_ok = all(result["size_ok"] for _, result, _ in gadget_family)

    timing_ok = True
    fresh_ok = True
    for h, pattern_edges in ((2, ((0, 1),)), (3, ((0, 1), (1, 2)))):
        n = 3
        blocks = tuple(tuple(range(x * n, (x + 1) * n)) for x in range(h))
        host = frozenset(
            (u, v)
            for x, y in pattern_edges
            for u in blocks[x]
            for v in blocks[y]
        )
        inst = PsiInstance(h, pattern_edges, n, blocks, host)
        started = time.perf_counter()
        reduction = reduce_psi_to_dcmc(inst)
        elapsed = time.perf_counter() - started
        timing_ok = timing_ok and elapsed < 1.0  # pinned: < 1 s per instance
        params = reduction.params
        expected = 1 + h * (params.rho * (params.b + 1)) ** len(pattern_edges)
        fresh_ok = fresh_ok and reduction.dual.vertex_count == expected
        fresh_ok = fresh_ok and reduction.dual.p == len(host)

    ok = sizes_ok and timing_ok and fresh_ok
    announce(capsys, 1, ok, f"{len(gadget_family)} instances, exact sizes")
    assert sizes_ok
    assert timing_ok
    assert fresh_ok


def test_criterion_2_exhaustive_equivalence(capsys, gadget_family):
    disagreements = sum(1 for _, result, _ in gadget_family if not result["equiv_ok"])
    ok = disagreements == 0  # pinned: zero tolerance
    announce(
        capsys, 2, ok, f"{len(gadget_family)} instances, {disagreements} disagreements"
    )
    assert disagreements == 0


def test_criterion_3_structural_claims(capsys, gadget_family):
    keys = ("spanning_ok", "pairs_ok", "decode_ok", "forward_ok")
    failures = {
        key: sum(1 for _, result, _ in gadget_family if not result[key]) for key in keys
    }
    ok = all(v == 0 for v in failures.values())  # pinned: 100% pass
    announce(
        capsys,
        3,
        ok,
        "failures " + ", ".join(f"{k.removesuffix('_ok')}={v}" for k, v in failures.items()),
    )
    assert failures == {key: 0 for key in keys}


def test_criterion_4_embedding_success(capsys):
    result = verify_embedding(replace(CFG, trials=100, seed=0))
    fraction = result.metrics["fraction"]
    invalid = result.metrics["invalid"]
    ok = fraction >= 0.5 and invalid == 0  # pinned: >= 0.5, no invalid embeddings
    announce(capsys, 4, ok, f"success fraction {fraction:.2f}, invalid {invalid}")
    assert fraction >= 0.5
    assert invalid == 0


def test_criterion_5_flow_congestion(capsys):
    ratios = flow_congestion_ratios(CFG)
    worst = max(ratios.values())
    ok = worst <= CFG.c_hat <= 10.0  # pinned: global c-hat at most 10
    announce(
        capsys, 5, ok, f"worst ratio {worst:.3f}, c_hat {CFG.c_hat}"
    )
    assert set(ratios) == {4, 8, 16, 32}
    assert worst <= CFG.c_hat
    assert CFG.c_hat <= 10.0


def test_criterion_6_hit_probability(capsys):
    fractions = {
        ell: hit_overflow_fraction(CFG, ell, trials=200) for ell in (4, 8, 16, 32)
    }
    worst = max(fractions.values())
    ok = worst <= 0.1  # pinned: at most 0.1 over 200 trials
    announce(
        capsys, 6, ok, ", ".join(f"ell{e}={f:.3f}" for e, f in fractions.items())
    )
    assert worst <= 0.1


def test_criterion_7_expander_certificates(capsys):
    certs = expander_certificates(CFG, max_ell=16)
    target = Fraction(1, 10)
    exhaustive_ok = all(cert.method == "exhaustive" for cert in certs.values())
    expansion_ok = all(
        Fraction(cert.delta_hat) >= target for cert in certs.values()
    )
    sparsity_ok = True
    for ell in range(2, 13):  # exact sparsity enumeration is capped at 12 vertices
        cert = certs[ell]
        delta = Fraction(cert.delta_hat)
        bound = delta / (3 + delta) * Fraction(1, ell)
        if min_sparsity_exhaustive(cert.graph) < bound:  # exact, zero tolerance
            sparsity_ok = False
    ok = exhaustive_ok and expansion_ok and sparsity_ok
    announce(
        capsys,
        7,
        ok,
        f"min delta_hat {min(float(c.delta_hat) for c in certs.values()):.3f}",
    )
    assert exhaustive_ok
    assert expansion_ok
    assert sparsity_ok


def test_criterion_8_pipeline_equivalence(capsys, pipeline_family):
    rows, elapsed = pipeline_family
    disagreements = sum(1 for _, _, dual, sat, _ in rows if dual != sat)
    ok = disagreements == 0 and elapsed < 1800.0  # pinned: 100%, under 30 minutes
    announce(
        capsys, 8, ok, f"{len(rows)} formulas, {disagreements} disagreements, {elapsed:.0f}s"
    )
    assert len(rows) == 3046 + 100
    assert disagreements == 0
    assert elapsed < 1800.0


def test_criterion_9_determinism(capsys, gadget_family, pipeline_family):
    gadget_ok = all(
        reduction_digest(reduce_psi_to_dcmc(inst)) == digest
        for inst, _, digest in gadget_family
    )
    rows, _ = pipeline_family
    pipeline_ok = all(
        run_digest(sat_to_dcmc(formula, seed, CFG)) == digest
        for formula, seed, _, _, digest in rows
    )
    ok = gadget_ok and pipeline_ok
    announce(
        capsys,
        9,
        ok,
        f"{len(gadget_family)} reductions and {len(rows)} pipeline runs rehashed",
    )
    assert gadget_ok
    assert pipeline_ok
