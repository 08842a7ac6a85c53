"""Verification suites and calibration runs.

Each suite re-derives a property the package is supposed to guarantee and
reports stable key=value metrics; the CLI exposes them under `verify` and
`calibrate`. The exhaustive family enumerators used by the acceptance tests
live here too so the tests and the CLI agree on what "exhaustive" means.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .embedding import (
    EmbeddingFailed,
    audit_congestion,
    build_expander,
    depth_bound,
    embed,
    expander_flow,
    sample_path_family,
    validate_embedding,
)
from .gadgets import HUB, WitnessDecodeError, decode_dual_witness, reduce_psi_to_dcmc
from .graphs import component_labels, random_max_degree3_graph
from .instances import (
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
from .pipeline import sat_to_dcmc


@dataclass
class SuiteResult:
    ok: bool
    lines: list[str]
    metrics: dict


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

# Connected labeled patterns with h <= 3 vertices and a <= 2 edges. The
# triangle (a = 3) and disconnected patterns fall outside the reduction's
# exhaustive regime.
EXHAUSTIVE_PATTERNS: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (2, ((0, 1),)),
    (3, ((0, 1), (0, 2))),
    (3, ((0, 1), (1, 2))),
    (3, ((0, 2), (1, 2))),
)


def exhaustive_gadget_family():
    """Every instance over the exhaustive patterns with block sizes 1 and 2
    and every subset of the admissible host edges (798 instances)."""
    for h, pattern_edges in EXHAUSTIVE_PATTERNS:
        for n in (1, 2):
            blocks = tuple(tuple(range(x * n, (x + 1) * n)) for x in range(h))
            possible: list[tuple[int, int]] = []
            for x, y in pattern_edges:
                for u in blocks[x]:
                    for v in blocks[y]:
                        possible.append((u, v) if u < v else (v, u))
            possible.sort()
            for mask in range(1 << len(possible)):
                host = frozenset(e for i, e in enumerate(possible) if (mask >> i) & 1)
                yield PsiInstance(h, pattern_edges, n, blocks, host)


def all_clauses(n_vars: int) -> list[tuple[int, ...]]:
    """Canonical clauses over 1..n_vars: 1 to 3 distinct variables in
    ascending order, each independently signed."""
    out: list[tuple[int, ...]] = []
    for width in (1, 2, 3):
        if width > n_vars:
            break
        for combo in itertools.combinations(range(1, n_vars + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                out.append(tuple(v * s for v, s in zip(combo, signs)))
    return out


def enumerate_formulas(max_vars: int, max_clauses: int):
    """Every formula with 1..max_vars variables and a set (no repeats) of
    1..max_clauses canonical clauses over them."""
    for n in range(1, max_vars + 1):
        clauses = all_clauses(n)
        for m in range(1, max_clauses + 1):
            for combo in itertools.combinations(clauses, m):
                yield CnfFormula(n, combo)


def random_formula(rng: random.Random, max_total: int = 8) -> CnfFormula:
    n = rng.randint(1, max_total - 1)
    m = rng.randint(1, max_total - n)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        variables = sorted(rng.sample(range(1, n + 1), width))
        clauses.append(tuple(v * rng.choice((1, -1)) for v in variables))
    return CnfFormula(n, tuple(clauses))


def random_cmc(rng: random.Random) -> ColoredMultigraph:
    n = rng.randint(3, 7)
    p = rng.randint(1, 5)
    m = rng.randint(p, p + 6)
    edges = []
    for i in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        color = i + 1 if i < p else rng.randint(1, p)
        edges.append((u, v, color))
    k = rng.randint(0, p)
    return ColoredMultigraph(n, tuple(edges), p, k).canonical()


# ---------------------------------------------------------------------------
# Duality suite
# ---------------------------------------------------------------------------


def verify_duality(cfg: RunConfig) -> SuiteResult:
    """Random colored multigraphs (cfg.trials of them, seeded by cfg.seed):
    primal and dual oracles must agree, both witnesses must check out, the
    round-trip must be the identity on canonical forms, and yes answers must
    be monotone in the budget."""
    rng = random.Random(cfg.seed)
    violations = 0
    checked = 0
    for _ in range(cfg.trials):
        g = random_cmc(rng)
        d = cmc_to_dual(g)
        primal = solve_cmc_bruteforce(g, cfg.cap_cmc_vertices)
        dual = solve_dual_bruteforce(d, cfg.cap_dual_combinations)
        checked += 1
        if primal.decision != dual.decision:
            violations += 1
            continue
        if dual_to_cmc(d) != g.canonical():
            violations += 1
            continue
        if primal.decision:
            side = primal.witness
            if not side or len(side) >= g.vertex_count or len(g.cut_colors(side)) > g.k:
                violations += 1
                continue
            selected = dual.witness
            if len(selected) != d.a or component_labels(d.vertex_count, d.union(selected))[0] < 2:
                violations += 1
                continue
        if g.k < g.p:
            relaxed = solve_cmc_bruteforce(replace(g, k=g.k + 1), cfg.cap_cmc_vertices)
            if primal.decision and not relaxed.decision:
                violations += 1
    ok = violations == 0
    lines = [
        f"duality_trials={checked}",
        f"duality_violations={violations}",
        f"duality_ok={int(ok)}",
    ]
    return SuiteResult(ok, lines, {"violations": violations, "trials": checked})


# ---------------------------------------------------------------------------
# Gadget suite
# ---------------------------------------------------------------------------


# unions whose component count and probe labels stay known, least recently
# used first out: a family pass leaves 62 (30 pairs and 32 forward selections
# over its 25 distinct color graphs)
_UNION_CACHE_SIZE = 256
_union_labels: OrderedDict[tuple, tuple[int, tuple[int, ...]]] = OrderedDict()


def _row_digests(dual: DualCmcInstance) -> list[bytes]:
    """A 16-byte blake2b digest of each color graph's rows. Every row lies in
    [0, W), so the rows are hashed in the narrowest of uint16, uint32 and
    int64 that holds W - 1: W and the digest fix the rows."""
    w = dual.vertex_count
    dtype = np.uint16 if w <= 1 << 16 else np.uint32 if w <= 1 << 32 else np.int64
    rows = np.ascontiguousarray(dual.edges, dtype=dtype)
    bounds = dual.offsets.tolist()
    return [
        hashlib.blake2b(rows[lo:hi], digest_size=16).digest()
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _label_unions(dual: DualCmcInstance, unions) -> list[tuple[int, tuple[int, ...]]]:
    """For each (selection, probes) in unions, the component count of the
    selection's union and the labels at its probe vertices.

    One labelling covers every union: union q sits on vertices q * W to
    q * W + W - 1, so its labels less q * W are its own labelling, where a
    component's label is its smallest vertex."""
    w = dual.vertex_count
    rows = np.concatenate([dual.union(sel) + q * w for q, (sel, _) in enumerate(unions)])
    labels = component_labels(len(unions) * w, rows)[1].reshape(-1, w)
    labels -= (np.arange(len(unions)) * w)[:, None]
    counts = np.count_nonzero(labels == np.arange(w), axis=1).tolist()
    return [
        (count, tuple(row[list(probes)].tolist()))
        for count, row, (_, probes) in zip(counts, labels, unions)
    ]


def check_gadget_instance(inst: PsiInstance, cfg: RunConfig) -> dict:
    """All per-instance gadget properties; returns flags plus the artifacts
    needed for determinism hashing.

    The pair check labels the union of every two gadgets for one pattern
    edge, and passes when each is connected. The forward check labels the
    union of the gadgets the PSI witness selects, and passes when the hub
    is apart from the selected images and those sit in one component. A
    union's component count and the labels at its probe vertices are kept
    in a memo of up to _UNION_CACHE_SIZE unions, least recently used first
    out, keyed by (W, the sorted digests of the selected color graphs'
    rows, the probe vertices). The key is the rows' content, not the
    colors they came from, so a dual whose rows differ from the reduction's
    is labelled afresh. The unions not in the memo share one labelling."""
    reduction = reduce_psi_to_dcmc(inst)
    params = reduction.params
    dual = reduction.dual
    span = params.rho * (params.b + 1)
    size_ok = (
        dual.vertex_count == 1 + params.h * span**params.a
        and dual.p == len(inst.host_edges)
        and dual.a == len(inst.pattern_edges)
    )

    spanning_ok = all(
        np.count_nonzero(np.bincount(edges.ravel(), minlength=dual.vertex_count))
        == dual.vertex_count
        for edges in dual.color_graphs
    )

    # any two distinct gadgets for the same pattern edge reconnect everything
    by_alpha: dict[int, list[int]] = {}
    for idx, (alpha, _, _) in enumerate(reduction.color_map, start=1):
        by_alpha.setdefault(alpha, []).append(idx)
    unions = [
        (pair, (HUB,)) for ids in by_alpha.values() for pair in itertools.combinations(ids, 2)
    ]
    pair_count = len(unions)
    psi_answer = solve_psi_bruteforce(inst, cfg.cap_psi_assignments)
    dual_answer = solve_dual_bruteforce(dual, cfg.cap_dual_combinations)
    equiv_ok = psi_answer.decision == dual_answer.decision

    decode_ok = True
    if dual_answer.decision:
        try:
            selection = decode_dual_witness(reduction, dual_answer.witness)
        except WitnessDecodeError:
            decode_ok = False
        else:
            decode_ok = psi_selection_ok(inst, selection)

    # the PSI witness's gadgets must cut the hub away from its images
    if psi_answer.decision:
        pick = psi_answer.witness
        index_of = {cm: i + 1 for i, cm in enumerate(reduction.color_map)}
        edges = enumerate(params.edge_order, start=1)
        selected = [index_of[(alpha, pick[x], pick[y])] for alpha, (x, y) in edges]
        hats = tuple(params.hat_vertex(x, pick[x]) for x in range(params.h))
        unions.append((selected, (HUB, *hats)))

    pairs_ok = forward_ok = True
    if unions:
        digests = _row_digests(dual)
        keys = [
            (dual.vertex_count, tuple(sorted(digests[i - 1] for i in sel)), probes)
            for sel, probes in unions
        ]
        known = {key: _union_labels[key] for key in keys if key in _union_labels}
        missing = {key: union for key, union in zip(keys, unions) if key not in known}
        if missing:
            known.update(zip(missing, _label_unions(dual, list(missing.values()))))
        for key in keys:
            _union_labels[key] = known[key]
            _union_labels.move_to_end(key)
        while len(_union_labels) > _UNION_CACHE_SIZE:
            _union_labels.popitem(last=False)
        pairs_ok = all(known[key][0] == 1 for key in keys[:pair_count])
        if psi_answer.decision:
            count, (hub, *images) = known[keys[-1]]
            # the selected images must sit together, away from the hub
            forward_ok = not (count < 2 or len(set(images)) != 1 or hub in images)

    return {
        "reduction": reduction,
        "size_ok": size_ok,
        "spanning_ok": spanning_ok,
        "pairs_ok": pairs_ok,
        "equiv_ok": equiv_ok,
        "decode_ok": decode_ok,
        "forward_ok": forward_ok,
        "psi_decision": psi_answer.decision,
        "dual_decision": dual_answer.decision,
    }


def verify_gadgets(cfg: RunConfig) -> SuiteResult:
    """Exhaustive gadget family: decision preservation plus the structural
    claims (spanning, pair reconnection, witness decoding both ways). A
    failed run also names the family index of its first failing instance
    and that instance's failed flags."""
    totals = {"instances": 0, "yes": 0}
    failures = {
        key: 0 for key in ("size", "spanning", "pairs", "equiv", "decode", "forward")
    }
    first_failure = None
    for index, inst in enumerate(exhaustive_gadget_family()):
        result = check_gadget_instance(inst, cfg)
        totals["instances"] += 1
        totals["yes"] += int(result["psi_decision"])
        failed = sorted(key for key in failures if not result[f"{key}_ok"])
        for key in failed:
            failures[key] += 1
        if failed and first_failure is None:
            first_failure = f"{index} {','.join(failed)}"
    ok = first_failure is None
    lines = [f"gadget_instances={totals['instances']}", f"gadget_yes={totals['yes']}"]
    lines.extend(f"gadget_{key}_failures={v}" for key, v in sorted(failures.items()))
    if first_failure is not None:
        lines.append(f"gadget_first_failure={first_failure}")
    lines.append(f"gadgets_ok={int(ok)}")
    return SuiteResult(ok, lines, {"totals": totals, "failures": failures})


# ---------------------------------------------------------------------------
# Embedding suite
# ---------------------------------------------------------------------------


def embedding_trial(cfg: RunConfig, trial_seed: int) -> dict:
    """One random embedding attempt in the calibrated regime: a random
    max-degree-3 graph with n+m in [50, 400] and k = ceil(sqrt(n+m))."""
    rng = random.Random(trial_seed)
    total = rng.randint(50, 400)
    m = int(total * rng.uniform(0.2, 0.58))
    n = total - m
    graph = random_max_degree3_graph(n, m, rng)
    k = math.isqrt(total - 1) + 1
    try:
        emb = embed(graph, k, trial_seed, cfg)
    except EmbeddingFailed as exc:
        return {"failed": True, "k": k, "depth": exc.depth, "bound": exc.bound, "valid": True}
    validate_embedding(emb, graph)
    audit = audit_congestion(emb)
    return {
        "failed": False,
        "k": k,
        "depth": emb.depth,
        "bound": None,
        "valid": audit.bounded,
        "embedding": emb,
        "graph": graph,
    }


def verify_embedding(cfg: RunConfig) -> SuiteResult:
    """Monte-Carlo depth bound over cfg.trials trials (success fraction must
    be at least 0.5) plus validity and audit checks on every produced
    embedding."""
    trials, seed = cfg.trials, cfg.seed
    successes = 0
    invalid = 0
    for i in range(trials):
        result = embedding_trial(cfg, seed * 100_003 + i)
        if not result["failed"]:
            successes += 1
            if not result["valid"]:
                invalid += 1
    fraction = successes / trials if trials else 0.0
    ok = fraction >= 0.5 and invalid == 0
    lines = [
        f"embedding_trials={trials}",
        f"embedding_successes={successes}",
        f"embedding_success_fraction={fraction:.3f}",
        f"embedding_invalid={invalid}",
        f"embedding_ok={int(ok)}",
    ]
    return SuiteResult(ok, lines, {"fraction": fraction, "invalid": invalid})


def flow_congestion_ratios(cfg: RunConfig, ells=(4, 8, 16, 32)) -> dict[int, float]:
    """Computed congestion divided by ell * ln(ell) per host size."""
    ratios = {}
    for ell in ells:
        _, flow = expander_flow(ell, cfg)
        ratios[ell] = flow.congestion / (ell * math.log(ell))
    return ratios


def hit_overflow_fraction(cfg: RunConfig, ell: int, trials: int = 200) -> float:
    """Fraction of trials (seeded by cfg.seed) in which some vertex collects
    more than 10 * c_hat * p * ln(ell) hits under the reference sampling
    process with p = 3 * (1 + n/ell) = 12 paths per vertex, taking n = 3 * ell."""
    p = 12
    threshold = 10 * cfg.c_hat * p * math.log(ell)
    _, flow = expander_flow(ell, cfg)
    bad = 0
    for i in range(trials):
        rng = random.Random(cfg.seed * 100_003 + 7 * ell + i)
        hits = sample_path_family(flow, p, rng)
        if max(hits) > threshold:
            bad += 1
    return bad / trials if trials else 0.0


def expander_certificates(cfg: RunConfig, max_ell: int = 16):
    """Exhaustively certified expanders for every ell up to max_ell."""
    exhaustive = replace(cfg, expander_exhaustive_cap=max(cfg.expander_exhaustive_cap, max_ell))
    return {ell: build_expander(ell, exhaustive) for ell in range(1, max_ell + 1)}


# ---------------------------------------------------------------------------
# Pipeline suite
# ---------------------------------------------------------------------------


def check_pipeline_formula(formula: CnfFormula, seed: int, cfg: RunConfig) -> dict:
    """Run the full chain and compare every stage's decision to the SAT
    oracle. Returns the run plus per-stage decisions."""
    run = sat_to_dcmc(formula, seed, cfg)
    sat = solve_sat_bruteforce(formula, cfg.cap_sat_variables).decision
    base = solve_csp_bruteforce(run.base_csp, cfg.cap_csp_assignments).decision
    routed = solve_csp_bruteforce(run.routed.csp, cfg.cap_csp_assignments).decision
    psi = solve_psi_bruteforce(run.psi, cfg.cap_psi_assignments).decision
    dual = solve_dual_bruteforce(run.reduction.dual, cfg.cap_dual_combinations).decision
    return {
        "run": run,
        "sat": sat,
        "stages": (base, routed, psi, dual),
        "ok": all(stage == sat for stage in (base, routed, psi, dual)),
    }


def verify_pipeline(cfg: RunConfig) -> SuiteResult:
    """Stage-by-stage decision preservation: exhaustive over all formulas
    with at most 2 variables and 2 clauses, plus cfg.trials random formulas
    (every run seeded by cfg.seed)."""
    seed = cfg.seed
    failures = 0
    checked = 0
    for formula in enumerate_formulas(2, 2):
        checked += 1
        if not check_pipeline_formula(formula, seed, cfg)["ok"]:
            failures += 1
    rng = random.Random(seed)
    for _ in range(cfg.trials):
        formula = random_formula(rng)
        checked += 1
        if not check_pipeline_formula(formula, seed, cfg)["ok"]:
            failures += 1
    ok = failures == 0
    lines = [
        f"pipeline_formulas={checked}",
        f"pipeline_failures={failures}",
        f"pipeline_ok={int(ok)}",
    ]
    return SuiteResult(ok, lines, {"failures": failures, "checked": checked})


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def calibrate(cfg: RunConfig) -> SuiteResult:
    """Measure the constants the defaults pin down.

    c_hat: max LP congestion ratio over ell in {4, 8, 16, 32}. delta_hat:
    the worst exhaustive expansion certificate up to 16 vertices. big_c:
    the depth ratio distribution of the embedding trial family (the pinned
    default should sit above the median with margin, keeping the success
    fraction comfortably over one half). Trials and seeds come from cfg.
    """
    lines: list[str] = []
    ratios = flow_congestion_ratios(cfg)
    for ell, ratio in sorted(ratios.items()):
        lines.append(f"congestion_ratio_ell{ell}={ratio:.4f}")
    observed_c = max(ratios.values())
    lines.append(f"c_hat_observed={observed_c:.4f}")
    lines.append(f"c_hat_default={cfg.c_hat}")

    worst = None
    for ell, cert in expander_certificates(cfg).items():
        if ell >= 2 and (worst is None or float(cert.delta_hat) < worst):
            worst = float(cert.delta_hat)
    lines.append(f"delta_hat_exhaustive_min={worst:.4f}")
    lines.append(f"delta_hat_target={cfg.expander_target}")

    unbounded = replace(cfg, big_c_hat=1e18)
    depth_ratios: list[float] = []
    for i in range(cfg.trials):
        result = embedding_trial(unbounded, cfg.seed * 100_003 + i)
        graph = result["graph"]
        unit = depth_bound(result["k"], graph.vertex_count, graph.edge_count, 1.0)
        depth_ratios.append(result["depth"] / unit)
    depth_ratios.sort()
    lines.append(f"depth_ratio_median={depth_ratios[len(depth_ratios) // 2]:.4f}")
    lines.append(f"depth_ratio_p90={depth_ratios[int(len(depth_ratios) * 0.9)]:.4f}")
    lines.append(f"depth_ratio_max={depth_ratios[-1]:.4f}")
    lines.append(f"big_c_hat_default={cfg.big_c_hat}")

    hit_fraction = hit_overflow_fraction(cfg, 8, trials=50)
    lines.append(f"hit_fraction_ell8={hit_fraction:.3f}")
    ok = observed_c <= cfg.c_hat <= 10.0
    lines.append(f"calibration_ok={int(ok)}")
    return SuiteResult(ok, lines, {"c_hat_observed": observed_c, "depth_ratios": depth_ratios})


__all__ = [
    "EXHAUSTIVE_PATTERNS",
    "SuiteResult",
    "all_clauses",
    "calibrate",
    "check_gadget_instance",
    "check_pipeline_formula",
    "hit_overflow_fraction",
    "embedding_trial",
    "enumerate_formulas",
    "exhaustive_gadget_family",
    "expander_certificates",
    "flow_congestion_ratios",
    "random_cmc",
    "random_formula",
    "verify_duality",
    "verify_embedding",
    "verify_gadgets",
    "verify_pipeline",
]
