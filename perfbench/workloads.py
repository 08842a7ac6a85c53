"""The benchmark's workloads: input generators, ops, traced ops and checks.

Every workload is a closed loop of ops drawn from rounds; an op calls the
public functions of colorcut exactly as the matching CLI command does. The
traced form of an op calls the same stages one at a time, in the same order
and with the same arguments, inside spans; calls made only to split time
between layers are "reference" spans outside the op's root span.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from colorcut.config import RunConfig
from colorcut.embedding import (
    DEFAULT_BIG_C_HAT,
    DEFAULT_C_HAT,
    DEFAULT_EMBED_RETRIES,
    DEFAULT_EXPANSION_TARGET,
    EmbeddingFailed,
    ExpansionTargetUnmet,
    audit_congestion,
    build_expander,
    clear_flow_cache,
    depth_bound,
    embed,
    embed_with_retry,
    expander_flow,
    validate_embedding,
)
from colorcut.flows import Infeasible, min_congestion_flow
from colorcut.formats import parse_dcmc, write_dcmc, write_embedding, write_gadget_map
from colorcut.gadgets import WitnessDecodeError, decode_dual_witness, reduce_psi_to_dcmc
from colorcut.graphs import random_max_degree3_graph
from colorcut.instances import (
    CapExceeded,
    CnfFormula,
    psi_selection_ok,
    solve_dual_bruteforce,
    solve_psi_bruteforce,
    solve_sat_bruteforce,
)
from colorcut.pipeline import csp_to_psi, pipeline_budget, route_csp, sat_to_csp_g, sat_to_dcmc
from colorcut.verify import check_gadget_instance, exhaustive_gadget_family

# Exceptions an op may raise on valid input; each one counts as a failed op.
OP_ERRORS = (CapExceeded, EmbeddingFailed, ExpansionTargetUnmet, Infeasible)


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def _span(tracer, name: str, ref: bool = False):
    return nullcontext({}) if tracer is None else tracer.span(name, ref=ref)


def _sha256(*texts: str) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


def lex_rank(combo, p: int) -> int:
    """0-based rank of an ascending 1-based a-combination of 1..p in the
    lexicographic order itertools.combinations uses."""
    a = len(combo)
    rank = 0
    prev = 0
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += math.comb(p - j, a - i - 1)
        prev = c
    return rank


def traced_embed_with_retry(tracer, graph, k: int, seed: int):
    """embed_with_retry with its default arguments, one embed span per seed
    tried; returns (embedding, seed that worked)."""
    with tracer.span("embedding.embed_with_retry") as retry_span:
        for attempt in range(DEFAULT_EMBED_RETRIES):
            with tracer.span("embedding.embed") as embed_span:
                try:
                    emb = embed(graph, k, seed + attempt)
                except EmbeddingFailed as exc:
                    last = exc
                    continue
            bound = depth_bound(k, graph.vertex_count, graph.edge_count, DEFAULT_BIG_C_HAT)
            embed_span["depth_ratio"] = emb.depth / bound
            break
        else:
            retry_span["attempts"] = DEFAULT_EMBED_RETRIES
            raise last
    retry_span["attempts"] = attempt + 1
    return emb, seed + attempt


# ---------------------------------------------------------------------------
# sat-chain: reduce sat2dcmc, then solve dcmc
# ---------------------------------------------------------------------------


def random_3cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    """m clauses, each over 3 distinct variables of 1..n with random signs."""
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


def consistent_tuples(formula: CnfFormula) -> int:
    """Sum over satisfying assignments of the product, over clauses, of the
    number of true literals: the number of (assignment, satisfied-literal
    pointer) tuples. On a one-vertex host this is the routed domain size,
    which sets the PSI block size and so the size of the whole dual."""
    n = formula.variable_count
    values = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    product = np.ones(1 << n, dtype=np.int64)
    for clause in formula.clauses:
        true_literals = np.zeros(1 << n, dtype=np.int64)
        for lit in clause:
            true_literals += values[:, abs(lit) - 1] == (lit > 0)
        product *= true_literals
    return int(product.sum())


@dataclass(frozen=True)
class SatInput:
    formula: CnfFormula
    seed: int


@dataclass
class SatOutput:
    psi: object
    reduction: object
    dcmc_text: str
    gadget_map: str
    answer: object


class SatChain:
    name = "sat-chain"
    # Each round is one formula per (N = M, consistent tuples) rung. Fixing
    # the tuple count fixes the dual's size, so the rungs grade op cost over
    # about 7x (2e4 to 1.3e5 dual edges) in steps of about 1.3x, and runs on
    # different seeds do the same work. Unconditioned, the work of one N=M=6
    # formula ranges over 10x and can take 15 s and 0.9 GB. Fine steps keep
    # the median from jumping between rungs when the machine's speed drifts;
    # the top rung is doubled so that the tail percentile (ten ops beyond
    # it) stays on that rung.
    rungs = ((4, 54), (4, 68), (4, 86), (4, 106), (5, 120), (5, 132), (5, 144), (5, 144))
    pool_rounds = 10

    def __init__(self, rungs=None):
        if rungs is not None:
            self.rungs = rungs

    def rounds(self, seed: int) -> list[list[SatInput]]:
        rng = random.Random(f"sat-chain/{seed}")
        pool = []
        for _ in range(self.pool_rounds):
            row = []
            for n, tuples in self.rungs:
                while True:
                    formula = random_3cnf(rng, n, n)
                    if consistent_tuples(formula) == tuples:
                        break
                row.append(SatInput(formula, rng.randrange(1000)))
            pool.append(row)
        return pool

    def op(self, inp: SatInput) -> SatOutput:
        run = sat_to_dcmc(inp.formula, inp.seed)
        text = write_dcmc(run.reduction.dual)
        gadget_map = write_gadget_map(run.reduction.color_map)
        answer = solve_dual_bruteforce(parse_dcmc(text))
        return SatOutput(run.psi, run.reduction, text, gadget_map, answer)

    def traced_op(self, inp: SatInput, tracer) -> SatOutput:
        # sat_to_dcmc's stages, in its order and with its default arguments
        with tracer.span("pipeline.sat_to_csp_g"):
            base, incidence = sat_to_csp_g(inp.formula)
        k = pipeline_budget(inp.formula)
        emb, _ = traced_embed_with_retry(tracer, incidence, k, inp.seed)
        with tracer.span("pipeline.route_csp") as span:
            ctx = route_csp(base, emb.branch_sets, emb.host)
        raw = sum(
            math.prod(len(base.domains[v]) for v in members) for members in ctx.members
        )
        span["kept_ratio"] = sum(len(d) for d in ctx.csp.domains) / raw
        with tracer.span("pipeline.csp_to_psi") as span:
            psi, _ = csp_to_psi(ctx)
        span["host_edges_out"] = len(psi.host_edges)
        with tracer.span("gadgets.reduce_psi_to_dcmc") as span:
            reduction = reduce_psi_to_dcmc(psi)
        span["edges_out"] = sum(len(g) for g in reduction.dual.color_graphs)
        with tracer.span("formats.write_dcmc") as span:
            text = write_dcmc(reduction.dual)
        span["bytes_out"] = len(text)
        with tracer.span("formats.write_gadget_map"):
            gadget_map = write_gadget_map(reduction.color_map)
        with tracer.span("formats.parse_dcmc"):
            dual = parse_dcmc(text)
        with tracer.span("instances.solve_dual_bruteforce") as span:
            answer = solve_dual_bruteforce(dual)
        span.update(dual_combos(dual, answer))
        return SatOutput(psi, reduction, text, gadget_map, answer)

    def references(self, inp: SatInput, out: SatOutput, tracer) -> None:
        pass

    def check(self, inp: SatInput, out: SatOutput, tracer=None) -> None:
        with _span(tracer, "instances.solve_sat_bruteforce", ref=True):
            expected = solve_sat_bruteforce(inp.formula).decision
        if out.answer.decision != expected:
            raise CheckFailed(f"wrong decision: dual {out.answer.decision}, SAT oracle {expected}")
        if out.answer.decision:
            try:
                with _span(tracer, "gadgets.decode_dual_witness", ref=True):
                    pick = decode_dual_witness(out.reduction, out.answer.witness)
            except WitnessDecodeError as exc:
                raise CheckFailed(f"dual witness does not decode: {exc}") from exc
            if not psi_selection_ok(out.psi, pick):
                raise CheckFailed("decoded dual witness is not a valid PSI pick")

    def digest(self, out: SatOutput) -> str:
        return _sha256(out.dcmc_text, out.gadget_map)


def dual_combos(dual, answer) -> dict:
    total = math.comb(dual.p, dual.a)
    tried = lex_rank(answer.witness, dual.p) + 1 if answer.decision else total
    return {"combos_tried": tried, "combos_total": total}


# ---------------------------------------------------------------------------
# gadget-family: verify gadgets, one instance per op
# ---------------------------------------------------------------------------


class GadgetFamily:
    name = "gadget-family"
    config = RunConfig()

    def __init__(self, limit: int | None = None):
        self.limit = limit

    def rounds(self, seed: int) -> list[list]:
        # the family is fixed; the seed orders it, and each pass reshuffles
        family = list(itertools.islice(exhaustive_gadget_family(), self.limit))
        rng = random.Random(f"gadget-family/{seed}")
        pool = []
        for _ in range(8):
            rng.shuffle(family)
            pool.extend([inst] for inst in family)
        return pool

    def op(self, inst) -> dict:
        return check_gadget_instance(inst, self.config)

    def traced_op(self, inst, tracer) -> dict:
        with tracer.span("verify.check_gadget_instance"):
            return check_gadget_instance(inst, self.config)

    def references(self, inst, out: dict, tracer) -> None:
        # the public calls check_gadget_instance makes, made separately so its
        # own share (the pair and forward checks) can be told apart
        with tracer.span("gadgets.reduce_psi_to_dcmc", ref=True) as span:
            reduction = reduce_psi_to_dcmc(inst)
        span["edges_out"] = sum(len(g) for g in reduction.dual.color_graphs)
        with tracer.span("instances.solve_psi_bruteforce", ref=True):
            solve_psi_bruteforce(inst, self.config.cap_psi_assignments)
        with tracer.span("instances.solve_dual_bruteforce", ref=True) as span:
            answer = solve_dual_bruteforce(reduction.dual, self.config.cap_dual_combinations)
        span.update(dual_combos(reduction.dual, answer))
        if answer.decision:
            with tracer.span("gadgets.decode_dual_witness", ref=True):
                decode_dual_witness(reduction, answer.witness)

    def check(self, inst, out: dict, tracer=None) -> None:
        if not out["equiv_ok"]:
            raise CheckFailed(
                f"wrong decision: PSI {out['psi_decision']}, dual {out['dual_decision']}"
            )
        bad = [key for key in ("size", "spanning", "pairs", "decode", "forward") if not out[f"{key}_ok"]]
        if bad:
            raise CheckFailed(f"gadget checks failed: {', '.join(bad)}")

    def digest(self, out: dict) -> None:
        return None


# ---------------------------------------------------------------------------
# host-lp: one cold `colorcut embed` per op
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostInput:
    graph: object
    k: int
    seed: int


class HostLp:
    name = "host-lp"
    # One op per budget in each round: ell = k // 4 runs from 17 to 21, where
    # the flow LP is about 99% of the op and its cost grows about 1.4x per
    # step. Each graph has n = m = k, so the graph (n + m = 2k, no degree
    # above 3) exceeds k and the op must build the certified expander and
    # solve its LP. The top budget is doubled so that the tail percentile
    # stays on it.
    budgets = (68, 72, 76, 80, 84, 84)
    pool_rounds = 16

    def __init__(self, budgets=None):
        if budgets is not None:
            self.budgets = budgets

    def rounds(self, seed: int) -> list[list[HostInput]]:
        rng = random.Random(f"host-lp/{seed}")
        return [
            [HostInput(random_max_degree3_graph(k, k, rng), k, rng.randrange(1000)) for k in self.budgets]
            for _ in range(self.pool_rounds)
        ]

    def op(self, inp: HostInput):
        clear_flow_cache()
        return embed_with_retry(inp.graph, inp.k, inp.seed)

    def traced_op(self, inp: HostInput, tracer):
        # embed_with_retry's work one stage at a time: the cold expander and
        # LP (expander_flow fills the flow cache), then warm path sampling
        clear_flow_cache()
        with tracer.span("embedding.expander_flow"):
            expander_flow(inp.k // 4)
        return traced_embed_with_retry(tracer, inp.graph, inp.k, inp.seed)

    def references(self, inp: HostInput, out, tracer) -> None:
        ell = inp.k // 4
        with tracer.span("embedding.build_expander", ref=True):
            cert = build_expander(ell)
        with tracer.span("flows.min_congestion_flow", ref=True) as span:
            flow = min_congestion_flow(cert.graph)
        # variables of the pairwise LP as built today, computed here
        span["lp_vars"] = ell * (ell - 1) // 2 * 2 * cert.graph.edge_count + 1
        span["congestion_ratio"] = flow.congestion / (ell * math.log(ell))

    def check(self, inp: HostInput, out, tracer=None) -> None:
        emb, _ = out
        ell = inp.k // 4
        try:
            validate_embedding(emb, inp.graph)
        except ValueError as exc:
            raise CheckFailed(f"invalid embedding: {exc}") from exc
        if not audit_congestion(emb).bounded:
            raise CheckFailed("congestion audit is not bounded")
        cert, flow = expander_flow(ell)  # a cache hit right after the op
        if not (
            emb.draws
            and emb.ell == ell
            and emb.host == cert.graph
            and cert.graph.vertex_count == ell
            and float(cert.delta_hat) >= DEFAULT_EXPANSION_TARGET
        ):
            raise CheckFailed(f"host is not the certified {ell}-vertex expander")
        if flow.congestion / (ell * math.log(ell)) > DEFAULT_C_HAT:
            raise CheckFailed("flow congestion ratio exceeds c_hat")

    def digest(self, out) -> str:
        emb, used_seed = out
        return _sha256(write_embedding(emb), str(used_seed))


WORKLOADS = {w.name: w for w in (SatChain, GadgetFamily, HostLp)}
