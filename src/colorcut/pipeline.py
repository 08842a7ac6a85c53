"""End-to-end reduction chain: 3-CNF satisfiability to dual colored min-cut.

A formula becomes a binary CSP on its incidence graph, the incidence graph
is embedded into a small host, the CSP is routed along the branch sets into
product domains on the host, the routed CSP becomes a partitioned subgraph
isomorphism instance (connectivized and padded), and the gadget reduction
finishes the job. Every stage preserves the decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable

from .config import RunConfig
from .embedding import Embedding, InvalidEmbedding, check_branch_sets, embed_with_retry
from .gadgets import PsiReduction, reduce_psi_to_dcmc
from .graphs import Graph, is_connected
from .instances import (
    DEFAULT_ASSIGNMENT_CAP,
    DEFAULT_GRAPH_VERTEX_CAP,
    BinaryCsp,
    CapExceeded,
    CnfFormula,
    PsiInstance,
)


class MalformedClause(ValueError):
    """A clause is empty, too wide, or repeats a variable."""


class _UniversalValue:
    """Value of the connectivizing pattern vertex; compatible with every
    real value and never equal to one."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "universal"


UNIVERSAL = _UniversalValue()


@dataclass(frozen=True)
class _PaddingValue:
    """Inert block filler; participates in no host edge."""

    block: int
    index: int

    def __repr__(self) -> str:
        return f"pad{self.block}.{self.index}"


def sat_to_csp_g(formula: CnfFormula) -> tuple[BinaryCsp, Graph]:
    """Binary CSP on the incidence graph of the formula.

    Variable i lives on vertex i-1 with domain (False, True); clause j lives
    on vertex N+j with domain 1..len(clause) naming the satisfying literal
    position. The edge constraint for the i-th literal of a clause forbids
    exactly the combination "clause points at position i but the variable
    falsifies that literal".
    """
    n = formula.variable_count
    domains: list[tuple[Hashable, ...]] = [(False, True) for _ in range(n)]
    edges: list[tuple[int, int]] = []
    csp = BinaryCsp(domains)
    for j, clause in enumerate(formula.clauses):
        width = len(clause)
        if not 1 <= width <= 3 or len({abs(lit) for lit in clause}) != width:
            raise MalformedClause(f"clause {j + 1} is malformed: {clause}")
        clause_vertex = n + j
        csp.domains.append(tuple(range(1, width + 1)))
        for i, lit in enumerate(clause, start=1):
            var_vertex = abs(lit) - 1
            needed = lit > 0
            pairs = {(value, pos) for value in (False, True) for pos in range(1, width + 1) if pos != i}
            pairs.add((needed, i))
            csp.constrain(var_vertex, clause_vertex, pairs)
            edges.append((var_vertex, clause_vertex))
    graph = Graph.make(n + len(formula.clauses), edges)
    return csp, graph


@dataclass
class RoutedCspContext:
    """Routing of a base CSP along branch sets into product domains.

    members[w] lists the base variables whose branch sets contain host
    vertex w (ascending); the domain of w holds tuples aligned with that
    list. The routed CSP itself is in `csp`.
    """

    base: BinaryCsp
    host: Graph
    branch_sets: dict[int, frozenset[int]]
    members: tuple[tuple[int, ...], ...]
    csp: BinaryCsp


def route_csp(
    base: BinaryCsp,
    branch_sets: dict[int, frozenset[int]],
    host: Graph,
    domain_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> RoutedCspContext:
    """Route a CSP along an embedding of its constraint graph.

    Host vertex domains are products of the base domains mapped onto them.
    Three constraint families apply, in a fixed order: (1) every base
    constraint restricts the domain of every host vertex carrying both of
    its variables, (2) host edges inside one branch set force the shared
    variable to agree, (3) host edges between two branch sets enforce the
    base constraint on the pair. Relations are finally projected onto the
    restricted domains. A host with more than DEFAULT_GRAPH_VERTEX_CAP
    vertices raises CapExceeded before anything is built per vertex, and
    branch sets that do not embed the constraint graph raise
    InvalidEmbedding (embedding.check_branch_sets).
    """
    if host.vertex_count > DEFAULT_GRAPH_VERTEX_CAP:
        raise CapExceeded(
            f"host has {host.vertex_count} vertices (cap {DEFAULT_GRAPH_VERTEX_CAP})"
        )
    n_vars = base.variable_count
    check_branch_sets(host, branch_sets, n_vars, base.constraints)

    members = tuple(
        tuple(sorted(v for v in range(n_vars) if w in branch_sets[v]))
        for w in range(host.vertex_count)
    )
    position = [{v: i for i, v in enumerate(ms)} for ms in members]
    domains: list[tuple] = []
    for w in range(host.vertex_count):
        size = 1
        for v in members[w]:
            size *= len(base.domains[v])
        if size > domain_cap:
            raise CapExceeded(f"host vertex {w} would carry {size} tuples (cap {domain_cap})")
        domains.append(tuple(itertools.product(*(base.domains[v] for v in members[w]))))
    routed = BinaryCsp(domains)

    # (1) vertex touching: restrict shared-vertex domains
    for (u, v), rel in sorted(base.constraints.items()):
        for w in sorted(branch_sets[u] & branch_sets[v]):
            pu, pv = position[w][u], position[w][v]
            routed.domains[w] = tuple(
                t for t in routed.domains[w] if (t[pu], t[pv]) in rel
            )

    # (2) consistency along host edges inside one branch set
    for v in range(n_vars):
        bs = branch_sets[v]
        for w1, w2 in host.edges:
            if w1 in bs and w2 in bs:
                p1, p2 = position[w1][v], position[w2][v]
                pairs = {
                    (t1, t2)
                    for t1 in routed.domains[w1]
                    for t2 in routed.domains[w2]
                    if t1[p1] == t2[p2]
                }
                routed.constrain(w1, w2, pairs)

    # (3) edge touching: base constraints across host edges, both roles
    for (u, v), rel in sorted(base.constraints.items()):
        for w1, w2 in host.edges:
            for wu, wv in ((w1, w2), (w2, w1)):
                if wu in branch_sets[u] and wv in branch_sets[v]:
                    pu, pv = position[wu][u], position[wv][v]
                    pairs = {
                        (tu, tv)
                        for tu in routed.domains[wu]
                        for tv in routed.domains[wv]
                        if (tu[pu], tv[pv]) in rel
                    }
                    routed.constrain(wu, wv, pairs)

    routed.project_constraints()
    return RoutedCspContext(base, host, dict(branch_sets), members, routed)


def csp_to_psi(ctx: RoutedCspContext) -> tuple[PsiInstance, tuple[tuple[int, Hashable], ...]]:
    """Partitioned subgraph isomorphism from a routed CSP.

    Blocks are the host-vertex domains; a host edge between two values
    exists iff every routed constraint on that host pair admits the value
    pair (an unconstrained pair is fully adjacent). A disconnected or
    edgeless pattern gets a universal pattern vertex whose single real value
    is adjacent to every original value; only afterwards are all blocks
    padded to one common size with inert values, which never gain edges.

    Returns the instance plus a codec mapping each host-graph vertex id of
    the instance to its (pattern vertex, value) origin.
    """
    host = ctx.host
    routed = ctx.csp
    h0 = host.vertex_count
    block_values: list[list[Hashable]] = [list(routed.domains[w]) for w in range(h0)]
    pattern_edges: list[tuple[int, int]] = list(host.edges)
    value_edges: list[tuple[int, Hashable, int, Hashable]] = []
    for w1, w2 in host.edges:
        rel = routed.constraints.get((w1, w2))
        for t1 in block_values[w1]:
            for t2 in block_values[w2]:
                if rel is None or (t1, t2) in rel:
                    value_edges.append((w1, t1, w2, t2))

    h = h0
    if not pattern_edges or not is_connected(h0, pattern_edges):
        universal_vertex = h0
        h = h0 + 1
        pattern_edges.extend((x, universal_vertex) for x in range(h0))
        for w in range(h0):
            for t in block_values[w]:
                value_edges.append((w, t, universal_vertex, UNIVERSAL))
        block_values.append([UNIVERSAL])

    size = max(1, max(len(vals) for vals in block_values))
    for w, vals in enumerate(block_values):
        while len(vals) < size:
            vals.append(_PaddingValue(w, len(vals)))

    ids: dict[tuple[int, Hashable], int] = {}
    codec: list[tuple[int, Hashable]] = []
    for w, vals in enumerate(block_values):
        for t in vals:
            ids[(w, t)] = len(codec)
            codec.append((w, t))
    host_edges = set()
    for w1, t1, w2, t2 in value_edges:
        a, b = ids[(w1, t1)], ids[(w2, t2)]
        host_edges.add((a, b) if a < b else (b, a))
    psi = PsiInstance(
        h,
        tuple(sorted(pattern_edges)),
        size,
        tuple(tuple(range(w * size, (w + 1) * size)) for w in range(h)),
        frozenset(host_edges),
    )
    return psi, tuple(codec)


@dataclass
class PipelineRun:
    """Everything produced along one end-to-end reduction."""

    formula: CnfFormula
    k: int
    seed: int
    embed_seed: int
    base_csp: BinaryCsp
    incidence: Graph
    embedding: Embedding
    routed: RoutedCspContext
    psi: PsiInstance
    codec: tuple[tuple[int, Hashable], ...]
    reduction: PsiReduction
    report: tuple[tuple[str, str], ...]


def pipeline_budget(formula: CnfFormula) -> int:
    total = formula.variable_count + len(formula.clauses)
    return max(2, math.isqrt(total - 1) + 1 if total > 0 else 2)


def sat_to_dcmc(formula: CnfFormula, seed: int = 0, cfg: RunConfig = RunConfig()) -> PipelineRun:
    """Full chain with k = max(2, ceil(sqrt(N + M))), embedding under cfg
    and routing under cfg.cap_csp_assignments.

    The report is a stable tuple of key=value pairs; identical inputs and
    seeds reproduce identical artifacts byte for byte.
    """
    base, incidence = sat_to_csp_g(formula)
    k = pipeline_budget(formula)
    embedding, used_seed = embed_with_retry(incidence, k, seed, cfg)
    ctx = route_csp(base, embedding.branch_sets, embedding.host, cfg.cap_csp_assignments)
    psi, codec = csp_to_psi(ctx)
    reduction = reduce_psi_to_dcmc(psi)
    report = (
        ("variables", str(formula.variable_count)),
        ("clauses", str(len(formula.clauses))),
        ("k", str(k)),
        ("seed", str(seed)),
        ("embed_seed", str(used_seed)),
        ("host_vertices", str(embedding.host.vertex_count)),
        ("host_edges", str(embedding.host.edge_count)),
        ("embed_depth", str(embedding.depth)),
        ("max_routed_domain", str(max(len(d) for d in ctx.csp.domains) if ctx.csp.domains else 0)),
        ("pattern_vertices", str(psi.pattern_vertex_count)),
        ("pattern_edges", str(len(psi.pattern_edges))),
        ("block_size", str(psi.block_size)),
        ("connectivized", str(int(psi.pattern_vertex_count > embedding.host.vertex_count))),
        ("rho", str(reduction.params.rho)),
        ("b", str(reduction.params.b)),
        ("dual_vertices", str(reduction.dual.vertex_count)),
        ("dual_colors", str(reduction.dual.p)),
        ("dual_budget", str(reduction.dual.a)),
    )
    return PipelineRun(
        formula,
        k,
        seed,
        used_seed,
        base,
        incidence,
        embedding,
        ctx,
        psi,
        codec,
        reduction,
        report,
    )


__all__ = [
    "InvalidEmbedding",
    "MalformedClause",
    "PipelineRun",
    "RoutedCspContext",
    "UNIVERSAL",
    "csp_to_psi",
    "pipeline_budget",
    "route_csp",
    "sat_to_csp_g",
    "sat_to_dcmc",
]
