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
from operator import itemgetter
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
    falsifies that literal". A formula with more than
    DEFAULT_GRAPH_VERTEX_CAP variables and clauses together raises
    CapExceeded before anything is built.
    """
    n = formula.variable_count
    if n + len(formula.clauses) > DEFAULT_GRAPH_VERTEX_CAP:
        raise CapExceeded(
            f"{n} variables and {len(formula.clauses)} clauses exceed the incidence"
            f" graph cap {DEFAULT_GRAPH_VERTEX_CAP}"
        )
    domains: list[tuple[Hashable, ...]] = [(False, True) for _ in range(n)]
    edges: list[tuple[int, int]] = []
    csp = BinaryCsp(domains)
    for j, clause in enumerate(formula.clauses):
        width = len(clause)
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


def _consistent_tuples(
    base: BinaryCsp,
    oriented: dict[tuple[int, int], frozenset],
    w: int,
    members: tuple[int, ...],
    cap: int,
) -> tuple[tuple, ...]:
    """The tuples of base values for members (one per member, in order) that
    meet every base constraint between two members, in the order of their
    product. oriented holds each constraint in both orientations.

    The tuples grow one member at a time: a value of the next member extends
    a partial tuple when it meets the constraints with every member already
    placed. Partial tuples that agree on those members get the same values,
    so each distinct combination is filtered once. Each layer is counted
    before it is built, and CapExceeded is raised instead of building one
    of more than cap tuples."""
    if not all(base.domains[v] for v in members):
        return ()
    layer: list[tuple] = [()]
    for i, v in enumerate(members):
        positions = [j for j, u in enumerate(members[:i]) if (u, v) in oriented]
        rels = [oriented[(members[j], v)] for j in positions]
        # a partial tuple's key is its values at positions: one value when
        # there is one position, a tuple otherwise
        keys = list(map(itemgetter(*positions), layer)) if positions else [()] * len(layer)
        extensions = {
            key: tuple(
                a
                for a in base.domains[v]
                if all((b, a) in rel for b, rel in zip((key,) if len(rels) == 1 else key, rels))
            )
            for key in set(keys)
        }
        values = [extensions[key] for key in keys]
        if sum(map(len, values)) > cap:
            raise CapExceeded(
                f"host vertex {w} would keep more than {cap} tuples"
                f" on its first {i + 1} of {len(members)} members"
            )
        layer = [t + (a,) for t, vals in zip(layer, values) for a in vals]
    return tuple(layer)


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

    Host vertex domains are products of the base domains mapped onto them,
    (1) restricted to the tuples that meet every base constraint between
    two of the vertex's variables; domain_cap bounds how many tuples each
    domain keeps while it is built (_consistent_tuples). Then each host
    edge gets one relation, drawn from these domains: (2) every variable whose
    branch set holds both ends agrees across the edge, and (3) every base
    constraint whose variables sit on the two ends holds, in either
    orientation. A host edge that carries none of these stays
    unconstrained. A host with more than DEFAULT_GRAPH_VERTEX_CAP
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
    # every base constraint in both orientations, and the identity relation
    # that a variable shared by two host vertices must meet
    oriented = dict(base.constraints)
    for (u, v), rel in base.constraints.items():
        oriented[(v, u)] = frozenset((b, a) for a, b in rel)
    for v in range(n_vars):
        oriented[(v, v)] = frozenset((a, a) for a in base.domains[v])
    routed = BinaryCsp(
        [_consistent_tuples(base, oriented, w, ms, domain_cap) for w, ms in enumerate(members)]
    )

    # (2) and (3): on each host edge, a shared variable must agree and a base
    # constraint must hold in whichever orientation its variables sit
    for w1, w2 in host.edges:
        conditions = [
            (p1, p2, oriented[(u, v)])
            for p1, u in enumerate(members[w1])
            for p2, v in enumerate(members[w2])
            if (u, v) in oriented
        ]
        if conditions:
            routed.constrain(
                w1,
                w2,
                (
                    (t1, t2)
                    for t1 in routed.domains[w1]
                    for t2 in routed.domains[w2]
                    if all((t1[p1], t2[p2]) in rel for p1, p2, rel in conditions)
                ),
            )

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
    domains = ctx.csp.domains
    h0 = host.vertex_count
    blocks = list(domains)
    pattern_edges = list(host.edges)
    if not pattern_edges or not is_connected(h0, pattern_edges):
        pattern_edges.extend((x, h0) for x in range(h0))
        blocks.append((UNIVERSAL,))
    h = len(blocks)
    size = max(1, max(len(vals) for vals in blocks))

    # value i of block w is host vertex w * size + i; w1 < w2 on every edge
    index = [{t: w * size + i for i, t in enumerate(vals)} for w, vals in enumerate(domains)]
    host_edges = set()
    for w1, w2 in host.edges:
        rel = ctx.csp.constraints.get((w1, w2))
        if rel is None:
            host_edges.update(itertools.product(index[w1].values(), index[w2].values()))
        else:
            host_edges.update((index[w1][t1], index[w2][t2]) for t1, t2 in rel)
    if h > h0:
        host_edges.update((a, h0 * size) for ids in index for a in ids.values())

    psi = PsiInstance(
        h,
        tuple(sorted(pattern_edges)),
        size,
        tuple(tuple(range(w * size, (w + 1) * size)) for w in range(h)),
        frozenset(host_edges),
    )
    codec = tuple(
        (w, vals[i] if i < len(vals) else _PaddingValue(w, i))
        for w, vals in enumerate(blocks)
        for i in range(size)
    )
    return psi, codec


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
    "PipelineRun",
    "RoutedCspContext",
    "UNIVERSAL",
    "csp_to_psi",
    "pipeline_budget",
    "route_csp",
    "sat_to_csp_g",
    "sat_to_dcmc",
]
