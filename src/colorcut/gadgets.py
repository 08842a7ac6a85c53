"""Reduction from partitioned subgraph isomorphism to dual colored min-cut.

Each host edge becomes one color graph built from finite-field data: a
selection edge between the two encoded endpoints, hub edges to the rest of
their encoded blocks, and arithmetic padding stars whose shifts depend on
the selected endpoints. Two different gadgets for the same pattern edge
always reconnect everything; picking one gadget per pattern edge with
consistent endpoints is the only way to disconnect the hub from the encoded
selection.

Vertices of the output are integers: 0 is the hub; the vertex of block z
with per-coordinate digits d_1..d_a (digit = residue * (b+1) + tier) is
1 + z*(rho*(b+1))^a + sum_i d_i * (rho*(b+1))^(i-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import is_connected
from .instances import DualCmcInstance, PsiInstance

HUB = 0


class PatternDisconnected(Exception):
    """The pattern graph must be connected, with at least one edge."""


class NoPrimeInRange(Exception):
    """No usable prime in the sizing interval."""


class WitnessDecodeError(Exception):
    """A color selection does not decode to one host vertex per block."""


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    d = 3
    while d * d <= x:
        if x % d == 0:
            return False
        d += 2
    return True


def _ceil_root(n: int, a: int) -> int:
    """Smallest r >= 1 with r^a >= n."""
    if n <= 1:
        return 1
    r = max(1, round(n ** (1.0 / a)))
    while r**a < n:
        r += 1
    while r >= 2 and (r - 1) ** a >= n:
        r -= 1
    return r


def choose_prime(n: int, a: int) -> int:
    """Smallest prime rho with ceil(n^(1/a)) < rho <= 2*ceil(n^(1/a)).

    The interval always holds a prime (Bertrand), and the choice guarantees
    (rho-1)^a >= n and rho^(2a) >= n^2; both are re-checked before return.
    """
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    base = _ceil_root(n, a)
    for cand in range(base + 1, 2 * base + 1):
        if _is_prime(cand):
            if (cand - 1) ** a < n or cand ** (2 * a) < n * n:
                raise NoPrimeInRange(f"prime {cand} fails the sizing inequalities for n={n}, a={a}")
            return cand
    raise NoPrimeInRange(f"no prime in ({base}, {2 * base}]")


def _index_to_vector(i: int, rho: int, a: int) -> tuple[int, ...]:
    """i-th tuple of {1..rho-1}^a in lexicographic order, most significant
    coordinate first."""
    digits = []
    for _ in range(a):
        digits.append(i % (rho - 1) + 1)
        i //= rho - 1
    return tuple(reversed(digits))


def build_f_maps(inst: PsiInstance, rho: int) -> tuple[dict[int, tuple[int, ...]], ...]:
    """Per-block injections into nonzero field vectors of length a, assigned
    in lexicographic target order along each block's ascending vertices."""
    a = len(inst.pattern_edges)
    if (rho - 1) ** a < inst.block_size:
        raise ValueError(f"(rho-1)^a = {(rho - 1) ** a} cannot cover {inst.block_size} vertices")
    maps = []
    for block in inst.blocks:
        maps.append({v: _index_to_vector(i, rho, a) for i, v in enumerate(block)})
    return tuple(maps)


@dataclass(frozen=True)
class GadgetParams:
    """Sizing and field data shared by every gadget of one reduction."""

    rho: int
    a: int
    b: int
    h: int
    n: int
    edge_order: tuple[tuple[int, int], ...]
    f_maps: tuple[dict[int, tuple[int, ...]], ...]

    @property
    def base(self) -> int:
        return self.rho * (self.b + 1)

    @property
    def block_span(self) -> int:
        return self.base**self.a

    @property
    def vertex_count(self) -> int:
        return 1 + self.h * self.block_span

    def digit(self, residue: int, tier: int) -> int:
        return residue * (self.b + 1) + tier

    def coord_vertex(self, z: int, digits) -> int:
        acc = 0
        for i, d in enumerate(digits):
            acc += d * self.base**i
        return 1 + z * self.block_span + acc

    def hat_vertex(self, x: int, host_vertex: int) -> int:
        """Encoded image of a host vertex: all tiers zero."""
        vec = self.f_maps[x][host_vertex]
        return self.coord_vertex(x, [self.digit(r, 0) for r in vec])

    @cached_property
    def hat_blocks(self) -> tuple[tuple[int, ...], ...]:
        """All-tier-zero vertices of each block (rho^a per block), ascending."""
        offsets = [0]
        for i in range(self.a):
            weight = (self.b + 1) * self.base**i
            offsets = [off + r * weight for r in range(self.rho) for off in offsets]
        return tuple(
            tuple(1 + x * self.block_span + off for off in offsets) for x in range(self.h)
        )

    def g_vector(self, alpha: int, v_x: int, v_y: int) -> tuple[int, ...]:
        """Combined field vector (length b) of a selected host edge."""
        x, y = self.edge_order[alpha - 1]
        return self.f_maps[x][v_x] + self.f_maps[y][v_y]


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_a_edges(alpha: int, v_x: int, v_y: int, params: GadgetParams) -> set[tuple[int, int]]:
    """Selection edge between the two encoded endpoints plus hub edges to
    every other all-tier-zero vertex of the two touched blocks."""
    x, y = params.edge_order[alpha - 1]
    ex = params.hat_vertex(x, v_x)
    ey = params.hat_vertex(y, v_y)
    edges = {_norm(ex, ey)}
    for z in (x, y):
        edges.update((HUB, w) for w in params.hat_blocks[z] if w != ex and w != ey)
    return edges


def _free_offsets(params: GadgetParams, alpha: int):
    """Encoded offsets of every setting of the coordinates other than alpha."""
    weights = [params.base**i for i in range(params.a) if i != alpha - 1]
    offsets = [0]
    for wt in weights:
        offsets = [off + d * wt for off in offsets for d in range(params.base)]
    return offsets


def build_padding(
    alpha: int, v_x: int, v_y: int, z: int, params: GadgetParams
) -> set[tuple[int, int]]:
    """Arithmetic padding inside block z for one selected host edge.

    For every setting of the non-alpha coordinates: a hub edge at the
    alpha-digit (0, 0), and for each residue r a star from center (r, 0) to
    ((r + g_i) mod rho, i) for every position i of the combined vector. The
    stars are built once as offsets from the anchor, then shifted to each
    anchor.
    """
    g = params.g_vector(alpha, v_x, v_y)
    tier_weight = params.base ** (alpha - 1)
    residue_weight = (params.b + 1) * tier_weight
    rho = params.rho
    tiers = [(gi, i * tier_weight) for i, gi in enumerate(g, 1)]
    star = []
    for r in range(rho):
        center = r * residue_weight
        for gi, tier in tiers:
            leaf = (r + gi) % rho * residue_weight + tier
            star.append((center, leaf) if center < leaf else (leaf, center))
    block_base = 1 + z * params.block_span
    edges = set()
    for rest in _free_offsets(params, alpha):
        anchor = block_base + rest
        edges.add((HUB, anchor))
        edges.update([(anchor + c, anchor + leaf) for c, leaf in star])
    return edges


@dataclass(frozen=True)
class Gadget:
    alpha: int
    host_edge: tuple[int, int]
    edges: frozenset[tuple[int, int]]


def build_gadget(alpha: int, v_x: int, v_y: int, params: GadgetParams) -> Gadget:
    edges = build_a_edges(alpha, v_x, v_y, params)
    for z in range(params.h):
        edges |= build_padding(alpha, v_x, v_y, z, params)
    return Gadget(alpha, (v_x, v_y), frozenset(edges))


@dataclass(frozen=True)
class PsiReduction:
    """Reduction output: the dual instance, the shared gadget parameters,
    and per-color provenance (alpha, v_x, v_y)."""

    dual: DualCmcInstance
    params: GadgetParams
    color_map: tuple[tuple[int, int, int], ...]


def reduce_psi_to_dcmc(inst: PsiInstance) -> PsiReduction:
    """One color graph per host edge, selection budget a = |E(H)|.

    The output vertex set has exactly 1 + h*(rho*(b+1))^a vertices and the
    number of color graphs equals the number of host edges. Requires a
    connected pattern with at least one edge (connectivize first otherwise).
    """
    h = inst.pattern_vertex_count
    a = len(inst.pattern_edges)
    if a == 0 or not is_connected(h, inst.pattern_edges):
        raise PatternDisconnected("pattern must be connected with at least one edge")
    rho = choose_prime(inst.block_size, a)
    params = GadgetParams(
        rho=rho,
        a=a,
        b=2 * a,
        h=h,
        n=inst.block_size,
        edge_order=tuple(sorted(inst.pattern_edges)),
        f_maps=build_f_maps(inst, rho),
    )
    block_of = inst.block_assignment()
    alpha_of = {edge: i + 1 for i, edge in enumerate(params.edge_order)}
    colors = []
    for u, v in sorted(inst.host_edges):
        bu, bv = block_of[u], block_of[v]
        if bu < bv:
            x, v_x, v_y = bu, u, v
        else:
            x, v_x, v_y = bv, v, u
        colors.append((alpha_of[(x, max(bu, bv))], v_x, v_y))
    colors.sort()
    graphs = tuple(build_gadget(al, vx, vy, params).edges for al, vx, vy in colors)
    dual = DualCmcInstance(params.vertex_count, graphs, a)
    return PsiReduction(dual, params, tuple(colors))


def connectivize_pattern(inst: PsiInstance) -> PsiInstance:
    """Identity for connected patterns with at least one edge. Otherwise add
    a pattern vertex adjacent to every other, realized by one host vertex
    adjacent to every original host vertex; its block is padded to size n
    with fresh isolated host vertices, which keeps the decision unchanged.
    """
    h = inst.pattern_vertex_count
    if inst.pattern_edges and is_connected(h, inst.pattern_edges):
        return inst
    n = inst.block_size
    hub_host = h * n
    new_block = tuple(range(hub_host, hub_host + n))
    pattern_edges = tuple(sorted(inst.pattern_edges) + [(x, h) for x in range(h)])
    host_edges = set(inst.host_edges)
    host_edges.update((v, hub_host) for v in range(h * n))
    return PsiInstance(
        h + 1,
        pattern_edges,
        n,
        inst.blocks + (new_block,),
        frozenset(host_edges),
    )


def decode_dual_witness(reduction: PsiReduction, witness) -> tuple[int, ...]:
    """Map a disconnecting color selection back to one host vertex per block.

    Raises WitnessDecodeError unless the selection covers each pattern edge
    exactly once with block-consistent endpoints.
    """
    params = reduction.params
    chosen = [reduction.color_map[i - 1] for i in witness]
    if sorted(c[0] for c in chosen) != list(range(1, params.a + 1)):
        raise WitnessDecodeError("selection does not cover each pattern edge exactly once")
    pick: dict[int, int] = {}
    for alpha, v_x, v_y in chosen:
        x, y = params.edge_order[alpha - 1]
        for blk, v in ((x, v_x), (y, v_y)):
            if pick.setdefault(blk, v) != v:
                raise WitnessDecodeError(f"block {blk} receives two different vertices")
    if len(pick) != params.h:
        raise WitnessDecodeError("selection leaves some block unassigned")
    return tuple(pick[x] for x in range(params.h))


__all__ = [
    "HUB",
    "Gadget",
    "GadgetParams",
    "NoPrimeInRange",
    "PatternDisconnected",
    "PsiReduction",
    "WitnessDecodeError",
    "build_a_edges",
    "build_f_maps",
    "build_gadget",
    "build_padding",
    "choose_prime",
    "connectivize_pattern",
    "decode_dual_witness",
    "reduce_psi_to_dcmc",
]
