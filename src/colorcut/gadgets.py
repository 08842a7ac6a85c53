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
from functools import lru_cache

import numpy as np

from .graphs import is_connected
from .instances import CapExceeded, DualCmcInstance, PsiInstance

HUB = 0
# rows (before repeats are dropped) that the color graphs of one reduction
# may hold together: 4x the largest dual the test and benchmark suites build
DEFAULT_DUAL_ROW_CAP = 2 * 10**6
# (rho, a, b, h) keys whose gadget layouts stay built: the exhaustive gadget
# family has 4 and the sat-chain benchmark rungs 7
_LAYOUT_CACHE_SIZE = 16


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

    def hat_vertex(self, x: int, host_vertex: int) -> int:
        """Encoded image of a host vertex: the hat of block x at the rank
        sum_i r_i * rho^i of its field vector r."""
        rank = sum(r * self.rho**i for i, r in enumerate(self.f_maps[x][host_vertex]))
        return int(self.hat_blocks[x, rank])

    @property
    def hat_blocks(self) -> np.ndarray:
        """All-tier-zero vertices of each block: row x holds block x's rho^a
        vertices, ascending, so the hat with residues r_1..r_a sits at rank
        sum_i r_i * rho^(i-1)."""
        return _layout(self.rho, self.a, self.b, self.h)[0]

    @property
    def anchors(self) -> np.ndarray:
        """Row alpha - 1 holds the padding anchors of pattern edge alpha: in
        every block, each setting of the coordinates other than alpha, with
        alpha's digit at (0, 0)."""
        return _layout(self.rho, self.a, self.b, self.h)[1]

    @property
    def rows_per_color(self) -> int:
        """Rows of one color graph before repeats are dropped: the selection
        edge, 2 rho^a - 2 hub edges to hats, and per anchor one hub edge and
        a star of rho * b edges."""
        anchors = self.h * self.base ** (self.a - 1)
        return 1 + 2 * self.rho**self.a - 2 + anchors * (1 + self.rho * self.b)

    def g_vector(self, alpha: int, v_x: int, v_y: int) -> tuple[int, ...]:
        """Combined field vector (length b) of a selected host edge."""
        x, y = self.edge_order[alpha - 1]
        return self.f_maps[x][v_x] + self.f_maps[y][v_y]


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(rho: int, a: int, b: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """GadgetParams.hat_blocks and GadgetParams.anchors, read-only. They
    depend on (rho, a, b, h) alone, which few reductions tell apart."""
    base = rho * (b + 1)
    starts = 1 + np.arange(h, dtype=np.int64)[:, None] * base**a
    hats = np.zeros(1, dtype=np.int64)
    for i in range(a):
        hats = (np.arange(rho, dtype=np.int64)[:, None] * ((b + 1) * base**i) + hats).ravel()
    digits = np.arange(base, dtype=np.int64)
    anchors = []
    for alpha in range(1, a + 1):
        # every setting of the coordinates other than alpha
        free = np.zeros(1, dtype=np.int64)
        for i in range(a):
            if i != alpha - 1:
                free = (free[:, None] + digits * base**i).ravel()
        anchors.append((starts + free).ravel())
    layout = starts + hats, np.array(anchors)
    for array in layout:
        array.flags.writeable = False
    return layout


def build_gadgets(colors, params: GadgetParams) -> tuple[np.ndarray, np.ndarray]:
    """The color graphs of the host edges colors[i] = (alpha, v_x, v_y), all
    at once: (edges, offsets), where color i's rows are edges[offsets[i]:
    offsets[i + 1]], sorted, without repeats and with u < v.

    Each color graph is the union of
    - the selection edge between the encoded endpoints e_x and e_y;
    - hub edges to every other all-tier-zero vertex of blocks x and y;
    - arithmetic padding: for every setting of the non-alpha coordinates
      (an anchor), a hub edge at the alpha-digit (0, 0), and for each
      residue r a star from center (r, 0) to ((r + g_i) mod rho, i) for
      every position i of the combined vector g of the selected endpoints.

    Every color has params.rows_per_color rows before repeats are dropped,
    so the keys u * N + v of all colors form one (colors, rows) array that
    is sorted row by row. Raises CapExceeded when the colors hold more than
    DEFAULT_DUAL_ROW_CAP rows in all, before anything is allocated.
    """
    p = len(colors)
    rows = p * params.rows_per_color
    if rows > DEFAULT_DUAL_ROW_CAP:
        raise CapExceeded(f"{rows} gadget rows exceed the dual cap {DEFAULT_DUAL_ROW_CAP}")
    if p == 0:
        return np.empty((0, 2), dtype=np.int64), np.zeros(1, dtype=np.int64)
    # N = 1 + anchors * rho * (b + 1) < 2 * rows_per_color <= 2 * rows, so
    # under the cap every key u * N + v fits in int64
    n, rho, a, b = params.vertex_count, params.rho, params.a, params.b
    # one row per color: alpha, its pattern edge (x, y), the combined field
    # vector g
    table = np.array(
        [(c[0], *params.edge_order[c[0] - 1], *params.g_vector(*c)) for c in colors],
        dtype=np.int64,
    )
    alpha, g = table[:, 0], table[:, 3:]

    # the selection edge and the hub edges to the other hats of blocks x, y
    hats = params.hat_blocks[table[:, 1:3]]  # (p, 2, rho^a)
    # an endpoint's image is the hat at the rank of its field vector
    ranks = g.reshape(p, 2, a) @ rho ** np.arange(a)
    ends = hats[np.arange(p)[:, None], np.arange(2), ranks]
    hubs = hats[hats != ends[:, :, None]].reshape(p, -1)

    # the padding stars as (lo, hi) offsets from their anchor
    tier_weight = (params.base ** (alpha - 1))[:, None, None]
    residue_weight = (b + 1) * tier_weight
    r = np.arange(rho)[:, None]
    center = r * residue_weight
    leaf = (r + g[:, None, :]) % rho * residue_weight + np.arange(1, b + 1) * tier_weight
    star = np.minimum(center, leaf) * n + np.maximum(center, leaf)
    anchors = params.anchors[alpha - 1]  # (p, k)

    k, m = anchors.shape[1], hubs.shape[1]
    keys = np.empty((p, params.rows_per_color), dtype=np.int64)
    keys[:, 0] = ends[:, 0] * n + ends[:, 1]  # block x precedes block y
    keys[:, 1 : 1 + m] = hubs  # a hub edge (0, w) has key w
    keys[:, 1 + m : 1 + m + k] = anchors
    # an anchored star edge (A + lo, A + hi) has key A * (n + 1) + lo * n + hi
    np.add(
        (anchors * (n + 1))[:, :, None],
        star.reshape(p, 1, -1),
        out=keys[:, 1 + m + k :].reshape(p, k, -1),
    )
    keys.sort(axis=1)
    first = np.empty(keys.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=first[:, 1:])
    offsets = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(first.sum(axis=1), out=offsets[1:])
    keys = keys[first]
    edges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    return edges, offsets


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
    Raises CapExceeded when the color graphs would hold more than
    DEFAULT_DUAL_ROW_CAP rows (build_gadgets).
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
    edges, offsets = build_gadgets(colors, params)
    dual = DualCmcInstance.from_rows(params.vertex_count, edges, offsets, a)
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
    "DEFAULT_DUAL_ROW_CAP",
    "HUB",
    "GadgetParams",
    "NoPrimeInRange",
    "PatternDisconnected",
    "PsiReduction",
    "WitnessDecodeError",
    "build_f_maps",
    "build_gadgets",
    "choose_prime",
    "connectivize_pattern",
    "decode_dual_witness",
    "reduce_psi_to_dcmc",
]
