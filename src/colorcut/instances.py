"""Problem instances and their brute-force decision oracles.

The types here are the ground truth the reduction machinery is tested
against: deliberately naive exhaustive solvers with explicit caps, plus the
converters between the colored-cut formulation and its color-selection dual.

All oracles are pure functions; every returned witness is the first hit in a
fixed canonical enumeration order, so repeated calls agree byte for byte.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from math import comb, prod
from typing import Hashable, NamedTuple

import numpy as np

from .graphs import component_labels

DEFAULT_CMC_VERTEX_CAP = 24
DEFAULT_COMBINATION_CAP = 10**6
DEFAULT_ASSIGNMENT_CAP = 10**6
DEFAULT_SAT_VARIABLE_CAP = 20
# graphs and hosts read from files: commands that build per-vertex tables
# refuse a header count above this before allocating
DEFAULT_GRAPH_VERTEX_CAP = 10**6


class CapExceeded(Exception):
    """An oracle was asked to enumerate beyond its configured cap."""


class Answer(NamedTuple):
    """Decision plus an optional canonical witness (None on a no answer)."""

    decision: bool
    witness: tuple | None = None


# ---------------------------------------------------------------------------
# Colored min-cut and its dual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoredMultigraph:
    """Edge-colored multigraph with a budget k on the colors a cut may meet.

    Vertices are 0-indexed, colors 1-indexed. Parallel edges are allowed,
    self-loops are not. The full-palette condition (every color in 1..p used
    by some edge) is enforced at parse/write time, not here, so that the
    converter from the dual stays total.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    p: int
    k: int

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        if self.p < 0:
            raise ValueError("negative color count")
        if not 0 <= self.k <= self.p:
            raise ValueError(f"budget k={self.k} outside 0..{self.p}")
        for u, v, c in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if not 1 <= c <= self.p:
                raise ValueError(f"color {c} outside 1..{self.p}")

    def canonical(self) -> "ColoredMultigraph":
        """Normalize: endpoints ordered u < v, exact duplicate triples
        dropped, edges sorted. A duplicated (u, v, color) triple can never
        change the color set of any cut, so dropping it preserves decisions.
        """
        seen = {((u, v) if u < v else (v, u)) + (c,) for u, v, c in self.edges}
        return ColoredMultigraph(self.vertex_count, tuple(sorted(seen)), self.p, self.k)

    def require_full_palette(self) -> None:
        used = {c for _, _, c in self.edges}
        if len(used) < self.p:
            # list a few missing colors without walking all of 1..p
            missing = [c for c in range(1, min(self.p, len(used) + 10) + 1) if c not in used]
            raise ValueError(f"{self.p - len(used)} colors with no edges, first: {missing}")

    def cut_colors(self, side) -> set[int]:
        """Colors with at least one edge crossing the cut (side, rest)."""
        s = set(side)
        return {c for u, v, c in self.edges if (u in s) != (v in s)}


def _cut_color_counts(g: ColoredMultigraph, masks: np.ndarray) -> np.ndarray:
    """Per mask, the number of colors with an edge across the cut, where
    exactly one end has its mask bit (v >= 1 is bit v - 1; 0 has none).
    Every edge uses one scratch array, freed before the witness selection."""
    counts = np.zeros(len(masks), dtype=np.uint16)
    scratch = np.empty_like(masks)
    for _, es in itertools.groupby(sorted(g.edges, key=lambda e: e[2]), key=lambda e: e[2]):
        crossed = np.zeros(len(masks), dtype=bool)
        for u, v, _ in es:
            np.bitwise_and(masks, np.uint32(sum(1 << (w - 1) for w in (u, v) if w)), out=scratch)
            crossed |= np.bitwise_count(scratch, out=scratch) == 1
        counts += crossed
    return counts


def _cmc_minimum(g: ColoredMultigraph) -> tuple[int, tuple[int, ...]]:
    """Minimum cut-color count over all proper cuts, plus the optimal side
    that is smallest under (size, lexicographic) order. Requires n >= 2."""
    n = g.vertex_count
    masks = np.arange(1 << (n - 1), dtype=np.uint32)
    counts = _cut_color_counts(g, masks)
    counts[0] = g.p + 1  # mask 0 is the empty side, not a proper cut
    best = int(counts.min())
    # the side without vertex 0 holds vertex v >= 1 as mask bit v - 1; it
    # weighs sum over its v of 2^(n-1-v), and among sides of one size the
    # lexicographically first weighs the most. Sizes and weights are summed
    # in place in uint8 and uint32 arrays, so that the selection holds a few
    # bytes per optimal mask, not a full-width key
    optimal = masks[counts == best]
    del masks, counts  # the selection needs only the optimal masks
    size = np.zeros(len(optimal), dtype=np.uint8)
    weight = np.zeros(len(optimal), dtype=np.uint32)
    bit = np.empty_like(optimal)
    for v in range(1, n):
        np.right_shift(optimal, v - 1, out=bit)
        bit &= 1
        size += bit
        bit <<= n - 1 - v
        weight |= bit
    # the other side holds vertex 0, so it comes first among sides of its
    # size, and the lighter the side without 0, the heavier the other side
    smallest = min(int(size.min()), n - int(size.max()))
    holds_zero = n - smallest == int(size.max())
    chosen = weight[size == (n - smallest if holds_zero else smallest)]
    picked = int(chosen.min() if holds_zero else chosen.max())
    without_zero = {v for v in range(1, n) if (picked >> (n - 1 - v)) & 1}
    return best, tuple(v for v in range(n) if (v in without_zero) != holds_zero)


def solve_cmc_bruteforce(g: ColoredMultigraph, cap: int = DEFAULT_CMC_VERTEX_CAP) -> Answer:
    """Exhaustive minimum-color cut over all 2^(n-1) proper cuts.

    Yes when the minimum number of colors crossing a nonempty proper cut is
    at most g.k; the witness is the optimal side smallest under (size, lex)
    order. Graphs with a single vertex have no proper cut and answer no.
    """
    n = g.vertex_count
    if n > cap:
        raise CapExceeded(f"{n} vertices exceed the cut enumeration cap {cap}")
    if n < 2:
        return Answer(False, None)
    best, witness = _cmc_minimum(g)
    if best > g.k:
        return Answer(False, None)
    return Answer(True, witness)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _edge_block(es) -> np.ndarray:
    """A color graph's edges as an (m, 2) int64 array, rows as given."""
    if isinstance(es, np.ndarray) and es.dtype == np.int64 and es.ndim == 2 and es.shape[1] == 2:
        return es
    try:
        arr = np.asarray(es if isinstance(es, np.ndarray) else list(es), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("color graph vertex beyond the int64 range") from exc
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("color graph edges must be vertex pairs")
    return arr


def _row_steps(edges: np.ndarray) -> np.ndarray:
    """For each pair of consecutive rows of an (m, 2) array, does the second
    follow the first strictly in lexicographic order?"""
    u, v = edges[:, 0], edges[:, 1]
    return (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))


def _concatenate(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The rows of all blocks in one array, and the offsets of each block."""
    offsets = np.array([0, *itertools.accumulate(map(len, blocks))], dtype=np.int64)
    edges = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    return edges, offsets


@dataclass(frozen=True, eq=False)
class DualCmcInstance:
    """Fixed vertex set W with p edge sets over it; select exactly `a` of
    them so that the union graph is disconnected (isolated vertices count).

    Each color graph is given as an iterable of (u, v) pairs with u < v, or
    as an (m, 2) int array, and is stored as a sorted, duplicate-free
    read-only (m, 2) int64 array: color_graphs[i] is a view into one
    concatenated `edges` array, rows offsets[i] to offsets[i + 1].
    from_rows takes that array and its offsets directly.
    """

    vertex_count: int
    color_graphs: tuple[np.ndarray, ...]
    a: int
    edges: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._store(*_concatenate([_edge_block(es) for es in self.color_graphs]))

    @classmethod
    def from_rows(cls, vertex_count: int, edges, offsets, a: int) -> DualCmcInstance:
        """The instance whose color graph i is edges[offsets[i]:offsets[i + 1]].
        An int64 edges array that is already normalized is kept, not copied,
        and made read-only."""
        edges = _edge_block(edges)
        offsets = np.asarray(offsets, dtype=np.int64)
        bounds = offsets.tolist() if offsets.ndim == 1 else None
        if not bounds or bounds[0] != 0 or bounds[-1] != len(edges) or any(
            map(operator.gt, bounds, bounds[1:])
        ):
            raise ValueError("offsets must rise from 0 to the number of edge rows")
        dual = object.__new__(cls)
        object.__setattr__(dual, "vertex_count", vertex_count)
        object.__setattr__(dual, "a", a)
        dual._store(edges, offsets)
        return dual

    def _store(self, edges: np.ndarray, offsets: np.ndarray) -> None:
        """Check vertex_count and a, sort and deduplicate each block that is
        out of order, check that every row is normalized and in range, and
        keep the rows with their per-color views. The tuple path and
        from_rows share these checks."""
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        # a > p is allowed: no selection of that size exists, so the answer
        # is vacuously no (such instances arise from patterns whose edges
        # have no host edges at all)
        if self.a < 0:
            raise ValueError(f"budget a={self.a} is negative")
        # one order check over all rows; a block's first row may start over
        steps = _row_steps(edges)
        starts = offsets[1:-1]
        steps[starts[(starts > 0) & (starts < len(edges))] - 1] = True
        if not steps.all():
            # step j compares rows j and j + 1, which share a block
            unsorted = np.searchsorted(offsets, np.flatnonzero(~steps), side="right") - 1
            bounds = offsets.tolist()
            blocks = [edges[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            for i in np.unique(unsorted).tolist():
                blocks[i] = np.unique(blocks[i], axis=0)
            edges, offsets = _concatenate(blocks)
        u, v = edges[:, 0], edges[:, 1]
        bad = (u < 0) | (u >= v)
        if self.vertex_count <= _INT64_MAX:
            bad |= v >= self.vertex_count
        if bad.any():
            i = int(np.argmax(bad))
            color = int(np.searchsorted(offsets, i, side="right"))
            raise ValueError(
                f"color graph {color} edge ({u[i]}, {v[i]}) not normalized in range"
            )
        edges.flags.writeable = False
        bounds = offsets.tolist()
        views = tuple(edges[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        object.__setattr__(self, "color_graphs", views)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "offsets", offsets)

    @property
    def p(self) -> int:
        return len(self.color_graphs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualCmcInstance):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.a == other.a
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.edges, other.edges)
        )

    def union(self, selection) -> np.ndarray:
        """Edge rows of the color graphs with the given 1-based indices."""
        return np.concatenate([self.edges[:0]] + [self.color_graphs[i - 1] for i in selection])


def solve_dual_bruteforce(d: DualCmcInstance, cap: int = DEFAULT_COMBINATION_CAP) -> Answer:
    """Try every a-subset of color graphs in lexicographic order of their
    1-based indices; yes on the first whose edge union leaves W disconnected
    (graphs.component_labels on the union)."""
    total = comb(d.p, d.a)
    if total > cap:
        raise CapExceeded(f"{total} combinations exceed the cap {cap}")
    if d.vertex_count <= 1 or d.a > d.p:
        return Answer(False, None)
    sizes = np.diff(d.offsets).tolist()
    for combo in itertools.combinations(range(1, d.p + 1), d.a):
        # fewer than n - 1 edges cannot connect n vertices
        if sum(sizes[gid - 1] for gid in combo) < d.vertex_count - 1:
            return Answer(True, combo)
        if component_labels(d.vertex_count, d.union(combo))[0] >= 2:
            return Answer(True, combo)
    return Answer(False, None)


def cmc_to_dual(g: ColoredMultigraph) -> DualCmcInstance:
    """Color i turns into edge set i; the selection budget is a = p - k."""
    g = g.canonical()
    graphs: list[list[tuple[int, int]]] = [[] for _ in range(g.p)]
    for u, v, c in g.edges:
        graphs[c - 1].append((u, v))
    return DualCmcInstance(g.vertex_count, tuple(graphs), g.p - g.k)


def dual_to_cmc(d: DualCmcInstance) -> ColoredMultigraph:
    """Inverse converter; k = p - a. Colors whose edge set is empty survive
    in-memory but will be rejected by the writer's full-palette check.
    Instances with a > p have no primal counterpart (k would be negative)."""
    if d.a > d.p:
        raise ValueError(f"budget a={d.a} exceeds p={d.p}: no primal counterpart")
    edges = sorted((u, v, i + 1) for i, es in enumerate(d.color_graphs) for u, v in es.tolist())
    return ColoredMultigraph(d.vertex_count, tuple(edges), d.p, d.p - d.a)


# ---------------------------------------------------------------------------
# Partitioned subgraph isomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiInstance:
    """Pattern graph H, host graph K, and a partition of V(K) into equal
    blocks indexed by pattern vertices.

    Canonical layout: block x is exactly {x*n, ..., x*n + n - 1}. Host edges
    may only join blocks whose pattern vertices are adjacent.
    """

    pattern_vertex_count: int
    pattern_edges: tuple[tuple[int, int], ...]
    block_size: int
    blocks: tuple[tuple[int, ...], ...]
    host_edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        h, n = self.pattern_vertex_count, self.block_size
        if h < 1:
            raise ValueError("pattern needs at least one vertex")
        if n < 1:
            raise ValueError("blocks must be nonempty")
        if len(self.blocks) != h:
            raise ValueError("one block per pattern vertex required")
        covered: list[int] = []
        for block in self.blocks:
            if len(block) != n or list(block) != sorted(set(block)):
                raise ValueError("each block must list exactly n distinct ascending vertices")
            covered.extend(block)
        if sorted(covered) != list(range(h * n)):
            raise ValueError("blocks must partition 0..h*n-1")
        pat = set()
        for x, y in self.pattern_edges:
            if not (0 <= x < y < h):
                raise ValueError(f"pattern edge ({x}, {y}) not normalized in range")
            pat.add((x, y))
        if len(pat) != len(self.pattern_edges):
            raise ValueError("duplicate pattern edge")
        block_of = self.block_assignment()
        for u, v in self.host_edges:
            if not (0 <= u < v < h * n):
                raise ValueError(f"host edge ({u}, {v}) not normalized in range")
            bu, bv = block_of[u], block_of[v]
            if bu == bv:
                raise ValueError(f"host edge ({u}, {v}) stays inside block {bu}")
            if (min(bu, bv), max(bu, bv)) not in pat:
                raise ValueError(f"host edge ({u}, {v}) joins non-adjacent blocks {bu}, {bv}")

    def block_assignment(self) -> list[int]:
        block_of = [0] * (self.pattern_vertex_count * self.block_size)
        for x, block in enumerate(self.blocks):
            for v in block:
                block_of[v] = x
        return block_of


def psi_selection_ok(inst: PsiInstance, pick) -> bool:
    """Does picking pick[x] from block x realize every pattern edge?"""
    host = inst.host_edges
    for x, y in inst.pattern_edges:
        u, v = pick[x], pick[y]
        if ((u, v) if u < v else (v, u)) not in host:
            return False
    return True


def solve_psi_bruteforce(inst: PsiInstance, cap: int = DEFAULT_ASSIGNMENT_CAP) -> Answer:
    """Enumerate one-vertex-per-block selections in lexicographic block
    order; yes on the first realizing every pattern edge in the host."""
    total = inst.block_size**inst.pattern_vertex_count
    if total > cap:
        raise CapExceeded(f"{total} selections exceed the cap {cap}")
    for pick in itertools.product(*inst.blocks):
        if psi_selection_ok(inst, pick):
            return Answer(True, pick)
    return Answer(False, None)


# ---------------------------------------------------------------------------
# Binary CSPs
# ---------------------------------------------------------------------------


@dataclass
class BinaryCsp:
    """Binary CSP over finite ordered domains with explicit relation sets.

    Constraints are stored per unordered variable pair, keyed (i, j) with
    i < j and pairs oriented (value_of_i, value_of_j). Posting a second
    relation on the same pair intersects it with the existing one.
    """

    domains: list[tuple[Hashable, ...]]
    constraints: dict[tuple[int, int], frozenset[tuple[Hashable, Hashable]]] = field(
        default_factory=dict
    )

    @property
    def variable_count(self) -> int:
        return len(self.domains)

    def constrain(self, i: int, j: int, pairs) -> None:
        if i == j:
            raise ValueError("constraints join two distinct variables")
        if not (0 <= i < self.variable_count and 0 <= j < self.variable_count):
            raise ValueError(f"variable pair ({i}, {j}) out of range")
        rel = frozenset(pairs)
        if i > j:
            i, j = j, i
            rel = frozenset((b, a) for a, b in rel)
        if (i, j) in self.constraints:
            rel &= self.constraints[(i, j)]
        self.constraints[(i, j)] = rel

    def validate(self) -> None:
        for i, dom in enumerate(self.domains):
            if len(set(dom)) != len(dom):
                raise ValueError(f"domain {i} has duplicate values")
        for (i, j), rel in self.constraints.items():
            if not (0 <= i < j < self.variable_count):
                raise ValueError(f"constraint key ({i}, {j}) not normalized")
            di, dj = set(self.domains[i]), set(self.domains[j])
            for a, b in rel:
                if a not in di or b not in dj:
                    raise ValueError(f"constraint ({i}, {j}) pair outside domains")


def solve_csp_bruteforce(csp: BinaryCsp, cap: int = DEFAULT_ASSIGNMENT_CAP) -> Answer:
    """Enumerate valuations in lexicographic domain order; an instance with
    zero variables is vacuously satisfiable."""
    total = prod(len(d) for d in csp.domains)
    if total > cap:
        raise CapExceeded(f"{total} valuations exceed the cap {cap}")
    items = sorted(csp.constraints.items())
    for valuation in itertools.product(*csp.domains):
        if all((valuation[i], valuation[j]) in rel for (i, j), rel in items):
            return Answer(True, valuation)
    return Answer(False, None)


# ---------------------------------------------------------------------------
# CNF formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """CNF with at most three distinct, non-contradictory literals per
    clause. Literal order inside a clause is preserved (it is meaningful to
    the downstream encoding), so no clause-level canonicalization happens."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.variable_count < 0:
            raise ValueError("negative variable count")
        for idx, clause in enumerate(self.clauses):
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause {idx + 1} must hold 1..3 literals")
            seen_vars = set()
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"clause {idx + 1} literal {lit} out of range")
                if abs(lit) in seen_vars:
                    raise ValueError(f"clause {idx + 1} repeats variable {abs(lit)}")
                seen_vars.add(abs(lit))


def solve_sat_bruteforce(f: CnfFormula, cap: int = DEFAULT_SAT_VARIABLE_CAP) -> Answer:
    """Enumerate all assignments; the witness lists values of x1..xN for the
    first satisfying assignment in mask order (x1 is the low bit)."""
    n = f.variable_count
    if n > cap:
        raise CapExceeded(f"{n} variables exceed the assignment cap {cap}")
    for mask in range(1 << n):
        ok = True
        for clause in f.clauses:
            sat = False
            for lit in clause:
                value = bool((mask >> (abs(lit) - 1)) & 1)
                if (lit > 0) == value:
                    sat = True
                    break
            if not sat:
                ok = False
                break
        if ok:
            return Answer(True, tuple(bool((mask >> i) & 1) for i in range(n)))
    return Answer(False, None)


__all__ = [
    "Answer",
    "BinaryCsp",
    "CapExceeded",
    "CnfFormula",
    "ColoredMultigraph",
    "DualCmcInstance",
    "PsiInstance",
    "cmc_to_dual",
    "dual_to_cmc",
    "psi_selection_ok",
    "solve_cmc_bruteforce",
    "solve_csp_bruteforce",
    "solve_dual_bruteforce",
    "solve_psi_bruteforce",
    "solve_sat_bruteforce",
]
