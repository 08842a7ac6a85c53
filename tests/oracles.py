"""Second opinions: independently written solvers for cross-checking.

Deliberately different algorithms from the package: subset combinations
instead of vectorized masks, BFS and union-find instead of the numpy
hook-and-compress component labelling that answers every connectivity
question in the package, backtracking instead of product scans, DPLL
instead of assignment enumeration, a filtered full product instead of
domains built member by member, one LP commodity per vertex pair instead of
per source, scipy's public linprog instead of the direct HiGHS call, gadget edges placed digit by digit instead of broadcast from
one star. Any disagreement points at a bug on one of the two sides.
UnionFind lives only here, as the reference that graphs.component_labels,
is_connected and connected_in_subsets are tested against; so does touches,
the neighbourhood scan that embedding.check_branch_sets is tested against.

Also here: checks and generators only tests need (exact separation
sparsity, gadget vertex decoding, uniform random simple graphs, maximum
degree), and the dcmc writer that formats each color graph with one
%-format, against which the numpy renderer is compared.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from scipy import sparse
from scipy.optimize import linprog

from colorcut.gadgets import HUB
from colorcut.graphs import Graph
from colorcut.instances import DEFAULT_COMBINATION_CAP, Answer, CapExceeded

SPARSITY_VERTEX_CAP = 12


class UnionFind:
    """Array-backed disjoint sets with path compression."""

    __slots__ = ("parent", "components")

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.components = size

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.components -= 1
        return True


def bfs_component_count(vertex_count, edges):
    adj = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * vertex_count
    count = 0
    for s in range(vertex_count):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            w = queue.popleft()
            for x in adj[w]:
                if not seen[x]:
                    seen[x] = True
                    queue.append(x)
    return count


def touches(host, bu, bv):
    """Do two vertex sets of the host share a vertex or meet along a host
    edge? A scan of the neighbourhood of every vertex of bu."""
    adj = [[] for _ in range(host.vertex_count)]
    for u, v in host.edges:
        adj[u].append(v)
        adj[v].append(u)
    return bool(bu & bv) or any(w in bv for x in bu for w in adj[x])


def cmc_best_cut_colors(g):
    """Minimum number of colors crossing a proper cut, enumerating the side
    containing vertex 0 as explicit combinations."""
    n = g.vertex_count
    if n < 2:
        return None
    best = None
    others = list(range(1, n))
    for size in range(1, n):
        for inside in itertools.combinations(others, size - 1):
            side = {0, *inside}
            colors = {c for u, v, c in g.edges if (u in side) != (v in side)}
            if best is None or len(colors) < best:
                best = len(colors)
    return best


def cmc_minimum_loop(g):
    """(minimum cut-color count, optimal side smallest under (size, lex)
    order), one mask at a time: bit v-1 of a mask puts vertex v on the side
    without vertex 0, and both sides of every optimal mask are compared as
    (len, tuple) keys."""
    n = g.vertex_count
    counts = {}
    for mask in range(1, 1 << (n - 1)):
        inside = tuple(i for i in range(1, n) if (mask >> (i - 1)) & 1)
        counts[mask] = len(g.cut_colors(inside))
    best = min(counts.values())
    best_key = None
    for mask, count in counts.items():
        if count != best:
            continue
        inside = tuple(i for i in range(1, n) if (mask >> (i - 1)) & 1)
        inside_set = set(inside)
        outside = tuple(i for i in range(n) if i not in inside_set)
        for cand in (inside, outside):
            key = (len(cand), cand)
            if best_key is None or key < best_key:
                best_key = key
    return best, best_key[1]


def component_count(vertex_count, edges):
    uf = UnionFind(vertex_count)
    for u, v in edges:
        uf.union(u, v)
    return uf.components


def max_degree(graph):
    return max(graph.degrees(), default=0)


def dual_decision(d):
    """Is there an a-subset of color graphs whose union is disconnected?"""
    if d.vertex_count < 2:
        return False
    for combo in itertools.combinations(range(d.p), d.a):
        edges = [e for i in combo for e in d.color_graphs[i].tolist()]
        if bfs_component_count(d.vertex_count, edges) >= 2:
            return True
    return False


def solve_dual_union_find(d, cap=DEFAULT_COMBINATION_CAP):
    """Try every a-subset of color graphs in lexicographic order of their
    1-based indices; yes on the first whose edge union leaves W disconnected.
    A union-find over the edges of each subset, in Python."""
    total = comb(d.p, d.a)
    if total > cap:
        raise CapExceeded(f"{total} combinations exceed the cap {cap}")
    if d.vertex_count <= 1 or d.a > d.p:
        return Answer(False, None)
    sizes = [len(es) for es in d.color_graphs]
    for combo in itertools.combinations(range(1, d.p + 1), d.a):
        # fewer than n - 1 edges cannot connect n vertices
        if sum(sizes[gid - 1] for gid in combo) < d.vertex_count - 1:
            return Answer(True, combo)
        uf = UnionFind(d.vertex_count)
        for gid in combo:
            for u, v in d.color_graphs[gid - 1].tolist():
                uf.union(u, v)
        if uf.components >= 2:
            return Answer(True, combo)
    return Answer(False, None)


def psi_decision_backtracking(inst):
    host = inst.host_edges
    h = inst.pattern_vertex_count
    edges_by_later = [[] for _ in range(h)]
    for x, y in inst.pattern_edges:
        edges_by_later[max(x, y)].append((min(x, y), max(x, y)))
    pick = [None] * h

    def place(x):
        if x == h:
            return True
        for v in inst.blocks[x]:
            pick[x] = v
            ok = True
            for lo, hi in edges_by_later[x]:
                u, w = pick[lo], pick[hi]
                if ((u, w) if u < w else (w, u)) not in host:
                    ok = False
                    break
            if ok and place(x + 1):
                return True
        pick[x] = None
        return False

    return place(0)


def sat_decision_dpll(formula):
    """Plain DPLL with unit propagation, no heuristics."""

    def simplify(cls, lit):
        out = []
        for c in cls:
            if lit in c:
                continue
            reduced = tuple(l for l in c if l != -lit)
            if not reduced:
                return None
            out.append(reduced)
        return out

    def solve(cls):
        if not cls:
            return True
        for c in cls:
            if len(c) == 1:
                nxt = simplify(cls, c[0])
                return nxt is not None and solve(nxt)
        lit = cls[0][0]
        for choice in (lit, -lit):
            nxt = simplify(cls, choice)
            if nxt is not None and solve(nxt):
                return True
        return False

    return solve([tuple(c) for c in formula.clauses])


def csp_decision_backtracking(csp):
    n = csp.variable_count
    assignment = [None] * n

    def consistent(i, val):
        for j in range(i):
            rel = csp.constraints.get((j, i))
            if rel is not None and (assignment[j], val) not in rel:
                return False
        return True

    def place(i):
        if i == n:
            return True
        for val in csp.domains[i]:
            if consistent(i, val):
                assignment[i] = val
                if place(i + 1):
                    return True
        assignment[i] = None
        return False

    return place(0)


def filtered_product(csp, members):
    """The consistent tuples of a host vertex that carries members: the full
    product of their domains, filtered by every base constraint between two
    members. route_csp must return the same tuples in this order."""
    tuples = list(itertools.product(*(csp.domains[v] for v in members)))
    for (u, v), rel in sorted(csp.constraints.items()):
        if u in members and v in members:
            pu, pv = members.index(u), members.index(v)
            tuples = [t for t in tuples if (t[pu], t[pv]) in rel]
    return tuple(tuples)


def pairwise_congestion_lp(graph):
    """Optimal vertex congestion of the concurrent flow on a connected graph
    with at least two vertices, from an arc LP with one commodity per
    unordered pair. Endpoints load every vertex with 2*(ell-1) + 1; transit
    flow counts twice because each unordered pair stands for both ordered
    pairs (mirroring an optimum never raises the maximum)."""
    ell = graph.vertex_count
    arcs = []
    for u, v in graph.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    n_arcs = len(arcs)
    pairs = [(s, t) for s in range(ell) for t in range(s + 1, ell)]
    gamma_col = len(pairs) * n_arcs
    eq_rows, eq_cols, eq_vals, b_eq = [], [], [], []
    for ci, (s, t) in enumerate(pairs):
        for w in range(ell):
            if w == t:
                continue  # implied by the other rows
            for idx, (a, b) in enumerate(arcs):
                if w in (a, b):
                    eq_rows.append(len(b_eq))
                    eq_cols.append(ci * n_arcs + idx)
                    eq_vals.append(1.0 if a == w else -1.0)
            b_eq.append(1.0 if w == s else 0.0)
    ub_rows, ub_cols, ub_vals = [], [], []
    for w in range(ell):
        for ci, (s, t) in enumerate(pairs):
            if w in (s, t):
                continue
            for idx, (_, b) in enumerate(arcs):
                if b == w:
                    ub_rows.append(w)
                    ub_cols.append(ci * n_arcs + idx)
                    ub_vals.append(2.0)
        ub_rows.append(w)
        ub_cols.append(gamma_col)
        ub_vals.append(-1.0)
    shape = (len(b_eq), gamma_col + 1)
    objective = [0.0] * gamma_col + [1.0]
    result = linprog(
        objective,
        A_ub=sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(ell, gamma_col + 1)),
        b_ub=[-(2.0 * (ell - 1) + 1.0)] * ell,
        A_eq=sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=shape),
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    assert result.success, result.message
    return float(result.x[gamma_col])


def per_source_flow_lp(ell, arcs):
    """linprog's optimum of the LP that flows._solve_lp hands to HiGHS, with
    the model written out loop by loop: columns s * len(arcs) + a for
    commodity s < ell - 1 on arc a, then gamma; the ell load rows
    2 * sum_{s != w} in_s(w) - gamma <= 2w - 2(ell-1) - 1, then the
    conservation rows in_s(w) - out_s(w) = [w > s] for each s and each
    w != s in ascending order. Same rows, columns and options, so the two
    optima agree bit for bit unless the direct call drifts from linprog."""
    n_arcs = len(arcs)
    gamma_col = (ell - 1) * n_arcs
    ub_rows, ub_cols, ub_vals = [], [], []
    eq_rows, eq_cols, eq_vals, b_eq = [], [], [], []
    for s in range(ell - 1):
        for idx, (_, b) in enumerate(arcs):
            if b != s:
                ub_rows.append(b)
                ub_cols.append(s * n_arcs + idx)
                ub_vals.append(2.0)
        for w in range(ell):
            if w == s:
                continue
            for idx, (a, b) in enumerate(arcs):
                if w in (a, b):
                    eq_rows.append(len(b_eq))
                    eq_cols.append(s * n_arcs + idx)
                    eq_vals.append(1.0 if b == w else -1.0)
            b_eq.append(1.0 if w > s else 0.0)
    for w in range(ell):
        ub_rows.append(w)
        ub_cols.append(gamma_col)
        ub_vals.append(-1.0)
    result = linprog(
        [0.0] * gamma_col + [1.0],
        A_ub=sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(ell, gamma_col + 1)),
        b_ub=[2.0 * w - 2 * (ell - 1) - 1 for w in range(ell)],
        A_eq=sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), gamma_col + 1)),
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    assert result.success, result.message
    return result.x


def digit(params, residue, tier):
    """One coordinate's digit, residue * (b+1) + tier, as the gadgets module
    docstring numbers them."""
    return residue * (params.b + 1) + tier


def coord_vertex(params, z, digits):
    """Vertex of block z with per-coordinate digits d_1..d_a:
    1 + z*(rho*(b+1))^a + sum_i d_i * (rho*(b+1))^(i-1)."""
    base = params.rho * (params.b + 1)
    return 1 + z * base ** params.a + sum(d * base**i for i, d in enumerate(digits))


def naive_gadget_edges(alpha, v_x, v_y, params):
    """Edge set of the gadget for host edge (v_x, v_y) on pattern edge alpha,
    built one vertex at a time: every endpoint goes through digit and
    coord_vertex above, and the all-tier-zero vertices of a block are
    re-enumerated on every call."""
    a, b, rho = params.a, params.b, params.rho
    x, y = params.edge_order[alpha - 1]

    def norm(u, v):
        return (u, v) if u < v else (v, u)

    def hat(z, residues):
        return coord_vertex(params, z, [digit(params, r, 0) for r in residues])

    ex = hat(x, params.f_maps[x][v_x])
    ey = hat(y, params.f_maps[y][v_y])
    edges = {norm(ex, ey)}
    for z in (x, y):
        for residues in itertools.product(range(rho), repeat=a):
            w = hat(z, residues)
            if w not in (ex, ey):
                edges.add((0, w))

    g = params.f_maps[x][v_x] + params.f_maps[y][v_y]
    for z in range(params.h):
        for rest in itertools.product(range(rho * (b + 1)), repeat=a - 1):
            def vertex(d):
                digits = list(rest)
                digits.insert(alpha - 1, d)
                return coord_vertex(params, z, digits)

            edges.add((0, vertex(digit(params, 0, 0))))
            for r in range(rho):
                center = vertex(digit(params, r, 0))
                for i in range(1, b + 1):
                    edges.add(norm(center, vertex(digit(params, (r + g[i - 1]) % rho, i))))
    return frozenset(edges)


def write_dcmc_formatted(d):
    """write_dcmc with one %-format per color graph, the reference for the
    numpy renderer."""
    parts = [f"dcmc {d.vertex_count} {d.p} {d.a}\n"]
    for i, es in enumerate(d.color_graphs, 1):
        parts.append(f"g {i}\n")
        parts.append(("e %d %d\n" * len(es)) % tuple(es.ravel().tolist()))
    return "".join(parts)


def min_sparsity_exhaustive(graph):
    """Minimum sparsity |A cap B| / (|A| * |B|) over all separations (A, B)
    of the vertex set, exactly.

    Every separation (A, B) with interior X = A - B is dominated by the
    separation (X + N(X), V - X), whose sparsity |N(X)| / ((|X| + |N(X)|)
    * (n - |X|)) is never larger; separations with empty interior collapse
    to the trivial (V, V) sparsity 1/n. Enumerating the 2^n - 2 interiors
    plus the trivial case is therefore exhaustive.
    """
    n = graph.vertex_count
    if n > SPARSITY_VERTEX_CAP:
        raise CapExceeded(f"{n} vertices exceed the sparsity enumeration cap {SPARSITY_VERTEX_CAP}")
    if n < 1:
        raise ValueError("empty graph")
    adj_mask = [0] * n
    for u, v in graph.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = Fraction(1, n)
    full = (1 << n) - 1
    for interior in range(1, full):
        neighborhood = 0
        rest = interior
        while rest:
            v = (rest & -rest).bit_length() - 1
            neighborhood |= adj_mask[v]
            rest &= rest - 1
        neighborhood &= ~interior
        boundary = neighborhood.bit_count()
        size_a = interior.bit_count() + boundary
        size_b = n - interior.bit_count()
        value = Fraction(boundary, size_a * size_b)
        if value < best:
            best = value
    return best


@dataclass(frozen=True)
class WCoordinate:
    """Decoded gadget vertex: block is None for the hub, else the pattern
    vertex, with one (residue, tier) pair per pattern edge."""

    block: int | None
    coords: tuple[tuple[int, int], ...]


def decode_vertex(params, w):
    """Inverse of coord_vertex on digits digit(params, residue, tier)."""
    if w == HUB:
        return WCoordinate(None, ())
    base = params.rho * (params.b + 1)
    z, rest = divmod(w - 1, base**params.a)
    coords = []
    for _ in range(params.a):
        rest, d = divmod(rest, base)
        coords.append(divmod(d, params.b + 1))
    return WCoordinate(z, tuple(coords))


def random_simple_graph(n, m, rng):
    """Uniformly draw m distinct edges on n vertices (rejection sampling)."""
    if m > n * (n - 1) // 2:
        raise ValueError("too many edges for a simple graph")
    chosen = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((u, v) if u < v else (v, u))
    return Graph.make(n, chosen)
