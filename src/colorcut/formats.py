"""Line-oriented text formats: one record per line, '#' starts a comment.

Writers emit canonical sorted output, so equal in-memory values produce
identical bytes and every emitted file re-parses to an equal value. The CNF
format is DIMACS (with 'c' comment lines and a '%' end marker tolerated).
"""

from __future__ import annotations

import warnings

import numpy as np

from .graphs import Graph
from .instances import (
    BinaryCsp,
    CnfFormula,
    ColoredMultigraph,
    DualCmcInstance,
    PsiInstance,
    rows_increase,
)


class FormatError(ValueError):
    """Malformed instance text."""


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int_fields(fields, lineno, count=None):
    """Parse integer fields; with a count, any other number of them is malformed."""
    if count is not None and len(fields) != count:
        raise FormatError(f"line {lineno}: expected {count} integer fields, got {fields}")
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: expected integers, got {fields}") from exc


# ---------------------------------------------------------------------------
# Colored min-cut
# ---------------------------------------------------------------------------


def parse_cmc(text: str) -> ColoredMultigraph:
    """`cmc <n> <m> <p> <k>` header, then m lines `e <u> <v> <color>`.

    The result is canonical; every color in 1..p must occur on some edge.
    """
    header = None
    edges = []
    for lineno, fields in _records(text):
        if header is None:
            if fields[0] != "cmc" or len(fields) != 5:
                raise FormatError(f"line {lineno}: expected 'cmc n m p k' header")
            header = _int_fields(fields[1:], lineno)
        elif fields[0] == "e":
            if len(fields) != 4:
                raise FormatError(f"line {lineno}: expected 'e u v color'")
            edges.append(tuple(_int_fields(fields[1:], lineno)))
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if header is None:
        raise FormatError("missing 'cmc' header")
    n, m, p, k = header
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    try:
        g = ColoredMultigraph(n, tuple(edges), p, k).canonical()
        g.require_full_palette()
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return g


def write_cmc(g: ColoredMultigraph) -> str:
    g = g.canonical()
    g.require_full_palette()
    lines = [f"cmc {g.vertex_count} {len(g.edges)} {g.p} {g.k}"]
    lines.extend(f"e {u} {v} {c}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dual colored min-cut
# ---------------------------------------------------------------------------


def parse_dcmc(text: str) -> DualCmcInstance:
    """`dcmc <n> <p> <a>` header, then blocks `g <i>` (i ascending from 1,
    each exactly once, empty blocks allowed) holding `e <u> <v>` lines.

    Text laid out exactly as write_dcmc emits it is read block by block with
    numpy; any other text, and every malformed one, goes through the line
    parser, which is the only source of error messages."""
    dual = _parse_dcmc_canonical(text)
    return dual if dual is not None else _parse_dcmc_lines(text)


_ZERO, _SPACE, _NEWLINE, _E = (ord(c) for c in "0 \ne")
# 10, 100, ..., 10**18: a value's digit count is one more than the number
# of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _parse_dcmc_canonical(text: str) -> DualCmcInstance | None:
    """The instance when text is byte for byte what write_dcmc would emit
    for it, else None. Each block is read by _canonical_edges; the edges
    must also be sorted, duplicate-free and have u < v."""
    if not text.endswith("\n"):
        return None
    chunks = text[:-1].split("\ng ")
    head = chunks[0].split(" ")
    if len(head) != 4 or head[0] != "dcmc":
        return None
    try:
        n, p, a = (int(f) for f in head[1:])
    except ValueError:
        return None
    if chunks[0] != f"dcmc {n} {p} {a}" or len(chunks) != p + 1:
        return None
    graphs = []
    with warnings.catch_warnings():
        # numpy warns, or raises, when a token is not an integer
        warnings.simplefilter("error", DeprecationWarning)
        for i, chunk in enumerate(chunks[1:], 1):
            label, newline, body = chunk.partition("\n")
            if label != str(i) or (newline and not body):
                return None
            edges = _canonical_edges(body + "\n" if body else "")
            if edges is None or not (np.all(edges[:, 0] < edges[:, 1]) and rows_increase(edges)):
                return None
            graphs.append(edges)
    try:
        return DualCmcInstance(n, tuple(graphs), a)
    except ValueError:
        return None


def _canonical_edges(lines: str) -> np.ndarray | None:
    """The (m, 2) array of lines that are exactly `e <u> <v>\\n`, m times,
    with u and v written in decimal without sign or leading zeros; else
    None. The values are read with numpy first; their digit counts then fix
    where every separator must sit, and every other byte must be a digit."""
    try:
        flat = np.fromstring(lines.replace("e", " "), dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    # numpy clamps values past the int64 range to its maximum
    if flat.size % 2 or (flat.size and flat.max() == np.iinfo(np.int64).max):
        return None
    raw = np.frombuffer(lines.encode(), dtype=np.uint8)
    digits = 1 + np.searchsorted(_POWERS_OF_TEN, flat, side="right")
    du, dv = digits[0::2], digits[1::2]
    ends = np.cumsum(du + dv + 4)  # "e u v\n" is du + dv + 4 bytes long
    if raw.size != (ends[-1] if ends.size else 0):
        return None
    starts = ends - (du + dv + 4)
    separators = (
        (raw[starts] == _E).all()
        and (raw[starts + 1] == _SPACE).all()
        and (raw[starts + 2 + du] == _SPACE).all()
        and (raw[ends - 1] == _NEWLINE).all()
    )
    # with the separators in place, the other bytes are all digits iff
    # there are as many digit bytes as the values have digits; so each
    # number is exactly as long as its value's digit count, which leaves no
    # room for a leading zero
    if not separators or np.count_nonzero((raw >= _ZERO) & (raw <= _ZERO + 9)) != digits.sum():
        return None
    return flat.reshape(-1, 2)


def _parse_dcmc_lines(text: str) -> DualCmcInstance:
    """parse_dcmc for any layout: one pass over the lines."""
    header = None
    graphs: list[set[tuple[int, int]]] = []
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "e" and current is not None:
            try:
                _, u, v = fields
                u, v = int(u), int(v)
            except ValueError:
                u, v = _int_fields(fields[1:], lineno, 2)
            if u == v:
                raise FormatError(f"line {lineno}: self-loop at {u}")
            current.add((u, v) if u < v else (v, u))
        elif header is None:
            if fields[0] != "dcmc" or len(fields) != 4:
                raise FormatError(f"line {lineno}: expected 'dcmc n p a' header")
            header = _int_fields(fields[1:], lineno)
        elif fields[0] == "g":
            (i,) = _int_fields(fields[1:], lineno, 1)
            if i != len(graphs) + 1:
                raise FormatError(f"line {lineno}: color graphs must appear in order, got g {i}")
            current = set()
            graphs.append(current)
        elif fields[0] == "e":
            raise FormatError(f"line {lineno}: edge before any 'g' block")
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if header is None:
        raise FormatError("missing 'dcmc' header")
    n, p, a = header
    if len(graphs) != p:
        raise FormatError(f"header promises {p} color graphs, found {len(graphs)}")
    try:
        return DualCmcInstance(n, tuple(graphs), a)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_dcmc(d: DualCmcInstance) -> str:
    parts = [f"dcmc {d.vertex_count} {d.p} {d.a}\n"]
    for i, es in enumerate(d.color_graphs, 1):
        parts.append(f"g {i}\n")
        parts.append(("e %d %d\n" * len(es)) % tuple(es.ravel().tolist()))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Partitioned subgraph isomorphism
# ---------------------------------------------------------------------------


def parse_psi(text: str) -> PsiInstance:
    """`psi <h> <n>` header, then `pe <x> <y>` pattern edges, `block <x>
    <v...>` block contents (one per pattern vertex), and `he <u> <v>` host
    edges, in any order after the header."""
    header = None
    pattern_edges = set()
    blocks: dict[int, tuple[int, ...]] = {}
    host_edges = set()
    for lineno, fields in _records(text):
        if header is None:
            if fields[0] != "psi" or len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'psi h n' header")
            header = _int_fields(fields[1:], lineno)
        elif fields[0] == "pe":
            x, y = _int_fields(fields[1:], lineno, 2)
            pattern_edges.add((x, y) if x < y else (y, x))
        elif fields[0] == "block":
            (x,) = _int_fields(fields[1:2], lineno, 1)
            if x in blocks:
                raise FormatError(f"line {lineno}: block {x} given twice")
            blocks[x] = tuple(sorted(_int_fields(fields[2:], lineno)))
        elif fields[0] == "he":
            u, v = _int_fields(fields[1:], lineno, 2)
            host_edges.add((u, v) if u < v else (v, u))
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if header is None:
        raise FormatError("missing 'psi' header")
    h, n = header
    if len(blocks) != h or sorted(blocks) != list(range(h)):
        raise FormatError("need exactly one block per pattern vertex 0..h-1")
    try:
        return PsiInstance(
            h,
            tuple(sorted(pattern_edges)),
            n,
            tuple(blocks[x] for x in range(h)),
            frozenset(host_edges),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_psi(inst: PsiInstance) -> str:
    lines = [f"psi {inst.pattern_vertex_count} {inst.block_size}"]
    lines.extend(f"pe {x} {y}" for x, y in sorted(inst.pattern_edges))
    for x, block in enumerate(inst.blocks):
        lines.append("block " + " ".join(str(v) for v in (x,) + tuple(block)))
    lines.extend(f"he {u} {v}" for u, v in sorted(inst.host_edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


def parse_cnf(text: str) -> CnfFormula:
    """DIMACS: `p cnf <N> <M>`, then clauses as 0-terminated literal runs
    (line breaks inside a clause are fine)."""
    n_vars = None
    n_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        fields = line.split()
        if fields[0] == "p":
            if n_vars is not None or len(fields) != 4 or fields[1] != "cnf":
                raise FormatError(f"line {lineno}: bad problem line")
            n_vars, n_clauses = _int_fields(fields[2:], lineno)
            continue
        if n_vars is None:
            raise FormatError(f"line {lineno}: clause before the problem line")
        for lit in _int_fields(fields, lineno):
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if n_vars is None:
        raise FormatError("missing 'p cnf' problem line")
    if pending:
        raise FormatError("last clause is not 0-terminated")
    if len(clauses) != n_clauses:
        raise FormatError(f"problem line promises {n_clauses} clauses, found {len(clauses)}")
    try:
        return CnfFormula(n_vars, tuple(clauses))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_cnf(f: CnfFormula) -> str:
    lines = [f"p cnf {f.variable_count} {len(f.clauses)}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in f.clauses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plain graphs
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """`graph <n> <m>` header plus `e <u> <v>` lines."""
    header = None
    edges = []
    for lineno, fields in _records(text):
        if header is None:
            if fields[0] != "graph" or len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'graph n m' header")
            header = _int_fields(fields[1:], lineno)
        elif fields[0] == "e":
            edges.append(tuple(_int_fields(fields[1:], lineno, 2)))
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if header is None:
        raise FormatError("missing 'graph' header")
    n, m = header
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    try:
        return Graph.make(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_graph(g: Graph) -> str:
    lines = [f"graph {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Binary CSPs (values are opaque string tokens)
# ---------------------------------------------------------------------------


def _token(value) -> str:
    tok = str(value).replace(" ", "")
    if not tok or "|" in tok or "#" in tok:
        raise FormatError(f"value {value!r} does not tokenize")
    return tok


def parse_csp(text: str) -> BinaryCsp:
    """`csp <nvars>`, `dom <i> <token>...`, `con <i> <j> <a|b>...` lines.

    Values are opaque tokens; parsing a written CSP yields a decision-
    equivalent instance whose values are the token strings.
    """
    n_vars = None
    domains: dict[int, tuple[str, ...]] = {}
    constraints: list[tuple[int, int, list[tuple[str, str]]]] = []
    for lineno, fields in _records(text):
        if n_vars is None:
            if fields[0] != "csp" or len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'csp nvars' header")
            (n_vars,) = _int_fields(fields[1:], lineno)
        elif fields[0] == "dom":
            (i,) = _int_fields(fields[1:2], lineno, 1)
            if i in domains:
                raise FormatError(f"line {lineno}: domain {i} given twice")
            domains[i] = tuple(fields[2:])
        elif fields[0] == "con":
            i, j = _int_fields(fields[1:3], lineno, 2)
            pairs = []
            for pair in fields[3:]:
                parts = pair.split("|")
                if len(parts) != 2:
                    raise FormatError(f"line {lineno}: bad pair {pair!r}")
                pairs.append((parts[0], parts[1]))
            constraints.append((i, j, pairs))
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if n_vars is None:
        raise FormatError("missing 'csp' header")
    if len(domains) != n_vars or sorted(domains) != list(range(n_vars)):
        raise FormatError("need one 'dom' line per variable 0..nvars-1")
    csp = BinaryCsp([domains[i] for i in range(n_vars)])
    try:
        for i, j, pairs in constraints:
            csp.constrain(i, j, pairs)
        csp.validate()
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return csp


def write_csp(csp: BinaryCsp) -> str:
    lines = [f"csp {csp.variable_count}"]
    for i, dom in enumerate(csp.domains):
        lines.append("dom " + " ".join([str(i)] + [_token(v) for v in dom]))
    for (i, j), rel in sorted(csp.constraints.items()):
        pairs = sorted(f"{_token(x)}|{_token(y)}" for x, y in rel)
        lines.append("con " + " ".join([str(i), str(j)] + pairs))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Embeddings and gadget color maps
# ---------------------------------------------------------------------------


def write_embedding(emb) -> str:
    """`embed <host_n> <host_m> <branch_count> <ell>` header, `host` edges,
    `branch <v> <w...>` sets, and `zeta <v> <w>` bucket lines. Path-draw
    provenance is not serialized; a re-parsed embedding audits type-0 only.
    """
    host = emb.host
    lines = [f"embed {host.vertex_count} {len(host.edges)} {len(emb.branch_sets)} {emb.ell}"]
    lines.extend(f"host {u} {v}" for u, v in host.edges)
    for v in sorted(emb.branch_sets):
        ws = " ".join(str(w) for w in sorted(emb.branch_sets[v]))
        lines.append(f"branch {v} {ws}")
    for v in sorted(emb.zeta):
        lines.append(f"zeta {v} {emb.zeta[v]}")
    return "\n".join(lines) + "\n"


def parse_embedding(text: str):
    from .embedding import Embedding

    header = None
    host_edges = []
    branch: dict[int, frozenset[int]] = {}
    zeta: dict[int, int] = {}
    for lineno, fields in _records(text):
        if header is None:
            if fields[0] != "embed" or len(fields) != 5:
                raise FormatError(f"line {lineno}: expected 'embed n m branches ell' header")
            header = _int_fields(fields[1:], lineno)
        elif fields[0] == "host":
            host_edges.append(tuple(_int_fields(fields[1:], lineno, 2)))
        elif fields[0] == "branch":
            (v,) = _int_fields(fields[1:2], lineno, 1)
            if v in branch:
                raise FormatError(f"line {lineno}: branch {v} given twice")
            branch[v] = frozenset(_int_fields(fields[2:], lineno))
        elif fields[0] == "zeta":
            v, w = _int_fields(fields[1:], lineno, 2)
            zeta[v] = w
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if header is None:
        raise FormatError("missing 'embed' header")
    n, m, branch_count, ell = header
    if len(host_edges) != m or len(branch) != branch_count:
        raise FormatError("header counts do not match the records")
    try:
        host = Graph.make(n, host_edges)
        return Embedding(host, branch, zeta, ell)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_gadget_map(color_map) -> str:
    """`gadgetmap <p>` plus `color <i> <alpha> <vx> <vy>` provenance lines."""
    lines = [f"gadgetmap {len(color_map)}"]
    for i, (alpha, vx, vy) in enumerate(color_map, 1):
        lines.append(f"color {i} {alpha} {vx} {vy}")
    return "\n".join(lines) + "\n"


def parse_gadget_map(text: str) -> tuple[tuple[int, int, int], ...]:
    header = None
    rows: list[tuple[int, int, int]] = []
    for lineno, fields in _records(text):
        if header is None:
            if fields[0] != "gadgetmap" or len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'gadgetmap p' header")
            header = _int_fields(fields[1:], lineno)
        elif fields[0] == "color":
            i, alpha, vx, vy = _int_fields(fields[1:], lineno, 4)
            if i != len(rows) + 1:
                raise FormatError(f"line {lineno}: colors must appear in order")
            rows.append((alpha, vx, vy))
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if header is None:
        raise FormatError("missing 'gadgetmap' header")
    if len(rows) != header[0]:
        raise FormatError("header promises a different color count")
    return tuple(rows)


def render_report(pairs) -> str:
    """Stable key=value lines for CLI and pipeline reports."""
    return "\n".join(f"{key}={value}" for key, value in pairs) + "\n"
