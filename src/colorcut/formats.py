"""Line-oriented text formats: one record per line, '#' starts a comment.

Writers emit canonical sorted output, so equal in-memory values produce
identical bytes and every emitted file re-parses to an equal value. The CNF
format is DIMACS (with 'c' comment lines and a '%' end marker tolerated);
every other format is read by _read, which owns the header-first rule, the
dispatch of records on their keyword and the messages for both.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import numpy as np

from .graphs import Graph
from .instances import (
    BinaryCsp,
    CnfFormula,
    ColoredMultigraph,
    DualCmcInstance,
    PsiInstance,
)


class FormatError(ValueError):
    """Malformed instance text."""


def _int_fields(fields, lineno, count=None):
    """Parse integer fields; with a count, any other number of them is malformed."""
    if count is not None and len(fields) != count:
        raise FormatError(f"line {lineno}: expected {count} integer fields, got {fields}")
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: expected integers, got {fields}") from exc


def _read(text: str, header: str, records) -> list[int]:
    """Read a line format and return its header's integers.

    `header` describes the first record, e.g. 'cmc n m p k': its keyword,
    then one integer per further word. Every later record goes to
    records[keyword](fields, lineno), with the fields after the keyword.
    '#' starts a comment; blank lines are skipped."""
    words = header.split()
    values = None
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if values is None:
            if fields[0] != words[0] or len(fields) != len(words):
                raise FormatError(f"line {lineno}: expected '{header}' header")
            values = _int_fields(fields[1:], lineno)
        elif fields[0] in records:
            records[fields[0]](fields[1:], lineno)
        else:
            raise FormatError(f"line {lineno}: unexpected record {fields[0]!r}")
    if values is None:
        raise FormatError(f"missing '{words[0]}' header")
    return values


@contextmanager
def _as_format_error():
    """Report a ValueError from building the parsed value as a FormatError."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Colored min-cut
# ---------------------------------------------------------------------------


def parse_cmc(text: str) -> ColoredMultigraph:
    """`cmc <n> <m> <p> <k>` header, then m lines `e <u> <v> <color>`.

    The result is canonical; every color in 1..p must occur on some edge.
    """
    edges = []
    records = {"e": lambda fields, lineno: edges.append(tuple(_int_fields(fields, lineno, 3)))}
    n, m, p, k = _read(text, "cmc n m p k", records)
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    with _as_format_error():
        g = ColoredMultigraph(n, tuple(edges), p, k).canonical()
        g.require_full_palette()
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

    Text that write_dcmc would emit is read block by block with numpy and
    kept only if the writer renders the result back to exactly that text;
    any other text, and every malformed one, goes through the line parser,
    which is the only source of error messages."""
    dual = _parse_dcmc_canonical(text)
    return dual if dual is not None else _parse_dcmc_lines(text)


def _parse_dcmc_canonical(text: str) -> DualCmcInstance | None:
    """The instance that write_dcmc renders to exactly `text`, else None.

    The header's integers and each block's numbers are read as tokens, a
    block's into its slice of one rows array, and the writer then decides
    the layout: a wrong keyword, label, count or separator, an unsorted
    block and a value numpy clamps to the int64 maximum all render
    differently. The render is compared piece by piece, so no second copy
    of the text is built."""
    lines = text.count("\n")
    offsets = [0]
    cut = text.find("\ng ")
    try:
        _, n, p, a = text[: cut if cut >= 0 else None].split(" ")
        if not 0 <= int(p) < lines:
            return None
        # the header, each block label and each row hold one line apiece
        rows = np.empty((lines - 1 - int(p), 2), dtype=np.int64)
        with warnings.catch_warnings():
            # numpy warns, or raises, when a token is not an integer
            warnings.simplefilter("error", DeprecationWarning)
            while cut >= 0:
                end = text.find("\ng ", cut + 3)
                body = text[cut + 3 : end if end >= 0 else None].partition("\n")[2]
                block = np.fromstring(body.replace("e", " "), dtype=np.int64, sep=" ").reshape(-1, 2)
                offsets.append(offsets[-1] + len(block))
                rows[offsets[-2] : offsets[-1]] = block
                cut = end
        # from_rows refuses offsets that miss len(rows); an overrun may raise first
        dual = DualCmcInstance.from_rows(int(n), rows, offsets, int(a))
    except (ValueError, DeprecationWarning):
        return None
    at = 0
    for piece in _dcmc_pieces(dual):
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    return dual if at == len(text) else None


def _parse_dcmc_lines(text: str) -> DualCmcInstance:
    """parse_dcmc for any layout: one pass over the lines."""
    graphs: list[set[tuple[int, int]]] = []

    def block(fields, lineno):
        (i,) = _int_fields(fields, lineno, 1)
        if i != len(graphs) + 1:
            raise FormatError(f"line {lineno}: color graphs must appear in order, got g {i}")
        graphs.append(set())

    def edge(fields, lineno):
        if not graphs:
            raise FormatError(f"line {lineno}: edge before any 'g' block")
        u, v = _int_fields(fields, lineno, 2)
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        graphs[-1].add((u, v) if u < v else (v, u))

    n, p, a = _read(text, "dcmc n p a", {"g": block, "e": edge})
    if len(graphs) != p:
        raise FormatError(f"header promises {p} color graphs, found {len(graphs)}")
    with _as_format_error():
        return DualCmcInstance(n, tuple(graphs), a)


# rows write_dcmc renders per numpy pass; bounds its scratch arrays
_WRITE_CHUNK_ROWS = 8192
_ZERO, _SPACE, _NEWLINE, _E = (ord(c) for c in "0 \ne")
# 10, 100, ..., 10**18: a value's digit count is one more than the number
# of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def write_dcmc(d: DualCmcInstance) -> str:
    return "".join(_dcmc_pieces(d))


def _dcmc_pieces(d: DualCmcInstance):
    """write_dcmc's text in order, piece by piece: the `e u v` lines are
    rendered from d.edges with numpy, a chunk of rows at a time, and each
    `g i` header is yielded where block i starts."""
    yield f"dcmc {d.vertex_count} {d.p} {d.a}\n"
    starts = d.offsets[:-1].tolist()
    block = 0
    for lo in range(0, len(d.edges), _WRITE_CHUNK_ROWS):
        text, row_at = _edge_lines(d.edges[lo : lo + _WRITE_CHUNK_ROWS])
        hi = lo + len(row_at) - 1
        cut = 0
        while block < d.p and starts[block] < hi:
            at = int(row_at[starts[block] - lo])
            yield text[cut:at]
            block += 1
            yield f"g {block}\n"
            cut = at
        yield text[cut:]
    for i in range(block + 1, d.p + 1):
        yield f"g {i}\n"


def _edge_lines(edges: np.ndarray) -> tuple[str, np.ndarray]:
    """The lines `e u v` of an (m, 2) array of nonnegative values, and the
    offset of each line in them followed by their total length."""
    values = edges.ravel()
    top = int(values.max(initial=0))
    digits = np.ones(len(values), dtype=np.int64)
    for power in _POWERS_OF_TEN[_POWERS_OF_TEN <= top]:
        digits += values >= power
    du, dv = digits[0::2], digits[1::2]
    row_at = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum(du + dv + 4, out=row_at[1:])  # "e u v\n" is du + dv + 4 bytes long
    buf = np.empty(row_at[-1], dtype=np.uint8)
    starts, ends = row_at[:-1], row_at[1:]
    buf[starts] = _E
    buf[starts + 1] = _SPACE
    buf[starts + 2 + du] = _SPACE
    buf[ends - 1] = _NEWLINE
    # each value's digits are written from its last byte back, values % 10
    # at a time, until its quotient is 0; 32-bit division is faster
    last = np.empty(len(values), dtype=np.int64)
    last[0::2] = starts + 1 + du
    last[1::2] = ends - 2
    if top < 2**32:
        values = values.astype(np.uint32)
    while len(values):
        quotient = values // 10
        buf[last] = (values - quotient * 10 + _ZERO).astype(np.uint8)
        more = quotient > 0
        values, last = quotient[more], last[more] - 1
    return buf.tobytes().decode("ascii"), row_at


# ---------------------------------------------------------------------------
# Partitioned subgraph isomorphism
# ---------------------------------------------------------------------------


def parse_psi(text: str) -> PsiInstance:
    """`psi <h> <n>` header, then `pe <x> <y>` pattern edges, `block <x>
    <v...>` block contents (one per pattern vertex), and `he <u> <v>` host
    edges, in any order after the header."""
    pattern_edges = set()
    blocks: dict[int, tuple[int, ...]] = {}
    host_edges = set()

    def pattern_edge(fields, lineno):
        x, y = _int_fields(fields, lineno, 2)
        pattern_edges.add((x, y) if x < y else (y, x))

    def block(fields, lineno):
        (x,) = _int_fields(fields[:1], lineno, 1)
        if x in blocks:
            raise FormatError(f"line {lineno}: block {x} given twice")
        blocks[x] = tuple(sorted(_int_fields(fields[1:], lineno)))

    def host_edge(fields, lineno):
        u, v = _int_fields(fields, lineno, 2)
        host_edges.add((u, v) if u < v else (v, u))

    h, n = _read(text, "psi h n", {"pe": pattern_edge, "block": block, "he": host_edge})
    if len(blocks) != h or sorted(blocks) != list(range(h)):
        raise FormatError("need exactly one block per pattern vertex 0..h-1")
    with _as_format_error():
        return PsiInstance(
            h,
            tuple(sorted(pattern_edges)),
            n,
            tuple(blocks[x] for x in range(h)),
            frozenset(host_edges),
        )


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
    with _as_format_error():
        return CnfFormula(n_vars, tuple(clauses))


def write_cnf(f: CnfFormula) -> str:
    lines = [f"p cnf {f.variable_count} {len(f.clauses)}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in f.clauses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plain graphs
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """`graph <n> <m>` header plus `e <u> <v>` lines."""
    edges = []
    records = {"e": lambda fields, lineno: edges.append(tuple(_int_fields(fields, lineno, 2)))}
    n, m = _read(text, "graph n m", records)
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    with _as_format_error():
        return Graph.make(n, edges)


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
    domains: dict[int, tuple[str, ...]] = {}
    constraints: list[tuple[int, int, list[tuple[str, str]]]] = []

    def domain(fields, lineno):
        (i,) = _int_fields(fields[:1], lineno, 1)
        if i in domains:
            raise FormatError(f"line {lineno}: domain {i} given twice")
        domains[i] = tuple(fields[1:])

    def constraint(fields, lineno):
        i, j = _int_fields(fields[:2], lineno, 2)
        pairs = []
        for pair in fields[2:]:
            parts = pair.split("|")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: bad pair {pair!r}")
            pairs.append((parts[0], parts[1]))
        constraints.append((i, j, pairs))

    (n_vars,) = _read(text, "csp nvars", {"dom": domain, "con": constraint})
    if len(domains) != n_vars or sorted(domains) != list(range(n_vars)):
        raise FormatError("need one 'dom' line per variable 0..nvars-1")
    csp = BinaryCsp([domains[i] for i in range(n_vars)])
    with _as_format_error():
        for i, j, pairs in constraints:
            csp.constrain(i, j, pairs)
        csp.validate()
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

    host_edges = []
    branch: dict[int, frozenset[int]] = {}
    zeta: dict[int, int] = {}

    def branch_set(fields, lineno):
        (v,) = _int_fields(fields[:1], lineno, 1)
        if v in branch:
            raise FormatError(f"line {lineno}: branch {v} given twice")
        branch[v] = frozenset(_int_fields(fields[1:], lineno))

    def bucket(fields, lineno):
        v, w = _int_fields(fields, lineno, 2)
        if v in zeta:
            raise FormatError(f"line {lineno}: zeta {v} given twice")
        zeta[v] = w

    records = {
        "host": lambda fields, lineno: host_edges.append(tuple(_int_fields(fields, lineno, 2))),
        "branch": branch_set,
        "zeta": bucket,
    }
    n, m, branch_count, ell = _read(text, "embed n m branches ell", records)
    if len(host_edges) != m or len(branch) != branch_count:
        raise FormatError("header counts do not match the records")
    with _as_format_error():
        return Embedding(Graph.make(n, host_edges), branch, zeta, ell)


def write_gadget_map(color_map) -> str:
    """`gadgetmap <p>` plus `color <i> <alpha> <vx> <vy>` provenance lines."""
    lines = [f"gadgetmap {len(color_map)}"]
    for i, (alpha, vx, vy) in enumerate(color_map, 1):
        lines.append(f"color {i} {alpha} {vx} {vy}")
    return "\n".join(lines) + "\n"


def parse_gadget_map(text: str) -> tuple[tuple[int, int, int], ...]:
    rows: list[tuple[int, int, int]] = []

    def color(fields, lineno):
        i, alpha, vx, vy = _int_fields(fields, lineno, 4)
        if i != len(rows) + 1:
            raise FormatError(f"line {lineno}: colors must appear in order")
        rows.append((alpha, vx, vy))

    (p,) = _read(text, "gadgetmap p", {"color": color})
    if len(rows) != p:
        raise FormatError("header promises a different color count")
    return tuple(rows)


def render_report(pairs) -> str:
    """Stable key=value lines for CLI and pipeline reports."""
    return "\n".join(f"{key}={value}" for key, value in pairs) + "\n"
