import random
import re
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from colorcut import formats
from colorcut.embedding import embed, validate_embedding
from colorcut.formats import (
    FormatError,
    parse_cmc,
    parse_cnf,
    parse_csp,
    parse_dcmc,
    parse_embedding,
    parse_gadget_map,
    parse_graph,
    parse_psi,
    render_report,
    write_cmc,
    write_cnf,
    write_csp,
    write_dcmc,
    write_embedding,
    write_gadget_map,
    write_graph,
    write_psi,
)
from colorcut.gadgets import reduce_psi_to_dcmc
from colorcut.graphs import Graph, random_max_degree3_graph
from colorcut.instances import (
    BinaryCsp,
    CnfFormula,
    ColoredMultigraph,
    DualCmcInstance,
    PsiInstance,
    solve_csp_bruteforce,
)
from colorcut.verify import random_cmc, random_formula


def test_cmc_round_trip_and_comments():
    text = """
    # a colored multigraph
    cmc 3 3 2 1
    e 0 1 1   # first color
    e 1 2 2
    e 0 2 2
    """
    g = parse_cmc(text)
    assert g == ColoredMultigraph(3, ((0, 1, 1), (0, 2, 2), (1, 2, 2)), 2, 1)
    assert parse_cmc(write_cmc(g)) == g


def test_cmc_write_is_fixpoint():
    rng = random.Random(2)
    for _ in range(20):
        g = random_cmc(rng)
        text = write_cmc(g)
        assert write_cmc(parse_cmc(text)) == text


def test_cmc_parse_errors():
    with pytest.raises(FormatError):
        parse_cmc("")
    with pytest.raises(FormatError):
        parse_cmc("cmc 2 1 1 0\n")  # promised edge missing
    with pytest.raises(FormatError):
        parse_cmc("cmc 2 1 2 0\ne 0 1 1\n")  # color 2 unused
    with pytest.raises(FormatError):
        parse_cmc("cmc 2 1 1 0\nx 0 1\n")
    with pytest.raises(FormatError):
        parse_cmc("cmc 2 1 1 0\ne 0 z 1\n")


def test_dcmc_round_trip():
    d = reduce_psi_to_dcmc(
        PsiInstance(2, ((0, 1),), 1, ((0,), (1,)), frozenset({(0, 1)}))
    ).dual
    text = write_dcmc(d)
    assert parse_dcmc(text) == d
    assert write_dcmc(parse_dcmc(text)) == text


def test_dcmc_empty_color_graphs_allowed():
    d = parse_dcmc("dcmc 2 2 1\ng 1\ng 2\ne 0 1\n")
    assert [g.tolist() for g in d.color_graphs] == [[], [[0, 1]]]


def test_dcmc_parse_tolerates_layout():
    text = """
    # header, blocks and edges with comments, blanks and extra whitespace
    dcmc   4 2 1   # four vertices

    g 1
      e 2 0
    e 0 2	# the same edge again
    e 3   1
    g 2 # second block
    e 1 3
    e 3 1
    """
    d = parse_dcmc(text)
    assert [g.tolist() for g in d.color_graphs] == [[[0, 2], [1, 3]], [[1, 3]]]
    assert write_dcmc(d) == "dcmc 4 2 1\ng 1\ne 0 2\ne 1 3\ng 2\ne 1 3\n"


def test_dcmc_parse_errors():
    with pytest.raises(FormatError):
        parse_dcmc("dcmc 2 1 1\ng 2\n")  # blocks must start at 1
    with pytest.raises(FormatError):
        parse_dcmc("dcmc 2 2 1\ng 1\n")  # promised two graphs
    with pytest.raises(FormatError):
        parse_dcmc("dcmc 2 1 1\ne 0 1\ng 1\n")  # edge before block
    with pytest.raises(FormatError):
        parse_dcmc("dcmc 2 1 1\ng 1\ne 1 1\n")  # self-loop


def test_dcmc_fast_path_checks_bytes():
    # multi-digit values in several blocks take the numpy path
    d = DualCmcInstance(1000, ([(0, 9), (9, 10), (99, 999)], [], [(5, 100)]), 2)
    text = write_dcmc(d)
    assert formats._parse_dcmc_canonical(text) == d
    # a leading zero, and a value numpy clamps to the int64 maximum, must
    # miss it; the line parser then decides
    assert formats._parse_dcmc_canonical("dcmc 1000 1 1\ng 1\ne 0 010\n") is None
    clamped = "dcmc 99999999999999999999 1 1\ng 1\ne 0 9999999999999999999\n"
    assert formats._parse_dcmc_canonical(clamped) is None
    with pytest.raises(FormatError, match="beyond the int64 range"):
        parse_dcmc(clamped)


def test_dcmc_fast_path_reads_the_rows_once():
    # the top sat-chain rung: 144 blocks, 128,592 rows (2.06 MB as int64).
    # Reading each block into one rows array peaks near the rows; a list of
    # per-block arrays and its concatenation, beside the split text, took
    # 5.9 MB
    n = 144
    blocks = (tuple(range(n)), tuple(range(n, 2 * n)))
    admissible = sorted((u, v) for u in blocks[0] for v in blocks[1])
    host = frozenset(random.Random(n).sample(admissible, n))
    dual = reduce_psi_to_dcmc(PsiInstance(2, ((0, 1),), n, blocks, host)).dual
    assert dual.p == 144 and len(dual.edges) == 128_592
    text = write_dcmc(dual)
    tracemalloc.start()
    try:
        parsed = parse_dcmc(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == dual
    assert peak < 4_500_000


def _dual_of_sizes(sizes, rng):
    """A dual whose color graphs hold the given numbers of random rows."""
    graphs = []
    for size in sizes:
        u = np.sort(np.array(rng.sample(range(10**9), size), dtype=np.int64))
        gap = np.array([rng.randrange(10 ** rng.randint(0, 9)) for _ in range(size)])
        graphs.append(np.stack([u, u + 1 + gap], axis=1).reshape(-1, 2))
    return DualCmcInstance(10**10, tuple(graphs), 1)


def test_write_dcmc_matches_formatted_writer():
    chunk = formats._WRITE_CHUNK_ROWS
    rng = random.Random(21)
    top = 2**63 - 1
    duals = [
        DualCmcInstance(3, (), 0),  # p = 0
        DualCmcInstance(3, ((), (), ()), 2),  # only empty color graphs
        DualCmcInstance(
            2**63, (((0, top), (10**18, top - 1)), (), ((9, 10), (99, 10**18))), 1
        ),  # 19-digit ids
        _dual_of_sizes([0, 3, 0, 0, 2, 0], rng),
        _dual_of_sizes([2 * chunk + 5], rng),  # more rows than one chunk
        _dual_of_sizes([chunk, 0, chunk, 1], rng),  # blocks start on chunk boundaries
        _dual_of_sizes([chunk - 1, 1, 0, chunk + 1], rng),
    ]
    for d in duals:
        text = write_dcmc(d)
        assert text == oracles.write_dcmc_formatted(d)
        assert formats._parse_dcmc_canonical(text) == d
        assert parse_dcmc(text) == d


def test_psi_round_trip():
    inst = PsiInstance(
        2, ((0, 1),), 2, ((0, 1), (2, 3)), frozenset({(0, 2), (1, 3)})
    )
    text = write_psi(inst)
    assert parse_psi(text) == inst
    assert write_psi(parse_psi(text)) == text


def test_psi_parse_errors():
    with pytest.raises(FormatError):
        parse_psi("psi 2 1\npe 0 1\nblock 0 0\n")  # block 1 missing
    with pytest.raises(FormatError):
        parse_psi("psi 2 1\npe 0 1\nblock 0 0\nblock 0 1\n")  # duplicate block
    with pytest.raises(FormatError):
        parse_psi("psi 2 1\npe 0 1\nblock 0 0\nblock 1 1\nhe 0 0\n")


def test_cnf_dimacs_quirks():
    text = """c a comment
p cnf 3 2
1 -2
3 0
2 0
% trailing garbage section
0
"""
    f = parse_cnf(text)
    assert f == CnfFormula(3, ((1, -2, 3), (2,)))
    assert parse_cnf(write_cnf(f)) == f


def test_cnf_parse_errors():
    with pytest.raises(FormatError):
        parse_cnf("1 0\n")  # clause before header
    with pytest.raises(FormatError):
        parse_cnf("p cnf 1 1\n1\n")  # unterminated clause
    with pytest.raises(FormatError):
        parse_cnf("p cnf 1 2\n1 0\n")  # clause count mismatch
    with pytest.raises(FormatError):
        parse_cnf("p cnf 1 1\n1 1 0\n")  # repeated variable


def test_graph_round_trip():
    g = Graph.make(4, [(0, 1), (2, 3), (0, 3)])
    text = write_graph(g)
    assert parse_graph(text) == g
    assert write_graph(parse_graph(text)) == text
    with pytest.raises(FormatError):
        parse_graph("graph 2 1\n")


def test_csp_round_trip_preserves_decision():
    csp = BinaryCsp([(0, 1, 2), (0, 1)])
    csp.constrain(0, 1, {(0, 1), (2, 0)})
    text = write_csp(csp)
    back = parse_csp(text)
    # values become strings, decisions agree
    assert back.domains == [("0", "1", "2"), ("0", "1")]
    assert back.constraints == {(0, 1): frozenset({("0", "1"), ("2", "0")})}
    assert (
        solve_csp_bruteforce(back).decision == solve_csp_bruteforce(csp).decision
    )
    assert write_csp(parse_csp(text)) == text


def test_csp_tuple_values_tokenize():
    csp = BinaryCsp([((False, 1), (True, 2)), ((0,),)])
    csp.constrain(0, 1, {((False, 1), (0,))})
    back = parse_csp(write_csp(csp))
    assert back.domains[0] == ("(False,1)", "(True,2)")
    assert solve_csp_bruteforce(back).decision


def test_csp_parse_errors():
    with pytest.raises(FormatError):
        parse_csp("csp 1\n")  # missing domain
    with pytest.raises(FormatError):
        parse_csp("csp 1\ndom 0 a\ncon 0 0 a|a\n")
    with pytest.raises(FormatError):
        parse_csp("csp 2\ndom 0 a\ndom 1 b\ncon 0 1 a-b\n")  # bad pair syntax
    with pytest.raises(FormatError):
        parse_csp("csp 2\ndom 0 a\ndom 1 b\ncon 0 1 a|c\n")  # value outside domain


def test_embedding_round_trip():
    rng = random.Random(4)
    graph = random_max_degree3_graph(40, 50, rng)
    emb = embed(graph, 10, seed=1)
    text = write_embedding(emb)
    back = parse_embedding(text)
    assert back.host == emb.host
    assert back.branch_sets == emb.branch_sets
    assert back.zeta == emb.zeta
    assert back.ell == emb.ell
    assert back.depth == emb.depth
    validate_embedding(back, graph)
    assert write_embedding(back) == text


def test_embedding_parse_errors():
    with pytest.raises(FormatError):
        parse_embedding("embed 1 0 1 1\nbranch 0 0\nbranch 0 0\nzeta 0 0\n")
    with pytest.raises(FormatError):
        parse_embedding("embed 1 1 0 1\n")  # promised a host edge
    with pytest.raises(FormatError, match="line 4: zeta 0 given twice"):
        parse_embedding("embed 1 0 1 1\nbranch 0 0\nzeta 0 0\nzeta 0 1\n")


def test_gadget_map_round_trip():
    red = reduce_psi_to_dcmc(
        PsiInstance(2, ((0, 1),), 2, ((0, 1), (2, 3)), frozenset({(0, 2), (1, 3)}))
    )
    text = write_gadget_map(red.color_map)
    assert parse_gadget_map(text) == red.color_map
    with pytest.raises(FormatError):
        parse_gadget_map("gadgetmap 1\ncolor 2 1 0 1\n")  # out of order


# parser, a valid header line, the header template its messages name
READERS = [
    (parse_cmc, "cmc 3 3 2 1", "cmc n m p k"),
    (parse_dcmc, "dcmc 3 2 1", "dcmc n p a"),
    (parse_psi, "psi 2 2", "psi h n"),
    (parse_graph, "graph 4 3", "graph n m"),
    (parse_csp, "csp 2", "csp nvars"),
    (parse_embedding, "embed 1 0 1 1", "embed n m branches ell"),
    (parse_gadget_map, "gadgetmap 2", "gadgetmap p"),
]


@pytest.mark.parametrize("parse, header, template", READERS, ids=[r[0].__name__ for r in READERS])
def test_reader_errors(parse, header, template):
    keyword = template.split()[0]
    cases = [
        (f"# comment\n\n{header} 7\n", f"line 3: expected '{template}' header"),
        (f"e 0 1\n{header}\n", f"line 1: expected '{template}' header"),
        (f"{header}\nbogus 1 2\n", "line 2: unexpected record 'bogus'"),
        (f"{header}\n{header}\n", f"line 2: unexpected record '{keyword}'"),
        ("  # nothing here\n\n", f"missing '{keyword}' header"),
        ("", f"missing '{keyword}' header"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == message, text


def test_cmc_edge_field_count():
    with pytest.raises(FormatError) as info:
        parse_cmc("cmc 2 1 1 1\ne 0 1\n")
    assert str(info.value) == "line 2: expected 3 integer fields, got ['0', '1']"


def test_render_report():
    assert render_report([("a", 1), ("b", "x")]) == "a=1\nb=x\n"


def test_formula_write_preserves_clause_order():
    f = CnfFormula(3, ((3, -1), (2,)))
    assert write_cnf(f) == "p cnf 3 2\n3 -1 0\n2 0\n"


def test_random_formula_round_trips():
    rng = random.Random(8)
    for _ in range(30):
        f = random_formula(rng)
        assert parse_cnf(write_cnf(f)) == f


# header keyword -> (parser, writer) for the README's format examples
README_FORMATS = {
    "cmc": (parse_cmc, write_cmc),
    "dcmc": (parse_dcmc, write_dcmc),
    "psi": (parse_psi, write_psi),
    "csp": (parse_csp, write_csp),
    "graph": (parse_graph, write_graph),
    "embed": (parse_embedding, write_embedding),
    "gadgetmap": (parse_gadget_map, write_gadget_map),
    "p": (parse_cnf, write_cnf),
}


def _readme_format_examples():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^( *)```\n(.*?)^\1```$", section, flags=re.M | re.S)
    return [textwrap.dedent(body) for _, body in blocks]


def test_readme_format_examples_round_trip():
    examples = _readme_format_examples()
    assert sorted(text.split()[0] for text in examples) == sorted(README_FORMATS)
    for text in examples:
        parser, writer = README_FORMATS[text.split()[0]]
        assert writer(parser(text)) == text
