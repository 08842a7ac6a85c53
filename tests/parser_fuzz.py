"""Mutation fuzzing of the text parsers and the CLI that reads them.

Each example takes a valid seed file and applies one to three mutations:
truncate a line, swap an integer for a huge, negative or non-integer token,
drop a line, or duplicate one. The parser must return or raise FormatError,
and every command that reads the format must exit 2 on every file the
parser rejects. The commands also run on every file the parser accepts and
must exit 0, 1 or 2: the oracle caps bound the work of `solve`, the
incidence graph cap that of `reduce sat2csp` and `reduce sat2dcmc`, the
dual row cap that of `reduce psi2dcmc`, and a vertex cap that of `embed`,
`reduce route` and `reduce csp2psi`.

parse_dcmc reads text in write_dcmc's exact layout with numpy and hands
anything else to its line parser. On every dcmc mutant, and on mutants of
a file in that layout, the two must agree: equal instances, or FormatError
with the same message. Fixed near-canonical layouts must miss the fast path.

Run as a script, `PYTHONPATH=src python tests/parser_fuzz.py [max_examples]`,
under a memory limit, so that an allocation sized by a header count fails
as a MemoryError instead of exhausting the machine;
tests/test_cli.py::test_mutated_files_keep_exit_codes does this.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colorcut import cli, formats

CSP = "csp 2\ndom 0 a b\ndom 1 a b\ncon 0 1 a|b b|a\n"

# format: (parser, seed text, commands, each a list of CLI arguments with
# FILE for the mutated file)
SEEDS = {
    "cmc": (
        formats.parse_cmc,
        "cmc 3 3 2 1\ne 0 1 1\ne 1 2 2\ne 0 2 2\n",
        [["solve", "cmc", "FILE"]],
    ),
    "dcmc": (
        formats.parse_dcmc,
        "dcmc 3 2 1\ng 1\ne 0 1\ng 2\ne 1 2\ne 0 2\n",
        [["solve", "dcmc", "FILE"]],
    ),
    "psi": (
        formats.parse_psi,
        "psi 2 2\npe 0 1\nblock 0 0 1\nblock 1 2 3\nhe 0 2\nhe 1 3\n",
        [["solve", "psi", "FILE"], ["reduce", "psi2dcmc", "FILE", "-o", "OUT"]],
    ),
    "cnf": (
        formats.parse_cnf,
        "p cnf 3 2\n1 -2 3 0\n2 0\n",
        [
            ["solve", "cnf", "FILE"],
            ["reduce", "sat2csp", "FILE", "-o", "OUT"],
            ["reduce", "sat2dcmc", "FILE", "-o", "OUT"],
        ],
    ),
    "csp": (formats.parse_csp, CSP, [["solve", "csp", "FILE"]]),
    "graph": (
        formats.parse_graph,
        "graph 4 3\ne 0 1\ne 1 2\ne 2 3\n",
        [["embed", "FILE", "-k", "8", "-o", "OUT"]],
    ),
    "embedding": (
        formats.parse_embedding,
        "embed 2 1 2 2\nhost 0 1\nbranch 0 0\nbranch 1 1\nzeta 0 0\nzeta 1 1\n",
        [
            ["reduce", "route", "CSP", "--embed", "FILE", "-o", "OUT"],
            ["reduce", "csp2psi", "CSP", "--embed", "FILE", "-o", "OUT"],
        ],
    ),
    "gadgetmap": (
        formats.parse_gadget_map,
        "gadgetmap 2\ncolor 1 1 0 2\ncolor 2 1 1 3\n",
        [],
    ),
}

BAD_INTEGERS = ["99999999999", "-1", "-99999999999", "x", "1.5", "0"]

# what write_dcmc emits, empty block included
CANONICAL_DCMC = "dcmc 4 3 2\ng 1\ne 0 1\ne 1 3\ng 2\ng 3\ne 0 2\ne 2 3\n"

# one step away from write_dcmc's layout: the fast path must decline each
NEAR_CANONICAL_DCMC = [
    "dcmc 4 1 1\ng 1\ne 0 1 e\n2 3\n",  # tokens shifted across lines
    "dcmc 4 1 1\ng 1\ne 0 1 # comment\ne 2 3\n",
    "# comment\ndcmc 4 1 1\ng 1\ne 0 1\n",
    "dcmc 4 1 1\r\ng 1\r\ne 0 1\r\ne 2 3\r\n",  # CRLF line ends
    "dcmc 4 1 1\ng 1\ne 01 2\n",
    "dcmc 4 1 1\ng 1\ne 2 1\n",
    "dcmc 4 1 1\ng 1\ne 2 3\ne 0 1\n",  # unsorted
    "dcmc 4 1 1\ng 1\ne 0 1\ne 0 1\n",  # duplicate
    "dcmc 4 1 1\ng 1\ne 0 1\n\n",  # trailing blank line
    "dcmc 4 1 1\ng 1\ne 0 1",  # no final newline
    "dcmc 4 1 1\ng 1\ne  0 1\n",
    "dcmc 4 1 1\ng 1\ne +0 1\n",
    "dcmc 4 1 1\ng 1\ne 0 1.0\n",
    "dcmc 4 1 1\ng 1\ne 0 99999999999999999999\n",
    "dcmc 4 2 1\ng 1\n\ng 2\ne 0 1\n",
    "dcmc 4 1  1\ng 1\ne 0 1\n",
    "dcmc 4 2 1\ng 2\ne 0 1\ng 1\n",  # block labels swapped
    "dcmc 4 1 1\ng 1\ng 0 1\n",  # a g line where an e line belongs
    "dcmx 4 1 1\ng 1\ne 0 1\n",
    "dcmc 4 2 1\ng 1\ne 0 1\n",  # more blocks promised than given
]


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


@st.composite
def mutated_files(draw):
    name = draw(st.sampled_from(sorted(SEEDS)))
    return name, draw(mutated_text(SEEDS[name][1]))


@st.composite
def mutated_text(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        # the header line holds the counts, so it gets half of the draws
        i = draw(st.just(0) | st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        kind = draw(st.sampled_from(["swap", "swap", "truncate", "drop", "duplicate"]))
        if kind == "truncate":
            lines[i] = " ".join(fields[: draw(st.integers(0, max(len(fields) - 1, 0)))])
        elif kind == "swap":
            ints = [j for j, f in enumerate(fields) if _is_int(f)]
            if ints:
                fields[draw(st.sampled_from(ints))] = draw(st.sampled_from(BAD_INTEGERS))
                lines[i] = " ".join(fields)
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "".join(line + "\n" for line in lines)


def _outcome(parser, text: str):
    try:
        return parser(text)
    except formats.FormatError as exc:
        return f"FormatError: {exc}"


def check_dcmc_paths_agree(text: str) -> None:
    fast, lines = _outcome(formats.parse_dcmc, text), _outcome(formats._parse_dcmc_lines, text)
    assert fast == lines, (text, fast, lines)


def check(name: str, text: str, workdir: Path) -> None:
    parser, _, commands = SEEDS[name]
    if name == "dcmc":
        check_dcmc_paths_agree(text)
    try:
        parser(text)
        rejected = False
    except formats.FormatError:
        rejected = True
    path = workdir / name
    path.write_text(text)
    (workdir / "base.csp").write_text(CSP)
    paths = {"FILE": str(path), "CSP": str(workdir / "base.csp"), "OUT": str(workdir / "out")}
    for argv in commands:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([paths.get(arg, arg) for arg in argv])
        assert code in (0, 1, 2), (argv, text, code)
        if rejected:
            assert code == 2, (argv, text, code, sink.getvalue())


def run(max_examples: int) -> None:
    fuzz = settings(
        max_examples=max_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)

        @fuzz
        @given(mutated_files())
        def property_(case):
            check(*case, workdir)

        property_()

    assert formats._parse_dcmc_canonical(CANONICAL_DCMC) is not None
    for text in NEAR_CANONICAL_DCMC:
        assert formats._parse_dcmc_canonical(text) is None, text
        check_dcmc_paths_agree(text)

    @fuzz
    @given(mutated_text(CANONICAL_DCMC))
    def canonical_property(text):
        check_dcmc_paths_agree(text)

    canonical_property()


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
