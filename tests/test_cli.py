import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from colorcut import cli, embedding, flows
from colorcut.config import ENV_CONFIG_PATH, RunConfig
from colorcut.formats import (
    parse_csp,
    parse_dcmc,
    parse_embedding,
    parse_graph,
)
from colorcut.graphs import random_max_degree3_graph
from colorcut.formats import write_graph
import random


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report(stdout: str) -> dict:
    pairs = [line.split("=", 1) for line in stdout.strip().splitlines() if "=" in line]
    return {k: v for k, v in pairs}


@pytest.fixture
def files(tmp_path):
    def make(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return make


def test_solve_cnf_yes_and_no(capsys, files):
    sat = files("sat.cnf", "p cnf 2 1\n1 2 0\n")
    code, out, _ = run(capsys, "solve", "cnf", sat)
    assert code == 0
    assert report(out)["decision"] == "yes"
    assert report(out)["witness"] == "1 0"

    unsat = files("unsat.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "solve", "cnf", unsat)
    assert code == 1
    assert report(out)["decision"] == "no"
    assert "witness" not in report(out)


def test_solve_cmc(capsys, files):
    yes = files("yes.cmc", "cmc 2 1 1 1\ne 0 1 1\n")
    code, out, _ = run(capsys, "solve", "cmc", yes)
    assert code == 0
    assert report(out)["witness"] == "0"
    no = files("no.cmc", "cmc 2 1 1 0\ne 0 1 1\n")
    assert run(capsys, "solve", "cmc", no)[0] == 1


def test_solve_dcmc_psi_csp(capsys, files):
    dcmc = files("a.dcmc", "dcmc 3 1 1\ng 1\ne 0 1\n")
    code, out, _ = run(capsys, "solve", "dcmc", dcmc)
    assert code == 0
    assert report(out)["witness"] == "1"

    psi = files("a.psi", "psi 2 1\npe 0 1\nblock 0 0\nblock 1 1\nhe 0 1\n")
    code, out, _ = run(capsys, "solve", "psi", psi)
    assert code == 0
    assert report(out)["witness"] == "0 1"

    csp = files("a.csp", "csp 1\ndom 0 a b\n")
    code, out, _ = run(capsys, "solve", "csp", csp)
    assert code == 0
    assert report(out)["witness"] == "a"


def test_error_exit_codes(capsys, files, tmp_path):
    assert run(capsys, "solve", "cmc", str(tmp_path / "absent.cmc"))[0] == 2
    bad = files("bad.cmc", "not a header\n")
    assert run(capsys, "solve", "cmc", bad)[0] == 2
    sat = files("cap.cnf", "p cnf 2 1\n1 2 0\n")
    code, _, err = run(capsys, "solve", "cnf", sat, "--cap-sat-variables", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (("solve", "psi", "{bad}"), "psi 2 2\npe 0 1\nblock 0 0\nblock 1 1\nhe 0 1\nblock\n"),
        (("solve", "csp", "{bad}"), "csp 1\ndom\n"),
        (("reduce", "route", "{csp}", "--embed", "{bad}", "-o", "{out}"), "embed 1 0 1 1\nbranch\n"),
        (("solve", "dcmc", "{bad}"), "dcmc 3 1 1\ng 1\ne 0\n"),
        (("solve", "dcmc", "{bad}"), "dcmc 3 1 1\ng 1\ne 0 1 2\n"),
        (("solve", "dcmc", "{bad}"), "dcmc 3 1 1\ng\ne 0 1\n"),
        (("solve", "dcmc", "{bad}"), "dcmc 3 1 1\ng 1 2\ne 0 1\n"),
        (("embed", "{bad}", "-k", "8", "-o", "{out}"), "graph 2 1\ne 0\n"),
    ],
    ids=[
        "psi",
        "csp",
        "embedding",
        "dcmc-short-e",
        "dcmc-long-e",
        "dcmc-short-g",
        "dcmc-long-g",
        "embed",
    ],
)
def test_truncated_line_exit_code(capsys, files, tmp_path, argv, text):
    paths = {"bad": files("bad", text), "csp": files("ok.csp", "csp 1\ndom 0 a\n"), "out": str(tmp_path / "out")}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: line ")


SRC = str(Path(cli.__file__).resolve().parents[1])
MEMORY_LIMIT = 2_000_000 * 1024  # bytes of address space for child processes


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _child_env() -> dict:
    """The environment of a child that imports colorcut from this tree. BLAS
    runs single-threaded, so the child's footprint does not grow with the
    host's core count."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    return dict(os.environ, PYTHONPATH=path, **threads)


def run_limited(argv, cwd):
    """Run a Python child under an address-space limit, so that an
    allocation sized by an absurd count fails fast instead of exhausting
    the machine."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=_limit_memory,
    )


@pytest.fixture(scope="module")
def run_forked():
    """run_forked(argv, cwd) runs `colorcut *argv` in cwd like run_limited
    does, in a child forked from one rlimited process that imports colorcut
    once (tests/fork_runner.py). Each child sets its own address-space
    limit."""
    runner = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("fork_runner.py"))],
        env=_child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=_limit_memory,
    )

    def run_one(argv, cwd):
        request = {"argv": list(argv), "cwd": str(cwd), "limit": MEMORY_LIMIT}
        runner.stdin.write(json.dumps(request) + "\n")
        runner.stdin.flush()
        reply = runner.stdout.readline()
        assert reply, "the fork runner exited"
        return SimpleNamespace(**json.loads(reply))

    yield run_one
    runner.stdin.close()
    runner.wait(timeout=60)


HUGE_CNF = "p cnf 99999999999 1\n1 0\n"
HUGE_EMBEDDING = "embed 99999999999 1 2 2\nhost 0 1\nbranch 0 0\nbranch 1 1\nzeta 0 0\nzeta 1 1\n"
# small PSI files whose duals are too large to build: a 6-edge pattern
# (1 + 5 * 39^6 vertices), and a = 1 with 3,000-value blocks (5.4e7 rows)
SIX_EDGE_PSI = (
    "psi 5 2\n"
    + "".join(f"pe {x} {y}\n" for x, y in ((0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)))
    + "".join(f"block {x} {2 * x} {2 * x + 1}\n" for x in range(5))
    + "".join(f"he {u} {v}\n" for u, v in ((0, 6), (0, 8), (1, 4), (1, 8), (2, 8), (3, 8), (4, 8), (6, 8)))
)
WIDE_PSI = (
    "psi 2 3000\npe 0 1\n"
    + "".join(f"block {x} {' '.join(map(str, range(3000 * x, 3000 * x + 3000)))}\n" for x in (0, 1))
    + "".join(f"he {i} {3000 + i}\n" for i in range(3000))
)


@pytest.mark.parametrize(
    "argv,text,code,witness",
    [
        (("solve", "cmc"), "cmc 3 2 99999999999 1\ne 0 1 1\ne 1 2 1\n", 2, None),
        (("solve", "psi"), "psi 99999999999 1\nblock 0 0\n", 2, None),
        (("solve", "csp"), "csp 99999999999\ndom 0 a\n", 2, None),
        (("solve", "dcmc"), "dcmc 99999999999 1 1\ng 1\ne 0 1\n", 0, "1"),
        (("solve", "dcmc"), "dcmc 3 1 99999999999\ng 1\ne 0 1\n", 1, None),
        (("embed", "-k", "8", "-o", "{out}"), "graph 99999999999 3\ne 0 1\ne 1 2\ne 2 3\n", 2, None),
        (("embed", "-k", "99999999999", "-o", "{out}"), "graph 3 2\ne 0 1\ne 1 2\n", 2, None),
        (("reduce", "route", "{csp}", "-o", "{out}", "--embed"), HUGE_EMBEDDING, 2, None),
        (("reduce", "csp2psi", "{csp}", "-o", "{out}", "--embed"), HUGE_EMBEDDING, 2, None),
        (("reduce", "psi2dcmc", "-o", "{out}"), SIX_EDGE_PSI, 2, None),
        (("reduce", "psi2dcmc", "-o", "{out}"), WIDE_PSI, 2, None),
        (("reduce", "sat2csp", "-o", "{out}"), HUGE_CNF, 2, None),
        (("reduce", "sat2dcmc", "-o", "{out}"), HUGE_CNF, 2, None),
    ],
    ids=[
        "cmc",
        "psi",
        "csp",
        "dcmc",
        "dcmc-budget",
        "embed",
        "embed-budget",
        "route",
        "csp2psi",
        "psi2dcmc-six-edges",
        "psi2dcmc-wide-blocks",
        "sat2csp",
        "sat2dcmc",
    ],
)
def test_huge_header_counts(run_forked, tmp_path, argv, text, code, witness):
    path = tmp_path / "huge"
    path.write_text(text)
    (tmp_path / "base.csp").write_text("csp 2\ndom 0 a\ndom 1 a\n")
    paths = {"csp": str(tmp_path / "base.csp"), "out": str(tmp_path / "out")}
    args = [arg.format(**paths) for arg in argv]
    proc = run_forked([*args, str(path)], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if witness is not None:
        assert report(proc.stdout)["witness"] == witness


def test_mutated_files_keep_exit_codes(tmp_path):
    script = Path(__file__).with_name("parser_fuzz.py")
    proc = run_limited([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_reduce_sat2csp(capsys, files, tmp_path):
    cnf = files("f.cnf", "p cnf 2 2\n1 2 0\n-1 0\n")
    out_csp = str(tmp_path / "f.csp")
    code, out, _ = run(capsys, "reduce", "sat2csp", cnf, "-o", out_csp)
    assert code == 0
    info = report(out)
    assert info["output"] == out_csp
    assert info["graph"] == out_csp + ".graph"
    csp = parse_csp(open(out_csp).read())
    assert csp.variable_count == 4
    graph = parse_graph(open(out_csp + ".graph").read())
    assert graph.vertex_count == 4

    custom = str(tmp_path / "inc.graph")
    run(capsys, "reduce", "sat2csp", cnf, "-o", out_csp, "--graph-out", custom)
    assert parse_graph(open(custom).read()) == graph


@pytest.mark.parametrize(
    "stage, text", [("sat2csp", "p cnf 1 1\n1 0\n"), ("psi2dcmc", "psi 1 1\nblock 0 0\n")]
)
def test_stages_without_run_configuration_reject_it(capsys, files, tmp_path, stage, text):
    # neither stage reads a RunConfig, so its options are usage errors
    path = files("input", text)
    argv = ["reduce", stage, path, "-o", str(tmp_path / "out"), "--config", "/absent.json"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _chain(capsys, tmp_path, files, cnf_text, name):
    cnf = files(f"{name}.cnf", cnf_text)
    csp_path = str(tmp_path / f"{name}.csp")
    emb_path = str(tmp_path / f"{name}.embed")
    routed_path = str(tmp_path / f"{name}.routed.csp")
    psi_path = str(tmp_path / f"{name}.psi")
    dcmc_path = str(tmp_path / f"{name}.dcmc")

    assert run(capsys, "reduce", "sat2csp", cnf, "-o", csp_path)[0] == 0
    assert run(capsys, "embed", csp_path + ".graph", "-k", "8", "-o", emb_path)[0] == 0
    assert run(capsys, "reduce", "route", csp_path, "--embed", emb_path, "-o", routed_path)[0] == 0
    assert (
        run(capsys, "reduce", "csp2psi", csp_path, "--embed", emb_path, "-o", psi_path)[0]
        == 0
    )
    assert run(capsys, "reduce", "psi2dcmc", psi_path, "-o", dcmc_path)[0] == 0

    sat_code = run(capsys, "solve", "cnf", cnf)[0]
    routed_code = run(capsys, "solve", "csp", routed_path)[0]
    psi_code = run(capsys, "solve", "psi", psi_path)[0]
    dcmc_code = run(capsys, "solve", "dcmc", dcmc_path)[0]
    assert routed_code == psi_code == dcmc_code == sat_code
    return sat_code


def test_stage_chain_preserves_decision(capsys, files, tmp_path):
    assert _chain(capsys, tmp_path, files, "p cnf 2 1\n1 2 0\n", "sat") == 0
    assert _chain(capsys, tmp_path, files, "p cnf 1 2\n1 0\n-1 0\n", "unsat") == 1


def test_reduce_psi2dcmc_connectivizes(capsys, files, tmp_path):
    edgeless = files("lonely.psi", "psi 2 1\nblock 0 0\nblock 1 1\n")
    out = str(tmp_path / "lonely.dcmc")
    code, text, _ = run(capsys, "reduce", "psi2dcmc", edgeless, "-o", out)
    assert code == 0
    info = report(text)
    assert info["connectivized"] == "1"
    assert parse_dcmc(open(out).read()).vertex_count == int(info["dual_vertices"])
    # vacuously satisfiable either side of the reduction
    assert run(capsys, "solve", "psi", edgeless)[0] == 0
    assert run(capsys, "solve", "dcmc", out)[0] == 0

    connected = files("pair.psi", "psi 2 1\npe 0 1\nblock 0 0\nblock 1 1\nhe 0 1\n")
    out2 = str(tmp_path / "pair.dcmc")
    custom_map = str(tmp_path / "pair.map")
    code, text, _ = run(
        capsys, "reduce", "psi2dcmc", connected, "-o", out2, "--map", custom_map
    )
    assert code == 0
    info = report(text)
    assert info["connectivized"] == "0"
    assert info["map"] == custom_map
    assert open(custom_map).read().startswith("gadgetmap 1\n")


def test_reduce_sat2dcmc_and_determinism(capsys, files, tmp_path):
    cnf = files("g.cnf", "p cnf 3 2\n1 -2 0\n2 3 0\n")
    out_a = str(tmp_path / "a.dcmc")
    code, text_a, _ = run(capsys, "reduce", "sat2dcmc", cnf, "-o", out_a)
    assert code == 0
    info = report(text_a)
    assert info["variables"] == "3" and info["clauses"] == "2"
    assert info["output"] == out_a
    dual = parse_dcmc(open(out_a).read())
    assert dual.vertex_count == int(info["dual_vertices"])
    assert run(capsys, "solve", "dcmc", out_a)[0] == 0  # formula is satisfiable

    out_b = str(tmp_path / "b.dcmc")
    _, text_b, _ = run(capsys, "reduce", "sat2dcmc", cnf, "-o", out_b)
    assert open(out_a).read() == open(out_b).read()
    assert open(out_a + ".gadgetmap").read() == open(out_b + ".gadgetmap").read()
    assert text_a.replace(out_a, "") == text_b.replace(out_b, "")


# N = M = 8: 2^8 * 3^8 = 1,679,616 raw tuples on the one-vertex host, over
# the default route cap, of which 5,548 are consistent
EIGHT_BY_EIGHT = "p cnf 8 8\n" + "".join(
    " ".join(map(str, clause)) + " 0\n"
    for clause in (
        (4, -3, 8), (4, -7, 5), (-8, -4, 7), (-8, -2, 1),
        (-7, 6, -1), (7, 5, 4), (-2, 4, -6), (2, 5, -1),
    )
)


def test_sat2dcmc_routes_consistent_tuples_to_the_dual_cap(capsys, files, tmp_path):
    # the 5,548 consistent tuples route, and the dual cap refuses their dual
    # of about 6 * 5548^2 rows
    cnf = files("eight.cnf", EIGHT_BY_EIGHT)
    code, _, err = run(capsys, "reduce", "sat2dcmc", cnf, "-o", str(tmp_path / "out"))
    assert code == 2
    assert "gadget rows exceed the dual cap" in err


def test_route_cap_refuses_before_the_product(capsys, files, tmp_path):
    # 40 variables and one clause: 3 * 2^40 raw tuples, and the layer of the
    # first 10 variables is the first over a cap of 1,000
    cnf = files("wide.cnf", "p cnf 40 1\n1 2 3 0\n")
    config = files("cap.json", json.dumps({"cap_csp_assignments": 1000}))
    start = time.perf_counter()
    code, _, err = run(
        capsys, "reduce", "sat2dcmc", cnf, "-o", str(tmp_path / "out"), "--config", config
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "more than 1000 tuples on its first 10 of 41 members" in err


def test_embed_command(capsys, tmp_path):
    rng = random.Random(3)
    graph = random_max_degree3_graph(40, 50, rng)
    src = tmp_path / "g.graph"
    src.write_text(write_graph(graph))
    out = str(tmp_path / "g.embed")
    code, text, _ = run(capsys, "embed", str(src), "-k", "12", "-o", out)
    assert code == 0
    info = report(text)
    assert info["audit_bounded"] == "1"
    assert info["ell"] == "3"
    emb = parse_embedding(open(out).read())
    assert emb.host.vertex_count == 3
    assert int(info["depth"]) == emb.depth


def test_embed_failure_exit_code(capsys, tmp_path):
    rng = random.Random(4)
    graph = random_max_degree3_graph(60, 80, rng)
    src = tmp_path / "big.graph"
    src.write_text(write_graph(graph))
    code, _, err = run(
        capsys,
        "embed",
        str(src),
        "-k",
        "12",
        "-o",
        str(tmp_path / "x.embed"),
        "--big-c-hat",
        "0.01",
        "--embed-retries",
        "2",
    )
    assert code == 1
    assert "embedding failed" in err


def test_unsolvable_flow_lp_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(embedding, "_FLOW_CACHE", {})
    class Unsolved(flows.highs._Highs):
        def getModelStatus(self):
            return flows.highs.HighsModelStatus.kInfeasible

    monkeypatch.setattr(flows.highs, "_Highs", Unsolved)
    src = tmp_path / "g.graph"
    src.write_text(write_graph(random_max_degree3_graph(40, 50, random.Random(3))))
    code, _, err = run(capsys, "embed", str(src), "-k", "40", "-o", str(tmp_path / "g.embed"))
    assert code == 1
    assert err == "error: LP solver failed: Infeasible\n"


def test_embed_on_an_expander_with_solver_noise(tmp_path):
    # k = 152 builds the default 38-vertex expander, whose LP optimum leaves
    # arc flows just above the path decomposition's noise floor
    src = tmp_path / "g.graph"
    src.write_text(write_graph(random_max_degree3_graph(152, 152, random.Random(0))))
    proc = run_limited(["-m", "colorcut", "embed", str(src), "-k", "152", "-o", str(tmp_path / "g.embed")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert report(proc.stdout)["ell"] == "38"


def test_verify_suites_cli(capsys):
    code, out, _ = run(capsys, "verify", "duality", "--trials", "5")
    assert code == 0
    assert out.strip().splitlines()[-1] == "ok=1"
    assert "duality_ok=1" in out

    code, out, _ = run(capsys, "verify", "pipeline", "--trials", "3")
    assert code == 0
    assert "pipeline_ok=1" in out

    code, out, _ = run(capsys, "verify", "embedding", "--trials", "5")
    assert code == 0
    assert "embedding_ok=1" in out


def test_calibrate_cli(capsys):
    code, out, _ = run(capsys, "calibrate", "--trials", "3")
    assert code == 0
    info = report(out)
    assert "c_hat_observed" in info
    assert info["calibration_ok"] == "1"


def test_config_file_and_override(capsys, files, tmp_path):
    cnf = files("h.cnf", "p cnf 2 1\n1 2 0\n")
    conf = files("conf.json", json.dumps({"seed": 4}))
    out = str(tmp_path / "h.dcmc")
    _, text, _ = run(capsys, "reduce", "sat2dcmc", cnf, "-o", out, "--config", conf)
    assert report(text)["seed"] == "4"
    _, text, _ = run(
        capsys, "reduce", "sat2dcmc", cnf, "-o", out, "--config", conf, "--seed", "6"
    )
    assert report(text)["seed"] == "6"


def test_config_file_with_removed_lp_tolerance_exits_2(capsys, files, tmp_path):
    cnf = files("h.cnf", "p cnf 2 1\n1 2 0\n")
    conf = files("old.json", json.dumps({"seed": 4, "lp_tolerance": 1e-6}))
    out = str(tmp_path / "h.dcmc")
    code, _, err = run(capsys, "reduce", "sat2dcmc", cnf, "-o", out, "--config", conf)
    assert code == 2
    assert "lp_tolerance" in err


# one valid non-default value per RunConfig field; float fields get
# non-integral values, so a float default written as an int fails to parse
FLAG_VALUES = {
    "seed": 7,
    "trials": 3,
    "cap_cmc_vertices": 20,
    "cap_dual_combinations": 999,
    "cap_psi_assignments": 998,
    "cap_csp_assignments": 997,
    "cap_sat_variables": 12,
    "expander_exhaustive_cap": 8,
    "expander_target": 0.25,
    "expander_seed": 3,
    "expander_retries": 5,
    "embed_retries": 4,
    "c_hat": 2.5,
    "big_c_hat": 4.5,
}


def test_flag_values_cover_every_field():
    assert list(FLAG_VALUES) == [f.name for f in fields(RunConfig)]


@pytest.mark.parametrize("name", list(FLAG_VALUES))
def test_config_flag_reaches_config(monkeypatch, name):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    value = FLAG_VALUES[name]
    assert value != getattr(RunConfig(), name)
    flag = "--" + name.replace("_", "-")
    args = cli.build_parser().parse_args(["verify", "duality", flag, str(value)])
    assert cli._resolve_config(args) == replace(RunConfig(), **{name: value})
