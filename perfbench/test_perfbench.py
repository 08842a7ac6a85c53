"""Smoke test of the benchmark itself, at toy sizes.

Every workload must report every metric BENCHMARK.json names, with its
unit, in both modes; a wrong decision must count as a failed op and make
the run exit nonzero; and a directory without the package must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

wl = run.load_workloads()
SPEC = run.load_spec()
TOY = {
    "sat-chain": lambda: wl.SatChain(rungs=((4, 54),)),
    "gadget-family": lambda: wl.GadgetFamily(limit=12),
    "host-lp": lambda: wl.HostLp(budgets=(32,)),
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    for name, factory in TOY.items():
        monkeypatch.setitem(wl.WORKLOADS, name, factory)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)


def bench(capsys, *args):
    code = run.main(["--seed", "3", "--seconds", "0.01", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TOY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_reported(toy, capsys, workload, trace):
    code, result = bench(capsys, "--workload", workload, "--trace", trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_wrong_decision_is_a_failure(toy, capsys, monkeypatch):
    op = wl.SatChain.op

    def flipped(self, inp):
        out = op(self, inp)
        out.answer = out.answer._replace(decision=not out.answer.decision)
        return out

    monkeypatch.setattr(wl.SatChain, "op", flipped)
    code, result = bench(capsys, "--workload", "sat-chain", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sat-chain", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
