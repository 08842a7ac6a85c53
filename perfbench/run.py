"""Benchmark for colorcut.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
NAME is one of the workloads in BENCHMARK.json, or `all` to run each of them
in its own process. Every workload is a closed loop: one process, one
caller, and the next op starts only after the previous one has finished and
been checked. Inputs come from --seed alone; the package only sees them.

With --trace 0 the run times ops for --seconds and reports the end-to-end
metrics; setup_s is the median over fresh processes that only set up. With
--trace 1 it runs ops without spans for half of --seconds, then the same ops
traced, and reports the per-layer metrics; the spans go to perfbench/traces/
as JSON lines. The last line of output is one JSON object; the exit code is 1 when
any op failed or answered wrongly.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()  # setup_s counts from here

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workloads():
    """Import the workloads module against this checkout's src/colorcut."""
    if not (SRC / "colorcut" / "__init__.py").is_file():
        raise SystemExit(f"error: no colorcut package at {SRC / 'colorcut'}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import colorcut

    if Path(colorcut.__file__).resolve().parent != SRC / "colorcut":
        raise SystemExit(f"error: imported colorcut from {colorcut.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(name: str, seed: int):
    """Imports, input generation and warm-up; returns (module, workload,
    rounds, seconds since the process started)."""
    wl = load_workloads()
    from colorcut.embedding import clear_flow_cache, expander_flow

    workload = wl.WORKLOADS[name]()
    rounds = workload.rounds(seed)
    # scipy loads HiGHS lazily on the first LP; pay that here, not in an op
    expander_flow(4)
    clear_flow_cache()
    return wl, workload, rounds, time.perf_counter() - _T0


def probe_setup(name: str, seed: int) -> float:
    """setup_s of one fresh process that only sets up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Per-op times, output digests and failures (op index -> reason) of
    one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.digests: list = []
        self.failures: dict[int, str] = {}
        self.rounds = 0


def closed_loop(wl, workload, rounds, seconds=None, n_rounds=None, tracer=None) -> Tally:
    """Run rounds of ops back to back until `seconds` of wall time have
    passed (checked between rounds) or `n_rounds` rounds are done."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        if n_rounds is not None and tally.rounds >= n_rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        for inp in rounds[tally.rounds % len(rounds)]:
            run_op(wl, workload, inp, tally, tracer)
        tally.rounds += 1
    return tally


def run_op(wl, workload, inp, tally: Tally, tracer) -> None:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(inp)
        else:
            tracer.op = len(tally.times)
            with tracer.span(workload.name):
                out = workload.traced_op(inp, tracer)
    except wl.OP_ERRORS as exc:
        tally.failures[len(tally.times)] = f"{type(exc).__name__}: {exc}"
        tally.times.append(time.perf_counter() - t0)
        tally.digests.append(None)
        return
    tally.times.append(time.perf_counter() - t0)
    tally.digests.append(workload.digest(out))
    try:
        if tracer is not None:
            workload.references(inp, out, tracer)
        workload.check(inp, out, tracer)
    except wl.CheckFailed as exc:
        tally.failures[len(tally.times) - 1] = str(exc)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than 11 samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    op_tail_s, _ = tail(tally.times)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(tally.times) / sum(tally.times),
        "op_p50_s": statistics.median(tally.times),
        "op_tail_s": op_tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(wl, workload, rounds, seconds: float, seed: int, names) -> tuple[list[Tally], dict]:
    """Untraced pass for `seconds`, then the same ops traced. Returns both
    tallies and the per-layer metrics; digest mismatches count as failures."""
    from spans import Tracer, layer_metrics

    untraced = closed_loop(wl, workload, rounds, seconds=seconds)
    tracer = Tracer()
    traced = closed_loop(wl, workload, rounds, n_rounds=untraced.rounds, tracer=tracer)
    for i, (a, b) in enumerate(zip(untraced.digests, traced.digests)):
        if a != b:
            traced.failures.setdefault(i, "traced output differs from untraced output")
    n_ops = len(traced.times)
    metrics = layer_metrics(tracer.spans, n_ops, [n for n in names if n != "trace.overhead_s"])
    metrics["trace.overhead_s"] = (sum(traced.times) - sum(untraced.times)) / n_ops
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(TRACE_DIR / f"{workload.name}-seed{seed}.jsonl")
    return [untraced, traced], metrics


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for entry in load_spec()["workloads"]:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if args.setup_only:
        *_, setup_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    load_workloads()  # fail before spawning probes when the package is missing
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        wl, workload, rounds, _ = set_up(args.workload, args.seed)
        tallies, metrics = traced_run(wl, workload, rounds, args.seconds / 2, args.seed, list(units))
    else:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        wl, workload, rounds, _ = set_up(args.workload, args.seed)
        tally = closed_loop(wl, workload, rounds, seconds=args.seconds)
        tallies, metrics = [tally], end_to_end(tally, statistics.median(setups))

    attempted = sum(len(t.times) for t in tallies)
    failures = [f"op {i}: {reason}" for t in tallies for i, reason in sorted(t.failures.items())]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} ops={attempted} failed={len(failures)}")
    print(f"fail_ratio={len(failures) / attempted:.6g} ratio")
    if not args.trace:
        _, percentile = tail(tallies[0].times)
        print(f"op_tail_s is p{percentile:.1f} over {len(tallies[0].times)} ops")
    for name, value in metrics.items():
        print(f"{name}={value:.6g} {units[name]}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
