"""Command-line interface.

Exit codes: 0 for yes answers and clean runs, 1 for no answers and failed
verifications (including an embedding that exhausted its retries, and a
concurrent-flow LP that could not be solved or decomposed), 2 for
malformed input, exceeded caps, and other operational errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import formats, verify
from .config import RunConfig, load_config
from .embedding import (
    EmbeddingFailed,
    ExpansionTargetUnmet,
    audit_congestion,
    embed_with_retry,
    validate_embedding,
)
from .flows import Infeasible
from .gadgets import connectivize_pattern, reduce_psi_to_dcmc
from .instances import (
    CapExceeded,
    solve_cmc_bruteforce,
    solve_csp_bruteforce,
    solve_dual_bruteforce,
    solve_psi_bruteforce,
    solve_sat_bruteforce,
)
from .pipeline import csp_to_psi, route_csp, sat_to_csp_g, sat_to_dcmc


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("run configuration")
    group.add_argument("--config", metavar="PATH", help="JSON config file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        group.add_argument(flag, type=type(f.default), dest=f.name)
    return parent


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_config(getattr(args, "config", None), **overrides)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(pairs) -> None:
    sys.stdout.write(formats.render_report(pairs))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    text = _read(args.file)
    kind = args.kind
    if kind == "cmc":
        answer = solve_cmc_bruteforce(formats.parse_cmc(text), cfg.cap_cmc_vertices)
        witness = lambda w: " ".join(map(str, w))
    elif kind == "dcmc":
        answer = solve_dual_bruteforce(formats.parse_dcmc(text), cfg.cap_dual_combinations)
        witness = lambda w: " ".join(map(str, w))
    elif kind == "psi":
        answer = solve_psi_bruteforce(formats.parse_psi(text), cfg.cap_psi_assignments)
        witness = lambda w: " ".join(map(str, w))
    elif kind == "csp":
        answer = solve_csp_bruteforce(formats.parse_csp(text), cfg.cap_csp_assignments)
        witness = lambda w: " ".join(str(v).replace(" ", "") for v in w)
    else:
        answer = solve_sat_bruteforce(formats.parse_cnf(text), cfg.cap_sat_variables)
        witness = lambda w: " ".join("1" if bit else "0" for bit in w)
    pairs = [("decision", "yes" if answer.decision else "no")]
    if answer.decision and answer.witness is not None:
        pairs.append(("witness", witness(answer.witness)))
    _emit(pairs)
    return 0 if answer.decision else 1


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def _cmd_reduce_psi2dcmc(args: argparse.Namespace) -> int:
    inst = formats.parse_psi(_read(args.file))
    prepared = connectivize_pattern(inst)
    reduction = reduce_psi_to_dcmc(prepared)
    _write(args.output, formats.write_dcmc(reduction.dual))
    map_path = args.map or args.output + ".gadgetmap"
    _write(map_path, formats.write_gadget_map(reduction.color_map))
    _emit(
        [
            ("output", args.output),
            ("map", map_path),
            ("connectivized", int(prepared is not inst)),
            ("rho", reduction.params.rho),
            ("b", reduction.params.b),
            ("dual_vertices", reduction.dual.vertex_count),
            ("dual_colors", reduction.dual.p),
            ("dual_budget", reduction.dual.a),
        ]
    )
    return 0


def _cmd_reduce_sat2csp(args: argparse.Namespace) -> int:
    formula = formats.parse_cnf(_read(args.file))
    csp, graph = sat_to_csp_g(formula)
    _write(args.output, formats.write_csp(csp))
    graph_path = args.graph_out or args.output + ".graph"
    _write(graph_path, formats.write_graph(graph))
    _emit(
        [
            ("output", args.output),
            ("graph", graph_path),
            ("variables", csp.variable_count),
            ("constraints", len(csp.constraints)),
        ]
    )
    return 0


def _route_from_args(args: argparse.Namespace, cfg: RunConfig):
    base = formats.parse_csp(_read(args.file))
    emb = formats.parse_embedding(_read(args.embed))
    return route_csp(base, emb.branch_sets, emb.host, cfg.cap_csp_assignments)


def _cmd_reduce_route(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ctx = _route_from_args(args, cfg)
    _write(args.output, formats.write_csp(ctx.csp))
    _emit(
        [
            ("output", args.output),
            ("host_vertices", ctx.host.vertex_count),
            ("max_domain", max((len(d) for d in ctx.csp.domains), default=0)),
        ]
    )
    return 0


def _cmd_reduce_csp2psi(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ctx = _route_from_args(args, cfg)
    psi, _ = csp_to_psi(ctx)
    _write(args.output, formats.write_psi(psi))
    _emit(
        [
            ("output", args.output),
            ("pattern_vertices", psi.pattern_vertex_count),
            ("pattern_edges", len(psi.pattern_edges)),
            ("block_size", psi.block_size),
            ("host_edges", len(psi.host_edges)),
        ]
    )
    return 0


def _cmd_reduce_sat2dcmc(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    formula = formats.parse_cnf(_read(args.file))
    run = sat_to_dcmc(formula, cfg.seed, cfg)
    _write(args.output, formats.write_dcmc(run.reduction.dual))
    map_path = args.map or args.output + ".gadgetmap"
    _write(map_path, formats.write_gadget_map(run.reduction.color_map))
    _emit(list(run.report) + [("output", args.output), ("map", map_path)])
    return 0


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def _cmd_embed(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    graph = formats.parse_graph(_read(args.file))
    emb, used_seed = embed_with_retry(graph, args.k, cfg.seed, cfg)
    validate_embedding(emb, graph)
    audit = audit_congestion(emb)
    _write(args.output, formats.write_embedding(emb))
    _emit(
        [
            ("output", args.output),
            ("seed", used_seed),
            ("ell", emb.ell),
            ("host_vertices", emb.host.vertex_count),
            ("host_edges", emb.host.edge_count),
            ("depth", emb.depth),
            ("audit_bounded", int(audit.bounded)),
        ]
    )
    return 0


# ---------------------------------------------------------------------------
# verify and calibrate
# ---------------------------------------------------------------------------

_SUITES = {
    "duality": verify.verify_duality,
    "gadgets": verify.verify_gadgets,
    "embedding": verify.verify_embedding,
    "pipeline": verify.verify_pipeline,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        result = _SUITES[name](cfg)
        for line in result.lines:
            print(line)
        all_ok = all_ok and result.ok
    print(f"ok={int(all_ok)}")
    return 0 if all_ok else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    result = verify.calibrate(cfg)
    for line in result.lines:
        print(line)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parent = _config_parent()
    parser = argparse.ArgumentParser(
        prog="colorcut",
        description="Reduction workbench for colored cut problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[parent], help="brute-force decision oracles")
    p_solve.add_argument("kind", choices=("cmc", "dcmc", "psi", "csp", "cnf"))
    p_solve.add_argument("file")
    p_solve.set_defaults(func=_cmd_solve)

    p_reduce = sub.add_parser("reduce", help="reduction stages")
    reduce_sub = p_reduce.add_subparsers(dest="stage", required=True)

    p = reduce_sub.add_parser("psi2dcmc")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map", help="color provenance output (default OUTPUT.gadgetmap)")
    p.set_defaults(func=_cmd_reduce_psi2dcmc)

    p = reduce_sub.add_parser("sat2csp")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--graph-out", help="incidence graph output (default OUTPUT.graph)")
    p.set_defaults(func=_cmd_reduce_sat2csp)

    p = reduce_sub.add_parser("route", parents=[parent])
    p.add_argument("file", help="base CSP")
    p.add_argument("--embed", required=True, help="embedding of the constraint graph")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reduce_route)

    p = reduce_sub.add_parser("csp2psi", parents=[parent])
    p.add_argument("file", help="base CSP")
    p.add_argument("--embed", required=True, help="embedding of the constraint graph")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reduce_csp2psi)

    p = reduce_sub.add_parser("sat2dcmc", parents=[parent])
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map", help="color provenance output (default OUTPUT.gadgetmap)")
    p.set_defaults(func=_cmd_reduce_sat2dcmc)

    p_embed = sub.add_parser("embed", parents=[parent], help="embed a graph into a small host")
    p_embed.add_argument("file")
    p_embed.add_argument("-k", type=int, required=True, help="host size budget |V|+|E| <= k")
    p_embed.add_argument("-o", "--output", required=True)
    p_embed.set_defaults(func=_cmd_embed)

    p_verify = sub.add_parser("verify", parents=[parent], help="verification suites")
    p_verify.add_argument("suite", choices=("duality", "gadgets", "embedding", "pipeline", "all"))
    p_verify.set_defaults(func=_cmd_verify)

    p_cal = sub.add_parser("calibrate", parents=[parent], help="measure the pinned constants")
    p_cal.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, ExpansionTargetUnmet, OSError, ValueError) as exc:
        # FormatError and InvalidEmbedding are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EmbeddingFailed as exc:
        print(f"embedding failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
