"""gapforge command-line interface.

Subcommands mirror the library: code construction and measurement,
threshold graph export, MaxCover / SetCover solving, gap composition and
certification, front-end reductions, and the two end-to-end pipelines.
Pipeline exit codes: 0 YES, 1 NO, 2 VIOLATION, 3 error; certify commands
exit 2 on VIOLATION.  Usage errors exit 3 as well, so they never read as a
verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import codes, frontends, maxcover, pipeline, setcover, threshold
from .errors import GapforgeError, ParseError


def _dump(doc, path=None) -> None:
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path) -> dict:
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not JSON: {exc.msg}", exc.lineno) from exc


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not text: {exc.reason}") from exc


def _ints(text: str, option: str, count: int | None = None) -> tuple[int, ...]:
    """Parse a comma-separated integer list given on the command line."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"{option} expects comma-separated integers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise ParseError(f"{option} expects {count} integers, got {text!r}")
    return values


def _cmd_code(args) -> int:
    if args.code_cmd == "rs":
        code = codes.reed_solomon(args.q, args.r)
        _dump(codes.code_to_json(code), args.output)
    elif args.code_cmd == "random":
        code = codes.random_code(args.q, args.r, args.ell, args.seed)
        _dump(codes.code_to_json(code), args.output)
    else:
        code = codes.code_from_json(_load(args.file))
        report = codes.relative_distance(code, method=args.method)
        col = codes.collision_number(code, args.col_cap, distance=report.delta)
        doc = {
            "q": code.q, "r": code.r, "ell": code.ell, "kind": code.kind,
            "size": code.size,
            "delta": str(report.delta),
            "delta_witness": list(report.witness),
            "collision_number": ("infinite" if col.is_infinite else col.value
                                 if col.status == "finite"
                                 else f"unknown_above_{col.size_cap}"),
            "collision_witness": list(col.witness) if col.witness else None,
            "lower_bound": "infinite" if col.lower_bound == codes.INFINITE
                           else col.lower_bound,
            "upper_bound": col.upper_bound,
        }
        _dump(doc)
    return 0


def _cmd_threshold(args) -> int:
    code = codes.code_from_json(_load(args.code))
    graph = threshold.build_threshold(code, args.t)
    doc = {
        "ell": graph.ell,
        "a_part_size": graph.a_part_size,
        "b_parts": graph.t,
        "b_part_size": graph.b_part_size,
        "vertices": graph.num_a + graph.num_b,
    }
    if args.export:
        edges = threshold.export_edges(graph)
        _dump({"format": "gapforge-v1", "edges": [list(e) for e in edges]},
              args.export)
        doc["exported_edges"] = len(edges)
    _dump(doc)
    return 0


def _cmd_maxcover(args) -> int:
    if args.mc_cmd == "solve":
        inst = maxcover.maxcover_from_json(_load(args.file))
        result = maxcover.maxcover_value(inst, args.cap)
        _dump({"value": str(result.value),
               "labeling": list(result.labeling) if result.labeling else None,
               "labelings_examined": result.labelings_examined})
        return 0
    inst = maxcover.maxcover_from_json(_load(args.instance))
    code = codes.code_from_json(_load(args.code))
    if args.mc_cmd == "compose":
        if args.d is None:
            composed = maxcover.compose_gap(inst, code)
        else:
            composed = maxcover.compose_gap_k2_bounded(inst, code, args.d)
        if args.materialize:
            _dump(maxcover.maxcover_to_json(composed.materialize()), args.output)
        else:
            _dump(composed.describe(), args.output)
        return 0
    cert = maxcover.certify_composition(inst, code, d=args.d)
    _dump(cert.to_json())
    return 0 if cert.verdict != maxcover.VERDICT_VIOLATION else 2


def _cmd_setcover(args) -> int:
    if args.sc_cmd == "solve":
        inst = setcover.setcover_from_json(_load(args.file))
        report = setcover.min_cover_size(inst, args.cap)
        _dump({"min_cover_size": report.min_size,
               "witness": [list(r) for r in report.witness] if report.witness else None,
               "cap": report.cap,
               "partitioned_cover_exists": report.partitioned_exists})
        return 0
    inst = setcover.setcover_from_json(_load(args.instance))
    code = codes.code_from_json(_load(args.code))
    composed = setcover.compose_setcover(inst, code)
    if args.sc_cmd == "compose":
        if args.export:
            _dump(setcover.setcover_to_json(composed.materialize()), args.export)
        _dump(composed.describe())
        return 0
    if args.sc_cmd == "member":
        f = _ints(args.f, "--f")
        j, idx = _ints(args.set, "--set", 2)
        member = composed.contains((j, idx), (args.i, f))
        _dump({"i": args.i, "set": [j, idx], "member": member})
        return 0
    cert = setcover.setcover_certificate(inst, composed)
    _dump(cert.to_json())
    return 0 if cert.verdict != setcover.VERDICT_VIOLATION else 2


def _cmd_from_cnf(args) -> int:
    cnf = frontends.parse_dimacs_cnf(_read(args.file))
    inst = frontends.sat_to_maxcover(cnf, args.k)
    _dump(maxcover.maxcover_to_json(inst), args.output)
    return 0


def _cmd_from_graph(args) -> int:
    parsed = frontends.parse_edge_list(_read(args.file))
    if isinstance(parsed, frontends.Graph) or args.lift:
        if isinstance(parsed, frontends.PartitionedGraph):
            raise GapforgeError("--lift applies to plain (unpartitioned) graphs")
        parsed = frontends.colorful_lift(parsed, args.t)
    if parsed.t != args.t:
        raise GapforgeError(f"graph has {parsed.t} parts, expected --t {args.t}")
    result = frontends.clique_to_maxcover(parsed)
    if isinstance(result, frontends.DecidedNo):
        _dump({"decided": "NO", "reason": result.reason,
               "empty_classes": [list(p) for p in result.empty_classes]})
        return 1
    _dump(maxcover.maxcover_to_json(result), args.output)
    return 0


def _cmd_pipeline(args) -> int:
    if args.pl_cmd == "wone":
        graph = frontends.parse_edge_list(_read(args.graph))
        report = pipeline.wone_pipeline(graph, args.t, args.q)
    else:
        cnf = frontends.parse_dimacs_cnf(_read(args.cnf))
        report = pipeline.eth_pipeline(cnf, args.k, args.q)
    if args.json:
        _dump(report.to_json())
    else:
        print(f"verdict: {report.verdict}")
        if report.value_before is not None:
            print(f"value before: {report.value_before}   after: {report.value_after}")
        if report.gap is not None:
            print(f"gap: {report.gap} (delta_exact {report.delta_exact}, "
                  f"bound {report.delta_bound})")
        if report.vacuous_gap:
            print("warning: formula-level gap bound 1 - r/q is not positive")
    return report.exit_code


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error; argparse's own 2 is the VIOLATION code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gapforge")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_code = sub.add_parser("code", help="construct and measure codes")
    code_sub = p_code.add_subparsers(dest="code_cmd", required=True)
    p_rs = code_sub.add_parser("rs")
    p_rs.add_argument("--q", type=int, required=True)
    p_rs.add_argument("--r", type=int, required=True)
    p_rs.add_argument("-o", "--output")
    p_rand = code_sub.add_parser("random")
    p_rand.add_argument("--q", type=int, required=True)
    p_rand.add_argument("--r", type=int, required=True)
    p_rand.add_argument("--ell", type=int, required=True)
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("-o", "--output")
    p_meas = code_sub.add_parser("measure")
    p_meas.add_argument("file")
    p_meas.add_argument("--method", default="auto", choices=["auto", "pairs", "rs"])
    p_meas.add_argument("--col-cap", type=int, default=None)
    p_code.set_defaults(func=_cmd_code)

    p_thr = sub.add_parser("threshold", help="build a threshold graph")
    p_thr.add_argument("--code", required=True)
    p_thr.add_argument("--t", type=int, required=True)
    p_thr.add_argument("--export")
    p_thr.set_defaults(func=_cmd_threshold)

    p_mc = sub.add_parser("maxcover", help="solve, compose, certify MaxCover")
    mc_sub = p_mc.add_subparsers(dest="mc_cmd", required=True)
    p_solve = mc_sub.add_parser("solve")
    p_solve.add_argument("file")
    p_solve.add_argument("--cap", type=int, default=1_000_000)
    for name in ("compose", "certify"):
        p = mc_sub.add_parser(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--code", required=True)
        p.add_argument("--d", type=int, default=None)
        if name == "compose":
            p.add_argument("--materialize", action="store_true")
            p.add_argument("-o", "--output")
    p_mc.set_defaults(func=_cmd_maxcover)

    p_sc = sub.add_parser("setcover", help="solve, compose, certify SetCover")
    sc_sub = p_sc.add_subparsers(dest="sc_cmd", required=True)
    p_scs = sc_sub.add_parser("solve")
    p_scs.add_argument("file")
    p_scs.add_argument("--cap", type=int, required=True)
    for name in ("compose", "member", "certify"):
        p = sc_sub.add_parser(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--code", required=True)
        if name == "compose":
            p.add_argument("--export")
        if name == "member":
            p.add_argument("--i", type=int, required=True)
            p.add_argument("--f", required=True)
            p.add_argument("--set", required=True)
    p_sc.set_defaults(func=_cmd_setcover)

    p_cnf = sub.add_parser("from-cnf", help="3-SAT front-end")
    p_cnf.add_argument("file")
    p_cnf.add_argument("--k", type=int, required=True)
    p_cnf.add_argument("-o", "--output")
    p_cnf.set_defaults(func=_cmd_from_cnf)

    p_gr = sub.add_parser("from-graph", help="clique front-end")
    p_gr.add_argument("file")
    p_gr.add_argument("--t", type=int, required=True)
    p_gr.add_argument("--lift", action="store_true")
    p_gr.add_argument("-o", "--output")
    p_gr.set_defaults(func=_cmd_from_graph)

    p_pl = sub.add_parser("pipeline", help="end-to-end reductions")
    pl_sub = p_pl.add_subparsers(dest="pl_cmd", required=True)
    p_w = pl_sub.add_parser("wone")
    p_w.add_argument("--graph", required=True)
    p_w.add_argument("--t", type=int, required=True)
    p_w.add_argument("--q", type=int, default=None)
    p_w.add_argument("--json", action="store_true")
    p_e = pl_sub.add_parser("eth")
    p_e.add_argument("--cnf", required=True)
    p_e.add_argument("--k", type=int, required=True)
    p_e.add_argument("--q", type=int, default=None)
    p_e.add_argument("--json", action="store_true")
    p_pl.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GapforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
