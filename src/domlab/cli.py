"""Command-line interface.

Exit status: 0 on success, 1 when a report contains a violated bound or a
failed trace check, 2 on usage errors (including malformed graph input),
3 when a size guard or search budget stops the run.

Graph arguments accept a raw graph6 string, `@path` to a graph6 file (first
graph is used), or a family spec: path:4, cycle:5, complete:3, star:5,
grid:3x4, gnp:8:0.5:7 (an omitted gnp seed falls back to --seed).  Output
for fixed inputs and seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import __version__
from .errors import (
    BadParameterError,
    BudgetExhaustedError,
    DomLabError,
    SizeOverflowError,
    TooLargeError,
)
from .graph6 import encode_graph6, format_edge_list, parse_graph6, read_graph6_file
from .graphs import (
    MAX_PRODUCT_VERTICES,
    Graph,
    VertexSet,
    cartesian_product,
    complete,
    cycle,
    grid,
    path,
    random_gnp,
    star,
)
from .harness import (
    CSV_COLUMNS,
    all_pairs,
    check_pair,
    enumerate_connected_graphs,
    pair_report_dict,
    pair_report_row,
    remark_search,
    sweep,
    zip_pairs,
)
from .solver import DEFAULT_ORACLE_GUARD, SolverLimits, gamma_bb, gamma_oracle
from .trace import (
    TraceVerdict,
    build_trace,
    check_to_dict,
    format_check,
    remark_trace,
    trace_report,
    verify_trace,
)

_FAMILIES = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
}


def resolve_graph(spec: str, default_seed: int = 0) -> Graph:
    """Turn a CLI graph argument into a Graph (see module docstring)."""
    if spec.startswith("@") and len(spec) > 1:
        graphs = read_graph6_file(spec[1:])
        if not graphs:
            raise BadParameterError(f"no graphs found in {spec[1:]!r}")
        return graphs[0]
    if ":" in spec:
        head, _, rest = spec.partition(":")
        name = head.lower()
        if name == "grid":
            dims = rest.lower().split("x")
            if len(dims) != 2:
                raise BadParameterError(f"grid spec must be grid:MxN, got {spec!r}")
            m, n = (_int_param(d, spec) for d in dims)
            return _family_graph(grid, m, n)
        if name == "gnp":
            parts = rest.split(":")
            if len(parts) == 2:
                n, p = parts
                seed = default_seed
            elif len(parts) == 3:
                n, p, seed_text = parts
                seed = _int_param(seed_text, spec)
            else:
                raise BadParameterError(
                    f"gnp spec must be gnp:N:P or gnp:N:P:SEED, got {spec!r}"
                )
            try:
                prob = float(p)
            except ValueError:
                raise BadParameterError(f"bad probability in {spec!r}")
            return _family_graph(random_gnp, _int_param(n, spec), p=prob, seed=seed)
        if name in _FAMILIES:
            return _family_graph(_FAMILIES[name], _int_param(rest, spec))
        raise BadParameterError(f"unknown graph family {head!r} in {spec!r}")
    return parse_graph6(spec)


def _family_graph(build, *sizes: int, **params) -> Graph:
    """`build(*sizes, **params)`, refused before it runs when the graph would
    have more than MAX_PRODUCT_VERTICES vertices.  `build` rejects sizes < 1."""
    n = math.prod(max(size, 0) for size in sizes)
    if n > MAX_PRODUCT_VERTICES:
        raise SizeOverflowError(
            f"graph would have {n} vertices, above the limit of {MAX_PRODUCT_VERTICES}"
        )
    return build(*sizes, **params)


def _int_param(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadParameterError(f"bad integer {text!r} in graph spec {spec!r}")


def _family_range(spec: str) -> list[Graph]:
    """Family range for sweeps: e.g. paths:1..6 or cycles:3..8."""
    head, _, rest = spec.partition(":")
    name = head.lower().rstrip("s")
    if name not in _FAMILIES:
        raise BadParameterError(f"unknown family {head!r} in {spec!r}")
    lo_text, sep, hi_text = rest.partition("..")
    if not sep:
        raise BadParameterError(f"family range must be name:LO..HI, got {spec!r}")
    lo = _int_param(lo_text, spec)
    hi = _int_param(hi_text, spec)
    if lo > hi:
        raise BadParameterError(f"empty range in {spec!r}")
    build = _FAMILIES[name]
    # The two ends first, so a bad or oversized range fails at once.
    first, last = _family_graph(build, lo), _family_graph(build, hi)
    middle = [_family_graph(build, n) for n in range(lo + 1, hi)]
    return [first, *middle, last] if lo < hi else [first]


def _parse_domset(path_text: str, universe: int) -> VertexSet:
    with open(path_text, "rb") as fh:
        data = fh.read()
    try:
        tokens = data.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise BadParameterError(
            f"non-ASCII byte {data[exc.start]:#04x} in dom-set file"
            f" {path_text!r} (byte {exc.start})"
        ) from None
    members = []
    for t in tokens:
        try:
            members.append(int(t))
        except ValueError:
            raise BadParameterError(
                f"bad vertex id {t!r} in dom-set file {path_text!r}"
            ) from None
    return VertexSet.from_members(universe, members)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domlab",
        description="Exact domination numbers, Cartesian products, and"
        " mechanical verification of the product-domination bound.",
    )
    parser.add_argument("--version", action="version", version=f"domlab {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--node-budget",
        type=int,
        default=SolverLimits().node_budget,
        help="search node budget for the exact solver",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="default seed for gnp graph specs"
    )
    common.add_argument("--out", help="write output to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gamma", parents=[common], help="domination number of one graph"
    )
    p.add_argument("graph")
    p.add_argument(
        "--method",
        choices=["bb", "oracle"],
        default="bb",
        help="bb: branch-and-bound (default); oracle: exhaustive reference",
    )
    p.add_argument(
        "--oracle-guard",
        type=int,
        default=DEFAULT_ORACLE_GUARD,
        help="largest n the oracle will accept",
    )
    p.add_argument("--format", choices=["human", "jsonl"], default="human")

    p = sub.add_parser(
        "product", parents=[common], help="emit the Cartesian product of two graphs"
    )
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--format", choices=["graph6", "edges"], default="graph6")

    p = sub.add_parser(
        "check", parents=[common], help="bounds and trace verdict for one pair"
    )
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--format", choices=["human", "csv", "jsonl"], default="human")
    p.add_argument("--with-trace", action="store_true", help="embed trace checks in jsonl")

    p = sub.add_parser(
        "trace", parents=[common], help="build and verify one counting-argument trace"
    )
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument(
        "--dom-set",
        help="file of whitespace-separated product vertex ids (u * n_H + v) to"
        " use as D; default is the solver's minimum dominating set",
    )
    p.add_argument("--format", choices=["human", "jsonl"], default="human")

    p = sub.add_parser(
        "remark",
        parents=[common],
        help="search minimum dominating sets of the product for one with a"
        " minimal projection, and verify the sharpened chain on it",
    )
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--cap", type=int, default=100_000, help="enumeration cap")
    p.add_argument("--format", choices=["human", "jsonl"], default="human")

    p = sub.add_parser("sweep", parents=[common], help="check many pairs")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="file with one graph6 line per graph")
    src.add_argument("--family", help="family range, e.g. paths:1..6")
    p.add_argument(
        "--pairs",
        choices=["all", "zip"],
        default="all",
        help="all: unordered pairs with diagonal; zip: consecutive pairs",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--format", choices=["csv", "jsonl", "human"], default="csv")
    p.add_argument("--with-trace", action="store_true", help="embed trace checks in jsonl")

    p = sub.add_parser(
        "enumerate",
        parents=[common],
        help="connected graphs on n vertices up to isomorphism, as graph6",
    )
    p.add_argument("n", type=int)

    return parser


def _limits(args) -> SolverLimits:
    return SolverLimits(node_budget=args.node_budget)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gamma(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    if args.method == "oracle":
        result = gamma_oracle(g, args.oracle_guard)
    else:
        result = gamma_bb(g, _limits(args))
    witness = ", ".join(str(v) for v in result.witness)
    if args.format == "jsonl":
        payload = {
            "graph": args.graph,
            "n": g.n,
            "m": g.m,
            "gamma": result.gamma,
            "witness": list(result.witness),
        }
        _emit(args, json.dumps(payload) + "\n")
    else:
        _emit(
            args,
            f"graph: {args.graph} (n={g.n}, m={g.m})\n"
            f"gamma: {result.gamma}\n"
            f"witness: {{{witness}}}\n",
        )
    return 0


def _cmd_product(args) -> int:
    g = resolve_graph(args.graph_g, args.seed)
    h = resolve_graph(args.graph_h, args.seed)
    pg = cartesian_product(g, h)
    if args.format == "edges":
        _emit(args, format_edge_list(pg.graph))
    else:
        _emit(args, encode_graph6(pg.graph) + "\n")
    return 0


def _format_pair_human(report) -> str:
    lines = [
        f"pair: {report.g6_G} x {report.g6_H}",
        f"gammaG={report.gammaG} gammaH={report.gammaH}"
        f" gammaProduct={report.gammaProduct}",
        f"bound_conjecture={report.bound_conjecture} bound_new={report.bound_new}"
        f" bound_ST_half={report.bound_ST_half} bound_ST_body={report.bound_ST_body}"
        f" bound_CS={report.bound_CS}",
        f"slack_new={report.slack_new}"
        f" trace_ok={'true' if report.trace_ok else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _emit_records(args, reports) -> None:
    """Emit the reports as CSV under its header, or as JSONL, per --format."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(pair_report_row(r) for r in reports)
        text = buf.getvalue()
    else:
        records = (pair_report_dict(r, args.with_trace) for r in reports)
        text = "".join(json.dumps(rec) + "\n" for rec in records)
    _emit(args, text)


def _cmd_check(args) -> int:
    g = resolve_graph(args.graph_g, args.seed)
    h = resolve_graph(args.graph_h, args.seed)
    report = check_pair(g, h, _limits(args))
    if args.format == "human":
        _emit(args, _format_pair_human(report))
    else:
        _emit_records(args, [report])
    return 1 if report.violated else 0


def _verdict_lines(verdict: TraceVerdict, *notes: str) -> list[str]:
    """One line per check, then the notes, then the `result:` line."""
    return [
        *(format_check(c) for c in verdict.checks),
        *notes,
        "result: " + ("all checks passed" if verdict.all_passed else "CHECKS FAILED"),
    ]


def _cmd_trace(args) -> int:
    g = resolve_graph(args.graph_g, args.seed)
    h = resolve_graph(args.graph_h, args.seed)
    limits = _limits(args)
    pg = cartesian_product(g, h)
    if args.dom_set:
        dom = _parse_domset(args.dom_set, pg.graph.n)
    else:
        dom = gamma_bb(pg.graph, limits).witness
    tr = build_trace(g, h, dom, limits=limits, product=pg)
    verdict = verify_trace(tr)
    # check_R fails exactly when some layer has a contradiction witness.
    witnesses_clear = verdict.check("check_R").passed
    if args.format == "jsonl":
        _emit(args, json.dumps(trace_report(tr, verdict)) + "\n")
    else:
        lines = [
            f"trace: {args.graph_g} x {args.graph_h}",
            f"gammaG={tr.gammaG} gammaH={tr.gammaH} |D|={len(tr.D)}"
            f" k={tr.k} |C|={len(tr.C)}",
            f"U = [{', '.join(str(u) for u in tr.U)}]",
        ]
        lines += _verdict_lines(
            verdict,
            "contradiction_witness: "
            + ("none at every layer" if witnesses_clear else "PRESENT"),
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if verdict.all_passed else 1


def _cmd_remark(args) -> int:
    g = resolve_graph(args.graph_g, args.seed)
    h = resolve_graph(args.graph_h, args.seed)
    limits = _limits(args)
    report = remark_search(g, h, cap=args.cap, limits=limits)
    lines = [
        f"remark search: {args.graph_g} x {args.graph_h}",
        f"gamma(product) = {report.gamma_product}",
        f"minimum dominating sets examined: {report.count_min_sets}",
    ]
    payload = {
        "graph_g": args.graph_g,
        "graph_h": args.graph_h,
        "gamma_product": report.gamma_product,
        "count_min_sets": report.count_min_sets,
        "truncated": report.truncated,
        "found": list(report.found) if report.found is not None else None,
    }
    if report.found is None:
        lines.append("no minimum dominating set has a minimal projection")
        lines.append(f"truncated: {'true' if report.truncated else 'false'}")
    else:
        members = ", ".join(str(v) for v in report.found)
        lines.append(f"found D = {{{members}}} with minimal projection")
        verdict = remark_trace(g, h, report.found, limits=limits)
        lines += _verdict_lines(verdict)
        payload["remark_checks"] = [check_to_dict(c) for c in verdict.checks]
        payload["all_passed"] = verdict.all_passed
    if args.format == "jsonl":
        _emit(args, json.dumps(payload) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    if args.graph6:
        graphs = read_graph6_file(args.graph6)
    else:
        graphs = _family_range(args.family)
    pairs = all_pairs(graphs) if args.pairs == "all" else zip_pairs(graphs)
    result = sweep(pairs, _limits(args), jobs=args.jobs)
    reports = result.reports
    if args.format != "human":
        _emit_records(args, reports)
    else:
        lines = []
        for r in reports:
            if r.error is not None:
                lines.append(f"{r.g6_G} x {r.g6_H}: error: {r.error}")
            else:
                lines.append(
                    f"{r.g6_G} x {r.g6_H}: gammaProduct={r.gammaProduct}"
                    f" bound_new={r.bound_new} slack={r.slack_new}"
                    f" trace_ok={'true' if r.trace_ok else 'false'}"
                )
        slack_text = ", ".join(f"{s}:{c}" for s, c in result.slack_counts.items())
        lines.append(
            f"pairs={len(reports)} errors={len(result.errors)}"
            f" violations={len(result.violations)}"
            f" min_slack={result.min_slack} slack_counts[{slack_text}]"
        )
        _emit(args, "\n".join(lines) + "\n")
    return 1 if result.violations else 0


def _cmd_enumerate(args) -> int:
    graphs = enumerate_connected_graphs(args.n)
    _emit(args, "".join(encode_graph6(g) + "\n" for g in graphs))
    return 0


_COMMANDS = {
    "gamma": _cmd_gamma,
    "product": _cmd_product,
    "check": _cmd_check,
    "trace": _cmd_trace,
    "remark": _cmd_remark,
    "sweep": _cmd_sweep,
    "enumerate": _cmd_enumerate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (TooLargeError, SizeOverflowError, BudgetExhaustedError) as exc:
        print(f"domlab: {exc}", file=sys.stderr)
        return 3
    except DomLabError as exc:
        print(f"domlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"domlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
