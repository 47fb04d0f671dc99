"""Command-line interface.

Exit status: 0 on success, 1 when a report contains a violated bound or a
failed trace or remark check, 2 on usage errors (including malformed graph
input), 3 when a size guard or search budget stops the run; in `sweep` such a
stop only makes its pair an error row, and the sweep goes on to exit 0 or 1.

Graph arguments accept a raw graph6 string, `@path` to a graph6 file (first
graph is used), or a family spec: path:4, cycle:5, complete:3, star:5,
grid:3x4, gnp:8:0.5:7 (N:P:SEED).  Output for fixed inputs is byte-identical
across runs.
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
    DEFAULT_REMARK_CAP,
    all_pairs,
    check_pair,
    enumerate_connected_graphs,
    pair_report_dict,
    pair_report_row,
    remark_search,
    solve_product,
    sweep,
    zip_pairs,
)
from .solver import SolverLimits, gamma_bb
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


def resolve_graph(spec: str) -> Graph:
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
            if len(parts) != 3:
                raise BadParameterError(f"gnp spec must be gnp:N:P:SEED, got {spec!r}")
            n, p, seed_text = parts
            seed = _int_param(seed_text, spec)
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
    name = head.lower().removesuffix("s")
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
    common.add_argument("--out", help="write output to this file instead of stdout")
    solving = argparse.ArgumentParser(add_help=False, parents=[common])
    solving.add_argument(
        "--node-budget",
        type=int,
        default=SolverLimits().node_budget,
        help="search node budget for the exact solver",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gamma", parents=[solving], help="domination number of one graph"
    )
    p.add_argument("graph")
    p.add_argument("--format", choices=["human", "jsonl"], default="human")

    p = sub.add_parser(
        "product", parents=[common], help="emit the Cartesian product of two graphs"
    )
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--format", choices=["graph6", "edges"], default="graph6")

    p = sub.add_parser(
        "check", parents=[solving], help="bounds and trace verdict for one pair"
    )
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--format", choices=["human", "csv", "jsonl"], default="human")
    p.add_argument("--with-trace", action="store_true", help="embed trace checks; jsonl only")

    p = sub.add_parser(
        "trace",
        parents=[solving],
        help="build and verify one counting-argument trace",
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
        parents=[solving],
        help="search minimum dominating sets of the product for one with a"
        " minimal projection, and verify the sharpened chain on it",
    )
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument(
        "--cap", type=int, default=DEFAULT_REMARK_CAP, help="enumeration cap"
    )
    p.add_argument("--format", choices=["human", "jsonl"], default="human")

    p = sub.add_parser("sweep", parents=[solving], help="check many pairs")
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
    p.add_argument("--with-trace", action="store_true", help="embed trace checks; jsonl only")

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


# Each `_cmd_*` returns the text to write and whether its report passed;
# `main` writes the text and turns the verdict into exit status 0 or 1.


def _cmd_gamma(args) -> tuple[str, bool]:
    g = resolve_graph(args.graph)
    result = gamma_bb(g, _limits(args))
    if args.format == "jsonl":
        payload = {
            "graph": args.graph,
            "n": g.n,
            "m": g.m,
            "gamma": result.gamma,
            "witness": list(result.witness),
        }
        return json.dumps(payload) + "\n", True
    witness = ", ".join(str(v) for v in result.witness)
    return (
        f"graph: {args.graph} (n={g.n}, m={g.m})\n"
        f"gamma: {result.gamma}\n"
        f"witness: {{{witness}}}\n"
    ), True


def _cmd_product(args) -> tuple[str, bool]:
    pg = cartesian_product(resolve_graph(args.graph_g), resolve_graph(args.graph_h))
    if args.format == "edges":
        return format_edge_list(pg.graph), True
    return encode_graph6(pg.graph) + "\n", True


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


def _records_text(args, reports) -> str:
    """The reports as CSV under its header, or as JSONL, per --format."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(pair_report_row(r) for r in reports)
        return buf.getvalue()
    records = (pair_report_dict(r, args.with_trace) for r in reports)
    return "".join(json.dumps(rec) + "\n" for rec in records)


def _refuse_unread_with_trace(args) -> None:
    if args.with_trace and args.format != "jsonl":
        raise BadParameterError("--with-trace needs --format jsonl")


def _cmd_check(args) -> tuple[str, bool]:
    _refuse_unread_with_trace(args)
    g = resolve_graph(args.graph_g)
    h = resolve_graph(args.graph_h)
    report = check_pair(g, h, _limits(args))
    if args.format == "human":
        return _format_pair_human(report), not report.violated
    return _records_text(args, [report]), not report.violated


def _verdict_lines(verdict: TraceVerdict, *notes: str) -> list[str]:
    """One line per check, then the notes, then the `result:` line."""
    return [
        *(format_check(c) for c in verdict.checks),
        *notes,
        "result: " + ("all checks passed" if verdict.all_passed else "CHECKS FAILED"),
    ]


def _cmd_trace(args) -> tuple[str, bool]:
    g = resolve_graph(args.graph_g)
    h = resolve_graph(args.graph_h)
    limits = _limits(args)
    pg = cartesian_product(g, h)
    if args.dom_set:
        dom = _parse_domset(args.dom_set, pg.graph.n)
    else:
        dom = solve_product(pg, limits).witness
    tr = build_trace(g, h, dom, limits=limits, product=pg)
    verdict = verify_trace(tr)
    # check_R fails exactly when some layer has a contradiction witness.
    witnesses_clear = verdict.check("check_R").passed
    if args.format == "jsonl":
        return json.dumps(trace_report(tr, verdict)) + "\n", verdict.all_passed
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
    return "\n".join(lines) + "\n", verdict.all_passed


def _cmd_remark(args) -> tuple[str, bool]:
    g = resolve_graph(args.graph_g)
    h = resolve_graph(args.graph_h)
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
    text = json.dumps(payload) if args.format == "jsonl" else "\n".join(lines)
    return text + "\n", payload.get("all_passed", True)


def _cmd_sweep(args) -> tuple[str, bool]:
    _refuse_unread_with_trace(args)
    if args.graph6:
        graphs = read_graph6_file(args.graph6)
    else:
        graphs = _family_range(args.family)
    pairs = all_pairs(graphs) if args.pairs == "all" else zip_pairs(graphs)
    result = sweep(pairs, _limits(args), jobs=args.jobs)
    reports = result.reports
    if args.format != "human":
        return _records_text(args, reports), not result.violations
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
    return "\n".join(lines) + "\n", not result.violations


def _cmd_enumerate(args) -> tuple[str, bool]:
    graphs = enumerate_connected_graphs(args.n)
    return "".join(encode_graph6(g) + "\n" for g in graphs), True


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
        text, ok = _COMMANDS[args.command](args)
        _emit(args, text)
    except (TooLargeError, SizeOverflowError, BudgetExhaustedError) as exc:
        print(f"domlab: {exc}", file=sys.stderr)
        return 3
    except (DomLabError, OSError) as exc:
        print(f"domlab: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
