"""Command-line interface: output formats, determinism, and exit codes.

Every test drives main(argv) in-process, so stdout and the return code are
checked exactly; repeated runs must be byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace

import pytest

import domlab.harness
from domlab import cli
from domlab.cli import build_parser, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corrupt(report):
    """A report that fails its bound and its trace; valid input never gives one."""
    return replace(report, slack_new=-1, trace_ok=False)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_human(capsys):
    code, out, err = run(capsys, "gamma", "path:4")
    assert code == 0
    assert out == "graph: path:4 (n=4, m=3)\ngamma: 2\nwitness: {0, 2}\n"
    assert err == ""


def test_gamma_jsonl(capsys):
    code, out, _ = run(capsys, "gamma", "grid:4x4", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["gamma"] == 4
    assert rec["witness"] == [1, 7, 8, 14]
    assert rec["n"] == 16


def test_gamma_oracle_method_agrees(capsys):
    _, bb_out, _ = run(capsys, "gamma", "cycle:9", "--format", "jsonl")
    _, oracle_out, _ = run(
        capsys, "gamma", "cycle:9", "--method", "oracle", "--format", "jsonl"
    )
    assert json.loads(bb_out)["gamma"] == json.loads(oracle_out)["gamma"] == 3


def test_gamma_oracle_guard_below_one_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "gamma", "path:5", "--method", "oracle", "--oracle-guard", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "domlab: oracle guard must be at least 1, got -1\n"


def test_gamma_accepts_raw_graph6(capsys):
    code, out, _ = run(capsys, "gamma", "A_", "--format", "jsonl")
    assert code == 0
    assert json.loads(out)["gamma"] == 1


def test_gamma_from_file(capsys, tmp_path):
    p = tmp_path / "c.g6"
    p.write_text("Ch\nA_\n")
    code, out, _ = run(capsys, "gamma", f"@{p}", "--format", "jsonl")
    assert code == 0
    assert json.loads(out)["gamma"] == 2


def test_gamma_gnp_seed_flag_matches_inline_seed(capsys):
    _, a, _ = run(capsys, "gamma", "gnp:8:0.5", "--seed", "9", "--format", "jsonl")
    _, b, _ = run(capsys, "gamma", "gnp:8:0.5:9", "--format", "jsonl")
    assert json.loads(a)["m"] == json.loads(b)["m"]
    assert json.loads(a)["witness"] == json.loads(b)["witness"]


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------


def test_product_graph6(capsys):
    code, out, _ = run(capsys, "product", "path:2", "path:2")
    assert code == 0
    assert out == "Cr\n"


def test_product_edges(capsys):
    code, out, _ = run(capsys, "product", "path:2", "path:2", "--format", "edges")
    assert code == 0
    assert out == "4 4\n0 1\n0 2\n1 3\n2 3\n"


def test_product_too_large(capsys):
    code, _, err = run(capsys, "product", "complete:64", "complete:65")
    assert code == 3
    assert "domlab:" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_human(capsys):
    code, out, _ = run(capsys, "check", "path:4", "path:4")
    assert code == 0
    assert out == (
        "pair: Ch x Ch\n"
        "gammaG=2 gammaH=2 gammaProduct=4\n"
        "bound_conjecture=4 bound_new=3 bound_ST_half=3 bound_ST_body=4 bound_CS=2\n"
        "slack_new=1 trace_ok=true\n"
    )


def test_check_csv(capsys):
    code, out, _ = run(capsys, "check", "path:4", "path:4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("g6_G,g6_H,")
    assert lines[1] == "Ch,Ch,2,2,4,2,3,4,3,1,true"


def test_check_names_a_factor_past_graph6_by_its_order(capsys):
    code, out, _ = run(capsys, "check", "path:70", "path:2")
    assert code == 0
    assert out.startswith("pair: <n=70> x A_\n")


def test_check_jsonl_with_trace(capsys):
    code, out, _ = run(
        capsys, "check", "cycle:5", "path:3", "--format", "jsonl", "--with-trace"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["trace_all_passed"] is True
    assert len(rec["trace_checks"]) == 10


def test_check_inject_fault_fails(capsys, monkeypatch):
    real = cli.check_pair
    monkeypatch.setattr(cli, "check_pair", lambda *a, **kw: corrupt(real(*a, **kw)))
    code, out, _ = run(capsys, "check", "path:3", "path:3")
    assert code == 1


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_human_frozen(capsys):
    code, out, _ = run(capsys, "trace", "path:4", "complete:1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trace: path:4 x complete:1"
    assert lines[1] == "gammaG=2 gammaH=1 |D|=2 k=2 |C|=2"
    assert lines[2] == "U = [0, 2]"
    assert sum(1 for x in lines if " PASS " in x) == 10
    assert lines[-2] == "contradiction_witness: none at every layer"
    assert lines[-1] == "result: all checks passed"


def test_trace_jsonl_shape(capsys):
    code, out, _ = run(capsys, "trace", "path:4", "path:4", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["all_passed"] is True
    assert rec["k"] == 2
    assert rec["final"]["lhs"] == 8
    assert len(rec["checks"]) == 10


def test_trace_jsonl_names_a_factor_past_graph6_by_its_order(capsys):
    code, out, _ = run(capsys, "trace", "path:70", "path:2", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert (rec["g6_G"], rec["g6_H"]) == ("<n=70>", "A_")
    assert rec["all_passed"] is True


def test_trace_with_explicit_dom_set(capsys, tmp_path):
    p = tmp_path / "ds.txt"
    p.write_text("0 2\n")
    code, out, _ = run(
        capsys, "trace", "path:4", "complete:1", "--dom-set", str(p)
    )
    assert code == 0
    assert "result: all checks passed" in out


def test_trace_dom_set_must_dominate(capsys, tmp_path):
    p = tmp_path / "ds.txt"
    p.write_text("0\n")
    code, _, err = run(
        capsys, "trace", "path:4", "complete:1", "--dom-set", str(p)
    )
    assert code == 2
    assert "dominate" in err


def test_trace_dom_set_bad_token(capsys, tmp_path):
    p = tmp_path / "ds.txt"
    p.write_text("0 x\n")
    code, _, err = run(
        capsys, "trace", "path:4", "complete:1", "--dom-set", str(p)
    )
    assert code == 2
    assert "'x'" in err


def test_trace_dom_set_non_ascii(capsys, tmp_path):
    p = tmp_path / "ds.txt"
    p.write_bytes(b"0 1\xc3\xa9 2")
    code, _, err = run(
        capsys, "trace", "path:4", "complete:1", "--dom-set", str(p)
    )
    assert code == 2
    assert "0xc3" in err
    assert "(byte 3)" in err
    assert "Traceback" not in err


def test_trace_inject_fault(capsys, monkeypatch):
    real = cli.verify_trace

    def failing_final(tr):
        verdict = real(tr)
        checks = tuple(
            replace(c, passed=False) if c.name == "check_final" else c
            for c in verdict.checks
        )
        return replace(verdict, checks=checks)

    monkeypatch.setattr(cli, "verify_trace", failing_final)
    code, out, _ = run(capsys, "trace", "path:4", "complete:1")
    assert code == 1
    assert "result: CHECKS FAILED" in out
    assert "check_final        FAIL" in out


# Digests of the trace and remark outputs, so a refactor of the verdict types
# cannot change a byte of them unnoticed.
PINNED_OUTPUTS = [
    (
        ("trace", "grid:3x3", "cycle:4"),
        "cd8cf4e6ae7a301a0aef4919cd571c53a19aa7f9fbdbf1200e00ae8210a032b9",
    ),
    (
        ("trace", "grid:3x3", "cycle:4", "--format", "jsonl"),
        "53d44563878857abaec8674ffb6d52008577bc607425d129a82848036d2c088c",
    ),
    (
        ("remark", "star:6", "star:6"),
        "c8e1c9c1a4720cf6388c86be0d48eb967fce4e8a5f5885197d75b7fea6580907",
    ),
    (
        ("remark", "star:6", "star:6", "--format", "jsonl"),
        "9d0c7d495a4c472d81223df7ac161c2d2d6eba7b3cb4a55f5425e6506d9a5533",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_OUTPUTS, ids=[" ".join(a) for a, _ in PINNED_OUTPUTS]
)
def test_trace_and_remark_outputs_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Digests of the pair reports in every format, so a change to how a report is
# serialized cannot move a byte, a column or a JSONL key unnoticed.  The node
# budget of 40 stops 7 of the 21 cycle pairs, so error rows are pinned too.
_BUDGET_40 = ("sweep", "--family", "cycles:3..8", "--node-budget", "40")
PINNED_REPORTS = [
    (
        ("check", "cycle:6", "cycle:6"),
        "855f01b9f97ef58dba741b9d956d9ab3b9b0e1333d88678d1144ca78223544d2",
    ),
    (
        ("check", "cycle:6", "cycle:6", "--format", "csv"),
        "94817fa1ec1e1ee140abb9f991a5d0ba39044bbc4efba11060f612dc027d1d1f",
    ),
    (
        ("check", "cycle:6", "cycle:6", "--format", "jsonl", "--with-trace"),
        "1dc660ed887225a6e5b7ed5755f446e9bba97fc387573f47301b53e716afeed3",
    ),
    (
        ("sweep", "--family", "cycles:3..8", "--format", "human"),
        "412f5e992021ced21cb989f96c0a99d843571daf15621122dad674638ca3179f",
    ),
    (
        ("sweep", "--family", "cycles:3..8", "--format", "csv"),
        "41447f6df77a804ed8f7500e7be66ddc3da8df5ea06977c7dcd40758c7524587",
    ),
    (
        ("sweep", "--family", "cycles:3..8", "--with-trace", "--format", "jsonl"),
        "1869cf86bf1c6d37757837d140e609dc9aaf04c53b0963862c2779ce81d2e790",
    ),
    (
        (*_BUDGET_40, "--format", "csv"),
        "b78ec372533c9cff19d86659106a44eed9c3f352e2b60e4fff8a6961aa37a6ed",
    ),
    (
        (*_BUDGET_40, "--format", "jsonl"),
        "12b3710159a2269f6f2020180bdccf89c7747d9459fe7d8788605f66b58319ac",
    ),
    (
        (*_BUDGET_40, "--format", "human"),
        "b3bca6ad7508fe63fba58ede5108bba42bcd940f971cf63dc4fac5a9a0ceda58",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_REPORTS, ids=[" ".join(a) for a, _ in PINNED_REPORTS]
)
def test_pair_report_outputs_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_error_row_jsonl_keeps_every_key_in_order(capsys):
    code, out, _ = run(capsys, *_BUDGET_40, "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    errors = [r for r in rows if r["error"] is not None]
    assert len(errors) == 7
    assert list(errors[0]) == [
        "g6_G", "g6_H", "gammaG", "gammaH", "gammaProduct", "bound_conjecture",
        "bound_CS", "bound_ST_half", "bound_ST_body", "bound_new", "slack_new",
        "trace_ok", "error",
    ]
    assert errors[0] == {
        **dict.fromkeys(errors[0], None),
        "g6_G": "Dhc",
        "g6_H": "EhEG",
        "error": "BudgetExhaustedError: node budget 40 exhausted",
    }


# ---------------------------------------------------------------------------
# remark
# ---------------------------------------------------------------------------


def test_remark_no_hit_on_grid_pair(capsys):
    code, out, _ = run(capsys, "remark", "path:4", "path:4")
    assert code == 0
    assert out == (
        "remark search: path:4 x path:4\n"
        "gamma(product) = 4\n"
        "minimum dominating sets examined: 2\n"
        "no minimum dominating set has a minimal projection\n"
        "truncated: false\n"
    )


def test_remark_hit_runs_sharpened_checks(capsys):
    code, out, _ = run(capsys, "remark", "path:3", "complete:1")
    assert code == 0
    assert "found D = {1} with minimal projection" in out
    assert "check_remark_sum" in out
    assert "check_remark_product" in out
    assert "check_remark_conjecture" in out
    assert out.endswith("result: all checks passed\n")


def test_remark_jsonl_runs_on_a_factor_past_graph6(capsys):
    code, out, _ = run(capsys, "remark", "path:70", "path:2", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["remark_checks"]) == 13
    assert rec["all_passed"] is True


def test_remark_lists_a_grid_with_many_size_gamma_subsets(capsys):
    # C(36, 10) ~ 2.5e8 subsets have the product's minimum size; the search
    # visits about 22,000 nodes.
    code, out, err = run(capsys, "remark", "grid:6x6", "path:1")
    assert code == 0
    assert err == ""
    assert "gamma(product) = 10\n" in out
    assert "minimum dominating sets examined: 1\n" in out
    assert out.endswith("result: all checks passed\n")


def test_remark_stops_when_the_node_budget_runs_out(capsys):
    code, out, err = run(
        capsys, "remark", "grid:6x6", "path:1", "--node-budget", "1000"
    )
    assert code == 3
    assert out == ""
    assert err == "domlab: node budget 1000 exhausted\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

PATHS_1_4_CSV = (
    "g6_G,g6_H,gammaG,gammaH,gammaProd,bound_CS,bound_ST_half,bound_ST_body,"
    "bound_new,slack_new,trace_ok\n"
    "@,@,1,1,1,1,1,2,1,0,true\n"
    "@,A_,1,1,1,1,1,2,1,0,true\n"
    "@,Bg,1,1,1,1,1,2,1,0,true\n"
    "@,Ch,1,2,2,1,2,2,2,0,true\n"
    "A_,A_,1,1,2,1,1,2,1,1,true\n"
    "A_,Bg,1,1,2,1,1,2,1,1,true\n"
    "A_,Ch,1,2,3,1,2,2,2,1,true\n"
    "Bg,Bg,1,1,3,1,1,2,1,2,true\n"
    "Bg,Ch,1,2,4,1,2,2,2,2,true\n"
    "Ch,Ch,2,2,4,2,3,4,3,1,true\n"
)


def test_sweep_family_csv_frozen(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "paths:1..4", "--format", "csv")
    assert code == 0
    assert out == PATHS_1_4_CSV


def test_sweep_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "sweep", "--family", "cycles:3..6", "--format", "csv")
    _, second, _ = run(capsys, "sweep", "--family", "cycles:3..6", "--format", "csv")
    assert first == second


def test_sweep_parallel_output_identical(capsys):
    _, serial, _ = run(capsys, "sweep", "--family", "paths:1..4", "--format", "csv")
    _, parallel, _ = run(
        capsys, "sweep", "--family", "paths:1..4", "--format", "csv", "--jobs", "2"
    )
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "sweep", "--family", "paths:1..3", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"domlab: jobs must be at least 1, got {jobs}\n"


def test_sweep_graph6_file_zip_pairs(capsys, tmp_path):
    p = tmp_path / "corpus.g6"
    p.write_text("A_\nBg\n")
    code, out, _ = run(
        capsys, "sweep", "--graph6", str(p), "--pairs", "zip", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("A_,Bg,")


def test_sweep_zip_needs_even_count(capsys, tmp_path):
    p = tmp_path / "corpus.g6"
    p.write_text("A_\nBg\nCh\n")
    code, _, err = run(capsys, "sweep", "--graph6", str(p), "--pairs", "zip")
    assert code == 2
    assert "even" in err


def test_sweep_human_summary(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "paths:1..3", "--format", "human")
    assert code == 0
    assert out.splitlines()[-1] == (
        "pairs=6 errors=0 violations=0 min_slack=0 slack_counts[0:3, 1:2, 2:1]"
    )


def test_sweep_jsonl_records(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "paths:1..3", "--format", "jsonl",
        "--with-trace",
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 6
    assert all(r["trace_all_passed"] for r in recs)


def test_sweep_inject_fault(capsys, monkeypatch):
    # Corrupt the first pair's report inside the sweep, so the sweep's own
    # violation tally is what the exit code reads.
    real = domlab.harness.check_pair
    calls = []

    def first_corrupted(*a, **kw):
        calls.append(None)
        report = real(*a, **kw)
        return corrupt(report) if len(calls) == 1 else report

    monkeypatch.setattr(domlab.harness, "check_pair", first_corrupted)
    code, out, _ = run(
        capsys, "sweep", "--family", "paths:1..3", "--format", "csv"
    )
    assert code == 1
    assert ",-1,false" in out.splitlines()[1]


def test_sweep_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--format", "csv")
    assert code == 2
    p = tmp_path / "c.g6"
    p.write_text("A_\n")
    code2, _, _ = run(
        capsys, "sweep", "--graph6", str(p), "--family", "paths:1..3"
    )
    assert code2 == 2


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_four_vertex_connected_graphs(capsys):
    code, out, _ = run(capsys, "enumerate", "4")
    assert code == 0
    assert out == "Cs\nCk\nC{\nC]\nC}\nC~\n"


def test_enumerate_guard(capsys):
    code, _, err = run(capsys, "enumerate", "7")
    assert code == 3
    assert "n <= 6" in err


# ---------------------------------------------------------------------------
# shared flags and failure modes
# ---------------------------------------------------------------------------


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "gamma", "path:4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "graph: path:4 (n=4, m=3)\ngamma: 2\nwitness: {0, 2}\n"


def test_bad_family_spec(capsys):
    code, _, err = run(capsys, "gamma", "zzz:4")
    assert code == 2
    assert "unknown graph family" in err


@pytest.mark.parametrize(
    "argv",
    [("gamma", "path:200000000"), ("sweep", "--family", "paths:1..200000000")],
    ids=["gamma", "sweep"],
)
def test_oversized_family_spec_hits_the_size_guard(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("domlab: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_malformed_graph6_argument(capsys):
    code, _, err = run(capsys, "gamma", "D")
    assert code == 2
    assert "truncated" in err


def test_non_ascii_graph6_file(capsys, tmp_path):
    p = tmp_path / "bad.g6"
    p.write_bytes(b"A_\xff\n")
    code, _, err = run(capsys, "gamma", f"@{p}")
    assert code == 2
    assert "0xff" in err
    assert "(byte 2)" in err


def test_node_budget_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "gamma", "grid:6x6", "--node-budget", "10")
    assert code == 3
    assert "budget" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "definitely-not-a-command")
    assert code == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "gamma", "@/nonexistent/file.g6")
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "0.1.0" in out


def test_no_hidden_options():
    # Hidden flags are test hooks; tests patch the library instead.
    parser = build_parser()
    (subcommands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, sub in subcommands.choices.items():
        for action in sub._actions:
            assert action.help != argparse.SUPPRESS, (name, action.option_strings)
