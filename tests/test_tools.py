"""The developer tools under tools/."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def paired_timing(base, new, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_timing.py"), str(base), str(new),
         *flags],
        capture_output=True, text=True, timeout=120,
    )


# Appended to a copy's harness.py: remark_search runs one more statement,
# with the call's `report` in scope, after each call.
WRAP_REMARK_SEARCH = """
import dataclasses, mmap
_KEPT = []
_remark_search = remark_search


def remark_search(*args, **kwargs):
    report = _remark_search(*args, **kwargs)
    {}
    return report
"""


def checkout_copy(root: Path, statement: str = "pass") -> Path:
    """A copy of this checkout's src/ and bench/ under `root`, whose
    remark_search runs `statement` after each call."""
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
    harness = root / "src" / "domlab" / "harness.py"
    harness.write_text(harness.read_text() + WRAP_REMARK_SEARCH.format(statement))
    return root


@pytest.mark.parametrize("workload", ["sweep", "remark"])
def test_paired_timing_runs_the_repo_against_itself(workload):
    # Two processes of one checkout answer every operation alike and build
    # the same inputs; each round prints both sides' seconds and peak RSS
    # and the time ratio.
    for flags, label, digits in ((("--ops", "2"), "2 ops", 3), (("--setup",), "set-up", 5)):
        done = paired_timing(ROOT, ROOT, "--workload", workload, "--seed", "1",
                             "--rounds", "2", *flags)
        assert done.returncode == 0, done.stderr
        out = done.stdout.splitlines()
        assert len(out) == 3
        side = rf"\d+\.\d{{{digits}}} s maxrss \d+\.\d{{2}} MB"
        for r, line in enumerate(out[:2], 1):
            assert re.fullmatch(
                rf"round {r}: {label}, base {side}, new {side}, ratio \d+\.\d{{3}}", line
            ), line
        assert re.fullmatch(r"median ratio \d+\.\d{3} over 2 rounds", out[2])


def test_paired_timing_rss_runs_the_repo_against_itself():
    # Each side runs the same few remark operations in its own process,
    # through bench/run.py's set-up and Phase, and reports a nonzero peak
    # RSS; over one round the median ratio is that round's ratio.
    done = paired_timing(ROOT, ROOT, "--workload", "remark", "--seed", "1", "--ops", "5",
                         "--rounds", "1")
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    assert len(out) == 2
    side = r"\d+\.\d{3} s maxrss (\d+\.\d{2}) MB"
    match = re.fullmatch(rf"round 1: 5 ops, base {side}, new {side}, ratio \d+\.\d{{3}}", out[0])
    assert match, out[0]
    assert all(float(mb) > 0 for mb in match.groups()), out[0]
    assert out[1] == "median ratio " + out[0].rsplit(" ", 1)[1] + " over 1 rounds"


def test_paired_timing_reads_each_sides_own_memory(tmp_path):
    # One copy's remark_search keeps a written 4 KB page per call; over
    # 1,000 operations only that side's peak RSS shows the ~4 MB, because
    # each side is its own process and the tool's parent stays below both.
    # Each page is its own mapping: kept in the malloc heap, ~1 MB of it
    # would land on free pages the heap already holds.
    base = checkout_copy(tmp_path / "base")
    new = checkout_copy(
        tmp_path / "new",
        "_KEPT.append(mmap.mmap(-1, 4096)); _KEPT[-1].write(bytes(range(256)) * 16)",
    )
    done = paired_timing(base, new, "--workload", "remark", "--seed", "1", "--ops", "1000",
                         "--rounds", "1")
    assert done.returncode == 0, done.stderr
    base_mb, new_mb = map(float, re.findall(r"maxrss (\d+\.\d+) MB", done.stdout))
    assert new_mb >= base_mb + 3, done.stdout


@pytest.mark.parametrize("statement, error", [
    ("report = dataclasses.replace(report, count_min_sets=report.count_min_sets + 1)",
     "operation 0: the two sides answer differently"),
    ("raise RuntimeError('planted')", "operation 0 failed: RuntimeError: planted"),
])
def test_paired_timing_stops_on_a_differing_or_failing_side(tmp_path, statement, error):
    # A side that answers differently, or raises, stops the tool with exit
    # status 1 and that error on stderr, before any round line.
    new = checkout_copy(tmp_path / "new", statement)
    done = paired_timing(ROOT, new, "--workload", "remark", "--seed", "1", "--ops", "2",
                         "--rounds", "1")
    assert done.returncode == 1
    assert done.stdout == ""
    assert error in done.stderr


def test_mutants_kills_the_silenced_membership_check():
    # A check_membership that never records a violation passes every other
    # test; the corrupted-trace pin is what kills it.
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutants.py"), "silenced-membership"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    assert out == ["killed    silenced-membership", "survivors: none"]


def test_corpus_check_matches_the_recorded_csv():
    # The CLI sweep of every pair of connected graphs on <= 6 vertices, run
    # through the worker pool, keeps the CSV bytes recorded in the tool.
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "corpus_check.py")],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    assert out == (
        "ok: 143 graphs, 10296 pairs, csv sha256 "
        "969b40f629643419868e124d0a942ab24c519a1faf581da09e7006f6d54b044a\n"
    )


def test_cli_bytes_runs_the_repo_against_itself():
    # One checkout against itself writes the same bytes for each invocation
    # named, a remark with its trace checks and an exit-2 refusal among them.
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_bytes.py"), str(ROOT), str(ROOT),
         "remark-hit", "exit-2-bad-family"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out == [
        "same     remark-hit", "same     exit-2-bad-family", "differences: none"
    ]
