"""The developer tools under tools/."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("workload", ["sweep", "remark"])
def test_paired_timing_runs_the_repo_against_itself(workload):
    # Two copies of one checkout, loaded side by side, answer every
    # operation alike and build the same inputs; each round prints both
    # times and their ratio.
    def paired(*flags):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "paired_timing.py"), str(ROOT),
             str(ROOT), "--workload", workload, "--seed", "1", "--rounds", "2",
             *flags],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.splitlines()

    for out, label, digits in (
        (paired("--ops", "2"), "2 ops", 3),
        (paired("--setup"), "set-up", 5),
    ):
        assert len(out) == 3
        for r, line in enumerate(out[:2], 1):
            assert re.fullmatch(
                rf"round {r}: {label}, base \d+\.\d{{{digits}}} s, "
                rf"new \d+\.\d{{{digits}}} s, ratio \d+\.\d{{3}}",
                line,
            ), line
        assert re.fullmatch(r"median ratio \d+\.\d{3} over 2 rounds", out[2])


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
