"""Check the exhaustive sweep of the <= 6 corpus against its recorded CSV.

    python3 tools/corpus_check.py

Lists the 143 connected graphs on 1 to 6 vertices with `domlab enumerate`,
sweeps their 10,296 pairs with `domlab sweep --graph6 ... --format csv
--jobs 2`, and compares the CSV's sha256 with the one recorded below.  Both
commands run this checkout's `src/`.  Prints one line; the exit status is 0
when the sha256 matches and 1 when it does not.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS_CSV_SHA256 = "969b40f629643419868e124d0a942ab24c519a1faf581da09e7006f6d54b044a"


def domlab(*args: str) -> bytes:
    """The stdout bytes of `python -m domlab ARGS` on this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "domlab", *args],
        env=env, capture_output=True, check=True,
    ).stdout


def main() -> int:
    corpus = b"".join(domlab("enumerate", str(n)) for n in range(1, 7))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.g6"
        path.write_bytes(corpus)
        csv = domlab("sweep", "--graph6", str(path), "--format", "csv", "--jobs", "2")
    sha = hashlib.sha256(csv).hexdigest()
    graphs, pairs = len(corpus.splitlines()), len(csv.splitlines()) - 1
    if sha != CORPUS_CSV_SHA256:
        print(f"FAIL: {graphs} graphs, {pairs} pairs, csv sha256 {sha},"
              f" recorded {CORPUS_CSV_SHA256}")
        return 1
    print(f"ok: {graphs} graphs, {pairs} pairs, csv sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
