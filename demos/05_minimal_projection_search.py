"""Hunting for minimum dominating sets whose projection is minimal.

When a product's minimum dominating set projects onto a minimal dominating
set of the first factor, the counting argument sharpens all the way to the
conjectured product bound.  Such sets are rare: the 4x4 grid (P4 x P4) has
none.  This demo reproduces that negative result, then scans small pairs for
positive instances and verifies the sharpened chain on each hit.

Run:  python3 demos/05_minimal_projection_search.py
"""

from __future__ import annotations

from domlab import (
    all_pairs,
    enumerate_connected_graphs,
    format_check,
    path,
    remark_search,
    remark_trace,
)


def main() -> None:
    print("P4 x P4 (the 4x4 grid):")
    rep = remark_search(path(4), path(4))
    print(f"  gamma(product) = {rep.gamma_product}")
    print(f"  minimum dominating sets examined: {rep.count_min_sets}")
    if rep.found is None:
        print("  none has a minimal projection; the sharpened path is empty here")
    print()

    corpus = []
    for n in range(1, 5):
        corpus.extend(enumerate_connected_graphs(n))

    print(f"scanning all pairs of the {len(corpus)} connected graphs on <= 4 vertices...")
    hits = []
    for g, h in all_pairs(corpus):
        found = remark_search(g, h).found
        if found is not None:
            hits.append((g, h, found))
    print(f"{len(hits)} pairs have a qualifying minimum dominating set")
    print()

    g, h, D = hits[-1]
    n_h = h.n
    as_pairs = [(x // n_h, x % n_h) for x in D.members]
    print(f"verifying the sharpened chain on the last hit, D = {as_pairs}:")
    verdict = remark_trace(g, h, D)
    for name in ("check_remark_sum", "check_remark_product", "check_remark_conjecture"):
        print(" ", format_check(verdict.check(name)))
    print(f"  all thirteen checks passed: {verdict.all_passed}")
    print()
    print("on such instances |D| reaches the conjectured product bound itself:")
    print(
        f"  |D| = {len(D)} >= gammaG * gammaH ="
        f" {verdict.trace.gammaG * verdict.trace.gammaH}"
    )


if __name__ == "__main__":
    main()
