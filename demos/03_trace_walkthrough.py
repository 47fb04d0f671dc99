"""A narrated counting-argument trace on the 4x4 grid.

Given a dominating set D of G x H, the argument partitions G by a minimum
dominating subset of D's projection, counts dominated columns in a certificate
set C, and squeezes |D| between k*gamma(H) - |D| + k <= |C| <= |D|.  All of
the intermediate objects are materialized, so every step can be checked by
inspection.  This demo prints each one for G = H = P4.

Run:  python3 demos/03_trace_walkthrough.py
"""

from __future__ import annotations

from domlab import (
    build_trace,
    cartesian_product,
    contradiction_witness,
    format_check,
    path,
    solve_product,
    verify_trace,
)


def pairs(n_h: int, s) -> list[tuple[int, int]]:
    return [(x // n_h, x % n_h) for x in s.members]


def main() -> None:
    g = h = path(4)
    pg = cartesian_product(g, h)
    D = solve_product(pg).witness  # the set `domlab check` and `trace` replay
    print(f"G = H = P4; the product is the 4x4 grid, gamma = {len(D)}")
    print(f"D (as (u, v) pairs) = {pairs(h.n, D)}")
    print()

    t = build_trace(g, h, D, product=pg)
    print(f"Q  = projection of D onto G = {set(t.Q.members)}")
    print(f"U  = minimum dominating subset of Q = {list(t.U)} so k = {t.k}")
    print(f"pi = block of each G-vertex = {list(t.pi)}")
    print()

    for i in range(t.k):
        block = [w for w in range(g.n) if t.pi[w] == i]
        print(f"block {i} (around u_{i} = {t.U[i]}): pi_{i} = {block}")
        print(f"  S_{i} = D restricted to u_{i}'s row   = {pairs(h.n, t.S[i])}")
        print(f"  T_{i} = its H-projection             = {set(t.T[i].members)}")
        print(f"  D_{i} = D restricted to the block    = {pairs(h.n, t.Dparts[i])}")
        print(f"  P_{i} = its H-projection             = {set(t.P[i].members)}")
    print()

    print("Column certificates: (i, v) lands in C when D's column v dominates")
    print(f"all of block i's column.  C = {sorted(t.C)}")
    print(f"per-block counts  L = {list(t.Lsizes)}")
    print(f"per-column counts R = {list(t.Rsizes)}")
    print()

    verdict = verify_trace(t)
    for c in verdict.checks:
        print(format_check(c))
    print()

    clear = all(contradiction_witness(t, v) is None for v in range(h.n))
    print(f"contradiction scan found nothing: {clear}")
    print(f"all ten checks passed: {verdict.all_passed}")
    final = verdict.check("check_final")
    print(f"conclusion: {final.statement}")


if __name__ == "__main__":
    main()
