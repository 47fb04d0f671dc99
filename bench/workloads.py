"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop of one serial caller.  Its inputs come only
from the workload seed and from `reference.json`, which holds the answers
the seed commit gave on every input any seed can draw, plus what each input
cost to solve there.  Costs are used only to stratify the seeded samples: each
run draws the same mix of cheap and expensive inputs, so runs with different
seeds do the same amount of work and their timings can be compared.

domlab is always called through the `domlab` package namespace at call time
(`dl.gamma_bb(...)`), so the span wrappers of a traced run see every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

import domlab as dl

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Chang's tabulated domination numbers of the k x k grid.
CHANG_GRID_GAMMA = {6: 10, 7: 12, 8: 16, 9: 20}

# gamma_oracle is exhaustive; products up to this order are re-solved with it.
ORACLE_MAX_N = 16


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def graph_key(g) -> str:
    """Plain-text identity of a graph, independent of domlab's codecs."""
    return f"{g.n}:" + ",".join(format(row, "x") for row in g.adj)


def dominates(g, mask: int) -> bool:
    covered = 0
    m = mask
    while m:
        bit = m & -m
        covered |= g.closed[bit.bit_length() - 1]
        m ^= bit
    return covered == g.full_mask


def stratified_order(items: list, cost, strata: int, rng: random.Random) -> list:
    """Seeded order of `items` whose every prefix mixes costs evenly.

    Items are ranked by `cost` and cut into `strata` groups of equal count.
    The order is dealt in rounds, one item of every group per round, so any
    run that stops after whole rounds holds every cost group equally often.
    """
    ranked = sorted(items, key=cost)
    groups = [
        ranked[i * len(ranked) // strata : (i + 1) * len(ranked) // strata]
        for i in range(strata)
    ]
    for group in groups:
        rng.shuffle(group)
    order = []
    for r in range(max(len(g) for g in groups)):
        deal = [g[r] for g in groups if r < len(g)]
        rng.shuffle(deal)
        order.extend(deal)
    return order


class Stopwatch:
    """Adds up the time spent inside the domlab calls made through it."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


@dataclass
class Verdict:
    """Outcome of checking a run's answers; `failed` counts failed items.

    `answers` digests what the program answered and `expected` what the
    reference says it should have, or is None where the workload's checks
    need no reference.
    """

    attempted: int
    failed: int
    answers: str
    expected: str | None
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and (self.expected is None or self.answers == self.expected)


class Workload:
    """One seeded workload.

    `build(seed, sw)` returns the input schedule (domlab calls go through
    `sw`, which times set-up).  Operation i is `schedule[i % len]` when
    `cycles`, else `schedule[i]` until the schedule runs out.  A timed run
    stops only at a multiple of `pass_len` operations; a traced run performs
    exactly `trace_ops` operations.
    """

    name = ""
    cycles = False
    pass_len = 1
    trace_ops = 0

    def __init__(self, ref: dict):
        self.ref = ref

    def op_at(self, schedule: list, i: int):
        if self.cycles:
            return schedule[i % len(schedule)]
        return schedule[i] if i < len(schedule) else None

    def items(self, op) -> int:
        return 1


# ---------------------------------------------------------------------------
# sweep: the paper's main job, check_pair over pairs of small connected graphs
# ---------------------------------------------------------------------------


def _ceil_half(x: int) -> int:
    return -(-x // 2)


def _pair_index(i: int, j: int, count: int) -> int:
    """Position of pair (i, j), i <= j, in all_pairs order over `count` graphs."""
    return i * count - i * (i - 1) // 2 + (j - i)


class Sweep(Workload):
    """`domlab sweep --pairs all --format csv` on seeded 8-graph subsets.

    One operation is one `harness.sweep` call (jobs=1) over all 36 pairs of
    an 8-graph subset of the 143 connected graphs on <= 6 vertices, rendered
    to CSV with `pair_report_row`.  Each subset holds one graph on <= 4
    vertices, one on 5 and six on 6 (close to the corpus shares), the six
    drawn one from each sixth of the 6-vertex graphs ranked by cost.
    """

    name = "sweep"
    batches = 1000
    trace_ops = 12

    def _strata(self) -> list[list[int]]:
        sizes = [int(k.split(":")[0]) for k in self.ref["sweep"]["graphs"]]
        cost = self.ref["sweep"]["graph_ms"]
        six = sorted((i for i, n in enumerate(sizes) if n == 6), key=lambda i: cost[i])
        strata = [
            [i for i, n in enumerate(sizes) if n <= 4],
            [i for i, n in enumerate(sizes) if n == 5],
        ]
        strata += [six[k * len(six) // 6 : (k + 1) * len(six) // 6] for k in range(6)]
        return strata

    def build(self, seed: int, sw: Stopwatch) -> list:
        rng = random.Random(f"sweep:{seed}")
        strata = self._strata()
        plan = [tuple(sorted(rng.choice(s) for s in strata)) for _ in range(self.batches)]
        corpus = []
        for n in range(1, 7):
            corpus.extend(sw.call(dl.enumerate_connected_graphs, n))
        return [(idx, [corpus[i] for i in idx]) for idx in plan]

    def describe(self, schedule: list) -> list[str]:
        return [" ".join(graph_key(g) for g in graphs) for _, graphs in schedule]

    def items(self, op) -> int:
        k = len(op[0])
        return k * (k + 1) // 2

    def run(self, op):
        result = dl.sweep(dl.all_pairs(op[1]), jobs=1)
        rows = [dl.pair_report_row(r) for r in result.reports]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        flags = [(r.error, r.trace_ok, r.violated) for r in result.reports]
        return out.getvalue(), flags

    def expected_row(self, i: int, j: int) -> str:
        ref = self.ref["sweep"]
        gg, gh = ref["gamma"][i], ref["gamma"][j]
        gp = ref["gamma_product"][_pair_index(i, j, len(ref["gamma"]))]
        prod, hi, lo = gg * gh, max(gg, gh), min(gg, gh)
        new = _ceil_half(prod + hi)
        cells = [
            ref["g6"][i], ref["g6"][j], gg, gh, gp, _ceil_half(prod),
            _ceil_half(prod + lo), _ceil_half(prod) + lo, new, gp - new, "true",
        ]
        return ",".join(str(c) for c in cells)

    def check(self, schedule: list, ops: list, answers: list) -> Verdict:
        ref = self.ref["sweep"]
        failed = 0
        actual, expected = [], []
        oracle: dict = {}
        for (idx, graphs), (text, flags) in zip(ops, answers):
            rows = text.splitlines()
            pairs = [(a, b) for a in range(len(idx)) for b in range(a, len(idx))]
            if len(rows) != len(pairs) or len(flags) != len(pairs):
                rows = flags = [None] * len(pairs)
            for (a, b), row, flag in zip(pairs, rows, flags):
                i, j = idx[a], idx[b]
                want = self.expected_row(i, j)
                actual.append(str(row))
                expected.append(want)
                ok = row == want and flag == (None, True, False)
                ok = ok and graph_key(graphs[a]) == ref["graphs"][i]
                ok = ok and graph_key(graphs[b]) == ref["graphs"][j]
                ok = ok and _oracle_agrees(oracle, graphs[a], graphs[b], ref["gamma"][i],
                                           ref["gamma"][j], int(want.split(",")[4]))
                failed += not ok
        return Verdict(len(expected), failed, digest(actual), digest(expected))


def _oracle_gamma(memo: dict, g) -> int:
    key = (g.n, g.adj)
    if key not in memo:
        memo[key] = dl.gamma_oracle(g).gamma
    return memo[key]


def _oracle_agrees(memo: dict, g, h, gamma_g: int, gamma_h: int, gamma_prod: int) -> bool:
    """Factor gammas, and the product's when it is small, against gamma_oracle."""
    if _oracle_gamma(memo, g) != gamma_g or _oracle_gamma(memo, h) != gamma_h:
        return False
    if g.n * h.n > ORACLE_MAX_N:
        return True
    return _oracle_gamma(memo, dl.cartesian_product(g, h).graph) == gamma_prod


# ---------------------------------------------------------------------------
# grid_solve: deep one-off searches, no input repeats
# ---------------------------------------------------------------------------


class GridSolve(Workload):
    """`gamma_bb` on grid:6x6 .. grid:9x9, then seeded sparse gnp graphs.

    The grids run first in every run.  The gnp graphs are a seeded,
    cost-stratified order of the reference pool: G(n, c/(n-1)) on 40 to 60
    vertices with c in {2, 3, 4}, admitted when the seed commit solved them
    within 10,000 search nodes.  No graph repeats within a run.
    """

    name = "grid_solve"
    sample = 800
    strata = 40
    trace_ops = 4 + 120

    def build(self, seed: int, sw: Stopwatch) -> list:
        rng = random.Random(f"grid_solve:{seed}")
        pool = self.ref["grid_solve"]["pool"]
        order = stratified_order(list(range(len(pool))), lambda k: pool[k][5], self.strata, rng)
        schedule = [(f"grid:{k}x{k}", sw.call(dl.grid, k, k)) for k in CHANG_GRID_GAMMA]
        for k in order[: self.sample]:
            n, p, s = pool[k][:3]
            schedule.append((f"gnp:{n}:{p}:{s}", sw.call(dl.random_gnp, n, p, s)))
        return schedule

    def describe(self, schedule: list) -> list[str]:
        return [f"{spec} {graph_key(g)}" for spec, g in schedule]

    def run(self, op):
        r = dl.gamma_bb(op[1])
        return r.gamma, r.witness.mask

    def check(self, schedule: list, ops: list, answers: list) -> Verdict:
        pool = {f"gnp:{n}:{p}:{s}": (gamma, int(w, 16)) for n, p, s, gamma, w, _ in
                self.ref["grid_solve"]["pool"]}
        failed = 0
        actual, expected = [], []
        for (spec, g), (gamma, witness) in zip(ops, answers):
            if spec.startswith("grid:"):
                want = (CHANG_GRID_GAMMA[int(spec.split("x")[1])], None)
            else:
                want = pool[spec]
            ok = gamma == want[0] and dominates(g, witness) and witness.bit_count() == gamma
            ok = ok and (want[1] is None or witness == want[1])
            failed += not ok
            actual.append(f"{spec} {gamma} {witness:x}")
            expected.append(f"{spec} {want[0]} {(want[1] if want[1] is not None else witness):x}")
        return Verdict(len(ops), failed, digest(actual), digest(expected))


# ---------------------------------------------------------------------------
# trace_replay: the trace and graphs layers on 500 to 2,000-vertex products
# ---------------------------------------------------------------------------


def _small_factor_specs() -> list[tuple[str, int, int]]:
    """(family, a, b) for grid, path and cycle factors on 4 to 16 vertices."""
    specs = [("grid", a, b) for a in range(2, 5) for b in range(a, 9) if 4 <= a * b <= 16]
    specs += [(fam, m, 0) for fam in ("path", "cycle") for m in range(4, 17)]
    return specs


def _factor(sw: Stopwatch, family: str, a: int, b: int = 0):
    if family == "grid":
        return sw.call(dl.grid, a, b)
    return sw.call(getattr(dl, family), a)


def _random_dominating(closed: tuple, n: int, rng: random.Random, density: float) -> int:
    """A seeded random vertex subset, topped up until it dominates."""
    mask = 0
    for v in range(n):
        if rng.random() < density:
            mask |= 1 << v
    covered = 0
    m = mask
    while m:
        bit = m & -m
        covered |= closed[bit.bit_length() - 1]
        m ^= bit
    for v in range(n):
        if not (covered >> v) & 1:
            row = closed[v]
            choices = [w for w in range(n) if (row >> w) & 1]
            w = rng.choice(choices)
            mask |= 1 << w
            covered |= closed[w]
    return mask


class TraceReplay(Workload):
    """Build, verify and scan a proof trace for a seeded dominating set.

    One operation is `cartesian_product`, `build_trace` with gamma hints
    solved in set-up, `verify_trace`, and `contradiction_witness` on every
    layer.  Eight factor pairs have products of 500 to 2,000 vertices, evenly
    spaced so that every seed builds the same sizes: a grid, path or cycle
    factor G on 4 to 16 vertices times a path or cycle H on at most 160.
    Each pair gets one random dominating set and one shrunk to minimal; the
    16 inputs form one pass, repeated until the run ends.
    """

    name = "trace_replay"
    cycles = True
    pairs = 8
    max_h = 160
    density = 0.1
    pass_len = 16
    trace_ops = 16 * 16

    def build(self, seed: int, sw: Stopwatch) -> list:
        rng = random.Random(f"trace_replay:{seed}")
        specs = _small_factor_specs()
        schedule = []
        for t in range(self.pairs):
            target = 500 + 1500 * t // (self.pairs - 1)
            fits = [s for s in specs if s[1] * (s[2] or 1) * self.max_h >= target]
            fam, a, b = rng.choice(fits)
            n_g = a * (b or 1)
            h_fam = rng.choice(("path", "cycle"))
            n_h = round(target / n_g)
            g = _factor(sw, fam, a, b)
            h = _factor(sw, h_fam, n_h)
            gamma_g = sw.call(dl.gamma_bb, g)
            gamma_h = sw.call(dl.gamma_bb, h)
            pg = sw.call(dl.cartesian_product, g, h)
            label = f"{fam}:{a}x{b}" if fam == "grid" else f"{fam}:{a}"
            label += f" x {h_fam}:{n_h}"
            for shrink in (False, True):
                mask = _random_dominating(pg.graph.closed, pg.graph.n, rng, self.density)
                d = dl.VertexSet(pg.graph.n, mask)
                if shrink:
                    d = sw.call(dl.shrink_to_minimal, pg.graph, d)
                tag = "minimal" if shrink else "random"
                schedule.append((f"{label} {tag}", g, h, d, gamma_g, gamma_h))
        rng.shuffle(schedule)
        return schedule

    def describe(self, schedule: list) -> list[str]:
        return [f"{label} {d.mask:x}" for label, _, _, d, _, _ in schedule]

    def run(self, op):
        _, g, h, d, gamma_g, gamma_h = op
        pg = dl.cartesian_product(g, h)
        tr = dl.build_trace(g, h, d, gamma_g=gamma_g, gamma_h=gamma_h, product=pg)
        verdict = dl.verify_trace(tr)
        clear = all(dl.contradiction_witness(tr, v) is None for v in range(h.n))
        return tr.k, len(tr.C), verdict.all_passed, clear

    def check(self, schedule: list, ops: list, answers: list) -> Verdict:
        failed = 0
        memo: dict = {}
        factor_ok = {}
        for label, g, h, _, gamma_g, gamma_h in schedule:
            ok = _oracle_gamma(memo, g) == gamma_g.gamma
            ok = ok and gamma_h.gamma == -(-h.n // 3)
            for graph, r in ((g, gamma_g), (h, gamma_h)):
                ok = ok and dominates(graph, r.witness.mask) and len(r.witness) == r.gamma
            factor_ok[label] = ok
        actual = []
        for op, (k, csize, passed, clear) in zip(ops, answers):
            failed += not (passed and clear and factor_ok[op[0]])
            actual.append(f"{op[0]} {k} {csize} {passed} {clear}")
        return Verdict(len(ops), failed, digest(actual), None)


# ---------------------------------------------------------------------------
# remark: brute-force enumeration of minimum dominating sets
# ---------------------------------------------------------------------------


REMARK_FIXED = (
    ("path", 4, "path", 4),
    ("path", 5, "path", 5),
    ("star", 6, "star", 6),
    ("cycle", 6, "cycle", 5),
)


class Remark(Workload):
    """`domlab remark`: `remark_search`, then `remark_trace` on a hit.

    A pass is the four fixed pairs (path:4 x path:4 is a miss) plus 62 of
    the 496 pairs of connected graphs on <= 5 vertices, one from each of 62
    groups of pairs ranked by cost.  The 496 pairs are dealt into 8 passes
    in a seeded order; passes repeat after the eighth.
    """

    name = "remark"
    cycles = True
    pass_len = 4 + 62
    trace_ops = 2 * (4 + 62)

    def build(self, seed: int, sw: Stopwatch) -> list:
        rng = random.Random(f"remark:{seed}")
        ref = self.ref["remark"]
        corpus = []
        for n in range(1, 6):
            corpus.extend(sw.call(dl.enumerate_connected_graphs, n))
        fixed = []
        for fg, ng, fh, nh in REMARK_FIXED:
            g = sw.call(getattr(dl, fg), ng)
            h = sw.call(getattr(dl, fh), nh)
            fixed.append((f"{fg}:{ng} x {fh}:{nh}", g, h))
        pairs = [(i, j) for i in range(len(corpus)) for j in range(i, len(corpus))]
        cost = {f"{i},{j}": ref["pairs"][f"{i},{j}"][4] for i, j in pairs}
        strata = self.pass_len - len(fixed)
        order = stratified_order(pairs, lambda p: cost[f"{p[0]},{p[1]}"], strata, rng)
        schedule = []
        for start in range(0, len(order), strata):
            schedule.extend(fixed)
            schedule.extend((f"{i},{j}", corpus[i], corpus[j]) for i, j in order[start : start + strata])
        return schedule

    def describe(self, schedule: list) -> list[str]:
        return [f"{label} {graph_key(g)} {graph_key(h)}" for label, g, h in schedule]

    def run(self, op):
        _, g, h = op
        report = dl.remark_search(g, h)
        passed = None
        if report.found is not None:
            passed = dl.remark_trace(g, h, report.found).all_passed
        found = report.found.mask if report.found is not None else None
        return report.gamma_product, report.count_min_sets, found, report.truncated, passed

    def check(self, schedule: list, ops: list, answers: list) -> Verdict:
        ref = self.ref["remark"]
        failed = 0
        memo: dict = {}
        actual, expected = [], []
        for (label, g, h), (gamma, count, found, truncated, passed) in zip(ops, answers):
            gp, want_count, want_found, want_trunc, _, gg, gh = ref["pairs"][label]
            want_found = int(want_found, 16) if want_found is not None else None
            ok = (gamma, count, found, truncated) == (gp, want_count, want_found, want_trunc)
            if found is not None:
                pg = dl.cartesian_product(g, h).graph
                ok = ok and passed is True and dominates(pg, found) and found.bit_count() == gamma
            ok = ok and _oracle_agrees(memo, g, h, gg, gh, gp)
            failed += not ok
            actual.append(f"{label} {gamma} {count} {found} {truncated}")
            expected.append(f"{label} {gp} {want_count} {want_found} {want_trunc}")
        return Verdict(len(ops), failed, digest(actual), digest(expected))


WORKLOADS = {w.name: w for w in (Sweep, GridSolve, TraceReplay, Remark)}
