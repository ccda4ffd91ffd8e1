"""Seeded request decks for the three benchmark workloads.

A deck is a fixed list of requests built from one seed. Class sizes are
stratified: every class cycles through its size range in a fixed pattern, so
each seed yields the same multiset of dimensions and only the numbers inside
the instances change. This keeps the latency mix comparable between seeds.

Nothing here imports knapvote: the program only ever sees the JSON files the
benchmark writes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Inst:
    """A knapsack instance as plain tuples (the benchmark's own copy)."""

    costs: tuple[int, ...]
    utilities: tuple[tuple[int, ...], ...]
    budget: int
    item_names: tuple[str, ...] = ()

    @property
    def names(self) -> list[str]:
        return list(self.item_names) or [f"i{j}" for j in range(len(self.costs))]

    def document(self) -> dict:
        return {
            "voters": len(self.utilities),
            "items": [{"name": nm, "cost": c} for nm, c in zip(self.names, self.costs)],
            "utilities": [list(r) for r in self.utilities],
            "budget": self.budget,
        }


@dataclass
class Solve:
    """One `knapvote solve --method auto` request on a written instance."""

    label: str
    objective: str
    inst: Inst
    path: str = ""

    def write(self, directory: str, index: int) -> None:
        self.path = os.path.join(directory, f"req{index}.json")
        _dump(self.path, self.inst.document())


@dataclass
class Decide:
    """`knapvote generate` from a source problem, then `solve --threshold`."""

    label: str
    reduction: str
    params: dict
    params_path: str = ""
    out_path: str = ""

    def write(self, directory: str, index: int) -> None:
        self.params_path = os.path.join(directory, f"req{index}.params.json")
        self.out_path = os.path.join(directory, f"req{index}.instance.json")
        _dump(self.params_path, self.params)


def _dump(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _sizes(k: int, *ranges: range) -> tuple[int, ...]:
    """The k-th entry of a fixed cycle through the product of ranges."""
    combos = list(itertools.product(*ranges))
    return combos[k % len(combos)]


def _budget(rng: random.Random, costs, lo: float, hi: float) -> int:
    return max(1, int(sum(costs) * rng.uniform(lo, hi)))


def _plant_cycle(rows: list[list[int]], top: int) -> None:
    """Give voters 0-2 a Condorcet cycle on items 0-2, strictly above their
    other utilities. Restrictions of single-peaked or single-crossing
    profiles keep the property, and a cyclic 3 x 3 block has neither, so the
    whole profile has neither, whatever the other entries are."""
    cycle = ((3, 2, 1), (1, 3, 2), (2, 1, 3))
    for i in range(3):
        for j in range(3):
            rows[i][j] = top + cycle[i][j]


def _shuffled(rng: random.Random, rows: list[list[int]], costs: list[int]):
    """Shuffle voter order and item order."""
    m = len(costs)
    perm = list(range(m))
    rng.shuffle(perm)
    rows = [[r[j] for j in perm] for r in rows]
    rng.shuffle(rows)
    return tuple(tuple(r) for r in rows), tuple(costs[j] for j in perm)


# ---------------------------------------------------------------------------
# instance classes for `tables` and `search`


def ib_wide(rng: random.Random, k: int) -> Solve:
    n, m = _sizes(k, range(20, 41, 10), range(12, 17, 2))
    rows = [[rng.randint(0, 100) for _ in range(m)] for _ in range(n)]
    costs = [rng.randint(1, 20) for _ in range(m)]
    return Solve("ib-table", "ib", Inst(tuple(costs), tuple(map(tuple, rows)),
                                         _budget(rng, costs, 0.3, 0.6)))


def diverse_single_peaked(rng: random.Random, k: int) -> Solve:
    """Each voter has a peak on a hidden axis; utilities never rise away from
    it. Items are then shuffled, so the recognizer must find the axis."""
    n, m = _sizes(k, range(20, 41, 10), range(12, 17, 2))
    rows = []
    for _ in range(n):
        along = [0] * m
        peak = rng.randrange(m)
        along[peak] = rng.randint(4, 12)
        for p in range(peak - 1, -1, -1):
            along[p] = max(0, along[p + 1] - rng.randint(1, 4))
        for p in range(peak + 1, m):
            along[p] = max(0, along[p - 1] - rng.randint(1, 4))
        rows.append(along)
    costs = [rng.randint(1, 10) for _ in range(m)]
    utilities, costs_t = _shuffled(rng, rows, costs)
    return Solve("sp-table", "diverse",
                 Inst(costs_t, utilities, _budget(rng, costs, 0.2, 0.4)))


def diverse_single_crossing(rng: random.Random, k: int) -> Solve:
    """Voters sit at points t of a line and utilities are affine in t, so the
    profile is single-crossing. Items A = 3t, C = 3(T - t) and B = 1 are each
    the unique worst item of some voter (t = 0, T, T/2), which rules out every
    single-peaked item order. Voters are then shuffled."""
    n, m = _sizes(k, range(20, 41, 10), range(12, 17, 2))
    top = 8
    spots = [0, top // 2, top] + [rng.randint(0, top) for _ in range(n - 3)]
    funcs = [(0, 3), (3 * top, -3), (1, 0)]
    while len(funcs) < m:
        slope = rng.randint(-2, 2)
        lo = 2 - min(0, slope * top)
        funcs.append((rng.randint(lo, lo + 6), slope))
    rows = [[a + b * t for a, b in funcs] for t in spots]
    costs = [rng.randint(1, 10) for _ in range(m)]
    utilities, costs_t = _shuffled(rng, rows, costs)
    return Solve("sc-table", "diverse",
                 Inst(costs_t, utilities, _budget(rng, costs, 0.2, 0.4)))


def _spread(lo: int, hi: int, m: int) -> list[int]:
    """m values evenly spread over [lo, hi]."""
    return [lo + (hi - lo) * j // max(1, m - 1) for j in range(m)]


def _unstructured(rng: random.Random, n: int, m: int, umax: int,
                  cost_range: tuple[int, int], budget_share: float) -> Inst:
    """Random utilities with a planted cycle. The costs are the same evenly
    spread multiset for every seed, in a random order, and the budget is a
    fixed share of their total: the number of feasible subsets, and with it
    the work of brute force and of greedy's seeds, depends on the dimensions
    alone."""
    rows = [[rng.randint(0, umax) for _ in range(m)] for _ in range(n)]
    _plant_cycle(rows, umax)
    costs = _spread(*cost_range, m)
    utilities, costs_t = _shuffled(rng, rows, costs)
    return Inst(costs_t, utilities, int(sum(costs) * budget_share))


# Six-voter requests (720 voter orders each) are weighted so that they make
# up the slowest fifth of the search deck: its p90 then falls inside one class
# instead of on the boundary between two.
_FPT_SIZES = ([(n, m) for n in (4, 5) for m in (10, 11, 12)]
              + [(6, m) for m in (10, 11, 12)] * 3)


def diverse_fpt(rng: random.Random, k: int) -> Solve:
    """At most eight voters and no structure: auto tries every voter order."""
    n, m = _FPT_SIZES[k % len(_FPT_SIZES)]
    return Solve(f"fpt-{n}v", "diverse", _unstructured(rng, n, m, 5, (2, 4), 0.3))


def diverse_brute(rng: random.Random, k: int) -> Solve:
    n, m = _sizes(k, range(9, 15, 5), range(14, 19, 2))
    return Solve("diverse-brute", "diverse", _unstructured(rng, n, m, 9, (3, 5), 0.5))


def fair_brute(rng: random.Random, k: int) -> Solve:
    """Per-voter utility sums make the vector table far too big, so the
    xp-dp guardrail trips before brute force runs."""
    n, m = _sizes(k, range(5, 9, 3), range(12, 17, 2))
    return Solve("fair-brute", "fair", _unstructured(rng, n, m, 9, (3, 5), 0.5))


def _greedy_costs(k: int) -> tuple[int, int]:
    return ((1, 10), (1, 100))[k % 2]


def diverse_greedy(rng: random.Random, k: int) -> Solve:
    """Over 25 items, 12 voters: past the brute-force and fpt caps."""
    (m,) = _sizes(k // 2, range(26, 29))
    return Solve("diverse-greedy", "diverse",
                 _unstructured(rng, 12, m, 9, _greedy_costs(k), 0.1))


def fair_greedy(rng: random.Random, k: int) -> Solve:
    """Over 25 items; wide costs make the exact fair density test raise
    products to powers up to 100."""
    (m,) = _sizes(k // 2, range(26, 29))
    return Solve("fair-greedy", "fair", _unstructured(rng, 5, m, 9, _greedy_costs(k), 0.1))


# ---------------------------------------------------------------------------
# source problems for `decide`, each with the bench's own enumerator


def _any_subset(n: int, pred, sizes=None) -> bool:
    for r in sizes if sizes is not None else range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if pred(combo):
                return True
    return False


def knapsack_source(rng: random.Random, k: int) -> Decide:
    (n,) = _sizes(k, range(5, 7))
    values = _spread(10, 20, n)
    rng.shuffle(values)
    weights = [rng.randint(1, 15) for _ in range(n)]
    budget = sum(weights) // 2
    best = max(
        sum(values[j] for j in c)
        for r in range(n + 1)
        for c in itertools.combinations(range(n), r)
        if sum(weights[j] for j in c) <= budget
    )
    target = best + (k // 2) % 2  # alternate yes (reachable) and no (one past)
    params = {"values": values, "weights": weights, "value_target": target,
              "weight_budget": budget}
    return Decide("knapsack", "knapsack", params)


def knapsack_yes(p: dict) -> bool:
    v, w = p["values"], p["weights"]
    return _any_subset(len(v), lambda c: sum(w[j] for j in c) <= p["weight_budget"]
                       and sum(v[j] for j in c) >= p["value_target"])


def partition_source(rng: random.Random, k: int) -> Decide:
    (n,) = _sizes(k, range(6, 11, 2))
    params = {"entries": [2 * rng.randint(1, 30) for _ in range(n)]}
    return Decide("partition", "partition", params)


def partition_yes(p: dict) -> bool:
    e = p["entries"]
    total = sum(e)
    return total % 2 == 0 and _any_subset(len(e), lambda c: 2 * sum(e[j] for j in c) == total)


def exact_partition_source(rng: random.Random, k: int) -> Decide:
    n, kk = _sizes(k, range(6, 9), range(2, 4))
    unit = 2 * kk
    params = {"entries": [unit * rng.randint(1, 12) for _ in range(n)], "k": kk}
    return Decide("exact-partition", "exact-partition", params)


def exact_partition_yes(p: dict) -> bool:
    e, kk = p["entries"], p["k"]
    total = sum(e)
    return (total % 2 == 0 and kk <= len(e)
            and _any_subset(len(e), lambda c: 2 * sum(e[j] for j in c) == total, [kk]))


def ersp_source(rng: random.Random, k: int) -> Decide:
    universe, m, kk = _sizes(k, range(7, 10), range(10, 13), range(2, 4))
    sets = [sorted(rng.sample(range(universe), 3)) for _ in range(m)]
    params = {"universe_size": universe, "sets": sets, "d": 3, "k": kk}
    return Decide("ersp", "ersp", params)


def ersp_yes(p: dict) -> bool:
    sets = p["sets"]

    def disjoint(c):
        elems = [x for i in c for x in sets[i]]
        return len(set(elems)) == len(elems)

    return p["k"] <= len(sets) and _any_subset(len(sets), disjoint, [p["k"]])


def _random_graph(rng: random.Random, n: int, prob: float) -> list[list[int]]:
    return [[u, v] for u, v in itertools.combinations(range(n), 2) if rng.random() < prob]


def dominating_set_source(rng: random.Random, k: int) -> Decide:
    """Six vertices around an induced claw: the claw's closed neighbourhoods
    are neither single-peaked nor single-crossing, so auto runs fpt."""
    n, kk = 6, (2, 3)[k % 2]
    claw = {(0, 1), (0, 2), (0, 3)}
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if (u, v) in claw or (v >= 4 and rng.random() < 0.5)]
    label = list(range(n))
    rng.shuffle(label)
    params = {"num_vertices": n, "edges": sorted(sorted((label[u], label[v])) for u, v in edges),
              "k": kk}
    return Decide("dominating-set", "dominating-set", params)


def dominating_set_yes(p: dict) -> bool:
    n = p["num_vertices"]
    closed = [{v} for v in range(n)]
    for u, v in p["edges"]:
        closed[u].add(v)
        closed[v].add(u)
    return _any_subset(
        n, lambda c: len(set().union(*(closed[v] for v in c))) == n,
        range(min(p["k"], n) + 1))


def multicolored_clique_source(rng: random.Random, k: int) -> Decide:
    """Three colours of three vertices and 17 of the 27 inter-colour edges:
    26 items, the fewest that put the instance past brute force, so auto
    reaches the greedy fallback, whose yes/no can be wrong."""
    kk, n = 3, 9
    coloring = [v % kk for v in range(n)]
    pairs = [[u, v] for u, v in itertools.combinations(range(n), 2)
             if coloring[u] != coloring[v]]
    params = {"num_vertices": n, "edges": sorted(rng.sample(pairs, 17)),
              "coloring": coloring, "k": kk}
    return Decide("multicolored-clique", "multicolored-clique", params)


def multicolored_clique_yes(p: dict) -> bool:
    kk = p["k"]
    by_color = [[v for v in range(p["num_vertices"]) if p["coloring"][v] == c]
                for c in range(kk)]
    adjacent = {(min(u, v), max(u, v)) for u, v in p["edges"]}
    return any(
        all((min(a, b), max(a, b)) in adjacent for a, b in itertools.combinations(pick, 2))
        for pick in itertools.product(*by_color)
    )


def x3c_source(rng: random.Random, k: int) -> Decide:
    """A random regular exact-cover source: 3k elements, 3k sets of three,
    every element in exactly three sets (drawn by rejection)."""
    (n,) = _sizes(k, range(6, 7))
    while True:
        slots = [e for e in range(n) for _ in range(3)]
        rng.shuffle(slots)
        sets = [sorted(slots[3 * i:3 * i + 3]) for i in range(n)]
        if all(len(set(s)) == 3 for s in sets):
            break
    params = {"universe_size": n, "sets": sets}
    return Decide("x3c", "x3c", params)


def x3c_yes(p: dict) -> bool:
    n, sets = p["universe_size"], p["sets"]

    def covers(c):
        return len({x for i in c for x in sets[i]}) == n

    return _any_subset(len(sets), covers, [n // 3])


SOURCE_ANSWERS: dict[str, Callable[[dict], bool]] = {
    "knapsack": knapsack_yes,
    "partition": partition_yes,
    "exact-partition": exact_partition_yes,
    "ersp": ersp_yes,
    "dominating-set": dominating_set_yes,
    "multicolored-clique": multicolored_clique_yes,
    "x3c": x3c_yes,
}


# ---------------------------------------------------------------------------
# decks

Builder = Callable[[random.Random, int], object]

DECKS: dict[str, list[tuple[Builder, int]]] = {
    "tables": [(ib_wide, 12), (diverse_single_peaked, 12), (diverse_single_crossing, 12)],
    "search": [(diverse_fpt, 15), (diverse_brute, 9), (fair_brute, 9),
               (diverse_greedy, 6), (fair_greedy, 6)],
    "decide": [(knapsack_source, 6), (partition_source, 6), (exact_partition_source, 6),
               (ersp_source, 6), (dominating_set_source, 6),
               (multicolored_clique_source, 7), (x3c_source, 6)],
}


def build_deck(workload: str, seed: int, scale: Optional[int] = None) -> list:
    """The workload's requests for one seed. ``scale`` caps every class at
    that many requests (small decks for the benchmark's own tests)."""
    rng = random.Random(f"{workload}:{seed}")
    deck = []
    for builder, count in DECKS[workload]:
        for k in range(count if scale is None else min(count, scale)):
            deck.append(builder(rng, k))
    return deck
