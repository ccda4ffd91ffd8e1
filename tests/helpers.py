"""First-principles oracles for the test suite.

Everything here recomputes expected results by direct enumeration over the
definitions, sharing no algorithmic machinery with the package: subset
enumeration for optima, permutation search for domain witnesses, and
segment-partition enumeration for connected assignments. The one exception
is the recognizers' reference rows, which are built cell by cell from the
definitions and handed to the package's public ``c1p_order``.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from knapvote import Instance
from knapvote.domains import c1p_order


def subset_value(instance: Instance, kind: str, subset: Sequence[int]):
    """Objective value of a subset, by definition. kind: ib|diverse|fair."""
    rows = instance.utilities
    if kind == "ib":
        return sum(sum(row[j] for j in subset) for row in rows)
    if kind == "diverse":
        return sum(max((row[j] for j in subset), default=0) for row in rows)
    if kind != "fair":
        raise ValueError(kind)
    prod = 1
    for row in rows:
        prod *= 1 + sum(row[j] for j in subset)
    return prod


def best_subset(instance: Instance, kind: str):
    """(value, cost, subset) with max value, then min cost, then lex subset."""
    best = None
    for r in range(instance.num_items + 1):
        for combo in itertools.combinations(range(instance.num_items), r):
            cost = sum(instance.costs[j] for j in combo)
            if cost > instance.budget:
                continue
            key = (-subset_value(instance, kind, combo), cost, combo)
            if best is None or key < best:
                best = key
    assert best is not None  # the empty set is always feasible (budget >= 0)
    return -best[0], best[1], best[2]


def greedy_by_definition(instance: Instance, kind: str, seed_size: int):
    """The knapsack the partial-enumeration density greedy returns.

    Every feasible subset smaller than the seed size competes as it is. Every
    feasible seed of that size grows by the densest item that fits and raises
    the value (the lowest index among equals) until none does: gain per unit
    cost for ib and diverse, and for fair (new / old) ** (1 / cost), compared
    exactly through integer powers. The winner has max value, then min cost,
    then the lex-least subset. Every value is a subset_value.
    """
    m = instance.num_items
    costs = instance.costs
    size = min(seed_size, m)
    best = None
    for r in range(size + 1):
        for seed in itertools.combinations(range(m), r):
            chosen = list(seed)
            cost = sum(costs[j] for j in chosen)
            if cost > instance.budget:
                continue
            while r == size:
                old = subset_value(instance, kind, chosen)
                pick = None
                for j in range(m):
                    if j in chosen or cost + costs[j] > instance.budget:
                        continue
                    new = subset_value(instance, kind, chosen + [j])
                    if new <= old:
                        continue
                    if pick is not None:
                        pj, pnew = pick
                        if kind == "fair":
                            lhs = new ** costs[pj] * old ** costs[j]
                            rhs = pnew ** costs[j] * old ** costs[pj]
                        else:
                            lhs = (new - old) * costs[pj]
                            rhs = (pnew - old) * costs[j]
                        if lhs <= rhs:
                            continue
                    pick = (j, new)
                if pick is None:
                    break
                chosen.append(pick[0])
                cost += costs[pick[0]]
            key = (-subset_value(instance, kind, chosen), cost, tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
    assert best is not None  # the empty set is always feasible (budget >= 0)
    return best[2]


def _unimodal(seq: Sequence[int]) -> bool:
    i = 0
    while i + 1 < len(seq) and seq[i + 1] >= seq[i]:
        i += 1
    while i + 1 < len(seq) and seq[i + 1] <= seq[i]:
        i += 1
    return i == len(seq) - 1


def sp_witness_by_search(instance: Instance) -> Optional[tuple[int, ...]]:
    """Some item order making every voter's utilities unimodal, if one exists."""
    for perm in itertools.permutations(range(instance.num_items)):
        if all(_unimodal([row[j] for j in perm]) for row in instance.utilities):
            return perm
    return None


def _contiguous(positions: list[int]) -> bool:
    return not positions or positions[-1] - positions[0] == len(positions) - 1


def c1p_order_by_search(num_cols: int, rows) -> Optional[tuple[int, ...]]:
    """The first column order, in permutation order, making every row's ones
    contiguous, if one exists."""
    for perm in itertools.permutations(range(num_cols)):
        if all(_contiguous([p for p, j in enumerate(perm) if row[j]]) for row in rows):
            return perm
    return None


def sc_witness_by_search(instance: Instance) -> Optional[tuple[int, ...]]:
    """Some voter order making every weak-preference block contiguous."""
    m = instance.num_items
    rows = instance.utilities
    for perm in itertools.permutations(range(instance.num_voters)):
        ok = True
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                pos = [p for p, i in enumerate(perm) if rows[i][b] >= rows[i][a]]
                if not _contiguous(pos):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return perm
    return None


def sp_rows_by_definition(instance: Instance) -> list[list[int]]:
    """Every 0/1 constraint row of single-peaked recognition, duplicates
    kept: for each voter and each distinct positive utility t, the items
    worth at least t, when there are 2 to m - 1 of them."""
    m = instance.num_items
    rows = []
    for urow in instance.utilities:
        for t in sorted(set(u for u in urow if u > 0)):
            row = [1 if u >= t else 0 for u in urow]
            if 1 < sum(row) < m:
                rows.append(row)
    return rows


def sp_order_by_rows(instance: Instance) -> Optional[tuple[int, ...]]:
    """The item order single-peaked recognition returns, from its rows by
    definition."""
    return c1p_order(instance.num_items, sp_rows_by_definition(instance))


def sc_order_by_rows(instance: Instance) -> Optional[tuple[int, ...]]:
    """The voter order single-crossing recognition returns, from its rows by
    definition: for each ordered item pair (a, b), the voters who weakly
    prefer b to a."""
    m = instance.num_items
    rows = [
        [1 if row[b] >= row[a] else 0 for row in instance.utilities]
        for a in range(m)
        for b in range(m)
        if a != b
    ]
    return c1p_order(instance.num_voters, rows)


def sc_masks_by_definition(instance: Instance) -> set[int]:
    """The distinct weak-preference sets of single-crossing recognition, by
    definition: for each ordered item pair (a, b), the voters who weakly
    prefer b to a, as a bitmask with voter 0 at the highest bit, left out
    when it holds fewer than 2 voters or all of them."""
    n = instance.num_voters
    masks = set()
    for a, b in itertools.permutations(range(instance.num_items), 2):
        voters = [i for i, row in enumerate(instance.utilities) if row[b] >= row[a]]
        if 2 <= len(voters) < n:
            masks.add(sum(1 << (n - 1 - i) for i in voters))
    return masks


def connected_optimum(
    instance: Instance, subset: Sequence[int], voter_order: Sequence[int]
) -> Optional[int]:
    """Best total utility over surjective connected assignments of the ordered
    voters to the subset, or None when no such assignment exists."""
    n = instance.num_voters
    k = len(subset)
    if k == 0 or k > n:
        return None
    best = None
    for perm in itertools.permutations(subset):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            total = 0
            for t in range(k):
                for p in range(bounds[t], bounds[t + 1]):
                    total += instance.utilities[voter_order[p]][perm[t]]
            if best is None or total > best:
                best = total
    return best


def best_ordered_subset(instance: Instance, voter_order: Sequence[int]):
    """(value, cost, subset) for the connected-assignment objective, maximizing
    the assigned utility over all feasible subsets of at most n items."""
    best = None
    for r in range(1, min(instance.num_items, instance.num_voters) + 1):
        for combo in itertools.combinations(range(instance.num_items), r):
            cost = sum(instance.costs[j] for j in combo)
            if cost > instance.budget:
                continue
            val = connected_optimum(instance, combo, voter_order)
            if val is None:
                continue
            key = (-val, cost, combo)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return -best[0], best[1], best[2]


def relax_by_definition(rows, choices, by_cost: bool) -> list[list[int]]:
    """Each table row after one knapsack step, entry by entry: ``rows[r]``
    keeps the better of itself and every (src, value, cost) in
    ``choices[r]``. Over cost (``by_cost``), entry p takes the most of
    src[p - cost] + value for p >= cost; over value, entry x takes the
    least of src[max(x - value, 0)] + cost."""
    out = []
    for row, cands in zip(rows, choices):
        new = list(row)
        for x in range(len(row)):
            for src, value, cost in cands:
                if by_cost:
                    if x >= cost:
                        new[x] = max(new[x], src[x - cost] + value)
                else:
                    new[x] = min(new[x], src[max(x - value, 0)] + cost)
        out.append(new)
    return out


def ordered_table_by_enumeration(
    instance: Instance, voter_order: Sequence[int]
) -> list[list[int]]:
    """The fixed-order table by enumeration: entry [t][x] is the least cost of
    splitting the first t+1 ordered voters into consecutive segments, one
    item each (an item may serve several segments and is paid for each),
    whose summed utility reaches at least x, or Σcosts + 1 when no split
    within Σcosts does."""
    inf = sum(instance.costs) + 1
    width = instance.total_utility() + 1
    table = []
    for t in range(len(voter_order)):
        row = [inf] * width
        for r in range(t + 1):
            for cuts in itertools.combinations(range(1, t + 1), r):
                bounds = (0, *cuts, t + 1)
                segments = list(zip(bounds, bounds[1:]))
                for items in itertools.product(
                    range(instance.num_items), repeat=len(segments)
                ):
                    value = sum(
                        instance.utilities[voter_order[p]][a]
                        for (lo, hi), a in zip(segments, items)
                        for p in range(lo, hi)
                    )
                    cost = sum(instance.costs[a] for a in items)
                    for x in range(value + 1):
                        row[x] = min(row[x], cost)
        table.append(row)
    return table


# ---------------------------------------------------------------------------
# decision oracles for the source problems behind the reduction generators


def knapsack_yes(values, weights, value_target, weight_budget) -> bool:
    """Some item subset has total value >= target within the weight budget."""
    n = len(values)
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if (
                sum(weights[j] for j in combo) <= weight_budget
                and sum(values[j] for j in combo) >= value_target
            ):
                return True
    return False


def partition_yes(entries) -> bool:
    """Some subset of the entries sums to exactly half the total."""
    total = sum(entries)
    if total % 2:
        return False
    half = total // 2
    n = len(entries)
    return any(
        sum(entries[j] for j in combo) == half
        for r in range(n + 1)
        for combo in itertools.combinations(range(n), r)
    )


def exact_partition_yes(entries, k: int) -> bool:
    """Some subset of exactly k entries sums to half the total."""
    total = sum(entries)
    if total % 2 or k > len(entries):
        return False
    half = total // 2
    return any(
        sum(entries[j] for j in combo) == half
        for combo in itertools.combinations(range(len(entries)), k)
    )


def disjoint_sets_yes(sets, k: int) -> bool:
    """Some k of the sets (by index) are pairwise disjoint."""
    if k > len(sets):
        return False
    for combo in itertools.combinations(range(len(sets)), k):
        union = set()
        size_sum = 0
        for i in combo:
            union.update(sets[i])
            size_sum += len(sets[i])
        if len(union) == size_sum:
            return True
    return False


def dominating_set_yes(num_vertices: int, edges, k: int) -> bool:
    """Some vertex set of size <= k whose closed neighborhoods cover the graph."""
    closed = [{v} for v in range(num_vertices)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    for r in range(min(k, num_vertices) + 1):
        for combo in itertools.combinations(range(num_vertices), r):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if len(covered) == num_vertices:
                return True
    return False


def multicolored_clique_yes(num_vertices: int, edges, coloring, k: int) -> bool:
    """Some clique containing exactly one vertex of each of the k colors."""
    by_color: list[list[int]] = [[] for _ in range(k)]
    for v in range(num_vertices):
        by_color[coloring[v]].append(v)
    if any(not cls for cls in by_color):
        return False
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    for pick in itertools.product(*by_color):
        if all(
            (min(a, b), max(a, b)) in adjacent
            for a, b in itertools.combinations(pick, 2)
        ):
            return True
    return False


def x3c_yes(universe_size: int, sets) -> bool:
    """Some universe_size/3 of the 3-element sets exactly cover the universe."""
    k = universe_size // 3
    for combo in itertools.combinations(range(len(sets)), k):
        elems = [e for i in combo for e in sets[i]]
        if len(set(elems)) == universe_size:
            return True
    return False
