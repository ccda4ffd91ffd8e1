"""Exact and approximate solvers for the three knapsack objectives.

Every solver returns a :class:`~knapvote.core.Solution` and never mutates the
instance. Exact solvers report, among all value-optimal knapsacks, one of
minimum total cost. Resource caps live in :class:`SolveOptions`; a computation
that would exceed them raises :class:`~knapvote.core.GuardrailError` before
doing the work.

The ib, single-peaked and fixed-order routes share one value table: entry x
of a row is the least cost reaching value at least x, "nothing chosen yet" is
the row [0, inf, ...], and :func:`_relax` is the only step that updates a row.
Each walks back by re-deriving every choice from the stored rows.

Solver map; ``_ROUTES`` holds the routes, by their ``--method`` names, in the
order :func:`solve_auto` tries them: ib-dp, sp-dp, sc-dp, fpt, xp-dp,
bruteforce, then greedy, the inexact fallback.

- :func:`brute_force` - any objective, exhaustive, capped by item count.
- :func:`solve_ib_dp` - additive objective, table over achieved value.
- :func:`solve_diverse_sp_dp` - diverse objective on a single-peaked profile.
- :func:`solve_ordered_diverse_dp` - diverse objective relative to a fixed
  voter order (exact for single-crossing orders, a lower bound otherwise).
- :func:`solve_diverse_sc` - single-crossing recognition front end to the
  fixed-order table.
- :func:`solve_diverse_fpt` - diverse objective for few voters, a DP over
  subsets of the distinct voter rows.
- :func:`solve_fair_xp_dp` - Nash welfare, table over exact totals of the
  distinct voter rows.
- :func:`solve_greedy` - partial-enumeration density greedy; factor (1 - 1/e)
  for the diverse objective and for the logarithm of the fair objective.
- :func:`solve_auto` - runs the first exact route that applies, falling back to
  the greedy when every exact route is skipped.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    GuardrailError,
    Instance,
    Objective,
    Solution,
    ValidationError,
    _coerce_objective,
    _join,
    _score,
    evaluate,  # not called here; kept so that knapvote.solvers.evaluate resolves
    make_solution,
    require_valid,
)
from .domains import (
    _check_permutation,
    recognize_single_crossing,
    recognize_single_peaked,
    verify_single_peaked,
)


@dataclass(frozen=True)
class SolveOptions:
    """Resource caps shared by all solvers.

    max_bruteforce_items: refuse exhaustive search beyond this many items.
    max_dp_cells: refuse any table whose cells of work would exceed this.
    max_fpt_voters: refuse the voter-subset DP beyond this many voters (raw
        count, duplicates included); its work is capped by max_dp_cells.
    greedy_seed_size: enumerated seed cardinality for the density greedy.
    """

    max_bruteforce_items: int = 25
    max_dp_cells: int = 100_000_000
    max_fpt_voters: int = 8
    greedy_seed_size: int = 3

    def __post_init__(self) -> None:
        for name in (
            "max_bruteforce_items",
            "max_dp_cells",
            "max_fpt_voters",
            "greedy_seed_size",
        ):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")


DEFAULT_OPTIONS = SolveOptions()


def _check_cells(table: str, work: int, opts: SolveOptions) -> None:
    """Refuse a table whose cells of work pass ``max_dp_cells``.

    The message leaves the work out: it can pass the digit limit of ``str``.
    """
    if work > opts.max_dp_cells:
        raise GuardrailError(
            f"{table} needs cells of work over the cap of {opts.max_dp_cells} cells"
        )


def _better(a: tuple, b: tuple) -> bool:
    """Solution ranking: higher score, then lower cost, then smaller index set."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def _collapse_voters(instance: Instance) -> tuple[list[tuple[int, ...]], list[int]]:
    """Distinct voter rows with multiplicities (objectives are row-separable)."""
    rows: list[tuple[int, ...]] = []
    mults: list[int] = []
    index: dict[tuple[int, ...], int] = {}
    for row in instance.utilities:
        k = index.get(row)
        if k is None:
            index[row] = len(rows)
            rows.append(row)
            mults.append(1)
        else:
            mults[k] += 1
    return rows, mults


# ---------------------------------------------------------------------------
# exhaustive search


def brute_force(
    instance: Instance, kind: Objective | str, options: Optional[SolveOptions] = None
) -> Solution:
    """Exact optimum by depth-first search over feasible subsets."""
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    kind = _coerce_objective(kind)
    m = instance.num_items
    if m > opts.max_bruteforce_items:
        raise GuardrailError(
            f"brute force over {m} items exceeds the cap of {opts.max_bruteforce_items}"
        )
    rows, mults = _collapse_voters(instance)
    k = len(rows)
    costs = instance.costs
    budget = instance.budget
    nz = [
        [(i, rows[i][j]) for i in range(k) if rows[i][j] > 0] for j in range(m)
    ]

    sel: list[int] = []
    best: Optional[tuple] = None
    totals = [0] * k  # each row's utility for sel, updated in place

    def rec(j: int, cost: int) -> None:
        nonlocal best
        if j == m:
            cand = (_score(kind, totals, mults), cost, tuple(sel))
            if best is None or _better(cand, best):
                best = cand
            return
        cj = costs[j]
        if cost + cj <= budget:
            sel.append(j)
            if kind is Objective.DIVERSE:
                # the max join written out, saving only the rows it raises:
                # a call to max per row doubles the search time
                undo = []
                for i, u in nz[j]:
                    if u > totals[i]:
                        undo.append((i, totals[i]))
                        totals[i] = u
                rec(j + 1, cost + cj)
                for i, old in undo:
                    totals[i] = old
            else:
                for i, u in nz[j]:
                    totals[i] += u
                rec(j + 1, cost + cj)
                for i, u in nz[j]:
                    totals[i] -= u
            sel.pop()
        rec(j + 1, cost)

    rec(0, 0)
    assert best is not None  # the empty knapsack is always feasible
    return make_solution(instance, kind, best[2], "bruteforce")


# ---------------------------------------------------------------------------
# value tables


def _empty_row(instance: Instance, width: int) -> tuple[np.ndarray, int, int]:
    """The value-table row of the empty knapsack, the sentinel, and the limit.

    Entry x of a value-table row is the least cost of a knapsack whose value
    reaches at least x. The empty knapsack costs 0 at x = 0 and reaches no
    x > 0, which rows mark with the sentinel Σcosts + 1, above every real
    cost. Rows hold int64 unless a cost added to the sentinel could pass 2^62,
    and Python ints (``object``) then. The limit is the budget clamped to
    Σcosts, so that the sentinel never counts as affordable.
    """
    costs = instance.costs
    inf = sum(costs) + 1
    row = np.full(width, inf, dtype=np.int64 if inf + max(costs) < 2**62 else object)
    row[0] = 0
    return row, inf, min(instance.budget, inf - 1)


def _relax(row: np.ndarray, src: np.ndarray, shift: int, add: int) -> None:
    """``row[x] = min(row[x], src[max(x - shift, 0)] + add)`` for every x.

    The one update step of every value table: extend the knapsacks of ``src``
    by a choice worth ``shift`` value at ``add`` cost. ``src`` may be ``row``
    itself; every read sees it as it was before the call. ``row`` may also be
    a stack of rows, each relaxed by the same ``src``.
    """
    width = row.shape[-1]
    cut = min(shift, width)
    head = src[..., :1] + add
    np.minimum(row[..., cut:], src[..., : width - cut] + add, out=row[..., cut:])
    np.minimum(row[..., :cut], head, out=row[..., :cut])


def _step_back(
    rows: Sequence[np.ndarray], x: int, target, shifts: np.ndarray, adds
) -> tuple[int, int, int]:
    """Undo one :func:`_relax` step that set an entry to ``target`` at x.

    Source s is ``rows[s]`` and choice k relaxes it by ``shifts[s, k]`` at cost
    ``adds[k]``. Of the (s, k) that give the target, source 0 (the empty row)
    wins, then the lowest k, then the lowest s. Returns s, k and the column of
    ``rows[s]`` that was read.
    """
    cols = np.maximum(x - shifts, 0)
    hit = np.array([src[c] for src, c in zip(rows, cols)]) + adds == target
    s, k = min(zip(*np.nonzero(hit)), key=lambda sk: (sk[0] > 0, sk[1], sk[0]))
    return int(s), int(k), int(cols[s, k])


def _reach(row: np.ndarray, limit: int) -> int:
    """Largest x whose entry is within the limit (0 when none is)."""
    hits = np.flatnonzero(row <= limit)
    return int(hits[-1]) if len(hits) else 0


# ---------------------------------------------------------------------------
# additive objective


def solve_ib_dp(instance: Instance, options: Optional[SolveOptions] = None) -> Solution:
    """Exact additive-objective optimum via a min-cost-per-value table.

    The row starts as the empty row and is relaxed by each item in turn,
    shifted by the item's summed utility at the item's cost. Only a mask of
    the entries each item strictly improved is kept, which is enough to walk
    back. Work and memory are m * (U + 1) for U the total utility.
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    m = instance.num_items
    uhat = instance.total_utility()
    _check_cells("value table", m * (uhat + 1), opts)
    w = [instance.column_sum(j) for j in range(m)]
    row, _, limit = _empty_row(instance, uhat + 1)
    took = []
    for j in range(m):
        before = row.copy()
        _relax(row, before, w[j], instance.costs[j])
        took.append(row < before)
    x = _reach(row, limit)
    sel = []
    for j in range(m - 1, -1, -1):
        if took[j][x]:
            sel.append(j)
            x = max(x - w[j], 0)
    return make_solution(instance, Objective.IB, sel, "ib-dp")


# ---------------------------------------------------------------------------
# diverse objective, single-peaked profiles


def solve_diverse_sp_dp(
    instance: Instance,
    order: Sequence[int],
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Exact diverse optimum when the profile is single-peaked under ``order``.

    Along a single-peaked item order, adding an item to a set of items that all
    sit earlier in the order raises each voter's best utility by a quantity
    that depends only on the new item and the latest previous one, which makes
    a last-item recurrence exact. Row p holds the knapsacks whose latest item
    sits at position p: the empty row and every earlier row, each relaxed by
    that item. The work is m(m+1)/2 * (U + 1), checked before it starts.
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    order = _check_permutation(order, instance.num_items, "items")
    if not verify_single_peaked(instance, order):
        raise ValidationError("profile is not single-peaked under the given item order")
    m = instance.num_items
    ubound = instance.total_utility()
    _check_cells("single-peaked table", m * (m + 1) // 2 * (ubound + 1), opts)
    # cols[s]: each voter's utility for the latest item of source s, where
    # source 0 is the empty knapsack and source p + 1 ends at position p
    cols = np.zeros((m + 1, instance.num_voters), dtype=np.int64)
    cols[1:] = np.array(instance.utilities, dtype=np.int64).T[list(order)]
    # gains[p][s]: diverse value the item at position p adds on top of source s
    gains = [np.maximum(cols[p + 1] - cols[: p + 1], 0).sum(axis=1) for p in range(m)]
    costs = [instance.costs[j] for j in order]
    empty, inf, limit = _empty_row(instance, ubound + 1)
    table = np.full((m, ubound + 1), inf, dtype=empty.dtype)
    rows = [empty, *table]
    for p in range(m):
        for s in range(p + 1):
            _relax(table[p], rows[s], int(gains[p][s]), costs[p])
    x = _reach(table.min(axis=0), limit)
    s = int(np.argmin(table[:, x])) + 1 if x else 0  # the cheapest, then earliest
    chosen = []
    while s:
        p = s - 1
        chosen.append(order[p])
        s, _, x = _step_back(rows, x, rows[s][x], gains[p][:, None], costs[p])
    return make_solution(instance, Objective.DIVERSE, chosen, "sp-dp")


# ---------------------------------------------------------------------------
# diverse objective, fixed voter order


def ordered_diverse_table(
    instance: Instance,
    voter_order: Sequence[int],
    options: Optional[SolveOptions] = None,
) -> np.ndarray:
    """Min-cost table for covering a voter order with item segments.

    Entry [t][x] is the cheapest way to split the first t+1 voters (in the
    given order) into consecutive segments, pick one item per segment, and
    collect at least x total utility, each voter counting their segment's item.
    The last row lower-bounds the budgeted diverse optimum for every order and
    matches it when the order is single-crossing.

    Running row a holds the finished rows (the empty row, earlier rows) with
    a segment of item a open after them, shifted by a's utility since. Row t
    is the least running row plus its item's cost, and then joins every
    running row. The work is n * m * (U + 1).
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    voter_order = _check_permutation(voter_order, instance.num_voters, "voters")
    n = instance.num_voters
    m = instance.num_items
    ubound = instance.total_utility()
    _check_cells("order table", n * (ubound + 1) * m, opts)
    empty, inf, _ = _empty_row(instance, ubound + 1)
    table = np.full((n, ubound + 1), inf, dtype=empty.dtype)
    running = np.tile(empty, (m, 1))
    for t, v in enumerate(voter_order):
        row = table[t]
        for a, u in enumerate(instance.utilities[v]):
            # rows never decrease along x, so relaxing one by itself shifts it
            _relax(running[a], running[a], u, 0)
            _relax(row, running[a], 0, instance.costs[a])
        _relax(running, row, 0, 0)
    return table


def _solve_with_voter_order(
    instance: Instance,
    voter_order: Sequence[int],
    method: str,
    opts: SolveOptions,
) -> Solution:
    table = ordered_diverse_table(instance, voter_order, opts)
    empty, _, limit = _empty_row(instance, table.shape[1])
    x = _reach(table[-1], limit)
    # source s of the walk is the empty row (s = 0) or table row s - 1, and
    # prefix[s][a] is item a's utility over the first s ordered voters
    ordered = [instance.utilities[v] for v in voter_order]
    prefix = np.cumsum([[0] * instance.num_items, *ordered], axis=0)
    rows = [empty, *table]
    adds = np.array(instance.costs, dtype=empty.dtype)
    items: set[int] = set()
    s = len(table) if x else 0
    while s:
        s, a, x = _step_back(rows, x, rows[s][x], prefix[s] - prefix[:s], adds)
        items.add(a)
    return make_solution(instance, Objective.DIVERSE, items, method)


def solve_ordered_diverse_dp(
    instance: Instance,
    voter_order: Sequence[int],
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Best knapsack reachable through segments of the given voter order.

    Exact for the diverse objective when the order is single-crossing;
    otherwise the reported value can fall below the true optimum (never above
    the evaluated value of the returned knapsack, which is always feasible).
    """
    opts = options or DEFAULT_OPTIONS
    return _solve_with_voter_order(instance, voter_order, "ordered-dp", opts)


def solve_diverse_sc(
    instance: Instance, options: Optional[SolveOptions] = None
) -> Solution:
    """Exact diverse optimum for single-crossing profiles (recognizes the order)."""
    require_valid(instance)
    solution = _sc_route(instance, options or DEFAULT_OPTIONS)
    if solution is None:
        raise ValidationError(_ROUTES["sc-dp"].outside)
    return solution


def solve_diverse_fpt(
    instance: Instance, options: Optional[SolveOptions] = None
) -> Solution:
    """Exact diverse optimum by a DP over subsets of the distinct voter rows.

    In an optimal knapsack, the voters that share a best item form a block, so
    the optimum splits the k distinct voter rows into blocks, one item each.
    The table is indexed by the set S of covered rows, and every S starts
    covered by no item, at value 0 and cost 0. A step lets the block T that
    holds the lowest uncovered row pick one item a, gaining a's utility over
    every voter in T. An item chosen for two blocks is paid twice, which can
    only overcount cost, so the optimal value and the least cost at that value
    are both exact. Each row of the table runs over cost (best value within
    that cost) or over value (least cost reaching it), whichever axis is
    shorter; the work is 3^k * m * (axis + 1). On equal value and cost, no
    item wins over an item, and a lower item index over a higher one.
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    n = instance.num_voters
    if n > opts.max_fpt_voters:
        raise GuardrailError(
            f"subset DP over {n} voters exceeds the cap of {opts.max_fpt_voters}"
        )
    rows, mults = _collapse_voters(instance)
    k = len(rows)
    m = instance.num_items
    costs = instance.costs
    _, _, afford = _empty_row(instance, 1)
    ubound = instance.total_utility()
    by_cost = afford <= ubound
    width = (afford if by_cost else ubound) + 1
    _check_cells(f"subset DP over {k} distinct voter rows", 3**k * m * width, opts)
    full = (1 << k) - 1
    # val[T][a]: item a's utility summed over every voter of the rows in T
    vdt: object = np.int64 if ubound < 2**62 else object
    val = np.zeros((full + 1, m), dtype=vdt)
    for t in range(1, full + 1):
        r = (t & -t).bit_length() - 1
        val[t] = val[t & (t - 1)] + mults[r] * np.array(rows[r], dtype=vdt)
    # table[S][p]: by cost, the best value covering S within cost p; by value,
    # minus the least cost covering S with value at least p (both maximize)
    axis = np.arange(width)
    if by_cost:
        table = np.zeros((full + 1, width), dtype=vdt)
        src = axis - np.array([min(c, width) for c in costs])[:, None]
        fits = src >= 0
        src[~fits] = 0
        unfit = -(ubound + 1)
    else:
        empty, _, _ = _empty_row(instance, width)
        table = np.tile(-empty, (full + 1, 1))
        neg_costs = -np.array(costs, dtype=empty.dtype)[:, None]
    par_set = np.zeros((full + 1, width), dtype=np.int32)
    par_item = np.full((full + 1, width), -1, dtype=np.int32)
    for s in range(full):
        if s and not s & 1:
            continue  # sorted by lowest row, an optimal split covers row 0 first
        row = table[s]
        if by_cost:
            shifted = np.where(fits, row[src], unfit)
        free = full & ~s
        low = free & -free
        rest = free ^ low
        sub = rest
        while True:
            t = s | low | sub
            if by_cost:
                cand = shifted + val[t ^ s][:, None]
            else:
                cand = row[np.maximum(axis - val[t ^ s][:, None], 0)] + neg_costs
            pick = cand.argmax(axis=0)
            best = cand[pick, axis]
            better = best > table[t]
            table[t][better] = best[better]
            par_set[t][better] = s
            par_item[t][better] = pick[better]
            if not sub:
                break
            sub = (sub - 1) & rest
    last = table[full]
    if by_cost:
        p = int(np.argmax(last == last[-1]))  # least cost reaching the optimum
    else:
        p = int(np.nonzero(last >= -afford)[0].max())
    # by value, the blocks' values sum to exactly p at the optimum (a larger
    # sum would be a larger reachable value), so p never drops below 0
    items: set[int] = set()
    s = full
    while par_item[s][p] >= 0:
        a = int(par_item[s][p])
        prev = int(par_set[s][p])
        items.add(a)
        p -= costs[a] if by_cost else int(val[s ^ prev][a])
        s = prev
    return make_solution(instance, Objective.DIVERSE, sorted(items), "fpt")


# ---------------------------------------------------------------------------
# fair objective


def solve_fair_xp_dp(
    instance: Instance, options: Optional[SolveOptions] = None
) -> Solution:
    """Exact Nash-welfare optimum via a table over per-row utility vectors.

    The table maps each reachable vector of totals over the distinct voter
    rows, within the budget, to its least cost and that knapsack's items (a
    bitmask). Items are added one at a time, in place, from a snapshot of the
    table; a state is replaced only by a strictly cheaper one. The product is
    maximized over the final table, each row's factor raised to its
    multiplicity. The guardrail checks m times the product of (1 + each
    voter's total utility) up front, stopping once it passes the cap.
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    m = instance.num_items
    bound = m
    for row in instance.utilities:
        bound *= 1 + sum(row)
        _check_cells("per-voter vector table", bound, opts)
    rows, mults = _collapse_voters(instance)
    budget = instance.budget
    table: dict[tuple[int, ...], tuple[int, int]] = {(0,) * len(rows): (0, 0)}
    for j, cj in enumerate(instance.costs):
        col = tuple(row[j] for row in rows)
        # each key is written at most once per item, so dict order never matters
        for z, (c, items) in list(table.items()):
            c2 = c + cj
            if c2 > budget:
                continue
            z2 = tuple(a + b for a, b in zip(z, col))
            old = table.get(z2)
            if old is None or c2 < old[0]:
                table[z2] = (c2, items | 1 << j)
    best: Optional[tuple[int, int, tuple[int, ...]]] = None
    for z, (c, _) in table.items():
        cand = (_score(Objective.FAIR, z, mults), c, z)
        if best is None or _better(cand, best):
            best = cand
    assert best is not None  # the empty knapsack is always feasible
    items = table[best[2]][1]
    sel = [j for j in range(m) if items >> j & 1]
    return make_solution(instance, Objective.FAIR, sel, "xp-dp")


# ---------------------------------------------------------------------------
# density greedy with partial enumeration


def solve_greedy(
    instance: Instance, kind: Objective | str, options: Optional[SolveOptions] = None
) -> Solution:
    """Partial-enumeration greedy: try every feasible seed of the configured
    size, extend each by the best marginal gain per unit cost, and keep the
    best candidate overall (all smaller feasible subsets compete as-is).

    Each distinct voter row keeps its utility for the current knapsack, and a
    candidate item is scored by joining its column into those totals, so no
    knapsack is evaluated again from scratch. For ib and diverse the density
    is the score's gain over the item's cost; for fair it is the ratio of the
    new product to the current one, to the power 1 / cost, compared in exact
    integer arithmetic, never through floats. Guarantees a (1 - 1/e) factor
    for the diverse objective and for the logarithm of the fair objective.
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    kind = _coerce_objective(kind)
    m = instance.num_items
    costs = instance.costs
    budget = instance.budget
    rows, mults = _collapse_voters(instance)
    cols = [tuple(row[j] for row in rows) for j in range(m)]
    join = _join(kind)
    fair = kind is Objective.FAIR
    s = min(opts.greedy_seed_size, m)

    best: Optional[tuple] = None
    for size in range(s + 1):
        for seed in itertools.combinations(range(m), size):
            cost = sum(costs[j] for j in seed)
            if cost > budget:
                continue
            chosen = set(seed)
            totals = [0] * len(rows)
            for j in seed:
                totals = list(map(join, totals, cols[j]))
            score = _score(kind, totals, mults)
            while size == s:  # smaller seeds compete as they are
                pick = None  # (item, score with it)
                for j in range(m):
                    if j in chosen or cost + costs[j] > budget:
                        continue
                    g = _score(kind, map(join, totals, cols[j]), mults)
                    if g <= score:
                        continue
                    if pick is not None:
                        pj, gj = pick
                        if fair:
                            # denser iff (g / score)^(1/c_j) beats the incumbent's;
                            # compare g^c_pj * score^c_j vs gj^c_j * score^c_pj
                            denser = (
                                g ** costs[pj] * score ** costs[j]
                                > gj ** costs[j] * score ** costs[pj]
                            )
                        else:
                            denser = (g - score) * costs[pj] > (gj - score) * costs[j]
                        if not denser:
                            continue
                    pick = (j, g)
                if pick is None:
                    break
                j, score = pick
                chosen.add(j)
                cost += costs[j]
                totals = list(map(join, totals, cols[j]))
            cand = (score, cost, tuple(sorted(chosen)))
            if best is None or _better(cand, best):
                best = cand

    assert best is not None  # the empty seed is always considered
    return make_solution(instance, kind, best[2], "greedy")


# ---------------------------------------------------------------------------
# route table and dispatcher


@dataclass(frozen=True)
class _Route:
    """One solver route: what ``--method NAME`` runs and :func:`solve_auto` tries.

    ``objective`` None means any objective. ``run(instance, kind, options)``
    returns None when the instance is outside the route's domain, and
    ``outside`` then says why. Entries look the solvers up as module globals
    at call time, so a wrapper rebound over a solver's name sees every call.
    """

    name: str
    objective: Optional[Objective]
    exact: bool
    run: Callable[[Instance, Objective, SolveOptions], Optional[Solution]]
    outside: str = ""


def _sp_route(instance: Instance, opts: SolveOptions) -> Optional[Solution]:
    order = recognize_single_peaked(instance)
    return None if order is None else solve_diverse_sp_dp(instance, order, opts)


def _sc_route(instance: Instance, opts: SolveOptions) -> Optional[Solution]:
    order = recognize_single_crossing(instance)
    if order is None:
        return None
    return _solve_with_voter_order(instance, order, "sc-dp", opts)


# in solve_auto's order
_ROUTES = {
    r.name: r
    for r in (
        _Route("ib-dp", Objective.IB, True, lambda i, k, o: solve_ib_dp(i, o)),
        _Route(
            "sp-dp",
            Objective.DIVERSE,
            True,
            lambda i, k, o: _sp_route(i, o),
            "instance is not single-peaked under any item order",
        ),
        _Route(
            "sc-dp",
            Objective.DIVERSE,
            True,
            lambda i, k, o: _sc_route(i, o),
            "utility profile is not single-crossing",
        ),
        _Route("fpt", Objective.DIVERSE, True, lambda i, k, o: solve_diverse_fpt(i, o)),
        _Route("xp-dp", Objective.FAIR, True, lambda i, k, o: solve_fair_xp_dp(i, o)),
        _Route("bruteforce", None, True, lambda i, k, o: brute_force(i, k, o)),
        _Route("greedy", None, False, lambda i, k, o: solve_greedy(i, k, o)),
    )
}


def _as_approximate(solution: Solution) -> Solution:
    return dataclasses.replace(solution, method="greedy-approximate")


def solve_auto(
    instance: Instance, kind: Objective | str, options: Optional[SolveOptions] = None
) -> Solution:
    """Solve with the first exact route of :data:`_ROUTES` that applies.

    The exact routes for the objective run in table order (ib: value table,
    then brute force; diverse: single-peaked table, single-crossing table,
    voter-subset DP, brute force; fair: per-voter vector table, brute force).
    A route that trips a guardrail or finds the instance outside its domain is
    skipped. When none is left the density greedy runs and the result is
    tagged "greedy-approximate"; this function never fails on a valid
    instance.
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    kind = _coerce_objective(kind)
    for route in _ROUTES.values():
        if not route.exact or route.objective not in (None, kind):
            continue
        try:
            solution = route.run(instance, kind, opts)
        except GuardrailError:
            continue
        if solution is not None:
            return solution
    return _as_approximate(solve_greedy(instance, kind, opts))


# ---------------------------------------------------------------------------
# connected assignments along a voter order


def is_connected_assignment(
    voter_order: Sequence[int], assignment: Sequence[int]
) -> bool:
    """True iff each item's assigned voters sit consecutively in the order.

    ``assignment[p]`` is the item serving the voter at position p of the
    order; both sequences cover all voters.
    """
    n = len(assignment)
    _check_permutation(voter_order, n, "voters")
    seen_pos: dict[int, list[int]] = {}
    for pos, item in enumerate(assignment):
        seen_pos.setdefault(item, []).append(pos)
    for positions in seen_pos.values():
        if positions[-1] - positions[0] + 1 != len(positions):
            return False
    return True


def best_connected_assignment(
    instance: Instance,
    selected: Sequence[int],
    voter_order: Sequence[int],
    options: Optional[SolveOptions] = None,
) -> tuple[int, tuple[int, ...]]:
    """Best total utility over assignments of voters to the selected items in
    which each item serves one consecutive run of the ordered voters and every
    item serves someone.

    Returns (total utility, assignment indexed by position in the order).
    States are (position, current item, set of finished items), capped by
    max_dp_cells.
    """
    opts = options or DEFAULT_OPTIONS
    require_valid(instance)
    n = instance.num_voters
    order = _check_permutation(voter_order, n, "voters")
    items = list(dict.fromkeys(selected))
    if not items:
        raise ValidationError("at least one selected item is required")
    for j in items:
        if not 0 <= j < instance.num_items:
            raise ValidationError(f"bad item index {j!r}")
    k = len(items)
    if n < k:
        raise ValidationError("fewer voters than items to serve")
    _check_cells("assignment table", n * k * (1 << k), opts)
    util = [[instance.utilities[order[t]][items[a]] for a in range(k)] for t in range(n)]
    # dp maps (current item, used mask) -> (value, parent key at previous position)
    dp: dict[tuple[int, int], tuple[int, Optional[tuple[int, int]]]] = {}
    for a in range(k):
        dp[(a, 1 << a)] = (util[0][a], None)
    trace = [dp]
    for t in range(1, n):
        nxt: dict[tuple[int, int], tuple[int, Optional[tuple[int, int]]]] = {}
        for (a, mask), (val, _) in dp.items():
            stay = val + util[t][a]
            cur = nxt.get((a, mask))
            if cur is None or stay > cur[0]:
                nxt[(a, mask)] = (stay, (a, mask))
            for b in range(k):
                if mask & (1 << b):
                    continue
                key = (b, mask | (1 << b))
                val2 = val + util[t][b]
                cur = nxt.get(key)
                if cur is None or val2 > cur[0]:
                    nxt[key] = (val2, (a, mask))
        dp = nxt
        trace.append(dp)
    full = (1 << k) - 1
    finals = sorted(key for key in dp if key[1] == full)
    if not finals:
        raise ValidationError("no connected assignment uses every selected item")
    bestkey = max(finals, key=lambda key: (dp[key][0], -key[0]))
    assignment = [0] * n
    key: Optional[tuple[int, int]] = bestkey
    for t in range(n - 1, -1, -1):
        assert key is not None
        assignment[t] = items[key[0]]
        key = trace[t][key][1]
    return dp[bestkey][0], tuple(assignment)
