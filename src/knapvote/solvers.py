"""Exact and approximate solvers for the three knapsack objectives.

Every solver returns a :class:`~knapvote.core.Solution` and never mutates the
instance. Exact solvers report, among all value-optimal knapsacks, one of
minimum total cost. Resource caps live in :class:`SolveOptions`; a computation
that would exceed them raises :class:`~knapvote.core.GuardrailError` before
doing the work.

The ib, single-peaked and fixed-order routes and the voter-subset DP are
knapsack tables on the shorter of two axes, which :func:`_axis` picks:
over cost, entry p of a row is the most value within cost p, when
min(B, Σcosts) <= U for U the total utility; over value, entry x is the
least cost reaching value at least x, otherwise. :func:`_relax` is the only
step that updates a row of any of the four. The ib table walks back through
one mask per item of the entries that item improved; the other three
re-derive every choice from the stored rows through :func:`_step_back`.

Solver map; ``_ROUTES`` holds the routes, by their ``--method`` names, in the
order :func:`solve_auto` tries them: ib-dp, sp-dp, sc-dp, fpt, xp-dp,
bruteforce, then greedy, the inexact fallback.

- :func:`brute_force` - any objective, exact branch and bound over subsets,
  capped by item count.
- :func:`solve_ib_dp` - additive objective, knapsack table on the shorter axis.
- :func:`solve_diverse_sp_dp` - diverse objective on a single-peaked profile.
- :func:`solve_ordered_diverse_dp` - diverse objective relative to a fixed
  voter order (exact for single-crossing orders, a lower bound otherwise);
  the table steps once per run of identical adjacent voters, for work of
  runs * m * (axis + 1).
- :func:`solve_diverse_sc` - single-crossing recognition front end to the
  fixed-order table.
- :func:`solve_diverse_fpt` - diverse objective for few voters, a DP over
  subsets of the k distinct voter rows, for work of 3^k * m * (axis + 1).
- :func:`solve_fair_xp_dp` - Nash welfare, table over exact totals of the
  distinct voter rows.
- :func:`solve_greedy` - partial-enumeration density greedy over the
  C(m, 3) seeds of 3 items, with a (1 - 1/e) factor for the diverse
  objective and for the logarithm of the fair objective; it has no cap.
  The chains of a block of seeds, 2^15 // max(items, distinct rows) of them
  for every objective and kind of number, advance in lockstep as arrays. A
  step combines each item's terms a group of slots at a time over a
  zero-padded items x span grid into items x chains: by adding, or by
  ``np.logaddexp`` for fair terms taken as logs on Python-int totals.
  Identical sets merge after each step in one ``np.unique`` call, and log
  densities pick each step's item unless several are within a margin of
  the best, when the exact integer tests decide. Fair terms come from a
  table built once per solve when it holds at most 2^15 entries, and a
  chain is dropped once a submodular bound, in logs, shows it cannot beat
  the best finished set; neither changes a pick or the answer. Finished
  sets are filtered by float log scores and ranked exactly, and fair ties
  across unequal costs go to the exact log test :func:`_log_greater`.
- :func:`solve_auto` - runs the first exact route that applies, falling back to
  the greedy when every exact route is skipped.
"""

from __future__ import annotations

import dataclasses
import decimal
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    GuardrailError,
    Instance,
    Objective,
    Solution,
    ValidationError,
    _coerce_objective,
    _gain,
    _int_dtype,
    _is_int,
    _score,
    evaluate,  # not called here; kept so that knapvote.solvers.evaluate resolves
    make_solution,
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
    """

    max_bruteforce_items: int = 25
    max_dp_cells: int = 100_000_000
    max_fpt_voters: int = 8

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not _is_int(value):
                raise ValidationError(f"{field.name} must be an integer")
            if value < 1:
                raise ValidationError(f"{field.name} must be positive")


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
    count = Counter(instance.utilities)  # in order of first appearance
    return list(count), list(count.values())


def _sparse_columns(
    instance: Instance,
) -> tuple[list[int], list[list[tuple[int, int, int]]]]:
    """The multiplicity of each distinct voter row, and for each item the
    (row, utility, mult) of every row that values it above 0, as
    :func:`~knapvote.core._gain` takes them."""
    rows, mults = _collapse_voters(instance)
    nz = [
        [(i, row[j], mu) for i, (row, mu) in enumerate(zip(rows, mults)) if row[j] > 0]
        for j in range(instance.num_items)
    ]
    return mults, nz


# ---------------------------------------------------------------------------
# exhaustive search


def brute_force(
    instance: Instance, kind: Objective | str, options: Optional[SolveOptions] = None
) -> Solution:
    """Exact optimum by a depth-first branch and bound over feasible subsets.

    Each node is one chosen set S, ranked against the best set so far by
    :func:`_better` on (score, cost, sorted indices). Its candidates are the
    items that still fit and raise the score: ib is additive and diverse, and
    the logarithm of fair, are monotone submodular, so an item's gain only
    shrinks as S grows, and an item that gains nothing can only add cost. The
    candidates are sorted by gain per unit cost, and child p adds candidate p
    and keeps those after it, so every subset is reached once. Before child p,
    S's score plus a fractional knapsack over S's gains of candidates p,
    p + 1, ... bounds every set in child p and in every later child (Horowitz
    & Sahni 1974; Nemhauser, Wolsey & Fisher 1978), and the loop stops once
    that bound cannot beat the best set. That sum counts a diverse row's rise
    once for every item that raises it, so for diverse the bound is the
    smaller of it and the per-row caps: S's score with each row raised to
    the most that candidates p, p + 1, ... give it, which never rises with p.
    The bound is an exact integer for ib and diverse, and a float bound on
    the logarithm for fair, which prunes only past a margin wider than its
    rounding error; scores are exact integers throughout. The search keeps
    one generator per set on the current path, each yielding its children in
    turn, so its depth is not bound by the interpreter's recursion limit.
    """
    opts = options or DEFAULT_OPTIONS
    kind = _coerce_objective(kind)
    m = instance.num_items
    if m > opts.max_bruteforce_items:
        raise GuardrailError(
            f"brute force over {m} items exceeds the cap of {opts.max_bruteforce_items}"
        )
    mults, nz = _sparse_columns(instance)
    costs = instance.costs
    budget = instance.budget
    gain = _gain(kind)
    fair = kind is Objective.FAIR
    diverse = kind is Objective.DIVERSE
    if fair:
        log_costs = [math.log(c) for c in costs]
    else:
        # gain * scale[j] is gain / cost scaled by the lcm of the costs: it
        # orders densities exactly, where floats can tie or misorder them
        lcm = math.lcm(*costs)
        scale = [lcm // c for c in costs]
    totals = [0] * len(mults)  # each row's utility for sel, updated in place
    sel: list[int] = []
    best: tuple = (-1, 0, ())  # below every score, so the empty set replaces it
    log_best = -math.inf

    def visit(cands: list[int], cost: int, score: int) -> Iterator[tuple]:
        """Rank the node S = sel, then yield each child's (candidates, cost,
        score) with the totals and sel set to the child, restoring them after."""
        nonlocal best, log_best
        if score > best[0] or score == best[0] and cost <= best[1]:
            cand = (score, cost, tuple(sorted(sel)))
            if _better(cand, best):
                best = cand
                if fair:
                    log_best = math.log(score)
        room = budget - cost
        live = []
        for j in cands:
            if costs[j] <= room:
                after, before = gain(totals, nz[j])
                if after > before:
                    if fair:
                        g = math.log(after) - math.log(before)
                        key = math.log(g) - log_costs[j] if g > 0 else -math.inf
                    else:
                        g = after - before
                        key = g * scale[j]
                    live.append((key, j, g, after, before))
        if not live:
            return
        live.sort(key=itemgetter(0), reverse=True)
        items = [t[1] for t in live]
        n = len(live)
        if fair:
            log_score = math.log(score)
        elif diverse:
            # caps[p]: S's score with each row raised to the most that
            # candidates p, p + 1, ... give it, one pass from the back
            top = totals[:]
            caps = [0] * n
            cap = score
            for p in range(n - 1, -1, -1):
                for i, u, mu in nz[items[p]]:
                    if u > top[i]:
                        cap += mu * (u - top[i])
                        top[i] = u
                caps[p] = cap
        q = 0  # candidates p .. q - 1 fill whole, and q, if any, in part
        whole = used = 0
        for p in range(n):
            if p:
                whole -= live[p - 1][2]
                used -= costs[items[p - 1]]
            while q < n and used + costs[items[q]] <= room:
                whole += live[q][2]
                used += costs[items[q]]
                q += 1
            if fair:
                ub = log_score + whole
                if q < n:
                    ub += live[q][2] * ((room - used) / costs[items[q]])
                if not p:
                    # Every number summed in this loop is at most the first
                    # bound: a candidate fits alone, so the fill holds at
                    # least its gain, and the logs a gain is the difference
                    # of are of products at most f(S + j). Each log errs by
                    # about an ulp, a bound adds and drops at most 2m gains,
                    # and the float keys misorder only densities that agree
                    # to about 1e-13, so a bound errs by O(m) ulps of the
                    # first one; 1e-9 of it covers any m below 10^5.
                    slack = 1e-9 * (1 + abs(ub))
                if ub + slack < log_best:
                    break
            else:
                ub = score + whole
                if q < n:
                    ub += live[q][2] * (room - used) // costs[items[q]]
                if diverse and caps[p] < ub:
                    ub = caps[p]
                # every set below S costs more than S, so on a tie in score
                # it can only beat a best that costs more than S
                if ub < best[0] or ub == best[0] and cost >= best[1]:
                    break
            j = items[p]
            after, before = live[p][3], live[p][4]
            rest = items[p + 1 :]
            sel.append(j)
            if diverse:
                # the max join written out, saving only the rows it raises:
                # a call to max per row doubles the search time
                undo = []
                for i, u, _ in nz[j]:
                    if u > totals[i]:
                        undo.append((i, totals[i]))
                        totals[i] = u
                yield rest, cost + costs[j], score + after - before
                for i, old in undo:
                    totals[i] = old
            else:
                for i, u, _ in nz[j]:
                    totals[i] += u
                child = score * after // before if fair else score + after - before
                yield rest, cost + costs[j], child
                for i, u, _ in nz[j]:
                    totals[i] -= u
            sel.pop()

    # a path of generators in place of recursion, so that depth is not bound
    # by the interpreter's stack
    path = [visit(list(range(m)), 0, _score(kind, totals, mults))]
    while path:
        node = next(path[-1], None)
        if node is None:
            path.pop()
        else:
            path.append(visit(*node))
    return make_solution(instance, kind, best[2], "bruteforce")


# ---------------------------------------------------------------------------
# value tables


def _axis(instance: Instance) -> tuple[bool, int, int]:
    """Whether a table runs over cost, its width, and the limit.

    The limit is the budget clamped to Σcosts. A table runs over cost, with
    columns 0..limit, when that axis is no longer than the value axis 0..U,
    for U the total utility, and over value otherwise; the same knapsacks
    come out of either (Kellerer, Pferschy & Pisinger, *Knapsack Problems*,
    2004, ch. 2). Nothing is allocated, so a guardrail can count the width
    first.
    """
    limit = min(instance.budget, sum(instance.costs))
    ubound = instance.total_utility()
    return (True, limit + 1, limit) if limit <= ubound else (False, ubound + 1, limit)


def _empty_row(instance: Instance) -> tuple[np.ndarray, int, int, bool]:
    """The row of the empty knapsack on the axis :func:`_axis` picks, the
    entry of no knapsack, the limit, and whether the row runs over cost.

    Entry p of a cost row is the most value of a knapsack costing at most p.
    The empty knapsack reaches 0 at every p, and no knapsack is -(U + 1),
    which stays below 0 with any one knapsack's gains added. Cost rows hold
    int64 unless a value could pass 2^62, and Python ints (``object``) then.

    Entry x of a value row is the least cost of a knapsack whose value
    reaches at least x. The empty knapsack costs 0 at x = 0 and reaches no
    x > 0, which rows mark with the sentinel Σcosts + 1, above every real
    cost, and so above the limit. Value rows hold int64 unless a cost added
    to the sentinel could pass 2^62, and Python ints then.
    """
    by_cost, width, limit = _axis(instance)
    ubound = instance.total_utility()
    if by_cost:
        return np.zeros(width, dtype=_int_dtype(ubound)), -(ubound + 1), limit, True
    costs = instance.costs
    inf = sum(costs) + 1
    row = np.full(width, inf, dtype=_int_dtype(inf + max(costs)))
    row[0] = 0
    return row, inf, limit, False


# candidates that a stacked row of _relax takes at a time
_RELAX_CHUNK = 2**16


def _relax(row: np.ndarray, src: np.ndarray, value, cost, by_cost: bool) -> None:
    """Extend the knapsacks of ``src`` by a choice worth ``value`` at ``cost``
    into ``row``, keeping the better entry at each column.

    The one update step of all four tables. On a value axis it is
    ``row[x] = min(row[x], src[max(x - value, 0)] + cost)``: a knapsack that
    reaches past x also reaches x. On a cost axis (``by_cost``) it is
    ``row[p] = max(row[p], src[p - cost] + value)`` for p >= cost; below the
    cost there is no source, and the entry stays. ``src`` may be ``row``
    itself, row by row, when each row takes one choice; every read sees it
    as it was before the call.

    ``row`` and ``src`` may be stacks of rows, and ``value`` and ``cost``
    columns, one per candidate; the candidates broadcast as numpy arrays do.
    With an axis more than ``row``, axis -2, they are choices, and each
    entry takes the best of them. So a row takes the best of a stacked
    ``src`` (sp-dp, the fixed-order table), a stacked row its own source row
    or the one ``src``, and a stacked row the best of m choices of one
    ``src``, each shift and add per choice or per (row, choice) (fpt).

    A shift per candidate gathers its columns, by indexing from one ``src``
    and by ``np.take_along_axis`` from a stack. Up to 512 columns a block is
    relaxed in one pass, which saves a call per candidate, except that a
    stacked row of more than ``_RELAX_CHUNK`` (2^16) candidates takes its
    rows in chunks of about that many, so that no copy grows with its rows;
    a shifted ``src`` that no row has its own of (fpt on a cost axis) is
    gathered once for all chunks. A wider block is split along the leading
    axis of its stacked sources and shifts (a stacked row's rows, else the
    choices) until each candidate is a slice: past that width a slice is
    as fast or faster than a gather, and a call copies no more than the
    rows it writes.
    """
    width = row.shape[-1]
    if by_cost:
        shift, add, better = cost, value, np.maximum
    else:
        shift, add, better = value, cost, np.minimum
    if width > 512 and max(src.ndim, np.ndim(shift)) > 1:
        lead = np.broadcast_shapes(src.shape[:-1], np.shape(shift)[:-1])
        depth = len(lead)

        def pick(v, a: int):
            """Entry a of v along the split axis if v has it, one number as a scalar."""
            v = v[(..., a) + (slice(None),) * depth] if np.ndim(v) > depth else v
            return v[0] if np.shape(v) == (1,) else v

        by_row = row.ndim > 1 and np.ndim(add) <= depth + 1
        for a in range(lead[0]):
            one = row[a] if by_row else row
            _relax(one, pick(src, a), pick(value, a), pick(cost, a), by_cost)
        return

    def join(target: np.ndarray, cand: np.ndarray) -> None:
        if cand.ndim > row.ndim:
            cand = better.reduce(cand, axis=-2)
        better(target, cand, out=target)

    if np.ndim(shift):
        # a shift per candidate row: each gathers its own columns, all rows
        # at once, or a chunk of the rows at a time with the parts of src,
        # shift and add that are per row; a src and shift that no row has
        # its own of are gathered once
        args = (src, shift, add)
        own, step = [False] * 3, max(1, len(row))
        if row.ndim > 1 and np.broadcast(*args).size > _RELAX_CHUNK:
            nd = max(row.ndim, *map(np.ndim, args))
            own = [np.ndim(v) == nd for v in args]
            step = max(1, _RELAX_CHUNK * len(row) // np.broadcast(*args).size)
        fixed = None if own[0] or own[1] else _shifted(src, shift, width)
        for lo in range(0, len(row), step):
            parts = [v[lo : lo + step] if o else v for v, o in zip(args, own)]
            cols, cand = fixed or _shifted(parts[0], parts[1], width)
            cand = cand + parts[2]
            target = row[lo : lo + step]
            if by_cost:
                keep = target if cand.ndim == row.ndim else target[..., None, :]
                np.copyto(cand, keep, where=cols < 0)
            join(target, cand)
        return
    cut = min(shift, width)
    join(row[..., cut:], src[..., : width - cut] + add)
    if not by_cost:
        # column 0 was written above only when cut is 0, and this is empty
        join(row[..., :cut], src[..., :1] + add)


def _shifted(src: np.ndarray, shift, width: int) -> tuple[np.ndarray, np.ndarray]:
    """For a shift per candidate row, the column of ``src`` that each
    candidate entry reads (below 0 on a cost axis where there is none), and
    ``src`` gathered there, at column 0 in place of those below it."""
    cols = np.arange(width) - np.minimum(shift, width).astype(np.intp)
    at = np.maximum(cols, 0)
    return cols, src[at] if src.ndim == 1 else np.take_along_axis(src, at, axis=-1)


def _step_back(
    rows: np.ndarray, x: int, target, values, costs, by_cost: bool
) -> tuple[int, int, int]:
    """Undo one table step that set an entry to ``target`` at x.

    Choice k of source ``rows[s]`` is worth ``values[s, k]`` at
    ``costs[s, k]`` (both broadcast). On a value axis it reads column
    ``x - values[s, k]``, or column 0 below it, as :func:`_relax` does, and
    adds the cost; on a cost axis (``by_cost``) it reads column
    ``x - costs[s, k]``, where below column 0 there is no source, and adds
    the value. Of the (s, k) that give the target, the lowest s wins, then
    the lowest k: no item first where source 0 is the empty row, then the
    lowest source, then the lowest item. ``rows`` stacks the source rows;
    the sources read are the first ones, as many as the choices broadcast
    to. Returns s, k and the column of ``rows[s]`` that was read.
    """
    shifts, adds = (costs, values) if by_cost else (values, costs)
    cols, adds = np.broadcast_arrays(x - shifts, adds)
    fits = cols >= 0 if by_cost else True
    cols = np.maximum(cols, 0)
    hit = (rows[np.arange(len(cols))[:, None], cols] + adds == target) & fits
    s, k = divmod(int(np.argmax(hit)), hit.shape[1])  # the first hit in C order
    return s, k, int(cols[s, k])


def _optimum(rows: np.ndarray, limit: int, by_cost: bool) -> tuple[int, int]:
    """Where the walk back starts in a stack of rows that holds the empty
    knapsack: the column of the best knapsack within the limit, and the first
    row that holds it there.

    On a cost axis the column is the least cost reaching the most value that
    the limit affords; on a value axis it is that value. Either is 0, in the
    empty knapsack's row, when no knapsack beats it.
    """
    if by_cost:
        best = rows.max(axis=0)
        x = int(np.argmax(best >= best[limit]))
    else:
        best = rows.min(axis=0)
        hits = np.flatnonzero(best <= limit)
        x = int(hits[-1])
    return x, int(np.argmax(rows[:, x] == best[x]))


# ---------------------------------------------------------------------------
# additive objective


def solve_ib_dp(instance: Instance, options: Optional[SolveOptions] = None) -> Solution:
    """Exact additive-objective optimum via a knapsack table on the shorter axis.

    The row starts as the empty row and is relaxed by each item in turn, worth
    its summed utility at its cost. Only a mask of the entries each item
    strictly improved is kept, which is enough to walk back. Work and memory
    are m * (axis + 1), for an axis of 0..min(B, Σcosts) or 0..U, whichever is
    shorter; the guardrail checks m * (U + 1), which bounds both.
    """
    opts = options or DEFAULT_OPTIONS
    m = instance.num_items
    _check_cells("value table", m * (instance.total_utility() + 1), opts)
    w = [instance.column_sum(j) for j in range(m)]
    costs = instance.costs
    row, _, limit, by_cost = _empty_row(instance)
    took = []
    for j in range(m):
        before = row.copy()
        _relax(row, before, w[j], costs[j], by_cost)
        took.append(row != before)
    x, _ = _optimum(row[None], limit, by_cost)
    sel = []
    for j in range(m - 1, -1, -1):
        if took[j][x]:
            sel.append(j)
            x = max(x - (costs[j] if by_cost else w[j]), 0)
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
    a last-item recurrence exact. Row p + 1 holds the knapsacks whose latest
    item sits at position p: the empty row 0 and every earlier row, each
    relaxed by that item. The work is m(m+1)/2 * (axis + 1) on the shorter
    axis (see :func:`_axis`); the guardrail checks m(m+1)/2 * (U + 1),
    which bounds it, before the work starts.
    """
    opts = options or DEFAULT_OPTIONS
    order = _check_permutation(order, instance.num_items, "items")
    if not verify_single_peaked(instance, order):
        raise ValidationError("profile is not single-peaked under the given item order")
    m = instance.num_items
    ubound = instance.total_utility()
    _check_cells("single-peaked table", m * (m + 1) // 2 * (ubound + 1), opts)
    # cols[s]: each voter's utility for the latest item of source s, where
    # source 0 is the empty knapsack and source p + 1 ends at position p
    vdt = _int_dtype(ubound)
    cols = np.zeros((m + 1, instance.num_voters), dtype=vdt)
    cols[1:] = np.array(instance.utilities, dtype=vdt).T[list(order)]
    # gains[p][s]: diverse value the item at position p adds on top of source s
    gains = [np.maximum(cols[p + 1] - cols[: p + 1], 0).sum(axis=1) for p in range(m)]
    costs = [instance.costs[j] for j in order]
    empty, none, limit, by_cost = _empty_row(instance)
    table = np.full((m + 1, len(empty)), none, dtype=empty.dtype)
    table[0] = empty
    for p in range(m):
        _relax(table[p + 1], table[: p + 1], gains[p][:, None], costs[p], by_cost)
    x, s = _optimum(table, limit, by_cost)  # the cheapest, then earliest
    chosen = []
    while s:
        p = s - 1
        chosen.append(order[p])
        gain = gains[p][:, None]
        s, _, x = _step_back(table, x, table[s][x], gain, costs[p], by_cost)
    return make_solution(instance, Objective.DIVERSE, chosen, "sp-dp")


# ---------------------------------------------------------------------------
# diverse objective, fixed voter order


def _voter_runs(
    instance: Instance, voter_order: Sequence[int], merge: bool
) -> np.ndarray:
    """The steps of the fixed-order table along ``voter_order``, as utility
    rows: each run of identical adjacent voters as one row, its voters'
    summed utilities, when ``merge``; one row per voter otherwise."""
    voter_order = _check_permutation(voter_order, instance.num_voters, "voters")
    ordered = [instance.utilities[v] for v in voter_order]
    if merge:
        runs = [(row, len(list(same))) for row, same in itertools.groupby(ordered)]
    else:
        runs = [(row, 1) for row in ordered]
    vdt = _int_dtype(instance.total_utility())
    steps = np.array([row for row, _ in runs], dtype=vdt)
    return steps * np.array([k for _, k in runs], dtype=vdt)[:, None]


def _order_rows(
    instance: Instance, steps: np.ndarray, opts: SolveOptions
) -> tuple[np.ndarray, int, bool]:
    """The fixed-order table on the shorter axis, with the empty row as row 0
    and the first t steps of :func:`_voter_runs` in row t; the limit; and
    the axis, as :func:`_axis` picks it.

    Running row a holds the finished rows (the empty row, earlier rows) with
    a segment of item a open after them, plus a's utility since. A step adds
    its utilities to every running row; row t is then the best running row
    plus its item's cost, and joins every running row.

    A step may be a run of identical adjacent voters, and the rows at its
    ends are those that a step per voter builds. A segmentation that puts
    two identical adjacent voters in different segments does no better than
    the one that moves either voter into the other's segment, the one whose
    item that voter values at least as much: the value cannot fall, and the
    cost cannot rise, as no segment is added. So the best entries never
    split a run. The work is runs * m * (axis + 1); the guardrail checks
    n * m * (U + 1) over the voters, which bounds it.
    """
    n = instance.num_voters
    m = instance.num_items
    _check_cells("order table", n * (instance.total_utility() + 1) * m, opts)
    empty, none, limit, by_cost = _empty_row(instance)
    rows = np.full((len(steps) + 1, len(empty)), none, dtype=empty.dtype)
    rows[0] = empty
    running = np.tile(empty, (m, 1))
    costs = np.array(instance.costs, dtype=_int_dtype(max(instance.costs)))[:, None]
    for t, step in enumerate(steps, 1):
        # rows never decrease along the axis, so a value-axis row relaxed by
        # itself is shifted, and a cost-axis one is raised
        _relax(running, running, step[:, None], 0, by_cost)
        _relax(rows[t], running, 0, costs, by_cost)
        _relax(running, rows[t], 0, 0, by_cost)
    return rows, limit, by_cost


def ordered_diverse_table(
    instance: Instance,
    voter_order: Sequence[int],
    options: Optional[SolveOptions] = None,
) -> np.ndarray:
    """Min-cost table for covering a voter order with item segments.

    Entry [t][x] is the cheapest way to split the first t+1 voters (in the
    given order) into consecutive segments, pick one item per segment, and
    collect at least x total utility, each voter counting their segment's item.
    An x that no split reaches within Σcosts reads Σcosts + 1. The last row
    lower-bounds the budgeted diverse optimum for every order and matches it
    when the order is single-crossing.

    The table has U + 1 columns, for U the total utility, and a row per
    voter, so it steps once per voter. When Σcosts <= U,
    it is built over the Σcosts + 1 costs, holding the most value within
    each cost, and each row is turned into the value axis by a binary search.
    The work is n * m * (min(Σcosts, U) + 1).
    """
    opts = options or DEFAULT_OPTIONS
    inf = sum(instance.costs) + 1
    steps = _voter_runs(instance, voter_order, merge=False)
    # every knapsack fits in a budget of Σcosts, so the rows hold them all
    whole = dataclasses.replace(instance, budget=inf - 1)
    rows, _, by_cost = _order_rows(whole, steps, opts)
    table = rows[1:]
    if by_cost:
        # the least cost whose most value reaches x, or Σcosts + 1
        xs = np.arange(instance.total_utility() + 1)
        return np.array([np.searchsorted(row, xs) for row in table])
    return np.minimum(table, inf)


def _solve_with_voter_order(
    instance: Instance,
    voter_order: Sequence[int],
    method: str,
    opts: SolveOptions,
) -> Solution:
    """The best knapsack of the fixed-order table, built a step per run of
    identical adjacent voters (see :func:`_order_rows`).

    The walk back stops only where a step per voter would. Say a step per
    voter takes source s and item a, with voters s and s + 1 identical. In
    the best split of the first s voters at the column read, voter s's
    segment has some item b. If voter s values a at least as much as b,
    moving voter s into a's segment shows that source s - 1 and item a give
    the same entry. Otherwise moving voter s + 1 into b's segment would beat
    the entry at no more cost, which on a cost axis no entry allows, and on
    a value axis no entry that the walk reaches from the best value within
    the limit. So the lowest source sits at the start of a run, and the
    knapsack is that of a step per voter.
    """
    steps = _voter_runs(instance, voter_order, merge=True)
    rows, limit, by_cost = _order_rows(instance, steps, opts)
    n = len(rows) - 1
    x, _ = _optimum(rows[::n], limit, by_cost)  # the empty row and row n, a view
    # source s of the walk is the empty row (s = 0) or the first s runs,
    # and prefix[s][a] is item a's utility over the voters of those runs
    prefix = np.cumsum(np.vstack([np.zeros_like(steps[:1]), steps]), axis=0)
    costs = np.array(instance.costs, dtype=_int_dtype(max(instance.costs)))
    items: set[int] = set()
    s = n if x else 0
    while s:
        segment = prefix[s] - prefix[:s]
        s, a, x = _step_back(rows, x, rows[s][x], segment, costs, by_cost)
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
    The table steps once per run of identical adjacent voters along the
    order, for work of runs * m * (axis + 1) on the shorter axis (see
    :func:`_axis`); the knapsack is the one a step per voter gives. The
    guardrail checks n * m * (U + 1) over the voters, which bounds it.

    On an order that is not single-crossing, several knapsacks can tie in
    the table, and the walk returns the one its tie rule reaches; the
    evaluated value and the cost of that knapsack can differ from another
    tied knapsack's. With utilities [[1, 2, 4, 2, 3], [3, 1, 3, 3, 3],
    [4, 1, 2, 0, 4], [2, 3, 3, 3, 2]], every cost 3, budget 6 and order
    (3, 2, 0, 1), both (1, 4) and (0, 2) reach the best entry, 13 at cost
    6; the walk returns (1, 4), which evaluates to 13, where (0, 2)
    evaluates to 14.
    """
    opts = options or DEFAULT_OPTIONS
    return _solve_with_voter_order(instance, voter_order, "ordered-dp", opts)


def solve_diverse_sc(
    instance: Instance, options: Optional[SolveOptions] = None
) -> Solution:
    """Exact diverse optimum for single-crossing profiles (recognizes the order)."""
    opts = options or DEFAULT_OPTIONS
    return _ROUTES["sc-dp"].solve(instance, Objective.DIVERSE, opts)


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
    that cost) or over value (least cost reaching it), on the axis
    :func:`_axis` picks. One :func:`_relax` call per source set S updates
    every target T, taking the best item a at a's cost and utility over the
    block T - S; the work is 3^k * m * (axis + 1). The walk back re-derives
    each block from the stored rows; on equal value and cost, no item wins
    over an item, then the lowest source set, then the lowest item index.
    """
    opts = options or DEFAULT_OPTIONS
    n = instance.num_voters
    if n > opts.max_fpt_voters:
        raise GuardrailError(
            f"subset DP over {n} voters exceeds the cap of {opts.max_fpt_voters}"
        )
    rows, mults = _collapse_voters(instance)
    k = len(rows)
    m = instance.num_items
    _, width, _ = _axis(instance)
    _check_cells(f"subset DP over {k} distinct voter rows", 3**k * m * width, opts)
    empty, _, limit, by_cost = _empty_row(instance)
    full = (1 << k) - 1
    # val[T][a]: item a's utility summed over every voter of the rows in T
    vdt = _int_dtype(instance.total_utility())
    val = np.zeros((full + 1, m), dtype=vdt)
    for t in range(1, full + 1):
        r = (t & -t).bit_length() - 1
        val[t] = val[t & (t - 1)] + mults[r] * np.array(rows[r], dtype=vdt)
    costs = np.array(instance.costs, dtype=_int_dtype(max(instance.costs)))
    table = np.tile(empty, (full + 1, 1))  # table[S]: the knapsacks covering S
    sets = np.arange(full + 1)
    for s in range(full):
        if s and not s & 1:
            continue  # sorted by lowest row, an optimal split covers row 0 first
        # the targets: s, its lowest free row and any other free rows
        free = full & ~s
        low = free & -free
        rest = free ^ low
        ts = s | low | sets[sets & rest == sets]
        block = table[ts]
        _relax(block, table[s], val[ts ^ s][:, :, None], costs[:, None], by_cost)
        table[ts] = block
    p, _ = _optimum(table[full][None], limit, by_cost)
    items: set[int] = set()
    t = full
    while table[t][p] != table[0][p]:  # every set starts as row 0, never written
        # t's sources in the loop's order: those whose lowest free row is in t
        srcs = [s for s in (0, *range(1, t, 2)) if s & t == s and ~s & (s + 1) & t]
        blocks = val[t ^ np.array(srcs)]
        i, a, p = _step_back(table[srcs], p, table[t][p], blocks, costs, by_cost)
        items.add(a)
        t = srcs[i]
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


def _denser_fair(after: int, before: int, cost: int, pa: int, pb: int, pc: int) -> bool:
    """Whether (after / before)^(1 / cost) beats (pa / pb)^(1 / pc).

    Equal costs compare the ratios themselves. Otherwise
    :func:`_log_greater` decides pc * log(after / before) >
    cost * log(pa / pb) exactly, with both weights divided by gcd(cost, pc),
    at any size of the costs. Greedy asks only about items whose float keys
    are within its margin of each other, so a float test would rarely
    decide, and never an exact tie.
    """
    if cost == pc:
        return after * pb > pa * before
    g = math.gcd(cost, pc)
    return _log_greater(Fraction(after, before), pc // g, Fraction(pa, pb), cost // g)


def _log_greater(r1: Fraction, w1: int, r2: Fraction, w2: int) -> bool:
    """Whether w1 * ln(r1) > w2 * ln(r2), for r1, r2 >= 1 and coprime
    weights w1, w2 >= 1, with no number much larger than the inputs.

    The two sides are equal exactly when r1^w1 = r2^w2, and, the weights
    being coprime and the ratios in lowest terms, that holds exactly when
    r1 = s^w2 and r2 = s^w1 for one rational s: :func:`_iroot` decides it.
    Otherwise the logarithms are taken in decimal at P = 40, 80, 160, ...
    digits until the sides differ by more than 10^(2 - P) * S, where S is
    w1 * (ln n1 + ln d1) + w2 * (ln n2 + ln d2) over the numerators and
    denominators. Each ln is correctly rounded, and the difference and the
    product round once more, to within u = 10^(1 - P) / 2 of the result
    each, so a side errs by under 5u times its part of S: the bound is four
    times the error of both sides, which leaves room for the rounding of the
    test itself. The sides differ, so some P clears it.
    """
    parts = (r1.numerator, r1.denominator, r2.numerator, r2.denominator)
    roots = [_iroot(x, w) for x, w in zip(parts, (w2, w2, w1, w1))]
    if None not in roots and roots[:2] == roots[2:]:
        return False
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            n1, d1, n2, d2 = (decimal.Decimal(x).ln() for x in parts)
            lhs = w1 * (n1 - d1)
            rhs = w2 * (n2 - d2)
            if abs(lhs - rhs) > decimal.Decimal(10) ** (2 - prec) * (
                w1 * (n1 + d1) + w2 * (n2 + d2)
            ):
                return lhs > rhs
        prec *= 2


def _iroot(n: int, k: int) -> Optional[int]:
    """The integer s with s^k = n, for n, k >= 1, or None when there is none.

    A root s >= 2 needs n >= 2^k, so past n's bit length there is none; no
    power the bisection forms passes twice the bits of n.
    """
    if n == 1:
        return 1
    bits = n.bit_length()
    if k >= bits:
        return None
    lo, hi = 1, 1 << -(-bits // k)  # lo^k <= n < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo**k == n else None


def _log(a: np.ndarray) -> np.ndarray:
    """Natural logarithms of nonnegative integers as floats, -inf at 0.

    Python ints (``object``) of any size go through :func:`math.log`.
    """
    if a.dtype == object:
        logs = [math.log(v) if v else -math.inf for v in a.flat]
        return np.array(logs, dtype=float).reshape(a.shape)
    with np.errstate(divide="ignore"):
        return np.log(a)


def _log1p_ratio(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log(1 + u / t) for int64 arrays u >= 0 and t >= 1, as floats within a
    few ulps. Python ints (``object``) take :func:`_log_log1p_ratio`."""
    x = u / t
    return np.log1p(x, out=x)


def _log_log1p_ratio(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log(log(1 + u / t)) for Python ints u >= 0 and t >= 1, as floats that
    err by a few ulps of the result, however small the ratio; -inf at u = 0.

    Below 2^-1000, where log1p(u / t) would be a subnormal float of few
    digits, it is log u - log t, which errs by under u / t.
    """

    def one(a: int, b: int) -> float:
        if not a:
            return -math.inf
        try:
            q = a / b
        except OverflowError:
            return math.log(math.log(a + b) - math.log(b))
        if q < 2.0**-1000:
            return math.log(a) - math.log(b)
        return math.log(math.log1p(q))

    return np.frompyfunc(one, 2, 1)(u, t).astype(float)


def _slot_sum(groups: Iterator[np.ndarray], add: np.ufunc) -> np.ndarray:
    """Terms combined per item and chain by ``add``, ``np.add`` or, for terms
    taken as logs, ``np.logaddexp``: each group of slots (items x slots x
    chains) is reduced over its slots, and the groups are combined in order."""
    sums = (g[:, 0] if g.shape[1] == 1 else add.reduce(g, axis=1) for g in groups)
    total = next(sums)
    for part in sums:
        add(total, part, out=total)
    return total


# the greedy's seed size: its (1 - 1/e) factor needs seeds of 3 items
# (Khuller, Moss & Naor 1999; Sviridenko 2004), and each size past that
# multiplies the C(m, s) seeds, which no cap counts
_SEED_SIZE = 3


def _seed_blocks(
    costs: np.ndarray, budget: int, size: int, width: int
) -> Iterator[np.ndarray]:
    """The feasible seeds of one size in lexicographic order, as index
    arrays of at most ``width`` rows."""
    combos = itertools.chain.from_iterable(
        itertools.combinations(range(len(costs)), size)
    )
    while True:
        raw = np.fromiter(itertools.islice(combos, 8 * width * size), dtype=np.intp)
        if not len(raw):
            return
        raw = raw.reshape(-1, size)
        fit = raw[costs[raw].sum(axis=1) <= budget]
        for start in range(0, len(fit), width):
            yield fit[start : start + width]


def solve_greedy(
    instance: Instance, kind: Objective | str, options: Optional[SolveOptions] = None
) -> Solution:
    """Partial-enumeration greedy: try every feasible seed of 3 items, at
    most C(m, 3) of them, extend each by the best marginal gain per unit
    cost, and keep the best candidate overall (all smaller feasible subsets
    compete as-is). Seeds of 3 items guarantee a (1 - 1/e) factor for the
    diverse objective and for the logarithm of the fair objective
    (Sviridenko's partial enumeration). Greedy has no cap: it takes
    ``options``, as every solver does, and reads none of them.

    The chains of a block of seeds advance in lockstep, one pick per step,
    as arrays with one column per chain: each distinct voter row's utility
    for the chain's set, its cost and its chosen items. A step scores every
    item for every chain from the nonzero utilities, held item by item in an
    items x span grid (span the most rows that value one item) padded with
    (row 0, utility 0, mult 0), which adds 0 to any item's terms. It sums
    the terms into an items x chains array a group of slots at a time, as
    many as keep items x slots x chains within 2^15 entries: one slot when
    the block is full, more as its chains finish or merge. ib gains do not
    depend on the chain and are summed once per solve; a diverse gain is
    the ib gain less mult * min(u, t) over the item's rows, for t the row's
    total. For ib and diverse the density is the score's gain over the
    item's cost; for fair it is the ratio of the new product to the current
    one, to the power 1 / cost, whose log is the sum of
    mult * log1p(u / (t + 1)) over the cost. Every key is a float log: of
    the density for ib and diverse, log(gain) - log(cost), and of its log
    for fair, log(summed terms) - log(cost). The keys pick out the items
    within 1e-9 (1 + its magnitude) of each chain's best. Their rounding
    error is far inside that margin, so when one item is inside, it is the
    pick; when several are, the exact integer tests decide, in index order,
    and the lowest index wins among equals. Finished sets are ranked by
    :func:`_better` on their exact scores, computed only for the sets whose
    float log score is within the same margin of the best seen. Every pick
    and the answer are thus those of exact arithmetic, and the time does
    not grow with the size of the costs.

    Six things make the search cheaper without changing a pick or the
    answer:

    - Fair terms from a table. On int64 totals, the term
      mult * log1p(u / (t + 1)) of each nonzero at every total t that its
      row can reach (0 up to the row's sum) is computed once per solve, by
      the same float operations as in a step, and a step reads it; every
      pad reads one shared 0.0 after them. The table is built only when it
      has at most 2^15 entries besides that 0.0, one block's worth; past
      that a step computes its terms, so time and memory never grow with
      the utilities. Either way every float is the same.
    - A bound. Before a step picks, a chain is dropped when no set it can
      reach beats the best finished set so far. Gains only shrink as a set
      S grows (ib is additive, and diverse and the logarithm of fair are
      submodular), so every set reachable from S scores at most f(S) plus
      the room left times the best gain per unit cost of an item that
      still fits (Nemhauser, Wolsey & Fisher 1978), whose log is the
      chain's best key. The bound is taken in logs, from the chain's
      carried log score (below) against the best float log score: for ib
      and diverse log(f(S) + room * gain / cost), through
      ``np.logaddexp``; for fair log f(S) + room * (the log of the
      density), which a room past float range makes infinite. A chain goes
      only when its bound falls short of the best's by more than the margin
      :func:`brute_force` uses, 1e-9 (1 + |bound|), which is far wider than
      the bound's rounding; so a chain that could tie the best, which
      :func:`_better` would then rank by cost, stays. A chain is bounded
      only while it has an item left, so no room of 0 meets a density of
      -inf. A dropped chain would have lost to the best, so the answer
      stays that of exact arithmetic.
    - One merge call. The next pick depends only on the chosen set, so
      chains of a block that reach the same set are merged after each
      step: one ``np.unique`` over a key per chain, the set as an int64
      bitmask up to 62 items and its packed bits past that, keeps the
      first chain of each set. The chains' order never changes a pick or
      the ranking, which :func:`_better` decides on distinct sets.
    - A primed bound. Before any seed runs, one chain starts from the empty
      set (zero totals, cost 0, nothing chosen) and runs to its end, so the
      bound has an incumbent from the first block of seeds on, not only the
      best smaller set. The answer stays the same: the next pick depends
      only on the set, so once this chain has made as many picks as a seed
      has items, its state is that of the seed made of those picks, and it
      ends on the set that seed's chain would end on; if it stops sooner,
      its set is a feasible smaller seed, which competes as it is anyway.
      Ranking a set that competes anyway leaves the best where it was, so
      only the best float log score rises sooner, and the bound still drops
      only chains that would lose.
    - Finished chains leave first. At the top of each step, the chains with
      no item left that fits are ranked and dropped before any term is
      summed, so a block whose seeds spend the budget sums none. A chain
      whose fitting items all gain 0 is still found from its keys.
    - Carried log scores. Each chain carries its float log score: a block's
      seeds start from the log of their scores, and a pick adds the picked
      item's gain, read back from its own key, exp(key + log cost) to the
      log score for fair and through ``np.logaddexp`` of key + log cost for
      ib and diverse. The bound and the ranking read these, with no logs of
      the distinct rows' totals at each step. A pick adds a few ulps of
      error, far inside the 1e-9 (1 + |score|) margin.

    A block holds 2^15 // max(items, distinct rows) chains for every
    objective, so neither a step's items x chains arrays nor the chains'
    totals pass 2^15 entries. Totals and costs are int64 unless a sum could
    pass 2^62, and Python ints (``object``) then, whose logs are taken at
    any size. A fair term log1p(u / (t + 1)) with u >= 1 can be a subnormal
    float of few digits once a total passes about 2^1022, so on Python-int
    totals each term is taken as a log (-inf at a pad) and the slots and
    groups combine by ``np.logaddexp`` where they otherwise add. The exact
    test compares fair densities at equal costs by cross-multiplying and
    across unequal costs by :func:`_log_greater`, at any size of the costs.
    """
    kind = _coerce_objective(kind)
    m = instance.num_items
    costs = instance.costs
    budget = min(instance.budget, sum(costs))
    fair = kind is Objective.FAIR
    diverse = kind is Objective.DIVERSE
    join = np.maximum if diverse else np.add
    gain = _gain(kind)
    mults, nz = _sparse_columns(instance)
    k = len(mults)
    ubound = instance.total_utility()
    dt = _int_dtype(ubound + 2 * sum(costs))
    # the nonzeros item by item, as items x span grids of row, utility and
    # mult, padded to the longest column with (row 0, utility 0, mult 0),
    # which add 0 to every item's terms
    cols = np.array([j for j in range(m) if nz[j]], dtype=np.intp)
    span = max((len(nz[j]) for j in cols), default=0)
    pad = [(0, 0, 0)]
    grid = np.array([nz[j] + pad * (span - len(nz[j])) for j in cols], dtype=object)
    grid = grid.reshape(len(cols), span, 3)
    er = grid[..., 0].astype(np.intp)
    eu = grid[..., 1].astype(dt)
    em = grid[..., 2].astype(np.int64)
    real = em > 0
    util = np.zeros((k, m), dtype=dt)  # util[r, j]: row r's utility for item j
    util[er[real], cols[np.nonzero(real)[0]]] = eu[real]
    c = np.array(costs, dtype=dt)
    cc = c[cols][:, None]
    log_cc = _log(cc)
    # a term log1p(u / (t + 1)) with u >= 1 can be a subnormal float once a
    # total passes about 2^1022, which only Python-int totals reach, so on
    # those each term is taken as a log and the terms add in logs
    log_terms = fair and dt is object
    add = np.logaddexp if log_terms else np.add
    mu = np.array(mults, dtype=float if fair else dt)
    bits = 1 << np.arange(m, dtype=np.int64) if m <= 62 else None
    # a step's arrays are items x chains and distinct rows x chains
    width = max(1, 2**15 // max(1, len(cols), k))
    best = (_score(kind, [0] * k, mults), 0, ())  # the empty knapsack
    best_log = -math.inf  # the largest float log score seen
    # each item's ib gain, from which its diverse gains are taken
    gains = (em * eu).sum(axis=1)[:, None]
    weighted = max(mults) > 1  # else every real mult is 1, and a pad's term is 0
    table = None
    if fair and dt is not object:
        # nonzero e's terms at totals 0 .. its row's sum, from table[off[e]];
        # every pad reads the one 0.0 after them, as take clips its index
        reach = util.sum(axis=1)[er[real]] + 1
        if sum(reach.tolist()) <= 2**15:
            start = np.cumsum(reach) - reach
            t = np.arange(reach.sum()) - np.repeat(start, reach) + 1
            table = _log1p_ratio(np.repeat(eu[real], reach), t)
            table *= np.repeat(em[real], reach)
            table = np.append(table, 0.0)
            off = np.full(er.shape, len(table) - 1)
            off[real] = start

    def log_score(totals: np.ndarray) -> np.ndarray:
        """The float log of each chain's score, -inf at a score of 0."""
        if fair:
            return (_log(totals + 1) * mu[:, None]).sum(axis=0)  # not BLAS
        return _log(mu @ totals)

    def rank(
        totals: np.ndarray, cost: np.ndarray, chosen: np.ndarray, score: np.ndarray
    ) -> None:
        """Let the sets of finished chains compete with the best so far.
        ``score`` holds each chain's carried float log score; only the sets
        within the margin of the best seen are scored exactly and ranked."""
        nonlocal best, best_log
        best_log = max(best_log, score.max())
        for b in np.flatnonzero(score >= best_log - 1e-9 * (1 + abs(best_log))):
            cand = (
                _score(kind, totals[:, b].tolist(), mults),
                int(cost[b]),
                tuple(np.flatnonzero(chosen[:, b]).tolist()),
            )
            if _better(cand, best):
                best = cand

    def can_win(score: np.ndarray, room: np.ndarray, top: np.ndarray) -> np.ndarray:
        """Whether each chain's bound, in logs, leaves it a chance to beat
        the best: its carried float log score ``score`` with its room times
        its best density, whose log is ``top``; every chain here has an item
        left, so top is finite."""
        fill = _log(room) + top  # the log of room times the best density
        if fair:
            with np.errstate(over="ignore"):  # a room past float range
                ub = score + np.exp(fill)
        else:
            ub = np.logaddexp(score, fill)
        return ub + 1e-9 * (1 + np.abs(ub)) >= best_log

    def exact_picks(totals: np.ndarray, near: np.ndarray) -> list[int]:
        """Each chain's densest near item by the exact integer tests."""
        tots = totals.T.tolist()
        # the pick so far of each chain: item p of cost pc, gain (pa, pb)
        picks: dict[int, tuple] = {}
        bb, pp = np.nonzero(near.T)  # by chain, then item
        for b, p, j in zip(bb.tolist(), pp.tolist(), cols[pp].tolist()):
            after, before = gain(tots[b], nz[j])
            if b in picks:
                _, pa, pb, pc = picks[b]
                if fair:
                    if not _denser_fair(after, before, costs[j], pa, pb, pc):
                        continue
                elif (after - before) * pc <= (pa - pb) * costs[j]:
                    continue
            picks[b] = (p, after, before, costs[j])
        return [picks[b][0] for b in range(near.shape[1])]

    def fair_terms(totals: np.ndarray, slots: slice) -> np.ndarray:
        """mult * log1p(u / (t + 1)) of each item's slots, for each chain;
        its log (-inf at a pad) on log terms."""
        at = totals[er[:, slots]]
        if table is not None:
            at += off[:, slots, None]
            return table.take(at, mode="clip")
        at += 1
        if log_terms:
            return _log_log1p_ratio(eu[:, slots, None], at) + _log(em[:, slots, None])
        terms = _log1p_ratio(eu[:, slots, None], at)
        terms *= em[:, slots, None]
        return terms

    def covered(totals: np.ndarray, slots: slice) -> np.ndarray:
        """mult * min(u, t) of each item's slots, for each chain: the part of
        u that the chain's total already covers."""
        at = totals[er[:, slots]]
        np.minimum(at, eu[:, slots, None], out=at)
        if weighted:
            at *= em[:, slots, None]
        return at

    def advance(
        totals: np.ndarray, cost: np.ndarray, chosen: np.ndarray, score: np.ndarray
    ) -> None:
        """Run a block of chains to their ends, ranking each as it stops."""
        while True:
            room = budget - cost
            ok = ~chosen[cols] & (cc <= room)
            left = ok.any(axis=0)
            if not left.all():  # no item fits: ranked before any term is summed
                done = ~left
                rank(totals[:, done], cost[done], chosen[:, done], score[done])
                if not left.any():
                    return
                totals, cost, chosen = totals[:, left], cost[left], chosen[:, left]
                score, room, ok = score[left], room[left], ok[:, left]
            # each item's terms are combined a group of slots at a time, as
            # many as keep items x slots x chains within 2^15 entries
            step = max(1, 2**15 // (len(cols) * len(cost)))
            groups = [slice(lo, lo + step) for lo in range(0, span, step)]
            if fair:
                key = _slot_sum((fair_terms(totals, sl) for sl in groups), add)
                if not log_terms:
                    np.log(key, out=key)  # in place: a block's keys are many
            elif diverse:
                g = gains - _slot_sum((covered(totals, sl) for sl in groups), add)
                key = _log(g)  # -inf at a gain of 0
            else:
                key = _log(np.broadcast_to(gains, ok.shape))
            key -= log_cc
            key[~ok] = -math.inf
            top = key.max(axis=0)
            done = top == -math.inf  # every item that fits gains 0
            if done.any():
                rank(totals[:, done], cost[done], chosen[:, done], score[done])
                if done.all():
                    return
                live = ~done
                totals, cost, chosen = totals[:, live], cost[live], chosen[:, live]
                score, room, key, top = score[live], room[live], key[:, live], top[live]
            win = can_win(score, room, top)
            if not win.all():
                if not win.any():
                    return
                totals, cost, chosen = totals[:, win], cost[win], chosen[:, win]
                score, key, top = score[win], key[:, win], top[win]
            near = key >= top - 1e-9 * (1 + np.abs(top))
            pick = key.argmax(axis=0)
            tied = np.flatnonzero(near.sum(axis=0) > 1)
            if len(tied):
                pick[tied] = exact_picks(totals[:, tied], near[:, tied])
            # the pick's gain, read back from its key: the log of the score's
            # gain for ib and diverse, and for fair the gain of the log score
            lift = key[pick, np.arange(len(pick))] + log_cc[pick, 0]
            score = score + np.exp(lift) if fair else np.logaddexp(score, lift)
            items = cols[pick]
            totals = join(totals, util[:, items])
            cost = cost + c[items]
            chosen[items, np.arange(len(items))] = True
            # merge the chains that reached the same set into the first; an
            # int64 key sorts about ten times faster than packed columns
            if bits is not None:
                _, first = np.unique(bits @ chosen, return_index=True)
            else:
                packed = np.packbits(chosen, axis=0)
                _, first = np.unique(packed, axis=1, return_index=True)
            if len(first) < len(items):  # the chains' order never matters
                totals, cost, chosen = totals[:, first], cost[first], chosen[:, first]
                score = score[first]

    if len(cols):  # the chain from the empty set primes the bound
        empty = np.zeros((k, 1), dtype=dt)
        chosen = np.zeros((m, 1), dtype=bool)
        advance(empty, np.zeros(1, dtype=dt), chosen, log_score(empty))
    s = min(_SEED_SIZE, m)
    for size in range(1, s + 1):
        for seeds in _seed_blocks(c, budget, size, width):
            totals = util[:, seeds[:, 0]]
            for p in range(1, size):
                totals = join(totals, util[:, seeds[:, p]])
            chosen = np.zeros((m, len(seeds)), dtype=bool)
            chosen[seeds.T, np.arange(len(seeds))] = True
            cost = c[seeds].sum(axis=1)
            if size == s and len(cols):
                advance(totals, cost, chosen, log_score(totals))
            else:  # smaller seeds compete as they are
                rank(totals, cost, chosen, log_score(totals))
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

    def solve(
        self, instance: Instance, kind: Objective, opts: SolveOptions
    ) -> Solution:
        """Run this route alone, refusing an objective it does not serve and
        an instance outside its domain with a ValidationError."""
        if self.objective not in (None, kind):
            raise ValidationError(
                f"method {self.name} requires --objective {self.objective.value}"
            )
        solution = self.run(instance, kind, opts)
        if solution is None:
            raise ValidationError(self.outside)
        return solution


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
    return dataclasses.replace(
        solve_greedy(instance, kind, opts), method="greedy-approximate"
    )


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
    n = instance.num_voters
    order = _check_permutation(voter_order, n, "voters")
    # checked before the duplicates go, which would fold True into 1
    for j in selected:
        if not _is_int(j) or not 0 <= j < instance.num_items:
            raise ValidationError(f"bad item index {j!r}")
    items = list(dict.fromkeys(selected))
    if not items:
        raise ValidationError("at least one selected item is required")
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
