"""Instances, objectives, and exact evaluation for multiagent knapsack problems.

An instance consists of m items with positive integer costs, n voters with
nonnegative integer utilities for each item, and a budget. A knapsack is a set
of item indices whose total cost stays within the budget. Three objectives are
supported, each built in two steps:

1. Each voter's utility for a knapsack joins its utilities for the items:
   their sum for "ib" and "fair", their maximum for "diverse" (0 for the empty
   knapsack either way). :func:`_join` is that join.
2. An aggregate over voters: the sum for "ib" and "diverse", and for "fair"
   the Nash product of (1 + each voter's utility), which is 1 for the empty
   knapsack. :func:`_score` is that aggregate.

"ib" (individually best) is modular, "diverse" monotone submodular. Fair
products are computed exactly over arbitrary-precision integers; a float log
is carried for display only. :func:`evaluate`, brute force, the greedy and
the per-voter vector table score knapsacks only through these two helpers.
Brute force scores its candidates through :func:`_gain`. The greedy scores
them for many sets at once in numpy arrays, and settles those that floats
leave near its best through :func:`_gain`. Solvers use floats only
to prune or to order, with a margin wider than their rounding error, so
every result is the one exact arithmetic gives.

The score is a sum (ib, diverse) or a product (fair) of one term per voter
row, so one more item changes only the terms of the rows that value it above
0. :func:`_gain` gives the score over just those rows, with the item joined
(``after``) and without it (``before``). Then the new score is
``score - before + after`` for ib and diverse, and ``score * after // before``
for fair, where the division is exact because ``before`` is a product of
factors of ``score``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np


class ValidationError(ValueError):
    """An instance, order, selection, or argument violates a contract."""


class GuardrailError(RuntimeError):
    """A computation would exceed a configured resource cap."""


class Objective(str, Enum):
    IB = "ib"
    DIVERSE = "diverse"
    FAIR = "fair"


def _coerce_objective(kind: Objective | str) -> Objective:
    if isinstance(kind, Objective):
        return kind
    try:
        return Objective(kind)
    except ValueError:
        raise ValidationError(f"unknown objective {kind!r}") from None


@dataclass(frozen=True)
class Instance:
    """A multiagent knapsack instance, valid by construction.

    Invariants: at least one voter and one item, a rectangular n x m utility
    matrix of nonnegative integers, integer costs >= 1, budget >= 0, and
    pairwise distinct nonempty item names. The constructor stores the sequences
    as tuples and raises :class:`ValidationError` naming every violated
    invariant (see :func:`validate_instance`), so code that takes an Instance
    never checks them again. A field or utility row that is not a sequence,
    or is a str, is refused before the invariants are checked.
    """

    item_names: tuple[str, ...]
    costs: tuple[int, ...]
    utilities: tuple[tuple[int, ...], ...]
    budget: int

    def __post_init__(self) -> None:
        problems: list[str] = []
        for name in ("item_names", "costs", "utilities"):
            value = _as_tuple(getattr(self, name), name, problems)
            object.__setattr__(self, name, value)
        rows = tuple(
            row
            if type(row) is tuple  # the common case, without a call
            else _as_tuple(row, f"utility row for voter {i}", problems)
            for i, row in enumerate(self.utilities)
        )
        object.__setattr__(self, "utilities", rows)
        if not problems:  # the invariants are checked on sequences only
            problems = validate_instance(self)
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def num_voters(self) -> int:
        return len(self.utilities)

    @property
    def num_items(self) -> int:
        return len(self.item_names)

    def total_utility(self) -> int:
        """Sum of all utility entries; the value axis bound for the DP tables."""
        return sum(sum(row) for row in self.utilities)

    def column_sum(self, j: int) -> int:
        """Total utility all voters assign to item j."""
        return sum(row[j] for row in self.utilities)


def _as_tuple(value: object, label: str, problems: list[str]) -> tuple:
    """``value`` as a tuple, or () after noting a problem when it is not a
    sequence. A str counts as one value, not as a sequence of characters."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    problems.append(f"{label} must be a sequence, not {type(value).__name__}")
    return ()


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_dtype(bound: int) -> type:
    """int64 for numbers below a ``bound`` under 2^62, else Python ints."""
    return np.int64 if bound < 2**62 else object


def validate_instance(instance: Instance) -> list[str]:
    """Check every instance invariant; return a list of violations (empty = ok).

    Each violation message names the offending item or voter index. The
    :class:`Instance` constructor raises these messages joined by "; ", so
    the list is empty for every instance that exists.
    """
    out: list[str] = []
    m = len(instance.item_names)
    n = len(instance.utilities)
    if m == 0:
        out.append("instance must have at least one item")
    if n == 0:
        out.append("instance must have at least one voter")
    if len(instance.costs) != m:
        out.append(
            f"costs has length {len(instance.costs)}, expected {m} (one per item)"
        )
    else:
        for j, c in enumerate(instance.costs):
            if not _is_int(c) or c < 1:
                out.append(f"cost must be an integer >= 1 at item {j}")
    seen: dict[str, int] = {}
    for j, name in enumerate(instance.item_names):
        if not isinstance(name, str) or not name:
            out.append(f"item name at index {j} must be a nonempty string")
        elif name in seen:
            out.append(f"duplicate item name {name!r} at indices {seen[name]} and {j}")
        else:
            seen[name] = j
    for i, row in enumerate(instance.utilities):
        if len(row) != m:
            out.append(
                f"ragged utility matrix: row for voter {i} has length {len(row)},"
                f" expected {m}"
            )
            continue
        if set(map(type, row)) <= {int} and min(row, default=0) >= 0:
            continue  # the common case, checked in C
        for j, u in enumerate(row):
            if not _is_int(u) or u < 0:
                out.append(
                    f"utility must be a nonnegative integer at voter {i}, item {j}"
                )
    if not _is_int(instance.budget) or instance.budget < 0:
        out.append("budget must be an integer >= 0")
    return out


def clean_selection(selected: Iterable[int], num_items: int) -> tuple[int, ...]:
    """Normalize a selection to a strictly increasing tuple of item indices.

    Every entry is checked to be an integer, in input order, before the
    sort, which could not order other values."""
    sel = list(selected)
    for j in sel:
        if not _is_int(j):
            raise ValidationError(f"bad item index {j!r}")
    sel.sort()
    for j in sel:
        if j < 0 or j >= num_items:
            raise ValidationError(f"bad item index {j!r}")
    for a, b in zip(sel, sel[1:]):
        if a == b:
            raise ValidationError(f"duplicate item index {a}")
    return tuple(sel)


def log_of_int(p: int) -> float:
    """Natural log of a positive integer of arbitrary size (display/ranking only)."""
    if p <= 0:
        raise ValidationError("log requires a positive integer")
    return math.log(p)


@dataclass(frozen=True)
class ObjectiveValue:
    """Exact value of an objective on a knapsack.

    For "ib" and "diverse", ``ib_or_div_value`` holds the integer objective.
    For "fair", ``fair_product`` holds the exact Nash product and ``fair_log``
    its float logarithm (display only; never used in comparisons).
    """

    kind: Objective
    ib_or_div_value: int | None = None
    fair_product: int | None = None
    fair_log: float | None = None

    @property
    def score(self) -> int:
        """The exact integer used for all comparisons."""
        if self.kind is Objective.FAIR:
            assert self.fair_product is not None
            return self.fair_product
        assert self.ib_or_div_value is not None
        return self.ib_or_div_value


def per_voter_utilities(instance: Instance, selected: Iterable[int]) -> tuple[int, ...]:
    """Each voter's total utility over the selected items, summed whatever
    the objective. A :class:`Solution` reports each voter's best item instead
    for the diverse objective. A bad selection is refused as
    :func:`clean_selection` refuses it."""
    sel = clean_selection(selected, instance.num_items)
    return _voter_utilities(instance, Objective.IB, sel)


def total_cost(instance: Instance, selected: Iterable[int]) -> int:
    """The summed cost of the selected items; a bad selection is refused as
    :func:`clean_selection` refuses it."""
    return sum(instance.costs[j] for j in clean_selection(selected, instance.num_items))


def is_feasible(instance: Instance, selected: Iterable[int]) -> bool:
    """True iff the selection is a well-formed index set within budget."""
    return total_cost(instance, selected) <= instance.budget


def _join(kind: Objective) -> Callable[[int, int], int]:
    """How a voter's utility for a knapsack takes in one more item's utility."""
    return max if kind is Objective.DIVERSE else operator.add


def _score(kind: Objective, totals: Iterable[int], mults: Iterable[int]) -> int:
    """The objective over voters, from each distinct voter row's utility.

    ``totals[r]`` is the utility of a row that ``mults[r]`` voters share. The
    score is the sum of mult * total, or for fair the product of
    (total + 1) ** mult.
    """
    if kind is Objective.FAIR:
        return math.prod(
            t + 1 if mu == 1 else (t + 1) ** mu for t, mu in zip(totals, mults)
        )
    return sum(mu * t for t, mu in zip(totals, mults))


def _gain(
    kind: Objective,
) -> Callable[[Sequence[int], Iterable[tuple[int, int, int]]], tuple[int, int]]:
    """The score over only the rows one more item touches: (after, before).

    The returned function takes ``totals``, each distinct voter row's utility
    now, and ``column``, the (row, utility, mult) of each row that values the
    item above 0. ``after`` is :func:`_score` over those rows with the item
    joined, ``before`` without it; the module docstring says how the pair
    updates the whole score. Written out rather than through :func:`_score`,
    which is several times slower on the few rows an item touches.
    """
    if kind is Objective.FAIR:

        def gain(totals, column):
            after = before = 1
            for r, u, mu in column:
                t = totals[r] + 1
                if mu == 1:
                    after *= t + u
                    before *= t
                else:
                    after *= (t + u) ** mu
                    before *= t**mu
            return after, before

        return gain
    join = _join(kind)

    def gain(totals, column):
        after = before = 0
        for r, u, mu in column:
            t = totals[r]
            after += mu * join(t, u)
            before += mu * t
        return after, before

    return gain


def _voter_utilities(
    instance: Instance, kind: Objective, selected: Sequence[int]
) -> tuple[int, ...]:
    """Each voter's utility for the selection, folded with :func:`_join`."""
    join = _join(kind)
    return tuple(
        functools.reduce(join, (row[j] for j in selected), 0)
        for row in instance.utilities
    )


def evaluate(
    instance: Instance, kind: Objective | str, selected: Iterable[int]
) -> ObjectiveValue:
    """Evaluate one objective on a selection (feasibility is not checked here).

    Empty-selection conventions: ib and diverse evaluate to 0, fair to 1.
    """
    kind = _coerce_objective(kind)
    sel = clean_selection(selected, instance.num_items)
    return _value_of(kind, _voter_utilities(instance, kind, sel))


def _value_of(kind: Objective, utilities: Iterable[int]) -> ObjectiveValue:
    """The objective over each voter's utility, as :func:`evaluate` gives it."""
    score = _score(kind, utilities, itertools.repeat(1))
    if kind is Objective.FAIR:
        return ObjectiveValue(kind, fair_product=score, fair_log=log_of_int(score))
    return ObjectiveValue(kind, ib_or_div_value=score)


@dataclass(frozen=True)
class Solution:
    """A solver result: the chosen knapsack plus consistent bookkeeping.

    ``per_voter_utility`` holds each voter's utility under the objective: the
    sum over the knapsack for ib and fair, the maximum for diverse.
    """

    knapsack: tuple[int, ...]
    value: ObjectiveValue
    total_cost: int
    per_voter_utility: tuple[int, ...]
    method: str


def make_solution(
    instance: Instance,
    kind: Objective | str,
    selected: Iterable[int],
    method: str,
) -> Solution:
    """Build a Solution by re-evaluating everything from the selection."""
    kind = _coerce_objective(kind)
    sel = clean_selection(selected, instance.num_items)
    utilities = _voter_utilities(instance, kind, sel)
    return Solution(
        knapsack=sel,
        value=_value_of(kind, utilities),
        total_cost=sum(instance.costs[j] for j in sel),
        per_voter_utility=utilities,
        method=method,
    )
