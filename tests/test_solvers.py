import itertools
import math
import random
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from knapvote import (
    GuardrailError,
    Instance,
    Objective,
    SetSystem,
    SolveOptions,
    SourceGraph,
    ValidationError,
    best_connected_assignment,
    brute_force,
    evaluate,
    from_dominating_set,
    from_exact_partition,
    from_knapsack,
    from_partition,
    from_x3c,
    is_connected_assignment,
    ordered_diverse_table,
    recognize_single_crossing,
    recognize_single_peaked,
    solve_auto,
    solve_diverse_fpt,
    solve_diverse_sc,
    solve_diverse_sp_dp,
    solve_fair_xp_dp,
    solve_greedy,
    solve_ib_dp,
    solve_ordered_diverse_dp,
)
from knapvote import solvers
from knapvote.solvers import _axis, _denser_fair, _relax

from conftest import (
    grouped_instance,
    group_counts,
    make_instance,
    random_instance,
    random_single_crossing,
    random_single_peaked,
)
from helpers import (
    best_ordered_subset,
    best_subset,
    connected_optimum,
    greedy_by_definition,
    ordered_table_by_enumeration,
    relax_by_definition,
    subset_value,
)

KINDS = (
    (Objective.IB, "ib"),
    (Objective.DIVERSE, "diverse"),
    (Objective.FAIR, "fair"),
)


# brute force


def test_brute_empty_budget_conventions():
    inst = make_instance([[4, 2]], budget=0)
    assert brute_force(inst, Objective.IB).value.score == 0
    assert brute_force(inst, Objective.DIVERSE).value.score == 0
    sol = brute_force(inst, Objective.FAIR)
    assert sol.value.score == 1 and sol.knapsack == ()


def test_brute_fair_pair():
    inst = make_instance([[2, 0, 1], [0, 2, 1]], budget=2)
    sol = brute_force(inst, Objective.FAIR)
    assert sol.knapsack == (0, 1)
    assert sol.value.fair_product == 9


def test_brute_grouped_fair_counts():
    sol = brute_force(grouped_instance(), Objective.FAIR)
    assert group_counts(grouped_instance(), sol.knapsack) == (3, 2, 1, 0, 0, 0)
    assert sol.value.fair_product == 4**300 * 3**200 * 2**100


def test_brute_tie_breaks_cost_then_lex():
    # Items 1 and 2 tie item 0's value; 1 is cheaper; 2 ties 0's cost.
    inst = make_instance([[3, 3, 3]], costs=[2, 1, 2], budget=2)
    sol = brute_force(inst, Objective.IB)
    assert sol.knapsack == (1,)
    inst2 = make_instance([[3, 0, 3]], costs=[1, 1, 1], budget=1)
    assert brute_force(inst2, Objective.IB).knapsack == (0,)


def test_brute_guardrail():
    inst = make_instance([[0] * 26], budget=0)
    with pytest.raises(GuardrailError):
        brute_force(inst, Objective.IB)
    assert brute_force(inst, Objective.IB, SolveOptions(max_bruteforce_items=26)).knapsack == ()


def test_brute_force_goes_deeper_than_the_recursion_limit():
    # all 1,200 unit-cost items fit, so the search's first path chooses each
    # of them, one node deeper per item
    m = 1200
    assert m > sys.getrecursionlimit()
    inst = make_instance([[1] * m], costs=[1] * m, budget=m)
    sol = brute_force(inst, Objective.IB, SolveOptions(max_bruteforce_items=m))
    assert sol.knapsack == tuple(range(m))


def test_brute_matches_definition_oracle(rng):
    for _ in range(60):
        inst = random_instance(rng, max_items=7)
        for kind, label in KINDS:
            sol = brute_force(inst, kind)
            val, cost, subset = best_subset(inst, label)
            assert sol.value.score == val
            assert sol.total_cost == cost
            assert sol.knapsack == subset


def test_brute_force_caps_each_diverse_row():
    # the fractional bound alone counts a row's rise once per item that
    # raises it, and scores 7,275 candidates on this instance
    rng = random.Random("brute-force caps")
    m, n = 18, 14
    rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
    costs = [rng.randint(3, 5) for _ in range(m)]
    inst = make_instance(rows, costs=costs, budget=sum(costs) // 2)
    calls = 0
    make_gain = solvers._gain

    def counting(kind):
        gain = make_gain(kind)

        def counted(totals, column):
            nonlocal calls
            calls += 1
            return gain(totals, column)

        return counted

    with mock.patch.object(solvers, "_gain", counting):
        sol = brute_force(inst, Objective.DIVERSE)
    assert calls <= 7275 // 3
    assert (sol.value.score, sol.total_cost, sol.knapsack) == (122, 28, (3, 4, 10, 11, 14, 17))


# value-indexed total-utility DP


def test_ib_dp_zero_budget():
    inst = make_instance([[5, 1]], budget=0)
    sol = solve_ib_dp(inst)
    assert sol.knapsack == () and sol.value.score == 0


def test_ib_dp_classic_knapsack():
    inst = make_instance([[6, 10, 12]], costs=[1, 2, 3], budget=5)
    sol = solve_ib_dp(inst)
    assert sol.value.score == 22
    assert sol.knapsack == (1, 2)


def test_ib_dp_grouped_instance():
    inst = grouped_instance()
    sol = solve_ib_dp(inst)
    assert sol.value.score == 1800
    assert sol.knapsack == (0, 1, 2, 3, 4, 5)


def test_ib_dp_matches_brute(rng):
    for _ in range(80):
        inst = random_instance(rng)
        assert solve_ib_dp(inst).value.score == brute_force(inst, Objective.IB).value.score


def test_ib_dp_guardrail():
    inst = make_instance([[10**8, 10**8]], budget=1)
    with pytest.raises(GuardrailError):
        solve_ib_dp(inst)


# single-peaked DP


def test_sp_dp_single_item():
    inst = make_instance([[5]], budget=1)
    assert solve_diverse_sp_dp(inst, (0,)).value.score == 5


def test_sp_dp_singleton_choice():
    inst = make_instance([[2, 1, 0], [1, 1, 2]], budget=1)
    sol = solve_diverse_sp_dp(inst, (0, 1, 2))
    assert sol.value.score == 3
    assert sol.knapsack == (0,)


def test_sp_dp_rejects_wrong_order():
    inst = make_instance([[3, 1, 2]], budget=1)
    with pytest.raises(ValidationError, match="single-peaked"):
        solve_diverse_sp_dp(inst, (0, 1, 2))


def test_sp_dp_rejects_non_integer_order():
    inst = make_instance([[1, 3, 2]], budget=1)
    with pytest.raises(ValidationError, match="permutation"):
        solve_diverse_sp_dp(inst, (0.0, 1, 2))


def test_sp_dp_guardrail_counts_work():
    inst = make_instance([[1, 2, 4], [2, 3, 1]], costs=[1, 2, 2], budget=3)
    m, u = 3, inst.total_utility()
    # over the m * (U + 1) table cells, under the m(m+1)/2 * (U + 1) work
    opts = SolveOptions(max_dp_cells=m * (u + 1) + 1)
    with pytest.raises(GuardrailError, match="cells of work"):
        solve_diverse_sp_dp(inst, (0, 1, 2), opts)
    sol = solve_auto(inst, Objective.DIVERSE, opts)
    assert sol.method != "sp-dp"
    ref = brute_force(inst, Objective.DIVERSE)
    assert (sol.value.score, sol.total_cost) == (ref.value.score, ref.total_cost)


def test_sp_dp_matches_brute_on_peaked_instances(rng):
    for _ in range(80):
        inst, order = random_single_peaked(rng)
        sol = solve_diverse_sp_dp(inst, order)
        ref = brute_force(inst, Objective.DIVERSE)
        assert sol.value.score == ref.value.score
        assert sol.total_cost <= inst.budget


# ordered (connected-assignment) DP


def test_ordered_table_single_voter_base():
    inst = make_instance([[4, 7]], costs=[1, 3], budget=3)
    table = ordered_diverse_table(inst, (0,))
    # cheapest cost to reach each utility level with one voter
    assert table[0][0] == 1
    assert table[0][4] == 1
    assert table[0][5] == 3
    assert table[0][7] == 3


def test_ordered_dp_two_blocks():
    inst = make_instance([[3, 0], [0, 3]], budget=2)
    sol = solve_ordered_diverse_dp(inst, (0, 1))
    assert sol.value.score == 6
    assert sol.knapsack == (0, 1)
    inst1 = make_instance([[3, 0], [0, 3]], budget=1)
    sol1 = solve_ordered_diverse_dp(inst1, (0, 1))
    assert sol1.value.score == 3


def test_ordered_dp_tie_takes_the_lowest_source_then_the_lowest_item():
    # (0, 1) and (1, 2) both reach value 8 at cost 4 along this order;
    # preferring the lowest item over the lowest source would return (0, 1)
    inst = make_instance([[2, 1, 2], [1, 3, 3], [1, 3, 2]], costs=[2, 2, 2], budget=4)
    sol = solve_ordered_diverse_dp(inst, (2, 1, 0))
    assert sol.knapsack == (1, 2)
    assert (sol.value.score, sol.total_cost) == (8, 4)


def test_ordered_dp_rejects_non_integer_order():
    inst = make_instance([[3, 0], [0, 3]], budget=2)
    with pytest.raises(ValidationError, match="permutation"):
        solve_ordered_diverse_dp(inst, (0.0, 1))


def test_ordered_dp_answer_never_exceeds_true_diverse(rng):
    for _ in range(60):
        inst = random_instance(rng, max_items=6)
        order = list(range(inst.num_voters))
        rng.shuffle(order)
        sol = solve_ordered_diverse_dp(inst, order)
        assert sol.value.score <= brute_force(inst, Objective.DIVERSE).value.score
        assert sol.total_cost <= inst.budget


def test_table_sandwich_against_enumeration(rng):
    checked = 0
    while checked < 40:
        inst = random_instance(rng, max_items=6, max_budget=10)
        if inst.budget < min(inst.costs):
            continue
        checked += 1
        order = list(range(inst.num_voters))
        rng.shuffle(order)
        last = ordered_diverse_table(inst, order)[-1]
        div_val, div_cost, _ = best_subset(inst, "diverse")
        assert int(last[div_val]) >= div_cost
        ordered = best_ordered_subset(inst, order)
        assert ordered is not None
        ord_val, ord_cost, _ = ordered
        assert int(last[ord_val]) <= ord_cost


def test_ordering_exhaustion_reaches_diverse_optimum(rng):
    for _ in range(25):
        inst = random_instance(rng, max_voters=4, max_items=5)
        target = brute_force(inst, Objective.DIVERSE).value.score
        afford = min(inst.budget, sum(inst.costs))  # table stores sum+1 as "unreachable"
        best = 0
        for perm in itertools.permutations(range(inst.num_voters)):
            last = ordered_diverse_table(inst, perm)[-1]
            xs = [x for x in range(len(last)) if last[x] <= afford]
            if xs:
                best = max(best, max(xs))
        assert best == target


# single-crossing route


def test_sc_single_voter():
    inst = make_instance([[2, 9, 4]], budget=1)
    sol = solve_diverse_sc(inst)
    assert sol.value.score == 9
    assert sol.method == "sc-dp"


def test_sc_rejects_non_crossing_profile():
    inst = make_instance(
        [[0, 1, 2], [2, 2, 1], [2, 1, 2], [0, 1, 0], [1, 0, 1], [0, 2, 1]], budget=1
    )
    from knapvote import recognize_single_crossing

    if recognize_single_crossing(inst) is None:
        with pytest.raises(ValidationError, match="single-crossing"):
            solve_diverse_sc(inst)


def test_sc_matches_brute_on_knapsack_reductions(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        values = [rng.randint(1, 3) for _ in range(n)]
        weights = [rng.randint(1, 3) for _ in range(n)]
        red = from_knapsack(values, weights, rng.randint(0, 9), rng.randint(0, 9))
        sol = solve_diverse_sc(red.instance)
        assert sol.value.score == brute_force(red.instance, Objective.DIVERSE).value.score


def test_sc_matches_brute_on_crossing_instances(rng):
    for _ in range(80):
        inst = random_single_crossing(rng)
        sol = solve_diverse_sc(inst)
        ref = brute_force(inst, Objective.DIVERSE)
        assert sol.value.score == ref.value.score
        assert sol.total_cost <= inst.budget


# voter-count parameterized search


def test_fpt_single_voter_matches_ordered():
    inst = make_instance([[2, 9, 4]], budget=1)
    assert solve_diverse_fpt(inst).value.score == 9


def test_fpt_triangle_domination():
    graph = SourceGraph(3, ((0, 1), (1, 2), (0, 2)))
    red = from_dominating_set(graph, 1)
    sol = solve_diverse_fpt(red.instance)
    assert sol.value.score == 3
    assert sol.value.score >= red.threshold


def test_fpt_matches_brute(rng):
    for _ in range(40):
        inst = random_instance(rng, max_items=8)
        sol = solve_diverse_fpt(inst)
        ref = brute_force(inst, Objective.DIVERSE)
        assert sol.value.score == ref.value.score
        assert sol.total_cost == ref.total_cost


def test_fpt_tie_breaks_lexicographically():
    inst = make_instance([[3, 3]], budget=1)
    assert solve_diverse_fpt(inst).knapsack == (0,)


@pytest.mark.parametrize(
    "utilities, costs, budget, knapsack",
    (
        ([[0, 1, 3], [3, 3, 2], [1, 3, 3]], [1, 1, 3], 5, (1, 2)),
        ([[1, 0, 0], [0, 1, 1], [1, 0, 1]], [4, 2, 2], 14, (0, 2)),
    ),
    ids=("cost-axis", "value-axis"),
)
def test_fpt_tie_takes_the_lowest_source_then_the_lowest_item(
    utilities, costs, budget, knapsack
):
    # two knapsacks tie in value and cost; preferring the lowest item over
    # the lowest source set would return the other one
    inst = make_instance(utilities, costs=costs, budget=budget)
    assert solve_diverse_fpt(inst).knapsack == knapsack


def test_fpt_guardrail():
    inst = make_instance([[1]] * 9, budget=1)
    with pytest.raises(GuardrailError):
        solve_diverse_fpt(inst)
    assert solve_diverse_fpt(inst, SolveOptions(max_fpt_voters=9)).value.score == 9


def test_fpt_work_guardrail_sends_auto_to_brute():
    inst = make_instance([[0, 1, 2], [2, 2, 1], [2, 1, 2]], budget=2)
    assert recognize_single_peaked(inst) is None
    assert recognize_single_crossing(inst) is None
    opts = SolveOptions(max_dp_cells=50)
    with pytest.raises(GuardrailError, match="cells of work"):
        solve_diverse_fpt(inst, opts)
    sol = solve_auto(inst, Objective.DIVERSE, opts)
    assert sol.method == "bruteforce"
    assert sol.value.score == brute_force(inst, Objective.DIVERSE).value.score


@st.composite
def fpt_instances(draw):
    m = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 6), min_size=m, max_size=m)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    # voters drawn from a small pool of rows, so rows repeat
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    costs = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
    total = sum(costs)
    budget = draw(
        st.one_of(st.just(0), st.integers(0, total), st.integers(total, total + 5))
    )
    return make_instance(rows, costs=costs, budget=budget)


@settings(max_examples=300, deadline=None)
@given(fpt_instances())
@example(make_instance([[3, 1], [3, 1], [0, 4]], costs=[2, 1], budget=0))
@example(make_instance([[0, 0, 0], [0, 0, 0]], costs=[1, 2, 3], budget=4))
@example(make_instance([[1, 5], [4, 2], [1, 5]], costs=[2, 3], budget=9))
@example(make_instance([[9, 1, 2], [1, 9, 2]], costs=[7, 1, 1], budget=2))
@example(make_instance([[1, 0, 2], [0, 1, 0]], costs=[5, 6, 7], budget=18))
@example(make_instance([[10**20, 1], [1, 10**20]], costs=[1, 1], budget=1))
@example(make_instance([[1, 2], [2, 1]], costs=[10**20, 10**20 + 1], budget=10**20 + 1))
def test_fpt_agrees_with_brute_force(inst):
    sol = solve_diverse_fpt(inst)
    ref = brute_force(inst, Objective.DIVERSE)
    assert (sol.value.score, sol.total_cost) == (ref.value.score, ref.total_cost)


# agreement of every exact route with brute force, on random instances and on
# the edge cases: budget 0, a budget past the Σcosts + 1 sentinel, all-zero
# utilities, duplicate voters and costs past 2^62 (Python-int tables)

BIG = 2**62

EDGE_CASES = (
    make_instance([[3, 1], [0, 4]], costs=[2, 1], budget=0),
    make_instance([[1, 1], [2, 2]], costs=[1, 1], budget=3),
    make_instance([[2, 1], [1, 2]], costs=[2, 3], budget=10),
    make_instance([[0, 0, 0], [0, 0, 0]], costs=[1, 2, 3], budget=4),
    make_instance([[3, 1], [3, 1], [0, 4]], costs=[2, 1], budget=2),
    make_instance([[2, 0], [2, 0], [0, 3]], costs=[1, 1], budget=1),
    make_instance([[1, 2], [2, 1]], costs=[BIG, BIG + 1], budget=BIG + 1),
    make_instance([[5, 1], [1, 5]], costs=[BIG, BIG], budget=3 * BIG),
)


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test

    return decorate


def _assert_agrees(sol, inst, kind):
    ref = brute_force(inst, kind)
    assert (sol.value.score, sol.total_cost) == (ref.value.score, ref.total_cost)


@settings(max_examples=150, deadline=None)
@given(st.one_of(fpt_instances(), st.randoms().map(random_instance)))
@_with_examples(EDGE_CASES)
def test_ib_dp_agrees_with_brute_force(inst):
    _assert_agrees(solve_ib_dp(inst), inst, Objective.IB)


@settings(max_examples=150, deadline=None)
@given(st.randoms().map(random_instance))
@_with_examples(EDGE_CASES)
def test_xp_dp_agrees_with_brute_force(inst):
    _assert_agrees(solve_fair_xp_dp(inst), inst, Objective.FAIR)


@settings(max_examples=150, deadline=None)
@given(st.randoms().map(random_single_peaked))
@_with_examples((inst, tuple(range(inst.num_items))) for inst in EDGE_CASES)
def test_sp_dp_agrees_with_brute_force(case):
    inst, order = case
    _assert_agrees(solve_diverse_sp_dp(inst, order), inst, Objective.DIVERSE)


@settings(max_examples=150, deadline=None)
@given(st.randoms().map(random_single_crossing))
@_with_examples(EDGE_CASES)
def test_sc_agrees_with_brute_force(inst):
    _assert_agrees(solve_diverse_sc(inst), inst, Objective.DIVERSE)


# the diverse per-row caps: rows of several voters, items valued by no one,
# budget 0 and utilities past 2^63
CAP_CASES = (
    make_instance([[2, 4], [2, 4]], costs=[1, 2], budget=3),
    make_instance(
        [[3, 1, 0, 2], [3, 1, 0, 2], [0, 2, 2, 1], [3, 1, 0, 2], [0, 2, 2, 1]],
        costs=[2, 1, 1, 2], budget=3,
    ),
    make_instance(
        [[0, 4, 0, 1, 3], [0, 2, 3, 0, 3], [0, 4, 0, 1, 3]], costs=[1, 2, 1, 1, 2], budget=3
    ),
    make_instance([[5, 1, 2], [1, 5, 2], [5, 1, 2]], costs=[1, 1, 1], budget=0),
    make_instance(
        [[2**63, 1, 2**63 + 5, 0], [0, 2**64, 2**63, 0], [2**63, 1, 2**63 + 5, 0]],
        costs=[1, 1, 1, 1], budget=2,
    ),
    make_instance(
        [[2**63, 2**63 + 1, 0], [2**63 + 1, 2**63, 0]] * 2, costs=[BIG, BIG, 1], budget=BIG
    ),
)


@st.composite
def search_instances(draw):
    m = draw(st.integers(1, 8))
    top = draw(st.sampled_from((1, 3, 9, 2**70)))
    row = st.lists(st.integers(0, top), min_size=m, max_size=m)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    # voters drawn from a small pool of rows, so rows repeat
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    most = draw(st.sampled_from((1, 4, 2**63)))
    costs = draw(st.lists(st.integers(1, most), min_size=m, max_size=m))
    budget = draw(st.integers(0, sum(costs) + 1))
    return make_instance(rows, costs=costs, budget=budget)


# brute force prunes by a bound and ranks ties by cost and then by index, so
# it is checked against plain enumeration, the reference of the tests above
@settings(max_examples=300, deadline=None)
@given(search_instances())
@_with_examples(EDGE_CASES)
@example(from_partition([2, 4, 4, 6, 8, 10, 14]).instance)
@example(from_partition([2, 2, 6, 6, 10, 12]).instance)
# {0, 3} and {1, 2} tie on value and cost, and the search meets 3 before 0
@example(make_instance([[1, 2, 3, 4]], costs=[1, 2, 2, 3], budget=4))
@_with_examples(CAP_CASES)
def test_brute_force_is_the_definition_oracle(inst):
    for kind, label in KINDS:
        sol = brute_force(inst, kind)
        assert (sol.value.score, sol.total_cost, sol.knapsack) == best_subset(inst, label)


# per-voter utility-vector DP


def test_xp_zero_budget():
    inst = make_instance([[5, 1]], budget=0)
    sol = solve_fair_xp_dp(inst)
    assert sol.knapsack == () and sol.value.fair_product == 1


def test_xp_fair_pair():
    inst = make_instance([[2, 0, 1], [0, 2, 1]], budget=2)
    sol = solve_fair_xp_dp(inst)
    assert sol.knapsack == (0, 1) and sol.value.fair_product == 9


def test_xp_exact_partition_instance():
    red = from_exact_partition([2, 2], 1)
    sol = solve_fair_xp_dp(red.instance)
    assert sol.value.fair_product == 49
    assert sol.value.fair_product >= red.threshold


def test_xp_all_zero_utilities():
    inst = make_instance([[0, 0], [0, 0]], budget=2)
    sol = solve_fair_xp_dp(inst)
    assert sol.value.fair_product == 1
    assert sol.knapsack == ()


def test_xp_matches_brute(rng):
    for _ in range(80):
        inst = random_instance(rng)
        sol = solve_fair_xp_dp(inst)
        ref = brute_force(inst, Objective.FAIR)
        assert sol.value.fair_product == ref.value.fair_product
        assert sol.total_cost == ref.total_cost


def test_xp_guardrail():
    inst = make_instance([[5, 5], [5, 5]], budget=1)
    with pytest.raises(GuardrailError):
        solve_fair_xp_dp(inst, SolveOptions(max_dp_cells=10))


def test_xp_guardrail_stops_multiplying_at_the_cap():
    # m * prod(1 + row sum) = 1001^1500 has about 4,500 digits
    inst = make_instance([[1000]] * 1500, budget=1)
    with pytest.raises(GuardrailError, match="over the cap of 100000000 cells$"):
        solve_fair_xp_dp(inst)


# greedy with partial enumeration


def test_greedy_modular_unit_costs_is_optimal(rng):
    for _ in range(30):
        inst = make_instance(
            [[rng.randint(0, 5) for _ in range(6)] for _ in range(3)],
            budget=rng.randint(0, 6),
        )
        sol = solve_greedy(inst, Objective.IB)
        assert sol.value.score == brute_force(inst, Objective.IB).value.score


def test_greedy_fair_pair_bound():
    inst = make_instance([[2, 0, 1], [0, 2, 1]], budget=2)
    sol = solve_greedy(inst, Objective.FAIR)
    assert math.log(sol.value.fair_product) >= (1 - 1 / math.e) * math.log(9) - 1e-9


def test_greedy_bound_on_random_instances(rng):
    ratio = 1 - 1 / math.e
    for _ in range(60):
        inst = random_instance(rng)
        opt_div = brute_force(inst, Objective.DIVERSE).value.score
        got_div = solve_greedy(inst, Objective.DIVERSE).value.score
        assert got_div >= ratio * opt_div - 1e-9
        opt_fair = brute_force(inst, Objective.FAIR).value.fair_product
        got_fair = solve_greedy(inst, Objective.FAIR).value.fair_product
        assert math.log(got_fair) >= ratio * math.log(opt_fair) - 1e-9
        assert solve_greedy(inst, Objective.IB).total_cost <= inst.budget


# Greedy picks by float densities and lets the exact tests decide among
# the items within a margin of the best. The first case ties items 0 and 2
# exactly (gain 1 at cost 2, gain 4 at cost 8), but the float of the later
# one is an ulp larger. In the second, fair, items 0 and 2 tie with unequal
# costs: a factor of 2 at cost 1 and of 4 at cost 2. The others hold
# utilities past int64 and past float range (Python ints), where gains of
# 10**400 and 10**400 + 1, or fair gains of a utility of 1 or 2 next to a
# total of 10**400, round to equal floats.
HUGE = 10**400

# Skewed columns: one item valued by every voter and the others by one or
# two, so that greedy pads all but one item's column; with duplicate voter
# rows (mults above 1), and in the last case utilities past int64.
SKEWED_CASES = (
    make_instance(
        [
            [4, 2, 0, 0, 0, 3, 0],
            [1, 0, 5, 0, 0, 0, 0],
            [4, 2, 0, 0, 0, 3, 0],
            [2, 0, 0, 6, 1, 0, 0],
            [3, 0, 1, 0, 0, 0, 2],
        ],
        costs=[5, 1, 2, 3, 1, 2, 1],
        budget=7,
    ),
    make_instance(
        [[0, 1, 9, 0, 0], [2, 0, 9, 0, 0], [0, 0, 7, 3, 0], [0, 0, 7, 3, 0], [0, 0, 7, 3, 0],
         [0, 0, 1, 0, 4]],
        costs=[1, 1, 4, 2, 2],
        budget=6,
    ),
    make_instance(
        [[HUGE, 0, 0, 1], [0, 2, 0, 1], [0, 2, 0, 1], [0, 0, HUGE + 1, 2]],
        costs=[3, 1, 2, 1],
        budget=4,
    ),
)

GREEDY_CASES = EDGE_CASES + SKEWED_CASES + (
    make_instance([[1, 3, 4, 1, 1], [0, 2, 0, 1, 1]], costs=[2, 3, 8, 3, 6], budget=20),
    make_instance(
        [[1, 0, 3, 0, 1], [0, 1, 0, 3, 0], [0, 1, 0, 1, 0]], costs=[1, 3, 2, 2, 1], budget=7
    ),
    make_instance(
        [[15, 0, 0, 0], [0, HUGE, HUGE + 1, 0], [0, 0, 0, 10]], costs=[2, 1, 1, 1], budget=3
    ),
    make_instance(
        [[10**20, 1, 10**20 + 1, 0], [0, 10**20, 1, 10**20]], costs=[1, 1, 2, 1], budget=3
    ),
    make_instance([[HUGE, HUGE + 1, 1, 0], [1, 0, HUGE, HUGE]], costs=[2, 2, 1, 3], budget=4),
    make_instance([[HUGE, 1, 2, 0, 1], [0, 3, 3, HUGE, 0], [HUGE, 0, 0, 0, 2]], budget=3),
    # each item is valued by its own voter alone and multiplies the product
    # by 1 + u = 2, 4 or 8 at cost 1, 2 or 3: every fair density is exactly
    # 2, so the exact log test decides every step across unequal costs
    make_instance(
        [[u if j == v else 0 for j, u in enumerate([1, 3, 7] * 2)] for v in range(6)],
        costs=[1, 2, 3] * 2,
        budget=6,
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(fpt_instances(), st.randoms().map(random_instance)))
@_with_examples(GREEDY_CASES)
def test_greedy_counts_duplicate_voters(inst):
    # greedy scores each distinct voter row once, weighted by its count;
    # doubling every voter doubles ib and diverse and squares fair, which
    # leaves every density comparison, and so the knapsack, as it was
    doubled = make_instance(
        [row for row in inst.utilities for _ in (0, 1)], costs=inst.costs, budget=inst.budget
    )
    for kind, label in KINDS:
        sol = solve_greedy(inst, kind)
        assert sol.knapsack == greedy_by_definition(inst, label, 3)
        assert solve_greedy(doubled, kind).knapsack == sol.knapsack


@settings(max_examples=150, deadline=None)
@given(st.one_of(fpt_instances(), st.randoms().map(random_instance)))
@_with_examples(GREEDY_CASES)
def test_greedy_matches_its_definition_at_every_seed_size(inst):
    # chains are longest from seeds of size 1, and there most of them reach a
    # set another chain reached, where greedy merges them
    for size in (1, 2, 3):
        opts = SolveOptions(greedy_seed_size=size)
        for kind, label in KINDS:
            expected = greedy_by_definition(inst, label, size)
            assert solve_greedy(inst, kind, opts).knapsack == expected


def test_greedy_matches_its_definition_over_several_blocks_of_seeds():
    # the chains advance a block of seeds at a time, 2^15 // max(items,
    # distinct rows) chains a block; these 1,600 or so pairs of 60 items,
    # valued by 4 voters, fill three
    rng = random.Random(3)
    rows = [[rng.randint(0, 9) for _ in range(60)] for _ in range(4)]
    costs = [rng.randint(1, 6) for _ in range(60)]
    inst = make_instance(rows, costs=costs, budget=10)
    items = sum(any(row[j] for row in rows) for j in range(60))
    pairs = sum(a + b <= inst.budget for a, b in itertools.combinations(costs, 2))
    assert pairs > 2 * (2**15 // items)  # at least three blocks
    opts = SolveOptions(greedy_seed_size=2)
    for kind, label in KINDS:
        assert solve_greedy(inst, kind, opts).knapsack == greedy_by_definition(inst, label, 2)


@pytest.mark.parametrize(
    "voters, items, density", ((40, 60, 1.0), (2000, 20, 0.15)), ids=("dense", "many voters")
)
def test_greedy_step_arrays_are_items_by_chains(voters, items, density):
    # a block holds 2^15 // max(items, distinct rows) chains, and a step sums
    # each item's terms a group of slots at a time into one items x chains
    # array, so the step's arrays, the chains' totals and the exact tests'
    # lists of tied totals peak at some 8 arrays of 2^15 entries. One items x
    # span x chains array (span 40 when dense) would be 40, and 2^15 // items
    # chains of 2,000 distinct rows' totals over 20
    rng = random.Random(7)
    rows = [
        [rng.randint(1, 9) if rng.random() < density else 0 for _ in range(items)]
        for _ in range(voters)
    ]
    costs = [rng.randint(1, 9) for _ in range(items)]
    inst = make_instance(rows, costs=costs, budget=sum(costs) // 10)
    opts = SolveOptions(greedy_seed_size=2)  # 1,770 or 190 pairs
    tracemalloc.start()
    try:
        sol = solve_greedy(inst, Objective.DIVERSE, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * 2**15
    assert sol.total_cost <= inst.budget


def test_fair_greedy_time_does_not_grow_with_the_utilities():
    # utilities near 10**6: the time may not depend on their size, as it
    # would with any table indexed by utility totals
    rng = random.Random(1)
    rows = [[rng.randint(10**6 - 100, 10**6) for _ in range(20)] for _ in range(5)]
    costs = [rng.randint(1, 20) for _ in range(20)]
    inst = make_instance(rows, costs=costs, budget=sum(costs) // 3)
    start = time.perf_counter()
    solve_greedy(inst, Objective.FAIR)
    assert time.perf_counter() - start < 2
    opts = SolveOptions(greedy_seed_size=1)
    assert solve_greedy(inst, Objective.FAIR, opts).knapsack == greedy_by_definition(
        inst, "fair", 1
    )


def test_fair_greedy_time_does_not_grow_with_the_costs():
    # costs of 300-600 make the exact density test raise products to powers
    # in the hundreds, over 10 s on this instance with that test alone; the
    # knapsack is the one that test picks
    rng = random.Random(0)
    costs = [rng.randint(300, 600) for _ in range(20)]
    rows = [[rng.randint(0, 9) for _ in range(20)] for _ in range(5)]
    inst = make_instance(rows, costs=costs, budget=sum(costs) // 3)
    start = time.perf_counter()
    sol = solve_greedy(inst, Objective.FAIR)
    assert time.perf_counter() - start < 2
    assert sol.knapsack == (3, 6, 10, 14, 15, 16, 19)


def test_fair_greedy_exact_tie_at_huge_unequal_costs_finishes():
    # items 3 and 4 tie exactly: a factor of 4 at cost 2 * 2^62 against 2 at
    # cost 2^62, so the exact density test meets exponents near 2^62; divided
    # by their gcd they are 2 and 1
    inst = make_instance(
        [[1, 1, 0, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 0]],
        costs=[19 * 2**62, 3 * 2**62, 2**62, 2 * 2**62, 2**62],
        budget=39525165573275800143,
    )
    start = time.perf_counter()
    sol = solve_greedy(inst, Objective.FAIR, SolveOptions(greedy_seed_size=1))
    assert time.perf_counter() - start < 2
    assert sol.knapsack == brute_force(inst, Objective.FAIR).knapsack == (1, 3, 4)


def test_fair_greedy_exact_tie_at_coprime_huge_costs_finishes():
    # after the seed c, items a and b each double one voter's total: the
    # densities 2^(1 / 2^62) and 2^(1 / (2^62 + 1)) are within the float
    # margin, and the costs are coprime
    inst = Instance(
        ("a", "b", "c"),
        (2**62, 2**62 + 1, 1),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        2**62 + 2,
    )
    start = time.perf_counter()
    sol = solve_greedy(inst, Objective.FAIR, SolveOptions(greedy_seed_size=1))
    assert time.perf_counter() - start < 2
    assert sol.knapsack == brute_force(inst, Objective.FAIR).knapsack == (0, 2)



def _behind_fillers(front, late, budget):
    """190 items: the key items of ``front`` first and of ``late`` last, each
    a (cost, utilities over the key voters) pair, and between them fillers,
    each valued 1 by a voter of its own and costing the whole budget, so
    that it only ever competes alone. The fillers' nonzeros fill the first
    block of seeds of size 1, so the late items seed a later block."""
    m = 190
    keys = len(front[0][1])
    fill = m - len(front) - len(late)
    cols = [u for _, u in front] + [None] * fill + [u for _, u in late]
    rows = [[0] * m for _ in range(keys + fill)]
    filler = keys
    for j, col in enumerate(cols):
        if col is None:
            rows[filler][j] = 1
            filler += 1
        else:
            for v, u in enumerate(col):
                rows[v][j] = u
    costs = [c for c, _ in front] + [budget] * fill + [c for c, _ in late]
    inst = make_instance(rows, costs=costs, budget=budget)
    nonzeros = sum(u > 0 for row in rows for u in row)
    assert 2**15 // nonzeros <= m - len(late)  # the first block ends before them
    return inst


@pytest.mark.parametrize(
    "kinds, front, late, budget, expected",
    (
        # {1, 189}, from seed 1, and {0, 189} tie at score 5 and cost 3, and
        # only seed 189, in the later block, reaches {0, 189}: at {189},
        # score 3 at cost 2 with room 1, its bound 3 + 1 * 2 ties the best,
        # which costs more
        (("diverse",), [(1, (2, 0)), (1, (2, 2)), (2, (1, 1))], [(2, (0, 3))], 3, (0, 189)),
        # seed 0 (no utility) reaches {0, 188, 189}, score 2 at cost 6; seed
        # 188 then has room 3 and bound 1 + 3 * 1 // 2 = 2 at cost 3, and
        # ends at {188, 189}, score 2 at cost 5
        (("ib", "diverse"), [(1, (0, 0))], [(3, (1, 0)), (2, (0, 1))], 6, (188, 189)),
        # fair: seed 0 reaches {0, 2} with the total 2 and room 2, where the
        # bound is log 3 + 2 * log(4 / 3) / 2 = log 4, exactly the score of
        # {1}; {0, 2, 189} then ties {1} at cost 4 and comes first
        (("fair",), [(1, (1,)), (4, (3,)), (1, (1,))], [(2, (1,))], 4, (0, 2, 189)),
    ),
)
def test_greedy_bound_keeps_the_chains_that_tie_the_best(kinds, front, late, budget, expected):
    # dropping a chain whose bound only ties the best changes each answer
    inst = _behind_fillers(front, late, budget)
    opts = SolveOptions(greedy_seed_size=1)
    for kind in kinds:
        assert solve_greedy(inst, kind, opts).knapsack == expected
        assert greedy_by_definition(inst, kind, 1) == expected


@pytest.mark.parametrize("extra", (0, 1), ids=("at the cap", "past the cap"))
def test_fair_greedy_table_cap(monkeypatch, extra):
    # fair terms are tabulated, one per nonzero at each total its row can
    # reach (0 up to the row's sum), when there are at most 2^15 of them.
    # Row a, of three voters, holds 4 * 10 of them and row b 3 * 7; row c
    # holds z + 1, for 2^15 in all at extra 0 and one past the cap at 1
    z = 2**15 - 62 + extra
    a, b, c = [3, 3, 1, 0, 2, 0], [0, 2, 2, 2, 0, 0], [0, 0, 0, 0, 0, z]
    inst = make_instance([a, b, a, c, a], costs=[2, 2, 1, 1, 3, 2], budget=6)
    sizes = []
    real = solvers._log1p_ratio
    monkeypatch.setattr(
        solvers, "_log1p_ratio", lambda u, t: sizes.append(u.size) or real(u, t)
    )
    for size in (1, 2, 3):
        opts = SolveOptions(greedy_seed_size=size)
        expected = greedy_by_definition(inst, "fair", size)
        assert solve_greedy(inst, Objective.FAIR, opts).knapsack == expected
    assert (2**15 in sizes) == (extra == 0)  # the table, built in one call


def test_greedy_chains_that_run_out_first_raise_no_float_error():
    # seed 2 fills the budget, so its chain stops at the first step with a
    # room of 0 while the others go on: a finished chain is never bounded,
    # where that room would meet a best density of -inf
    inst = make_instance(
        [[2, 0, 1, 1, 0], [0, 3, 0, 1, 2], [1, 1, 0, 0, 1]], costs=[4, 1, 5, 2, 1], budget=5
    )
    opts = SolveOptions(greedy_seed_size=1)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, label in KINDS:
            assert solve_greedy(inst, kind, opts).knapsack == greedy_by_definition(inst, label, 1)


def test_greedy_takes_budgets_past_float_range():
    # the room of a chain here is past float range, and the bound takes it
    # only as a log; four items keep greedy exact
    inst = make_instance(
        [[1, 2, 0, 1], [0, 1, 3, 1]], costs=[10**308, 10**308, 1, 3], budget=2 * 10**308 + 1
    )
    for kind in Objective:
        assert solve_greedy(inst, kind).knapsack == brute_force(inst, kind).knapsack
    # costs scaled by 10^308 under a budget past 10^309: every bound is taken
    # from logs and still drops chains; scaled as in the tests below, the
    # knapsack is the unscaled instance's
    rng = random.Random(309)
    factor = 10**308
    for _ in range(4):
        m = rng.randint(8, 10)
        costs = [rng.randint(1, 9) for _ in range(m)]
        budget = rng.randint(10, sum(costs) // 2 + 10)
        rows = [[rng.choice((0, 0, 1, 2, 5)) for _ in range(m)] for _ in range(3)]
        inst = make_instance(rows, costs=costs, budget=budget)
        scaled = make_instance(
            rows,
            costs=[c * factor for c in costs],
            budget=budget * factor + rng.randrange(factor),
        )
        for kind, label in KINDS:
            for size in (1, 2):
                opts = SolveOptions(greedy_seed_size=size)
                expected = greedy_by_definition(inst, label, size)
                assert solve_greedy(scaled, kind, opts).knapsack == expected


# Greedy takes every cost as a log in its keys and its bound, so costs of
# 2^1000 or more, near the end of float range (about 1.8 * 10^308), need no
# switch. Multiplying every cost by one factor K, and the budget by K plus
# less than K, keeps every fit and every comparison of densities, each of
# which is raised to the power 1 / K, so greedy returns the knapsack of the
# unscaled instance.
@pytest.mark.parametrize("factor", (2**1000, 10**309), ids=("2^1000", "10^309"))
def test_fair_greedy_takes_costs_past_float_range(factor):
    big = 10**309
    inst = Instance(("a", "b", "c"), (big, 1, 2), ((1, 2, 0), (0, 1, 3)), big + 3)
    expected = greedy_by_definition(inst, "fair", 3)
    assert solve_greedy(inst, Objective.FAIR).knapsack == expected
    rng = random.Random(factor % 997)
    for _ in range(40):
        inst = random_instance(rng, max_items=7)
        scaled = make_instance(
            inst.utilities,
            costs=[c * factor for c in inst.costs],
            budget=inst.budget * factor + rng.randrange(factor),
        )
        for size in (1, 2, 3):
            opts = SolveOptions(greedy_seed_size=size)
            expected = greedy_by_definition(inst, "fair", size)
            assert solve_greedy(scaled, Objective.FAIR, opts).knapsack == expected


@pytest.mark.parametrize("inst", SKEWED_CASES, ids=range(len(SKEWED_CASES)))
def test_fair_greedy_pads_skewed_columns_past_float_range(inst):
    # greedy pads every column to the longest, and a pad adds nothing. With
    # costs scaled past 2^1000 the knapsack is that of the unscaled instance,
    # as in the test above. With utilities scaled past 2^1000 the totals are
    # Python ints, each term is taken as a log, and a pad's log is -inf
    factor = 2**1000
    scaled = make_instance(
        inst.utilities,
        costs=[c * factor for c in inst.costs],
        budget=inst.budget * factor + factor - 1,
    )
    wide = make_instance(
        [[u * factor for u in row] for row in inst.utilities],
        costs=inst.costs,
        budget=inst.budget,
    )
    for size in (1, 2, 3):
        opts = SolveOptions(greedy_seed_size=size)
        expected = greedy_by_definition(inst, "fair", size)
        assert solve_greedy(scaled, Objective.FAIR, opts).knapsack == expected
        expected = greedy_by_definition(wide, "fair", size)
        assert solve_greedy(wide, Objective.FAIR, opts).knapsack == expected


def test_fair_greedy_takes_an_item_whose_terms_are_past_float_range():
    # after item 3, voter 0's total is 10^400 and items 0 and 1 add 2 to it:
    # their terms log1p(2 / (10^400 + 1)) are no float but their logs are,
    # and summed as floats they would read 0 and end the chain; Python-int
    # totals take each term as a log. Item 2 never fits. A budget of 6
    # leaves the bound to drop chains, and one past float range makes every
    # bound infinite
    for budget in (6, 10**309):
        costs = [2, 2, 3 * 10**309, 2]
        inst = make_instance([[2, 2, 1, 10**400]], costs=costs, budget=budget)
        for size in (1, 2, 3):
            opts = SolveOptions(greedy_seed_size=size)
            assert solve_greedy(inst, Objective.FAIR, opts).knapsack == (0, 1, 3)
            assert greedy_by_definition(inst, "fair", size) == (0, 1, 3)


def test_fair_greedy_exact_tie_test_takes_costs_past_float_range():
    # doubling a voter at cost H or at cost H + 1: unequal costs go to the
    # exact log test, which forms no power of H
    big = 10**309
    assert _denser_fair(2, 1, big, 2, 1, big + 1)
    assert not _denser_fair(2, 1, big + 1, 2, 1, big)
    assert not _denser_fair(4, 1, 2 * big, 2, 1, big)  # an exact tie
    assert not _denser_fair(2, 1, big, 4, 1, 2 * big)
    assert _denser_fair(9, 1, 2 * big, 3, 1, big + 1)
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    inst = Instance(("a", "b", "c"), (big, big + 1, 1), rows, big + 2)
    sol = solve_greedy(inst, Objective.FAIR, SolveOptions(greedy_seed_size=1))
    assert sol.knapsack == brute_force(inst, Objective.FAIR).knapsack == (0, 2)


def test_auto_answers_fair_past_the_brute_force_cap_with_a_cost_past_float_range():
    # 26 items pass the brute-force cap and the vector table trips its
    # guardrail, so greedy answers; item 7 costs 10^309
    rng = random.Random(26)
    rows = [[rng.randint(0, 9) for _ in range(26)] for _ in range(4)]
    costs = [rng.randint(1, 5) for _ in range(26)]
    costs[7] = 10**309
    for budget in (12, 10**309 + 12):
        inst = make_instance(rows, costs=costs, budget=budget)
        sol = solve_auto(inst, Objective.FAIR)
        assert sol.method == "greedy-approximate"
        assert sol.total_cost <= budget
        if budget == 12:  # item 7 never fits: the definition raises no power of it
            assert sol.knapsack == greedy_by_definition(inst, "fair", 3)


@pytest.mark.parametrize("m", (62, 63))
def test_greedy_merges_chains_on_either_side_of_62_items(m):
    # a chain's set is keyed as an int64 bitmask up to 62 items and by its
    # packed bits past that; items repeat every 13, so chains meet often
    rng = random.Random(m)
    cols = [[rng.randint(0, 4) for _ in range(3)] for _ in range(13)]
    costs = [rng.randint(1, 4) for _ in cols]
    inst = make_instance(
        [[cols[j % 13][v] for j in range(m)] for v in range(3)],
        costs=[costs[j % 13] for j in range(m)],
        budget=9,
    )
    opts = SolveOptions(greedy_seed_size=1)
    for kind, label in KINDS:
        assert solve_greedy(inst, kind, opts).knapsack == greedy_by_definition(inst, label, 1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 20).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(("tie", "above", "below", "free")),
    st.tuples(st.integers(2, 20), st.integers(1, 20)),
)
def test_fair_density_test_agrees_with_the_power_test(base, e1, e2, g, k, mode, other):
    # (after / before)^(1 / cost) against (pa / pb)^(1 / pc); a tie puts both
    # ratios on powers of one base s, so that both densities are s^(1 / g)
    s = Fraction(*base)
    r1, r2 = s**e1, s**e2
    cost, pc = e1 * g, e2 * g
    if mode in ("above", "below"):
        nudge = 1 if mode == "above" else -1
        r2 = Fraction(r2.numerator * 10**12 + nudge, r2.denominator * 10**12)
    elif mode == "free":
        r2 = Fraction(max(other), min(other))
    after, before = r1.numerator * k, r1.denominator * k
    pa, pb = r2.numerator, r2.denominator
    expected = after**pc * pb**cost > pa**cost * before**pc
    assert _denser_fair(after, before, cost, pa, pb, pc) is expected


# dispatch


def test_auto_single_voter_diverse_uses_peaked_dp():
    inst = make_instance([[4, 1, 2]], budget=2)
    sol = solve_auto(inst, Objective.DIVERSE)
    assert sol.method == "sp-dp"
    assert sol.value.score == brute_force(inst, Objective.DIVERSE).value.score


def test_auto_cover_instance_fair_exact():
    red = from_x3c(SetSystem(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2))))
    sol = solve_auto(red.instance, Objective.FAIR)
    assert sol.method in ("xp-dp", "bruteforce")
    assert sol.value.fair_product == brute_force(red.instance, Objective.FAIR).value.fair_product


def test_auto_large_unstructured_diverse_goes_greedy():
    core = [[0, 1, 2], [2, 2, 1], [2, 1, 2]]
    rows = []
    for row in core:
        rows.extend([row + [0] * 27] * 4)
    inst = make_instance(rows, budget=3)
    from knapvote import recognize_single_crossing, recognize_single_peaked

    assert recognize_single_peaked(inst) is None
    assert recognize_single_crossing(inst) is None
    sol = solve_auto(inst, Objective.DIVERSE)
    assert sol.method == "greedy-approximate"
    assert sol.total_cost <= inst.budget


def test_auto_ib_falls_back_to_brute_when_table_too_big():
    inst = make_instance([[2 * 10**8, 1]], budget=1)
    sol = solve_auto(inst, Objective.IB)
    assert sol.method == "bruteforce"
    assert sol.value.score == 2 * 10**8


def test_auto_fair_falls_back_to_brute_when_vectors_blow_up():
    inst = make_instance(
        [[100] * 8 for _ in range(6)], costs=[1] * 8, budget=2
    )
    sol = solve_auto(inst, Objective.FAIR)
    assert sol.method == "bruteforce"
    assert sol.value.fair_product == brute_force(inst, Objective.FAIR).value.fair_product


def test_auto_always_answers(rng):
    for _ in range(30):
        inst = random_instance(rng)
        for kind, _ in KINDS:
            sol = solve_auto(inst, kind)
            assert sol.total_cost <= inst.budget
            assert sol.method


# connected assignments


def test_is_connected_assignment():
    assert is_connected_assignment((0, 1, 2), (5, 5, 7))
    assert not is_connected_assignment((0, 1, 2), (5, 7, 5))
    assert is_connected_assignment((2, 0, 1), (4, 4, 4))


def test_best_connected_assignment_matches_enumeration(rng):
    for _ in range(40):
        inst = random_instance(rng, max_items=5)
        order = list(range(inst.num_voters))
        rng.shuffle(order)
        k = rng.randint(1, min(inst.num_items, inst.num_voters))
        selected = sorted(rng.sample(range(inst.num_items), k))
        value, assignment = best_connected_assignment(inst, selected, order)
        assert value == connected_optimum(inst, selected, order)
        assert is_connected_assignment(order, assignment)
        assert sorted(set(assignment)) == selected
        got = sum(inst.utilities[v][assignment[p]] for p, v in enumerate(order))
        assert got == value


def test_best_connected_assignment_rejects_bad_inputs():
    inst = make_instance([[1, 2]], budget=2)
    with pytest.raises(ValidationError):
        best_connected_assignment(inst, [], (0,))
    with pytest.raises(ValidationError):
        best_connected_assignment(inst, [0, 1], (0,))
    two = make_instance([[1, 2], [2, 1]], budget=2)
    for selected, bad in (([True], True), ([0.5], 0.5), ([1, True], True)):
        with pytest.raises(ValidationError, match=f"^bad item index {bad!r}$"):
            best_connected_assignment(two, selected, (0, 1))


# cross-cutting properties


def test_options_must_be_positive():
    with pytest.raises(ValidationError):
        SolveOptions(max_bruteforce_items=0)
    with pytest.raises(ValidationError):
        SolveOptions(max_dp_cells=-1)
    with pytest.raises(ValidationError):
        SolveOptions(greedy_seed_size=0)
    with pytest.raises(ValidationError, match="^max_dp_cells must be an integer$"):
        SolveOptions(max_dp_cells="5")
    with pytest.raises(ValidationError, match="^greedy_seed_size must be an integer$"):
        SolveOptions(greedy_seed_size=2.5)
    with pytest.raises(ValidationError, match="^max_bruteforce_items must be an integer$"):
        SolveOptions(max_bruteforce_items=True)


def test_solvers_are_deterministic(rng):
    for _ in range(10):
        inst = random_instance(rng, max_items=6)
        for solver in (
            lambda i: brute_force(i, Objective.FAIR),
            solve_ib_dp,
            solve_diverse_fpt,
            solve_fair_xp_dp,
            lambda i: solve_greedy(i, Objective.DIVERSE),
            lambda i: solve_auto(i, Objective.DIVERSE),
        ):
            assert solver(inst) == solver(inst)


def test_every_solution_reevaluates_consistently(rng):
    for _ in range(20):
        inst = random_instance(rng, max_items=6)
        for kind, label in KINDS:
            sol = solve_auto(inst, kind)
            assert sol.value.score == subset_value(inst, label, sol.knapsack)
            assert sol.total_cost == sum(inst.costs[j] for j in sol.knapsack)


# the value tables on either axis: ib-dp, sp-dp and the fixed-order table
# run over cost when min(B, Σcosts) <= U and over value otherwise, so
# utilities and costs of 10^6 force each side; a wide cell cap lets 2^70
# utilities through the up-front estimate, which counts the value axis

WIDE = SolveOptions(max_dp_cells=2**80)


@st.composite
def axis_instances(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))

    # each instance draws from a part of each set, so that often no utility,
    # or no cost, is 10^6
    def part(values):
        return st.sampled_from(sorted(draw(st.sets(st.sampled_from(values), min_size=1))))

    utility, cost = part((1, 9, 10**6)), part((1, 20, 10**6))
    row = st.lists(utility, min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    costs = draw(st.lists(cost, min_size=m, max_size=m))
    total = sum(costs)
    # the tables span the shorter axis; keep it within 10^4 columns
    top = total if sum(map(sum, rows)) < 10**4 else min(total, 10**4)
    budget = draw(st.one_of(st.integers(0, top), st.just(top)))
    order = draw(st.permutations(range(n)))
    return make_instance(rows, costs=costs, budget=budget), tuple(order)


def _axis_case(rows, costs, budget):
    return make_instance(rows, costs=costs, budget=budget), tuple(range(len(rows)))


# the examples: budget 0; all-zero utilities on each axis; duplicate voters
# on each axis; utilities of 2^70 on the cost axis and costs past 2^62 on the
# value axis (Python-int rows); and stacks wide enough that the tables relax
# them a row at a time, on each axis
@settings(max_examples=200, deadline=None)
@given(axis_instances())
@example(_axis_case([[9, 1, 10**6], [1, 9, 10**6]], [1, 20, 1], 0))
@example(_axis_case([[0, 0, 0], [0, 0, 0]], [1, 20, 10**6], 0))
@example(_axis_case([[0, 0, 0], [0, 0, 0]], [1, 20, 10**6], 10**6))
@example(_axis_case([[9, 1, 1], [9, 1, 1], [1, 1, 9]], [20, 1, 1], 21))
@example(_axis_case([[1, 10**6], [1, 10**6], [10**6, 1]], [20, 1], 20))
@example(_axis_case([[1, 9], [1, 9], [9, 1]], [20, 10**6], 10**6 + 20))
@example(_axis_case([[2**70, 1, 2**70 + 1], [1, 2**70, 9]], [1, 20, 20], 21))
@example(_axis_case([[2**70, 9], [9, 2**70], [2**70, 2**70]], [1, 1], 1))
@example(_axis_case([[9, 1, 1], [1, 9, 1]], [2**62 + 1, 2**62, 1], 2**63))
@example(_axis_case([[9, 1], [1, 9], [9, 9]], [2**63, 2**63 + 1], 2**64 + 1))
@example(_axis_case([[10**6] * 7], [1, 20, 10**6, 1, 20, 10**6, 1], 10**4))
@example(_axis_case([[9, 10**3, 1, 10**3, 9, 10**3, 1], [10**3] * 7], [10**6] * 7, 2 * 10**6))
def test_value_tables_agree_with_brute_force_on_either_axis(case):
    inst, order = case
    ref = brute_force(inst, Objective.DIVERSE)
    _assert_agrees(solve_ib_dp(inst, WIDE), inst, Objective.IB)
    sp_order = recognize_single_peaked(inst)
    if sp_order is not None:
        sol = solve_diverse_sp_dp(inst, sp_order, WIDE)
        assert (sol.value.score, sol.total_cost) == (ref.value.score, ref.total_cost)
    if recognize_single_crossing(inst) is not None:
        sol = solve_diverse_sc(inst, WIDE)
        assert (sol.value.score, sol.total_cost) == (ref.value.score, ref.total_cost)
    sol = solve_ordered_diverse_dp(inst, order, WIDE)
    assert sol.value.score <= ref.value.score
    assert sol.total_cost <= inst.budget


def test_ordered_table_matches_enumeration_on_either_axis(rng):
    # the public table keeps its value-axis contract whichever axis builds it;
    # the first two are wide enough that the table relaxes a row at a time
    for rows, costs in (
        ([[6000, 1, 3000, 9000], [2, 7000, 4000, 5000]], [9000, 8000, 10**4, 9500]),
        ([[9000, 10**4, 1, 9500], [8000, 2, 10**4, 9000]], [5000, 6000, 4000, 4500]),
    ):
        inst = make_instance(rows, costs=costs, budget=0)
        for order in ((0, 1), (1, 0)):
            assert ordered_diverse_table(inst, order).tolist() == (
                ordered_table_by_enumeration(inst, order)
            )
    seen = {True: 0, False: 0}
    while min(seen.values()) < 40:
        by_cost = rng.random() < 0.5
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        top, lo, hi = (9, 1, 3) if by_cost else (3, 3, 12)
        inst = make_instance(
            [[rng.randint(0, top) for _ in range(m)] for _ in range(n)],
            costs=[rng.randint(lo, hi) for _ in range(m)],
            budget=rng.randint(0, 12),
        )
        order = list(range(n))
        rng.shuffle(order)
        seen[sum(inst.costs) <= inst.total_utility()] += 1
        table = ordered_diverse_table(inst, order)
        assert table.shape == (n, inst.total_utility() + 1)
        assert table.tolist() == ordered_table_by_enumeration(inst, order)


# The knapsacks of solve_ordered_diverse_dp and solve_diverse_sc on seeded
# instances (None where the profile is not single-crossing), computed with a
# table that steps once per voter. Stepping once per run of identical
# adjacent voters must leave every one as it is.
# The cases take turns: runs of identical voters on the cost axis and on the
# value axis; utilities past 2^62 and costs past 2^62 (Python-int rows);
# orders that take one voter of each distinct row at a time, so that most
# duplicates are not adjacent; and points on a line drawn with repeats
# (single-crossing). 59 of the 200 orders are not single-crossing.


def _pinned_order_cases():
    rng = random.Random(4321)
    cases = []
    for k in range(200):
        shape = ("cost", "value", "huge", "apart", "crossing")[k % 5]
        m = rng.randint(1, 6)
        if shape == "crossing":
            funcs = [(rng.randint(0, 2), rng.randint(0, 4)) for _ in range(m)]
            points = sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 9)))
            rows = [[a * t + b for a, b in funcs] for t in points]
        else:
            top = 2 if shape == "value" else 9
            distinct = [[rng.randint(0, top) for _ in range(m)] for _ in range(4)]
            rows = []
            for _ in range(rng.randint(1, 5)):
                rows += [rng.choice(distinct)] * rng.randint(1, 3)
        lo, hi = (4, 15) if shape == "value" else (1, 4)
        costs = [rng.randint(lo, hi) for _ in range(m)]
        budget = rng.randint(0, sum(costs))
        if shape == "huge":
            if k % 2:
                rows = [[u * 2**63 for u in row] for row in rows]
            else:
                costs = [c * 2**62 for c in costs]
                budget *= 2**62
        order = list(range(len(rows)))
        if shape == "apart":
            # the first voter of each distinct row, then the second, ...
            order.sort(key=lambda v: rows[:v].count(rows[v]))
        cases.append((make_instance(rows, costs=costs, budget=budget), order))
    return cases


PINNED_ORDER_KNAPSACKS = (
    ((1,), (1,)), ((0,), (0,)), ((3, 5), (3, 5)), ((1,), (1,)), ((0,), (0,)),
    ((3,), (3,)), ((0,), (0,)), ((0, 2), None), ((), ()), ((2,), (2,)), ((), ()),
    ((0,), (0,)), ((2,), (2,)), ((0,), (0,)), ((1, 4), (1, 4)), ((), ()), ((), ()),
    ((1,), (1,)), ((0,), (0,)), ((2, 4), (2, 4)), ((), ()), ((0,), (0,)), ((), ()),
    ((2, 3), None), ((3,), (3,)), ((2,), (2,)), ((2,), (2,)), ((), ()), ((3,), (3,)),
    ((2,), (2,)), ((), ()), ((2,), (2,)), ((), ()), ((), None), ((), ()),
    ((1, 3), (1, 3)), ((2,), (2,)), ((2, 3), None), ((0,), (0,)), ((1, 2), (1, 2)),
    ((2,), (2,)), ((), ()), ((1, 2), (1, 2)), ((1,), (1,)), ((), ()), ((0,), (0,)),
    ((), ()), ((4,), (4,)), ((), None), ((3,), (3,)), ((2,), (2,)), ((), ()),
    ((3,), (3,)), ((1,), (1,)), ((), ()), ((1,), (1,)), ((0, 1, 3), None), ((), None),
    ((), None), ((3,), (3,)), ((2,), (2,)), ((), ()), ((0,), (0,)), ((0, 2), None),
    ((1, 3), (1, 3)), ((), ()), ((), ()), ((1,), (1,)), ((2, 3), (2, 3)), ((1,), (1,)),
    ((), ()), ((), ()), ((1,), (1,)), ((1,), (1,)), ((2,), (2,)), ((), ()),
    ((2,), (2,)), ((0,), (0,)), ((), ()), ((1,), (1,)), ((1, 2), None), ((1,), (1,)),
    ((0,), (0,)), ((2,), (2,)), ((0,), (0,)), ((1,), (1,)), ((), ()), ((3,), (3,)),
    ((0,), (0,)), ((1,), (1,)), ((0,), (0,)), ((), ()), ((0, 3), (0, 3)), ((1,), (1,)),
    ((), ()), ((0, 2), None), ((1,), (1,)), ((0, 3), None), ((1,), (1,)), ((), ()),
    ((0,), (0,)), ((0,), (0,)), ((5,), (5,)), ((2, 4), None), ((2,), (2,)),
    ((0,), (0,)), ((1,), (1,)), ((1,), (1,)), ((), ()), ((1,), (1,)), ((4,), (4,)),
    ((), ()), ((0,), (0,)), ((0, 2), None), ((2,), (2,)), ((0, 1, 2), (0, 2)),
    ((1,), (1,)), ((1,), (1,)), ((1,), (1,)), ((3,), (3,)), ((1, 2), (1, 2)),
    ((1,), (1,)), ((), ()), ((0, 3), None), ((), ()), ((3, 4), None), ((1,), None),
    ((0,), (0,)), ((0,), (0,)), ((5,), (5,)), ((), ()), ((3, 4), (3, 4)), ((1,), (1,)),
    ((0,), (0,)), ((2,), (2,)), ((2, 4), (2, 4)), ((1,), (1,)), ((0, 2), None),
    ((2,), (2,)), ((2,), (2,)), ((0,), (0,)), ((0, 3), (0, 3)), ((), ()),
    ((0, 4, 5), (0, 5)), ((3,), (3,)), ((4,), (4,)), ((0,), (0,)), ((1, 3), (1, 3)),
    ((), ()), ((1, 2), (1, 2)), ((2,), (2,)), ((0, 3), (0, 3)), ((0,), (0,)),
    ((1, 2, 5), None), ((0,), (0,)), ((0,), (0,)), ((1, 3, 4), None), ((0,), (0, 3)),
    ((0,), (0,)), ((4,), (4,)), ((0,), (0,)), ((1, 4), None), ((2,), (2,)),
    ((0, 1, 2), None), ((), ()), ((1,), (1,)), ((1, 3), None), ((0,), (0,)),
    ((0, 3, 4), None), ((5,), (5,)), ((0,), (0,)), ((2,), (2,)), ((0,), (0,)),
    ((0,), (0,)), ((), ()), ((), ()), ((5,), (5,)), ((0, 4), None), ((0,), None),
    ((0,), (0,)), ((), ()), ((1,), (1,)), ((2,), (2,)), ((0,), (0,)), ((0,), (0,)),
    ((4,), (4,)), ((0,), (0,)), ((), None), ((1, 5), (1, 5)), ((0,), (0,)),
    ((0, 2), (0, 2)), ((0,), (0,)), ((1,), (1,)), ((0,), (0,)), ((2,), (2,)), ((), ()),
    ((3,), (3,)), ((), None), ((), ()), ((1,), (1,)),
)


def test_fixed_order_knapsacks_are_pinned():
    cases = _pinned_order_cases()
    axes = set()
    pins = zip(cases, PINNED_ORDER_KNAPSACKS, strict=True)
    for (inst, order), (ordered, crossing) in pins:
        assert solve_ordered_diverse_dp(inst, order, WIDE).knapsack == ordered
        if crossing is None:
            with pytest.raises(ValidationError, match="single-crossing"):
                solve_diverse_sc(inst, WIDE)
        else:
            assert solve_diverse_sc(inst, WIDE).knapsack == crossing
        rows = [inst.utilities[v] for v in order]
        if any(a == b for a, b in zip(rows, rows[1:])):
            axes.add(_axis(inst)[0])
    assert axes == {True, False}  # runs of identical voters on either axis


# the table routes finish fast on numbers near their limits, each on the
# shorter axis: utilities summing near 10^7, just under each guardrail's
# m * (U + 1), m(m+1)/2 * (U + 1) or n * m * (U + 1) cells, with costs 1-5;
# and costs near 2^62 (Python-int rows) with utilities 0-9. Each route's
# profile comes with the factor that takes its utilities near 10^7.

HUGE_ROUTES = {
    "ib-dp": (
        Objective.IB,
        solve_ib_dp,
        [[4, 9, 1, 6, 2, 8, 3, 5], [7, 2, 9, 1, 5, 3, 8, 6], [1, 5, 2, 9, 7, 4, 6, 3]],
        86_000,
    ),
    "sp-dp": (
        Objective.DIVERSE,
        lambda inst: solve_diverse_sp_dp(inst, (0, 1, 2)),
        [[3, 4, 1], [1, 3, 2]],
        10**6,
    ),
    "sc-dp": (Objective.DIVERSE, solve_diverse_sc, [[8, 6, 2, 1], [1, 2, 6, 4]], 4 * 10**5),
}


@pytest.mark.parametrize("shape", ("utilities", "costs"))
@pytest.mark.parametrize("route", HUGE_ROUTES)
def test_table_routes_finish_fast_on_huge_numbers(route, shape):
    kind, solve, rows, factor = HUGE_ROUTES[route]
    rng = random.Random(route)
    m = len(rows[0])
    if shape == "utilities":
        rows = [[u * factor for u in row] for row in rows]
        costs, budget = [rng.randint(1, 5) for _ in range(m)], 6
    else:
        costs, budget = [rng.randint(2**62 - 9, 2**62 + 9) for _ in range(m)], 2**63
    inst = make_instance(rows, costs=costs, budget=budget)
    assert _axis(inst)[0] is (shape == "utilities")  # the shorter axis
    start = time.perf_counter()
    sol = solve(inst)
    assert time.perf_counter() - start < 2
    assert sol.method == route
    _assert_agrees(sol, inst, kind)


def test_fpt_counts_its_axis_before_building_a_row():
    # both axes past 2^62 columns: fpt trips its guardrail, where building
    # the empty row first would raise numpy's ValueError, and auto goes on
    inst = make_instance(
        [[2**70, 1, 2**71], [1, 2**70, 3]], costs=[2**63, 2**63 + 1, 2**62], budget=2**64
    )
    with pytest.raises(GuardrailError, match="cells of work"):
        solve_diverse_fpt(inst)
    sol = solve_auto(inst, Objective.DIVERSE)
    assert sol.method == "bruteforce"
    _assert_agrees(sol, inst, Objective.DIVERSE)


@pytest.mark.parametrize("by_cost", (True, False))
def test_wide_tables_relax_a_row_at_a_time(by_cost):
    # past 512 columns a stack of rows is relaxed one source row, target row
    # or choice at a time, so sp-dp, the fixed-order table and fpt peak at
    # their own rows plus a few, where one pass over 8 stacked rows, or over
    # 8 items for each target set, would copy the stack several times
    m, n, size = 8, 2, 2**14
    if by_cost:
        rows = [[size * (m - abs(j - v)) for j in range(m)] for v in range(n)]
        costs, budget = [size // 4 + j for j in range(m)], size
    else:
        rows = [[size // (m * n) * (m - abs(j - v)) // m for j in range(m)] for v in range(n)]
        costs, budget = [10**9 + j for j in range(m)], 2 * 10**9
    inst = make_instance(rows, costs=costs, budget=budget)
    axis, width, _ = _axis(inst)
    assert axis is by_cost and width > 512
    row_bytes = 8 * width
    for solve, table_rows in (
        (lambda: solve_diverse_sp_dp(inst, tuple(range(m)), WIDE), m + 1),
        (lambda: solve_ordered_diverse_dp(inst, tuple(range(n)), WIDE), n + 1 + m),
        (lambda: solve_diverse_fpt(inst, WIDE), 2**n + m),  # n distinct rows
    ):
        tracemalloc.start()
        try:
            sol = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (table_rows + 4) * row_bytes
    assert sol.method == "fpt"
    _assert_agrees(sol, inst, Objective.DIVERSE)


@pytest.mark.parametrize("by_cost", (True, False), ids=("cost axis", "value axis"))
def test_fpt_relaxes_target_rows_in_chunks(by_cost):
    # with 8 distinct voters and 29 items a source set has up to 2^7 target
    # rows, and one block of all of them would hold 2^7 * 29 candidate rows
    # (16 MiB on the cost axis, 39 on the value axis); in chunks of about
    # 2^16 candidates fpt peaks at its table, one block of target rows and a
    # few chunks' arrays
    rng = random.Random(5)
    m = 29
    if by_cost:
        rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(8)]
        costs, budget = [rng.randint(1, 40) for _ in range(m)], 500
    else:
        rows = [[0] * m for _ in range(8)]
        for _ in range(334):
            rows[rng.randrange(8)][rng.randrange(m)] += 1
        costs, budget = [rng.randint(1000, 5000) for _ in range(m)], 10**6
    inst = make_instance(rows, costs=costs, budget=budget)
    axis, width, _ = _axis(inst)
    assert axis is by_cost and width == (501 if by_cost else 335)
    table_bytes = 2**8 * 8 * width
    tracemalloc.start()
    try:
        sol = solve_diverse_fpt(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table_bytes + 6 * 8 * 2**16
    # the knapsacks that fpt's one-target-at-a-time loop gave before _relax
    expected = (10, 14, 20, 22, 28) if by_cost else (5, 13, 15, 18, 21, 27)
    assert (sol.method, sol.knapsack) == ("fpt", expected)


# the call shapes of the four tables: a single row from a single src (ib);
# a single row from the best of a stacked src (sp-dp, the fixed-order
# table's finished rows); stacked rows from their own source rows, or from
# one src (its running rows); and stacked rows from the best of several
# choices of one src (fpt). value and cost are each a scalar, one number
# per target row or per choice, or one per (target row, choice).
RELAX_FORMS = {
    "one": ("scalar",),
    "best of a stack": ("scalar", "choice"),
    "own rows": ("scalar", "target"),
    "one src": ("scalar",),
    "choices": ("scalar", "choice", "target choice"),
}
STACKED_ROW = ("own rows", "one src", "choices")
STACKED_SRC = ("own rows", "best of a stack")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relax_matches_its_definition(data):
    by_cost = data.draw(st.booleans(), label="by_cost")
    big = data.draw(st.booleans(), label="Python ints past 2^62")
    shape = data.draw(st.sampled_from(list(RELAX_FORMS)), label="shape")
    width = data.draw(st.integers(1, 9) | st.integers(513, 516), label="width")
    forms = data.draw(st.tuples(*[st.sampled_from(RELAX_FORMS[shape])] * 2), label="forms")
    # without a number per (target, choice), stacked rows from one src
    # would take one candidate row each, not choices
    assume(shape != "choices" or "target choice" in forms)
    stacked = shape in STACKED_ROW
    targets = data.draw(st.integers(1, 5), label="targets") if stacked else 1
    many = shape in ("best of a stack", "choices")
    choices = data.draw(st.integers(1, 3), label="choices") if many else 1
    alias = shape in ("one", "own rows") and data.draw(st.booleans(), label="src is row")
    rng = data.draw(st.randoms(use_true_random=False))
    dt = object if big else np.int64
    base = 2**70 if big else 0

    def line():
        return [base + rng.randint(-(10**6), 10**6) for _ in range(width)]

    def numbers(form, shifts):
        """Shifts (value on a value axis, cost on a cost axis) or adds."""
        def one():
            if not shifts:
                return base + rng.randint(0, 10**6)
            return 2**70 if big and rng.random() < 0.1 else rng.randint(0, width + 2)

        if form == "scalar":
            return one()
        if form == "target choice":
            return [[one() for _ in range(choices)] for _ in range(targets)]
        return [one() for _ in range(targets if form == "target" else choices)]

    def entry(form, nums, r, a):
        """The number of choice a of target row r."""
        return {
            "scalar": lambda: nums,
            "target": lambda: nums[r],
            "choice": lambda: nums[a],
            "target choice": lambda: nums[r][a],
        }[form]()

    rows = [line() for _ in range(targets)]
    # a source row per target row (own rows) or per choice (best of a stack)
    srcs = rows if alias else [line() for _ in range(targets * choices)]
    value, cost = numbers(forms[0], not by_cost), numbers(forms[1], by_cost)
    want = relax_by_definition(
        rows,
        [
            [
                (
                    srcs[{"own rows": r, "best of a stack": a}.get(shape, 0)],
                    entry(forms[0], value, r, a),
                    entry(forms[1], cost, r, a),
                )
                for a in range(choices)
            ]
            for r in range(targets)
        ],
        by_cost,
    )
    row = np.array(rows if stacked else rows[0], dtype=dt)
    src = row if alias else np.array(srcs if shape in STACKED_SRC else srcs[0], dtype=dt)
    args = [
        np.array(nums, dtype=dt)[..., None] if form != "scalar" else nums
        for form, nums in zip(forms, (value, cost))
    ]
    # a stacked row is relaxed in chunks of its rows, here of 1 to all of them
    per = width * (choices if shape == "choices" else 1)  # candidates per row
    chunk = per * data.draw(st.integers(1, targets), label="rows per chunk")
    with mock.patch.object(solvers, "_RELAX_CHUNK", chunk):
        _relax(row, src, *args, by_cost)
    assert row.tolist() == (want if stacked else want[0])


# the search routes finish fast on huge numbers and agree with brute force:
# utilities near 10^4000 with costs 1-5, and costs near 2^62 in which two
# pairs of items cost exactly the same, with utilities 0-9. Every table cap
# is lifted, so that xp-dp runs: its table holds only the vectors it
# reaches, however large their entries. Four items keep greedy exact, since
# each 4-set grows from one of its 3-item seeds.

SEARCH_ROUTES = {
    "fpt": ((Objective.DIVERSE,), lambda inst, kind, opts: solve_diverse_fpt(inst, opts)),
    "xp-dp": ((Objective.FAIR,), lambda inst, kind, opts: solve_fair_xp_dp(inst, opts)),
    "bruteforce": (tuple(Objective), brute_force),
    "greedy": (tuple(Objective), solve_greedy),
}


@pytest.mark.parametrize("shape", ("utilities", "costs"))
@pytest.mark.parametrize(
    "route, kind",
    [(route, kind) for route, (kinds, _) in SEARCH_ROUTES.items() for kind in kinds],
)
def test_search_routes_finish_fast_on_huge_numbers(route, kind, shape):
    solve = SEARCH_ROUTES[route][1]
    rng = random.Random(f"{route} {kind.value}")
    if shape == "utilities":
        rows = [
            [10**4000 * rng.randint(0, 3) + rng.randint(0, 9) for _ in range(4)] for _ in range(3)
        ]
        costs, budget = [rng.randint(1, 5) for _ in range(4)], 6
    else:
        rows = [[rng.randint(0, 9) for _ in range(3)] for _ in range(3)]
        rows = [row + [row[2]] for row in rows]  # items 2 and 3 tie exactly
        costs, budget = [2**62 - 1, 2**62 + 1, 2**62, 2**62], 3 * 2**62
    inst = make_instance(rows, costs=costs, budget=budget)
    start = time.perf_counter()
    sol = solve(inst, kind, SolveOptions(max_dp_cells=10**20000))
    assert time.perf_counter() - start < 2
    assert sol.method == route
    assert (sol.value.score, sol.total_cost) == best_subset(inst, kind.value)[:2]
    _assert_agrees(sol, inst, kind)
