import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from knapvote import (
    GuardrailError,
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


def test_brute_matches_definition_oracle(rng):
    for _ in range(60):
        inst = random_instance(rng, max_items=7)
        for kind, label in KINDS:
            sol = brute_force(inst, kind)
            val, cost, subset = best_subset(inst, label)
            assert sol.value.score == val
            assert sol.total_cost == cost
            assert sol.knapsack == subset


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


@settings(max_examples=150, deadline=None)
@given(st.one_of(fpt_instances(), st.randoms().map(random_instance)))
@_with_examples(EDGE_CASES)
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


# cross-cutting properties


def test_options_must_be_positive():
    with pytest.raises(ValidationError):
        SolveOptions(max_bruteforce_items=0)
    with pytest.raises(ValidationError):
        SolveOptions(max_dp_cells=-1)
    with pytest.raises(ValidationError):
        SolveOptions(greedy_seed_size=0)


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
