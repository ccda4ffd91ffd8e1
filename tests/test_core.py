import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from knapvote import (
    Instance,
    Objective,
    ValidationError,
    evaluate,
    is_feasible,
    log_of_int,
    make_solution,
    per_voter_utilities,
    total_cost,
    validate_instance,
)
from knapvote.core import _coerce_objective, _gain, _join, _score

from conftest import grouped_instance, make_instance, random_instance
from helpers import subset_value


def test_minimal_instance_is_valid():
    inst = make_instance([[0]], costs=[1], budget=0)
    assert validate_instance(inst) == []


def _refused(*fields):
    """The problems the constructor names when it refuses these fields."""
    with pytest.raises(ValidationError) as info:
        Instance(*fields)
    return str(info.value).split("; ")


def test_zero_cost_reported_with_item_index():
    messages = _refused(("a", "b"), (0, 1), ((1, 1),), 1)
    assert any("cost" in msg and "item 0" in msg for msg in messages)


def test_ragged_matrix_reported():
    assert any("ragged" in msg for msg in _refused(("a", "b"), (1, 1), ((1, 1), (1,)), 1))


def test_negative_utility_reported_with_cell():
    messages = _refused(("a",), (1,), ((-1,),), 1)
    assert any("utility" in msg and "0" in msg for msg in messages)


def test_bad_utilities_reported_by_cell_after_good_ones():
    # a bool, a negative and a float after valid cells, and valid rows
    # before and after them: each named, in row order, and nothing else
    rows = ((0, 1, 2), (3, True, -1), (2**70, 0, 0), (1.5, 0, 2))
    assert _refused(("a", "b", "c"), (1, 1, 1), rows, 1) == [
        f"utility must be a nonnegative integer at voter {i}, item {j}"
        for i, j in ((1, 1), (1, 2), (3, 0))
    ]


def test_duplicate_names_and_bad_budget_reported():
    assert any("name" in m for m in _refused(("a", "a"), (1, 1), ((0, 0),), 1))
    assert any("budget" in m for m in _refused(("a",), (1,), ((0,),), -1))


def test_every_violation_is_reported_at_once():
    assert len(_refused(("a", "a"), (0, 1), ((1, -1),), -2)) >= 3


def test_constructor_names_cost_length_and_bad_item_names():
    assert _refused(("a", "b"), (1,), ((0, 0),), 0) == [
        "costs has length 1, expected 2 (one per item)"
    ]
    assert _refused(("",), (1,), ((0,),), 0) == [
        "item name at index 0 must be a nonempty string"
    ]
    assert _refused((7,), (1,), ((0,),), 0) == [
        "item name at index 0 must be a nonempty string"
    ]


@pytest.mark.parametrize(
    "fields, message",
    [
        ((("a",), 3, ((0,),), 0), "costs must be a sequence, not int"),
        ((("a",), (1,), 5, 0), "utilities must be a sequence, not int"),
        (("ab", (1, 1), ((0, 0),), 0), "item_names must be a sequence, not str"),
        (
            (("a", "b"), (1, 1), ("ab",), 0),
            "utility row for voter 0 must be a sequence, not str",
        ),
    ],
)
def test_constructor_refuses_a_non_sequence_or_str_field(fields, message):
    # a str would otherwise be split into one-character names or utilities
    assert _refused(*fields) == [message]


def test_empty_selection_conventions():
    inst = make_instance([[3, 1]], budget=2)
    assert evaluate(inst, Objective.IB, []).ib_or_div_value == 0
    assert evaluate(inst, Objective.DIVERSE, []).ib_or_div_value == 0
    assert evaluate(inst, Objective.FAIR, []).fair_product == 1


def test_bad_selection_rejected():
    inst = make_instance([[1]], budget=1)
    with pytest.raises(ValidationError, match="bad item index"):
        evaluate(inst, Objective.IB, [3])
    with pytest.raises(ValidationError, match="duplicate"):
        evaluate(inst, Objective.IB, [0, 0])


@pytest.mark.parametrize(
    "helper, selection, message",
    [
        (per_voter_utilities, [5], "bad item index 5"),
        (per_voter_utilities, [0, 0], "duplicate item index 0"),
        (total_cost, [-1], "bad item index -1"),
        # a non-integer is refused before the sort, which could not order it
        (total_cost, [0, "a"], "bad item index 'a'"),
        (per_voter_utilities, [None, 0], "bad item index None"),
    ],
)
def test_selection_helpers_refuse_a_bad_selection(helper, selection, message):
    inst = make_instance([[1]], costs=[2], budget=1)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        helper(inst, selection)


def test_grouped_profile_evaluations():
    # 603 voters in blocks of 300/200/100/1/1/1 over six item groups.
    inst = grouped_instance()
    assert inst.num_voters == 603
    a1 = [j for j, name in enumerate(inst.item_names) if name.startswith("A1_")]
    assert evaluate(inst, Objective.IB, a1).ib_or_div_value == 1800
    one_each = [0, 6, 9, 11, 12, 13]
    assert {inst.item_names[j][:2] for j in one_each} == {"A1", "A2", "A3", "A4", "A5", "A6"}
    assert evaluate(inst, Objective.DIVERSE, one_each).ib_or_div_value == 603


def test_fair_pair_example():
    inst = make_instance([[2, 0, 1], [0, 2, 1]], budget=2)
    assert evaluate(inst, Objective.FAIR, [0, 1]).fair_product == 9


def test_fair_product_is_exact():
    inst = make_instance([[10] * 100], budget=100)
    value = evaluate(inst, Objective.FAIR, range(100))
    assert value.fair_product == 1001


def test_fair_score_compares_products_not_logs():
    # Two products too close for doubles to tell apart.
    big = 10**30
    inst = make_instance([[0]], budget=0)
    v = evaluate(inst, Objective.FAIR, [])
    assert v.score == 1
    assert isinstance(v.score, int)
    assert math.isclose(log_of_int(big + 1), log_of_int(big), rel_tol=1e-12)
    assert big + 1 > big  # the exact path the solvers compare on


def test_objective_value_fields_by_kind():
    inst = make_instance([[2, 3]], budget=2)
    ib = evaluate(inst, Objective.IB, [0, 1])
    assert ib.ib_or_div_value == 5 and ib.fair_product is None
    fair = evaluate(inst, Objective.FAIR, [0, 1])
    assert fair.ib_or_div_value is None and fair.fair_product == 6
    assert fair.fair_log == pytest.approx(math.log(6))


def test_feasibility_boundaries():
    inst = make_instance([[0, 0, 0]], budget=2)
    assert is_feasible(inst, [])
    assert is_feasible(inst, [0, 1])
    assert not is_feasible(inst, [0, 1, 2])


def test_log_of_int_handles_huge_values():
    assert log_of_int(2**5000) == pytest.approx(5000 * math.log(2), rel=1e-12)
    assert log_of_int(7) == pytest.approx(math.log(7), rel=1e-12)
    assert log_of_int(3**100) == math.log(3**100)


def test_unknown_objective_and_nonpositive_log_are_refused():
    with pytest.raises(ValidationError, match="^unknown objective 'x'$"):
        _coerce_objective("x")
    with pytest.raises(ValidationError, match="^log requires a positive integer$"):
        log_of_int(0)


def test_make_solution_reevaluates():
    inst = make_instance([[4, 1]], costs=[1, 2], budget=3)
    sol = make_solution(inst, Objective.IB, [1, 0], "bruteforce")
    assert sol.knapsack == (0, 1)
    assert sol.value.ib_or_div_value == 5
    assert sol.total_cost == 3
    assert sol.per_voter_utility == (5,)
    assert sol.method == "bruteforce"


def test_helpers_match_definitions(rng):
    for _ in range(50):
        inst = random_instance(rng, max_items=6)
        sel = [j for j in range(inst.num_items) if rng.random() < 0.5]
        assert total_cost(inst, sel) == sum(inst.costs[j] for j in sel)
        assert per_voter_utilities(inst, sel) == tuple(
            sum(row[j] for j in sel) for row in inst.utilities
        )
        for kind, label in ((Objective.IB, "ib"), (Objective.DIVERSE, "diverse")):
            assert evaluate(inst, kind, sel).score == subset_value(inst, label, sel)
        assert evaluate(inst, Objective.FAIR, sel).score == subset_value(inst, "fair", sel)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gain_updates_the_score_from_the_rows_an_item_touches(data):
    values = st.integers(0, 6) | st.integers(0, 2**70)
    k = data.draw(st.integers(1, 6))
    totals = data.draw(st.lists(values, min_size=k, max_size=k))
    mults = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    col = data.draw(st.lists(values, min_size=k, max_size=k))
    column = [(r, u, mults[r]) for r, u in enumerate(col) if u > 0]
    for kind in Objective:
        score = _score(kind, totals, mults)
        new = _score(kind, map(_join(kind), totals, col), mults)
        after, before = _gain(kind)(totals, column)
        if kind is Objective.FAIR:
            assert new * before == score * after
        else:
            assert new == score + (after - before)


def test_ib_is_modular(rng):
    for _ in range(50):
        inst = random_instance(rng, max_items=6)
        m = inst.num_items
        base = [j for j in range(m) if rng.random() < 0.4]
        outside = [j for j in range(m) if j not in base]
        if not outside:
            continue
        j = rng.choice(outside)
        gain = (
            evaluate(inst, Objective.IB, base + [j]).score
            - evaluate(inst, Objective.IB, base).score
        )
        assert gain == evaluate(inst, Objective.IB, [j]).score


def test_monotone_in_selection(rng):
    for _ in range(80):
        inst = random_instance(rng, max_items=6)
        small = [j for j in range(inst.num_items) if rng.random() < 0.4]
        large = sorted(set(small) | {j for j in range(inst.num_items) if rng.random() < 0.5})
        for kind in Objective:
            assert evaluate(inst, kind, small).score <= evaluate(inst, kind, large).score


def test_diverse_and_log_fair_submodular(rng):
    for _ in range(80):
        inst = random_instance(rng, max_items=6)
        m = inst.num_items
        small = {j for j in range(m) if rng.random() < 0.3}
        large = small | {j for j in range(m) if rng.random() < 0.4}
        outside = [j for j in range(m) if j not in large]
        if not outside:
            continue
        j = rng.choice(outside)

        def gains(kind, sel):
            with_j = evaluate(inst, kind, sorted(sel | {j})).score
            without = evaluate(inst, kind, sorted(sel)).score
            return with_j, without

        aw, ao = gains(Objective.DIVERSE, small)
        bw, bo = gains(Objective.DIVERSE, large)
        assert aw - ao >= bw - bo
        # log-gain comparison done on exact integers: log(p1/q1) >= log(p2/q2)
        # iff p1*q2 >= p2*q1
        fw, fo = gains(Objective.FAIR, small)
        gw, go = gains(Objective.FAIR, large)
        assert fw * go >= gw * fo


def test_instance_is_immutable_and_hashable():
    inst = make_instance([[1]], budget=1)
    with pytest.raises(Exception):
        inst.budget = 5
    assert hash(inst) == hash(make_instance([[1]], budget=1))


def test_random_instances_all_validate(rng):
    for _ in range(100):
        assert validate_instance(random_instance(rng)) == []
