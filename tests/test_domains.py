import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from knapvote import (
    GuardrailError,
    Instance,
    ValidationError,
    from_x3c,
    recognize_single_crossing,
    recognize_single_peaked,
    verify_single_crossing,
    verify_single_peaked,
    SetSystem,
)
from knapvote.domains import _weak_preference_masks, c1p_order

from conftest import make_instance
from helpers import (
    _unimodal,
    c1p_order_by_search,
    row_cap,
    sc_masks_by_definition,
    sc_order_by_rows,
    sc_witness_by_search,
    sp_order_by_rows,
    sp_rows_by_definition,
    sp_witness_by_search,
)


def x3c_smallest():
    return from_x3c(SetSystem(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2))))


def test_verify_peaked_accepts_single_peak():
    inst = make_instance([[1, 3, 2]])
    assert verify_single_peaked(inst, (0, 1, 2))


def test_verify_peaked_rejects_valley():
    inst = make_instance([[3, 1, 2]])
    assert not verify_single_peaked(inst, (0, 1, 2))


def test_verify_peaked_allows_plateaus():
    inst = make_instance([[1, 2, 2, 1], [2, 2, 1, 0]])
    assert verify_single_peaked(inst, (0, 1, 2, 3))


def test_generated_cover_instance_is_peaked_under_identity():
    red = x3c_smallest()
    assert verify_single_peaked(red.instance, red.sp_witness)


def test_verify_crossing_trivial_single_voter():
    inst = make_instance([[1, 2]])
    assert verify_single_crossing(inst, (0,))


def test_verify_crossing_rejects_split_block():
    # Voters preferring item 1 sit at positions {0, 2}: not contiguous.
    inst = make_instance([[0, 1], [1, 0], [0, 1]])
    assert not verify_single_crossing(inst, (0, 1, 2))


def test_verify_crossing_accepts_reordering_of_split_block():
    inst = make_instance([[0, 1], [1, 0], [0, 1]])
    found = recognize_single_crossing(inst)
    assert found is not None
    assert verify_single_crossing(inst, found)
    # the lone item-0 fan must sit at an end
    assert found.index(1) in (0, 2)


def test_verify_rejects_malformed_orders():
    inst = make_instance([[1, 2]])
    with pytest.raises(ValidationError):
        verify_single_peaked(inst, (0,))
    with pytest.raises(ValidationError):
        verify_single_peaked(inst, (0, 0))
    with pytest.raises(ValidationError):
        verify_single_crossing(inst, (0, 1))


@pytest.mark.parametrize(
    "check",
    (
        lambda inst: verify_single_peaked(inst, (0, 1, 2)),
        recognize_single_peaked,
        lambda inst: verify_single_crossing(inst, (0, 1)),
        recognize_single_crossing,
    ),
    ids=(
        "verify_single_peaked",
        "recognize_single_peaked",
        "verify_single_crossing",
        "recognize_single_crossing",
    ),
)
def test_ragged_rows_are_refused_naming_the_voter(check):
    # An invalid Instance cannot be built, so no domain function is ever
    # handed one: the refusal comes from the constructor, before `check`.
    for fields, message in (
        (
            (("a0", "a1", "a2"), (1, 1, 1), ((1, 2, 3), (1, 2)), 0),
            "ragged utility matrix: row for voter 1 has length 2, expected 3",
        ),
        (((), (), ((),), 0), "instance must have at least one item"),
        ((("a0",), (1,), (), 0), "instance must have at least one voter"),
    ):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            check(Instance(*fields))


def _crosses_by_definition(instance, order):
    """No ordered item pair (a, b) has voters p < q < r in the order with p
    and r weakly preferring b to a and q not."""
    prefers = [
        [instance.utilities[i][b] >= instance.utilities[i][a] for i in order]
        for a in range(instance.num_items)
        for b in range(instance.num_items)
        if a != b
    ]
    return not any(
        row[p] and not row[q] and row[r]
        for row in prefers
        for p, q, r in itertools.combinations(range(len(order)), 3)
    )


def test_verify_single_crossing_matches_the_definition():
    rng = random.Random(11)
    answers = set()
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        inst = make_instance([[rng.randint(0, 2) for _ in range(m)] for _ in range(n)])
        for order in itertools.permutations(range(n)):
            answer = verify_single_crossing(inst, order)
            assert answer == _crosses_by_definition(inst, order), (inst, order)
            answers.add(answer)
    assert answers == {True, False}


def test_verify_single_peaked_matches_the_definition():
    rng = random.Random(13)
    answers = set()
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        inst = make_instance([[rng.randint(0, 2) for _ in range(m)] for _ in range(n)])
        for order in itertools.permutations(range(m)):
            answer = verify_single_peaked(inst, order)
            unimodal = all(_unimodal([row[j] for j in order]) for row in inst.utilities)
            assert answer == unimodal, (inst, order)
            answers.add(answer)
    assert answers == {True, False}


def test_verify_rejects_non_integer_orders():
    inst = make_instance([[1, 3, 2]])
    for order in ((0.0, 1, 2), (0, True, 2)):
        with pytest.raises(ValidationError, match="permutation"):
            verify_single_peaked(inst, order)


def test_c1p_all_zero_rows_give_identity():
    assert c1p_order(3, []) == (0, 1, 2)
    assert c1p_order(3, [(0, 0, 0)]) == (0, 1, 2)


def test_c1p_chain():
    order = c1p_order(3, [(1, 1, 0), (0, 1, 1)])
    assert order is not None
    assert order in ((0, 1, 2), (2, 1, 0))


def test_c1p_odd_cycle_fails():
    assert c1p_order(3, [(1, 0, 1), (1, 1, 0), (0, 1, 1)]) is None


def test_c1p_rejects_non_binary():
    with pytest.raises(ValidationError):
        c1p_order(2, [(0, 2)])


def test_c1p_refuses_bad_shapes_and_orders_no_columns():
    with pytest.raises(ValidationError, match="^num_cols must be >= 0$"):
        c1p_order(-1, [])
    with pytest.raises(ValidationError, match="^row 0 has length 1, expected 2$"):
        c1p_order(2, [(1,)])
    assert c1p_order(0, []) == ()


def _rows(num_cols, sets):
    return [[1 if j in s else 0 for j in range(num_cols)] for s in sets]


def test_c1p_fails_on_a_chain_with_two_partial_children():
    # applying {0, 1, 2, 5} meets a partial node below the root with two
    # partial children; no order of the six columns has all three intervals
    rows = _rows(6, ({0, 2, 3}, {0, 4, 5}, {0, 1, 2, 5}))
    assert c1p_order_by_search(6, rows) is None
    assert c1p_order(6, rows) is None


def test_c1p_fails_on_a_p_root_with_three_partial_children():
    # {3, 7, 11} would put 7 between 3 and 11, splitting the block {4..7}
    rows = _rows(12, ({0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {3, 7, 11}))
    assert c1p_order(12, rows) is None


@st.composite
def c1p_families(draw):
    """0/1 rows on at most 7 columns; about half are intervals of one hidden
    column order, so that most families have a valid order."""
    n = draw(st.integers(1, 7))
    hidden = draw(st.permutations(range(n)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            lo = draw(st.integers(0, n - 1))
            ones = set(hidden[lo : draw(st.integers(lo, n - 1)) + 1])
            rows.append([int(j in ones) for j in range(n)])
        else:
            rows.append(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(c1p_families())
def test_c1p_returns_the_lexicographically_least_order(family):
    n, rows = family
    assert c1p_order(n, rows) == c1p_order_by_search(n, rows)


def test_c1p_deep_nesting_needs_no_recursion(monkeypatch):
    # nested suffixes {j, ..., n - 1} build a chain of nodes about n deep
    n = 400
    rows = [[0] * j + [1] * (n - j) for j in range(1, n - 1)]
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back

    def refuse(limit):
        raise AssertionError("c1p_order changed the recursion limit")

    old = sys.getrecursionlimit()
    set_limit = sys.setrecursionlimit
    set_limit(depth + 40)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        order = c1p_order(n, rows)
    finally:
        set_limit(old)
    assert order == tuple(range(n))


def test_recognize_peaked_single_item():
    inst = make_instance([[4], [0]])
    assert recognize_single_peaked(inst) == (0,)


def test_recognize_peaked_simple_profile():
    inst = make_instance([[3, 1, 2]])
    order = recognize_single_peaked(inst)
    assert order is not None
    assert verify_single_peaked(inst, order)
    # item 0 is the unique peak so it cannot sit in the middle
    assert order.index(0) in (0, 2)


def test_recognize_peaked_odd_cycle_profile():
    inst = make_instance([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert recognize_single_peaked(inst) is None


def test_recognize_crossing_single_voter():
    inst = make_instance([[5, 0, 3]])
    assert recognize_single_crossing(inst) == (0,)


def test_recognize_crossing_two_voters_always_succeeds(rng):
    for _ in range(20):
        inst = make_instance(
            [[rng.randint(0, 3) for _ in range(4)] for _ in range(2)]
        )
        assert recognize_single_crossing(inst) is not None


def test_soundness_on_random_profiles(rng):
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        inst = make_instance(
            [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
        )
        sp = recognize_single_peaked(inst)
        if sp is not None:
            assert verify_single_peaked(inst, sp)
        sc = recognize_single_crossing(inst)
        if sc is not None:
            assert verify_single_crossing(inst, sc)


def test_completeness_against_permutation_search(rng):
    # Exhaustive over tiny shapes, sampled over the rest of the n,m <= 4 box.
    def check(inst):
        assert (recognize_single_peaked(inst) is None) == (
            sp_witness_by_search(inst) is None
        )
        assert (recognize_single_crossing(inst) is None) == (
            sc_witness_by_search(inst) is None
        )

    for n, m in ((1, 3), (2, 2), (3, 2), (2, 3)):
        for flat in itertools.product(range(3), repeat=n * m):
            check(make_instance([flat[i * m : (i + 1) * m] for i in range(n)]))
    for _ in range(800):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        check(make_instance([[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]))


def test_verify_invariant_under_reversal(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        inst = make_instance([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
        iorder = list(range(m))
        rng.shuffle(iorder)
        assert verify_single_peaked(inst, iorder) == verify_single_peaked(
            inst, iorder[::-1]
        )
        vorder = list(range(n))
        rng.shuffle(vorder)
        assert verify_single_crossing(inst, vorder) == verify_single_crossing(
            inst, vorder[::-1]
        )


def test_recognition_is_deterministic(rng):
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        inst = make_instance([[rng.randint(0, 2) for _ in range(m)] for _ in range(n)])
        assert recognize_single_peaked(inst) == recognize_single_peaked(inst)
        assert recognize_single_crossing(inst) == recognize_single_crossing(inst)


def test_recognizer_row_guardrail():
    inst = make_instance([[j for j in range(30)] for _ in range(4)], budget=5)
    with row_cap(10), pytest.raises(GuardrailError):
        recognize_single_peaked(inst)
    # single crossing needs one row per ordered item pair: 30 * 29 of them
    with row_cap(869), pytest.raises(GuardrailError, match="more than 869 constraint rows"):
        recognize_single_crossing(inst)
    with row_cap(870):
        assert recognize_single_crossing(inst) is not None


def _profile(rng, n, m, shape, mutate):
    """An n x m profile: random, peaked along a hidden item order, or affine
    in a voter's point on a line (single-crossing). With ``mutate``, each
    voter is then, with some chance, replaced by an all-zero voter or by a
    copy of an earlier one."""
    if shape == "random":
        rows = [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
    elif shape == "peaked":
        axis = rng.sample(range(m), m)
        rows = []
        for _ in range(n):
            peak, top = rng.randrange(m), rng.randint(2, 5)
            row = [0] * m
            for p, j in enumerate(axis):
                row[j] = max(0, top - abs(p - peak))
            rows.append(row)
    else:
        funcs = [(rng.randint(8, 12), rng.randint(-2, 2)) for _ in range(m)]
        rows = [[a + b * t for a, b in funcs] for t in (rng.randint(0, 3) for _ in range(n))]
    for i in range(n if mutate else 0):
        roll = rng.random()
        if roll < 0.1:
            rows[i] = [0] * m
        elif roll < 0.3 and i:
            rows[i] = list(rows[rng.randrange(i)])
    return make_instance(rows)


def test_recognizers_match_their_rows_by_definition():
    # one voter, one item, ties, all-zero and duplicate voters, and more
    # voters than one 64-bit word holds
    rng = random.Random(19)
    answers = set()
    for n in (1, 2, 3, 7, 64, 65, 130):
        for m in (1, 2, 3, 5, 8):
            for shape in ("random", "peaked", "crossing"):
                for mutate in (False, True, True):
                    inst = _profile(rng, n, m, shape, mutate)
                    sp = recognize_single_peaked(inst)
                    sc = recognize_single_crossing(inst)
                    assert sp == sp_order_by_rows(inst), inst
                    assert sc == sc_order_by_rows(inst), inst
                    answers.update({("sp", n > 64, sp is None), ("sc", n > 64, sc is None)})
    assert len(answers) == 8  # each found and refused, on either side of 64 voters


def test_single_peaked_row_guardrail_boundary():
    # each of the 4 voters has 28 upper level sets of 2 to 29 of the 30
    # items, the same for every voter: the guardrail counts all 112
    inst = make_instance([[j for j in range(30)] for _ in range(4)], budget=5)
    assert len(sp_rows_by_definition(inst)) == 112
    message = "^single-peaked recognition needs more than 111 constraint rows$"
    with row_cap(111), pytest.raises(GuardrailError, match=message):
        recognize_single_peaked(inst)
    with row_cap(112):
        assert recognize_single_peaked(inst) == tuple(range(30))


def test_single_peaked_row_guardrail_counts_every_duplicate_voter():
    # row a has 28 upper level sets of 2 to 29 items and row b has 2; the
    # profile holds a three times and b twice, apart, so 3 * 28 + 2 * 2 = 88
    a = list(range(30))
    b = [0] * 27 + [1, 2, 3]
    inst = make_instance([a, b, a, b, a], budget=5)
    assert len(sp_rows_by_definition(inst)) == 88
    message = "^single-peaked recognition needs more than 87 constraint rows$"
    with row_cap(87), pytest.raises(GuardrailError, match=message):
        recognize_single_peaked(inst)
    with row_cap(88):
        assert recognize_single_peaked(inst) == sp_order_by_rows(inst)


def test_recognizers_compare_huge_utilities_exactly():
    # scaling by 2^70 keeps every comparison, so the orders stay the same
    rng = random.Random(70)
    for _ in range(60):
        n, m = rng.randint(1, 8), rng.randint(1, 6)
        inst = _profile(rng, n, m, rng.choice(("random", "peaked", "crossing")), True)
        scaled = make_instance([[u * 2**70 for u in row] for row in inst.utilities])
        assert recognize_single_peaked(scaled) == recognize_single_peaked(inst)
        assert recognize_single_crossing(scaled) == recognize_single_crossing(inst)
    # each answer rests on 2^63 and 2^63 + 1 comparing unequal: with them
    # merged, as float64 merges them, it is the other way round
    big = 2**63
    sc = make_instance([[0, big + 1, big], [big, big + 1, 0], [big, 0, 0]])
    assert recognize_single_crossing(sc) == sc_order_by_rows(sc) == (0, 1, 2)
    merged = make_instance([[0, big, big], [big, big, 0], [big, 0, 0]])
    assert recognize_single_crossing(merged) is None
    sp = make_instance([[big + 1, 0, big], [big, big + 1, 0], [0, 0, 0], [big, big + 1, big + 1]])
    assert recognize_single_peaked(sp) is sp_order_by_rows(sp) is None
    merged = make_instance([[big, 0, big], [big, big, 0], [0, 0, 0], [big, big, big]])
    assert recognize_single_peaked(merged) == (1, 0, 2)


@pytest.mark.parametrize("scale", (10**4000, 2**62), ids=("10^4000", "2^62"))
@pytest.mark.parametrize("shape", ("peaked", "crossing"))
def test_recognition_finishes_fast_on_huge_numbers(shape, scale):
    # a 40-voter, 16-item profile of the shape, each utility u turned into
    # scale * u + u, which keeps every comparison
    inst = _profile(random.Random(shape), 40, 16, shape, False)
    huge = make_instance([[scale * u + u for u in row] for row in inst.utilities])
    for recognize in (recognize_single_peaked, recognize_single_crossing):
        start = time.perf_counter()
        order = recognize(huge)
        assert time.perf_counter() - start < 2
        assert order == recognize(inst)


def test_weak_preference_masks_match_the_definition_in_every_block():
    # the comparison runs a block of items at a time, about 2^18 cells each:
    # one block for the smallest profiles, two to four for the others
    rng = random.Random(18)
    for n, m in ((1, 4), (2, 3), (65, 70), (130, 64), (300, 40)):
        for shape in ("random", "crossing"):
            inst = _profile(rng, n, m, shape, True)
            masks = _weak_preference_masks(inst.utilities)
            assert len(masks) == len(set(masks))
            assert set(masks) == sc_masks_by_definition(inst)
    huge = make_instance([[u * 2**70 for u in row] for row in inst.utilities])
    assert set(_weak_preference_masks(huge.utilities)) == set(masks)


def test_single_crossing_rows_take_bounded_memory():
    # 300 voters and 150 items make 22,350 ordered pairs, 6.7 MB as bytes
    # compared at once, and as much again filtered
    inst = _profile(random.Random(300), 300, 150, "crossing", False)
    tracemalloc.start()
    try:
        order = recognize_single_crossing(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order is not None and verify_single_crossing(inst, order)
    assert peak < 3 * 2**20
