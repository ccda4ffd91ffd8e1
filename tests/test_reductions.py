"""Generator tests: constructions, preconditions, and decision equivalence.

Each equivalence check compares verify_reduction (brute force on the produced
instance) against a decision oracle that solves the source problem directly.
The heavy exhaustive sweeps live in the acceptance suite; the sweeps here are
small deterministic families.
"""

import itertools

import pytest

from knapvote import (
    Objective,
    ReductionOutput,
    SetSystem,
    SourceGraph,
    ValidationError,
    from_dominating_set,
    from_ersp,
    from_exact_partition,
    from_knapsack,
    from_multicolored_clique,
    from_partition,
    from_x3c,
    recognize_single_crossing,
    validate_instance,
    verify_reduction,
    verify_single_crossing,
    verify_single_peaked,
)
from helpers import (
    disjoint_sets_yes,
    dominating_set_yes,
    exact_partition_yes,
    knapsack_yes,
    multicolored_clique_yes,
    partition_yes,
    x3c_yes,
)

TRIANGLE = SourceGraph(3, ((0, 1), (1, 2), (0, 2)))
COLORED_TRIANGLE = SourceGraph(3, ((0, 1), (1, 2), (0, 2)), coloring=(0, 1, 2))


def item_totals(instance):
    return [
        sum(row[j] for row in instance.utilities) for j in range(instance.num_items)
    ]


# ---------------------------------------------------------------------------
# source containers


def test_source_graph_validation():
    g = SourceGraph(3, ((1, 0), (2, 1)))
    assert g.edges == ((0, 1), (1, 2))  # normalized endpoint order
    with pytest.raises(ValidationError):
        SourceGraph(0, ())
    with pytest.raises(ValidationError):
        SourceGraph(2, ((0, 0),))
    with pytest.raises(ValidationError):
        SourceGraph(2, ((0, 2),))
    with pytest.raises(ValidationError):
        SourceGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError):
        SourceGraph(2, ((0, 1),), coloring=(0,))
    with pytest.raises(ValidationError, match=r"^edge \(0, 1, 2\) must have two endpoints$"):
        SourceGraph(3, ((0, 1, 2),))


def test_set_system_validation():
    sys_ = SetSystem(3, ((2, 0),))
    assert sys_.sets == ((0, 2),)  # elements sorted
    with pytest.raises(ValidationError):
        SetSystem(0, ())
    with pytest.raises(ValidationError):
        SetSystem(2, ((0, 2),))
    with pytest.raises(ValidationError):
        SetSystem(3, ((1, 1),))


@pytest.mark.parametrize(
    "build, message",
    (
        (lambda: from_ersp(2, [(0.5, 1)], 2, 1), "sets[0] must be an array of integers"),
        (lambda: from_knapsack([1], [1], 0.5, 1), "value_target must be an integer"),
        (lambda: from_knapsack([True], [1], 1, 1), "values must be an array of integers"),
        (lambda: from_ersp(2, [(True, 0)], 2, 1), "sets[0] must be an array of integers"),
        (lambda: SourceGraph(2.5, ()), "num_vertices must be an integer"),
        (lambda: SetSystem(2, 3), "sets must be an array of arrays"),
        (lambda: SourceGraph(3, ((0, "1"),)), "edges[0] must be an array of integers"),
        (lambda: from_exact_partition([2, 2], "1"), "k must be an integer"),
    ),
    ids=(
        "ersp-float-element",
        "knapsack-float-target",
        "knapsack-bool-value",
        "ersp-bool-element",
        "graph-float-vertex-count",
        "set-system-int-sets",
        "graph-str-endpoint",
        "exact-partition-str-k",
    ),
)
def test_generator_inputs_of_the_wrong_type_are_refused(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    (
        (lambda: from_dominating_set(((0, 1),), 1), "graph must be a SourceGraph"),
        (lambda: from_multicolored_clique(((0, 1),), 2), "graph must be a SourceGraph"),
        (lambda: from_x3c([[0, 1, 2]] * 3), "system must be a SetSystem"),
    ),
    ids=("dominating-set-tuple", "clique-tuple", "x3c-list"),
)
def test_generator_source_objects_of_the_wrong_type_are_refused(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# knapsack


def test_knapsack_construction():
    red = from_knapsack((1, 2), (1, 2), 2, 2)
    assert red.kind is Objective.DIVERSE
    assert red.instance.utilities == ((12, 3), (1, 24))
    assert red.instance.costs == (1, 2)
    assert red.instance.budget == 2
    assert red.threshold == 24
    assert verify_reduction(red, True)
    # x = 0 is always reachable via the empty selection
    assert from_knapsack((1,), (1,), 0, 0).threshold == 0
    assert verify_reduction(from_knapsack((1,), (1,), 0, 0), True)


def test_knapsack_witnesses_verify():
    red = from_knapsack((3, 1, 2), (2, 2, 1), 4, 3)
    assert red.sp_witness == (0, 1, 2)
    assert red.sc_witness == (0, 1, 2)
    assert verify_single_peaked(red.instance, red.sp_witness)
    assert verify_single_crossing(red.instance, red.sc_witness)


def test_knapsack_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        from_knapsack((), (), 0, 0)
    with pytest.raises(ValidationError):
        from_knapsack((0, 1), (1, 1), 1, 1)
    with pytest.raises(ValidationError):
        from_knapsack((1, 1), (1,), 1, 1)
    with pytest.raises(ValidationError):
        from_knapsack((1,), (1,), -1, 0)
    with pytest.raises(ValidationError, match="^weight at index 0 must be >= 1$"):
        from_knapsack((1,), (0,), 1, 1)


def test_knapsack_equivalence_sweep():
    for values in itertools.product((1, 2), repeat=2):
        for weights in itertools.product((1, 2), repeat=2):
            for x in range(5):
                for y in range(4):
                    red = from_knapsack(values, weights, x, y)
                    assert verify_reduction(
                        red, knapsack_yes(values, weights, x, y)
                    )


# ---------------------------------------------------------------------------
# partition


def test_partition_construction():
    red = from_partition((2, 2))
    assert red.kind is Objective.FAIR
    assert red.instance.num_voters == 1
    assert red.instance.costs == (2, 2)
    assert red.instance.budget == 2
    assert red.threshold == 3
    assert verify_reduction(red, True)
    assert from_partition((2, 4)).threshold == 4
    assert verify_reduction(from_partition((2, 4)), False)


def test_partition_rejects_bad_entries():
    with pytest.raises(ValidationError):
        from_partition(())
    with pytest.raises(ValidationError):
        from_partition((2, 3))
    with pytest.raises(ValidationError):
        from_partition((0, 2))


def test_partition_equivalence_sweep():
    for size in range(1, 4):
        for entries in itertools.combinations_with_replacement((2, 4, 6), size):
            assert verify_reduction(from_partition(entries), partition_yes(entries))


# ---------------------------------------------------------------------------
# exact partition


def test_exact_partition_construction():
    red = from_exact_partition((2, 2), 1)
    assert red.instance.utilities == ((6, 6), (6, 6))
    assert red.instance.costs == (1, 1)
    assert red.instance.budget == 1
    assert red.threshold == 49
    assert verify_reduction(red, True)
    red2 = from_exact_partition((2, 4), 1)
    assert red2.threshold == 100
    assert verify_reduction(red2, False)


def test_exact_partition_allows_fewer_entries_than_k():
    red = from_exact_partition((4,), 2)  # cannot pick 2 entries: a "no" source
    assert verify_reduction(red, False)


def test_exact_partition_rejects_bad_entries():
    with pytest.raises(ValidationError):
        from_exact_partition((2, 2), 0)
    with pytest.raises(ValidationError):
        from_exact_partition((3,), 1)
    with pytest.raises(ValidationError):
        from_exact_partition((6,), 4)  # even but not divisible by k


def test_exact_partition_equivalence_sweep():
    for k in (1, 2):
        pool = (2, 4, 6, 8) if k == 1 else (4, 8)
        for size in range(1, 4):
            for entries in itertools.combinations_with_replacement(pool, size):
                red = from_exact_partition(entries, k)
                assert verify_reduction(red, exact_partition_yes(entries, k))


# ---------------------------------------------------------------------------
# exact regular set packing


def test_ersp_construction():
    red = from_ersp(2, SetSystem(2, ((0,), (1,))), 1, 2)
    assert red.threshold == 4
    assert red.instance.utilities == ((1, 0), (0, 1))
    assert red.instance.budget == 2
    assert verify_reduction(red, True)
    red2 = from_ersp(1, SetSystem(1, ((0,), (0,))), 1, 2)
    assert red2.threshold == 4
    assert verify_reduction(red2, False)


def test_ersp_accepts_raw_set_lists():
    red = from_ersp(3, [(0, 1), (1, 2)], 2, 1)
    assert red.instance.num_items == 2
    assert verify_reduction(red, True)


def test_ersp_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        from_ersp(3, SetSystem(2, ((0,),)), 1, 1)  # universe size mismatch
    with pytest.raises(ValidationError):
        from_ersp(2, SetSystem(2, ((0, 1),)), 1, 1)  # wrong set size
    with pytest.raises(ValidationError):
        from_ersp(2, SetSystem(2, ((0,),)), 1, 0)
    with pytest.raises(ValidationError):
        from_ersp(2, SetSystem(2, ()), 1, 1)
    with pytest.raises(ValidationError, match="^d must be >= 1$"):
        from_ersp(2, SetSystem(2, ((0,),)), 0, 1)


def test_ersp_equivalence_sweep():
    for d in (1, 2):
        universe = 3
        pool = list(itertools.combinations(range(universe), d))
        for count in range(1, 4):
            for sets in itertools.combinations_with_replacement(pool, count):
                for k in (1, 2):
                    red = from_ersp(universe, SetSystem(universe, sets), d, k)
                    assert verify_reduction(red, disjoint_sets_yes(sets, k))


# ---------------------------------------------------------------------------
# dominating set


def test_dominating_set_construction():
    red = from_dominating_set(TRIANGLE, 1)
    assert red.kind is Objective.DIVERSE
    assert red.threshold == 3
    assert red.instance.budget == 1
    assert verify_reduction(red, True)
    path = SourceGraph(3, ((0, 1), (1, 2)))
    assert verify_reduction(from_dominating_set(path, 1), True)
    isolated = SourceGraph(2, ())
    assert verify_reduction(from_dominating_set(isolated, 1), False)
    with pytest.raises(ValidationError):
        from_dominating_set(TRIANGLE, 0)


def test_dominating_set_equivalence_sweep():
    n = 4
    all_edges = list(itertools.combinations(range(n), 2))
    for r in range(len(all_edges) + 1):
        for edges in itertools.combinations(all_edges, r):
            g = SourceGraph(n, edges)
            for k in (1, 2):
                red = from_dominating_set(g, k)
                assert verify_reduction(red, dominating_set_yes(n, edges, k))


# ---------------------------------------------------------------------------
# multicolored clique


def test_multicolored_clique_construction():
    red = from_multicolored_clique(COLORED_TRIANGLE, 3)
    inst = red.instance
    assert inst.num_items == 6  # 3 vertices + 3 edges
    assert inst.num_voters == 18
    assert inst.budget == 6
    assert red.threshold == 4**18
    assert set(inst.costs) == {1}
    assert verify_reduction(red, True)
    missing = SourceGraph(3, ((0, 1), (1, 2)), coloring=(0, 1, 2))
    assert verify_reduction(from_multicolored_clique(missing, 3), False)


def test_multicolored_clique_voter_count_identity():
    for k in range(2, 7):
        budget = k + k * (k - 1) // 2
        assert k + (k - 2) * (k * (k - 1) // 2) + 2 * k * (k - 1) == k * budget


def test_multicolored_clique_item_totals():
    for graph, k in (
        (COLORED_TRIANGLE, 3),
        (SourceGraph(4, ((0, 1), (0, 2), (1, 3)), coloring=(0, 1, 1, 0)), 2),
    ):
        red = from_multicolored_clique(graph, k)
        t = graph.num_vertices
        assert all(total == k * t for total in item_totals(red.instance))
        assert red.instance.num_voters == k * red.instance.budget


def test_multicolored_clique_drops_same_color_edges():
    g = SourceGraph(4, ((0, 1), (0, 2), (2, 3)), coloring=(0, 0, 1, 1))
    red = from_multicolored_clique(g, 2)
    # edges 0-1 and 2-3 join same-colored vertices and cannot appear as items
    assert red.instance.item_names == ("v0", "v1", "v2", "v3", "e0-2")
    assert set(red.back_map) == set(red.instance.item_names)


def test_multicolored_clique_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        from_multicolored_clique(COLORED_TRIANGLE, 1)
    with pytest.raises(ValidationError):
        from_multicolored_clique(TRIANGLE, 3)  # no coloring
    with pytest.raises(ValidationError):
        from_multicolored_clique(
            SourceGraph(3, (), coloring=(0, 1, 5)), 3
        )  # color out of range
    with pytest.raises(ValidationError):
        from_multicolored_clique(
            SourceGraph(3, (), coloring=(0, 0, 1)), 3
        )  # a color never appears


def test_multicolored_clique_equivalence_sweep():
    coloring = (0, 1, 2, 0)
    inter = [
        (u, v)
        for u, v in itertools.combinations(range(4), 2)
        if coloring[u] != coloring[v]
    ]
    for r in range(len(inter) + 1):
        for edges in itertools.combinations(inter, r):
            g = SourceGraph(4, edges, coloring=coloring)
            red = from_multicolored_clique(g, 3)
            expected = multicolored_clique_yes(4, edges, coloring, 3)
            assert verify_reduction(red, expected)


# ---------------------------------------------------------------------------
# exact cover by 3-sets


def test_x3c_construction():
    red = from_x3c(SetSystem(3, ((0, 1, 2),) * 3))
    inst = red.instance
    assert inst.num_items == 6
    assert inst.budget == 2
    assert red.threshold == 7**8 * 8**6
    assert set(inst.costs) == {1}
    assert verify_reduction(red, True)


def test_x3c_item_totals_and_utility_range():
    cases = [
        SetSystem(3, ((0, 1, 2),) * 3),
        SetSystem(6, ((0, 1, 2),) * 3 + ((3, 4, 5),) * 3),
        SetSystem(
            6,
            (
                (0, 1, 2),
                (1, 2, 3),
                (2, 3, 4),
                (3, 4, 5),
                (4, 5, 0),
                (5, 0, 1),
            ),
        ),
    ]
    for system in cases:
        red = from_x3c(system)
        m = len(system.sets)
        n = system.universe_size
        assert all(
            total == 6 + 6 * m + 6 * n + 3 for total in item_totals(red.instance)
        )
        assert all(0 <= cell <= 6 for row in red.instance.utilities for cell in row)
        assert set(red.instance.costs) == {1}
        assert verify_reduction(red, x3c_yes(n, system.sets))


def test_x3c_sp_witness_verifies():
    red = from_x3c(SetSystem(3, ((0, 1, 2),) * 3))
    assert red.sp_witness == tuple(range(6))
    assert verify_single_peaked(red.instance, red.sp_witness)


def test_x3c_sc_witness_is_a_voter_order():
    # the cover-source profile admits no crossing order, so none is recorded
    red = from_x3c(SetSystem(3, ((0, 1, 2),) * 3))
    assert red.sc_witness is None
    assert recognize_single_crossing(red.instance) is None


def test_x3c_rejects_irregular_systems():
    with pytest.raises(ValidationError):
        from_x3c(SetSystem(4, ((0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3))))
    with pytest.raises(ValidationError):
        from_x3c(SetSystem(3, ((0, 1, 2), (0, 1, 2))))  # fewer sets than elements
    with pytest.raises(ValidationError):
        from_x3c(SetSystem(3, ((0, 1), (0, 1, 2), (0, 1, 2))))
    with pytest.raises(ValidationError):
        # element 0 appears four times, element 3 only twice
        from_x3c(
            SetSystem(6, ((0, 1, 2),) * 4 + ((3, 4, 5),) * 2)
        )


# ---------------------------------------------------------------------------
# shared output discipline


def all_example_outputs():
    return [
        from_knapsack((1, 2), (1, 2), 2, 2),
        from_partition((2, 4)),
        from_exact_partition((2, 2), 1),
        from_ersp(2, SetSystem(2, ((0,), (1,))), 1, 2),
        from_dominating_set(TRIANGLE, 1),
        from_multicolored_clique(COLORED_TRIANGLE, 3),
        from_x3c(SetSystem(3, ((0, 1, 2),) * 3)),
    ]


def test_outputs_are_valid_instances_with_complete_back_maps():
    for red in all_example_outputs():
        assert isinstance(red, ReductionOutput)
        assert validate_instance(red.instance) == []
        assert set(red.back_map) == set(red.instance.item_names)
        assert red.threshold >= 0


def test_verify_reduction_detects_mismatches():
    assert not verify_reduction(from_partition((2, 2)), False)
    assert not verify_reduction(from_dominating_set(SourceGraph(2, ()), 1), True)
