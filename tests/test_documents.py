"""Document layer: strict parsing, deterministic emission, exact round trips."""

import json
import random

import pytest

from knapvote import (
    ValidationError,
    emit_instance,
    emit_reduction_metadata,
    emit_solution,
    from_knapsack,
    from_x3c,
    make_solution,
    parse_instance,
    parse_order,
    SetSystem,
)
from knapvote.documents import _decimal_to_int, _int_to_decimal
from conftest import grouped_instance, make_instance, random_instance

MINIMAL = json.dumps(
    {
        "voters": 1,
        "items": [{"name": "a", "cost": 1}],
        "utilities": [[0]],
        "budget": 0,
    }
)


def doc_with(**overrides):
    doc = json.loads(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def test_minimal_document_parses():
    inst = parse_instance(MINIMAL)
    assert inst.num_voters == 1
    assert inst.item_names == ("a",)
    assert inst.costs == (1,)
    assert inst.budget == 0


def test_malformed_json_reports_position():
    with pytest.raises(ValidationError, match="line 1"):
        parse_instance("{not json")


def test_top_level_shape_errors():
    with pytest.raises(ValidationError, match="top-level"):
        parse_instance("[1, 2]")
    with pytest.raises(ValidationError, match="unknown key"):
        parse_instance(doc_with(comment="hi"))
    doc = json.loads(MINIMAL)
    del doc["budget"]
    with pytest.raises(ValidationError, match="missing key"):
        parse_instance(json.dumps(doc))


def test_integer_fields_reject_floats_and_bools():
    with pytest.raises(ValidationError, match='"voters" must be an integer'):
        parse_instance(doc_with(voters=1.0))
    with pytest.raises(ValidationError, match='"voters" must be an integer'):
        parse_instance(doc_with(voters=True))
    with pytest.raises(ValidationError, match='"budget" must be an integer'):
        parse_instance(doc_with(budget=0.5))
    with pytest.raises(ValidationError, match=r"utilities\[0\]\[0\] must be an integer"):
        parse_instance(doc_with(utilities=[[False]]))
    with pytest.raises(ValidationError, match=r"utilities\[0\]\[0\] must be an integer"):
        parse_instance(doc_with(utilities=[[1.5]]))
    with pytest.raises(ValidationError, match=r"items\[0\].cost must be an integer"):
        parse_instance(doc_with(items=[{"name": "a", "cost": 1.0}]))


@pytest.mark.parametrize("bad", (True, 2.5, "3", None))
def test_utilities_name_the_first_bad_cell_past_good_ones(bad):
    # the rows before it and the other cells of its row are integers; a
    # later row holds a float and a negative
    rows = [[0, 1, 2**70], [3, 4, bad, 5], [-1, 1.5]]
    message = r"^utilities\[1\]\[2\] must be an integer$"
    with pytest.raises(ValidationError, match=message):
        parse_instance(doc_with(utilities=rows))


def test_item_entry_schemas():
    with pytest.raises(ValidationError, match=r"items\[0\] must be an object"):
        parse_instance(doc_with(items=["a"]))
    with pytest.raises(ValidationError, match=r"items\[0\] has unknown key"):
        parse_instance(doc_with(items=[{"name": "a", "cost": 1, "tag": 2}]))
    with pytest.raises(ValidationError, match=r'items\[0\] needs both "name" and "cost"'):
        parse_instance(doc_with(items=[{"name": "a"}]))
    with pytest.raises(ValidationError, match=r"items\[0\].name must be a string"):
        parse_instance(doc_with(items=[{"name": 3, "cost": 1}]))


def test_voter_count_must_match_matrix():
    with pytest.raises(ValidationError, match='"voters" is 2'):
        parse_instance(doc_with(voters=2))


def test_semantic_validation_applies_after_parsing():
    # negative utility parses as JSON but fails instance validation by cell
    with pytest.raises(ValidationError, match="voter 0, item 0"):
        parse_instance(doc_with(utilities=[[-1]]))
    with pytest.raises(ValidationError):
        parse_instance(doc_with(items=[{"name": "a", "cost": 0}]))


def test_round_trip_identity(rng):
    for _ in range(50):
        inst = random_instance(rng)
        assert parse_instance(emit_instance(inst)) == inst


def test_emission_is_deterministic():
    inst = make_instance([[1, 2], [3, 4]], costs=[1, 2], budget=3)
    assert emit_instance(inst) == emit_instance(inst)
    text = emit_instance(inst)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == ["voters", "items", "utilities", "budget"]


def test_emit_solution_exact_values():
    inst = grouped_instance()
    # 3 items from the first group, 2 from the second, 1 from the third
    sol = make_solution(inst, "fair", (0, 1, 2, 6, 7, 9), "bruteforce")
    doc = json.loads(emit_solution(inst, sol))
    assert doc["value"] == str(4**300 * 3**200 * 2**100)
    assert doc["selected"] == ["A1_0", "A1_1", "A1_2", "A2_0", "A2_1", "A3_0"]
    assert doc["total_cost"] == 6
    assert doc["objective"] == "fair"
    assert "approximate" not in doc
    assert "meets_threshold" not in doc
    # all six items from the first group concentrate everything on one block
    six = make_solution(inst, "fair", range(6), "bruteforce")
    assert json.loads(emit_solution(inst, six))["value"] == str(7**300)


def test_emit_solution_empty_fair_selection():
    inst = make_instance([[5]], budget=0)
    doc = json.loads(emit_solution(inst, make_solution(inst, "fair", (), "bruteforce")))
    assert doc["value"] == "1"
    assert doc["selected"] == []
    assert doc["per_voter_utility"] == [0]


def test_emit_solution_flags():
    inst = make_instance([[2, 1]], costs=[1, 1], budget=2)
    greedy = make_solution(inst, "diverse", (0,), "greedy-approximate")
    doc = json.loads(emit_solution(inst, greedy, meets_threshold=False))
    assert doc["approximate"] is True
    assert doc["meets_threshold"] is False
    exact = make_solution(inst, "ib", (0, 1), "ib-dp")
    doc2 = json.loads(emit_solution(inst, exact, meets_threshold=True))
    assert "approximate" not in doc2
    assert doc2["meets_threshold"] is True
    assert doc2["value"] == "3"


def test_emit_reduction_metadata():
    red = from_x3c(SetSystem(3, ((0, 1, 2),) * 3))
    doc = json.loads(emit_reduction_metadata(red))
    assert doc["objective"] == "fair"
    assert doc["threshold"] == str(7**8 * 8**6)
    assert doc["sp_witness"] == list(range(6))
    assert doc["sc_witness"] is None
    assert set(doc["back_map"]) == set(red.instance.item_names)
    knap = from_knapsack((1, 2, 3), (1, 1, 1), 3, 2)
    doc = json.loads(emit_reduction_metadata(knap))
    assert doc["sp_witness"] == [0, 1, 2]
    assert doc["sc_witness"] == [0, 1, 2]


def test_parse_order():
    assert parse_order("[2, 0, 1]") == (2, 0, 1)
    assert parse_order("[]") == ()
    with pytest.raises(ValidationError):
        parse_order('{"order": [1]}')
    with pytest.raises(ValidationError):
        parse_order("[1, true]")
    with pytest.raises(ValidationError):
        parse_order("[1.5]")


def test_decimal_round_trip_past_the_digit_limit():
    # values are built 100 digits at a time, never through one long int()/str()
    rng = random.Random(7)
    for length in (1, 499, 500, 501, 1500, 4300, 4301, 9001):
        text = str(rng.randint(1, 9)) + "".join(
            str(rng.randint(0, 9)) for _ in range(length - 1)
        )
        value = 0
        for start in range(0, length, 100):
            chunk = text[start : start + 100]
            value = value * 10 ** len(chunk) + int(chunk)
        assert _decimal_to_int(text) == value
        assert _int_to_decimal(value) == text
        assert _decimal_to_int("-" + text) == -value
        assert _int_to_decimal(-value) == "-" + text
    assert _int_to_decimal(10**5000) == "1" + "0" * 5000
    assert _int_to_decimal(10**5000 - 1) == "9" * 5000
    assert _int_to_decimal(0) == "0"
    assert _decimal_to_int("0" * 6000 + "42") == 42
