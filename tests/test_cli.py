"""Command-line interface: exit codes, JSON output, and file handling.

Commands run in-process through main(argv); one subprocess test checks the
module is runnable as a script.
"""

import argparse
import json
import subprocess
import sys
import time

import pytest

from knapvote import (
    Objective,
    ValidationError,
    emit_instance,
    recognize_single_crossing,
    solve_diverse_sc,
)
from knapvote.cli import _build_parser, main
from knapvote.documents import _decimal_to_int
from knapvote.solvers import _ROUTES
from conftest import grouped_instance, make_instance

NON_PEAKED = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


@pytest.fixture
def write_instance(tmp_path):
    counter = [0]

    def _write(inst):
        counter[0] += 1
        path = tmp_path / f"inst{counter[0]}.json"
        path.write_text(emit_instance(inst))
        return str(path)

    return _write


@pytest.fixture
def classic(write_instance):
    # two voters, three items; budget admits any two items
    return write_instance(
        make_instance([[3, 1, 2], [1, 4, 2]], costs=[2, 2, 1], budget=3)
    )


# ---------------------------------------------------------------------------
# solve


def test_solve_each_exact_method(run, classic):
    for objective, method in (
        ("ib", "ib-dp"),
        ("ib", "bruteforce"),
        ("diverse", "sc-dp"),
        ("diverse", "fpt"),
        ("fair", "xp-dp"),
        ("diverse", "auto"),
    ):
        code, out, _ = run("solve", "--objective", objective, "--method", method, classic)
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == objective
        assert doc["total_cost"] <= 3
        assert isinstance(doc["value"], str)
        assert "approximate" not in doc


def test_solve_greedy_marks_approximate(run, classic):
    code, out, _ = run("solve", "--objective", "diverse", "--method", "greedy", classic)
    assert code == 0
    assert json.loads(out)["approximate"] is True


def test_solve_sp_dp_on_peaked_instance(run, write_instance):
    path = write_instance(make_instance([[1, 3, 2], [0, 2, 4]], budget=2))
    code, out, _ = run("solve", "--objective", "diverse", "--method", "sp-dp", path)
    assert code == 0
    assert json.loads(out)["method"] == "sp-dp"


def test_solve_sp_dp_rejects_unpeaked_instance(run, write_instance):
    path = write_instance(make_instance(NON_PEAKED, budget=1))
    code, _, err = run("solve", "--objective", "diverse", "--method", "sp-dp", path)
    assert code == 2
    assert "single-peaked" in err


def test_solve_method_objective_mismatch(run, classic):
    for objective, method in (
        ("diverse", "ib-dp"),
        ("ib", "sp-dp"),
        ("fair", "sc-dp"),
        ("ib", "fpt"),
        ("diverse", "xp-dp"),
    ):
        code, _, err = run("solve", "--objective", objective, "--method", method, classic)
        assert code == 2
        assert "requires" in err


def test_solve_threshold_decision(run, classic):
    # ib optimum: items a1 (cost 2) + a2 (cost 1) give 4 + 2 + ... = evaluate
    code, out, _ = run(
        "solve", "--objective", "ib", "--method", "ib-dp", "--threshold", "5", classic
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meets_threshold"] is True
    assert int(doc["value"]) >= 5
    code, out, _ = run(
        "solve", "--objective", "ib", "--method", "ib-dp", "--threshold", "99", classic
    )
    assert code == 4
    assert json.loads(out)["meets_threshold"] is False


def test_solve_threshold_must_be_decimal(run, classic):
    code, _, err = run(
        "solve", "--objective", "ib", "--threshold", "1e5", classic
    )
    assert code == 2
    assert "decimal" in err


def test_solve_guardrail_exit(run, classic):
    code, _, err = run(
        "solve", "--objective", "ib", "--method", "ib-dp", "--max-cells", "1", classic
    )
    assert code == 3
    assert "cells" in err


def test_solve_fpt_voter_cap(run, write_instance):
    path = write_instance(make_instance([[1]] * 9, budget=1))
    code, _, err = run(
        "solve", "--objective", "diverse", "--method", "fpt", "--max-fpt-voters", "8", path
    )
    assert code == 3
    assert "voters" in err


@pytest.mark.parametrize(
    "field, value, message",
    (
        ("items", 3, '"items" must be an array'),
        ("utilities", 3, '"utilities" must be an array of arrays'),
        ("utilities", [3], "utilities[0] must be an array"),
    ),
)
def test_solve_refuses_malformed_documents(run, tmp_path, field, value, message):
    doc = {"voters": 1, "items": [{"name": "a", "cost": 1}], "utilities": [[0]], "budget": 0}
    doc[field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("solve", "--objective", "ib", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_solve_missing_file(run):
    code, _, err = run("solve", "--objective", "ib", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in err


def test_bad_flag_values_exit_2(classic):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--objective", "entropy", classic])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--objective", "ib", "--method", "magic", classic])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# check-domain


def test_check_domain_recognizes_order(run, write_instance):
    path = write_instance(make_instance([[1, 3, 2], [0, 2, 4]], budget=0))
    code, out, _ = run("check-domain", "--kind", "sp", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "sp"
    assert sorted(doc["order"]) == [0, 1, 2]


def test_check_domain_reports_none(run, write_instance):
    path = write_instance(make_instance(NON_PEAKED, budget=0))
    code, out, _ = run("check-domain", "--kind", "sp", path)
    assert code == 4
    assert json.loads(out)["order"] == "none"


def test_check_domain_verify_mode(run, write_instance, tmp_path):
    path = write_instance(make_instance([[1, 3, 2]], budget=0))
    good = tmp_path / "good.json"
    good.write_text("[0, 1, 2]")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 0, 2]")
    code, out, _ = run("check-domain", "--kind", "sp", "--order", str(good), path)
    assert code == 0
    assert json.loads(out) == {"kind": "sp", "valid": True}
    code, out, _ = run("check-domain", "--kind", "sp", "--order", str(bad), path)
    assert code == 4
    assert json.loads(out) == {"kind": "sp", "valid": False}


def test_check_domain_crossing(run, write_instance):
    path = write_instance(make_instance([[0, 2], [2, 0]], budget=0))
    code, out, _ = run("check-domain", "--kind", "sc", path)
    assert code == 0
    assert sorted(json.loads(out)["order"]) == [0, 1]


def test_check_domain_verifies_a_crossing_order(run, write_instance, tmp_path):
    # voters 0 and 2 weakly prefer item 0 to item 1, and voter 1 does not
    path = write_instance(make_instance([[3, 0], [0, 3], [2, 1]], budget=0))
    for order, code_wanted, valid in (("[0, 2, 1]", 0, True), ("[0, 1, 2]", 4, False)):
        order_path = tmp_path / "order.json"
        order_path.write_text(order)
        code, out, _ = run("check-domain", "--kind", "sc", "--order", str(order_path), path)
        assert code == code_wanted
        assert json.loads(out) == {"kind": "sc", "valid": valid}


def test_check_domain_malformed_order_file(run, write_instance, tmp_path):
    path = write_instance(make_instance([[1, 2]], budget=0))
    order = tmp_path / "order.json"
    order.write_text('{"0": 1}')
    code, _, err = run("check-domain", "--kind", "sp", "--order", str(order), path)
    assert code == 2
    assert "array of integers" in err


# ---------------------------------------------------------------------------
# generate


def params_file(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_generate_writes_instance_and_metadata(run, tmp_path):
    params = params_file(tmp_path, "p", {"entries": [2, 2]})
    out_path = tmp_path / "inst.json"
    code, out, _ = run(
        "generate", "--reduction", "partition", "--params", params, "--out", str(out_path)
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["objective"] == "fair"
    assert meta["threshold"] == "3"
    assert meta["sp_witness"] is None
    assert set(meta["back_map"]) == {"entry0", "entry1"}
    doc = json.loads(out_path.read_text())
    assert doc["budget"] == 2
    assert doc["items"] == [
        {"name": "entry0", "cost": 2},
        {"name": "entry1", "cost": 2},
    ]


def test_generate_then_solve_decision_pipeline(run, tmp_path):
    # yes-source: threshold reached, exit 0; no-source: exit 4
    for entries, expected in (([2, 2], 0), ([2, 4], 4)):
        params = params_file(tmp_path, f"p{expected}", {"entries": entries})
        out_path = tmp_path / f"gen{expected}.json"
        code, out, _ = run(
            "generate", "--reduction", "partition", "--params", params, "--out", str(out_path)
        )
        assert code == 0
        threshold = json.loads(out)["threshold"]
        code, out, _ = run(
            "solve",
            "--objective",
            "fair",
            "--method",
            "xp-dp",
            "--threshold",
            threshold,
            str(out_path),
        )
        assert code == expected


def test_generate_all_reductions(run, tmp_path):
    cases = {
        "knapsack": {"values": [1, 2], "weights": [1, 2], "value_target": 2, "weight_budget": 2},
        "partition": {"entries": [2, 4]},
        "exact-partition": {"entries": [2, 2], "k": 1},
        "ersp": {"universe_size": 2, "sets": [[0], [1]], "d": 1, "k": 2},
        "dominating-set": {"num_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "k": 1},
        "multicolored-clique": {
            "num_vertices": 3,
            "edges": [[0, 1], [1, 2], [0, 2]],
            "coloring": [0, 1, 2],
            "k": 3,
        },
        "x3c": {"universe_size": 3, "sets": [[0, 1, 2], [0, 1, 2], [0, 1, 2]]},
    }
    for name, payload in cases.items():
        params = params_file(tmp_path, name, payload)
        out_path = tmp_path / f"{name}-inst.json"
        code, out, _ = run(
            "generate", "--reduction", name, "--params", params, "--out", str(out_path)
        )
        assert code == 0, name
        meta = json.loads(out)
        assert meta["threshold"].isdigit()
        assert json.loads(out_path.read_text())["voters"] >= 1


def test_generate_ersp_past_its_sets_is_quick(run, tmp_path):
    # with k past the m sets no k disjoint sets exist, and the threshold is
    # 2^(d(m + 1)), out of reach, not 2^(dk), whose digits grow with k
    payload = {"universe_size": 3, "sets": [[0, 1, 2]], "d": 3, "k": 10**9}
    params = params_file(tmp_path, "ersp", payload)
    out_path = tmp_path / "ersp-inst.json"
    start = time.perf_counter()
    code, out, _ = run(
        "generate", "--reduction", "ersp", "--params", params, "--out", str(out_path)
    )
    assert (code, time.perf_counter() - start < 1) == (0, True)
    threshold = json.loads(out)["threshold"]
    assert threshold == str(2**6)
    code, _, _ = run("solve", "--objective", "fair", "--threshold", threshold, str(out_path))
    assert code == 4  # one set: no packing of 10^9


def test_generate_rejects_bad_params(run, tmp_path):
    bad_key = params_file(tmp_path, "bad1", {"entries": [2], "extra": 1})
    code, _, err = run(
        "generate", "--reduction", "partition", "--params", bad_key, "--out", "/dev/null"
    )
    assert code == 2
    assert "unknown parameter" in err
    missing = params_file(tmp_path, "bad2", {})
    code, _, err = run(
        "generate", "--reduction", "partition", "--params", missing, "--out", "/dev/null"
    )
    assert code == 2
    assert "missing parameter" in err
    not_json = tmp_path / "bad3.json"
    not_json.write_text("{oops")
    code, _, err = run(
        "generate", "--reduction", "partition", "--params", str(not_json), "--out", "/dev/null"
    )
    assert code == 2
    assert "invalid JSON" in err
    odd = params_file(tmp_path, "bad4", {"entries": [3]})
    code, _, err = run(
        "generate", "--reduction", "partition", "--params", odd, "--out", "/dev/null"
    )
    assert code == 2


@pytest.mark.parametrize(
    "reduction, payload, message",
    (
        ("partition", [1], "parameter file must hold a JSON object"),
        ("partition", {"entries": [2.5]}, "entries must be an array of integers"),
        ("exact-partition", {"entries": [2, 2], "k": "1"}, "k must be an integer"),
        (
            "ersp",
            {"universe_size": 2, "sets": 3, "d": 1, "k": 1},
            "sets must be an array of arrays",
        ),
        (
            "dominating-set",
            {"num_vertices": 3, "edges": 3, "k": 1},
            "edges must be an array of two-element arrays",
        ),
        (
            "dominating-set",
            {"num_vertices": 3, "edges": [[0, 1, 2]], "k": 1},
            "edges[0] must have exactly two endpoints",
        ),
    ),
)
def test_generate_refuses_malformed_parameters(run, tmp_path, reduction, payload, message):
    params = params_file(tmp_path, "params", payload)
    out_path = tmp_path / "inst.json"
    code, out, err = run(
        "generate", "--reduction", reduction, "--params", params, "--out", str(out_path)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_selection(run, classic):
    code, out, _ = run(
        "evaluate", "--objective", "ib", "--selection", "a0,a2", classic
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["selected"] == ["a0", "a2"]
    assert doc["total_cost"] == 3
    assert doc["value"] == str((3 + 2) + (1 + 2))
    assert doc["per_voter_utility"] == [5, 3]
    assert doc["feasible"] is True


def test_diverse_per_voter_utility_is_each_voters_best_item(run, write_instance):
    # the diverse value counts each voter's best item, 3 + 5; the additive
    # sums [4, 6] stay the per-voter utilities of ib and fair
    path = write_instance(make_instance([[3, 1], [1, 5]], costs=[1, 1], budget=2))
    code, out, err = run("solve", "--objective", "diverse", path)
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["selected"], doc["value"]) == (["a0", "a1"], "8")
    assert doc["per_voter_utility"] == [3, 5]
    for objective, per_voter in (("diverse", [3, 5]), ("ib", [4, 6]), ("fair", [4, 6])):
        code, out, err = run(
            "evaluate", "--objective", objective, "--selection", "a0,a1", path
        )
        assert code == 0, err
        assert json.loads(out)["per_voter_utility"] == per_voter


def test_evaluate_infeasible_selection_still_scores(run, classic):
    code, out, _ = run(
        "evaluate", "--objective", "fair", "--selection", "a0,a1,a2", classic
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["value"] == str((1 + 6) * (1 + 7))


def test_evaluate_empty_selection(run, classic):
    code, out, _ = run("evaluate", "--objective", "fair", "--selection", "", classic)
    assert code == 0
    doc = json.loads(out)
    assert doc["selected"] == []
    assert doc["value"] == "1"


def test_evaluate_reports_what_solve_printed(run, write_instance):
    path = write_instance(
        make_instance(
            [[3, 1, 2, 0], [1, 4, 2, 5], [0, 2, 2, 1]], costs=[2, 2, 1, 3], budget=5
        )
    )
    for objective in Objective:
        code, out, err = run("solve", "--objective", objective.value, path)
        assert code == 0, err
        solved = json.loads(out)
        code, out, err = run(
            "evaluate",
            "--objective",
            objective.value,
            "--selection",
            ",".join(solved["selected"]),
            path,
        )
        assert code == 0, err
        evaluated = json.loads(out)
        for key in ("objective", "selected", "total_cost", "value", "per_voter_utility"):
            assert evaluated[key] == solved[key], (objective, key)


def test_evaluate_rejects_unknown_or_repeated_names(run, classic):
    code, _, err = run("evaluate", "--objective", "ib", "--selection", "zz", classic)
    assert code == 2
    assert "unknown item name" in err
    code, _, err = run("evaluate", "--objective", "ib", "--selection", "a0,a0", classic)
    assert code == 2
    assert "repeats" in err


def test_evaluate_grouped_instance_names(run, write_instance):
    path = write_instance(grouped_instance())
    code, out, _ = run(
        "evaluate",
        "--objective",
        "fair",
        "--selection",
        "A1_0,A1_1,A1_2,A2_0,A2_1,A3_0",
        path,
    )
    assert code == 0
    assert json.loads(out)["value"] == str(4**300 * 3**200 * 2**100)


# ---------------------------------------------------------------------------
# packaging


def test_module_is_runnable_as_script(tmp_path):
    inst = make_instance([[1, 2]], costs=[1, 1], budget=1)
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(inst))
    proc = subprocess.run(
        [sys.executable, "-m", "knapvote.cli", "solve", "--objective", "ib", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "2"


# ---------------------------------------------------------------------------
# the route table behind --method


def _method_choices():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["solve"]._actions if a.dest == "method").choices


def test_method_choices_are_auto_and_the_routes():
    assert list(_method_choices()) == ["auto", *_ROUTES]


def test_each_restricted_route_requires_its_objective(run, classic):
    restricted = [r for r in _ROUTES.values() if r.objective is not None]
    assert restricted
    for route in restricted:
        for objective in Objective:
            if objective is route.objective:
                continue
            code, out, err = run(
                "solve", "--objective", objective.value, "--method", route.name, classic
            )
            assert code == 2
            assert out == ""
            assert f"method {route.name} requires --objective {route.objective.value}" in err


def test_each_exact_route_matches_bruteforce_on_classic(run, classic):
    tried = set()
    for objective in Objective:
        code, out, _ = run(
            "solve", "--objective", objective.value, "--method", "bruteforce", classic
        )
        assert code == 0
        expected = json.loads(out)
        for route in _ROUTES.values():
            if not route.exact or route.objective not in (None, objective):
                continue
            code, out, _ = run(
                "solve", "--objective", objective.value, "--method", route.name, classic
            )
            assert code == 0, route.name
            doc = json.loads(out)
            assert doc["method"] == route.name
            assert (doc["value"], doc["total_cost"]) == (
                expected["value"],
                expected["total_cost"],
            ), route.name
            tried.add(route.name)
    assert tried == {r.name for r in _ROUTES.values() if r.exact}


def test_sc_dp_rejects_a_profile_that_is_not_single_crossing(run, write_instance):
    # a Condorcet cycle over three voters has no single-crossing order
    inst = make_instance([[3, 2, 1], [1, 3, 2], [2, 1, 3]], budget=1)
    assert recognize_single_crossing(inst) is None
    code, out, err = run(
        "solve", "--objective", "diverse", "--method", "sc-dp", write_instance(inst)
    )
    assert code == 2
    assert out == ""
    assert "single-crossing" in err
    with pytest.raises(ValidationError) as refused:
        solve_diverse_sc(inst)
    assert err == f"error: {refused.value}\n"


# ---------------------------------------------------------------------------
# thresholds and values past the interpreter's int/str digit limit (4300)


def test_solve_threshold_accepts_ascii_digits_only(run, classic):
    # "²" and "٣" pass str.isdigit(); int() refuses the first, reads 3 from the second
    for text in ("²", "٣", "5²", "+5", " 5", "5\n", "", "-"):
        code, out, err = run("solve", "--objective", "ib", "--threshold", text, classic)
        assert code == 2, text
        assert out == ""
        assert "decimal" in err


def test_solve_threshold_is_parsed_before_solving(run, write_instance):
    # brute force over 26 items trips its guardrail; a bad threshold wins
    path = write_instance(make_instance([[1] * 26], budget=1))
    code, _, err = run(
        "solve", "--objective", "ib", "--method", "bruteforce", "--threshold", "²", path
    )
    assert code == 2
    assert "decimal" in err


def test_fair_value_past_the_digit_limit(run, write_instance):
    # 4,400 voters value the one item at 9, so the fair optimum is 10^4400;
    # the vector table's bound is far over its cap, so auto answers by brute force
    path = write_instance(make_instance([[9]] * 4400, costs=[1], budget=1))
    ten_to_4400 = "1" + "0" * 4400
    code, out, _ = run("solve", "--objective", "fair", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "bruteforce"
    assert doc["value"] == ten_to_4400
    code, out, _ = run("evaluate", "--objective", "fair", "--selection", "a0", path)
    assert code == 0
    assert json.loads(out)["value"] == ten_to_4400
    for threshold, expected in ((ten_to_4400, 0), ("1" + "0" * 4399 + "1", 4)):
        code, out, _ = run("solve", "--objective", "fair", "--threshold", threshold, path)
        assert code == expected
        assert json.loads(out)["value"] == ten_to_4400


def test_xp_dp_guardrail_on_a_product_past_the_digit_limit(run, write_instance):
    path = write_instance(make_instance([[1000]] * 1500, costs=[1], budget=1))
    code, out, err = run("solve", "--objective", "fair", "--method", "xp-dp", path)
    assert code == 3
    assert out == ""
    assert "over the cap" in err


def test_utilities_at_the_digit_limit(run, write_instance):
    # each utility has as many digits as str() may write, and the two items'
    # sum one more; every table's work is past the digit limit too
    digits = sys.get_int_max_str_digits() or 4300
    u = 10**digits - 1
    path = write_instance(make_instance([[u, u]], costs=[1, 1], budget=2))
    both = "1" + "9" * (digits - 1) + "8"
    for objective, per_voter in (("ib", both), ("diverse", "9" * digits), ("fair", both)):
        code, out, err = run("solve", "--objective", objective, path)
        assert code == 0, err
        assert f'"per_voter_utility": [\n    {per_voter}\n  ]' in out
    code, out, err = run("solve", "--objective", "ib", "--method", "ib-dp", path)
    assert code == 3
    assert out == ""
    assert "over the cap" in err


def test_integers_past_the_digit_limit_in_input_are_read(run, tmp_path):
    huge = "1" + "0" * 5000
    path = tmp_path / "inst.json"
    path.write_text(
        '{"voters": 1, "items": [{"name": "a", "cost": 1}], "utilities": [[0]], '
        f'"budget": {huge}}}'
    )
    code, out, err = run("solve", "--objective", "ib", str(path))
    assert code == 0, err
    assert json.loads(out)["total_cost"] == 0
    params = tmp_path / "params.json"
    params.write_text(f'{{"entries": [{huge}]}}')
    code, out, err = run(
        "generate",
        "--reduction",
        "partition",
        "--params",
        str(params),
        "--out",
        str(tmp_path / "out.json"),
    )
    assert code == 0, err
    assert huge in (tmp_path / "out.json").read_text()
    # a params file that cannot be read is not reported as bad JSON
    code, _, err = run(
        "generate",
        "--reduction",
        "partition",
        "--params",
        str(tmp_path / "missing.json"),
        "--out",
        str(tmp_path / "out.json"),
    )
    assert code == 2
    assert "cannot read" in err
    assert "invalid JSON" not in err


def test_generate_then_solve_past_the_digit_limit(run, tmp_path):
    # the scaled utilities and the threshold have one digit more than the
    # limit, so solve reads back what generate wrote only by a second parse
    digits = sys.get_int_max_str_digits() or 4300
    source = {
        "values": [10 ** (digits - 2) + j for j in range(10)],
        "weights": [1] * 10,
        "value_target": 3 * 10 ** (digits - 2),
        "weight_budget": 3,
    }
    params = params_file(tmp_path, "knapsack", source)
    out_path = tmp_path / "gen.json"
    code, out, err = run(
        "generate", "--reduction", "knapsack", "--params", params, "--out", str(out_path)
    )
    assert code == 0, err
    threshold = json.loads(out)["threshold"]
    assert len(threshold) == digits + 1
    code, out, err = run(
        "solve", "--objective", "diverse", "--threshold", threshold, str(out_path)
    )
    assert code == 0, err
    doc = json.loads(out, parse_int=_decimal_to_int)
    assert doc["method"] == "bruteforce"
    assert doc["meets_threshold"] is True
    assert max(doc["per_voter_utility"]) > 10**digits
