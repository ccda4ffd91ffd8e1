"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import os
import random

import pytest

import oracle
import run
from tracer import Tracer
from workloads import DECKS, Decide, Inst, Solve, build_deck

CLI = run.import_program()

import knapvote  # noqa: E402  (importable once run.import_program has run)
from knapvote import solvers  # noqa: E402


def _best_subset(inst: Inst, objective: str) -> tuple[int, int]:
    best = None
    for r in range(len(inst.costs) + 1):
        for combo in itertools.combinations(range(len(inst.costs)), r):
            cost = sum(inst.costs[j] for j in combo)
            if cost <= inst.budget:
                key = (oracle.subset_value(inst, objective, combo), -cost)
                best = key if best is None or key > best else best
    return best[0], -best[1]


@pytest.mark.parametrize("objective", ["ib", "diverse", "fair"])
def test_oracle_matches_plain_enumeration(objective):
    rng = random.Random(objective)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 8)
        costs = tuple(rng.randint(1, 5) for _ in range(m))
        inst = Inst(costs, tuple(tuple(rng.randint(0, 6) for _ in range(m)) for _ in range(n)),
                    rng.randint(0, 15))
        assert oracle.optimum(inst, objective) == _best_subset(inst, objective)


def _solution(inst: Inst, selection, value=None, approximate=False) -> str:
    doc = {"method": "x", "objective": "diverse",
           "selected": [inst.names[j] for j in selection],
           "total_cost": sum(inst.costs[j] for j in selection),
           "value": str(value if value is not None
                        else oracle.subset_value(inst, "diverse", selection)),
           "per_voter_utility": []}
    if approximate:
        doc["approximate"] = True
    return json.dumps(doc)


def test_checker_flags_planted_answers():
    inst = Inst((2, 2, 3), ((5, 0, 1), (0, 4, 1)), budget=4)
    req = Solve("planted", "diverse", inst)
    expected = lambda: oracle.optimum(inst, "diverse")  # noqa: E731
    assert expected() == (9, 4)

    def verdict(out, code=0):
        return oracle.check(req, ((code, out),), expected)[0]

    assert verdict(_solution(inst, [0, 1])) is None
    assert "budget" in verdict(_solution(inst, [0, 2]))  # infeasible
    assert "optimum" in verdict(_solution(inst, [0]))  # feasible but not optimal
    assert verdict(_solution(inst, [0], approximate=True)) is None
    assert "evaluating" in verdict(_solution(inst, [0, 1], value=10))
    assert "exit code" in verdict("", code=3)
    assert "raised" in oracle.check(req, (("raised", "boom"),), expected)[0]


def test_checker_flags_wrong_decision(tmp_path):
    inst = Inst((1, 1), ((3, 0), (0, 2)), budget=1)
    req = Decide("planted", "partition", {"entries": [2, 2]})
    req.out_path = str(tmp_path / "inst.json")
    with open(req.out_path, "w", encoding="utf-8") as fh:
        json.dump(inst.document(), fh)
    meta = json.dumps({"objective": "diverse", "threshold": "3"})
    doc = json.loads(_solution(inst, [0]))
    doc["meets_threshold"] = True
    answer = json.dumps(doc)
    assert oracle.check(req, ((0, meta), (0, answer)), lambda: True)[0] is None
    assert "no source" in oracle.check(req, ((0, meta), (0, answer)), lambda: False)[0]
    assert "verdict" in oracle.check(req, ((0, meta), (4, answer)), lambda: True)[0]


def test_source_enumerators_match_the_decks():
    for req in build_deck("decide", 3):
        assert oracle.source_answer(req) in (True, False)
    assert oracle.SOURCE_ANSWERS["partition"]({"entries": [2, 4, 6]})
    assert not oracle.SOURCE_ANSWERS["partition"]({"entries": [2, 4, 8]})


def test_generated_profiles_have_the_promised_structure():
    from knapvote import Instance, recognize_single_crossing, recognize_single_peaked

    def program_instance(inst: Inst):
        return Instance(tuple(inst.names), inst.costs, inst.utilities, inst.budget)

    for req in build_deck("tables", 2, scale=3) + build_deck("search", 2, scale=2):
        inst = program_instance(req.inst)
        sp = recognize_single_peaked(inst)
        sc = recognize_single_crossing(inst)
        if req.label == "sp-table":
            assert sp is not None
        elif req.label == "sc-table":
            assert sp is None and sc is not None
        elif req.objective == "diverse":
            assert sp is None and sc is None


def test_decks_are_seeded():
    for workload in DECKS:
        a, b = build_deck(workload, 7, scale=2), build_deck(workload, 7, scale=2)
        assert repr(a) == repr(b)
        assert repr(a) != repr(build_deck(workload, 8, scale=2))


def test_tracer_restores_the_original_functions():
    originals = {
        (knapvote, "solve_auto"): knapvote.solve_auto,
        (solvers, "solve_auto"): solvers.solve_auto,
        (CLI, "solve_auto"): CLI.solve_auto,
        (CLI, "main"): CLI.main,
        (solvers, "evaluate"): solvers.evaluate,
    }
    tracer = Tracer()
    with tracer:
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn
            assert getattr(module, name).__wrapped__ is fn
        knapvote.solve_auto(knapvote.Instance(("a",), (1,), ((2,),), 1), "fair")
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert tracer.absent == []
    metrics = tracer.metrics()
    assert metrics["solvers.auto.routes_tried"] == 1
    assert metrics["solvers.auto.useful_ratio"] == 1
    assert metrics["solvers.xp_dp.calls"] == 1


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(solvers, "solve_diverse_fpt")
    tracer = Tracer()
    with tracer:
        knapvote.solve_auto(knapvote.Instance(("a", "b"), (1, 1), ((2, 0), (0, 3)), 1),
                            "ib")
    assert tracer.absent == ["solvers.solve_diverse_fpt"]
    metrics = tracer.metrics()
    assert metrics["solvers.fpt.calls"] == 0
    assert metrics["solvers.ib_dp.calls"] == 1


def _benchmark_file() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(DECKS))
def test_every_metric_prints_with_its_unit(workload, trace):
    report = run.measure(workload, 5, 0.01, trace, scale=1, setup_repeats=1)
    lines = run.report_lines(report)
    result = json.loads(run.result_line(report))
    spec = _benchmark_file()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert any(line.startswith(f"digest {workload} ") for line in lines)
    assert CLI.main.__module__ == "knapvote.cli" and not hasattr(CLI.main, "__wrapped__")
