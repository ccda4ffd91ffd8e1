"""Answer checking for the benchmark, independent of knapvote's solvers.

``optimum`` finds the best (score, minimum cost) pair of an instance by
enumerating every feasible subset with numpy; ``check`` turns one captured
CLI response into a failure reason or None.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Optional

import numpy as np

from workloads import SOURCE_ANSWERS, Decide, Inst, Solve

# Log-products within this distance of the best are rechecked exactly. Float
# error of a sum of at most a few hundred log1p terms is far below it.
_LOG_SLACK = 1e-6


def subset_value(inst: Inst, objective: str, subset) -> int:
    """Objective value of a subset, straight from the definitions."""
    rows = inst.utilities
    if objective == "ib":
        return sum(row[j] for row in rows for j in subset)
    if objective == "diverse":
        return sum(max((row[j] for j in subset), default=0) for row in rows)
    return math.prod(1 + sum(row[j] for j in subset) for row in rows)


def _feasible_subsets(inst: Inst):
    """Every subset within budget, built item by item: ``steps[j]`` indexes
    the subsets that can still take item j. Returns (steps, costs, masks)."""
    cost = np.zeros(1, dtype=np.int64)
    mask = np.zeros(1, dtype=np.int64)
    steps = []
    for j, c in enumerate(inst.costs):
        keep = np.nonzero(cost + c <= inst.budget)[0]
        steps.append(keep)
        cost = np.concatenate([cost, cost[keep] + c])
        mask = np.concatenate([mask, mask[keep] | (1 << j)])
    return steps, cost, mask


def _replay(steps, column, combine) -> np.ndarray:
    v = np.zeros(1, dtype=np.int64)
    for keep, u in zip(steps, column):
        v = np.concatenate([v, combine(v[keep], u)])
    return v


def optimum(inst: Inst, objective: str) -> tuple[int, int]:
    """(best score, least cost among the subsets reaching it)."""
    if len(inst.costs) > 30:
        raise ValueError("too many items for the enumeration oracle")
    steps, cost, mask = _feasible_subsets(inst)
    if objective == "ib":
        colsum = [sum(col) for col in zip(*inst.utilities)]
        score = _replay(steps, colsum, np.add)
    elif objective == "diverse":
        score = np.zeros(len(cost), dtype=np.int64)
        for row in inst.utilities:
            score += _replay(steps, row, np.maximum)
    else:
        logs = np.zeros(len(cost))
        for row in inst.utilities:
            logs += np.log1p(_replay(steps, row, np.add))
        near = np.nonzero(logs >= logs.max() - _LOG_SLACK)[0]
        exact = {int(k): subset_value(inst, "fair", _bits(int(mask[k]))) for k in near}
        best = max(exact.values())
        return best, min(int(cost[k]) for k, v in exact.items() if v == best)
    best = int(score.max())
    return best, int(cost[score == best].min())


def _bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def source_answer(req: Decide) -> bool:
    return SOURCE_ANSWERS[req.reduction](req.params)


def _check_solution(inst: Inst, objective: str, doc: dict) -> Optional[str]:
    """Feasibility and internal consistency of one solution document."""
    index = {nm: j for j, nm in enumerate(inst.names)}
    sel = [index.get(nm) for nm in doc["selected"]]
    if None in sel or len(set(sel)) != len(sel):
        return "unknown or repeated item in selection"
    cost = sum(inst.costs[j] for j in sel)
    if cost != doc["total_cost"]:
        return "total_cost disagrees with the selection"
    if cost > inst.budget:
        return "selection exceeds the budget"
    if int(doc["value"]) != subset_value(inst, objective, sel):
        return "value disagrees with evaluating the selection"
    return None


def check(req, result, expected: Callable[[], object]) -> tuple[Optional[str], tuple]:
    """Judge one response. ``result`` holds the (exit code, stdout) pair of
    each CLI call the request made; ``expected()`` gives the oracle's
    (score, cost) for a solve request or the source's yes/no for a decide
    request, and is only called when the response has to match it.

    Returns (failure reason or None, digest entry)."""
    if result[0][0] == "raised":
        return f"raised {result[0][1]}", ()
    try:
        if isinstance(req, Solve):
            ((code, out),) = result
            if code != 0:
                return f"exit code {code}", ()
            doc = json.loads(out)
            approx = bool(doc.get("approximate", False))
            entry = (int(doc["value"]), doc["total_cost"], approx)
            bad = _check_solution(req.inst, req.objective, doc)
            if bad is None and not approx and entry[:2] != expected():
                bad = f"(score, cost) {entry[:2]} but the optimum is {expected()}"
            return bad, entry
        if result[0][0] != 0:
            return f"generate exit code {result[0][0]}", ()
        (_, gout), (code, out) = result
        if code not in (0, 4):
            return f"solve exit code {code}", ()
        meta, doc = json.loads(gout), json.loads(out)
        approx = bool(doc.get("approximate", False))
        entry = (int(doc["value"]), doc["total_cost"], approx, code)
        with open(req.out_path, encoding="utf-8") as fh:
            inst = _inst_from_document(json.load(fh))
        bad = _check_solution(inst, meta["objective"], doc)
        meets = int(doc["value"]) >= int(meta["threshold"])
        if bad is None and (doc.get("meets_threshold") != meets or (code == 0) != meets):
            bad = "threshold verdict disagrees with the reported value"
        if bad is None and meets != expected():
            bad = f"answered {'yes' if meets else 'no'} for a {'yes' if not meets else 'no'} source"
        return bad, entry
    except (ValueError, KeyError, TypeError) as e:
        return f"malformed response: {e!r}", ()


def _inst_from_document(doc: dict) -> Inst:
    return Inst(
        costs=tuple(it["cost"] for it in doc["items"]),
        utilities=tuple(map(tuple, doc["utilities"])),
        budget=doc["budget"],
        item_names=tuple(it["name"] for it in doc["items"]),
    )
