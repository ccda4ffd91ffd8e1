"""Brute force past its default item cap, against integer programs.

HiGHS (through ``scipy.optimize.milp``, gap 0) solves the 0/1 knapsack ILP
for ib and the Chamberlin-Courant assignment ILP for diverse on 30-40 items,
where plain enumeration cannot run. Its selection is scored again with
``evaluate``, so the two optima are compared as integers, never as floats.
"""

import random

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from knapvote import Objective, SolveOptions, brute_force, evaluate

from conftest import make_instance


def _instance(seed):
    rng = random.Random(seed)
    m = rng.randint(30, 40)
    n = rng.randint(3, 12)
    rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
    costs = [rng.randint(1, 20) for _ in range(m)]
    return make_instance(rows, costs=costs, budget=sum(costs) // 10)


def _highs_selection(inst, kind):
    """Items HiGHS picks: variables x_j (item j chosen) and, for diverse,
    y_ij (voter i counts item j) with y_ij <= x_j and one y per voter."""
    m, n = inst.num_items, inst.num_voters
    u = np.array(inst.utilities, dtype=float)
    budget_row = np.array(inst.costs, dtype=float)
    if kind is Objective.IB:
        gain = -u.sum(axis=0)
        rows = [budget_row]
        upper = [inst.budget]
    else:
        gain = np.concatenate([np.zeros(m), -u.ravel()])
        rows = [np.concatenate([budget_row, np.zeros(n * m)])]
        upper = [inst.budget]
        for i in range(n):
            one = np.zeros(m + n * m)
            one[m + i * m : m + (i + 1) * m] = 1
            rows.append(one)
            upper.append(1)
            for j in range(m):
                link = np.zeros(m + n * m)
                link[m + i * m + j] = 1
                link[j] = -1
                rows.append(link)
                upper.append(0)
    integrality = np.zeros(len(gain))
    integrality[:m] = 1
    res = milp(
        gain,
        constraints=LinearConstraint(np.array(rows), -np.inf, np.array(upper, dtype=float)),
        integrality=integrality,
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    return [j for j in range(m) if res.x[j] > 0.5]


@pytest.mark.parametrize("kind", (Objective.IB, Objective.DIVERSE))
@pytest.mark.parametrize("seed", range(5))
def test_brute_force_matches_highs_past_25_items(kind, seed):
    inst = _instance(seed)
    picked = _highs_selection(inst, kind)
    assert sum(inst.costs[j] for j in picked) <= inst.budget
    sol = brute_force(inst, kind, SolveOptions(max_bruteforce_items=40))
    assert sol.value.score == evaluate(inst, kind, picked).score
