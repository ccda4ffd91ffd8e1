"""Brute force past its default item cap, against integer programs.

HiGHS (through ``scipy.optimize.milp``, gap 0) solves the 0/1 knapsack ILP
for ib and the Chamberlin-Courant assignment ILP for diverse on 30-40 items,
where plain enumeration cannot run. Its selection is scored again with
``evaluate``, so the two optima are compared as integers, never as floats.

For fair, HiGHS maximises the sum of log(1 + s_i) over each voter's integer
total s_i. On the integers that logarithm is exactly the least of its chords
between consecutive integers, so the program is exact up to float rounding,
which only its own optimum carries.
"""

import math
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


def _highs_fair(inst):
    """Items HiGHS picks for fair, and its optimum of the summed logarithms.

    Variables: x_j (item j chosen), the integer total s_i of voter i, and
    z_i, held under every chord of log(1 + t) between t and t + 1 for t up
    to voter i's row sum.
    """
    m, n = inst.num_items, inst.num_voters
    width = m + 2 * n
    rows = [np.concatenate([np.array(inst.costs, dtype=float), np.zeros(2 * n)])]
    lower, upper = [-np.inf], [inst.budget]
    for i, utilities in enumerate(inst.utilities):
        total = np.zeros(width)
        total[:m] = utilities
        total[m + i] = -1
        rows.append(total)
        lower.append(0)
        upper.append(0)
        for t in range(sum(utilities)):
            slope = math.log(t + 2) - math.log(t + 1)
            chord = np.zeros(width)
            chord[m + n + i] = 1
            chord[m + i] = -slope
            rows.append(chord)
            lower.append(-np.inf)
            upper.append(math.log(t + 1) - slope * t)
    row_sums = [sum(r) for r in inst.utilities]
    res = milp(
        np.concatenate([np.zeros(m + n), -np.ones(n)]),
        constraints=LinearConstraint(np.array(rows), lower, upper),
        integrality=np.concatenate([np.ones(m + n), np.zeros(n)]),
        bounds=Bounds(
            np.zeros(width),
            np.concatenate([np.ones(m), row_sums, [math.log(s + 1) for s in row_sums]]),
        ),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    return [j for j in range(m) if res.x[j] > 0.5], -res.fun


@pytest.mark.parametrize("seed", range(5))
def test_fair_brute_force_is_at_least_highs(seed):
    inst = _instance(seed)
    picked, optimum = _highs_fair(inst)
    assert sum(inst.costs[j] for j in picked) <= inst.budget
    brute = brute_force(inst, Objective.FAIR, SolveOptions(max_bruteforce_items=40))
    assert brute.value.score >= evaluate(inst, Objective.FAIR, picked).score
    assert math.log(brute.value.score) <= optimum + 1e-9
