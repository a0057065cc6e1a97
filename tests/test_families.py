"""The cost-family table: every derived view against written-out forms, and
a seventh family added as one row."""

import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runtimedist import calib, costfit, plan as planmod, propagate, selest, simeval, store
from runtimedist.costfit import CostFunction, monomial_values
from conftest import ARITY, cost_function_moments, reference_run

# E[f] and Var[f] of each family, written out, for independent normal
# inputs (mu, s2) per input.
CLOSED_FORMS = {
    "C1": lambda b, d: (b[0], 0.0),
    "C2": lambda b, d: (b[0] * d[0][0] + b[1], b[0] * b[0] * d[0][1]),
    "C3": lambda b, d: (b[0] * d[0][0] + b[1], b[0] * b[0] * d[0][1]),
    "C4": lambda b, d: (
        b[0] * (d[0][0] ** 2 + d[0][1]) + b[1] * d[0][0] + b[2],
        d[0][1] * ((b[1] + 2.0 * b[0] * d[0][0]) ** 2 + 2.0 * b[0] * b[0] * d[0][1]),
    ),
    "C5": lambda b, d: (
        b[0] * d[0][0] + b[1] * d[1][0] + b[2],
        b[0] * b[0] * d[0][1] + b[1] * b[1] * d[1][1],
    ),
    "C6": lambda b, d: (
        b[0] * d[0][0] * d[1][0] + b[1] * d[0][0] + b[2] * d[1][0] + b[3],
        d[0][1] * (b[0] * d[1][0] + b[1]) ** 2
        + d[1][1] * (b[0] * d[0][0] + b[2]) ** 2
        + b[0] * b[0] * d[0][1] * d[1][1],
    ),
}


def test_closed_forms_cover_the_table():
    assert set(CLOSED_FORMS) == set(costfit.FAMILIES)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_moments_match_closed_forms(data):
    tag = data.draw(st.sampled_from(sorted(CLOSED_FORMS)))
    p = costfit.NUM_COEFS[tag]
    b = [data.draw(st.floats(0.0, 1e3)) for _ in range(p - 1)]
    b.append(data.draw(st.floats(-1e3, 1e3)))  # the constant is unconstrained
    dists = [(data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 0.25)))
             for _ in range(ARITY[tag])]
    got = cost_function_moments(CostFunction(tag, tuple(b)), dists)
    want = CLOSED_FORMS[tag](b, dists)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-300), (tag, b, dists, got, want)


# A seventh family, f = b0*Xl^2*Xr + b1*Xl + b2, added as one row.
C7 = (("left", "right"), ((2, 1), (1, 0), (0, 0)))

_JOIN = {
    "nodes": [
        {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
         "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
        {"id": 2, "kind": "SeqScan", "relation": "r2", "children": [],
         "predicate": [{"col": "r2_val", "op": "<", "value": 7000}]},
        {"id": 3, "kind": "HashJoin", "children": [1, 2],
         "predicate": [{"left": "r1_key", "right": "r2_key"}],
         "cost_profile": {"c_t": "C7"}},
    ],
    "root": 3,
}


@pytest.fixture
def seventh_family(monkeypatch):
    monkeypatch.setitem(costfit.FAMILIES, "C7", C7)


def test_seventh_family_design_rows(seventh_family):
    coords = [(0.5, 0.2), (0.1, 0.9), (1.0, 0.0)]
    got = costfit.design_matrix("C7", coords)
    assert got.tolist() == [[xl * xl * xr, xl, 1.0] for xl, xr in coords]
    assert len(costfit.FAMILIES["C7"][0]) == 2
    assert sum(map(operator.mul, (2.0, 3.0, 4.0), monomial_values("C7", (0.5, 0.2)))) == pytest.approx(2.0 * 0.05 + 1.5 + 4.0)


def test_seventh_family_moments_vs_monte_carlo(seventh_family):
    rng = np.random.default_rng(77)
    draws = 100_000
    b = (1.5, 0.7, 2.0)
    (ml, sl), (mr, sr) = dists = [(0.5, 0.01), (0.4, 0.0064)]
    xl = rng.normal(ml, math.sqrt(sl), size=draws)
    xr = rng.normal(mr, math.sqrt(sr), size=draws)
    f = b[0] * xl * xl * xr + b[1] * xl + b[2]
    e, v = cost_function_moments(CostFunction("C7", b), dists)
    assert e == pytest.approx(float(f.mean()), rel=1e-3)
    assert v == pytest.approx(float(f.var(ddof=1)), rel=0.03)
    # the mean is exact: E[Xl^2 Xr] = (ml^2 + sl) mr
    assert e == pytest.approx(b[0] * (ml * ml + sl) * mr + b[1] * ml + b[2], rel=1e-14)


def test_seventh_family_parse_oracle_and_fit(seventh_family):
    plan = planmod.parse_plan(json.dumps(_JOIN))
    with pytest.raises(planmod.PlanError, match="C7 needs two children"):
        doc = json.loads(json.dumps(_JOIN))
        doc["nodes"][0]["cost_profile"] = {"c_t": "C7"}
        planmod.parse_plan(json.dumps(doc))
    relations = simeval.generate_database(3, sizes=(40, 50, 60), key_domain=10)
    world = simeval.TrueCostWorld.generate(3)
    a = (1.25, 0.5, 7.0)
    world.coefs["HashJoin"]["c_t"] = a
    # each coefficient times the leaf product of each input per power
    b = (a[0] * 40 * 40 * 50, a[1] * 40, a[2])
    coords = np.array([(0.5, 0.2), (0.1, 0.9), (1.0, 0.0)])
    got = world.cost_oracle(plan, relations)((3, "c_t"), coords)
    assert got.tobytes() == (costfit.design_matrix("C7", coords) @ b).tobytes()
    pool = store.build_pool(relations, n=10, pool_size=1, seed=3)
    est = selest.estimate_all(plan, pool, relations)
    fitted = propagate.fit_all_cost_functions(plan, est, world.cost_oracle(plan, relations))
    assert fitted[3]["c_t"].b == pytest.approx(b, rel=1e-6)
    units = calib.fit_cost_units(world.calibration_records(10, seed=3))
    dist, *_ = propagate.predict_distribution(plan, pool, relations, units,
                                              oracle=world.cost_oracle(plan, relations))
    assert dist.mean > 0.0 and dist.variance > 0.0


def test_seventh_family_simulated_runs_match_written_out_reference(seventh_family):
    # Bitwise: a C7 term's true cost walks Xl twice and Xr once per run.
    plan = planmod.parse_plan(json.dumps(_JOIN))
    relations = simeval.generate_database(3, sizes=(40, 50, 60), key_domain=10)
    world = simeval.TrueCostWorld.generate(3)
    world.coefs["HashJoin"]["c_t"] = (1.25, -0.5, 7.0)
    truth = planmod.selectivity_truth(plan, relations)
    for seed in (0, 1, 2**32 - 1):
        want = reference_run(plan, relations, world, seed)
        assert simeval.simulate_actual_runtime(plan, relations, world, seed, truth=truth).hex() == want.hex()
    want = float(np.mean([reference_run(plan, relations, world, 4000 + r, truth) for r in range(3)]))
    assert simeval.actual_runtime(plan, relations, world, seed=4, runs=3).hex() == want.hex()
