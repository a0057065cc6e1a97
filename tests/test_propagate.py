"""Moment propagation, covariance computation, and the output normal."""

import json
import math
import operator
import gc
import re
import weakref
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runtimedist import calib, costfit, plan as planmod, propagate, selest, simeval, store
from runtimedist.costfit import CostFunction, monomial_values
from runtimedist.selest import SelEstimate
from conftest import ARITY, cost_function_moments, reference_b, reference_fit


def _units(means, variances):
    return calib.CostUnitModel(
        units={
            u: calib.UnitModel(mean=means.get(u, 0.0), variance=variances.get(u, 0.0),
                               observations=2)
            for u in planmod.COST_UNITS
        }
    )


def _scan_estimate(rho, n=100):
    return SelEstimate(rho_n=rho, s2_n=rho * (1.0 - rho), n=n)


# Leaf sets of scans 1, 2, 3 over A, B, C, a join 10 of A and B, and a
# join 11 of 10 and C.
_LEAVES = {1: (("A", 0),), 2: (("B", 0),), 3: (("C", 0),),
           10: (("A", 0), ("B", 0)), 11: (("A", 0), ("B", 0), ("C", 0))}


def _single_scan_plan(profile=None):
    doc = {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "R", "children": []}],
           "root": 1}
    if profile is not None:
        doc["nodes"][0]["cost_profile"] = profile
    return planmod.parse_plan(json.dumps(doc))


# ---------------------------------------------------------------------------
# Moment formulas


def test_moments_c1():
    assert cost_function_moments(CostFunction("C1", (4.0,)), []) == (4.0, 0.0)


def test_moments_c2_linear():
    e, v = cost_function_moments(CostFunction("C2", (10.0, 0.0)), [(0.5, 0.01)])
    assert (e, v) == pytest.approx((5.0, 1.0))


def test_moments_c4_pinned():
    e, v = cost_function_moments(CostFunction("C4", (2.0, 1.0, 0.0)), [(0.5, 0.01)])
    assert v == pytest.approx(0.0908)
    assert e == pytest.approx(2.0 * (0.25 + 0.01) + 0.5)


def test_moments_c6_degenerate():
    cf = CostFunction("C6", (2.0, 3.0, 4.0, 5.0))
    e, v = cost_function_moments(cf, [(0.3, 0.0), (0.7, 0.0)])
    assert v == 0.0
    assert e == pytest.approx(sum(map(operator.mul, cf.b, monomial_values(cf.tag, (0.3, 0.7)))))


def test_moments_missing_distribution():
    with pytest.raises(Exception):
        cost_function_moments(CostFunction("C5", (1.0, 1.0, 1.0)), [(0.5, 0.01)])


def test_term_variance_pinned():
    assert propagate.term_variance(5.0, 1.0, 2.0, 0.04) == pytest.approx(5.04)
    assert propagate.term_variance(5.0, 0.0, 2.0, 0.0) == 0.0
    assert propagate.term_variance(5.0, 0.0, 2.0, 0.04) == pytest.approx(25 * 0.04)


# ---------------------------------------------------------------------------
# Covariances


def _table_single(mu, s2):
    est = {1: _scan_estimate(0.5)}
    return propagate.covariance_table(_LEAVES, est, {1: (mu, s2)})


def test_cov_square_linear_pinned():
    cov = _table_single(1.0, 0.25)
    assert cov(((1, 2),), ((1, 1),)) == (pytest.approx(0.5), "direct")


def test_cov_basic_identities():
    mu, s2 = 0.7, 0.09
    cov = _table_single(mu, s2)
    assert cov(((1, 1),), ((1, 1),)) == (pytest.approx(s2), "direct")
    assert cov(((1, 2),), ((1, 2),)) == (
        pytest.approx(2 * s2 * (2 * mu * mu + s2)), "direct"
    )


def test_cov_product_decomposition():
    # Cov(Xl*Xr, Xl) = mu_r * sigma_l^2 for independent Xl, Xr.
    est = {1: _scan_estimate(0.5), 2: _scan_estimate(0.5)}
    dists = {1: (0.4, 0.02), 2: (0.6, 0.03)}
    cov = propagate.covariance_table(_LEAVES, est, dists)
    assert cov(((1, 1), (2, 1)), ((1, 1),)) == (pytest.approx(0.6 * 0.02), "direct")
    # mu_l = 0 zeroes the symmetric case
    cov0 = propagate.covariance_table(_LEAVES, est, {1: (0.0, 0.02), 2: (0.6, 0.03)})
    assert cov0(((1, 1), (2, 1)), ((2, 1),)) == (pytest.approx(0.0), "direct")


def test_cov_refuses_a_monomial_of_nested_variables():
    # A tree plan's monomial multiplies independent inputs; one whose own
    # factors nest has no exact variance for a "bound-gm" entry to read.
    est = {1: _scan_estimate(0.5), 2: _scan_estimate(0.5), 10: _scan_estimate(0.5)}
    cov = propagate.covariance_table(_LEAVES, est, {1: (0.5, 0.01), 2: (0.5, 0.01), 10: (0.4, 0.02)})
    nested = ((1, 1), (10, 1))
    for pair in [(nested, nested), (nested, ((10, 1), (2, 1)))]:
        with pytest.raises(propagate.PropagationError, match="nested variables"):
            cov(*pair)


def test_cov_independent_is_zero():
    est = {1: _scan_estimate(0.5), 2: _scan_estimate(0.5)}
    cov = propagate.covariance_table(_LEAVES, est, {1: (0.5, 0.01), 2: (0.5, 0.01)})
    value, kind = cov(((1, 1),), ((2, 1),))
    assert (value, kind) == (0.0, "zero")


def _nested_pair(s2_desc, anc_count=5000):
    """Manual ancestor/descendant estimates: join over (A,B) below a
    three-way join over (A,B,C), n=100."""
    desc = SelEstimate(rho_n=0.5, s2_n=s2_desc, n=100, q=[{0: anc_count}, {0: anc_count}])
    anc = SelEstimate(rho_n=0.5, s2_n=1.0, n=100, q=[{0: anc_count}, {0: anc_count}, {0: anc_count}])
    return {10: desc, 11: anc, 1: _scan_estimate(0.5), 2: _scan_estimate(0.5), 3: _scan_estimate(0.5)}


def _bound_both_ways(est, a, pa, b, pb):
    """`bound_pair`, checked equal to the covariance table's entry for the
    two single-variable monomials."""
    value, kind = propagate.bound_pair(_LEAVES, est, a, pa, b, pb)
    cov = propagate.covariance_table(_LEAVES, est, {k: (e.rho_n, e.sigma2) for k, e in est.items()})
    if value != 0.0:
        assert cov(((a, pa),), ((b, pb),)) == (value, kind)
    return value, kind


def test_bound_b3_pinned_value():
    # With a large descendant variance, B1 exceeds the closed-form bound
    # (1 - (1-1/n)^m) g(rho) g(rho'); n=100, m=2, rho=rho'=0.5.
    value, kind = _bound_both_ways(_nested_pair(s2_desc=50.0), 10, 1, 11, 1)
    assert kind == "bound-B3"
    assert value == pytest.approx(0.0049750, abs=1e-7)


def test_bound_b1_when_smaller():
    value, kind = _bound_both_ways(_nested_pair(s2_desc=1e-4), 10, 1, 11, 1)
    assert kind == "bound-B1"
    # B1 = sqrt(S2_desc/n * S2_anc_restricted/n); the crafted q gives the
    # ancestor restriction 2 * (99*0.25)/99 = 0.5.
    assert value == pytest.approx(math.sqrt((1e-4 / 100) * (0.5 / 100)))


def test_bound_degenerate_rho_vanishes():
    for rho in (0.0, 1.0):
        est = _nested_pair(s2_desc=50.0)
        for e in est.values():
            e.rho_n = rho
        for pa, pb in [(1, 1), (2, 2), (2, 1), (1, 2)]:
            value, _ = _bound_both_ways(est, 10, pa, 11, pb)
            assert value == pytest.approx(0.0, abs=1e-12)


def test_bound_square_forms_nonnegative_and_symmetric():
    est = _nested_pair(s2_desc=0.3)
    v22, _ = _bound_both_ways(est, 10, 2, 11, 2)
    v21, _ = _bound_both_ways(est, 10, 2, 11, 1)
    v12r, _ = _bound_both_ways(est, 11, 1, 10, 2)
    assert v22 >= 0.0 and v21 >= 0.0
    assert v21 == pytest.approx(v12r)


# ---------------------------------------------------------------------------
# Whole-plan variance


def _world_fixture(seed=5, sizes=(300, 300, 300)):
    relations = simeval.generate_database(seed, sizes=sizes, key_domain=30)
    world = simeval.TrueCostWorld.generate(seed)
    units = calib.fit_cost_units(world.calibration_records(100, seed=seed))
    pool = store.build_pool(relations, n=50, pool_size=2, seed=seed)
    return relations, world, units, pool


def _scan_only_costfuncs():
    return {1: {
        "c_s": CostFunction("C3", (0.0, 0.0)),
        "c_r": CostFunction("C1", (0.0,)),
        "c_t": CostFunction("C3", (0.0, 5.0)),
        "c_o": CostFunction("C2", (0.0, 0.0)),
    }}


def test_single_scan_matches_term_variance():
    plan = _single_scan_plan()
    est = {1: _scan_estimate(0.5)}
    units = _units({"c_t": 2.0}, {"c_t": 0.04})
    cfs = _scan_only_costfuncs()
    # E[f]=5, Var[f]=0 for the C3 term (leaf input is the constant 1).
    total, breakdown, entries, flags = propagate.variance_time(plan, cfs, est, units)
    assert total == pytest.approx(25 * 0.04)
    assert entries == []
    # give the term selectivity variance through the c_o term instead
    cfs[1]["c_o"] = CostFunction("C2", (2.0, 0.0))
    units2 = _units({"c_t": 2.0, "c_o": 1.0}, {"c_t": 0.04, "c_o": 0.0})
    total2, *_ = propagate.variance_time(plan, cfs, est, units2)
    sigma2 = est[1].sigma2
    assert total2 == pytest.approx(25 * 0.04 + 4.0 * sigma2)


def test_function_of_another_family_refused():
    # A C1 function in a SeqScan's C3 c_s slot would be read against the
    # C3 input.
    plan = _single_scan_plan()
    est = {1: _scan_estimate(0.5)}
    units = _units({"c_t": 2.0}, {"c_t": 0.04})
    cfs = _scan_only_costfuncs()
    cfs[1]["c_s"] = CostFunction("C1", (0.0,))
    for fn in (propagate.expected_time, propagate.variance_time):
        with pytest.raises(propagate.PropagationError,
                           match="node 1, unit c_s: fitted C1 function for a C3 term"):
            fn(plan, cfs, est, units)


def test_disjoint_scans_sum_exactly():
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "A", "children": []},
            {"id": 2, "kind": "SeqScan", "relation": "B", "children": []},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "a", "right": "b"}]},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    est = {
        1: _scan_estimate(0.3),
        2: _scan_estimate(0.6),
        3: SelEstimate(rho_n=0.1, s2_n=0.2, n=100, q=[{0: 10}, {0: 10}]),
    }
    units = _units({u: 1.0 for u in planmod.COST_UNITS},
                   {u: 0.01 for u in planmod.COST_UNITS})
    # the scans' other default terms cost nothing
    zero = {"c_s": CostFunction("C3", (0.0, 0.0)), "c_r": CostFunction("C1", (0.0,)),
            "c_t": CostFunction("C3", (0.0, 0.0))}
    cfs = {
        1: {**zero, "c_o": CostFunction("C2", (1.0, 0.5))},
        2: {**zero, "c_o": CostFunction("C2", (2.0, 0.5))},
        3: {u: CostFunction("C5", (1.0, 1.0, 0.0)) for u in ("c_t", "c_o")},
    }
    total, breakdown, entries, flags = propagate.variance_time(plan, cfs, est, units)
    # scans are independent of each other: no (1,2) entry
    assert not any(e.pair == (1, 2) for e in entries)
    # the join terms share the scans' variables: direct entries appear
    assert any(e.pair == (1, 3) and e.kind == "direct" for e in entries)
    op_var = sum(v for name, v, kind in breakdown if name.startswith("op:"))
    cov = sum(v for name, v, kind in breakdown if name.startswith("cov:"))
    assert total == pytest.approx(op_var + cov)


def test_zero_uncertainty_collapse():
    relations, world, _, pool = _world_fixture()
    units = _units({u: world.unit_means[u] for u in planmod.COST_UNITS}, {})
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": ">=", "value": 0}]},
        ],
        "root": 1,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    # every sampled row passes: rho_n = 1, S2 = 0
    dist, est, _, entries = propagate.predict_distribution(
        plan, pool, relations, units, oracle=world.cost_oracle(plan, relations)
    )
    assert est[1].rho_n == 1.0 and est[1].s2_n == 0.0
    assert dist.variance == 0.0
    assert entries == []


def test_mean_consistency():
    relations, world, units, pool = _world_fixture()
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": [],
             "predicate": [{"col": "r2_val", "op": "<", "value": 7000}]},
            {"id": 3, "kind": "MergeJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}]},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    dist, est, cfs, _ = propagate.predict_distribution(
        plan, pool, relations, units, oracle=world.cost_oracle(plan, relations)
    )
    direct = propagate.expected_time(plan, cfs, est, units)
    assert dist.mean == pytest.approx(direct, rel=1e-12)


def test_scale_equivariance():
    relations, world, units, pool = _world_fixture()
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r3", "children": [],
             "predicate": [{"col": "r3_val", "op": "<", "value": 6000}]},
        ],
        "root": 1,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    oracle = world.cost_oracle(plan, relations)
    dist, est, cfs, _ = propagate.predict_distribution(plan, pool, relations, units, oracle=oracle)
    s = 3.0
    scaled = calib.CostUnitModel(units={
        u: calib.UnitModel(mean=s * m.mean, variance=s * s * m.variance,
                           observations=m.observations)
        for u, m in units.units.items()
    })
    mean2 = propagate.expected_time(plan, cfs, est, scaled)
    var2, *_ = propagate.variance_time(plan, cfs, est, scaled)
    assert mean2 == pytest.approx(s * dist.mean, rel=1e-12)
    assert var2 == pytest.approx(s * s * dist.variance, rel=1e-12)


def test_policies():
    relations, world, units, pool = _world_fixture()
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": [],
             "predicate": [{"col": "r2_val", "op": "<", "value": 7000}]},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}],
             "cost_profile": {"c_t": "C2", "c_o": "C5"}},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    world.coefs["HashJoin"]["c_t"] = (1.5, 4.0)  # a C2 slot: own selectivity, constant
    oracle = world.cost_oracle(plan, relations)
    results = {}
    for policy in propagate.POLICIES:
        dist, *_ = propagate.predict_distribution(
            plan, pool, relations, units, oracle=oracle, policy=policy
        )
        results[policy] = dist
    assert results["no-cov"].variance <= results["all"].variance
    assert results["no-var-x"].variance < results["all"].variance
    assert results["no-var-c"].variance < results["all"].variance
    means = {p: d.mean for p, d in results.items()}
    assert len({round(m, 15) for m in means.values()}) == 1
    with pytest.raises(propagate.PropagationError):
        propagate.predict_distribution(plan, pool, relations, units, oracle=oracle,
                                       policy="bogus")


def test_three_level_breakdown_pattern():
    # Scans under a join under a join, every operator costed on its own
    # output selectivity: nested pairs get bounds, disjoint pairs vanish.
    relations, world, units, pool = _world_fixture()
    join_profile = {"c_t": "C2", "c_o": "C2"}
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": [],
             "predicate": [{"col": "r2_val", "op": "<", "value": 7000}]},
            {"id": 3, "kind": "SeqScan", "relation": "r3", "children": [],
             "predicate": [{"col": "r3_val", "op": "<", "value": 6000}]},
            {"id": 4, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}],
             "cost_profile": join_profile},
            {"id": 5, "kind": "HashJoin", "children": [4, 3],
             "predicate": [{"left": "r2_key2", "right": "r3_key2"}],
             "cost_profile": join_profile},
        ],
        "root": 5,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    plan.nodes[4].cost_profile = dict(join_profile)
    plan.nodes[5].cost_profile = dict(join_profile)
    world.coefs["HashJoin"].update(c_t=(1.5, 4.0), c_o=(0.75, 2.0))  # C2 slots
    dist, est, cfs, entries = propagate.predict_distribution(
        plan, pool, relations, units, oracle=world.cost_oracle(plan, relations)
    )
    bounded = {e.pair for e in entries if e.kind.startswith("bound")}
    assert bounded == {(1, 4), (2, 4), (1, 5), (2, 5), (3, 5), (4, 5)}
    for pair in [(1, 2), (1, 3), (2, 3), (3, 4)]:
        assert not any(e.pair == pair for e in entries)
    assert dist.variance >= 0.0


def _chain_of_five():
    """A left-deep chain of five relations, its estimates, fitted cost
    functions and units: each join's terms read the join below, nested in
    the next join's left input."""
    relations = simeval.generate_database(3, sizes=(300,) * 5, key_domain=30)
    world = simeval.TrueCostWorld.generate(3)
    units = calib.fit_cost_units(world.calibration_records(100, seed=3))
    pool = store.build_pool(relations, n=50, pool_size=1, seed=3)
    nodes = [{"id": i, "kind": "SeqScan", "relation": f"r{i}", "children": [],
              "predicate": [{"col": f"r{i}_val", "op": "<", "value": 6000}]} for i in range(1, 6)]
    left = 1
    for j in range(2, 6):
        nodes.append({"id": 100 + j, "kind": ("HashJoin", "NestLoopJoin")[j % 2], "children": [left, j],
                      "predicate": [{"left": f"r{j - 1}_key2", "right": f"r{j}_key"}]})
        left = 100 + j
    plan = planmod.parse_plan(json.dumps({"nodes": nodes, "root": left}))
    est = selest.estimate_all(plan, pool, relations)
    cfs = propagate.fit_all_cost_functions(plan, est, world.cost_oracle(plan, relations))
    return plan, cfs, est, units


def test_variance_time_computes_each_bound_once(monkeypatch):
    # A NestLoopJoin's C6 monomial Xl*Xr meets a nested variable through Xl
    # alone, the same bound as its Xl monomial does, so bounds recur across
    # monomial pairs.
    plan, cfs, est, units = _chain_of_five()
    inner = propagate.bound_pair
    calls = []

    def counting(leaves, estimates, *key):
        calls.append(key)
        return inner(leaves, estimates, *key)

    monkeypatch.setattr(propagate, "bound_pair", counting)
    _, _, entries, _ = propagate.variance_time(plan, cfs, est, units)
    assert any(e.kind in ("bound-B1", "bound-B3") for e in entries)
    assert calls and len(calls) == len(set(calls))


def test_variance_time_computes_each_exact_covariance_once(monkeypatch):
    # Each term's own variance and every term pair read the covariance
    # table, so one monomial pair is asked for many times; its exact
    # covariance is computed once per `variance_time` call.
    plan, cfs, est, units = _chain_of_five()
    inner = propagate.cov_product
    calls = []

    def counting(tables, m1, m2):
        calls.append((m1, m2))
        return inner(tables, m1, m2)

    asked = []
    table = propagate.covariance_table

    def asking(*args):
        cov = table(*args)

        def entry(m1, m2):
            asked.append((m1, m2))
            return cov(m1, m2)

        return entry

    monkeypatch.setattr(propagate, "cov_product", counting)
    monkeypatch.setattr(propagate, "covariance_table", asking)
    _, _, entries, _ = propagate.variance_time(plan, cfs, est, units)
    assert any(e.kind == "direct" for e in entries)
    assert len(asked) > len(set(asked))  # pairs recur
    assert calls and len(calls) == len(set(calls))
    first = list(calls)
    calls.clear()  # a second call has its own table: it computes each pair again, once
    propagate.variance_time(plan, cfs, est, units)
    assert calls == first


def test_degenerate_fit_flagged():
    relations, world, units, pool = _world_fixture()

    def predict(value):
        doc = {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
                          "predicate": [{"col": "r1_val", "op": "<", "value": value}]}], "root": 1}
        plan = planmod.parse_plan(json.dumps(doc))
        return propagate.predict_distribution(plan, pool, relations, units,
                                              oracle=world.cost_oracle(plan, relations))

    # No sampled row passes: rho_n = 0 with zero variance, so the grid of
    # the scan's C2 c_o term collapses to one point.
    dist, est, cfs, _ = predict(0)
    assert est[1].rho_n == 0.0 and cfs[1]["c_o"].degenerate
    assert "degenerate-fit" in dist.flags
    dist, est, cfs, _ = predict(5000)
    assert 0.0 < est[1].rho_n < 1.0
    assert not any(cf.degenerate for cf in cfs[1].values())
    assert "degenerate-fit" not in dist.flags


def test_fit_makes_one_oracle_call_per_term():
    relations, world, _, pool = _world_fixture()
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "IndexScan", "relation": "r2", "children": []},
            {"id": 3, "kind": "NestLoopJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}]},
            {"id": 4, "kind": "Sort", "children": [3]},
        ],
        "root": 4,
    }
    # The second plan shares the first's table and its join's inputs, with
    # a Materialize in place of the Sort: its scans' and join's grids hit.
    plans = [planmod.parse_plan(json.dumps(doc))]
    doc["nodes"][3]["kind"] = "Materialize"
    plans.append(planmod.parse_plan(json.dumps(doc)))
    shared = {}
    for plan in plans:
        est = selest.estimate_all(plan, pool, relations)
        inner = world.cost_oracle(plan, relations)
        calls = []

        def oracle(key, coords):
            calls.append((key, np.shape(coords)))
            return inner(key, coords)

        stored = len(shared), sum(len(fits) for _, _, fits in shared.values())
        fitted = propagate.fit_all_cost_functions(plan, est, oracle, W=6, shared=shared)
        terms = [(nid, u) for nid, per in fitted.items() for u in per]
        assert sorted(key for key, _ in calls) == sorted(terms)
        for (nid, unit), shape in calls:
            tag, vars_ = plan.index.terms[nid, unit]
            if all(v is None for v in vars_):  # a constant: one probe, fitted exactly
                assert shape == (1, ARITY[tag])
                assert not fitted[nid][unit].degenerate
            else:
                assert shape == (7 ** ARITY[tag], ARITY[tag])
        assert ((1, "c_r"), (1, 0)) in calls  # a SeqScan's C1 term is probed too
        assert ((1, "c_s"), (1, 1)) in calls  # and its C3 terms on the constant left input
        assert fitted[1]["c_s"].b == (0.0, inner((1, "c_s"), np.ones((1, 1)))[0])
        assert fitted == propagate.fit_all_cost_functions(plan, est, inner, W=6)
    # the second plan fitted only its Materialize's C3 terms, on a stored
    # grid, the others hit
    assert (len(shared), sum(len(fits) for _, _, fits in shared.values())) == (stored[0], stored[1] + 1)


def test_shared_fits_keyed_by_family_coordinates_and_values():
    # An oracle that answers every term with the same values, whatever the
    # coordinates: a scan's C2 grid and a Sort's C3 and C4 grids on the
    # scan's variable then share coordinates and values, and only their family
    # tells them apart; a second estimate of the scan shares the values,
    # and only its coordinates tell it apart. The three families read one
    # stored grid per estimate, and that grid's entry keeps the fits made
    # on its coordinates, by family and the bytes of their probe values.
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "Sort", "children": [1]},
        ],
        "root": 2,
    }
    sort = planmod.parse_plan(json.dumps(doc))
    scan = planmod.parse_plan(json.dumps({"nodes": doc["nodes"][:1], "root": 1}))

    def oracle(key, coords):
        return np.arange(len(coords), dtype=float) ** 1.5

    shared = {}
    for plan, rho in ((scan, 0.3), (sort, 0.3), (scan, 0.6), (sort, 0.6)):
        est = {1: _scan_estimate(rho)}
        fitted = propagate.fit_all_cost_functions(plan, est, oracle, W=4, shared=shared)
        assert fitted == propagate.fit_all_cost_functions(plan, est, oracle, W=4)
    assert fitted[2]["c_t"].tag == "C3" and fitted[1]["c_o"].tag == "C2"
    assert len(shared) == 2 and all(key[0] == "grid" for key in shared)  # one grid at each of the two estimates
    for coords, _, fits in shared.values():  # the scan's C2, the Sort's C3 and C4
        assert fits.keys() == {(tag, oracle(None, coords).tobytes()) for tag in ("C2", "C3", "C4")}

    def nan_last(key, coords):  # the Sort's C4 grid, fitted after the other two
        return oracle(key, coords) * (math.nan if key == (2, "c_o") else 1.0)

    before = {key: dict(fits) for key, (_, _, fits) in shared.items()}
    est = {1: _scan_estimate(0.45)}
    with pytest.raises(costfit.FitError, match="non-finite probe values for a C4 fit"):
        propagate.fit_all_cost_functions(sort, est, nan_last, W=4, shared=shared)
    # its grid, and the fits made on it before the failure, are kept, each
    # a pure function of its key; the failed fit is not
    assert all(shared[key][2] == fits for key, fits in before.items())
    (key,) = shared.keys() - before.keys()
    fits = shared[key][2]
    assert {tag for tag, _ in fits} == {"C2", "C3"}
    assert propagate.fit_all_cost_functions(sort, est, oracle, W=4, shared=shared) == \
        propagate.fit_all_cost_functions(sort, est, oracle, W=4)
    assert {tag for tag, _ in fits} == {"C2", "C3", "C4"}


def test_shared_table_lives_only_as_long_as_its_evaluation(monkeypatch):
    # The table one evaluation shares is freed by reference counting alone
    # when the evaluation returns, and holds its inputs no longer: a dict
    # cannot be weakly referenced, so the stored results are watched, read
    # at each prediction and after each truth. What is derived from a stored
    # result lives on it: a scan's counters (a list) and a hash table (a
    # dict) cannot be watched either, so they are watched through that
    # result; a tally is watched itself, here an array tally, by its two
    # arrays, as truth counts every join over column arrays, and so are the
    # positions and multiplicities a result keeps as arrays. A column
    # array's entry holds the table its key names. A "read" entry holds the
    # inputs its key names, a read scan's bound table or a read join's two
    # inputs, and its result, all watched, and only a read join's result
    # carries a join's counters and S2 here; no scan or join that no parent
    # reads, a root one included, is ever stored. A grid's entry holds its
    # coordinates, watched, its distinct count, an int, which cannot be, and
    # its fits, whose functions are watched. A probe reply's entry holds the
    # world its key names, which outlives the evaluation here, and the
    # reply, a read-only array, watched.
    relations, world, units, pool = _world_fixture(sizes=(60, 60, 60))
    spec = simeval.WorkloadSpec(scan_targets=[0.3, 0.3, 0.6], join_targets=[(0.5, 0.5)],
                                three_way_targets=[(0.5, 0.5, 0.5)], seed=1)
    plans, _ = simeval.generate_workload(spec, relations)
    predict, execute = propagate.predict_distribution, planmod.execute
    # the table each prediction and each truth was given; each stored object,
    # by id: a sample table or base relation, a scan result, a tally or a
    # cost function
    tables, truths, kinds, refs = [], [], set(), {}
    unread = []  # per scan or join executed, (whether it is a scan, whether no parent reads it)

    def watch(shared):
        stored = []
        joins = {id(value[2]) for key, value in shared.items() if key[0] == "read" and key[2][0] is None}
        for key, value in shared.items():
            if key[0] == "read":  # a read scan's or read join's: its inputs' identities first
                assert key[1] == tuple(map(id, value[:-1])) and type(value[-1]) is planmod.AnnotatedResult
                assert {type(obj) for obj in value[:-1]} == {planmod.AnnotatedResult if key[2][0] is None
                                                             else store.Relation}
                kinds.add((key[0], len(value)))
                stored.extend(value)
            elif key[0] == "probe":
                assert key[1] == id(value[0]) and type(value[0]) is simeval.TrueCostWorld
                assert type(value[1]) is np.ndarray and not value[1].flags.writeable
                kinds.add(key[0])
                stored.append(value[1])
            elif key[0] == "grid":
                assert type(value[0]) is np.ndarray and type(value[1]) is int
                kinds.add(key[0])
                stored.append(value[0])
                for (tag, _), fit in value[2].items():
                    assert tag in costfit.FAMILIES and {cf.tag for cf in fit} == {tag}
                    kinds.add("fits")
                    stored.extend(fit)
            else:
                assert key[0] == "column" and key[1] == id(value[0]) and type(value[0]) is store.Relation
                stored.extend(value)
        for res in [obj for obj in stored if type(obj) is planmod.AnnotatedResult and obj.derived]:
            for key, value in res.derived.items():
                if key == "counters" and type(value) is tuple:  # a join's counters and S2
                    assert id(res) in joins and type(value[1]) is float
                    kinds.add(("join counters", type(value[0])))
                else:
                    kinds.add((key if key == "counters" else key[0], type(value)))
                    if type(value) is Counter:
                        stored.append(value)
                    elif key[0] == "counts":
                        stored.extend(value)
        for res in [obj for obj in stored if type(obj) is planmod.AnnotatedResult and obj.kept]:
            kinds.add("kept")
            stored.extend(array for array in res.kept[1:] if array is not None)
        kinds.update(map(type, stored))
        refs.update((id(obj), weakref.ref(obj)) for obj in stored)
        return stored

    def spying(*args, shared=None, **kwargs):
        tables.append(id(shared))
        out = predict(*args, shared=shared, **kwargs)
        watch(shared)
        return out

    def executing(plan, bindings, *, provenance=False, shared=None):
        out = execute(plan, bindings, provenance=provenance, shared=shared)
        if not provenance:  # truth's execution over the full relations
            truths.append(id(shared))
        stored = {id(obj) for obj in watch(shared)}
        index = plan.index
        for nid in index.streamed:  # every result is alive here, so no id is reused
            assert (id(out[nid]) in stored) is (nid in index.read)
            unread.append((nid in index.appearance, nid not in index.read))
        return out

    monkeypatch.setattr(propagate, "predict_distribution", spying)
    monkeypatch.setattr(planmod, "execute", executing)
    gc.collect()
    gc.disable()
    try:
        records, summary = simeval.evaluate_workload(plans, relations, pool, units, world, runs=1)
        assert len(records) == len(tables) == len(truths) == 5 and summary["count"] == 5
        assert len(set(tables + truths)) == 1
        assert kinds == {store.Relation, planmod.AnnotatedResult, costfit.CostFunction, np.ndarray,
                         ("counters", list), ("hash", dict), ("counts", tuple), "kept", ("read", 2), ("read", 3),
                         ("join counters", list), "grid", "fits", "probe"}
        assert set(unread) == {(True, True), (True, False), (False, True), (False, False)}  # root scans and joins ran
        read = {rel for _, p in plans for rel, _ in p.index.appearance.values()}
        assert {id(relations[rel]) for rel in read} <= refs.keys()  # truth's scans were stored
        # only the sample tables, which the pool holds, and the base
        # relations outlive the evaluation
        assert {type(ref()) for ref in refs.values()} == {store.Relation, type(None)}
        held = {id(t) for ts in pool.tables.values() for t in ts} | set(map(id, relations.values()))
        assert {id(ref()) for ref in refs.values() if ref() is not None} <= held
        inputs = [weakref.ref(obj) for obj in (pool, plans[0][1], units, world)]
        del records, summary, relations, world, units, pool, plans
        assert [ref() for ref in inputs] == [None] * 4
        assert [ref() for ref in refs.values()] == [None] * len(refs)
    finally:
        gc.enable()


def test_mass_below_zero_and_its_flag(monkeypatch):
    # The normal's mass below zero is Phi(-mean/stddev), 0 without spread;
    # a prediction with more than 1% of it there is flagged "negative-mass",
    # and its mean and variance are what they are without the flag.
    dist = propagate.RunningTimeDistribution
    assert dist(1.0, 0.0).mass_below_zero == dist(-1.0, 0.0).mass_below_zero == 0.0
    assert dist(0.0, 4.0).mass_below_zero == 0.5
    assert dist(-2.0, 1.0).mass_below_zero == pytest.approx(0.9772498680518208, rel=1e-12)
    z = 2.3263478740408408  # Phi(-z) = 0.01
    assert dist(z, 1.0).mass_below_zero == pytest.approx(propagate.NEGATIVE_MASS, rel=1e-9)
    assert dist(2.32, 1.0).mass_below_zero > propagate.NEGATIVE_MASS > dist(2.33, 1.0).mass_below_zero
    assert dist(3.0 * 2.32, 9.0).mass_below_zero == pytest.approx(dist(2.32, 1.0).mass_below_zero, rel=1e-12)
    relations, world, units, pool = _world_fixture()
    plan = planmod.parse_plan(json.dumps({"nodes": [
        {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
         "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]}], "root": 1}))
    oracle = world.cost_oracle(plan, relations)
    base, _, _, _ = propagate.predict_distribution(plan, pool, relations, units, oracle)
    assert base.stddev > 0.0 and base.mass_below_zero <= propagate.NEGATIVE_MASS
    assert "negative-mass" not in base.flags
    for ratio, flagged in ((2.32, True), (2.33, False)):  # the mean moved to either side of the threshold
        monkeypatch.setattr(propagate, "expected_time", lambda *args: ratio * base.stddev)
        moved, _, _, _ = propagate.predict_distribution(plan, pool, relations, units, oracle)
        assert moved.variance == base.variance and moved.mean == ratio * base.stddev
        assert ("negative-mass" in moved.flags) is flagged
        assert [f for f in moved.flags if f != "negative-mass"] == base.flags


def test_non_finite_constant_probe_raises():
    # A constant term is probed once and stored as its value: a NaN there
    # is a FitError naming the term, not a NaN coefficient.
    relations, world, _, pool = _world_fixture()
    plan = planmod.parse_plan(json.dumps({"nodes": [
        {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
         "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]}], "root": 1}))
    est = selest.estimate_all(plan, pool, relations)
    inner = world.cost_oracle(plan, relations)

    def oracle(key, coords):
        return np.full(len(coords), np.nan) if key == (1, "c_r") else inner(key, coords)

    with pytest.raises(costfit.FitError, match="node 1, unit c_r: non-finite probe value nan"):
        propagate.fit_all_cost_functions(plan, est, oracle)


@pytest.mark.parametrize("reply, shape", [
    (lambda values: values[0], "()"),  # a bare float
    (lambda values: np.append(values, values), None),  # twice as many values
    (lambda values: values[:, None], None),  # a column
])
@pytest.mark.parametrize("term", [(1, "c_r"), (1, "c_o")])  # a constant term, then a grid's
def test_oracle_reply_checked_against_its_term(reply, shape, term):
    relations, world, _, pool = _world_fixture()
    plan = planmod.parse_plan(json.dumps({"nodes": [
        {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
         "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]}], "root": 1}))
    est = selest.estimate_all(plan, pool, relations)
    inner = world.cost_oracle(plan, relations)
    m = 1 if term == (1, "c_r") else 11
    got = reply(inner(term, np.ones((m, 1 if m > 1 else 0))))
    shape = shape or str(np.shape(got))

    def oracle(key, coords):
        values = inner(key, coords)
        return reply(values) if key == term else values

    with pytest.raises(costfit.FitError, match=rf"^node 1, unit {term[1]}: {m} probe coordinates but values "
                                               rf"of shape {re.escape(shape)}$"):
        propagate.fit_all_cost_functions(plan, est, oracle)


def test_fit_builds_one_grid_per_family_and_inputs(monkeypatch):
    # A three-way join under a Sort: several units of one operator read the
    # same inputs through the same family, so they share one grid and one
    # fit call; the Sort's C3 and C4 terms read one input through two
    # families, so they share its grid, built once, and are fitted apart.
    relations, world, _, pool = _world_fixture()
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": [],
             "predicate": [{"col": "r2_val", "op": "<", "value": 7000}]},
            {"id": 3, "kind": "SeqScan", "relation": "r3", "children": [],
             "predicate": [{"col": "r3_val", "op": "<", "value": 6000}]},
            {"id": 4, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}]},
            {"id": 5, "kind": "NestLoopJoin", "children": [4, 3],
             "predicate": [{"left": "r2_key2", "right": "r3_key2"}]},
            {"id": 6, "kind": "Sort", "children": [5]},
        ],
        "root": 6,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    est = selest.estimate_all(plan, pool, relations)
    inner_oracle = world.cost_oracle(plan, relations)
    oracle_calls, grid_calls, fit_calls = [], [], []

    def oracle(key, coords):
        oracle_calls.append(key)
        return inner_oracle(key, coords)

    def counted(wrapped, calls):
        def call(*args, **kwargs):
            calls.append(args)
            return wrapped(*args, **kwargs)
        return call

    monkeypatch.setattr(costfit, "grid_points", counted(costfit.grid_points, grid_calls))
    monkeypatch.setattr(costfit, "fit_grid", counted(costfit.fit_grid, fit_calls))
    fitted = propagate.fit_all_cost_functions(plan, est, oracle)
    varying = {term: fv for term, fv in plan.index.terms.items() if any(v is not None for v in fv[1])}
    groups = set(varying.values())
    assert len(groups) < len(varying)  # some grids are shared
    assert len(fit_calls) == len(groups)
    inputs = {tuple((est[v].rho_n, est[v].sigma2) for v in vars_) for _, vars_ in groups}
    assert len(grid_calls) == len(inputs) == len(groups) - 1  # the Sort's C3 and C4 fits read one grid
    assert sorted(oracle_calls) == sorted(plan.index.terms)
    for nid, per in fitted.items():
        assert list(per) == [unit for n, unit in plan.index.terms if n == nid]


# ---------------------------------------------------------------------------
# Property: the variance and its breakdown on generated plans


@pytest.fixture(scope="module")
def world_inputs():
    relations, _, _, pool = _world_fixture()
    return relations, pool


@st.composite
def _costed_plans(draw):
    """A 2- or 3-relation join plan, optionally under a Sort, with random
    cost profiles; a join may be costed on its own selectivity (C2) next
    to a C5 or C6 term on its inputs."""
    k = draw(st.sampled_from([2, 3]))
    nodes = [
        {"id": i, "kind": draw(st.sampled_from(planmod.SCAN_KINDS)), "relation": f"r{i}", "children": [],
         "predicate": [{"col": f"r{i}_val", "op": "<", "value": draw(st.integers(0, 10000))}]}
        for i in range(1, k + 1)
    ]
    join_on = [("r1_key", "r2_key"), ("r2_key2", "r3_key2")]
    children = [1, 2]
    if k == 3 and draw(st.booleans()):  # right-deep: r1 joins (r2 join r3)
        nodes.append({"id": 4, "kind": "HashJoin", "children": [2, 3],
                      "predicate": [{"left": "r2_key2", "right": "r3_key2"}]})
        children, join_on = [1, 4], [join_on[0]]
    for nid, (left, right) in enumerate(join_on[: k - 1], start=len(nodes) + 1):
        nodes.append({"id": nid, "kind": draw(st.sampled_from(planmod.JOIN_KINDS)), "children": children,
                      "predicate": [{"left": left, "right": right}]})
        children = [nid, 3]
    if draw(st.booleans()):
        nodes.append({"id": len(nodes) + 1, "kind": "Sort", "children": [nodes[-1]["id"]]})
    for node in nodes:
        families = [t for t, (inputs, _) in costfit.FAMILIES.items()
                    if "right" not in inputs or node["children"][1:]]
        node["cost_profile"] = draw(st.dictionaries(st.sampled_from(planmod.COST_UNITS),
                                                    st.sampled_from(families)))
        if node["kind"] in planmod.JOIN_KINDS and draw(st.booleans()):
            node["cost_profile"].update({"c_t": "C2", "c_o": draw(st.sampled_from(["C5", "C6"]))})
    return planmod.parse_plan(json.dumps({"nodes": nodes, "root": nodes[-1]["id"]}))


_coef = st.one_of(st.just(0.0), st.floats(0.0, 1e3))


@settings(max_examples=150, deadline=None)
@given(plan=_costed_plans(), data=st.data())
def test_variance_breakdown_properties(world_inputs, plan, data):
    relations, pool = world_inputs
    est = selest.estimate_all(plan, pool, relations)
    cfs = {
        node.id: {unit: CostFunction(tag, data.draw(st.tuples(*[_coef] * len(costfit.FAMILIES[tag][1]))))
                  for unit, tag in node.cost_profile.items()}
        for node in plan.nodes.values()
    }
    units = _units({u: data.draw(st.floats(0.0, 2.0)) for u in planmod.COST_UNITS},
                   {u: data.draw(st.floats(0.0, 0.1)) for u in planmod.COST_UNITS})
    for policy in propagate.POLICIES:
        total, breakdown, entries, flags = propagate.variance_time(plan, cfs, est, units, policy=policy)
        assert total >= 0.0
        if "clamped" not in flags:
            assert math.isclose(sum(v for _, v, _ in breakdown), total, rel_tol=1e-12, abs_tol=1e-300)
        bound = sum(v for _, v, kind in breakdown if kind.startswith("bound"))
        rest = sum(v for _, v, kind in breakdown if not kind.startswith("bound"))
        assert ("bound-dominated" in flags) == (bound > 0.0 and bound >= rest)
        assert all(e.pair[0] != e.pair[1] for e in entries)


# ---------------------------------------------------------------------------
# Property: the fit against its written-out reference, and the probe
# oracle against `reference_b`


def _synthetic_oracle(key, coords):
    """Probe values for a term of any family: a seeded function of the
    term and the coordinates, the same on every call. A negative slope
    sends a fit down the passive-set path."""
    rng = np.random.default_rng(zlib.crc32(repr(key).encode()))
    slope, level = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 5.0)
    return level + slope * coords.sum(axis=1) + 0.1 * rng.normal(size=len(coords))


def _fit_hex(fitted):
    return [(nid, unit, cf.tag, [b.hex() for b in cf.b], cf.degenerate)
            for nid, per in fitted.items() for unit, cf in per.items()]


_rho = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_s2 = st.sampled_from([0.0]) | st.floats(0.0, 0.25)  # 0: a collapsed grid; near 0 or 1: a clipped one


@pytest.fixture(scope="module")
def world_and_relations():
    relations, world, _, _ = _world_fixture()
    return world, relations


@settings(max_examples=100, deadline=None)
@given(plan=_costed_plans(), data=st.data())
def test_fit_matches_reference_and_oracle_memo(world_and_relations, plan, data):
    world, relations = world_and_relations
    est = {nid: SelEstimate(rho_n=data.draw(_rho), s2_n=data.draw(_s2), n=data.draw(st.integers(1, 50)))
           for nid in plan.nodes}
    W = data.draw(st.integers(1, 10))
    got = propagate.fit_all_cost_functions(plan, est, _synthetic_oracle, W=W)
    assert _fit_hex(got) == _fit_hex(reference_fit(plan, est, _synthetic_oracle, W))
    # The same plan on the default cost profiles, probed through the world's
    # oracle, whose closure keeps the plan's leaf products.
    doc = json.loads(planmod.serialize_plan(plan))
    for node in doc["nodes"]:
        node.pop("cost_profile")
    plan = planmod.parse_plan(json.dumps(doc))
    got = propagate.fit_all_cost_functions(plan, est, world.cost_oracle(plan, relations), W=W)
    assert _fit_hex(got) == _fit_hex(reference_fit(plan, est, world.cost_oracle(plan, relations), W))
    oracle = world.cost_oracle(plan, relations)
    for key in data.draw(st.permutations(list(plan.index.terms) * 2)):  # shuffled, each key twice
        tag, _ = plan.index.terms[key]
        coords, _ = costfit.grid_points([(0.4, 0.01)] * ARITY[tag], W)
        want = costfit.design_matrix(tag, coords) @ reference_b(plan, relations, world, *key)
        assert oracle(key, coords).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Property: the term table's E[f] against the walk over every exponent


_signed_coef = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)


@settings(max_examples=150, deadline=None)
@given(plan=_costed_plans(), data=st.data())
def test_term_table_mean_bitwise_equal_to_written_out_walk(plan, data):
    # The table reads E[f] off the monomial form, which leaves out
    # zero-coefficient monomials and exponent-0 factors; the reference
    # (`conftest.cost_function_moments`) walks every exponent of the family.
    est = {nid: SelEstimate(rho_n=data.draw(_rho), s2_n=data.draw(_s2), n=data.draw(st.integers(1, 50)))
           for nid in plan.nodes}
    cfs = {nid: {} for nid in plan.nodes}
    for (nid, unit), (tag, _) in plan.index.terms.items():
        cfs[nid][unit] = CostFunction(tag, data.draw(st.tuples(*[_signed_coef] * costfit.NUM_COEFS[tag])))
    units = _units({u: data.draw(st.floats(0.0, 2.0)) for u in planmod.COST_UNITS},
                   {u: data.draw(st.floats(0.0, 0.1)) for u in planmod.COST_UNITS})
    for policy in propagate.POLICIES:
        dists = {v: (e.rho_n, 0.0 if policy == "no-var-x" else e.sigma2) for v, e in est.items()}
        dists[None] = (1.0, 0.0)
        want = [(nid, units.mean(unit), 0.0 if policy == "no-var-c" else units.variance(unit),
                 cost_function_moments(cfs[nid][unit], [dists[v] for v in vars_])[0])
                for (nid, unit), (_, vars_) in plan.index.terms.items()]
        _, table = propagate._term_table(plan, cfs, est, units, policy)
        assert [(nid, mu.hex(), s2.hex(), e_f.hex()) for nid, mu, s2, e_f, _ in table] == \
            [(nid, mu.hex(), s2.hex(), e_f.hex()) for nid, mu, s2, e_f in want]
        if policy == "all":
            total = 0.0
            for _, mu, _, e_f in want:  # in `PlanIndex.terms` order
                total += mu * e_f
            assert propagate.expected_time(plan, cfs, est, units).hex() == total.hex()


def test_term_table_sums_monomials_in_family_order():
    # At unit selectivities a C6 term's E[f] is b0 + b1 + b2 + b3, summed in
    # the family's order: (0.1 + 0.2) + 0.3 is not 0.3 + 0.2 + 0.1.
    plan = planmod.parse_plan(json.dumps({"nodes": [
        {"id": 1, "kind": "SeqScan", "relation": "A", "children": []},
        {"id": 2, "kind": "SeqScan", "relation": "B", "children": []},
        {"id": 3, "kind": "NestLoopJoin", "children": [1, 2], "predicate": [{"left": "a", "right": "b"}]},
    ], "root": 3}))
    cfs = {nid: {unit: CostFunction(tag, (0.0,) * costfit.NUM_COEFS[tag])
                 for unit, tag in node.cost_profile.items()}
           for nid, node in plan.nodes.items()}
    cfs[3]["c_t"] = CostFunction("C6", (0.1, 0.2, 0.3, 0.0))
    est = {nid: SelEstimate(rho_n=1.0, s2_n=0.0, n=10) for nid in plan.nodes}
    _, table = propagate._term_table(plan, cfs, est, _units({}, {}), "all")
    assert [e_f for nid, _, _, e_f, _ in table if nid == 3] == [(0.1 + 0.2) + 0.3, 0.0]
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
