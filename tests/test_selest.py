"""Selectivity estimates, variance formulas, shared-position variances."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runtimedist import plan as planmod, selest, store
from conftest import (
    brute_membership,
    s2_enumeration,
    snm_enumeration,
    tiny_instance,
)


def _join2_fixture(left_keys, right_keys):
    """Two one-column relations joined on their key, pool = full tables."""
    l = store.Relation("L", (("L_k", "int64"),), tuple((k,) for k in left_keys))
    r = store.Relation("R", (("R_k", "int64"),), tuple((k,) for k in right_keys))
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "L", "children": []},
            {"id": 2, "kind": "SeqScan", "relation": "R", "children": []},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "L_k", "right": "R_k"}]},
        ],
        "root": 3,
    }
    p = planmod.parse_plan(json.dumps(doc))
    relations = {"L": l, "R": r}
    pool = store.build_pool(relations, n=len(left_keys), pool_size=1, seed=0)
    return p, relations, pool


# ---------------------------------------------------------------------------
# Closed forms and hand enumerations


def test_estimate_all_refuses_a_pool_of_no_sampling_steps():
    p, relations, pool = _join2_fixture([1, 2], [2, 3])
    with pytest.raises(selest.EstimationError, match="^pool has no sampling steps$"):
        selest.estimate_all(p, store.SamplePool(n=0, pool_size=1, seed=0, tables=pool.tables), relations)


def test_scan_variance_values():
    assert selest.scan_variance(0.0) == 0.0
    assert selest.scan_variance(1.0) == 0.0
    assert selest.scan_variance(0.5) == 0.25
    assert selest.scan_variance(0.3) == pytest.approx(0.21)
    with pytest.raises(ValueError):
        selest.scan_variance(1.5)


def test_scan_estimate_closed_form():
    # 30 of 100 sampled rows pass the predicate.
    rows = tuple((1,) if i < 30 else (0,) for i in range(100))
    rel = store.Relation("R", (("R_a", "int64"),), rows)
    doc = {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "R", "children": [],
                      "predicate": [{"col": "R_a", "op": "=", "value": 1}]}], "root": 1}
    p = planmod.parse_plan(json.dumps(doc))
    pool = store.build_pool({"R": rel}, n=100, pool_size=1, seed=0)
    est = selest.estimate_all(p, pool, {"R": rel})[1]
    assert est.rho_n == pytest.approx(0.30)
    assert est.s2_n == pytest.approx(0.21)


def test_two_way_join_hand_example():
    # Sample keys {1,2} x {1,1}: rho=0.5, Q1={2,0}, Q2={1,1}, S2=0.5.
    p, relations, pool = _join2_fixture([1, 2], [1, 1])
    est = selest.estimate_all(p, pool, relations)[3]
    assert est.rho_n == pytest.approx(0.5)
    assert est.s2_n == pytest.approx(0.5)
    q1, q2 = est.q
    assert sorted(q1.values()) == [2]
    assert sorted(q2.values()) == [1, 1]
    assert selest.estimate_for_subset(est, [0, 1]) == pytest.approx(0.5)
    # Restricting to shared position 1 keeps only the first position's term.
    assert selest.estimate_for_subset(est, [0]) == pytest.approx(0.5)
    assert selest.estimate_for_subset(est, [1]) == pytest.approx(0.0)


def test_three_way_single_match():
    # One match (0, 0, 0) among n^K = 8 combinations: rho = 1/8, and each
    # position's counter holds that one match.
    est = selest.SelEstimate(rho_n=1 / 8, s2_n=0.0, n=2, q=[{0: 1}, {0: 1}, {0: 1}])
    assert selest.estimate_for_subset(est, range(3)) == pytest.approx(3 / 32)


def test_join_variance_zero_matches():
    est = selest.SelEstimate(rho_n=0.0, s2_n=0.0, n=4, q=[{}, {}])
    assert selest.estimate_for_subset(est, range(2)) == 0.0


def test_join_variance_n1_convention():
    est = selest.SelEstimate(rho_n=1.0, s2_n=0.0, n=1, q=[{0: 1}, {0: 1}])
    assert selest.estimate_for_subset(est, range(2)) == 0.0


def test_shared_variance_contract():
    # Over the full position list it is the estimate's own S2_n; an
    # aggregate-derived estimate, which has no counters, restricts to 0.
    p, relations, pool = _join2_fixture([1, 2], [1, 1])
    est = selest.estimate_all(p, pool, relations)[3]
    assert selest.estimate_for_subset(est, range(2)) == est.s2_n
    assert est.s2_n == pytest.approx(0.5)
    assert selest.estimate_for_subset(selest.SelEstimate(0.5, 0.0, 2), [0]) == 0.0


def test_shared_variance_zero_rho():
    est = selest.SelEstimate(rho_n=0.0, s2_n=0.0, n=4, q=[{}, {}])
    for m in (1, 2):
        assert selest.estimate_for_subset(est, range(m)) == 0.0


def test_aggregate_estimate():
    l = store.Relation("L", (("L_k", "int64"),), tuple((i,) for i in range(20)))
    r = store.Relation("R", (("R_k", "int64"),), tuple((i,) for i in range(50)))
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "L", "children": []},
            {"id": 2, "kind": "SeqScan", "relation": "R", "children": []},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "L_k", "right": "R_k"}]},
            {"id": 4, "kind": "Aggregate", "children": [3], "estimate_M": 7},
        ],
        "root": 4,
    }
    p = planmod.parse_plan(json.dumps(doc))
    relations = {"L": l, "R": r}
    pool = store.build_pool(relations, n=10, pool_size=1, seed=0)
    est = selest.estimate_all(p, pool, relations)[4]
    assert est.rho_n == pytest.approx(7 / 1000)
    assert est.s2_n == 0.0
    assert est.source == "aggregate"


def test_truth_follows_estimate_above_aggregate():
    # Every operator at or above an aggregate reports its own estimate_M,
    # in ground truth as in the estimate: a Sort, a join, a Materialize.
    r1 = store.Relation("r1", (("r1_k", "int64"),), tuple((i % 7,) for i in range(300)))
    r2 = store.Relation("r2", (("r2_k", "int64"),), tuple((i % 5,) for i in range(200)))
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": []},
            {"id": 2, "kind": "Aggregate", "children": [1], "estimate_M": 10},
            {"id": 3, "kind": "Sort", "children": [2], "estimate_M": 70},
            {"id": 4, "kind": "SeqScan", "relation": "r2", "children": []},
            {"id": 5, "kind": "HashJoin", "children": [3, 4], "estimate_M": 500,
             "predicate": [{"left": "r1_k", "right": "r2_k"}]},
            {"id": 6, "kind": "Materialize", "children": [5], "estimate_M": 40},
        ],
        "root": 6,
    }
    p = planmod.parse_plan(json.dumps(doc))
    relations = {"r1": r1, "r2": r2}
    pool = store.build_pool(relations, n=20, pool_size=1, seed=0)
    truth = planmod.selectivity_truth(p, relations)
    est = selest.estimate_all(p, pool, relations)
    assert p.index.agg_above == {2, 3, 5, 6}
    for nid in p.index.agg_above:
        assert truth[nid] == est[nid].rho_n
    assert truth[3] == 70 / 300
    assert truth[6] == 40 / (300 * 200)


def test_pass_through_inherits_variable():
    p0, relations, pool = _join2_fixture([1, 2], [1, 1])
    doc = json.loads(planmod.serialize_plan(p0))
    doc["nodes"].append({"id": 4, "kind": "Sort", "children": [3], "cost_profile": {}})
    doc["root"] = 4
    p = planmod.parse_plan(json.dumps(doc))
    est = selest.estimate_all(p, pool, relations)
    assert p.index.var[4] == p.index.var[3] == 3
    assert est[4].rho_n == est[3].rho_n
    assert est[4].s2_n == est[3].s2_n


def test_exhaustive_sample_recovers_truth():
    p, relations, pool = _join2_fixture([1, 2, 3, 1], [1, 1, 2, 4])
    est = selest.estimate_all(p, pool, relations)
    truth = planmod.selectivity_truth(p, relations)
    for nid in (1, 2, 3):
        assert est[nid].rho_n == pytest.approx(truth[nid])


# ---------------------------------------------------------------------------
# Oracle equivalence on random tiny instances


@pytest.mark.parametrize("seed", range(12))
def test_streaming_matches_enumeration(seed):
    relations, p, desc = tiny_instance(seed)
    n = int(np.random.default_rng(seed).integers(2, min(r.row_count for r in relations.values()) + 1))
    pool = store.build_pool(relations, n=n, pool_size=1, seed=seed)
    est = selest.estimate_all(p, pool, relations)
    leaf_order = planmod.leaf_tables(p, None)
    tables = [list(pool.table(rel, 0).rows) for rel, _ in leaf_order]
    z = brute_membership(desc, tables)
    root = est[p.root]
    K = len(p.index.leaves[p.root])
    assert root.rho_n == pytest.approx(float(z.mean()), abs=1e-12)
    if K >= 2:
        expect = s2_enumeration(z, n)
        assert root.s2_n == pytest.approx(expect, rel=1e-12, abs=1e-15)
        for m in range(1, K + 1):
            assert selest.estimate_for_subset(root, range(m)) == pytest.approx(
                snm_enumeration(z, n, range(m)), rel=1e-12, abs=1e-15
            )
    else:
        # Scans store the closed form; the streaming formula differs by the
        # finite-sample factor n/(n-1).
        rho = root.rho_n
        assert root.s2_n == pytest.approx(rho * (1 - rho), abs=1e-15)
        assert selest.estimate_for_subset(root, [0]) == pytest.approx(
            s2_enumeration(z, n), rel=1e-12, abs=1e-15
        )


def test_q_counts_sum_to_output():
    for seed in range(6):
        relations, p, desc = tiny_instance(seed, shape=3)
        n = min(r.row_count for r in relations.values())
        pool = store.build_pool(relations, n=n, pool_size=1, seed=seed)
        est = selest.estimate_all(p, pool, relations)[p.root]
        for qk in est.q:
            assert sum(qk.values()) == est.count


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), shape=st.integers(1, 3), data=st.data())
def test_every_position_subset_matches_enumeration(seed, shape, data):
    # Every non-empty subset of the root's leaf positions, not only the
    # prefixes a covariance bound reads.
    relations, p, desc = tiny_instance(seed, shape=shape)
    n = data.draw(st.integers(1, min(r.row_count for r in relations.values())), label="n")
    pool = store.build_pool(relations, n=n, pool_size=1, seed=seed)
    root = selest.estimate_all(p, pool, relations)[p.root]
    tables = [list(pool.table(rel, 0).rows) for rel, _ in planmod.leaf_tables(p, None)]
    z = brute_membership(desc, tables)
    K = len(p.index.leaves[p.root])
    for m in range(1, K + 1):
        for subset in itertools.combinations(range(K), m):
            assert selest.estimate_for_subset(root, subset) == pytest.approx(
                snm_enumeration(z, n, subset), rel=1e-12, abs=1e-15
            )
    if root.source == "q-scan":
        assert selest.estimate_for_subset(root, range(K)) == root.s2_n
