"""Simulation world, evaluation metrics, and the variance oracles."""

import dataclasses
import itertools
import json
import math
import re
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runtimedist import calib, costfit, plan as planmod, propagate, selest, simeval, store
from runtimedist.simeval import EvalRecord, TrueCostWorld, WorkloadSpec
from conftest import (ARITY, assert_stored_as_fresh, brute_membership, monte_carlo_variance, reference_b, reference_costs,
                      reference_run, tiny_instance)


# ---------------------------------------------------------------------------
# Normal CDF and correlation metrics


def test_normal_cdf_pinned_values():
    cases = {
        0.0: 0.5,
        0.5: 0.6914624613,
        1.0: 0.8413447461,
        1.96: 0.9750021049,
        2.0: 0.9772498681,
        3.0: 0.9986501020,
    }
    for x, phi in cases.items():
        assert simeval.normal_cdf(x) == pytest.approx(phi, abs=1e-7)
    assert 2.0 * simeval.normal_cdf(1.0) - 1.0 == pytest.approx(0.6826894921, abs=2e-7)


def test_normal_cdf_accuracy_grid():
    xs = np.linspace(-8.0, 8.0, 1601)
    exact = 0.5 * (1.0 + np.vectorize(math.erf)(xs / math.sqrt(2.0)))
    approx = np.array([simeval.normal_cdf(float(x)) for x in xs])
    assert np.max(np.abs(approx - exact)) <= 1e-7


def test_normal_cdf_symmetry_and_monotonicity():
    for x in (0.1, 0.7, 2.3, 5.0):
        assert simeval.normal_cdf(x) + simeval.normal_cdf(-x) == pytest.approx(1.0)
    vals = [simeval.normal_cdf(x) for x in np.linspace(-4, 4, 81)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pearson_examples():
    assert simeval.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert simeval.pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    assert simeval.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        simeval.pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        simeval.pearson([1, 2], [1, 2, 3])


def test_ranks():
    assert list(simeval._ranks([4.0, 7.0, 5.0])) == [1.0, 3.0, 2.0]
    assert list(simeval._ranks([2.0, 1.0, 2.0])) == [2.5, 1.0, 2.5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3), max_size=40))
def test_ranks_are_average_ranks(xs):
    # A value's average rank is #less + (#equal + 1) / 2; the small integer
    # domain makes ties common.
    expect = [sum(y < x for y in xs) + (sum(y == x for y in xs) + 1) / 2 for x in xs]
    assert simeval._ranks(xs).tolist() == expect


def test_spearman_examples():
    assert simeval.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)
    # a monotone transform preserves ranks exactly
    xs = np.linspace(0.1, 3.0, 9)
    assert simeval.spearman(xs, np.exp(xs)) == pytest.approx(1.0)
    # identical tie structure on both sides still gives 1
    assert simeval.spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Error-distribution distance


def _records_from_norm_errors(errors):
    return [
        EvalRecord(plan_id=str(i), predicted_mean=float(e), predicted_stddev=1.0, actual=0.0)
        for i, e in enumerate(errors)
    ]


def test_alpha_grid():
    grid = simeval.default_alpha_grid()
    assert len(grid) == 600
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(6.0)


def test_distance_zero_for_matching_normals():
    rng = np.random.default_rng(11)
    errors = np.abs(rng.normal(size=10_000))
    _, dbar, excluded = simeval.error_distribution_distance(_records_from_norm_errors(errors))
    assert excluded == 0
    assert dbar <= 0.02


def test_distance_for_zero_errors():
    _, dbar, _ = simeval.error_distribution_distance(_records_from_norm_errors([0.0] * 5))
    grid = simeval.default_alpha_grid()
    expect = float(np.mean([1.0 - (2.0 * simeval.normal_cdf(float(a)) - 1.0) for a in grid]))
    assert dbar == pytest.approx(expect)


def test_distance_excludes_zero_sigma():
    recs = _records_from_norm_errors([0.5, 1.5])
    recs.append(EvalRecord("z", 1.0, 0.0, 0.5))
    _, _, excluded = simeval.error_distribution_distance(recs)
    assert excluded == 1
    with pytest.raises(ValueError):
        simeval.error_distribution_distance([EvalRecord("z", 1.0, 0.0, 0.5)])


_GRID = simeval.default_alpha_grid().tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(_GRID[:5] + _GRID[-3:] + [0.0, -0.0, 0.5, 7.0, math.inf, -math.inf, math.nan])
    | st.floats(-10.0, 10.0) | st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.0, 1.0, 1.0, 0.0]),
), min_size=1, max_size=30))
def test_distance_matches_per_alpha_loop(cases):
    # Grid-point values and repeats make ties with alpha and with each
    # other; +-0, inf and NaN errors are counted as `e <= alpha` counts them.
    records = [EvalRecord(str(i), mean, sd, 0.0) for i, (mean, sd) in enumerate(cases)]
    usable = [r for r in records if r.predicted_stddev > 0.0]
    if not usable:
        with pytest.raises(ValueError, match="no usable records"):
            simeval.error_distribution_distance(records)
        return
    e = np.array([r.norm_error for r in usable])
    want = [abs(float(np.mean(e <= a)) - (2.0 * simeval.normal_cdf(float(a)) - 1.0))
            for a in simeval.default_alpha_grid()]
    d, dbar, excluded = simeval.error_distribution_distance(records)
    assert list(map(float.hex, d.tolist())) == list(map(float.hex, want))
    assert dbar.hex() == float(np.asarray(want).mean()).hex()
    assert excluded == len(records) - len(usable)


def test_eval_record_errors():
    r = EvalRecord("p", predicted_mean=3.0, predicted_stddev=0.5, actual=2.0)
    assert r.error == pytest.approx(1.0)
    assert r.norm_error == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# The synthetic world


def test_world_determinism_and_roundtrip():
    a = TrueCostWorld.generate(9)
    b = TrueCostWorld.generate(9)
    assert a == b
    assert TrueCostWorld.generate(10) != a
    again = TrueCostWorld.from_json(a.to_json())
    assert again == a


def _set_slot(value):
    return lambda doc: doc["coefs"]["HashJoin"]["c_t"].__setitem__(0, value)


@pytest.mark.parametrize("change, match", [
    (_set_slot("x"), r"coefficients for \(HashJoin, c_t\) must be a list of finite numbers, got \['x', "),
    (_set_slot(None), r"\(HashJoin, c_t\) must be a list of finite numbers, got \[None, "),
    (_set_slot([1.0]), r"\(HashJoin, c_t\) must be a list of finite numbers, got \[\[1.0\], "),
    (_set_slot(True), r"\(HashJoin, c_t\) must be a list of finite numbers, got \[True, "),
    (_set_slot(float("nan")), r"\(HashJoin, c_t\) must be a list of finite numbers, got \[nan, "),
    (_set_slot(float("-inf")), r"\(HashJoin, c_t\) must be a list of finite numbers, got \[-inf, "),
    (_set_slot(10**400), r"\(HashJoin, c_t\) must be a list of finite numbers, got \[1000"),
    (lambda doc: doc["coefs"]["HashJoin"].update(c_t=1.5), r"\(HashJoin, c_t\) must be a list of finite numbers, got 1.5"),
    (lambda doc: doc["coefs"]["HashJoin"].update(c_t="1.5"), r"\(HashJoin, c_t\) must be a list .* got '1.5'"),
    (lambda doc: doc["unit_means"].update(c_s=True), "unit c_s: mean and variance must be finite and >= 0, got True"),
    (lambda doc: doc["unit_vars"].update(c_o=10**400), "unit c_o: mean and variance must be finite and >= 0, got "),
    (lambda doc: doc["unit_means"].update(c_r="1e-4"), "unit c_r: mean and variance must be finite and >= 0, got '1e-4'"),
    (lambda doc: doc.update(seed=42.9), "seed must be an integer >= 0, got 42.9"),
    (lambda doc: doc.update(seed="42"), "seed must be an integer >= 0, got '42'"),
    (lambda doc: doc.update(seed=True), "seed must be an integer >= 0, got True"),
    (lambda doc: doc.update(seed=-1), "seed must be an integer >= 0, got -1"),
    # a default cost profile's slot missing, or not as long as its family
    (lambda doc: doc["coefs"]["HashJoin"].update(c_t=[]), r"no C5 coefficients for \(HashJoin, c_t\): it holds 0, "),
    (lambda doc: doc["coefs"].pop("SeqScan"), r"no C3 coefficients for \(SeqScan, c_s\): it holds 0, "),
], ids=["string", "null", "list", "bool", "nan", "infinite", "int-beyond-float", "slot-number", "slot-string",
        "mean-bool", "variance-int-beyond-float", "mean-string", "seed-float", "seed-string", "seed-bool",
        "seed-negative", "slot-empty", "slot-missing"])
def test_world_from_json_refuses_a_bad_number(change, match):
    doc = json.loads(TrueCostWorld.generate(9).to_json())
    change(doc)
    with pytest.raises(ValueError, match=match):
        TrueCostWorld.from_json(json.dumps(doc))


def test_world_from_json_keeps_integer_coefficients_and_seed():
    doc = json.loads(TrueCostWorld.generate(9).to_json())
    doc["coefs"]["HashJoin"]["c_t"] = [2, -3, 0]
    doc["seed"] = 0
    world = TrueCostWorld.from_json(json.dumps(doc))
    assert world.coefs["HashJoin"]["c_t"] == (2, -3, 0) and world.seed == 0
    assert all(type(x) is int for x in world.coefs["HashJoin"]["c_t"])


def test_calibration_records_recover_units():
    world = TrueCostWorld.generate(4)
    model = calib.fit_cost_units(world.calibration_records(400, seed=1))
    for u in planmod.COST_UNITS:
        assert model.mean(u) == pytest.approx(world.unit_means[u], rel=0.03)
        assert model.variance(u) == pytest.approx(world.unit_vars[u], rel=0.35)


def _small_db(seed=5):
    return simeval.generate_database(seed, sizes=(300, 300, 300), key_domain=30)


def test_generate_database_shape_and_determinism():
    rels = _small_db()
    assert sorted(rels) == ["r1", "r2", "r3"]
    for name, rel in rels.items():
        assert rel.row_count == 300
        assert rel.column_names == (
            f"{name}_id", f"{name}_key", f"{name}_key2", f"{name}_val"
        )
    assert _small_db()["r1"].rows == rels["r1"].rows


@pytest.mark.parametrize("seed, sizes, key_domain", [(3, (1, 1, 1), 1), (40, (1, 17, 300), 30), (7, (2000,) * 3, 200)])
def test_generate_database_rows_match_per_cell_definition(seed, sizes, key_domain):
    # The same draws in the same order, each cell a plain Python int.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDB]))
    relations = simeval.generate_database(seed, sizes=sizes, key_domain=key_domain)
    for i, size in enumerate(sizes, start=1):
        ids = rng.permutation(size)
        keys = rng.integers(0, key_domain, size=size)
        keys2 = rng.integers(0, key_domain, size=size)
        vals = rng.integers(0, simeval._VAL_DOMAIN, size=size)
        rows = relations[f"r{i}"].rows
        assert rows == tuple((int(ids[j]), int(keys[j]), int(keys2[j]), int(vals[j])) for j in range(size))
        assert all(type(v) is int for row in rows for v in row)


def test_noise_free_runtime_matches_oracle_total():
    relations = _small_db()
    world = TrueCostWorld.generate(3)
    world.unit_vars = {u: 0.0 for u in world.unit_vars}
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 4000}]},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
            {"id": 3, "kind": "MergeJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}]},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    truth = planmod.selectivity_truth(plan, relations)
    oracle = world.cost_oracle(plan, relations)
    expect = 0.0
    for (nid, unit), (tag, vars_) in plan.index.terms.items():
        coord = tuple(1.0 if v is None else truth[v] for v in vars_)
        expect += oracle((nid, unit), [coord])[0] * world.unit_means[unit]
    got = simeval.simulate_actual_runtime(plan, relations, world, seed=0, truth=truth)
    assert got == pytest.approx(expect, rel=1e-12)
    # with zero noise every seed gives the same runtime
    assert simeval.simulate_actual_runtime(plan, relations, world, seed=77, truth=truth) == pytest.approx(got)
    assert simeval.actual_runtime(plan, relations, world, seed=5, runs=3) == pytest.approx(got)


# Every family C1-C6 on some term: an IndexScan with a C4 read of its whole
# relation, a HashJoin with C1-C5 and a NestLoopJoin with C6.
_ALL_FAMILIES = {
    "nodes": [
        {"id": 1, "kind": "IndexScan", "relation": "r1", "children": [],
         "cost_profile": {"c_s": "C4"}},
        {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
        {"id": 3, "kind": "SeqScan", "relation": "r3", "children": []},
        {"id": 4, "kind": "HashJoin", "children": [1, 2],
         "predicate": [{"left": "r1_key", "right": "r2_key"}],
         "cost_profile": {"c_s": "C1", "c_r": "C2", "c_t": "C3", "c_i": "C4", "c_o": "C5"}},
        {"id": 5, "kind": "NestLoopJoin", "children": [4, 3],
         "predicate": [{"left": "r2_key2", "right": "r3_key2"}]},
    ],
    "root": 5,
}


def _scalar_row(tag, c):
    """One design row, written out per family."""
    return {
        "C1": lambda: [1.0],
        "C2": lambda: [c[0], 1.0],
        "C3": lambda: [c[0], 1.0],
        "C4": lambda: [c[0] * c[0], c[0], 1.0],
        "C5": lambda: [c[0], c[1], 1.0],
        "C6": lambda: [c[0] * c[1], c[0], c[1], 1.0],
    }[tag]()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_array_oracle_matches_scalar_evaluation(data):
    relations = simeval.generate_database(1, sizes=(30, 40, 50))
    plan = planmod.parse_plan(json.dumps(_ALL_FAMILIES))
    coef = st.floats(0.5, 2.0)
    coefs: dict = {}
    for node in plan.nodes.values():
        for unit, tag in node.cost_profile.items():
            coefs.setdefault(node.kind, {})[unit] = tuple(
                data.draw(coef) for _ in range(costfit.NUM_COEFS[tag]))
    world = TrueCostWorld(unit_means={}, unit_vars={}, coefs=coefs, seed=0)
    oracle = world.cost_oracle(plan, relations)
    families = set()
    for node in plan.nodes.values():
        for unit, tag in node.cost_profile.items():
            families.add(tag)
            m = data.draw(st.integers(1, 6))
            coords = [tuple(data.draw(st.floats(0.0, 1.0)) for _ in range(ARITY[tag]))
                      for _ in range(m)]
            got = oracle((node.id, unit), np.array(coords).reshape(m, ARITY[tag]))
            b = reference_b(plan, relations, world, node.id, unit)
            assert got.shape == (m,)
            for value, c in zip(got, coords):
                want = sum(bi * ri for bi, ri in zip(b, _scalar_row(tag, c)))
                assert value == pytest.approx(want, rel=1e-14, abs=0.0)
    assert families == set(ARITY)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_reply_is_the_design_matrix_of_what_it_is_given(data):
    # The oracle's reply is bitwise design_matrix(tag, coords) @ reference_b
    # whatever it was asked before: one array probed by terms of different
    # families in any order, an equal copy of it, the same coordinates as a
    # list, and the array after an in-place write between two calls.
    relations = simeval.generate_database(1, sizes=(30, 40, 50))
    plan = planmod.parse_plan(json.dumps(_ALL_FAMILIES))
    coefs: dict = {}
    for node in plan.nodes.values():
        for unit, tag in node.cost_profile.items():
            coefs.setdefault(node.kind, {})[unit] = tuple(
                data.draw(st.floats(0.5, 2.0)) for _ in range(costfit.NUM_COEFS[tag]))
    world = TrueCostWorld(unit_means={}, unit_vars={}, coefs=coefs, seed=0)
    oracle = world.cost_oracle(plan, relations)
    by_arity: dict = {}
    for key, (tag, _) in plan.index.terms.items():
        by_arity.setdefault(ARITY[tag], []).append(key)
    arity = data.draw(st.sampled_from(sorted(by_arity)), label="arity")
    m = data.draw(st.integers(1, 5), label="m")
    X = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=arity, max_size=arity),
                                    min_size=m, max_size=m)), dtype=float).reshape(m, arity)
    for key in data.draw(st.permutations(by_arity[arity] * 2), label="terms"):
        form = data.draw(st.sampled_from(["array", "copy", "list", "written"]), label="form")
        if form == "written" and X.size:
            X[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, arity - 1))] = data.draw(st.floats(0.0, 1.0))
        coords = X.copy() if form == "copy" else X.tolist() if form == "list" else X
        tag, b = plan.index.terms[key][0], reference_b(plan, relations, world, *key)
        assert oracle(key, coords).tobytes() == (costfit.design_matrix(tag, coords) @ b).tobytes()


def test_oracle_matches_written_out_scaling():
    # Each family's true coefficients written out: a-coefficients times the
    # leaf products of the inputs (a scan's left input: its row count). The
    # oracle's reply at each coordinate is their sum over the written-out
    # design row.
    relations = simeval.generate_database(1, sizes=(30, 40, 50))
    plan = planmod.parse_plan(json.dumps(_ALL_FAMILIES))
    world = TrueCostWorld.generate(2)
    world.coefs["HashJoin"].update({u: (1.5, 0.75, 3.0)[: costfit.NUM_COEFS[tag]]
                                    for u, tag in plan.nodes[4].cost_profile.items()})
    world.coefs["IndexScan"]["c_s"] = (1.25, 0.5, 2.0)
    oracle = world.cost_oracle(plan, relations)
    points = (0.0, 0.3, 1.0)

    def leaf_product(nid):
        return math.prod(relations[r].row_count for r, _ in plan.index.leaves[nid])

    for node in plan.nodes.values():
        own = leaf_product(node.id)
        p_l = leaf_product(node.children[0]) if node.children else relations[node.relation].row_count
        p_r = leaf_product(node.children[1]) if len(node.children) == 2 else None
        for unit, tag in node.cost_profile.items():
            a = world.coefs[node.kind][unit]
            want = {
                "C1": lambda: (a[0],),
                "C2": lambda: (a[0] * own, a[1]),
                "C3": lambda: (a[0] * p_l, a[1]),
                "C4": lambda: (a[0] * p_l * p_l, a[1] * p_l, a[2]),
                "C5": lambda: (a[0] * p_l, a[1] * p_r, a[2]),
                "C6": lambda: (a[0] * p_l * p_r, a[1] * p_l, a[2] * p_r, a[3]),
            }[tag]()
            coords = list(itertools.product(points, repeat=ARITY[tag]))
            got = oracle((node.id, unit), np.array(coords).reshape(len(coords), ARITY[tag]))
            expect = [sum(w * r for w, r in zip(want, _scalar_row(tag, c))) for c in coords]
            assert got.tolist() == pytest.approx(expect, rel=1e-14, abs=0.0), (node.id, unit, tag)


def test_oracle_refuses_a_slot_of_another_length():
    # A HashJoin's c_t read as C2 on a generated world, whose slot holds
    # C5's three coefficients: without the check C2 would take Xl's
    # coefficient as its constant. A slot with too few is refused too. The
    # oracle reads a slot when its term is probed, not when it is made.
    relations = _small_db()
    world = TrueCostWorld.generate(5)
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": []},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}],
             "cost_profile": {"c_t": "C2", "c_o": "C6"}},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    oracle = world.cost_oracle(plan, relations)
    with pytest.raises(ValueError, match=r"C2 coefficients for \(HashJoin, c_t\): it holds 3, C2 reads 2"):
        oracle((3, "c_t"), np.ones((1, 1)))
    with pytest.raises(ValueError, match=r"C6 coefficients for \(HashJoin, c_o\): it holds 3, C6 reads 4"):
        oracle((3, "c_o"), np.ones((1, 2)))
    world.coefs["HashJoin"]["c_t"] = (1.5, 4.0)
    got = oracle((3, "c_t"), np.array([[1.0], [0.5]]))
    assert got.tolist() == [1.5 * 300 * 300 + 4.0, 1.5 * 300 * 300 * 0.5 + 4.0]


def test_actual_runtime_is_mean_of_runs():
    relations = _small_db()
    world = TrueCostWorld.generate(3)
    doc = {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "r1", "children": []}],
           "root": 1}
    plan = planmod.parse_plan(json.dumps(doc))
    truth = planmod.selectivity_truth(plan, relations)
    runs = [simeval.simulate_actual_runtime(plan, relations, world, 4000 + r, truth) for r in range(5)]
    # Bitwise: the runs share their term costs and draw the same unit costs.
    assert simeval.actual_runtime(plan, relations, world, seed=4, runs=5) == float(np.mean(runs))
    # deterministic given the seed
    a = simeval.actual_runtime(plan, relations, world, seed=4)
    assert simeval.actual_runtime(plan, relations, world, seed=4) == a


@pytest.mark.parametrize("runs", [0, -1])
def test_actual_runtime_rejects_no_runs(runs):
    plan = planmod.parse_plan(json.dumps(
        {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "r1", "children": []}], "root": 1}))
    with pytest.raises(ValueError, match="runs must be at least 1"):
        simeval.actual_runtime(plan, _small_db(), TrueCostWorld.generate(3), seed=4, runs=runs)


def test_actual_runtime_refuses_runs_that_would_share_draws():
    # Run r of plan seed s is seeded s * 1000 + r: a 1001st run of plan 0
    # would draw the unit costs of plan 1's first run.
    plan = planmod.parse_plan(json.dumps(
        {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "r1", "children": []}], "root": 1}))
    relations, world = _small_db(), TrueCostWorld.generate(3)
    simeval.actual_runtime(plan, relations, world, seed=0, runs=1000)
    with pytest.raises(ValueError, match="runs must be at most 1000, got 1001"):
        simeval.actual_runtime(plan, relations, world, seed=0, runs=1001)


def test_a_relation_the_plan_names_but_relations_lack_is_an_execution_error():
    # Truth, leaf products, the probe oracle, an actual runtime and so an
    # evaluation each refuse a plan whose relation `relations` lacks with
    # an ExecutionError, in ValueError's family, naming the relation (and
    # in an evaluation, the plan), not a bare KeyError.
    relations, world = simeval.generate_database(0), TrueCostWorld.generate(0)
    units = calib.fit_cost_units(world.calibration_records(20, seed=0))
    pool = store.build_pool(relations, n=10, pool_size=1, seed=0)
    plan = planmod.parse_plan(json.dumps(
        {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "r9", "children": []}], "root": 1}))
    calls = [lambda: planmod.selectivity_truth(plan, relations), lambda: planmod.leaf_products(plan, relations),
             lambda: world.cost_oracle(plan, relations), lambda: simeval.actual_runtime(plan, relations, world, seed=0)]
    for call in calls:
        with pytest.raises(planmod.ExecutionError, match="relation 'r9' is not among the relations"):
            call()
    plans, _ = simeval.generate_workload(WorkloadSpec(scan_targets=[0.4, 0.7], seed=2), relations)
    with pytest.raises(planmod.ExecutionError, match="^plan 'bad': relation 'r9' is not among"):
        simeval.evaluate_workload(plans + [("bad", plan)], relations, pool, units, world, runs=1)


@pytest.mark.parametrize("runs, message", [(0, "runs must be at least 1, got 0"),
                                           (1001, "runs must be at most 1000, got 1001")])
def test_evaluate_refuses_runs_before_predicting(runs, message):
    # The run count is checked before the first plan is predicted, not when
    # that plan's actual runtime is simulated.
    relations, world = _small_db(), TrueCostWorld.generate(3)
    units = calib.fit_cost_units(world.calibration_records(20, seed=3))
    pool = store.build_pool(relations, n=10, pool_size=1, seed=3)
    plans, _ = simeval.generate_workload(WorkloadSpec(scan_targets=[0.4, 0.7], seed=2), relations)
    with mock.patch.object(propagate, "predict_distribution", wraps=propagate.predict_distribution) as spy, \
            pytest.raises(ValueError, match=message):
        simeval.evaluate_workload(plans, relations, pool, units, world, runs=runs)
    assert spy.call_count == 0


# Zeros of both signs and signed values, so that the order of a term's sum
# shows in a bitwise comparison, and the sign of a zero cost in one of the
# term costs themselves.
_coef = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 20.0) | st.floats(-1e6, 1e6)


def _filled_world(plan, world_seed, cv, data):
    """A generated world whose unit noise is `cv` times each mean, with
    coefficients (`_coef`) drawn for every (kind, unit) slot the plan reads."""
    world = TrueCostWorld.generate(world_seed)
    world.unit_vars = {u: (cv * m) ** 2 for u, m in world.unit_means.items()}
    for node in plan.nodes.values():
        for unit, tag in node.cost_profile.items():
            world.coefs.setdefault(node.kind, {})[unit] = tuple(
                data.draw(_coef) for _ in range(costfit.NUM_COEFS[tag]))
    return world


def _costed_instance(data):
    """(relations, plan) of every family or of a tiny instance."""
    if data.draw(st.booleans(), label="all families"):
        relations = simeval.generate_database(data.draw(st.integers(0, 99)), sizes=(9, 12, 15), key_domain=4)
        return relations, planmod.parse_plan(json.dumps(_ALL_FAMILIES))
    relations, plan, _ = tiny_instance(data.draw(st.integers(0, 10_000)))
    return relations, plan


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_term_costs_match_written_out_reference(data):
    # Bitwise per term, so a zero cost's sign shows too: a run's total,
    # which starts at 0.0, would turn -0.0 into 0.0.
    relations, plan = _costed_instance(data)
    world = _filled_world(plan, data.draw(st.integers(0, 99)), 0.12, data)
    truth = planmod.selectivity_truth(plan, relations)
    got = simeval._true_term_costs(plan, relations, world, truth)
    want = reference_costs(plan, relations, world, truth)
    assert [(unit, cost.hex()) for unit, cost in got] == [(unit, cost.hex()) for unit, cost in want]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simulated_runs_match_written_out_reference(data):
    # Bitwise, one run given its truth, and as `actual_runtime`'s mean of
    # runs. A noise of twice the mean clamps many unit draws at 0.
    relations, plan = _costed_instance(data)
    world = _filled_world(plan, data.draw(st.integers(0, 99)), data.draw(st.sampled_from([0.0, 0.12, 2.0])), data)
    truth = planmod.selectivity_truth(plan, relations)
    seed = data.draw(st.integers(0, 2**32 - 1))
    want = reference_run(plan, relations, world, seed)
    assert simeval.simulate_actual_runtime(plan, relations, world, seed, truth=truth).hex() == want.hex()
    seed, runs = data.draw(st.integers(0, 10**6)), data.draw(st.integers(1, 5))
    want = float(np.mean([reference_run(plan, relations, world, seed * 1000 + r, truth) for r in range(runs)]))
    assert simeval.actual_runtime(plan, relations, world, seed, runs=runs).hex() == want.hex()


def test_simulated_run_refuses_a_slot_of_another_length():
    # The run checks each term's slot as the oracle does, with its message.
    relations = _small_db()
    world = TrueCostWorld.generate(5)
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": []},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}],
             "cost_profile": {"c_t": "C2"}},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    match = r"the world has no C2 coefficients for \(HashJoin, c_t\): it holds 3, C2 reads 2"
    with pytest.raises(ValueError, match=match):
        simeval.simulate_actual_runtime(plan, relations, world, seed=0, truth=planmod.selectivity_truth(plan, relations))
    with pytest.raises(ValueError, match=match):
        simeval.actual_runtime(plan, relations, world, seed=0)


# ---------------------------------------------------------------------------
# Monte Carlo variance oracle


def test_monte_carlo_matches_analytic_on_join():
    relations = _small_db()
    world = TrueCostWorld.generate(6)
    units = calib.fit_cost_units(world.calibration_records(100, seed=6))
    pool = store.build_pool(relations, n=50, pool_size=1, seed=6)
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": [],
             "predicate": [{"col": "r2_val", "op": "<", "value": 7000}]},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}]},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    dist, est, cfs, entries = propagate.predict_distribution(
        plan, pool, relations, units, oracle=world.cost_oracle(plan, relations)
    )
    assert all(e.kind == "direct" for e in entries)
    mc_mean, mc_var = monte_carlo_variance(plan, est, cfs, units, draws=200_000, seed=1)
    assert dist.mean == pytest.approx(mc_mean, rel=1e-3)
    assert dist.variance == pytest.approx(mc_var, rel=0.03)


def test_monte_carlo_refuses_correlated_variables():
    relations = _small_db()
    world = TrueCostWorld.generate(6)
    units = calib.fit_cost_units(world.calibration_records(50, seed=6))
    pool = store.build_pool(relations, n=40, pool_size=1, seed=6)
    doc = {
        "nodes": [
            {"id": 1, "kind": "SeqScan", "relation": "r1", "children": [],
             "predicate": [{"col": "r1_val", "op": "<", "value": 5000}]},
            {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "r1_key", "right": "r2_key"}],
             "cost_profile": {"c_o": "C2"}},
        ],
        "root": 3,
    }
    plan = planmod.parse_plan(json.dumps(doc))
    world.coefs["HashJoin"]["c_o"] = (0.75, 2.0)  # a C2 slot: own selectivity, constant
    est = selest.estimate_all(plan, pool, relations)
    cfs = propagate.fit_all_cost_functions(plan, est, world.cost_oracle(plan, relations))
    with pytest.raises(ValueError, match="independent"):
        monte_carlo_variance(plan, est, cfs, units, draws=100)


# ---------------------------------------------------------------------------
# Enumeration and resampling oracles


def _with_root(plan, kind):
    """The plan under one more operator of the given kind, its new root."""
    doc = json.loads(planmod.serialize_plan(plan))
    root = max(rec["id"] for rec in doc["nodes"]) + 1
    doc["nodes"].append({"id": root, "kind": kind, "children": [doc["root"]]})
    doc["root"] = root
    return planmod.parse_plan(json.dumps(doc))


def test_membership_tensor_matches_brute_force():
    for seed in (0, 1, 2):
        for shape in (2, 3):
            relations, plan, desc = tiny_instance(seed, shape=shape)
            tables = [list(relations[rel].rows) for rel, _ in planmod.leaf_tables(plan)]
            expect = brute_membership(desc, tables)
            # A root Sort or Materialize outputs its child's rows.
            for p in (plan, _with_root(plan, "Sort"), _with_root(_with_root(plan, "Materialize"), "Sort")):
                z, leaf_order = simeval.membership_tensor(p, relations)
                assert leaf_order == planmod.leaf_tables(plan)
                assert np.array_equal(z, expect)
        # A self-join: the second scan reads t1 again, as its second appearance.
        relations, plan, desc = tiny_instance(seed, shape=2)
        doc = json.loads(planmod.serialize_plan(plan))
        nodes = {rec["id"]: rec for rec in doc["nodes"]}
        nodes[2].update(relation="t1", predicate=[dict(nodes[2]["predicate"][0], col="t1_x")])
        nodes[10]["predicate"] = [{"left": "t1_y", "right": "t1_y"}]
        plan = planmod.parse_plan(json.dumps(doc))
        desc["leaves"][1] = ("t1",) + desc["leaves"][1][1:]
        z, leaf_order = simeval.membership_tensor(plan, relations)
        assert leaf_order == [("t1", 0), ("t1", 1)]
        assert np.array_equal(z, brute_membership(desc, [list(relations["t1"].rows)] * 2))


def test_membership_tensor_requires_provenance():
    relations, plan0, _ = tiny_instance(0, shape=2)
    doc = json.loads(planmod.serialize_plan(plan0))
    doc["nodes"].append(
        {"id": 99, "kind": "Aggregate", "children": [doc["root"]], "estimate_M": 2}
    )
    doc["root"] = 99
    plan = planmod.parse_plan(json.dumps(doc))
    with pytest.raises(ValueError, match="provenance"):
        simeval.membership_tensor(plan, relations)


def test_enumeration_scan_closed_form():
    rows = tuple((1,) if i < 2 else (0,) for i in range(6))
    rel = store.Relation("R", (("R_a", "int64"),), rows)
    doc = {"nodes": [{"id": 1, "kind": "SeqScan", "relation": "R", "children": [],
                      "predicate": [{"col": "R_a", "op": "=", "value": 1}]}], "root": 1}
    plan = planmod.parse_plan(json.dumps(doc))
    rho = 2 / 6
    assert simeval.var_rho_enumeration(plan, {"R": rel}, n=4) == pytest.approx(
        rho * (1 - rho) / 4
    )
    # degenerate selectivities have zero variance
    doc["nodes"][0]["predicate"] = [{"col": "R_a", "op": "<", "value": 100}]
    assert simeval.var_rho_enumeration(planmod.parse_plan(json.dumps(doc)), {"R": rel}, 4) == 0.0
    doc["nodes"][0]["predicate"] = [{"col": "R_a", "op": "=", "value": 42}]
    assert simeval.var_rho_enumeration(planmod.parse_plan(json.dumps(doc)), {"R": rel}, 4) == 0.0


def test_enumeration_refuses_large_instances(monkeypatch):
    # The tensor has one cell per base-tuple combination: a three-way plan
    # over 2000-row relations would ask for 8e9 of them. An input over any
    # limit (four leaves, a leaf relation over 8 rows, n = 13) is refused
    # before the tensor is built.
    def unbuilt(*args):
        raise AssertionError("membership_tensor built for an input over the limits")

    def chain(rels, column):
        nodes = [{"id": i, "kind": "SeqScan", "relation": rel, "children": []} for i, rel in enumerate(rels, 1)]
        root = 1
        for right in range(2, len(rels) + 1):
            nodes.append({"id": len(nodes) + 1, "kind": "HashJoin", "children": [root, right],
                          "predicate": [{"left": rels[right - 2] + column, "right": rels[right - 1] + column}]})
            root = len(nodes)
        return planmod.parse_plan(json.dumps({"nodes": nodes, "root": root}))

    tiny = tiny_instance(3, shape=2)[0]
    big = simeval.generate_database(0, sizes=(2000, 9, 2000))
    big["R"] = store.Relation("R", (("R_a", "int64"),), tuple((i,) for i in range(20)))
    monkeypatch.setattr(simeval, "membership_tensor", unbuilt)
    for p, relations, n in [(chain(["t1", "t2", "t3", "t1"], "_y"), tiny, 4),
                            (chain(["r1", "r2", "r3"], "_key"), big, 4),
                            (chain(["r2"], "_key"), big, 4),
                            (chain(["R"], ""), big, 4),
                            (chain(["t1", "t2"], "_y"), tiny, 13)]:
        with pytest.raises(ValueError, match="desk-scale"):
            simeval.var_rho_enumeration(p, relations, n)


def test_resampling_agrees_with_enumeration():
    relations, plan, _ = tiny_instance(3, shape=2)
    n = 4
    pools = 40_000
    rhos = simeval.resample_rho(plan, relations, n=n, pools=pools, seed=3)
    z, _ = simeval.membership_tensor(plan, relations)
    rho_true = float(z.mean())
    var_true = simeval.var_rho_enumeration(plan, relations, n=n)
    se_mean = math.sqrt(var_true / pools)
    assert abs(float(rhos.mean()) - rho_true) <= 3.0 * se_mean + 1e-12
    m4 = float(np.mean((rhos - rhos.mean()) ** 4))
    se_var = math.sqrt(max(m4 - var_true**2, 0.0) / pools)
    assert abs(float(rhos.var(ddof=1)) - var_true) <= 3.0 * se_var + 1e-12


# ---------------------------------------------------------------------------
# Workload generation and evaluation


def _reference_grid(scan_count, join_count, join3_count, seed):
    """The command line's target grid as first written, kept as the
    reference for `WorkloadSpec.grid`."""
    scan_targets = list(np.linspace(0.05, 0.95, scan_count)) if scan_count else []
    join_targets = []
    if join_count:
        side = max(int(round(math.sqrt(join_count))), 1)
        grid = np.linspace(0.1, 0.9, side)
        join_targets = [(float(a), float(b)) for a in grid for b in grid][:join_count]
    three = []
    if join3_count:
        side = max(int(round(join3_count ** (1.0 / 3.0))), 1)
        grid = np.linspace(0.2, 0.8, side + 1)
        three = [
            (float(a), float(b), float(c)) for a in grid for b in grid for c in grid
        ][:join3_count]
    return WorkloadSpec(scan_targets=scan_targets, join_targets=join_targets, three_way_targets=three, seed=seed)


def test_workload_spec_grid_matches_reference():
    counts = [(a, b, c) for a in (0, 1, 7, 10) for b in (0, 1, 7, 10) for c in (0, 1, 7, 10)]
    for scan_count, join_count, join3_count in counts + [(80, 80, 40)]:
        spec = WorkloadSpec.grid(scan_count, join_count, join3_count, seed=5)
        assert spec == _reference_grid(scan_count, join_count, join3_count, 5)


@pytest.mark.parametrize("position, name", [(0, "scan_count"), (1, "join_count"), (2, "join3_count")])
@pytest.mark.parametrize("value", [-1, 2.5, True, "3"])
def test_workload_spec_grid_checks_its_counts(position, name, value):
    # An API caller gets the command line's wording for each count.
    counts = [4, 4, 8]
    counts[position] = value
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 0, got {re.escape(repr(value))}$"):
        WorkloadSpec.grid(*counts, seed=5)


def test_generate_workload_empty():
    relations = _small_db()
    plans, skipped = simeval.generate_workload(WorkloadSpec(), relations)
    assert plans == [] and skipped == []


def test_generate_workload_counts_and_verification():
    relations = _small_db()
    spec = WorkloadSpec(
        scan_targets=[0.2, 0.5, 0.8],
        join_targets=[(0.5, 0.5), (0.3, 0.7)],
        three_way_targets=[(0.5, 0.5, 0.5)],
        seed=1,
    )
    plans, skipped = simeval.generate_workload(spec, relations)
    assert skipped == []
    assert len(plans) == 6
    kinds = [p.nodes[3].kind for label, p in plans if label.startswith("join-")]
    assert kinds == ["HashJoin", "NestLoopJoin"]
    for label, p in plans:
        truth = planmod.selectivity_truth(p, relations)
        for node in p.nodes.values():
            if node.kind == "SeqScan" and node.selections:
                assert 0.0 < truth[node.id] < 1.0


def test_generate_workload_skips_unrealizable():
    relations = _small_db()
    spec = WorkloadSpec(scan_targets=[0.5, 1e-6], seed=1)
    with pytest.warns(UserWarning, match="unrealizable"):
        plans, skipped = simeval.generate_workload(spec, relations)
    assert len(plans) == 1
    assert len(skipped) == 1 and "1e-06" in skipped[0]


def _reference_workload(spec, relations):
    """`generate_workload` as first written, kept as the reference: each
    scan re-sorts its column for its threshold, and each candidate is
    verified by `selectivity_truth` over the whole plan, joins included."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x3141]))
    rels = sorted(relations)

    def scan(nid, rel, target):
        vals = sorted(relations[rel].column(f"{rel}_val"))
        thr = vals[min(max(int(round(target * len(vals))), 0), len(vals) - 1)]
        return {"id": nid, "kind": "SeqScan", "relation": rel, "children": [],
                "predicate": [{"col": f"{rel}_val", "op": "<", "value": int(thr)}]}

    def join(nid, kind, children, left, right):
        return {"id": nid, "kind": kind, "children": children, "predicate": [{"left": left, "right": right}]}

    candidates = []  # (label, nodes with the root last, checks, message when skipped)
    for i, s in enumerate(spec.scan_targets):
        rel = rels[int(rng.integers(0, len(rels)))]
        candidates.append((f"scan-{i}", [scan(1, rel, s)], [(1, s)], f"scan target {s} unrealizable"))
    for i, (s1, s2) in enumerate(spec.join_targets):
        kind = ("HashJoin", "NestLoopJoin", "MergeJoin")[i % 3]
        nodes = [scan(1, "r1", s1), scan(2, "r2", s2), join(3, kind, [1, 2], "r1_key", "r2_key")]
        candidates.append((f"join-{i}", nodes, [(1, s1), (2, s2)], f"join targets ({s1},{s2}) unrealizable"))
    for i, (s1, s2, s3) in enumerate(spec.three_way_targets):
        nodes = [scan(1, "r1", s1), scan(2, "r2", s2), scan(3, "r3", s3),
                 join(4, "HashJoin", [1, 2], "r1_key", "r2_key"),
                 join(5, "HashJoin", [4, 3], "r2_key2", "r3_key2")]
        candidates.append((f"join3-{i}", nodes, [(1, s1), (2, s2), (3, s3)],
                           f"3-way targets ({s1},{s2},{s3}) unrealizable"))
    plans, skipped = [], []
    for label, nodes, checks, msg in candidates:
        p = planmod.parse_plan(json.dumps({"nodes": nodes, "root": nodes[-1]["id"]}))
        truth = planmod.selectivity_truth(p, relations)
        if any(t <= 0 or abs(truth[nid] - t) > 0.1 * t for nid, t in checks):
            skipped.append(msg)
        else:
            plans.append((label, p))
    return plans, skipped


# Realizable targets, and unrealizable ones: nonpositive, too small for any
# threshold, above 1, or between two attainable selectivities.
_targets = st.one_of(
    st.floats(min_value=0.0, max_value=1.2, allow_subnormal=False),
    st.sampled_from([1e-6, 0.0, -0.25, 0.013, 1.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    db_seed=st.integers(0, 10**6),
    sizes=st.tuples(*[st.integers(1, 40)] * 3),
    key_domain=st.integers(1, 12),
    spec_seed=st.integers(0, 10**6),
    scans=st.lists(_targets, max_size=5),
    joins=st.lists(st.tuples(_targets, _targets), max_size=3),
    joins3=st.lists(st.tuples(_targets, _targets, _targets), max_size=2),
)
def test_generate_workload_matches_whole_plan_truth(db_seed, sizes, key_domain, spec_seed, scans, joins, joins3):
    relations = simeval.generate_database(db_seed, sizes=sizes, key_domain=key_domain)
    spec = WorkloadSpec(scan_targets=scans, join_targets=joins, three_way_targets=joins3, seed=spec_seed)
    want_plans, want_skipped = _reference_workload(spec, relations)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plans, skipped = simeval.generate_workload(spec, relations)
    assert [label for label, _ in plans] == [label for label, _ in want_plans]
    assert [planmod.serialize_plan(p) for _, p in plans] == [planmod.serialize_plan(p) for _, p in want_plans]
    assert skipped == want_skipped
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, m) for m in want_skipped]


@settings(max_examples=60, deadline=None)
@given(
    db_seed=st.integers(0, 10**6),
    sizes=st.tuples(*[st.integers(1, 60)] * 3),
    key_domain=st.integers(1, 12),
    spec_seed=st.integers(0, 10**6),
    scans=st.lists(_targets, max_size=5),
    joins=st.lists(st.tuples(_targets, _targets), max_size=3),
    joins3=st.lists(st.tuples(_targets, _targets, _targets), max_size=2),
)
def test_generate_workload_matches_whole_plan_truth_on_ties(db_seed, sizes, key_domain, spec_seed, scans, joins, joins3):
    # Selection values from a domain of 5: most thresholds have ties below
    # and at them, so a scan's count is exact only if ties are counted.
    vals = np.random.default_rng(db_seed).integers(0, 5, size=sum(sizes)).tolist()
    relations = {}
    for name, rel in simeval.generate_database(db_seed, sizes=sizes, key_domain=key_domain).items():
        rows = tuple(row[:-1] + (vals.pop(),) for row in rel.rows)
        relations[name] = store.Relation(rel.name, rel.schema, rows)
    spec = WorkloadSpec(scan_targets=scans, join_targets=joins, three_way_targets=joins3, seed=spec_seed)
    want_plans, want_skipped = _reference_workload(spec, relations)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plans, skipped = simeval.generate_workload(spec, relations)
    assert [label for label, _ in plans] == [label for label, _ in want_plans]
    assert [planmod.serialize_plan(p) for _, p in plans] == [planmod.serialize_plan(p) for _, p in want_plans]
    assert skipped == want_skipped
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, m) for m in want_skipped]


def test_generate_workload_runs_no_join_over_data(monkeypatch):
    # Each candidate is executed over empty tables, to resolve its columns,
    # and only its checked scans over the relations.
    execute = planmod.execute
    join_plans = []

    def checked(plan, bindings, **kwargs):
        if any(plan.nodes[nid].kind in planmod.JOIN_KINDS for nid in plan.index.order):
            assert all(t.row_count == 0 for t in bindings.values()), "a join ran over a non-empty table"
            join_plans.append(plan)
        return execute(plan, bindings, **kwargs)

    monkeypatch.setattr(planmod, "execute", checked)
    spec = WorkloadSpec(
        scan_targets=[0.2, 0.5, 0.8, 1e-6],
        join_targets=[(0.5, 0.5), (0.3, 0.7)],
        three_way_targets=[(0.5, 0.5, 0.5), (0.5, 0.5, 1e-6)],
        seed=1,
    )
    with pytest.warns(UserWarning, match="unrealizable"):
        plans, skipped = simeval.generate_workload(spec, _small_db())
    assert [label for label, _ in plans] == ["scan-0", "scan-1", "scan-2", "join-0", "join-1", "join3-0"]
    assert skipped == ["scan target 1e-06 unrealizable", "3-way targets (0.5,0.5,1e-06) unrealizable"]
    assert len(join_plans) == 4  # every join candidate, realizable or not


@pytest.mark.parametrize("targets", [(0.5, 0.5, 0.5), (0.5, 0.5, 1e-6)])
def test_generate_workload_missing_join_column_raises(targets):
    # r3 without r3_key2: the three-way plan's top join cannot resolve its
    # right column, whether or not its scans' targets are realizable.
    relations = _small_db()
    r3 = relations["r3"]
    keep = [i for i, c in enumerate(r3.column_names) if c != "r3_key2"]
    relations["r3"] = store.Relation(
        "r3", tuple(r3.schema[i] for i in keep), tuple(tuple(row[i] for i in keep) for row in r3.rows)
    )
    with pytest.raises(planmod.ExecutionError, match="r3_key2"):
        simeval.generate_workload(WorkloadSpec(three_way_targets=[targets]), relations)


def test_evaluate_workload_summary():
    relations = _small_db()
    world = TrueCostWorld.generate(8)
    units = calib.fit_cost_units(world.calibration_records(100, seed=8))
    pool = store.build_pool(relations, n=30, pool_size=1, seed=8)
    spec = WorkloadSpec(scan_targets=[0.2, 0.4, 0.6, 0.8], join_targets=[(0.5, 0.5)], seed=2)
    plans, _ = simeval.generate_workload(spec, relations)
    records, summary = simeval.evaluate_workload(plans, relations, pool, units, world, runs=3)
    assert summary["count"] == len(plans) == len(records)
    assert summary["excluded_zero_sigma"] == 0
    assert -1.0 <= summary["r_p"] <= 1.0
    assert -1.0 <= summary["r_s"] <= 1.0
    assert 0.0 <= summary["d_bar"] <= 1.0
    for r in records:
        assert r.predicted_mean > 0.0 and r.actual > 0.0


def _emptied_after_the_pool():
    """Two scan plans' evaluation inputs, the first plan's relation emptied
    after the pool was drawn from it, and that relation's name."""
    relations = _small_db()
    world = TrueCostWorld.generate(8)
    units = calib.fit_cost_units(world.calibration_records(100, seed=8))
    pool = store.build_pool(relations, n=30, pool_size=1, seed=8)
    plans, _ = simeval.generate_workload(WorkloadSpec(scan_targets=[0.4, 0.7], seed=2), relations)
    name = plans[0][1].nodes[plans[0][1].root].relation
    relations[name] = dataclasses.replace(relations[name], rows=())
    return plans, relations, pool, units, world, name


def test_evaluate_workload_names_the_plan_whose_truth_meets_an_empty_relation():
    # The pool is drawn from the full relations, so only ground truth meets
    # the empty one, and its ExecutionError carries the plan's label.
    plans, relations, pool, units, world, name = _emptied_after_the_pool()
    with pytest.raises(planmod.ExecutionError, match=rf"^plan {plans[0][0]!r}: relation {name!r} is empty"):
        simeval.evaluate_workload(plans, relations, pool, units, world, runs=1)


def test_evaluate_workload_predicts_every_plan_before_it_measures_any():
    # On a bigrel-shaped workload (scans, joins and three-way joins over
    # int columns), every plan is predicted once, in plan order, before
    # any actual runtime is simulated, and then each plan's actual runtime
    # once, in plan order. The records and summary are bitwise those of
    # one loop that predicts and then measures each plan in turn.
    relations = simeval.generate_database(3, sizes=(300, 300, 300), key_domain=30)
    world = TrueCostWorld.generate(3)
    units = calib.fit_cost_units(world.calibration_records(20, seed=3))
    pool = store.build_pool(relations, n=20, pool_size=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans, _ = simeval.generate_workload(WorkloadSpec.grid(6, 4, 2, seed=3), relations)
    predict, actual, calls = propagate.predict_distribution, simeval.actual_runtime, []

    def predicting(p, *args, **kwargs):
        calls.append(("predict", p))
        return predict(p, *args, **kwargs)

    def measuring(p, *args, **kwargs):
        calls.append(("actual", p))
        return actual(p, *args, **kwargs)

    with mock.patch.object(propagate, "predict_distribution", predicting), \
            mock.patch.object(simeval, "actual_runtime", measuring):
        records, summary = simeval.evaluate_workload(plans, relations, pool, units, world, runs=2)
    order = [("predict", id(p)) for _, p in plans] + [("actual", id(p)) for _, p in plans]
    assert [(what, id(p)) for what, p in calls] == order

    want, shared = [], {}
    with planmod.sharing(shared):
        for idx, (label, p) in enumerate(plans):
            dist = predict(p, pool, relations, units, oracle=world.cost_oracle(p, relations), shared=shared)[0]
            act = actual(p, relations, world, seed=idx, runs=2)
            want.append(EvalRecord(label, dist.mean, dist.stddev, act, tuple(dist.flags)))
    assert repr(records) == repr(want)  # bitwise: a float's repr round-trips and tells -0.0 from 0.0
    assert repr(summary) == repr(_summary_or_error(want))


def test_evaluate_workload_raises_a_later_plans_prediction_error_first():
    # An earlier plan's truth meets a relation emptied after the pool was
    # drawn, and a later plan's cost profile reads a family its world slot
    # does not hold: every plan is predicted before any is measured, so
    # the later plan's prediction error is raised. So is a later plan's
    # ExecutionError from prediction, naming its plan, as the earlier
    # plan's from truth does when no later plan fails (the test above).
    plans, relations, pool, units, world, name = _emptied_after_the_pool()
    other = next(rel for rel in sorted(relations) if rel != name)
    swapped = dict(_scan_doc(1, other, "<", 10), cost_profile={"c_o": "C4"})
    late = ("swapped", planmod.parse_plan(json.dumps({"nodes": [swapped], "root": 1})))
    missing = ("missing", planmod.parse_plan(json.dumps({"nodes": [_scan_doc(1, "r9", "<", 10)], "root": 1})))
    with pytest.raises(ValueError, match=r"no C4 coefficients for \(SeqScan, c_o\): it holds 2, C4 reads 3"):
        simeval.evaluate_workload(plans + [late], relations, pool, units, world, runs=1)
    with pytest.raises(planmod.ExecutionError, match=r"^plan 'missing': relation 'r9' is not among"):
        simeval.evaluate_workload(plans + [missing], relations, pool, units, world, runs=1)


def test_zero_count_flag_on_study(study):
    # At n = 25 the seed-42 study's sample join keeps no rows in 63 of its
    # 80 two-way plans, and its inner join in all 40 three-way plans.
    records, summary = simeval.evaluate_workload(
        study["plans"], study["relations"], study["pool"], study["units"], study["world"], runs=1
    )
    flagged = {r.plan_id for r in records if "zero-count" in r.flags}
    assert Counter(label.split("-")[0] for label in flagged) == {"join": 63, "join3": 40}
    assert summary["flags"]["zero-count"] == 103
    for label, p in study["plans"]:  # flagged exactly where a join's rho_n = s2_n = 0 from no rows
        est = selest.estimate_all(p, study["pool"], study["relations"])
        joins = [est[nid] for nid in p.index.streamed if p.nodes[nid].kind in planmod.JOIN_KINDS]
        zero = [e for e in joins if e.count == 0]
        assert all(e.rho_n == 0.0 and e.s2_n == 0.0 for e in zero)
        assert (label in flagged) == bool(zero)


def test_evaluate_workload_needs_two_plans_with_a_stddev():
    # Fewer than two plans with a nonzero predicted stddev give no
    # correlation: the error says so and gives the counts, before any
    # metric is computed.
    relations = _small_db()
    world = TrueCostWorld.generate(8)
    units = calib.fit_cost_units(world.calibration_records(100, seed=8))
    pool = store.build_pool(relations, n=30, pool_size=1, seed=8)
    plans, _ = simeval.generate_workload(WorkloadSpec(scan_targets=[0.4], seed=2), relations)
    with pytest.raises(ValueError, match=r"^evaluate needs at least two plans with a nonzero predicted stddev "
                                         r"to correlate; 1 of 1 has one$"):
        simeval.evaluate_workload(plans, relations, pool, units, world, runs=1)
    known = calib.CostUnitModel({u: calib.UnitModel(units.mean(u), 0.0, 1) for u in calib.COST_UNITS})
    with pytest.raises(ValueError, match="to correlate; 0 of 1 has one$"):
        simeval.evaluate_workload(plans, relations, pool, known, world, policy="no-var-x", runs=1)


def test_evaluate_workload_needs_two_different_stddevs_and_errors():
    # Plans whose predicted stddevs, or whose errors, are all one value
    # have no correlation: the error names which, with the counts, where it
    # used to fail inside `pearson` naming no cause. Two copies of one plan
    # have one predicted stddev; runtimes that equal the predicted means
    # give one error.
    relations = _small_db()
    world = TrueCostWorld.generate(8)
    units = calib.fit_cost_units(world.calibration_records(100, seed=8))
    pool = store.build_pool(relations, n=30, pool_size=1, seed=8)
    plans, _ = simeval.generate_workload(WorkloadSpec(scan_targets=[0.4, 0.7], seed=2), relations)
    with pytest.raises(ValueError, match=r"^evaluate needs two different predicted stddevs to correlate; all 2 "
                                         r"plans with a nonzero predicted stddev, of 2, have one predicted stddev$"):
        simeval.evaluate_workload([plans[0], plans[0]], relations, pool, units, world, runs=1)
    means = {id(p): propagate.predict_distribution(p, pool, relations, units, world.cost_oracle(p, relations))[0].mean
             for _, p in plans}
    with mock.patch.object(simeval, "actual_runtime", lambda p, *args, **kwargs: means[id(p)]), \
            pytest.raises(ValueError, match=r"^evaluate needs two different errors to correlate; all 2 plans "
                                            r"with a nonzero predicted stddev, of 2, have one error$"):
        simeval.evaluate_workload(plans, relations, pool, units, world, runs=1)


# ---------------------------------------------------------------------------
# One evaluation's shared scans and fits


def _scan_doc(nid, rel, op, threshold):
    return {"id": nid, "kind": "SeqScan", "relation": rel, "children": [],
            "predicate": [{"col": f"{rel}_val", "op": op, "value": threshold}]}


@st.composite
def _repeating_plan_docs(draw):
    """A plan of one to three scans, joined left-deep, maybe under a Sort.
    Each scan's relation, comparator and threshold come from few choices,
    so the plans of one workload repeat scans and grids; two scans may
    read one relation, the second its second sample table. Each join's
    columns are `_key` or `_key2`, so one shared scan may be hashed on
    either column."""
    rels = draw(st.permutations(["r1", "r2", "r3"]))[:draw(st.integers(1, 3))]
    if len(rels) == 2 and draw(st.booleans()):
        rels = [rels[0]] * 2
    nodes = [_scan_doc(i, rel, draw(st.sampled_from(["<", ">="])), draw(st.sampled_from([2500, 5000, 7500])))
             for i, rel in enumerate(rels, start=1)]
    root = 1
    for right in range(2, len(rels) + 1):
        key = draw(st.sampled_from(["_key", "_key2"]))
        nodes.append({"id": len(nodes) + 1, "kind": draw(st.sampled_from(planmod.JOIN_KINDS)),
                      "children": [root, right],
                      "predicate": [{"left": f"{rels[right - 2]}{key}", "right": f"{rels[right - 1]}{key}"}]})
        root = len(nodes)
    if draw(st.booleans()):
        nodes.append({"id": len(nodes) + 1, "kind": "Sort", "children": [root]})
        root = len(nodes)
    return {"nodes": nodes, "root": root}


def _summary_or_error(records):
    """`evaluate_workload`'s summary of the records, or its ValueError's
    message, computed from the public metric functions."""
    usable = [r for r in records if r.predicted_stddev > 0.0]
    if len(usable) < 2:
        return (f"evaluate needs at least two plans with a nonzero predicted stddev to correlate; "
                f"{len(usable)} of {len(records)} has one")
    sigmas, errors = [r.predicted_stddev for r in usable], [r.error for r in usable]
    for what, values in (("predicted stddev", sigmas), ("error", errors)):
        if len(set(values)) == 1:
            return (f"evaluate needs two different {what}s to correlate; all {len(usable)} plans "
                    f"with a nonzero predicted stddev, of {len(records)}, have one {what}")
    return {
        "count": len(records),
        "excluded_zero_sigma": len(records) - len(usable),
        "r_p": simeval.pearson(sigmas, errors),
        "r_s": simeval.spearman(sigmas, errors),
        "flags": dict(sorted(Counter(f for r in records for f in r.flags).items())),
        "d_bar": simeval.error_distribution_distance(usable)[1],
    }


def test_every_array_an_evaluation_shares_is_read_only():
    # A later plan reads an array of the table of shared results as an
    # earlier one built it: the column arrays that count-only full-data
    # scans count over and each grid's coordinates. So every ndarray
    # reachable from the table's entries, on a bigrel-shaped workload
    # (scans, joins and three-way joins over int columns), is read-only,
    # and an in-place write raises.
    relations = simeval.generate_database(3, sizes=(300, 300, 300), key_domain=30)
    world = TrueCostWorld.generate(3)
    units = calib.fit_cost_units(world.calibration_records(20, seed=3))
    pool = store.build_pool(relations, n=20, pool_size=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans, _ = simeval.generate_workload(WorkloadSpec.grid(6, 4, 2, seed=3), relations)
    predict, tables = propagate.predict_distribution, []

    def spying(*args, shared=None, **kwargs):
        tables.append(shared)
        return predict(*args, shared=shared, **kwargs)

    with mock.patch.object(propagate, "predict_distribution", spying):
        simeval.evaluate_workload(plans, relations, pool, units, world, runs=1)
    table = tables[0]
    arrays, seen, stack = {}, set(), list(table.items())
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.items())
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    held = [value[1] for key, value in table.items() if key[0] == "column" and value[1] is not None]
    held += [value[0] for key, value in table.items() if key[0] == "grid"]
    assert {key[0] for key in table} >= {"column", "grid"} and {id(a) for a in held} <= arrays.keys()
    for array in arrays.values():
        assert array.size and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_probe_replies_shared_within_an_evaluation_only():
    # Inside `plan.sharing`, the oracle keeps each reply in the table under
    # "probe" and answers an equal probe, of any plan, from it: on a
    # bigrel-shaped workload (scans, joins and three-way joins), every reply
    # of an evaluation is bitwise that of an oracle made outside any block,
    # and read-only, and the evaluation still calls the oracle once per
    # term. Equal coordinates in two arrays share one entry; coordinates
    # that differ only in a zero's sign do not. An oracle made outside a
    # block stores nothing, even called inside one, and every reply is a
    # new writable array.
    relations = simeval.generate_database(3, sizes=(300, 300, 300), key_domain=30)
    world = TrueCostWorld.generate(3)
    units = calib.fit_cost_units(world.calibration_records(20, seed=3))
    pool = store.build_pool(relations, n=20, pool_size=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans, _ = simeval.generate_workload(WorkloadSpec.grid(6, 4, 2, seed=3), relations)
    make, probes, tables = TrueCostWorld.cost_oracle, [], []

    def making(self, plan, rels):
        oracle = make(self, plan, rels)
        calls = []
        probes.append((plan, calls))

        def spying(key, coords):
            tables.append(planmod.shared_table())
            reply = oracle(key, coords)
            calls.append((key, np.array(coords), reply))
            return reply

        return spying

    with mock.patch.object(TrueCostWorld, "cost_oracle", making):
        simeval.evaluate_workload(plans, relations, pool, units, world, runs=1)
    assert len(probes) == len(plans) and len({id(t) for t in tables}) == 1 and tables[0] is not None
    table = tables[0]
    entries = {id(value[1]) for key, value in table.items() if key[0] == "probe"}
    replies = set()
    for (_, p), (plan, calls) in zip(plans, probes):
        assert plan is p and sorted(key for key, _, _ in calls) == sorted(p.index.terms)
        fresh = world.cost_oracle(p, relations)
        for key, coords, reply in calls:
            assert not reply.flags.writeable and id(reply) in entries
            assert reply.tobytes() == fresh(key, coords).tobytes()
            replies.add(id(reply))
    assert replies == entries and len(replies) < sum(len(calls) for _, calls in probes)

    _, p = next((label, p) for label, p in plans if label.startswith("join3"))
    key = next(term for term, (tag, _) in p.index.terms.items() if len(costfit.FAMILIES[tag][0]) == 2)
    coords = np.array([[0.0, 0.25], [0.5, 1.0]])
    fresh = world.cost_oracle(p, relations)
    table = {}
    with planmod.sharing(table):
        oracle = world.cost_oracle(p, relations)
        first = oracle(key, coords)
        assert oracle(key, coords.copy()) is first and len(table) == 1
        signed = oracle(key, np.array([[-0.0, 0.25], [0.5, 1.0]]))
        assert signed is not first and len(table) == 2
        assert signed.tobytes() == fresh(key, np.array([[-0.0, 0.25], [0.5, 1.0]])).tobytes()
    assert first.tobytes() == fresh(key, coords).tobytes() and not first.flags.writeable
    assert planmod.shared_table() is None
    with planmod.sharing(table):  # made outside, it keeps nothing, even called inside a block
        outside = fresh(key, coords)
        assert outside is not first and outside is not fresh(key, coords) and outside.flags.writeable
    assert len(table) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sharing_changes_no_result(data):
    # evaluate_workload shares one table of scans, read joins, column arrays
    # and grids across its plans, their truths included, and with them the
    # hash tables, tallies, counters and fits that live on those; its
    # records and summary are bitwise those of each plan predicted alone.
    # A plan that fails has stored only what its good twin's fresh
    # execution builds, so a prediction sharing the table after it is
    # still bitwise that of the plan alone; a truth after an evaluation
    # shares nothing, and a non-finite probe on a stored grid is still a
    # FitError.
    seed = data.draw(st.integers(0, 2**16), label="seed")
    relations = simeval.generate_database(seed, sizes=(40, 40, 40), key_domain=5)
    world = TrueCostWorld.generate(seed)
    units = calib.fit_cost_units(world.calibration_records(20, seed=seed))
    pool = store.build_pool(relations, n=data.draw(st.integers(2, 8), label="n"), pool_size=2, seed=seed)
    docs = data.draw(st.lists(_repeating_plan_docs(), min_size=2, max_size=6), label="plans")
    plans = [(f"p{i}", planmod.plan_from_document(doc)) for i, doc in enumerate(docs)]
    W = data.draw(st.integers(1, 4), label="W")
    runs = data.draw(st.integers(1, 2), label="runs")
    policy = data.draw(st.sampled_from(propagate.POLICIES), label="policy")

    want = []
    grids = set()  # the repr of each grid's (input distributions, W) the plans fit on
    for idx, (label, p) in enumerate(plans):
        dist, est, _, _ = propagate.predict_distribution(
            p, pool, relations, units, world.cost_oracle(p, relations), W=W, policy=policy)
        actual = simeval.actual_runtime(p, relations, world, seed=idx, runs=runs)
        want.append(EvalRecord(label, dist.mean, dist.stddev, actual, tuple(dist.flags)))
        grids.update(repr((tuple((est[v].rho_n, est[v].sigma2) for v in vars_), W))
                     for _, vars_ in p.index.terms.values() if None not in vars_ and vars_)
    want_summary = _summary_or_error(want)

    predict, run_scan, run_join = propagate.predict_distribution, planmod._run_scan, planmod._run_join
    scan_counters, hash_rows, tally = selest._scan_counters, planmod._hash_rows, planmod._tally
    int64_column, key_counts, grid_points = planmod._int64_column, planmod._key_counts, costfit.grid_points
    tables, before = [], []  # per prediction: the table it was given, and its keys then
    # per sample scan run, its result (kept, so no id is reused) and its
    # scan; per full-data scan run, its scan; per counter build, its scan;
    # per sample read join run, its result (kept) and its (left input,
    # right input, join columns), each input its scan or read join; per
    # hash-table build, the sample scan or read join whose rows it reads
    # (None for any other) and its key positions; per full-data scan
    # result, that result (kept) and its scan; per tally build, the scan
    # it counts (None if it counts no scan's rows) and key positions; per
    # column-array build, the relation whose rows it reads (None for any
    # other table) and the position; per grid built, its (input
    # distributions, W)
    scanned, truth_scanned, counted, joined, hashed = {}, [], [], {}, []
    truth_results, tallied, arrays, key_counted, gridded = {}, [], [], [], []

    def spying(*args, shared=None, **kwargs):
        tables.append(shared)
        before.append(set(shared))
        return predict(*args, shared=shared, **kwargs)

    def counting(node, appearance, bindings, provenance, read, shared):
        res = run_scan(node, appearance, bindings, provenance, read, shared)
        if bindings[appearance] is relations[appearance[0]]:  # truth's scan of a base relation
            truth_scanned.append((appearance, node.selections, read))
            truth_results[id(res)] = res, truth_scanned[-1]
        else:
            scanned[id(res)] = res, (appearance, node.selections, read)
        return res

    def counting_counters(res):
        counted.append(scanned[id(res)][1])
        return scan_counters(res)

    def counting_joins(node, left, right, counted, read):
        res = run_join(node, left, right, counted, read)
        if left.provenance is not None and read:
            sources = {**scanned, **joined}
            joined[id(res)] = res, (sources[id(left)][1], sources[id(right)][1], node.join_columns)
        return res

    def counting_hashes(rows, lpos):
        hashed.append((next((src for res, src in [*scanned.values(), *joined.values()] if res.rows is rows), None), lpos))
        return hash_rows(rows, lpos)

    def counting_tallies(rows, *args):
        tallied.append((next((scan for res, scan in truth_results.values() if res.rows is rows), None), args[0]))
        return tally(rows, *args)

    def counting_arrays(rows, idx):
        arrays.append((next((name for name, rel in relations.items() if rel.rows is rows), None), idx))
        return int64_column(rows, idx)

    def counting_grids(distributions, W):
        gridded.append((tuple(distributions), W))
        return grid_points(distributions, W)

    def array_tallies():
        """Each array tally on a full-data scan's result, as (scan, key position)."""
        return [(scan, key[1]) for res, scan in truth_results.values() for key in res.derived or () if key[0] == "counts"]

    def truth_tallies(p):
        """The tallies, in Python and over arrays, one truth of `p` builds
        alone, sharing a table of its own."""
        tallied.clear()
        truth_results.clear()
        with mock.patch.object(planmod, "_run_scan", counting), mock.patch.object(planmod, "_tally", counting_tallies), \
                planmod.sharing({}):
            planmod.selectivity_truth(p, relations)
        return tallied + array_tallies()

    def truth_scans(p):
        """The full-data scans one truth of `p` runs, outside an evaluation."""
        truth_scanned.clear()
        with mock.patch.object(planmod, "_run_scan", counting):
            planmod.selectivity_truth(p, relations)
        return len(truth_scanned)

    def evaluate(workload):
        for spied in (tables, before, scanned, truth_scanned, counted, joined, hashed, truth_results, tallied, arrays,
                      key_counted, gridded):
            spied.clear()
        with mock.patch.object(propagate, "predict_distribution", spying), \
                mock.patch.object(planmod, "_run_scan", counting), \
                mock.patch.object(planmod, "_run_join", counting_joins), \
                mock.patch.object(selest, "_scan_counters", counting_counters), \
                mock.patch.object(planmod, "_hash_rows", counting_hashes), \
                mock.patch.object(planmod, "_tally", counting_tallies), \
                mock.patch.object(planmod, "_key_counts", lambda *args: key_counted.append(1) or key_counts(*args)), \
                mock.patch.object(planmod, "_int64_column", counting_arrays), \
                mock.patch.object(costfit, "grid_points", counting_grids):
            return simeval.evaluate_workload(workload, relations, pool, units, world, policy=policy, W=W, runs=runs)

    if isinstance(want_summary, str):
        with pytest.raises(ValueError, match=re.escape(want_summary)):
            evaluate(plans)
    else:
        records, summary = evaluate(plans)
        assert records == want and summary == want_summary
        assert repr(records) == repr(want)  # bitwise: a float's repr round-trips and tells -0.0 from 0.0
        assert repr(summary) == repr(want_summary)
    assert type(tables[0]) is dict and all(t is tables[0] for t in tables)
    # one grid built per distinct (input distributions, W), whatever the
    # families and plans that fit on it
    assert sorted(map(repr, gridded)) == sorted(grids)
    # one sample scan run, and one counter build, per distinct
    # (appearance, selections, read): repeats hit
    scans = {(p.index.appearance[nid], p.nodes[nid].selections, nid in p.index.read)
             for _, p in plans for nid in p.index.appearance}
    assert sorted(repr(scan) for _, scan in scanned.values()) == sorted(map(repr, scans))
    assert sorted(map(repr, counted)) == sorted(map(repr, scans))
    # and one full-data scan run per distinct scan over the base relations
    assert sorted(map(repr, truth_scanned)) == sorted(map(repr, scans))
    # a scan entry holding a base relation lists no provenance, one holding
    # a sample table does, and no table identity keys both kinds
    base = {id(rel) for rel in relations.values()}
    held = {key: value[0] for key, value in tables[0].items()
            if isinstance(value[0], store.Relation) and key[0] != "column"}
    assert all(key[0] == id(table) and key[-1] is (key[0] not in base) for key, table in held.items())
    assert {key[0] for key in held if key[-1]}.isdisjoint({key[0] for key in held if not key[-1]})
    # one tally per distinct (full-data scan, key positions): what the
    # plans' truths build alone, each once, every one over a scan's rows;
    # here every truth's join counts over column arrays, so every tally is
    # an array tally
    built = tallied + array_tallies()
    assert tallied == [] and len(key_counted) == len(built)
    assert sorted(map(repr, built)) == sorted({repr(t) for _, p in plans for t in truth_tallies(p)})
    assert built or all(len(p.index.appearance) == 1 for _, p in plans)
    # one column array per distinct (base relation, position) that a scan's
    # atoms or a join's atoms read, none over a sample table: count-only
    # scans count over them, and every join here counts over them; each
    # key names the relation its entry holds
    assert sorted(arrays) == sorted({
        (app[0], relations[app[0]].column_names.index(col))
        for _, p in plans for nid, app in p.index.appearance.items()
        for col in [col for col, _, _ in p.nodes[nid].selections] + [
            col for n in p.nodes.values() for col in itertools.chain(*n.join_columns)
            if col in relations[app[0]].column_names]})
    assert all(key[1] == id(value[0]) and value[0] is relations[value[0].name]
               for key, value in tables[0].items() if key[0] == "column")
    # generate_workload runs its plans over empty tables only, so it builds no array
    arrays.clear()
    with mock.patch.object(planmod, "_int64_column", counting_arrays), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        generated, _ = simeval.generate_workload(WorkloadSpec.grid(4, 4, 2, seed), relations)
    assert generated and arrays == []
    # a truth after the evaluation returned shares nothing
    assert truth_scans(plans[0][1]) == len(plans[0][1].index.appearance)
    # one hash table per distinct (left input, left key positions) of the
    # joins that build pairs, each with provenance, over a sample scan or
    # a read join's result, which every plan reading it hashes on its keys
    def source(p, nid):
        nid = p.index.var[nid]
        if nid in p.index.appearance:
            return p.index.appearance[nid], p.nodes[nid].selections, nid in p.index.read
        left, right = p.nodes[nid].children
        return source(p, left), source(p, right), p.nodes[nid].join_columns

    hashes = set()
    for _, p in plans:
        for nid in p.index.order:
            node = p.nodes[nid]
            if node.join_columns[0]:
                left = node.children[0]
                columns = [c for rel, _ in p.index.leaves[left] for c in relations[rel].column_names]
                hashes.add((source(p, left), tuple(map(columns.index, node.join_columns[0]))))
    assert sorted(map(repr, hashed)) == sorted(map(repr, hashes))

    # a plan mid-workload that names a missing column; its scans'
    # threshold is one no other plan draws, so they are not in the table
    # and a fault on a join comes after the plan has stored its scans
    bad = data.draw(_repeating_plan_docs(), label="bad plan")
    for node in bad["nodes"]:
        if node["kind"] in planmod.SCAN_KINDS:
            node["predicate"][0]["value"] = 6000
    twin = planmod.plan_from_document(json.loads(json.dumps(bad)))  # before the fault goes in
    joins = [n for n in bad["nodes"] if n["kind"] in planmod.JOIN_KINDS]
    bad_join = bool(joins) and data.draw(st.booleans(), label="bad join")
    if bad_join:  # the second may fail after the first hashed a scan
        joins[data.draw(st.integers(0, len(joins) - 1), label="which join")]["predicate"][0]["left"] = "zzz"
    else:
        bad["nodes"][0]["predicate"][0]["col"] = "zzz"
    at = data.draw(st.integers(1, len(plans)), label="bad at")
    with pytest.raises(planmod.ExecutionError, match=r"^plan 'bad': .*'zzz'"):
        evaluate(plans[:at] + [("bad", planmod.plan_from_document(bad))] + plans[at:])
    assert len(tables) == at + 1
    bindings = {app: pool.table(*app) for app in twin.index.appearance.values()}
    checked = assert_stored_as_fresh(tables[-1], before[-1], twin, bindings, True)
    assert checked >= 1 or not bad_join
    for (label, p), record in zip(plans, want):
        dist, _, _, _ = propagate.predict_distribution(
            p, pool, relations, units, world.cost_oracle(p, relations), W=W, policy=policy, shared=tables[-1])
        got = (dist.mean, dist.stddev, tuple(dist.flags))
        assert repr(got) == repr((record.predicted_mean, record.predicted_stddev, record.flags))
    assert truth_scans(plans[0][1]) == len(plans[0][1].index.appearance)  # nor after one that raised

    # non-finite probe values on a grid already in the table
    p = plans[0][1]
    shared = {}
    oracle = world.cost_oracle(p, relations)
    _, est, _, _ = propagate.predict_distribution(p, pool, relations, units, oracle, W=W, shared=shared)
    term = next(t for t, (_, vars_) in p.index.terms.items() if any(v is not None for v in vars_))
    stored = set(shared)

    def nan_oracle(key, coords):
        values = oracle(key, coords)
        if key == term:
            values[0] = math.nan
        return values

    with pytest.raises(costfit.FitError, match="non-finite probe values"):
        propagate.fit_all_cost_functions(p, est, nan_oracle, W=W, shared=shared)
    assert set(shared) == stored
