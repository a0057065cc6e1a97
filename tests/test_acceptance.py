"""Top-level acceptance gate.

Each test covers one numbered criterion and appends a PASS/FAIL line to the
terminal summary. The workload-level criteria share the session-scoped
synthetic study fixture.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
from conftest import (
    brute_membership,
    cost_function_moments,
    fit_points,
    kkt_residual,
    s2_enumeration,
    snm_enumeration,
    solve_vector,
    tiny_instance,
)
from runtimedist import calib, costfit, plan as planmod, propagate, selest, simeval, store
from runtimedist.costfit import CostFunction


def _record(num: int, ok: bool, detail: str):
    conftest.ACCEPTANCE_LINES.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _estimates_and_tensor(seed, shape=None):
    relations, plan, desc = tiny_instance(seed, shape=shape)
    n = min(r.row_count for r in relations.values())
    pool = store.build_pool(relations, n=n, pool_size=1, seed=seed)
    est = selest.estimate_all(plan, pool, relations)
    leaf_order = planmod.leaf_tables(plan, None)
    tables = [list(pool.table(rel, 0).rows) for rel, _ in leaf_order]
    z = brute_membership(desc, tables)
    return relations, plan, est, z, n


def test_criterion_1_streaming_equals_enumeration():
    start = time.perf_counter()
    count = 0
    worst = 0.0
    for seed in range(50):
        relations, plan, est, z, n = _estimates_and_tensor(seed, shape=seed % 3 + 1)
        root = est[plan.root]
        K = len(plan.index.leaves[plan.root])
        count += 1
        if K >= 2:
            pairs = [(root.s2_n, s2_enumeration(z, n))]
            for m in range(1, K + 1):
                pairs.append((selest.estimate_for_subset(root, range(m)), snm_enumeration(z, n, range(m))))
        else:
            pairs = [
                (root.s2_n, root.rho_n * (1.0 - root.rho_n)),
                (selest.estimate_for_subset(root, [0]), s2_enumeration(z, n)),
            ]
        for got, expect in pairs:
            err = abs(got - expect) / max(abs(expect), 1e-300) if expect else abs(got)
            worst = max(worst, err)
            assert err <= 1e-12
    elapsed = time.perf_counter() - start
    _record(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"{count} instances, max rel err {worst:.2e} <= 1e-12, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_unbiasedness_and_variance_bound():
    start = time.perf_counter()
    pools = 100_000
    checks = []
    for seed, shape, n in [(7, 1, 5), (3, 2, 4), (5, 3, 3)]:
        relations, plan, desc = tiny_instance(seed, shape=shape)
        z, _ = simeval.membership_tensor(plan, relations)
        rho = float(z.mean())
        assert 0.0 < rho < 1.0, "fixture must have a non-degenerate selectivity"
        var_true = simeval.var_rho_enumeration(plan, relations, n)
        rhos = simeval.resample_rho(plan, relations, n=n, pools=pools, seed=seed)
        se_mean = math.sqrt(var_true / pools)
        mean_ok = abs(float(rhos.mean()) - rho) <= 3.0 * se_mean
        emp_var = float(rhos.var(ddof=1))
        m4 = float(np.mean((rhos - rhos.mean()) ** 4))
        se_var = math.sqrt(max(m4 - var_true**2, 0.0) / pools)
        K = z.ndim
        bound = (1.0 - (1.0 - 1.0 / n) ** K) * rho * (1.0 - rho)
        bound_ok = emp_var <= bound + 3.0 * se_var
        enum_ok = abs(emp_var - var_true) <= 3.0 * se_var
        checks.append(mean_ok and bound_ok and enum_ok)
        assert mean_ok and bound_ok and enum_ok, (seed, shape, emp_var, var_true, bound)
    elapsed = time.perf_counter() - start
    _record(
        2,
        all(checks) and elapsed < 60.0,
        f"3 databases x {pools} pools: mean/bound/enumeration all within 3 SE, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_3_monotonicity_and_bound_ordering():
    ordered = 0
    bounds = 0
    for seed in range(50):
        relations, plan, est, z, n = _estimates_and_tensor(seed, shape=seed % 3 + 1)
        leaves = plan.index.leaves
        for nid, e in est.items():
            if plan.index.var[nid] != nid or e.q is None:
                continue
            seq = [selest.estimate_for_subset(e, range(m)) for m in range(1, len(leaves[nid]) + 1)]
            assert all(a <= b for a, b in zip(seq, seq[1:])), (seed, nid, seq)
            if e.source == "q-scan":  # a scan's S2_n is the closed form instead
                assert seq[-1] == e.s2_n
            ordered += 1
        if plan.root == 11:  # three-way instance: nested (K=2, K=3) pair
            desc, anc = est[10], est[11]
            positions = [leaves[11].index(app) for app in leaves[10]]
            restricted = selest.estimate_for_subset(anc, positions)
            b1 = math.sqrt((desc.s2_n / n) * (restricted / n))
            b2 = math.sqrt((desc.s2_n / n) * (anc.s2_n / n))
            assert b1 <= b2 + 1e-15, (seed, b1, b2)
            bounds += 1
    _record(
        3,
        ordered > 0 and bounds > 0,
        f"shared-position variances monotone on {ordered} estimates, "
        f"B1 <= B2 on {bounds} nested pairs, exact comparisons",
    )


def test_criterion_4_nnls_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_kkt = 0.0
    for _ in range(100):
        m = int(rng.integers(4, 25))
        p = int(rng.integers(1, min(m, 6) + 1))
        A = rng.normal(size=(m, p))
        y = rng.normal(size=m)
        constrained = rng.random(p) < 0.7
        b, _ = solve_vector(A, y, constrained)
        worst_kkt = max(worst_kkt, kkt_residual(A, y, b, constrained))
    assert worst_kkt <= 1e-8
    worst_rec = 0.0
    for tag in ("C1", "C2", "C3", "C4", "C5", "C6"):
        p = costfit.NUM_COEFS[tag]
        b_true = list(rng.uniform(0.3, 4.0, size=p))
        if conftest.ARITY[tag] == 0:
            coords = [()] * 3
        elif conftest.ARITY[tag] == 1:
            coords = [(x,) for x in np.linspace(0, 1, 9)]
        else:
            axis = np.linspace(0, 1, 5)
            coords = [(x, y) for x in axis for y in axis]
        cf = fit_points(tag, coords, costfit.design_matrix(tag, coords) @ b_true)
        err = max(abs(g - t) / abs(t) for g, t in zip(cf.b, b_true))
        worst_rec = max(worst_rec, err)
        assert err <= 1e-6, (tag, cf.b, b_true)
    elapsed = time.perf_counter() - start
    _record(
        4,
        worst_kkt <= 1e-8 and worst_rec <= 1e-6 and elapsed < 5.0,
        f"100 fits, max KKT {worst_kkt:.1e} <= 1e-8; recovery C1-C6 max rel err "
        f"{worst_rec:.1e} <= 1e-6; {elapsed:.1f}s < 5s",
    )


def test_criterion_5_moments_vs_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    draws = 1_000_000
    worst = 0.0

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    for _ in range(10):  # quadratic single-input form
        b = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0))
        mu, sd = rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.15)
        x = rng.normal(mu, sd, size=draws)
        f = b[0] * x * x + b[1] * x + b[2]
        e, v = cost_function_moments(CostFunction("C4", b), [(mu, sd * sd)])
        worst = max(worst, rel(e, float(f.mean())), rel(v, float(f.var(ddof=1))))
    for _ in range(10):  # bilinear two-input form
        b = tuple(rng.uniform(0.5, 2.0, size=4))
        ml, mr = rng.uniform(0.3, 0.7, size=2)
        sl, sr = rng.uniform(0.05, 0.15, size=2)
        xl = rng.normal(ml, sl, size=draws)
        xr = rng.normal(mr, sr, size=draws)
        f = b[0] * xl * xr + b[1] * xl + b[2] * xr + b[3]
        e, v = cost_function_moments(
            CostFunction("C6", b), [(ml, sl * sl), (mr, sr * sr)]
        )
        worst = max(worst, rel(e, float(f.mean())), rel(v, float(f.var(ddof=1))))
    for _ in range(10):  # product of independent cost factor and unit
        e_f, sd_f = rng.uniform(2.0, 8.0), rng.uniform(0.3, 1.0)
        mu_c, sd_c = rng.uniform(0.5, 3.0), rng.uniform(0.1, 0.5)
        t = rng.normal(e_f, sd_f, size=draws) * rng.normal(mu_c, sd_c, size=draws)
        v = propagate.term_variance(e_f, sd_f**2, mu_c, sd_c**2)
        worst = max(worst, rel(v, float(t.var(ddof=1))))
    elapsed = time.perf_counter() - start
    _record(
        5,
        worst <= 0.01 and elapsed < 30.0,
        f"10 parameterizations each vs {draws}-draw Monte Carlo, max rel err "
        f"{worst:.4f} <= 1%, {elapsed:.1f}s < 30s",
    )


def _criterion6_plans():
    def scan(nid, rel, thr, kind="SeqScan"):
        return {"id": nid, "kind": kind, "relation": rel, "children": [],
                "predicate": [{"col": f"{rel}_val", "op": "<", "value": thr}]}

    def join(kind, thr1, thr2, r_left="r1", r_right="r2", key="key"):
        return {
            "nodes": [
                scan(1, r_left, thr1),
                scan(2, r_right, thr2),
                {"id": 3, "kind": kind, "children": [1, 2],
                 "predicate": [{"left": f"{r_left}_{key}", "right": f"{r_right}_{key}"}]},
            ],
            "root": 3,
        }

    docs = []
    for thr, rel in [(2000, "r1"), (5000, "r2"), (8000, "r3"), (3500, "r1")]:
        docs.append({"nodes": [scan(1, rel, thr)], "root": 1})
    for thr, rel in [(4000, "r2"), (6500, "r3")]:
        docs.append({"nodes": [scan(1, rel, thr, kind="IndexScan")], "root": 1})
    for wrapper in ("Sort", "Materialize"):
        docs.append({
            "nodes": [scan(1, "r1", 4500),
                      {"id": 2, "kind": wrapper, "children": [1]}],
            "root": 2,
        })
    combos = [
        ("HashJoin", 3000, 7000, "r1", "r2", "key"),
        ("NestLoopJoin", 5000, 5000, "r1", "r2", "key"),
        ("MergeJoin", 8000, 2000, "r1", "r2", "key"),
        ("HashJoin", 4000, 9000, "r2", "r3", "key"),
        ("NestLoopJoin", 6000, 3000, "r2", "r3", "key2"),
        ("MergeJoin", 2500, 7500, "r1", "r3", "key2"),
        ("HashJoin", 9000, 1500, "r1", "r3", "key"),
        ("NestLoopJoin", 3500, 6500, "r1", "r2", "key2"),
        ("MergeJoin", 5500, 4500, "r2", "r3", "key"),
        ("HashJoin", 7000, 7000, "r2", "r3", "key2"),
        ("NestLoopJoin", 2000, 8000, "r1", "r3", "key2"),
        ("MergeJoin", 6500, 6000, "r1", "r2", "key"),
    ]
    docs.extend(join(*c) for c in combos)
    return [planmod.parse_plan(json.dumps(d)) for d in docs]


def test_criterion_6_propagation_vs_joint_oracle():
    start = time.perf_counter()
    relations = simeval.generate_database(11, sizes=(300, 300, 300), key_domain=30)
    world = simeval.TrueCostWorld.generate(11)
    units = calib.fit_cost_units(world.calibration_records(60, seed=11))
    pool = store.build_pool(relations, n=40, pool_size=1, seed=11)
    plans = _criterion6_plans()
    assert len(plans) == 20
    worst = 0.0
    for i, plan in enumerate(plans):
        dist, est, cfs, _ = propagate.predict_distribution(
            plan, pool, relations, units, oracle=world.cost_oracle(plan, relations)
        )
        _, mc_var = conftest.monte_carlo_variance(
            plan, est, cfs, units, draws=1_000_000, seed=i
        )
        err = abs(dist.variance - mc_var) / mc_var
        worst = max(worst, err)
        assert err <= 0.05, (i, dist.variance, mc_var)
    elapsed = time.perf_counter() - start
    _record(
        6,
        worst <= 0.05 and elapsed < 60.0,
        f"20 covariance-free plans vs 1e6-draw Monte Carlo, max rel err "
        f"{worst:.4f} <= 5%, {elapsed:.1f}s < 60s",
    )


def test_criterion_7_methodology_reproduction(study):
    start = time.perf_counter()
    plans, skipped = study["plans"], study["skipped"]
    assert len(plans) + len(skipped) == 200
    records, summary = simeval.evaluate_workload(
        plans, study["relations"], study["pool"], study["units"], study["world"]
    )
    elapsed = time.perf_counter() - start
    ok = summary["r_s"] >= 0.5 and summary["d_bar"] <= 0.3 and elapsed < 300.0
    _record(
        7,
        ok,
        f"{len(plans)} queries ({len(skipped)} targets skipped): "
        f"r_s={summary['r_s']:.3f} >= 0.5, d_bar={summary['d_bar']:.3f} <= 0.3, "
        f"r_p={summary['r_p']:.3f}, {elapsed:.0f}s < 300s",
    )


def test_criterion_8_ablation_ordering(study):
    relations, plans = study["relations"], study["plans"]
    small_pool = store.build_pool(relations, n=10, pool_size=2, seed=42)
    rel_errors = []
    for _, p in plans:
        truth = planmod.selectivity_truth(p, relations)
        est = selest.estimate_all(p, small_pool, relations)
        root = est[p.root]
        rel_errors.append(abs(root.rho_n - truth[p.root]) / truth[p.root])
    sel_err = float(np.mean(rel_errors))
    assert sel_err >= 0.20, f"sample size not small enough: mean error {sel_err:.2f}"
    rs = {}
    for policy in propagate.POLICIES:
        _, summary = simeval.evaluate_workload(
            plans, relations, small_pool, study["units"], study["world"], policy=policy
        )
        rs[policy] = summary["r_s"]
    ok = all(rs["all"] >= rs[p] - 0.02 for p in propagate.POLICIES)
    detail = ", ".join(f"{p}={rs[p]:.3f}" for p in propagate.POLICIES)
    _record(
        8,
        ok,
        f"n=10 (mean selectivity error {sel_err:.0%} >= 20%): r_s {detail}; "
        f"full >= each ablation - 0.02",
    )


def test_criterion_9_sampling_overhead(study):
    # Both loops run once untimed, so first-use costs (caches, imports,
    # allocator growth) land in neither; then five interleaved repetitions
    # of each, compared by their minima, so one slow moment of a shared
    # machine cannot decide the ratio.
    relations, plans = study["relations"], study["plans"]
    n = max(2, int(0.01 * min(study["sizes"])))
    tiny_pool = store.build_pool(relations, n=n, pool_size=1, seed=42)

    def estimation():
        for _, p in plans:
            selest.estimate_all(p, tiny_pool, relations)

    def full_execution():
        for _, p in plans:
            planmod.selectivity_truth(p, relations)

    times = {estimation: [], full_execution: []}
    for loop in times:
        loop()
    for _ in range(5):
        for loop, taken in times.items():
            t0 = time.perf_counter()
            loop()
            taken.append(time.perf_counter() - t0)
    t_est, t_full = min(times[estimation]), min(times[full_execution])
    ratio = t_est / t_full
    _record(
        9,
        ratio < 0.10,
        f"estimation at n={n} (1% of smallest relation) took {t_est:.4f}s vs "
        f"{t_full:.4f}s full execution (minima of 5 interleaved runs each): ratio {ratio:.3f} < 0.10",
    )
