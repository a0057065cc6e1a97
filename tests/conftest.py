"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute estimator quantities by brute force, without
going through the package's executor or streaming accumulators, so the
package paths can be checked against genuinely independent arithmetic.
The Monte Carlo oracle for a plan's running-time moments, the family
arities it and other tests read, a fit's KKT residual and one cost
function's moments live here too, with a simulated run written out term
by term: only tests use them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest

from runtimedist import plan as planmod, propagate, selest, simeval, store
from runtimedist.costfit import FAMILIES, family_value, monomial_values
from runtimedist.plan import Plan
from runtimedist.propagate import fitted_terms

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# Tiny random instances: database + plan + an executor-independent
# description of the predicates for brute-force evaluation.


def make_tiny_relations(rng, count=3, size_range=(3, 8), domain=3):
    """Small relations t1..tN with a filter column x and join columns y, z."""
    relations = {}
    for i in range(1, count + 1):
        name = f"t{i}"
        size = int(rng.integers(size_range[0], size_range[1] + 1))
        schema = ((f"{name}_x", "int64"), (f"{name}_y", "int64"), (f"{name}_z", "int64"))
        rows = tuple(
            tuple(int(v) for v in rng.integers(0, domain, size=3)) for _ in range(size)
        )
        relations[name] = store.Relation(name=name, schema=schema, rows=rows)
    return relations


def tiny_instance(seed, shape=None):
    """(relations, plan, desc) where desc lists scan and join predicates in
    leaf order for brute-force membership evaluation.

    Shapes: 1 = single scan, 2 = two-way join, 3 = three-way join.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E57]))
    relations = make_tiny_relations(rng)
    if shape is None:
        shape = int(rng.integers(1, 4))

    def scan_doc(nid, name):
        op = ["<", "<=", "=", ">", ">=", "!="][int(rng.integers(0, 6))]
        thr = int(rng.integers(0, 3))
        doc = {
            "id": nid,
            "kind": "SeqScan",
            "relation": name,
            "children": [],
            "predicate": [{"col": f"{name}_x", "op": op, "value": thr}],
        }
        return doc, (name, 0, op, thr)

    leaves = []
    docs = []
    for pos in range(shape):
        doc, pred = scan_doc(pos + 1, f"t{pos + 1}")
        docs.append(doc)
        leaves.append(pred)
    joins = []
    if shape >= 2:
        docs.append(
            {
                "id": 10,
                "kind": "HashJoin",
                "children": [1, 2],
                "predicate": [{"left": "t1_y", "right": "t2_y"}],
            }
        )
        joins.append((0, 1, 1, 1))  # positions 0 and 1 join on column index 1
        root = 10
    else:
        root = 1
    if shape == 3:
        docs.append(
            {
                "id": 11,
                "kind": "HashJoin",
                "children": [10, 3],
                "predicate": [{"left": "t2_z", "right": "t3_z"}],
            }
        )
        joins.append((1, 2, 2, 2))  # positions 1 and 2 join on column index 2
        root = 11
    plan = planmod.parse_plan(json.dumps({"nodes": docs, "root": root}))
    desc = {"leaves": leaves, "joins": joins}
    return relations, plan, desc


def brute_membership(desc, tables) -> np.ndarray:
    """Boolean tensor over the rows of `tables` (one table per leaf
    position, plain row tuples): True where the combination satisfies every
    scan predicate and every join atom. Pure nested-loop evaluation."""
    shape = tuple(len(t) for t in tables)
    z = np.zeros(shape, dtype=bool)
    preds = []
    for pos, (_, col, op, thr) in enumerate(desc["leaves"]):
        preds.append((pos, col, _OPS[op], thr))
    for idx in itertools.product(*(range(s) for s in shape)):
        rows = [tables[pos][i] for pos, i in enumerate(idx)]
        ok = all(op(rows[pos][col], thr) for pos, col, op, thr in preds)
        if ok:
            for pl, cl, pr, cr in desc["joins"]:
                if rows[pl][cl] != rows[pr][cr]:
                    ok = False
                    break
        z[idx] = ok
    return z


# ---------------------------------------------------------------------------
# Independent evaluation of the variance formulas from a membership tensor.


def s2_position_terms(z: np.ndarray, n: int):
    """(rho, per-position terms) of the sample variance formula: for each
    position k, (1/(n-1)) * sum_j (Q_kj / n^(K-1) - rho)^2 with Q_kj the
    match count of sample index j at position k."""
    K = z.ndim
    rho = float(z.mean())
    if n <= 1:
        return rho, [0.0] * K
    terms = []
    for k in range(K):
        axes = tuple(a for a in range(K) if a != k)
        counts = z.sum(axis=axes) if axes else z.astype(np.int64)
        dev = counts / float(n) ** (K - 1) - rho
        terms.append(float(np.sum(dev * dev)) / (n - 1))
    return rho, terms


def s2_enumeration(z: np.ndarray, n: int) -> float:
    rho, terms = s2_position_terms(z, n)
    return sum(terms)


def snm_enumeration(z: np.ndarray, n: int, positions) -> float:
    """Shared-position variance restricted to the given leaf positions."""
    rho, terms = s2_position_terms(z, n)
    return sum(terms[p] for p in positions)


# ---------------------------------------------------------------------------
# A fit's optimality conditions, the moments of one cost function, and the
# Monte Carlo variance oracle (covariance-free plans only).


def kkt_residual(A, y, b, constrained) -> float:
    """Worst violation of the fit's optimality conditions.

    For active constrained coefficients (b_i = 0) the gradient component
    must be >= 0; for all other coefficients it must vanish, relative to
    max(1, ||A^T y||_inf).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    active = np.asarray(constrained, dtype=bool) & (b == 0.0)
    g = A.T @ (A @ b - y)
    scale = max(1.0, float(np.max(np.abs(A.T @ y)))) if y.size else 1.0
    return float(np.max(np.where(active, -g, np.abs(g)), initial=0.0)) / scale


ARITY = {tag: len(inputs) for tag, (inputs, _) in FAMILIES.items()}


def cost_function_moments(cf, dists) -> tuple[float, float]:
    """(E[f], Var[f]) of a cost function under normal selectivity inputs.

    `dists` holds one (mu, sigma2) pair per input variable; two inputs are
    independent (left and right subtrees share no sample table).
    """
    e = propagate.cost_function_mean(cf, dists)
    tables = list(zip(map(propagate.moments, dists), map(propagate.covariances, dists)))
    monomials = propagate._monomials(cf, range(len(dists)))
    return e, propagate._variance(monomials, functools.partial(propagate.cov_product, tables))


def reference_run(plan: Plan, relations, world: simeval.TrueCostWorld, seed: int, truth=None) -> float:
    """One simulated run written out: per cost term, `true_b` then
    `family_value` at the true selectivities (a leaf's left input: 1.0);
    then one standard normal per term, in term order, from the run's
    seeded generator, each unit cost drawn as mean + sd * z and clamped at
    0, and the run's time the sum of cost times unit cost."""
    if truth is None:
        truth = planmod.selectivity_truth(plan, relations)
    costs = []
    for (nid, unit), (tag, vars_) in plan.index.terms.items():
        _, b = world.true_b(plan, relations, nid, unit)
        costs.append((unit, family_value(tag, b, [1.0 if v is None else truth[v] for v in vars_])))
    rng = np.random.default_rng(np.random.SeedSequence([world.seed, seed, 0x5EED]))
    total = 0.0
    for (unit, cost), z in zip(costs, rng.standard_normal(len(costs)).tolist()):
        total += cost * max(world.unit_means[unit] + math.sqrt(world.unit_vars[unit]) * z, 0.0)
    return total


def monte_carlo_variance(plan: Plan, estimates, costfuncs, units, draws: int = 1_000_000, seed: int = 0):
    """Empirical (mean, variance) of t_q under independent normal draws of
    every cost unit and every selectivity variable.

    Only valid when all selectivity variables in the plan are pairwise
    independent; correlated variables are refused because their joint
    distribution is not determined by the marginals.
    """
    var_dist = {}
    per_term = []
    for _, unit, vars_, cf in fitted_terms(plan, costfuncs):
        for v in vars_:
            if v is not None:
                var_dist[v] = (estimates[v].rho_n, estimates[v].sigma2, set(plan.index.leaves[v]))
        per_term.append((unit, cf.tag, cf.b, vars_))
    ids = sorted(var_dist)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if var_dist[a][2] & var_dist[b][2]:
                raise ValueError(
                    "monte_carlo_variance requires pairwise-independent selectivities "
                    f"(variables {a} and {b} share leaf tables)"
                )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3C0]))
    xs = {
        v: rng.normal(var_dist[v][0], math.sqrt(var_dist[v][1]), size=draws) for v in ids
    }
    total = np.zeros(draws)
    for unit, tag, b, vars_ in per_term:
        coords = [1.0 if v is None else xs[v] for v in vars_]
        cs = rng.normal(units.mean(unit), math.sqrt(units.variance(unit)), size=draws)
        f = sum(bk * col for bk, col in zip(b, monomial_values(tag, coords)))
        total += f * cs
    return float(total.mean()), float(total.var(ddof=1))


# ---------------------------------------------------------------------------
# The end-to-end synthetic study shared by the workload-level criteria.


@pytest.fixture(scope="session")
def study():
    """Seeded 200-query synthetic study: heterogeneous database, hidden
    cost world, calibrated units, sample pool, and the verified workload."""
    import warnings

    from runtimedist import calib

    sizes = (500, 2000, 8000)
    relations = simeval.generate_database(42, sizes=sizes)
    world = simeval.TrueCostWorld.generate(42)
    units = calib.fit_cost_units(world.calibration_records(50, seed=42))
    pool = store.build_pool(relations, n=25, pool_size=2, seed=42)

    spec = simeval.WorkloadSpec.grid(80, 80, 40, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans, skipped = simeval.generate_workload(spec, relations)
    return {
        "relations": relations,
        "world": world,
        "units": units,
        "pool": pool,
        "plans": plans,
        "skipped": skipped,
        "sizes": sizes,
    }
