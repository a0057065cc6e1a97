"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute estimator quantities by brute force, without
going through the package's executor or streaming accumulators, so the
package paths can be checked against genuinely independent arithmetic.
The Monte Carlo oracle for a plan's running-time moments, the family
arities it and other tests read, a fit's KKT residual and one cost
function's moments live here too, with a simulated run written out term
by term, a plan's cost-function fit written out grid by grid, the solver
and the fitter called with one vector and at arbitrary points, CSV
ingest written out record by record, what a failed execution stored
checked against a fresh one, and a result kept as column arrays turned
back into rows: only tests use them.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator

import numpy as np
import pytest

from runtimedist import costfit, plan as planmod, propagate, selest, simeval, store
from runtimedist.costfit import FAMILIES, CostFunction, monomial_values
from runtimedist.plan import Plan

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
    independent (left and right subtrees share no sample table). E[f] is
    written out over the family's exponents: per monomial, in order, its
    coefficient times each input's E[X^p] (E[X^0] = 1 included), summed
    from 0.0; a missing input distribution is an IndexError. Var[f] is
    `propagate._variance` with `cov_product` over its monomials with a
    nonzero coefficient, but the constant, each as ((input, power), ...).
    """
    e = 0.0
    for b, exps in zip(cf.b, FAMILIES[cf.tag][1]):
        for i, p in enumerate(exps):
            mu, s2 = dists[i]
            b *= (1.0, mu, mu * mu + s2)[p]
        e += b
    tables = list(zip(map(propagate.moments, dists), map(propagate.covariances, dists)))
    monomials = [(b, tuple((i, p) for i, p in enumerate(exps) if p))
                 for b, exps in zip(cf.b, FAMILIES[cf.tag][1]) if b != 0.0 and any(exps)]
    return e, propagate._variance(monomials, functools.partial(propagate.cov_product, tables))


def reference_b(plan: Plan, relations, world: simeval.TrueCostWorld, node_id: int, unit: str) -> tuple:
    """A term's true coefficients written out from `world.coefs` and the
    plan's leaf sets: per monomial of its family, the slot's a-coefficient
    times the product of its inputs' leaf row counts, each to its power (a
    scan's left input: its own relation). The integers are multiplied
    first, as `monomial_values` does, so the coefficients are bitwise the
    probe oracle's."""
    tag, vars_ = plan.index.terms[node_id, unit]
    rows = [math.prod(relations[rel].row_count for rel, _ in plan.index.leaves[node_id if v is None else v])
            for v in vars_]
    a = world.coefs[plan.nodes[node_id].kind][unit]
    return tuple(a_k * math.prod(r ** p for r, p in zip(rows, exps)) for a_k, exps in zip(a, FAMILIES[tag][1]))


def reference_costs(plan: Plan, relations, world: simeval.TrueCostWorld, truth) -> list:
    """(unit, true cost) per cost term, in term order, written out:
    `reference_b` then the family's monomials at the true selectivities (a
    leaf's left input: 1.0) times the coefficients, summed in monomial
    order."""
    costs = []
    for (nid, unit), (tag, vars_) in plan.index.terms.items():
        b = reference_b(plan, relations, world, nid, unit)
        x = [1.0 if v is None else truth[v] for v in vars_]
        costs.append((unit, sum(map(operator.mul, b, monomial_values(tag, x)))))
    return costs


def reference_run(plan: Plan, relations, world: simeval.TrueCostWorld, seed: int, truth=None) -> float:
    """One simulated run written out: the `reference_costs`; then one
    standard normal per term, in term order, from the run's seeded
    generator, each unit cost drawn as mean + sd * z and clamped at 0, and
    the run's time the sum of cost times unit cost."""
    if truth is None:
        truth = planmod.selectivity_truth(plan, relations)
    costs = reference_costs(plan, relations, world, truth)
    rng = np.random.default_rng(np.random.SeedSequence([world.seed, seed, 0x5EED]))
    total = 0.0
    for (unit, cost), z in zip(costs, rng.standard_normal(len(costs)).tolist()):
        total += cost * max(world.unit_means[unit] + math.sqrt(world.unit_vars[unit]) * z, 0.0)
    return total


def reference_fit(plan: Plan, estimates, oracle, W: int = 10) -> dict:
    """`propagate.fit_all_cost_functions` written out: the plan's terms
    grouped by (family, input variables); a group of constant terms (every
    input None) probed term by term at the all-ones coordinate and stored
    as (0, ..., 0, value); any other group's grid built with
    `costfit.grid_points`, then one oracle call per term, then one
    `costfit.fit_grid` over the stacked values with the grid's distinct
    count. Keyed by node, then unit in `PlanIndex.terms` order."""
    groups: dict = {}
    for term, key in plan.index.terms.items():
        groups.setdefault(key, []).append(term)
    fits = {}
    for (tag, vars_), terms in groups.items():
        if all(v is None for v in vars_):
            for term in terms:
                value = float(oracle(term, np.ones((1, len(vars_))))[0])
                fits[term] = CostFunction(tag, (0.0,) * (costfit.NUM_COEFS[tag] - 1) + (value,))
            continue
        coords, distinct = costfit.grid_points([(estimates[v].rho_n, estimates[v].sigma2) for v in vars_], W)
        values = np.column_stack([oracle(term, coords) for term in terms])
        fits.update(zip(terms, costfit.fit_grid(tag, costfit.design_matrix(tag, coords), distinct, values)))
    fitted: dict = {nid: {} for nid in plan.index.order}
    for nid, unit in plan.index.terms:
        fitted[nid][unit] = fits[nid, unit]
    return fitted


def solve_vector(A, y, constrained):
    """`costfit.nnls_solve` for one probe vector: (b, whether the scaled
    design's rank is below p)."""
    X, rank = costfit.nnls_solve(A, np.asarray(y, dtype=float)[:, None], np.asarray(constrained, dtype=bool))
    return X[:, 0], bool(rank < A.shape[1])


def fit_points(tag, points, values):
    """`costfit.fit_grid` at arbitrary points, distinct ones `len(set(points))`:
    one function for m values, a list of u for an (m, u) array."""
    points = [tuple(point) for point in np.asarray(points, dtype=float).tolist()]
    Y = np.asarray(values, dtype=float)
    fits = costfit.fit_grid(tag, costfit.design_matrix(tag, points), len(set(points)), Y.reshape(len(points), -1))
    return fits[0] if Y.ndim == 1 else fits


def reference_ingest(text, name, schema) -> store.Relation:
    """`store.parse_csv` written out record by record: the header must
    equal the column names, a blank record is skipped, and a record of the
    wrong width, with a cell its type cannot parse, with an int64 cell
    outside [-2**63, 2**63) or that the csv module cannot read is an
    IngestError naming its line, counted in records from the header's 1,
    and the reason of its first bad cell."""
    casters = {"int64": int, "float64": float, "string": str}
    names = [c for c, _ in schema]
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    lineno = 0  # the line of the last record read
    try:
        header = next(reader, None)
        lineno = 1
        if header is None:
            raise store.IngestError("empty file, header row required")
        if header != names:
            raise store.IngestError(f"header {header!r} does not match declared columns {names!r}")
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(schema):
                raise store.IngestError(f"line {lineno}: expected {len(schema)} fields, got {len(raw)}")
            row = []
            for (_, t), cell in zip(schema, raw):  # the first bad cell is named
                try:
                    row.append(casters[t](cell))
                except ValueError as exc:
                    raise store.IngestError(f"line {lineno}: {exc}") from None
                if t == "int64" and not -(2**63) <= row[-1] < 2**63:
                    raise store.IngestError(f"line {lineno}: int64 value {row[-1]} is outside [-2**63, 2**63)")
            rows.append(tuple(row))
    except csv.Error as exc:  # raised while reading the next record
        raise store.IngestError(f"line {lineno + 1}: {exc}") from None
    return store.Relation(name=name, schema=tuple(schema), rows=tuple(rows))


def as_rows(res):
    """`res` as an execution without a table builds it: a result that
    keeps its rows as `kept` arrays with its rows, in table order, and
    its multiplicities, as lists of the table's tuples and of ints; any
    other result itself."""
    if res.kept is None:
        return res
    table, positions, multiplicity = res.kept
    return dataclasses.replace(res, rows=[table.rows[i] for i in positions.tolist()], kept=None, derived=None,
                               multiplicity=None if multiplicity is None else multiplicity.tolist())


def results_as_rows(results: dict) -> dict:
    """Every result of an execution through `as_rows`."""
    return {nid: as_rows(res) for nid, res in results.items()}


def assert_stored_as_fresh(table, before, plan: Plan, bindings, provenance: bool) -> int:
    """Every entry of a shared table `table` not keyed in `before`, stored
    by a failed execution, holds what a fresh, successful execution of
    `plan` over `bindings` builds for that operator, by `==` and `repr`: a
    scan's or a read join's result, found by its key, a result kept as
    column arrays through `as_rows`, and a column array the column of the
    relation its entry holds. `plan` is the failed plan's good twin, the
    same below the failure. Returns how many results it checked."""
    fresh = planmod.execute(plan, bindings, provenance=provenance)
    index = plan.index
    side = {} if provenance else planmod._handed_on(plan, bindings)
    for key in [key for key in table if key not in before and key[0] == "column"]:
        rel, column = table[key]
        assert key[1] == id(rel) and (column is None or column.tolist() == [row[key[2]] for row in rel.rows])
    new = [key for key in table if key not in before and key[0] != "column"]
    for key in new:
        if key[0] == "read-join":
            left, right, got = table[key]
            nids = [nid for nid, join_key in index.read_join_keys.items()
                    if (join_key, side.get(nid)) == key[3:5]
                    and [fresh[c] for c in plan.nodes[nid].children] == [as_rows(left), as_rows(right)]]
        else:
            rel, got = table[key]
            nids = [nid for nid, scan_key in index.scan_keys.items()
                    if scan_key == key[1] and bindings[index.appearance[nid]] is rel]
        assert nids and key[-1] is provenance
        for nid in nids:
            assert as_rows(got) == fresh[nid] and repr(as_rows(got)) == repr(fresh[nid])
    return len(new)


def monte_carlo_variance(plan: Plan, estimates, costfuncs, units, draws: int = 1_000_000, seed: int = 0):
    """Empirical (mean, variance) of t_q under independent normal draws of
    every cost unit and every selectivity variable.

    Only valid when all selectivity variables in the plan are pairwise
    independent; correlated variables are refused because their joint
    distribution is not determined by the marginals.
    """
    var_dist = {}
    per_term = []
    for (nid, unit), (_, vars_) in plan.index.terms.items():
        cf = costfuncs[nid][unit]
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
