"""Synthetic ground truth and evaluation metrics.

A TrueCostWorld stands in for a real DBMS plus hardware: it hides true
cost-unit distributions and true per-operator cost coefficients. The
predictor sees the world only through calibration records and cost-model
probe oracles (`oracle((node_id, unit), coords) -> values`, an (m, arity)
coordinate array in, m true costs out); "actual" running times are
simulated by evaluating the true cost model at the true selectivities with
fresh cost-unit draws per run: one pass over the terms, reading their
monomials at the leaf products as the oracle does, each term's cost one
walk over its monomials' factors (`PlanIndex.monomials`) with the
oracle's coefficients, then seeded draws.

Also here: the exact enumeration oracle for Var[rho_n], workload
generation, and the correlation / error-distribution metrics.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import plan as planmod, propagate
from .calib import CalibrationRecord, COST_UNITS, check_unit, checked_int, finite_number
from .costfit import FAMILIES, design_matrix
from .plan import Plan, DEFAULT_COST_PROFILES
from .store import Relation


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Correlation metrics.


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("pearson needs two equal-length vectors of >= 2 points")
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        raise ValueError("pearson undefined: zero variance input")
    return float(xd @ yd) / denom


def _ranks(xs) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their ranks."""
    _, inverse, counts = np.unique(np.asarray(xs, dtype=float), return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # each distinct value's last rank
    return (ends - (counts - 1) / 2)[inverse]


def spearman(xs, ys) -> float:
    return pearson(_ranks(xs), _ranks(ys))


# ---------------------------------------------------------------------------
# Evaluation records and the error-distribution distance.


@dataclass
class EvalRecord:
    plan_id: str
    predicted_mean: float
    predicted_stddev: float
    actual: float
    flags: tuple[str, ...] = ()  # the prediction's flags

    @property
    def error(self) -> float:
        return abs(self.predicted_mean - self.actual)

    @property
    def norm_error(self) -> float:
        return self.error / self.predicted_stddev


def default_alpha_grid() -> np.ndarray:
    """The alpha grid 0.01, 0.02, ..., 6.0: 600 points."""
    return np.arange(1, 601) * 0.01


_NORMAL_SIDE = np.array([2.0 * normal_cdf(float(a)) - 1.0 for a in default_alpha_grid()])  # 2 Phi(alpha) - 1


def error_distribution_distance(records):
    """Per-alpha D_n(alpha) = |Pr_n(alpha) - (2 Phi(alpha) - 1)| over
    `default_alpha_grid`, and its mean.

    Pr_n is the fraction of normalized errors <= alpha (a NaN counts for
    no alpha). Records with zero predicted stddev are excluded and counted.
    """
    usable = [r for r in records if r.predicted_stddev > 0.0]
    excluded = len(records) - len(usable)
    if not usable:
        raise ValueError("no usable records (all have zero predicted stddev)")
    e = np.sort([r.norm_error for r in usable])
    d = np.abs(np.searchsorted(e, default_alpha_grid(), side="right") / len(e) - _NORMAL_SIDE)
    return d, float(d.mean()), excluded


# ---------------------------------------------------------------------------
# The synthetic world.

_UNIT_NOISE_CV = 0.12  # a hidden unit's standard deviation over its mean

_DEFAULT_UNIT_MEANS = {
    "c_s": 2.0e-5,
    "c_r": 1.0e-4,
    "c_t": 1.0e-6,
    "c_i": 2.0e-6,
    "c_o": 5.0e-7,
}


class _Drawn(tuple):
    """A default cost profile slot's a-coefficients as the world drew, or
    read, them, marked with the family they were drawn for (`family`). A
    slot given new coefficients holds another object, so no mark."""


@dataclass
class TrueCostWorld:
    unit_means: dict[str, float]
    unit_vars: dict[str, float]
    coefs: dict[str, dict[str, tuple[float, ...]]]  # kind -> unit -> a's
    seed: int

    @classmethod
    def generate(cls, seed: int) -> "TrueCostWorld":
        """Random world: hidden unit normals plus true a-coefficients for
        every (operator kind, cost unit) slot of the default profiles."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC057]))
        unit_means = {
            u: m * float(rng.uniform(0.8, 1.25)) for u, m in _DEFAULT_UNIT_MEANS.items()
        }
        unit_vars = {u: (_UNIT_NOISE_CV * m) ** 2 for u, m in unit_means.items()}
        coefs: dict[str, dict[str, tuple[float, ...]]] = {}
        for kind, profile in DEFAULT_COST_PROFILES.items():
            coefs[kind] = {}
            for unit, tag in profile.items():
                n_coef = len(FAMILIES[tag][1])
                a = [float(rng.uniform(0.5, 2.0)) for _ in range(n_coef - 1)]
                a.append(float(rng.uniform(0.0, 20.0)))  # additive constant
                if n_coef == 1:
                    # A constant-only family draws its constant twice and
                    # keeps the second: the draw order fixes every world.
                    a = [float(rng.uniform(0.0, 20.0))]
                coefs[kind][unit] = tuple(a)
        return cls(unit_means=unit_means, unit_vars=unit_vars, coefs=coefs, seed=seed)._mark_drawn()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "unit_means": self.unit_means,
                "unit_vars": self.unit_vars,
                "coefs": {k: {u: list(a) for u, a in per.items()} for k, per in self.coefs.items()},
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TrueCostWorld":
        """The world `to_json` wrote: every unit's mean and variance a finite
        number >= 0, every coefficient slot a list of finite numbers, each
        default cost profile's slot as long as its family, and the seed a
        JSON integer >= 0 (a JSON bool is no number); else a ValueError
        naming the unit, the (kind, unit) slot or the seed."""
        doc = json.loads(text)
        means = {u: doc["unit_means"][u] for u in COST_UNITS}
        variances = {u: doc["unit_vars"][u] for u in COST_UNITS}
        for u in COST_UNITS:
            check_unit(u, means[u], variances[u])
        coefs = {}
        for kind, per in doc["coefs"].items():
            coefs[kind] = {}
            for unit, a in per.items():
                if not (type(a) is list and all(map(finite_number, a))):
                    raise ValueError(f"coefficients for ({kind}, {unit}) must be a list of finite "
                                     f"numbers, got {a!r}")
                coefs[kind][unit] = tuple(a)
        seed = checked_int(doc["seed"], "seed", 0)
        return cls(unit_means=means, unit_vars=variances, coefs=coefs, seed=seed)._mark_drawn()

    def _mark_drawn(self) -> "TrueCostWorld":
        """Check every default cost profile's slot, in profile order
        (`_slot`), and mark it as drawn for its family."""
        for kind, profile in DEFAULT_COST_PROFILES.items():
            for unit, tag in profile.items():
                a = self.coefs[kind][unit] = _Drawn(self._slot(kind, unit, tag))
                a.family = tag
        return self

    # -- what the predictor may see ----------------------------------------

    def calibration_records(self, repetitions: int, seed: int) -> list[CalibrationRecord]:
        """Synthesize calibration observations: known primitive counts with
        elapsed times drawn from the hidden unit distributions."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11]))
        records = []
        for unit in COST_UNITS:
            mu = self.unit_means[unit]
            sd = math.sqrt(self.unit_vars[unit])
            for _ in range(repetitions):
                count = int(rng.integers(500_000, 2_000_000))
                c = max(float(rng.normal(mu, sd)), 0.0)
                records.append(
                    CalibrationRecord(unit=unit, count=count, elapsed_seconds=c * count)
                )
        return records

    def _slot(self, kind: str, unit: str, tag: str):
        """The (kind, unit) slot's true a-coefficients, which a `tag` term
        reads: one per monomial of the family, or a ValueError. A default
        cost profile's slot that still holds what the world drew for its
        family (`_Drawn`) refuses another family of the same length too,
        as C2 for C3."""
        try:
            a = self.coefs[kind][unit]
        except KeyError:
            a = ()
        if len(a) != len(FAMILIES[tag][1]):
            held = f"it holds {len(a)}, {tag} reads {len(FAMILIES[tag][1])}"
        elif type(a) is _Drawn and a.family != tag:
            held = f"it holds the {len(a)} drawn for {a.family}"
        else:
            return a
        raise ValueError(f"the world has no {tag} coefficients for ({kind}, {unit}): {held}; "
                         f"it covers only the default cost profiles")

    def cost_oracle(self, plan: Plan, relations):
        """Probe oracle: true logical costs of (node, unit) at each row of
        an (m, arity) selectivity coordinate array, as an m-vector,
        `design_matrix(tag, coords) @ b`. This is all the predictor learns
        of the cost model. When the oracle is made, each term's monomials
        are taken at the plan's leaf products (`_leaf_monomials`). A
        term's coefficients b are its slot's a-coefficients, read when it
        is probed, times those products. A tuple built from `map` builds
        faster than a list comprehension.

        An oracle made inside `plan.sharing(table)` keeps each reply in
        the table under "probe", the world's identity, the term's operator
        kind, unit and family, its leaf-product tuple and the coordinates'
        shape and bytes as floats, which fix b and the design matrix; the
        entry holds the world and the reply, made read-only, and every
        later equal probe, of any plan, is answered from it
        (`plan.shared_entry`, which states the table's rule). Bytes, so a
        -0.0 coordinate is not taken for 0.0, which it equals. A probe
        that raises stores nothing. An oracle made outside a block keeps
        nothing, and each reply is a new writable array."""
        nodes, terms, slot = plan.nodes, plan.index.terms, self._slot
        # term -> (operator kind, family, its monomials at the leaf products)
        scaled = {key: (nodes[key[0]].kind, terms[key][0], scale)
                  for key, scale in _leaf_monomials(plan, relations).items()}

        def oracle(key, coords):
            kind, tag, scale = scaled[key]
            b = tuple(map(operator.mul, slot(kind, key[1], tag), scale))
            return design_matrix(tag, coords) @ b

        table = planmod.shared_table()
        if table is None:
            return oracle

        def reply(key, coords):
            values = oracle(key, coords)
            values.setflags(write=False)
            return values

        def keeping(key, coords):
            kind, tag, scale = scaled[key]
            coords = np.asarray(coords, dtype=float)
            probe = ("probe", id(self), kind, key[1], tag, tuple(scale), coords.shape, coords.tobytes())
            return planmod.shared_entry(table, probe, (self,), reply, key, coords)

        return keeping


def _leaf_monomials(plan: Plan, relations) -> dict[tuple[int, str], list]:
    """Per cost term, in `PlanIndex.monomials` order, its monomials at the
    plan's leaf products (`plan.leaf_products`): per monomial, the product
    of its factors' leaf products in factor order, integers, so exact (a
    scan's left input, None, is its own row count; the constant is 1.0)."""
    products = planmod.leaf_products(plan, relations)
    scaled = {}
    for key, (factors, _) in plan.index.monomials.items():
        own = products[key[0]]
        scale = []
        for idx in factors:
            m = 1 if idx else 1.0
            for v in idx:
                m *= own if v is None else products[v]
            scale.append(m)
        scaled[key] = scale
    return scaled


def _true_term_costs(plan: Plan, relations, world: TrueCostWorld, truth) -> list[tuple[str, float]]:
    """(unit, true logical cost) of every cost term at the true selectivities,
    in post-order, from the monomials at the leaf products that the oracle
    reads (`_leaf_monomials`); a run only draws the unit costs. A term's
    cost is one walk over its monomials' factors (`PlanIndex.monomials`):
    per monomial k, (a_k * m_k(leaf products)) * m_k(true selectivities),
    summed from 0 in monomial order by `sum`, as the family sum of
    b_k * m_k(x) over the oracle's coefficients b is (Python 3.12's `sum`
    of floats is compensated). m_k multiplies its factors in order onto
    1.0 on the selectivity side, where a leaf's left input, None, is 1.0
    and is skipped; the leaf-product side is exact and the constant's 1.0
    scales a_k as 1 does, so each cost is bitwise that family sum at the
    true selectivities (the tests' `reference_costs`)."""
    nodes, terms, monomials = plan.nodes, plan.index.terms, plan.index.monomials
    costs = []
    for key, scale in _leaf_monomials(plan, relations).items():
        parts = []
        for a_k, m, idx in zip(world._slot(nodes[key[0]].kind, key[1], terms[key][0]), scale, monomials[key][0]):
            x = 1.0
            for v in idx:
                if v is not None:
                    x *= truth[v]
            parts.append(a_k * m * x)
        costs.append((key[1], sum(parts)))
    return costs


def _simulate(costs, world: TrueCostWorld, seed: int) -> float:
    rng = np.random.default_rng(np.random.SeedSequence([world.seed, seed, 0x5EED]))
    means, sds = world.unit_means, {u: math.sqrt(v) for u, v in world.unit_vars.items()}
    total = 0.0
    # One call draws every term's standard normal, in term order; a unit's
    # draw is mean + sd * z, as `rng.normal(mean, sd)` computes it.
    for (unit, cost), z in zip(costs, rng.standard_normal(len(costs)).tolist()):
        total += cost * max(means[unit] + sds[unit] * z, 0.0)
    return total


def simulate_actual_runtime(plan: Plan, relations, world: TrueCostWorld, seed: int, truth) -> float:
    """One simulated run: true cost model at `truth`, the plan's
    `plan.selectivity_truth`, with fresh cost-unit draws. Deterministic for
    a given seed."""
    return _simulate(_true_term_costs(plan, relations, world, truth), world, seed)


def check_runs(runs: int) -> None:
    """The run count's check, 1 to 1000, before any work that reads it; the
    CLI makes it on every config it loads."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if runs > 1000:
        raise ValueError(f"runs must be at most 1000, got {runs}: run r of plan seed s is seeded "
                         f"s * 1000 + r, so more runs would repeat the next plan's unit-cost draws")


def actual_runtime(plan: Plan, relations, world: TrueCostWorld, seed: int, runs: int = 5) -> float:
    """Reported actual running time: the mean of `runs` simulated runs,
    which share the term costs and differ in their unit-cost draws."""
    check_runs(runs)
    costs = _true_term_costs(plan, relations, world, planmod.selectivity_truth(plan, relations))
    return float(np.mean([_simulate(costs, world, seed * 1000 + r) for r in range(runs)]))


# ---------------------------------------------------------------------------
# Exact Var[rho_n] enumeration and pool resampling oracles.


def membership_tensor(plan: Plan, relations) -> tuple[np.ndarray, list]:
    """Boolean tensor over base tuple index combinations: True where the
    combination appears in the plan's root output. Axes follow the plan's
    leaf order. Computed by executing the plan over the base relations
    with provenance: the root's list holds its rows' positions in their
    relations. A leaf relation with no rows is a ValueError naming it."""
    index = plan.index
    if plan.root in index.agg_above:
        raise ValueError("root operator does not carry provenance (aggregate above?)")
    leaf_order = planmod.leaf_tables(plan, None)
    for rel, _ in leaf_order:
        if relations[rel].row_count == 0:
            raise ValueError(f"relation {rel!r} is empty; rho_n undefined (degenerate input)")
    z = np.zeros(tuple(relations[rel].row_count for rel, _ in leaf_order), dtype=bool)
    bindings = {app: relations[app[0]] for app in index.appearance.values()}
    for prov in planmod.execute(plan, bindings, provenance=True)[index.var[plan.root]].provenance:
        z[prov] = True
    return z, leaf_order


def var_rho_enumeration(plan: Plan, relations, n: int) -> float:
    """Exact variance of rho_n by enumeration over all base-tuple
    combinations: sum over subset sizes r of (n-1)^(K-r)/n^K times the mean
    squared deviation of the fixed-coordinate selectivities. The limits
    are checked before the tensor, one cell per combination, is built."""
    leaves = planmod.leaf_tables(plan)
    K = len(leaves)
    if K > 3 or any(relations[rel].row_count > 8 for rel, _ in leaves) or n > 12:
        raise ValueError("enumeration oracle is desk-scale only (K<=3, |R|<=8, n<=12)")
    z, _ = membership_tensor(plan, relations)
    zf = z.astype(float)
    rho = float(zf.mean())
    total = 0.0
    axes = list(range(K))
    for r in range(1, K + 1):
        coeff = (n - 1) ** (K - r) / float(n) ** K
        subset_sum = 0.0
        for S in itertools.combinations(axes, r):
            comp = tuple(a for a in axes if a not in S)
            rho_s = zf.mean(axis=comp) if comp else zf
            subset_sum += float(np.mean((rho_s - rho) ** 2))
        total += coeff * subset_sum
    return total


_RESAMPLE_CHUNK = 20000  # pools per vectorized step of `resample_rho`, bounding its index arrays


def resample_rho(plan: Plan, relations, n: int, pools: int, seed: int) -> np.ndarray:
    """rho_n over many independently drawn sample pools, vectorized.

    Follows the estimator's probability model: every sampling step picks a
    tuple uniformly and independently per leaf position (so n may exceed a
    relation's size, and repeated relations behave like distinct sample
    tables)."""
    z, leaf_order = membership_tensor(plan, relations)
    K = z.ndim
    sizes = z.shape
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBEEF]))
    out = np.empty(pools)
    done = 0
    while done < pools:
        p = min(_RESAMPLE_CHUNK, pools - done)
        # position k's picks on axis k + 1 of a (p, n, ..., n) index grid
        idx = tuple(
            rng.integers(0, sizes[k], size=(p, n)).reshape((p,) + (1,) * k + (n,) + (1,) * (K - 1 - k))
            for k in range(K)
        )
        out[done : done + p] = z[idx].reshape(p, -1).mean(axis=1)
        done += p
    return out


# ---------------------------------------------------------------------------
# Synthetic database and workload generation.


_VAL_DOMAIN = 10000  # selection-column values are drawn from [0, _VAL_DOMAIN)


def generate_database(seed: int, sizes=(2000, 2000, 2000), key_domain: int = 200):
    """Three-relation synthetic database with join keys and a selection
    column per relation."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDB]))
    relations = {}
    for i, size in enumerate(sizes, start=1):
        name = f"r{i}"
        ids = rng.permutation(size)
        keys = rng.integers(0, key_domain, size=size)
        keys2 = rng.integers(0, key_domain, size=size)
        vals = rng.integers(0, _VAL_DOMAIN, size=size)
        schema = (
            (f"{name}_id", "int64"),
            (f"{name}_key", "int64"),
            (f"{name}_key2", "int64"),
            (f"{name}_val", "int64"),
        )
        rows = tuple(zip(ids.tolist(), keys.tolist(), keys2.tolist(), vals.tolist()))
        relations[name] = Relation(name=name, schema=schema, rows=rows)
    return relations


def _threshold_for(relation, column: str, target: float, sorted_columns: dict):
    """(v, the fraction of rows with column < v): an integer threshold
    whose fraction is close to the target selectivity, and that fraction
    exactly as `plan.selectivity_truth` computes it for the scan (a count
    over the row count). `sorted_columns` holds each (relation, column)
    value list sorted once, filled on first use."""
    vals = sorted_columns.get((relation.name, column))
    if vals is None:
        vals = sorted_columns[relation.name, column] = sorted(relation.column(column))
    thr = int(vals[min(max(int(round(target * len(vals))), 0), len(vals) - 1)])
    return thr, bisect.bisect_left(vals, thr) / len(vals)


@dataclass
class WorkloadSpec:
    scan_targets: list[float] = field(default_factory=list)
    join_targets: list[tuple[float, float]] = field(default_factory=list)
    three_way_targets: list[tuple[float, float, float]] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def grid(cls, scan_count: int, join_count: int, join3_count: int, seed: int) -> "WorkloadSpec":
        """Evenly spaced targets: `scan_count` scan selectivities over
        [0.05, 0.95]; at most `join_count` pairs, the first of a square
        grid over [0.1, 0.9] with round(sqrt(join_count)) points a side;
        at most `join3_count` triples, the first of a cubic grid over
        [0.2, 0.8] with round(cbrt(join3_count)) + 1 points a side. Each
        count is an int >= 0, or a ValueError naming it (`checked_int`)."""
        for name, count in (("scan_count", scan_count), ("join_count", join_count), ("join3_count", join3_count)):
            checked_int(count, name, 0)
        scan_targets = list(np.linspace(0.05, 0.95, scan_count))
        grid = np.linspace(0.1, 0.9, round(math.sqrt(join_count)))
        join_targets = [(float(a), float(b)) for a in grid for b in grid][:join_count]
        grid = np.linspace(0.2, 0.8, round(join3_count ** (1.0 / 3.0)) + 1)
        three = [(float(a), float(b), float(c)) for a in grid for b in grid for c in grid][:join3_count]
        return cls(scan_targets=scan_targets, join_targets=join_targets, three_way_targets=three, seed=seed)


def _scan_node(nid, rel, target, relations, sorted_columns):
    """(the scan's node, its true selectivity)."""
    thr, sel = _threshold_for(relations[rel], f"{rel}_val", target, sorted_columns)
    return {
        "id": nid,
        "kind": "SeqScan",
        "relation": rel,
        "children": [],
        "predicate": [{"col": f"{rel}_val", "op": "<", "value": thr}],
    }, sel


_TARGET_TOLERANCE = 0.10  # a generated plan's largest relative selectivity error


def generate_workload(spec: WorkloadSpec, relations):
    """Plans whose checked scans' true selectivities land within
    `_TARGET_TOLERANCE` of their targets; unrealizable targets are skipped
    with a warning string returned alongside.

    A scan's threshold is read from its relation's selection column,
    sorted once per call, and so is its true selectivity: the count of
    values below the threshold (a bisection of the sorted column) over the
    row count, bitwise what `plan.selectivity_truth` gives, ties included.
    A candidate's document is built as a dict and validated by
    `plan.plan_from_document`, with no JSON text in between. The plan is
    executed once, with every appearance bound to an empty copy of its
    relation: that resolves every column it names as a real run does (a
    missing one raises `plan.ExecutionError`) and counts nothing. Joins'
    selectivities are not checked, so no plan runs over a non-empty table.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x3141]))
    rels = sorted(relations)
    plans = []
    skipped = []
    sorted_columns: dict = {}  # (relation, column) -> its values, sorted
    empty = {name: replace(rel, rows=()) for name, rel in relations.items()}

    def verify(doc, checks):
        """The parsed plan, or None if a (target, true selectivity) check fails."""
        p = planmod.plan_from_document(doc)
        planmod.execute(p, {app: empty[app[0]] for app in p.index.appearance.values()})
        for target, sel in checks:
            if target <= 0 or abs(sel - target) > _TARGET_TOLERANCE * target:
                return None
        return p

    join_kinds = ("HashJoin", "NestLoopJoin", "MergeJoin")
    # Per plan shape, in generation order: its label, its targets, one per
    # scan, its skipped message, and, for its i-th targets, its scans'
    # relations and its left-deep joins as (kind, left column, right column).
    shapes = (
        ("scan", [(s,) for s in spec.scan_targets], "scan target {}",
         lambda i: [rels[int(rng.integers(0, len(rels)))]], lambda i: []),
        ("join", spec.join_targets, "join targets ({},{})",
         lambda i: ["r1", "r2"], lambda i: [(join_kinds[i % len(join_kinds)], "r1_key", "r2_key")]),
        ("join3", spec.three_way_targets, "3-way targets ({},{},{})",
         lambda i: ["r1", "r2", "r3"], lambda i: [("HashJoin", "r1_key", "r2_key"), ("HashJoin", "r2_key2", "r3_key2")]),
    )
    for label, all_targets, message, scan_rels, joins in shapes:
        for i, targets in enumerate(all_targets):
            nodes, sels = map(list, zip(*[
                _scan_node(k, rel, t, relations, sorted_columns)
                for k, (rel, t) in enumerate(zip(scan_rels(i), targets), start=1)
            ]))
            root = 1
            for right, (kind, lcol, rcol) in enumerate(joins(i), start=2):
                nodes.append({"id": len(nodes) + 1, "kind": kind, "children": [root, right],
                              "predicate": [{"left": lcol, "right": rcol}]})
                root = len(nodes)
            p = verify({"nodes": nodes, "root": root}, zip(targets, sels))
            if p is None:
                skipped.append(message.format(*targets) + " unrealizable")
                continue
            plans.append((f"{label}-{i}", p))

    for msg in skipped:
        warnings.warn(msg)
    return plans, skipped


def evaluate_workload(plans, relations, pool, units, world: TrueCostWorld, policy: str = "all", W: int = 10, runs: int = 5):
    """Predict every plan, simulate its actual runtime, and compute the
    correlation and error-distribution metrics. The summary's "flags"
    counts the plans whose prediction carries each flag.

    It runs in two phases, each over every plan in plan order: first each
    plan's probe oracle and prediction, keeping its mean, stddev and
    flags, then each plan's actual runtime. So each phase keeps its own
    working set warm, the predictor's sample tables, fits and grids, then
    the harness's full-data column arrays, tallies and seeded draws,
    instead of alternating between them plan by plan. Every record and
    the summary are bitwise those of predicting and then measuring each
    plan in turn: no prediction reads an actual runtime or the other way
    round, and a shared entry is the same whichever plan builds it. An
    error is raised by the phase that meets it, so a prediction that
    fails raises before any actual runtime is simulated, even where an
    earlier plan's would fail too. An ExecutionError names its plan's
    label in either phase.

    The plans read one sample pool, one set of relations and one cost
    model, so they repeat work: one table of shared results, made here and
    dropped on return, goes to each prediction and, through
    `plan.sharing`, which covers the two phases only, to each truth and to
    each plan's probe oracle, which keeps its replies there
    (`TrueCostWorld.cost_oracle`); every term is still probed, one oracle
    call each. `plan.shared_entry` states the table's rule, and each
    module what its own entries hold: a hit is bitwise a fresh build, so
    every record and the summary are bitwise those of predicting each
    plan alone.

    Fewer than two plans with a nonzero predicted stddev cannot be
    correlated, nor can such plans that all have one predicted stddev, or
    one error: a ValueError that names the cause and gives the counts.
    A `runs` that `actual_runtime` refuses is refused before any plan is
    predicted."""
    check_runs(runs)
    predicted = []
    shared = {}
    with planmod.sharing(shared):
        for label, p in plans:
            with planmod.naming(f"plan {label!r}"):
                oracle = world.cost_oracle(p, relations)
                dist, _, _, _ = propagate.predict_distribution(
                    p, pool, relations, units, oracle=oracle, W=W, policy=policy, shared=shared
                )
            predicted.append((label, p, dist.mean, dist.stddev, tuple(dist.flags)))
        records = []
        for idx, (label, p, mean, stddev, flags) in enumerate(predicted):
            with planmod.naming(f"plan {label!r}"):
                act = actual_runtime(p, relations, world, seed=idx, runs=runs)
            records.append(
                EvalRecord(plan_id=label, predicted_mean=mean, predicted_stddev=stddev, actual=act, flags=flags)
            )
    usable = [r for r in records if r.predicted_stddev > 0.0]
    if len(usable) < 2:
        raise ValueError(f"evaluate needs at least two plans with a nonzero predicted stddev to correlate; "
                         f"{len(usable)} of {len(records)} has one")
    sigmas = [r.predicted_stddev for r in usable]
    errors = [r.error for r in usable]
    for what, values in (("predicted stddev", sigmas), ("error", errors)):
        if min(values) == max(values):
            raise ValueError(f"evaluate needs two different {what}s to correlate; all {len(usable)} plans "
                             f"with a nonzero predicted stddev, of {len(records)}, have one {what}")
    summary = {
        "count": len(records),
        "excluded_zero_sigma": len(records) - len(usable),
        "r_p": pearson(sigmas, errors),
        "r_s": spearman(sigmas, errors),
        "flags": dict(sorted(Counter(f for r in records for f in r.flags).items())),
    }
    _, dbar, _ = error_distribution_distance(usable)
    summary["d_bar"] = dbar
    return records, summary
