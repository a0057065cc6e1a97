"""Combine selectivity and cost-unit distributions into a running-time normal.

The running time of a plan is t_q = sum over operators k and cost units c
of f_kc(X) * c, with the X's the operators' selectivity estimates and the
c's the calibrated cost units. Mean and variance propagate analytically:
moment-matched normal approximations for each cost-function family, exact
normal-moment covariances where variable pairs share or are independent of
each other, and conservative upper bounds (added positively) where
ancestor/descendant selectivities correlate in ways that admit no direct
computation. The selectivity variables are the plan's (`PlanIndex.var`).
Mean and variance read each fitted term once, from one term table, which
a prediction builds once for both, and one covariance table per plan
(`covariance_table`) holds the covariance of every pair of monomials the
cost terms read, each computed once.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import costfit, selest
from .costfit import CostFunction
from .plan import Plan

POLICIES = ("all", "no-var-c", "no-var-x", "no-cov")
NEGATIVE_MASS = 0.01  # a prediction with more mass below zero is flagged "negative-mass"


class PropagationError(ValueError):
    pass


@dataclass(frozen=True)
class CovEntry:
    pair: tuple[int, int]
    kind: str  # zero | direct | bound-B1 | bound-B3 | bound-min | bound-gm
    value: float  # signed for direct, nonnegative magnitude for bounds


@dataclass
class RunningTimeDistribution:
    mean: float
    variance: float
    breakdown: list[tuple[str, float, str]] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def mass_below_zero(self) -> float:
        """Phi(-mean/stddev), the normal's mass below zero; 0 when the stddev is 0."""
        return 0.5 * math.erfc(self.mean / (self.stddev * math.sqrt(2.0))) if self.variance > 0.0 else 0.0


def moments(dist) -> tuple[float, float, float]:
    """E[X^p] for p = 0, 1, 2 of a normal X with dist = (mu, sigma2)."""
    mu, s2 = dist
    return 1.0, mu, mu * mu + s2


def covariances(dist) -> tuple:
    """Cov(X^p, X^q) for p, q = 0, 1, 2 of a normal X with dist = (mu,
    sigma2): s2, 2*mu*s2 and 2*s2*(2*mu^2 + s2), never computed as
    E[X^(p+q)] - E[X^p] E[X^q]."""
    mu, s2 = dist
    c12 = 2.0 * mu * s2
    return (0.0, 0.0, 0.0), (0.0, s2, c12), (0.0, c12, 2.0 * s2 * (2.0 * mu * mu + s2))


def cov_product(tables, m1, m2) -> float:
    """Cov(m1, m2) of two monomials ((variable, power), ...) whose distinct
    variables are independent, `tables[v]` a variable's (moments,
    covariances): with p and q a variable's powers in m1 and m2, per
    variable C = Cov(X^p, X^q) and M = E[X^p] E[X^q], combined across
    variables as C1*M2 + M1*C2 + C1*C2."""
    powers: dict = {}
    for k, mono in enumerate((m1, m2)):
        for v, p in mono:
            powers.setdefault(v, [0, 0])[k] += p
    c, m = 0.0, 1.0
    for v, (p, q) in powers.items():
        mom, cov = tables[v]
        mv = mom[p] * mom[q]
        cv = cov[p][q]
        c, m = c * mv + m * cv + c * cv, m * mv
    return c


def _variance(monomials, cov) -> float:
    """Var[sum_k b_k m_k] for monomials [(b_k, m_k)], from the exact
    covariance cov(m_k, m_l) of each pair k <= l."""
    v = 0.0
    for k, (b1, m1) in enumerate(monomials):
        v += b1 * b1 * cov(m1, m1)
        for b2, m2 in monomials[k + 1 :]:
            v += 2.0 * b1 * b2 * cov(m1, m2)
    return v


def term_variance(e_f: float, var_f: float, mu_c: float, s2_c: float) -> float:
    """Variance of f*c for independent f and c."""
    return e_f * e_f * s2_c + mu_c * mu_c * var_f + s2_c * var_f


# ---------------------------------------------------------------------------
# Covariance of monomials over a plan's selectivity variables (`PlanIndex.var`).


def _g(rho: float) -> float:
    return math.sqrt(max(rho * (1.0 - rho), 0.0))


def _h(rho: float) -> float:
    return math.sqrt(max(rho * (1.0 - rho) * (rho - rho * rho + 1.0), 0.0))


def bound_pair(leaves, estimates, a: int, pa: int, b: int, pb: int) -> tuple[float, str]:
    """Upper bound on |Cov(X_a^pa, X_b^pb)| for nested variables a and b,
    from their selectivity estimates and leaf sets (`PlanIndex.leaves`).
    B1 reads the ancestor's S2 restricted to the descendant's positions."""
    ea, eb = estimates[a], estimates[b]
    la, lb = leaves[a], leaves[b]
    desc, anc, l_desc, l_anc = (ea, eb, la, lb) if set(la) <= set(lb) else (eb, ea, lb, la)
    n = desc.n
    m = len(l_desc)
    inv = 1.0 - 1.0 / n
    rho_a, rho_b = ea.rho_n, eb.rho_n
    if pa == 1 and pb == 1:
        s_anc = selest.estimate_for_subset(anc, [l_anc.index(app) for app in l_desc])
        s_desc = desc.s2_n
        b1 = math.sqrt(max(s_desc / n, 0.0) * max(s_anc / n, 0.0))
        b3 = (1.0 - inv**m) * _g(rho_a) * _g(rho_b)
        return (b1, "bound-B1") if b1 <= b3 else (b3, "bound-B3")
    ka, kb = len(la), len(lb)
    tail = math.sqrt(max(1.0 - inv**ka, 0.0)) * math.sqrt(max(1.0 - inv**kb, 0.0))
    if pa == 2 and pb == 2:
        bracket = 1.0 - inv ** (ka + kb - m) * (1.0 - 2.0 / n) ** m * (1.0 - 3.0 / n) ** m
        return max(bracket, 0.0) * tail * _h(rho_a) * _h(rho_b), "bound-B3"
    # exactly one squared member; h applies to it, g to the linear one
    k_sq = ka if pa == 2 else kb
    rho_sq = rho_a if pa == 2 else rho_b
    rho_lin = rho_b if pa == 2 else rho_a
    bracket = 1.0 - inv**k_sq * (1.0 - 2.0 / n) ** m
    return max(bracket, 0.0) * tail * _h(rho_sq) * _g(rho_lin), "bound-B3"


def covariance_table(leaves, estimates, dists):
    """A plan's covariance table: a function (m1, m2) -> (value, kind) of
    two monomials ((variable, power), ...) that computes each pair once,
    `leaves` giving each variable's leaf set (`PlanIndex.leaves`),
    `estimates` its selectivity estimate and `dists` its (mu, sigma2). A
    variable of each monomial, both of nonzero variance, covary when they
    are the same or nested (one leaf set inside the other). If every such
    pair is one variable, the value is exact: "direct" (`cov_product`), or
    "zero" with no pair. One nested pair gives its `bound_pair`, computed
    once per distinct pair, times the other factors' means; more give
    "bound-gm", the geometric mean of the monomials' variances, read as
    their own entries. A bound is a nonnegative magnitude. Its memos are two plain dicts, which live as
    long as the function: one `variance_time` call."""
    tables = {v: (moments(d), covariances(d)) for v, d in dists.items()}
    sets = {v: frozenset(apps) for v, apps in leaves.items()}
    bounds: dict = {}  # (a, pa, b, pb) -> bound_pair's (value, kind)
    entries: dict = {}  # (m1, m2) -> (value, kind)

    def cov(m1, m2) -> tuple[float, str]:
        entry = entries.get((m1, m2))
        if entry is not None:
            return entry
        links = []
        for a, pa in m1:
            for b, pb in m2:
                if dists[a][1] == 0.0 or dists[b][1] == 0.0:
                    continue
                if a == b or sets[a] <= sets[b] or sets[b] <= sets[a]:
                    links.append((a, pa, b, pb))
                elif sets[a] & sets[b]:
                    raise PropagationError(f"variables {a} and {b} overlap without nesting; not a tree plan")
        if not links:
            entry = 0.0, "zero"
        elif all(a == b for a, _, b, _ in links):
            entry = cov_product(tables, m1, m2), "direct"
        elif len(links) == 1:
            a, pa, b, pb = key = links[0]
            factor = 1.0
            for mono, x in ((m1, a), (m2, b)):
                for v, p in mono:
                    if v != x:
                        factor *= tables[v][0][p]
            bound = bounds.get(key)
            if bound is None:
                bound = bounds[key] = bound_pair(leaves, estimates, *key)
            entry = factor * bound[0], bound[1]
        elif m1 == m2:  # links between a monomial's own factors: they are not independent
            raise PropagationError(f"monomial {m1} multiplies nested variables; not a tree plan's")
        else:
            # Correlation flows through more than one variable pair; a
            # monomial's factors are independent (left/right subtrees), so
            # its own variance is an exact entry of this table.
            entry = math.sqrt(cov(m1, m1)[0] * cov(m2, m2)[0]), "bound-gm"
        entries[m1, m2] = entry
        return entry

    return cov


# ---------------------------------------------------------------------------


def _term_table(plan: Plan, costfuncs, estimates, units, policy: str):
    """A plan's term table under a policy: each selectivity variable's
    (mu, sigma2), None the constant 1 (a scan's left input), and per cost
    term, in `PlanIndex.terms` order, (operator, unit mean, unit variance,
    E[f], monomials). A term's monomials are [(coefficient, ((variable,
    power), ...))], without its constant and its zero-coefficient
    monomials, which covary with nothing; its E[f] is each one's
    coefficient times its variables' E[X^p], summed in order, plus the
    constant. A fitted function must be of its term's family. Its
    monomials' ((variable, power), ...) are those of `PlanIndex.monomials`,
    built once per plan, and are read only for a function with a nonzero
    coefficient besides the last; each unit's moments are read once per
    call."""
    if policy not in POLICIES:
        raise PropagationError(f"unknown covariance policy {policy!r}; one of {POLICIES}")
    dists = {None: (1.0, 0.0)}
    for nid, est in estimates.items():
        dists[nid] = (est.rho_n, 0.0 if policy == "no-var-x" else est.sigma2)
    moms = {v: moments(d) for v, d in dists.items()}
    monomials = plan.index.monomials
    unit_moments: dict = {}  # unit -> (mean, variance under the policy)
    table = []
    for term, (tag, _) in plan.index.terms.items():
        nid, unit = term
        cf = costfuncs[nid][unit]
        if cf.tag != tag:
            raise PropagationError(f"node {nid}, unit {unit}: fitted {cf.tag} function for a {tag} term")
        b = cf.b
        mono = []
        e_f = 0.0
        if any(b[:-1]):  # else only the constant is nonzero, as a constant term's is
            for k, powers in enumerate(monomials[term][1]):
                c = b[k]
                if c != 0.0 and powers:  # the constant covaries with nothing
                    for v, p in powers:
                        c *= moms[v][p]
                    mono.append((b[k], powers))
                    e_f += c
        unit_c = unit_moments.get(unit)
        if unit_c is None:
            unit_c = unit_moments[unit] = (units.mean(unit), 0.0 if policy == "no-var-c" else units.variance(unit))
        table.append((nid, *unit_c, e_f + b[-1], mono))
    return dists, table


def expected_time(plan: Plan, costfuncs, estimates, units, terms=None) -> float:
    """E[t_q] = sum_k sum_c E[f_kc] * mu_c, read from `terms`, the plan's
    term table under policy "all", built here when not given."""
    if terms is None:
        terms = _term_table(plan, costfuncs, estimates, units, "all")
    total = 0.0
    for _, mu_c, _, e_f, _ in terms[1]:
        total += e_f * mu_c
    return total


def variance_time(plan: Plan, costfuncs, estimates, units, policy: str = "all", terms=None):
    """Var[t_q] with a per-component breakdown that sums to it.

    Over the cost terms i = (operator, unit) with fitted f_i and unit c_i,
    Var[t_q] = sum_i Var[f_i c_i] + 2 sum_{i<j} mu_i mu_j Cov(f_i, f_j):
    units are independent of each other and of the selectivities. A pair's
    covariance is exact where reducible and otherwise an upper-bound
    magnitude added positively; every pair covariance reads one
    `covariance_table`. So does each term's own Var[f], which is exact:
    its inputs are one variable or two independent ones, so each of its
    monomial pairs is "direct" or "zero". Terms and same-operator pairs
    make up the operator's `op:<id>` component, its bounds a second `op:<id>`
    component of their bound kind; a cross-operator pair goes to
    `cov:<a>-<b>` and a `CovEntry`, and is left out under "no-cov".
    `terms` is the plan's term table under `policy`, built here when not
    given.
    """
    dists, table = _term_table(plan, costfuncs, estimates, units, policy) if terms is None else terms
    cov = covariance_table(plan.index.leaves, estimates, dists)

    # (a, b) -> [exact share, bound share, bound kinds] of the variance, for
    # operators a <= b in post-order; an operator's own starts from its
    # term variances.
    parts = {(nid, nid): [0.0, 0.0, set()] for nid in plan.index.order}
    terms = []  # (operator, mu_c, monomials) of each term that can covary

    def value(m1, m2):
        return cov(m1, m2)[0]

    for nid, mu_c, s2_c, e_f, mono in table:
        var_f = 0.0  # a constant term's; it covaries with nothing
        if mono:
            var_f = _variance(mono, value)
            terms.append((nid, mu_c, mono))
        parts[nid, nid][0] += term_variance(e_f, var_f, mu_c, s2_c)

    for i, (a, mu_a, mono_a) in enumerate(terms):
        for b, mu_b, mono_b in terms[i + 1 :]:
            if a != b and policy == "no-cov":
                continue
            part = parts.get((a, b))
            if part is None:
                part = parts[a, b] = [0.0, 0.0, set()]
            scale = 2.0 * mu_a * mu_b
            for coef1, m1 in mono_a:
                for coef2, m2 in mono_b:
                    val, kind = cov(m1, m2)
                    if kind == "direct":
                        part[0] += scale * coef1 * coef2 * val
                    elif kind != "zero":
                        part[1] += scale * abs(coef1) * abs(coef2) * val
                        part[2].add(kind)

    breakdown: list[tuple[str, float, str]] = []
    entries: list[CovEntry] = []
    flags: list[str] = []
    var_ops = 0.0
    cov_ub = 0.0
    for (a, b), (exact, bound, kinds) in parts.items():
        name = f"op:{a}" if a == b else f"cov:{a}-{b}"
        if a == b or exact != 0.0:
            var_ops += exact
            breakdown.append((name, exact, "variance" if a == b else "direct"))
            if a != b:
                entries.append(CovEntry((a, b), "direct", exact / 2.0))
        if bound != 0.0:
            cov_ub += bound
            kind = kinds.pop() if len(kinds) == 1 else "bound-min"
            breakdown.append((name, bound, kind))
            if a != b:
                entries.append(CovEntry((a, b), kind, bound / 2.0))

    total = var_ops + cov_ub
    if total < 0.0:
        flags.append("clamped")
        total = 0.0
    if cov_ub > 0.0 and cov_ub >= var_ops:
        flags.append("bound-dominated")
    return total, breakdown, entries, flags


# A constant term's probe coordinate, by arity (read-only: every plan
# shares it), and the structural coefficients it is stored with, by family.
_ONES = tuple(np.broadcast_to(1.0, (1, k)) for k in range(3))
_ZEROS = {tag: (0.0,) * (p - 1) for tag, p in costfit.NUM_COEFS.items()}
# A grid's (mu, sigma2) pairs as its key's bytes, by arity.
_PAIRS = {k: struct.Struct(f"{2 * k}d").pack for k in (1, 2)}


def _probe(oracle, term, coords):
    """The oracle's reply for one term: m numbers, or a `costfit.FitError`."""
    values = oracle(term, coords)
    shape = values.shape if isinstance(values, np.ndarray) else np.shape(values)
    if shape != (len(coords),):
        raise costfit.FitError(f"node {term[0]}, unit {term[1]}: {len(coords)} probe coordinates "
                               f"but values of shape {shape}")
    return values


def fit_all_cost_functions(plan: Plan, estimates, oracle, W: int = 10, shared=None):
    """Fit every operator's per-unit cost function from reference probes.

    One oracle call per cost term: oracle((node_id, unit), coords) ->
    values, with `coords` a read-only (m, arity) array. A term whose inputs
    are all constants (a C1 term, or one on a scan's constant left input)
    is a constant: it is probed once, at the all-ones coordinate, and
    stored as (0, ..., 0, value). Any other term is probed over the mu +/-
    3 sigma grid of its input selectivity distribution(s). Terms of one
    family on the same input variables share one design matrix, built
    once, and are fitted together in one `costfit.fit_grid` call. Each
    operator's functions are keyed by unit in `PlanIndex.terms` order. A
    reply that is not m values, or a non-finite one, is a `costfit.FitError`.

    `shared` is the table of results the plans of one evaluation share,
    under the rule `plan.execute` states. A grid's read-only coordinates
    and distinct count (`costfit.grid_points`) are looked up under "grid",
    the bytes of each input's (rho_n, sigma2) and W, which fix them (bytes,
    since -0.0 == 0.0 yet a zero's sign can move a coordinate's). Every
    term is still probed, one oracle call each; the grid's entry keeps its
    fits, keyed by family and the bytes of the probe values. A non-finite
    probe value fails its fit, so it is never stored, and is still a
    `costfit.FitError`. Without `shared`, nothing is kept past the call: a
    grid is shared only by the families of one call, keyed by their
    variables, and no fit is keyed or looked up, since none could be
    found. Building those keys costs about 2% of a study plan's fit (2-core
    VM).
    """
    keyed = shared is not None
    shared = {} if shared is None else shared
    fitted: dict[int, dict[str, CostFunction]] = {nid: {} for nid in plan.index.order}
    grids: dict[tuple, list] = {}  # (family, variables) -> the terms probed on its grid
    for term, spec in plan.index.terms.items():
        nid, unit = term
        tag, vars_ = spec
        if vars_.count(None) < len(vars_):
            fitted[nid][unit] = None  # keeps the unit's place; its grid's fit fills it below
            grids.setdefault(spec, []).append(term)
            continue
        value = float(_probe(oracle, term, _ONES[len(vars_)])[0])
        if not math.isfinite(value):
            raise costfit.FitError(f"node {nid}, unit {unit}: non-finite probe value {value}")
        fitted[nid][unit] = CostFunction(tag, _ZEROS[tag] + (value,))
    for (tag, vars_), terms in grids.items():
        dists = [(estimates[v].rho_n, estimates[v].sigma2) for v in vars_]
        key = ("grid", _PAIRS[len(dists)](*itertools.chain(*dists)), W) if keyed else vars_
        grid = shared.get(key)
        if grid is None:
            coords, distinct = costfit.grid_points(dists, W)
            coords.setflags(write=False)
            grid = shared[key] = coords, distinct, {}
        coords, distinct, fits = grid
        values = np.empty((len(coords), len(terms)))
        for j, term in enumerate(terms):
            values[:, j] = _probe(oracle, term, coords)
        if keyed:
            key = tag, values.tobytes()
            cfs = fits.get(key)
            if cfs is None:
                cfs = fits[key] = costfit.fit_grid(tag, costfit.design_matrix(tag, coords), distinct, values)
        else:
            cfs = costfit.fit_grid(tag, costfit.design_matrix(tag, coords), distinct, values)
        for (nid, unit), cf in zip(terms, cfs):
            fitted[nid][unit] = cf
    return fitted


def predict_distribution(plan: Plan, pool, relations, units, oracle, W: int = 10, policy: str = "all",
                         shared=None):
    """End-to-end prediction: estimate selectivities, fit cost functions
    against the reference probe oracle, and propagate to the output normal
    distribution. The term table under policy "all" is built once: the
    mean reads it, and so does the variance under that policy; any other
    policy builds its own. Its flags are `variance_time`'s,
    "degenerate-fit" when any cost function is `degenerate`, and
    "zero-count" when a streamed join kept no sample rows: its rho_n and
    s2_n are 0, so the prediction treats that selectivity as known, and
    "negative-mass" when the normal puts more than `NEGATIVE_MASS` of its
    mass below zero. `shared`, the table of results the plans of one
    evaluation share (`plan.execute`), goes to `selest.estimate_all` and
    `fit_all_cost_functions`; the prediction is bitwise the same with it
    or without it."""
    estimates = selest.estimate_all(plan, pool, relations, shared)
    costfuncs = fit_all_cost_functions(plan, estimates, oracle, W=W, shared=shared)
    terms = _term_table(plan, costfuncs, estimates, units, "all")
    mean = expected_time(plan, costfuncs, estimates, units, terms)
    variance, breakdown, entries, flags = variance_time(
        plan, costfuncs, estimates, units, policy, terms if policy == "all" else None
    )
    if any(cf.degenerate for per in costfuncs.values() for cf in per.values()):
        flags.append("degenerate-fit")
    if any(estimates[nid].count == 0 for nid in plan.index.streamed if nid not in plan.index.appearance):
        flags.append("zero-count")
    dist = RunningTimeDistribution(mean=mean, variance=variance, breakdown=breakdown, flags=flags)
    if dist.mass_below_zero > NEGATIVE_MASS:
        flags.append("negative-mass")
    return dist, estimates, costfuncs, entries
