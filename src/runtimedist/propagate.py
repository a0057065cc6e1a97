"""Combine selectivity and cost-unit distributions into a running-time normal.

The running time of a plan is t_q = sum over operators k and cost units c
of f_kc(X) * c, with the X's the operators' selectivity estimates and the
c's the calibrated cost units. Mean and variance propagate analytically:
moment-matched normal approximations for each cost-function family, exact
normal-moment covariances where variable pairs share or are independent of
each other, and conservative upper bounds (added positively) where
ancestor/descendant selectivities correlate in ways that admit no direct
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import costfit
from .costfit import CostFunction
from .plan import Plan

POLICIES = ("all", "no-var-c", "no-var-x", "no-cov")


class PropagationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CovEntry:
    pair: tuple[int, int]
    variables: str
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


def term_vars(plan: Plan, node) -> dict[str, tuple[str, tuple]]:
    """Per cost unit: (cost-function type, selectivity variable nodes).

    Variables are node ids; None stands for the degenerate constant-1 input
    of a leaf's unary-input cost term (a scan reads its whole relation).
    """
    out = {}
    for unit, tag in node.cost_profile.items():
        if tag == "C1":
            vars_ = ()
        elif tag == "C2":
            vars_ = (node.id,)
        elif tag in ("C3", "C4"):
            vars_ = (node.children[0],) if node.children else (None,)
        else:
            if len(node.children) != 2:
                raise PropagationError(
                    f"node {node.id}: {tag} cost term needs two children"
                )
            vars_ = (node.children[0], node.children[1])
        out[unit] = (tag, vars_)
    return out


def cost_function_moments(cf: CostFunction, dists) -> tuple[float, float]:
    """(E[f], Var[f]) of a cost function under normal selectivity inputs.

    `dists` holds one (mu, sigma2) pair per input variable; C5/C6 inputs
    are independent (left and right subtrees share no sample table).
    """
    b = cf.b
    if cf.tag == "C1":
        return b[0], 0.0
    if cf.tag in ("C2", "C3"):
        (mu, s2), = dists
        return b[0] * mu + b[1], b[0] * b[0] * s2
    if cf.tag == "C4":
        (mu, s2), = dists
        e = b[0] * (mu * mu + s2) + b[1] * mu + b[2]
        v = s2 * ((b[1] + 2.0 * b[0] * mu) ** 2 + 2.0 * b[0] * b[0] * s2)
        return e, v
    if cf.tag == "C5":
        (ml, sl), (mr, sr) = dists
        return b[0] * ml + b[1] * mr + b[2], b[0] * b[0] * sl + b[1] * b[1] * sr
    if cf.tag == "C6":
        (ml, sl), (mr, sr) = dists
        e = b[0] * ml * mr + b[1] * ml + b[2] * mr + b[3]
        v = (
            sl * (b[0] * mr + b[1]) ** 2
            + sr * (b[0] * ml + b[2]) ** 2
            + b[0] * b[0] * sl * sr
        )
        return e, v
    raise PropagationError(f"unknown cost function type {cf.tag}")


def term_variance(e_f: float, var_f: float, mu_c: float, s2_c: float) -> float:
    """Variance of f*c for independent f and c."""
    return e_f * e_f * s2_c + mu_c * mu_c * var_f + s2_c * var_f


# ---------------------------------------------------------------------------
# Covariance machinery over monomials in node-selectivity variables.


def _monomials(cf: CostFunction, vars_):
    """Cost function as [(coefficient, ((var, power), ...))], constant last."""
    b = cf.b
    if cf.tag == "C1":
        return [(b[0], ())]
    if cf.tag in ("C2", "C3"):
        (v,) = vars_
        return [(b[0], ((v, 1),)), (b[1], ())]
    if cf.tag == "C4":
        (v,) = vars_
        return [(b[0], ((v, 2),)), (b[1], ((v, 1),)), (b[2], ())]
    if cf.tag == "C5":
        vl, vr = vars_
        return [(b[0], ((vl, 1),)), (b[1], ((vr, 1),)), (b[2], ())]
    vl, vr = vars_
    return [(b[0], ((vl, 1), (vr, 1))), (b[1], ((vl, 1),)), (b[2], ((vr, 1),)), (b[3], ())]


def _g(rho: float) -> float:
    return math.sqrt(max(rho * (1.0 - rho), 0.0))


def _h(rho: float) -> float:
    return math.sqrt(max(rho * (1.0 - rho) * (rho - rho * rho + 1.0), 0.0))


class CovContext:
    """Resolves variable distributions and pairwise relationships.

    Built once per plan from the selectivity estimates; variables are node
    ids resolved through var_id so pass-through operators share their
    child's random variable.
    """

    def __init__(self, plan: Plan, estimates, dists):
        self.plan = plan
        self.estimates = estimates
        self.dists = dists  # var_id -> (mu, sigma2), post-policy

    def resolve(self, v):
        return None if v is None else self.estimates[v].var_id

    def dist(self, v) -> tuple[float, float]:
        if v is None:
            return 1.0, 0.0
        return self.dists[self.resolve(v)]

    def mean_pow(self, v, p: int) -> float:
        mu, s2 = self.dist(v)
        return mu if p == 1 else mu * mu + s2

    def moment_pow(self, v, p: int) -> float:
        """Non-central normal moment E[v^p], p <= 4."""
        mu, s2 = self.dist(v)
        if p == 1:
            return mu
        if p == 2:
            return mu * mu + s2
        if p == 3:
            return mu**3 + 3.0 * mu * s2
        if p == 4:
            return mu**4 + 6.0 * mu * mu * s2 + 3.0 * s2 * s2
        raise PropagationError(f"moment order {p} unsupported")

    def moment_pow_id(self, var_id, p: int) -> float:
        """E[v^p] for an already resolved variable id (None: constant 1)."""
        if p == 0 or var_id is None:
            return 1.0
        mu, s2 = self.dists[var_id]
        if p == 1:
            return mu
        if p == 2:
            return mu * mu + s2
        if p == 3:
            return mu**3 + 3.0 * mu * s2
        if p == 4:
            return mu**4 + 6.0 * mu * mu * s2 + 3.0 * s2 * s2
        raise PropagationError(f"moment order {p} unsupported")

    def var_pow(self, v, p: int) -> float:
        mu, s2 = self.dist(v)
        return s2 if p == 1 else 2.0 * s2 * (2.0 * mu * mu + s2)

    def monomial_mean(self, mono) -> float:
        out = 1.0
        for v, p in mono:
            out *= self.mean_pow(v, p)
        return out

    def monomial_var(self, mono) -> float:
        # Independent factors within one monomial (left/right subtrees).
        e2, esq = 1.0, 1.0
        for v, p in mono:
            mu_p = self.mean_pow(v, p)
            e2 *= mu_p * mu_p
            esq *= mu_p * mu_p + self.var_pow(v, p)
        return esq - e2

    def related(self, a, b) -> str:
        """'same', 'independent', or 'nested' for two variables."""
        va, vb = self.resolve(a), self.resolve(b)
        if va is None or vb is None:
            return "independent"
        if va == vb:
            return "same"
        sa = set(self.estimates[va].leaf_set)
        sb = set(self.estimates[vb].leaf_set)
        if not sa & sb:
            return "independent"
        if sa <= sb or sb <= sa:
            return "nested"
        raise PropagationError(
            f"variables {va} and {vb} overlap without nesting; not a tree plan"
        )

    def zero_var(self, v) -> bool:
        return self.dist(v)[1] == 0.0

    def direct_cov(self, v, pa: int, pb: int) -> float:
        mu, s2 = self.dist(v)
        if pa == 1 and pb == 1:
            return s2
        if pa == 2 and pb == 2:
            return 2.0 * s2 * (2.0 * mu * mu + s2)
        return 2.0 * mu * s2  # (2,1) or (1,2)

    def bound_pair(self, a, pa: int, b, pb: int) -> tuple[float, str]:
        """Upper bound on |Cov(X_a^pa, X_b^pb)| for nested variables."""
        ea = self.estimates[self.resolve(a)]
        eb = self.estimates[self.resolve(b)]
        desc, anc = (ea, eb) if set(ea.leaf_set) <= set(eb.leaf_set) else (eb, ea)
        n = desc.n
        m = desc.K
        inv = 1.0 - 1.0 / n
        rho_a, rho_b = ea.rho_n, eb.rho_n
        if pa == 1 and pb == 1:
            from .selest import estimate_for_subset

            positions = [anc.leaf_set.index(app) for app in desc.leaf_set]
            s_anc = estimate_for_subset(anc, positions)
            s_desc = desc.s2_n
            b1 = math.sqrt(max(s_desc / n, 0.0) * max(s_anc / n, 0.0))
            b3 = (1.0 - inv**m) * _g(rho_a) * _g(rho_b)
            return (b1, "bound-B1") if b1 <= b3 else (b3, "bound-B3")
        ka, kb = ea.K, eb.K
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

    def cov_monomials(self, m1, m2) -> tuple[float, str]:
        """Covariance of two monomials: signed value for kinds 'zero' and
        'direct', a nonnegative magnitude for bound kinds."""
        links = []
        for a, pa in m1:
            for b, pb in m2:
                if self.zero_var(a) or self.zero_var(b):
                    continue
                rel = self.related(a, b)
                if rel != "independent":
                    links.append((a, pa, b, pb, rel))
        if not links:
            return 0.0, "zero"
        if all(rel == "same" for *_, rel in links):
            # Variables shared between the monomials; everything reduces to
            # normal moments of the grouped powers (independent groups).
            p1: dict = {}
            p2: dict = {}
            for v, p in m1:
                p1[self.resolve(v)] = p1.get(self.resolve(v), 0) + p
            for v, p in m2:
                p2[self.resolve(v)] = p2.get(self.resolve(v), 0) + p
            e12 = 1.0
            for v in set(p1) | set(p2):
                e12 *= self.moment_pow_id(v, p1.get(v, 0) + p2.get(v, 0))
            e1 = math.prod(self.moment_pow_id(v, p) for v, p in p1.items())
            e2 = math.prod(self.moment_pow_id(v, p) for v, p in p2.items())
            return e12 - e1 * e2, "direct"
        if len(links) == 1:
            a, pa, b, pb, rel = links[0]
            factor = 1.0
            for v, p in m1:
                if v is not a:
                    factor *= self.mean_pow(v, p)
            for v, p in m2:
                if v is not b:
                    factor *= self.mean_pow(v, p)
            bound, kind = self.bound_pair(a, pa, b, pb)
            return factor * bound, kind
        # Correlation flows through more than one variable pair; fall back
        # to the generic geometric-mean bound with per-monomial variances.
        return math.sqrt(self.monomial_var(m1) * self.monomial_var(m2)), "bound-gm"


def cov_direct(ctx: CovContext, m1, m2) -> float:
    """Signed covariance for reducible monomial pairs; refuses otherwise."""
    value, kind = ctx.cov_monomials(m1, m2)
    if kind not in ("zero", "direct"):
        raise PropagationError("pair is not reducible; use cov_bound")
    return value


def cov_bound(ctx: CovContext, a, pa: int, b, pb: int) -> tuple[float, str]:
    """Nonnegative covariance bound for a nested (ancestor/descendant) pair."""
    if ctx.related(a, b) != "nested":
        raise PropagationError("cov_bound applies to nested variable pairs only")
    return ctx.bound_pair(a, pa, b, pb)


# ---------------------------------------------------------------------------


def _apply_policy(estimates, units, policy: str):
    if policy not in POLICIES:
        raise PropagationError(f"unknown covariance policy {policy!r}; one of {POLICIES}")
    dists = {}
    for est in estimates.values():
        if est.op_id != est.var_id:
            continue
        s2 = 0.0 if policy == "no-var-x" else est.sigma2
        dists[est.var_id] = (est.rho_n, s2)
    unit_means = {u: units.mean(u) for u in units.units}
    unit_vars = {
        u: (0.0 if policy == "no-var-c" else units.variance(u)) for u in units.units
    }
    return dists, unit_means, unit_vars


def expected_time(plan: Plan, costfuncs, estimates, units) -> float:
    """E[t_q] = sum_k sum_c E[f_kc] * mu_c."""
    dists, unit_means, _ = _apply_policy(estimates, units, "all")
    ctx = CovContext(plan, estimates, dists)
    total = 0.0
    for node in plan.postorder():
        for unit, (tag, vars_) in term_vars(plan, node).items():
            cf = costfuncs[node.id][unit]
            e_f, _ = cost_function_moments(cf, [ctx.dist(v) for v in vars_])
            total += e_f * unit_means[unit]
    return total


def variance_time(plan: Plan, costfuncs, estimates, units, policy: str = "all"):
    """Var[t_q] with a per-component breakdown.

    Per-operator variances sum term variances over units plus within-
    operator cross-unit covariances scaled by unit means. Cross-operator
    pairs contribute twice their direct covariance when reducible, or twice
    their upper-bound magnitude added positively. Cross-unit covariances
    reduce through unit independence to mu_c * mu_c' * Cov(f, f').
    """
    dists, unit_means, unit_vars = _apply_policy(estimates, units, policy)
    ctx = CovContext(plan, estimates, dists)
    nodes = list(plan.postorder())
    terms = {}  # (op, unit) -> (tag, vars, cf, monomials, E[f], Var[f])
    for node in nodes:
        for unit, (tag, vars_) in term_vars(plan, node).items():
            cf = costfuncs[node.id][unit]
            e_f, var_f = cost_function_moments(cf, [ctx.dist(v) for v in vars_])
            terms[(node.id, unit)] = (unit, _monomials(cf, vars_), e_f, var_f)

    breakdown: list[tuple[str, float, str]] = []
    entries: list[CovEntry] = []
    flags: list[str] = []
    var_ops = 0.0
    cov_ub = 0.0

    for node in nodes:
        op_terms = [terms[(node.id, u)] for u in node.cost_profile if (node.id, u) in terms]
        v = 0.0
        for unit, _, e_f, var_f in op_terms:
            v += term_variance(e_f, var_f, unit_means[unit], unit_vars[unit])
        for i in range(len(op_terms)):
            for j in range(i + 1, len(op_terms)):
                u1, mono1, _, _ = op_terms[i]
                u2, mono2, _, _ = op_terms[j]
                c = 0.0
                b = 0.0
                for coef1, m1 in mono1:
                    for coef2, m2 in mono2:
                        val, kind = ctx.cov_monomials(m1, m2)
                        if kind in ("zero", "direct"):
                            c += coef1 * coef2 * val
                        else:
                            # possible only under custom profiles that give
                            # a join an own-selectivity (C2) term
                            b += abs(coef1) * abs(coef2) * val
                v += 2.0 * unit_means[u1] * unit_means[u2] * c
                cov_ub += 2.0 * unit_means[u1] * unit_means[u2] * b
        var_ops += v
        breakdown.append((f"op:{node.id}", v, "variance"))

    if policy != "no-cov":
        for a in range(len(nodes)):
            for bidx in range(a + 1, len(nodes)):
                ni, nj = nodes[a], nodes[bidx]
                direct = 0.0
                bound = 0.0
                kinds = set()
                for (op1, u1), (unit1, mono1, _, _) in terms.items():
                    if op1 != ni.id:
                        continue
                    for (op2, u2), (unit2, mono2, _, _) in terms.items():
                        if op2 != nj.id:
                            continue
                        scale = unit_means[unit1] * unit_means[unit2]
                        for coef1, m1 in mono1:
                            for coef2, m2 in mono2:
                                if coef1 == 0.0 or coef2 == 0.0:
                                    continue
                                val, kind = ctx.cov_monomials(m1, m2)
                                if kind == "zero":
                                    continue
                                if kind == "direct":
                                    direct += scale * coef1 * coef2 * val
                                else:
                                    bound += scale * abs(coef1) * abs(coef2) * val
                                    kinds.add(kind)
                if direct != 0.0:
                    var_ops += 2.0 * direct
                    breakdown.append((f"cov:{ni.id}-{nj.id}", 2.0 * direct, "direct"))
                    entries.append(CovEntry((ni.id, nj.id), "terms", "direct", direct))
                if bound != 0.0:
                    cov_ub += 2.0 * bound
                    kind = kinds.pop() if len(kinds) == 1 else "bound-min"
                    breakdown.append((f"cov:{ni.id}-{nj.id}", 2.0 * bound, kind))
                    entries.append(CovEntry((ni.id, nj.id), "terms", kind, bound))

    total = var_ops + cov_ub
    if total < 0.0:
        flags.append("clamped")
        total = 0.0
    if cov_ub > 0.0 and cov_ub >= var_ops:
        flags.append("bound-dominated")
    return total, breakdown, entries, flags


def fit_all_cost_functions(plan: Plan, estimates, oracle, W: int = 10):
    """Fit every operator's per-unit cost function from reference probes.

    One oracle call per cost term, over the term's whole grid:
    oracle((node_id, unit), coords) -> values, with `coords` an (m, arity)
    array: the mu +/- 3 sigma grid of the input selectivity
    distribution(s), or for a C1 term the single nullary coordinate, shape
    (1, 0).
    """
    ctx = CovContext(plan, estimates, {e.var_id: (e.rho_n, e.sigma2) for e in estimates.values()})
    fitted: dict[int, dict[str, CostFunction]] = {}
    for node in plan.postorder():
        fitted[node.id] = {}
        for unit, (tag, vars_) in term_vars(plan, node).items():
            coords = costfit.grid_points([ctx.dist(v) for v in vars_], W=W)
            values = oracle((node.id, unit), coords)
            fitted[node.id][unit] = costfit.fit_cost_function(tag, coords, values)
    return fitted


def predict_distribution(
    plan: Plan,
    pool,
    relations,
    units,
    oracle=None,
    costfuncs=None,
    W: int = 10,
    policy: str = "all",
    estimates=None,
):
    """End-to-end prediction: estimate selectivities, fit cost functions
    against the reference oracle (unless prefitted), and propagate to the
    output normal distribution."""
    from .selest import estimate_all

    if estimates is None:
        estimates = estimate_all(plan, pool, relations)
    if costfuncs is None:
        if oracle is None:
            raise PropagationError("need either fitted cost functions or a probe oracle")
        costfuncs = fit_all_cost_functions(plan, estimates, oracle, W=W)
    mean = expected_time(plan, costfuncs, estimates, units)
    variance, breakdown, entries, flags = variance_time(
        plan, costfuncs, estimates, units, policy=policy
    )
    dist = RunningTimeDistribution(mean=mean, variance=variance, breakdown=breakdown, flags=flags)
    return dist, estimates, costfuncs, entries
