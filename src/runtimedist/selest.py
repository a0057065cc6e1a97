"""Per-operator selectivity estimates with variance, from one sampled run.

One execution of the plan over sample tables, with provenance, yields, for
every operator, rho_n, its variance-scale estimate S2_n, and per-position
counters. From them `estimate_for_subset` computes a join's S2_n (a
scan's is closed-form) and the shared-position restriction S2_{n,m} a
covariance bound asks for. A streamed operator's counters are counted
from its provenance list, one per leaf position over that position's
sample indexes; a scan keeps each index at most once, so its counter
counts each kept index once. An estimate holds statistics only: an
operator's leaf positions are its `PlanIndex.leaves` entry, its role read
from `PlanIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plan as planmod
from .plan import Plan


class EstimationError(ValueError):
    pass


@dataclass(slots=True)
class SelEstimate:
    rho_n: float
    s2_n: float
    n: int
    # Per-position accumulators (sample_index -> count), one per leaf
    # position of the operator (`PlanIndex.leaves`), kept so shared-position
    # variances for any subset can be computed without re-execution. None
    # for aggregate-derived estimates.
    q: list[dict[int, int]] | None = None
    count: int = 0
    source: str = "q-scan"

    @property
    def sigma2(self) -> float:
        """Variance of rho_n itself: S2_n / n."""
        return self.s2_n / self.n if self.n > 0 else 0.0


def scan_variance(rho_n: float) -> float:
    """Closed-form variance scale for a scan: rho(1 - rho)."""
    if not 0.0 <= rho_n <= 1.0:
        raise ValueError(f"rho_n must be in [0,1], got {rho_n}")
    return rho_n * (1.0 - rho_n)


def estimate_for_subset(est: SelEstimate, positions) -> float:
    """S2 of an estimate restricted to the given leaf position indexes,
    K = len(q): the sum over the positions r of
    (1/(n-1)) * sum_j (Q[r][j]/n^(K-1) - rho_n)^2, a zero-count index
    contributing rho_n^2. Over all positions it is S2_n, over m of them
    S2_{n,m}. 0 when n == 1, and for an aggregate-derived estimate, which
    has no counters."""
    q, n, rho_n = est.q, est.n, est.rho_n
    if q is None or n <= 1:
        return 0.0
    scale = float(n) ** (len(q) - 1)
    s2 = 0.0
    for r in positions:
        qk = q[r]
        acc = (n - len(qk)) * rho_n * rho_n
        for c in qk.values():
            d = c / scale - rho_n
            acc += d * d
        s2 += acc / (n - 1)
    return s2


def _scan_counters(result) -> list[dict[int, int]]:
    """A scan's counters Q: one position, each kept sample index counted
    once. A scan keeps distinct indexes, so this is the counting loop's
    dict, keys in the same order."""
    return [dict.fromkeys([j for j, in result.provenance], 1)]


def estimate_all(plan: Plan, pool, relations: dict, shared=None) -> dict[int, SelEstimate]:
    """Post-order selectivity estimation for every operator of a plan.

    Each node's role comes from `PlanIndex`. Scans use the closed-form
    variance, joins `estimate_for_subset` over every leaf position,
    Sort/Materialize inherit the child's estimate, and aggregates (plus
    any operator above one) take rho from the supplied cardinality
    estimate with zero variance. A leaf appearance reads the
    pool's sample table numbered by its appearance ordinal, so repeated
    relations draw from distinct, independent sample tables. A counter's
    keys are in first-seen order along the provenance list, so S2 sums
    in a fixed order. `shared`, the dict of results the plans of one
    evaluation share, is handed to `plan.execute`: a scan of a sample
    table that an earlier plan of the same evaluation scanned with the
    same selections returns that plan's result. A scan's counters are
    looked up there too, under its result's identity, and stored with
    the result they were counted from once the whole estimate is made.
    So a shared scan is counted once, and the estimates are bitwise those
    of a fresh execution. Without `shared`, a new empty one: nothing is
    shared.
    """
    index = plan.index
    n = pool.n
    if n < 1:
        raise EstimationError("pool has no sampling steps")
    shared = {} if shared is None else shared
    bindings = {app: pool.table(*app) for app in index.appearance.values()}
    results = planmod.execute(plan, bindings, provenance=True, shared=shared)
    new: dict = {}  # counters made here, stored in `shared` at the end

    products = planmod.leaf_products(plan, relations) if index.agg_above else {}  # read by aggregates only
    estimates: dict[int, SelEstimate] = {}
    # Positional fields: keyword matching would be a tenth of the estimate's time at small n.
    for nid in index.order:
        if nid in index.agg_above:
            count = plan.nodes[nid].estimate_M
            est = SelEstimate(count / products[nid], 0.0, n, None, count, "aggregate")
        elif index.var[nid] != nid:  # a pass-through: its variable's estimate, the child's
            v = estimates[index.var[nid]]
            est = SelEstimate(v.rho_n, v.s2_n, n, v.q, v.count, "inherit")
        elif nid in index.appearance:
            res = results[nid]
            key = ("counters", id(res))
            entry = shared.get(key)
            if entry is None:
                entry = new[key] = (res, _scan_counters(res))
            rho = res.count / n
            est = SelEstimate(rho, scan_variance(rho), n, entry[1], res.count, "scan-closed-form")
        else:
            count = results[nid].count
            # Q: each leaf position's column counted (a Counter costs more to build than a short column)
            q = [{} for _ in index.leaves[nid]]
            for qk, column in zip(q, zip(*results[nid].provenance)):
                for j in column:
                    qk[j] = qk.get(j, 0) + 1
            est = SelEstimate(count / float(n) ** len(q), 0.0, n, q, count, "q-scan")
            est.s2_n = estimate_for_subset(est, range(len(q)))
        estimates[nid] = est
    shared.update(new)
    return estimates
