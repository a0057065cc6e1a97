"""Per-operator selectivity estimates with variance, from one sampled run.

One execution of the plan over sample tables, with provenance, yields, for
every operator, the selectivity estimate rho_n, its variance-scale estimate
S2_n, and the per-position counters from which `estimate_for_subset`
computes the shared-position restriction S2_{n,m} a covariance bound asks
for. A streamed operator's counters are counted from its provenance list,
one per leaf position over that position's sample indexes. An estimate
holds statistics only: an operator's leaf positions are its
`PlanIndex.leaves` entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plan as planmod
from .plan import Plan, SCAN_KINDS


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


def _restricted_s2(q: list[dict[int, int]], n: int, rho_n: float, positions) -> float:
    """S2 over a subset of leaf positions, K = len(q): the sum over the
    positions r of (1/(n-1)) * sum_j (Q[r][j]/n^(K-1) - rho_n)^2, a
    zero-count index contributing rho_n^2. S2_n over all positions,
    S2_{n,m} over m of them; 0 when n == 1."""
    if n <= 1:
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


def estimate_for_subset(est: SelEstimate, positions) -> float:
    """S2_{n,m} of an estimate restricted to the given leaf position
    indexes; 0 for an aggregate-derived estimate, which has no counters."""
    if est.q is None:
        return 0.0
    return _restricted_s2(est.q, est.n, est.rho_n, positions)


def estimate_all(plan: Plan, pool, relations: dict) -> dict[int, SelEstimate]:
    """Post-order selectivity estimation for every operator of a plan.

    Scans use the closed-form variance, joins the Q-scan over their
    provenance lists, Sort/Materialize inherit the child's estimate, and
    aggregates (plus any operator above one) take rho from the supplied
    cardinality estimate with zero variance. A leaf appearance reads the
    pool's sample table numbered by its appearance ordinal, so repeated
    relations draw from distinct, independent sample tables. A counter's
    keys are in first-seen order along the provenance list, so S2 sums
    in a fixed order.
    """
    index = plan.index
    n = pool.n
    if n < 1:
        raise EstimationError("pool has no sampling steps")
    bindings = {app: pool.table(*app) for app in index.appearance.values()}
    results = planmod.execute(plan, bindings, provenance=True)

    products = planmod.leaf_products(plan, relations) if index.agg_above else {}  # read by aggregates only
    estimates: dict[int, SelEstimate] = {}
    for nid in index.order:
        node = plan.nodes[nid]
        if nid in index.agg_above:
            count, q, source = node.estimate_M, None, "aggregate"
            rho, s2 = count / products[nid], 0.0
        elif node.kind in ("Sort", "Materialize"):
            child = estimates[node.children[0]]
            count, q, source = child.count, child.q, "inherit"
            rho, s2 = child.rho_n, child.s2_n
        else:
            count = results[nid].count
            # Q: each leaf position's column counted (a Counter costs more to build than a short column)
            q = [{} for _ in index.leaves[nid]]
            for qk, column in zip(q, zip(*results[nid].provenance)):
                for j in column:
                    qk[j] = qk.get(j, 0) + 1
            if node.kind in SCAN_KINDS:
                rho, source = count / n, "scan-closed-form"
                s2 = scan_variance(rho)
            else:
                rho, source = count / float(n) ** len(q), "q-scan"
                s2 = _restricted_s2(q, n, rho, range(len(q)))
        # Positional: keyword matching would be a tenth of the estimate's time at small n.
        estimates[nid] = SelEstimate(rho, s2, n, q, count, source)
    return estimates
