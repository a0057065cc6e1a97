"""Per-operator selectivity estimates with variance, from one sampled run.

One provenance-tracked execution of the plan over sample tables yields, for
every operator, the selectivity estimate rho_n, its variance-scale estimate
S2_n, and the shared-position restrictions S2_{n,m} used by covariance
bounds. Join statistics are accumulated streaming, tuple at a time, through
per-position hash maps keyed by sample index; no sample result set is
buffered for estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plan as planmod
from .plan import Plan, SCAN_KINDS


class EstimationError(RuntimeError):
    pass


@dataclass(slots=True)
class SelEstimate:
    op_id: int
    rho_n: float
    s2_n: float
    n: int
    K: int
    leaf_set: tuple[tuple[str, int], ...]
    snm: dict[int, float]
    # Per-position accumulators (sample_index -> count), aligned with
    # leaf_set, kept so shared-position variances for arbitrary subsets can
    # be computed without re-execution. None for aggregate-derived estimates.
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


def _position_terms(q: list[dict[int, int]], n: int, K: int, rho_n: float) -> list[float]:
    """Per-position contributions to S2_n: for each position r,
    (1/(n-1)) * sum_j (Q[r][j]/n^(K-1) - rho_n)^2, zero-count indexes
    contributing rho_n^2 each. Empty list convention when n == 1."""
    if n <= 1:
        return [0.0] * len(q)
    scale = float(n) ** (K - 1)
    terms = []
    for qk in q:
        acc = (n - len(qk)) * rho_n * rho_n
        for c in qk.values():
            d = c / scale - rho_n
            acc += d * d
        terms.append(acc / (n - 1))
    return terms


def shared_variance(q_sub: list[dict[int, int]], n: int, K: int, rho_n: float) -> float:
    """S2_{n,m} over a subset of m leaf positions.

    `q_sub` holds the operator's per-position counters restricted to the m
    shared positions; K and rho_n are the operator's own. Equals S2_n when
    the subset is the full position list.
    """
    if not 1 <= len(q_sub) <= K:
        raise ValueError(f"shared position count {len(q_sub)} out of range for K={K}")
    return sum(_position_terms(q_sub, n, K, rho_n))


def estimate_for_subset(est: SelEstimate, positions: list[int]) -> float:
    """S2_{n,m} of an estimate restricted to the given leaf position indexes."""
    if est.q is None:
        return 0.0
    return shared_variance([est.q[p] for p in positions], est.n, est.K, est.rho_n)


def estimate_all(plan: Plan, pool, relations: dict) -> dict[int, SelEstimate]:
    """Post-order selectivity estimation for every operator of a plan.

    Scans use the closed-form variance, joins the streaming Q-scan,
    Sort/Materialize inherit the child's estimate, and aggregates (plus any
    operator above one) take rho from the supplied cardinality estimate
    with zero variance. A leaf appearance reads the pool's sample table
    numbered by its appearance ordinal, so repeated relations draw from
    distinct, independent sample tables.
    """
    index = plan.index
    n = pool.n
    if n < 1:
        raise EstimationError("pool has no sampling steps")
    bindings = {app: pool.table(*app) for app in index.appearance.values()}

    # Q counters, one dict per leaf position, for every operator the
    # executor streams rows from; its output count comes with the results.
    qs = {nid: [{} for _ in index.leaves[nid]] for nid in index.streamed}

    def sink(node_id, prov):
        for qk, j in zip(qs[node_id], prov):
            qk[j] = qk.get(j, 0) + 1

    results = planmod.execute(plan, bindings, read_root=False, track_provenance=True, sink=sink)

    estimates: dict[int, SelEstimate] = {}
    for nid in index.order:
        node = plan.nodes[nid]
        leaf_set = index.leaves[nid]
        K = len(leaf_set)
        if nid in index.agg_above:
            count, q, source = node.estimate_M, None, "aggregate"
            rho, s2 = count / planmod.leaf_product(plan, relations, nid), 0.0
            snm = {m: 0.0 for m in range(1, K + 1)}
        elif node.kind in ("Sort", "Materialize"):
            child = estimates[node.children[0]]
            count, q, source = child.count, child.q, "inherit"
            rho, s2, K, leaf_set = child.rho_n, child.s2_n, child.K, child.leaf_set
            snm = dict(child.snm)
        elif node.kind in SCAN_KINDS:
            count, q, source = results[nid].count, qs[nid], "scan-closed-form"
            rho = count / n
            s2 = scan_variance(rho)
            snm = {1: s2}
        else:
            count, q, source = results[nid].count, qs[nid], "q-scan"
            rho = count / float(n) ** K
            snm = {}
            s2 = 0.0
            for m, term in enumerate(_position_terms(q, n, K, rho), start=1):
                s2 += term
                snm[m] = s2
        # Positional: keyword matching would be a tenth of the estimate's time at small n.
        estimates[nid] = SelEstimate(nid, rho, s2, n, K, leaf_set, snm, q, count, source)
    return estimates
