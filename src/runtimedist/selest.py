"""Per-operator selectivity estimates with variance, from one sampled run.

One provenance-tracked execution of the plan over sample tables yields, for
every operator, the selectivity estimate rho_n, its variance-scale estimate
S2_n, and the shared-position restrictions S2_{n,m} used by covariance
bounds. Join statistics are accumulated streaming, tuple at a time, through
per-position hash maps keyed by sample index; no sample result set is
buffered for estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import plan as planmod
from .plan import Plan, SCAN_KINDS, JOIN_KINDS


class EstimationError(RuntimeError):
    pass


@dataclass
class SelEstimate:
    op_id: int
    rho_n: float
    s2_n: float
    n: int
    K: int
    leaf_set: tuple[tuple[str, int], ...]
    snm: dict[int, float]
    # var_id identifies the underlying random variable: pass-through
    # operators (Sort, Materialize) reuse their child's.
    var_id: int = -1
    # Per-position accumulators (sample_index -> count), aligned with
    # leaf_set, kept so shared-position variances for arbitrary subsets can
    # be computed without re-execution. None for aggregate-derived estimates.
    q: list[dict[int, int]] | None = None
    count: int = 0
    source: str = "q-scan"

    def __post_init__(self):
        if self.var_id < 0:
            self.var_id = self.op_id

    @property
    def sigma2(self) -> float:
        """Variance of rho_n itself: S2_n / n."""
        return self.s2_n / self.n if self.n > 0 else 0.0


def scan_variance(rho_n: float) -> float:
    """Closed-form variance scale for a scan: rho(1 - rho)."""
    if not 0.0 <= rho_n <= 1.0:
        raise ValueError(f"rho_n must be in [0,1], got {rho_n}")
    return rho_n * (1.0 - rho_n)


class QAccumulator:
    """Streaming per-position counters Q[k][j] over produced result rows."""

    def __init__(self, n: int, K: int):
        self.n = n
        self.K = K
        self.count = 0
        self.q: list[dict[int, int]] = [dict() for _ in range(K)]

    def add(self, provenance: tuple[int, ...]) -> None:
        if len(provenance) != self.K:
            raise EstimationError(
                f"provenance arity {len(provenance)} != K={self.K}"
            )
        self.count += 1
        for k, j in enumerate(provenance):
            qk = self.q[k]
            qk[j] = qk.get(j, 0) + 1


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


def join_variance(provenance_rows, n: int, K: int):
    """Consume streamed provenance vectors once; return (rho_n, S2_n, q).

    rho_n = result count / n^K; S2_n is the exact per-position sum over the
    Q counters, with the n = 1 convention S2_1 = 0.
    """
    acc = QAccumulator(n=n, K=K)
    for prov in provenance_rows:
        acc.add(tuple(prov))
    rho_n = acc.count / float(n) ** K
    s2_n = sum(_position_terms(acc.q, n, K, rho_n))
    return rho_n, s2_n, acc.q


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


def default_assignment(plan: Plan) -> dict[tuple[str, int], int]:
    """Assign each leaf appearance its appearance ordinal as table index,
    so repeated relations draw from distinct, independent sample tables."""
    return {app: app[1] for app in plan.index.appearance.values()}


def estimate_all(plan: Plan, pool, relations: dict, assignment=None) -> dict[int, SelEstimate]:
    """Post-order selectivity estimation for every operator of a plan.

    Scans use the closed-form variance, joins the streaming Q-scan,
    Sort/Materialize inherit the child's estimate, and aggregates (plus any
    operator above one) take rho from the supplied cardinality estimate
    with zero variance.
    """
    if assignment is None:
        assignment = default_assignment(plan)
    index = plan.index
    appearances = index.appearance
    n = pool.n
    if n < 1:
        raise EstimationError("pool has no sampling steps")

    bindings = {}
    for app in appearances.values():
        if app not in assignment:
            raise EstimationError(f"leaf appearance {app} has no assigned sample table")
        bindings[app] = pool.table(app[0], assignment[app])
    for rel in {a[0] for a in appearances.values()}:
        bindings[("__schema__", rel)] = relations[rel].column_names

    accs: dict[int, QAccumulator] = {}
    for node in plan.postorder():
        if node.id not in index.agg_above and (node.kind in SCAN_KINDS or node.kind in JOIN_KINDS):
            accs[node.id] = QAccumulator(n=n, K=len(index.leaves[node.id]))

    def sink(node_id, prov):
        acc = accs.get(node_id)
        if acc is not None:
            acc.add(prov)

    planmod.execute(plan, bindings, track_provenance=True, sink=sink)

    estimates: dict[int, SelEstimate] = {}
    for node in plan.postorder():
        leaf_set = index.leaves[node.id]
        K = len(leaf_set)
        if node.id in index.agg_above:
            denom = 1
            for rel, _ in leaf_set:
                denom *= relations[rel].row_count
            rho = node.estimate_M / denom
            estimates[node.id] = SelEstimate(
                op_id=node.id, rho_n=rho, s2_n=0.0, n=n, K=K, leaf_set=leaf_set,
                snm={m: 0.0 for m in range(1, K + 1)}, q=None,
                count=node.estimate_M, source="aggregate",
            )
        elif node.kind in ("Sort", "Materialize"):
            child = estimates[node.children[0]]
            estimates[node.id] = SelEstimate(
                op_id=node.id, rho_n=child.rho_n, s2_n=child.s2_n, n=n, K=child.K,
                leaf_set=child.leaf_set, snm=dict(child.snm), var_id=child.var_id,
                q=child.q, count=child.count, source="inherit",
            )
        elif node.kind in SCAN_KINDS:
            acc = accs[node.id]
            rho = acc.count / n
            s2 = scan_variance(rho)
            estimates[node.id] = SelEstimate(
                op_id=node.id, rho_n=rho, s2_n=s2, n=n, K=1, leaf_set=leaf_set,
                snm={1: s2}, q=acc.q, count=acc.count, source="scan-closed-form",
            )
        else:
            acc = accs[node.id]
            rho = acc.count / float(n) ** K
            terms = _position_terms(acc.q, n, K, rho)
            snm = {}
            running = 0.0
            for m in range(1, K + 1):
                running += terms[m - 1]
                snm[m] = running
            estimates[node.id] = SelEstimate(
                op_id=node.id, rho_n=rho, s2_n=snm[K], n=n, K=K, leaf_set=leaf_set,
                snm=snm, q=acc.q, count=acc.count, source="q-scan",
            )
    return estimates
