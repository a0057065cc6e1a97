"""Logical cost functions in selectivity space and their fitting.

Every cost family is one row of `FAMILIES`, and everything per family is
derived from its row: the design matrix here, the inputs an operator must
have (`plan`), the moments and covariance monomials (`propagate`), and the
harness's true coefficients and Monte Carlo evaluation (`simeval`).

Coefficients are fitted from reference cost-model probes on a grid spanning
mu +/- 3 sigma of the relevant selectivity distribution(s), by least squares
with every structural coefficient constrained nonnegative and the constant
term left free. The solver enumerates passive sets on scaled columns after
one QR factorization, an exact finite method; its KKT optimality conditions
are checkable for every fit. A fit is flagged `degenerate` when the data
cannot determine its coefficients: its grid collapsed to fewer distinct
points than coefficients, or the chosen passive set was rank deficient
(e.g. an input selectivity estimated as exactly 0 gives an all-zero
column).

Probe oracle protocol: `oracle((node_id, unit), coords) -> values`, where
`coords` is an (m, arity) array of selectivity coordinates (shape (1, 0)
for a C1 term) and `values` the m reference costs. A term is probed in one
call over its whole grid, and fitted from the `(coords, values)` arrays; a
term whose inputs are all constants is probed once instead
(`propagate.fit_all_cost_functions`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

# family -> (inputs, monomials). Inputs are roles: the operator's own
# selectivity X, its left input Xl, its right input Xr. Monomials are
# exponent tuples over the inputs, constant last, exponents at most 2.
FAMILIES = {
    "C1": ((), ((),)),  # b0
    "C2": (("own",), ((1,), (0,))),  # b0*X + b1
    "C3": (("left",), ((1,), (0,))),  # b0*Xl + b1
    "C4": (("left",), ((2,), (1,), (0,))),  # b0*Xl^2 + b1*Xl + b2
    "C5": (("left", "right"), ((1, 0), (0, 1), (0, 0))),  # b0*Xl + b1*Xr + b2
    "C6": (("left", "right"), ((1, 1), (1, 0), (0, 1), (0, 0))),  # b0*Xl*Xr + b1*Xl + b2*Xr + b3
}
ARITY = {tag: len(inputs) for tag, (inputs, _) in FAMILIES.items()}
NUM_COEFS = {tag: len(monomials) for tag, (_, monomials) in FAMILIES.items()}


class FitError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _factors(monomials) -> tuple:
    """Per monomial, the positions of its inputs, each repeated by its
    exponent: C6 gives ((0, 1), (0,), (1,), ())."""
    return tuple(tuple(i for i, e in enumerate(exps) for _ in range(e)) for exps in monomials)


def monomial_values(tag: str, inputs) -> list:
    """The family's monomials at one value per input (floats, or arrays
    of one length), constant last."""
    values = []
    for idx in _factors(FAMILIES[tag][1]):
        v = inputs[idx[0]] if idx else 1.0
        for i in idx[1:]:
            v = v * inputs[i]
        values.append(v)
    return values


def design_matrix(tag: str, coords) -> np.ndarray:
    """Term values at each probe coordinate: one row per row of the
    (m, arity) coordinate array, constant term last."""
    if tag not in FAMILIES:
        raise FitError(f"unknown cost-function type {tag!r}")
    X = np.asarray(coords, dtype=float)
    arity = len(FAMILIES[tag][0])
    if X.ndim != 2 or X.shape[1] != arity:
        raise FitError(f"{tag} takes (m, {arity}) coordinates, got shape {X.shape}")
    values = monomial_values(tag, [X[:, i] for i in range(arity)])
    A = np.empty((X.shape[0], len(values)))
    for k, v in enumerate(values):
        A[:, k] = v
    return A


@dataclass(frozen=True)
class CostFunction:
    tag: str
    b: tuple[float, ...]
    degenerate: bool = False

    def __post_init__(self):
        p = len(FAMILIES[self.tag][1])
        if len(self.b) != p:
            raise FitError(f"{self.tag} needs {p} coefficients, got {len(self.b)}")

    @property
    def arity(self) -> int:
        return len(FAMILIES[self.tag][0])

    def evaluate(self, *coord: float) -> float:
        if len(coord) != self.arity:
            raise FitError(f"{self.tag} takes {self.arity} coordinates, got {len(coord)}")
        return sum(b * v for b, v in zip(self.b, monomial_values(self.tag, coord)))


def grid_points(distributions, W: int = 10) -> np.ndarray:
    """Probe coordinates spanning mu +/- 3 sigma, clamped to [0, 1].

    `distributions` is zero, one or two (mu, sigma2) pairs. The interval is
    split into W equal subintervals, giving W+1 boundary points per axis;
    the binary case takes the (W+1)^2 cross product, first axis outer. A
    zero-sigma axis repeats mu W+1 times. Returns an
    (m, len(distributions)) coordinate array; with no distribution, the
    single empty coordinate of a C1 term, shape (1, 0).
    """
    if W < 1:
        raise ValueError("W must be >= 1")
    if len(distributions) > 2:
        raise ValueError("grid_points takes at most two distributions")
    axes = []
    for mu, sigma2 in distributions:
        sigma = float(np.sqrt(max(sigma2, 0.0)))
        pts = np.linspace(mu - 3.0 * sigma, mu + 3.0 * sigma, W + 1)
        axes.append(np.clip(pts, 0.0, 1.0))
    if not axes:
        return np.empty((1, 0))
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def nnls_solve(A, y, constrained) -> tuple[np.ndarray, bool]:
    """Least squares min ||Ab - y|| with b_i >= 0 for constrained i.

    Exact and finite. The problem is convex, so its optimum is the
    smallest-residual feasible one among the least-squares solutions on
    each passive set: the unconstrained coefficients plus a subset of the
    constrained ones, the rest held at zero. Columns are scaled to unit
    norm (a zero column keeps scale 1), so that a column of tiny values is
    not cut off as rank deficient, and factored once, A = QR; each passive
    set is solved on R against z = Q^T y. The full set is tried first and
    taken when feasible. There are 2^k sets for k constrained
    coefficients, at most 8 for the cost families. Returns the coefficient
    vector and a degeneracy flag, a `bool`: the chosen passive set was rank
    deficient (e.g. an all-zero column), and its minimum-norm solution is
    the one returned.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise FitError("design matrix and observations are incompatible")
    m, p = A.shape
    if m < p:
        raise FitError(f"need at least as many probe points ({m}) as terms ({p})")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(y)):
        raise FitError("non-finite values in the fit inputs")
    constrained = np.asarray(constrained, dtype=bool)

    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0.0] = 1.0
    Q, R = np.linalg.qr(A / scale)
    z = Q.T @ y
    cons = np.flatnonzero(constrained)
    best = None  # (residual, passive indices, solution, rank deficient)
    for kept in itertools.product((True, False), repeat=cons.size):  # the full set first
        passive = ~constrained
        passive[cons] = kept
        idx = np.flatnonzero(passive)
        sol, _, rank, _ = np.linalg.lstsq(R[:, idx], z, rcond=None)
        if np.any(sol[constrained[idx]] < 0.0):
            continue
        res = float(np.linalg.norm(R[:, idx] @ sol - z))
        if best is None or res < best[0]:
            best = res, idx, sol, bool(rank < idx.size)
        if idx.size == p:  # the unconstrained optimum is feasible
            break
    _, idx, sol, degenerate = best
    x = np.zeros(p)
    x[idx] = sol / scale[idx]
    return x, degenerate


def kkt_residual(A, y, b, constrained) -> float:
    """Worst violation of the fit's optimality conditions.

    For active constrained coefficients (b_i = 0) the gradient component
    must be >= 0; for all other coefficients it must vanish, relative to
    max(1, ||A^T y||_inf).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    constrained = np.asarray(constrained, dtype=bool)
    g = A.T @ (A @ b - y)
    scale = max(1.0, float(np.max(np.abs(A.T @ y)))) if y.size else 1.0
    worst = 0.0
    for i in range(len(b)):
        if constrained[i] and b[i] == 0.0:
            worst = max(worst, -g[i] / scale if g[i] < 0 else 0.0)
        else:
            worst = max(worst, abs(g[i]) / scale)
    return worst


def fit_cost_function(tag: str, coords, values) -> CostFunction:
    """Fit one cost function of the given type from probe coordinates (an
    (m, arity) array) and the reference costs observed there.

    The constant term (last coefficient) is unconstrained; all structural
    terms are constrained nonnegative. A constant-only (C1) term is the
    mean of its probes.
    A collapsed grid (fewer distinct coordinates than terms, e.g. a
    zero-variance selectivity) degrades to a constant fit through the probe
    mean, flagged degenerate.
    """
    A = design_matrix(tag, coords)
    y = np.asarray(values, dtype=float)
    p = A.shape[1]
    if not y.size:
        raise FitError("no probe points")
    if y.shape != (A.shape[0],):
        raise FitError(f"{A.shape[0]} probe coordinates but {y.size} values")
    if p == 1:
        return CostFunction(tag=tag, b=(float(np.mean(y)),))
    distinct = {tuple(row) for row in A.tolist()}
    if len(y) < p or len(distinct) < p:
        b = [0.0] * p
        b[-1] = float(np.mean(y))
        return CostFunction(tag=tag, b=tuple(b), degenerate=True)
    constrained = np.array([True] * (p - 1) + [False])
    b, degenerate = nnls_solve(A, y, constrained)
    return CostFunction(tag=tag, b=tuple(float(v) for v in b), degenerate=degenerate)
