"""Logical cost functions in selectivity space and their fitting.

Six polynomial families map selectivities to primitive-operation counts:

  C1: f = b0
  C2: f = b0*X + b1              (X: the operator's own selectivity)
  C3: f = b0*Xl + b1             (Xl: input selectivity)
  C4: f = b0*Xl^2 + b1*Xl + b2
  C5: f = b0*Xl + b1*Xr + b2
  C6: f = b0*Xl*Xr + b1*Xl + b2*Xr + b3

Coefficients are fitted from reference cost-model probes on a grid spanning
mu +/- 3 sigma of the relevant selectivity distribution(s), by least squares
with every structural coefficient constrained nonnegative and the constant
term left free. The solver is an in-repo active-set method; its KKT
optimality conditions are checkable for every fit.

Probe oracle protocol: `oracle((node_id, unit), coords) -> values`, where
`coords` is an (m, arity) array of selectivity coordinates (shape (1, 0)
for a C1 term) and `values` the m reference costs. A term is probed in one
call over its whole grid, and fitted from the `(coords, values)` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARITY = {"C1": 0, "C2": 1, "C3": 1, "C4": 1, "C5": 2, "C6": 2}
NUM_COEFS = {"C1": 1, "C2": 2, "C3": 2, "C4": 3, "C5": 3, "C6": 4}

DUAL_TOL = 1e-10


class FitError(ValueError):
    pass


def design_matrix(tag: str, coords) -> np.ndarray:
    """Term values at each probe coordinate: one row per row of the
    (m, arity) coordinate array, constant term last."""
    if tag not in ARITY:
        raise FitError(f"unknown cost-function type {tag!r}")
    X = np.asarray(coords, dtype=float)
    if X.ndim != 2 or X.shape[1] != ARITY[tag]:
        raise FitError(f"{tag} takes (m, {ARITY[tag]}) coordinates, got shape {X.shape}")
    one = np.ones(X.shape[0])
    if tag == "C1":
        cols = [one]
    elif tag in ("C2", "C3"):
        cols = [X[:, 0], one]
    elif tag == "C4":
        x = X[:, 0]
        cols = [x * x, x, one]
    elif tag == "C5":
        cols = [X[:, 0], X[:, 1], one]
    else:
        xl, xr = X[:, 0], X[:, 1]
        cols = [xl * xr, xl, xr, one]
    return np.column_stack(cols)


@dataclass(frozen=True)
class CostFunction:
    tag: str
    b: tuple[float, ...]
    degenerate: bool = False

    def __post_init__(self):
        if len(self.b) != NUM_COEFS[self.tag]:
            raise FitError(
                f"{self.tag} needs {NUM_COEFS[self.tag]} coefficients, got {len(self.b)}"
            )

    @property
    def arity(self) -> int:
        return ARITY[self.tag]

    def evaluate(self, *coord: float) -> float:
        if len(coord) != self.arity:
            raise FitError(f"{self.tag} takes {self.arity} coordinates, got {len(coord)}")
        return float(np.dot(self.b, design_matrix(self.tag, [coord])[0]))


def grid_points(distributions, W: int = 10) -> np.ndarray:
    """Probe coordinates spanning mu +/- 3 sigma, clamped to [0, 1].

    `distributions` is zero, one or two (mu, sigma2) pairs. The interval is
    split into W equal subintervals, giving W+1 boundary points per axis;
    the binary case takes the (W+1)^2 cross product, first axis outer. A
    zero-sigma axis collapses to the single point mu. Returns an
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

    Active-set method (Lawson-Hanson): unconstrained variables stay
    permanently in the passive set; constrained variables enter on the most
    positive dual (tolerance 1e-10) and leave when driven to the boundary.
    An entering variable whose passive-set solution is not positive would
    not move off zero; it is rejected until x next changes, and the next
    candidate is tried. Returns the coefficient vector and a degeneracy
    flag (set when any passive-set subproblem was rank deficient; the
    minimum-norm solution is used then).
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

    x = np.zeros(p)
    passive = ~constrained.copy()
    degenerate = False

    def solve_passive():
        nonlocal degenerate
        idx = np.flatnonzero(passive)
        if idx.size == 0:
            return idx, np.empty(0)
        sol, _, rank, _ = np.linalg.lstsq(A[:, idx], y, rcond=None)
        if rank < idx.size:
            degenerate = True
        return idx, sol

    idx, sol = solve_passive()
    x[idx] = sol

    rejected = np.zeros(p, dtype=bool)
    for _ in range(200 * (p + 1)):
        w = A.T @ (y - A @ x)
        cand = np.flatnonzero(constrained & ~passive & ~rejected & (w > DUAL_TOL))
        if cand.size == 0:
            break
        j = cand[np.argmax(w[cand])]
        passive[j] = True
        idx, sol = solve_passive()
        if sol[np.searchsorted(idx, j)] <= 0.0:
            passive[j] = False
            rejected[j] = True
            continue
        rejected[:] = False
        for _ in range(200 * (p + 1)):
            bad = np.flatnonzero(constrained[idx] & (sol <= 0.0))
            if bad.size == 0:
                x[:] = 0.0
                x[idx] = sol
                break
            xi = x[idx][bad]
            alpha = np.min(xi / (xi - sol[bad]))
            x[idx] = x[idx] + alpha * (sol - x[idx])
            drop = idx[constrained[idx] & (x[idx] <= DUAL_TOL)]
            x[drop] = 0.0
            passive[drop] = False
            idx, sol = solve_passive()
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
    terms are constrained nonnegative. A C1 term is the mean of its probes.
    A collapsed grid (fewer distinct coordinates than terms, e.g. a
    zero-variance selectivity) degrades to a constant fit through the probe
    mean, flagged degenerate.
    """
    A = design_matrix(tag, coords)
    y = np.asarray(values, dtype=float)
    p = NUM_COEFS[tag]
    if not y.size:
        raise FitError("no probe points")
    if y.shape != (A.shape[0],):
        raise FitError(f"{A.shape[0]} probe coordinates but {y.size} values")
    if tag == "C1":
        return CostFunction(tag=tag, b=(float(np.mean(y)),))
    distinct = {tuple(row) for row in A.tolist()}
    if len(y) < p or len(distinct) < p:
        b = [0.0] * p
        b[-1] = float(np.mean(y))
        return CostFunction(tag=tag, b=tuple(b), degenerate=True)
    constrained = np.array([True] * (p - 1) + [False])
    b, degenerate = nnls_solve(A, y, constrained)
    return CostFunction(tag=tag, b=tuple(float(v) for v in b), degenerate=degenerate)
