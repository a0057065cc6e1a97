"""Logical cost functions in selectivity space and their fitting.

Every cost family is one row of `FAMILIES`, and everything per family is
derived from its row: the design matrix here, the inputs an operator must
have (`plan`), the moments and covariance monomials (`propagate`), and the
harness's true coefficients and Monte Carlo evaluation (`simeval`).

Coefficients are fitted from reference cost-model probes on a grid spanning
mu +/- 3 sigma of the relevant selectivity distribution(s), by least squares
with every structural coefficient constrained nonnegative and the constant
term left free. Terms of one family on one grid are fitted in one call:
one design matrix, one distinct-point check, one column scaling and one
least-squares solve for every term's probe vector. A term whose
unconstrained solution is infeasible then gets the exact passive-set
enumeration after a QR factorization; its KKT optimality conditions are
checkable for every fit. A fit is flagged `degenerate` when the data
cannot determine its coefficients: its grid collapsed to fewer distinct
points than coefficients, or its design matrix is rank deficient (e.g. an
input selectivity estimated as exactly 0 gives an all-zero column).

Probe oracle protocol: `oracle((node_id, unit), coords) -> values`, where
`coords` is an (m, arity) array of selectivity coordinates (shape (1, 0)
for a C1 term) and `values` the m reference costs. A term is probed in one
call over its whole grid, and the terms sharing a grid are fitted from the
`(coords, values)` arrays together; a term whose inputs are all constants
is probed once instead (`propagate.fit_all_cost_functions`).
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


def family_value(tag: str, b, coord) -> float:
    """The family's value at one coordinate, summed in monomial order."""
    return sum(bk * v for bk, v in zip(b, monomial_values(tag, coord)))


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
        return family_value(self.tag, self.b, coord)


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
        axes.append(np.clip(np.linspace(mu - 3.0 * sigma, mu + 3.0 * sigma, W + 1), 0.0, 1.0))
    if len(axes) < 2:
        return axes[0][:, None] if axes else np.empty((1, 0))
    return np.column_stack((np.repeat(axes[0], W + 1), np.tile(axes[1], W + 1)))


def nnls_solve(A, Y, constrained):
    """Least squares min ||Ab - y|| with b_i >= 0 for constrained i, for
    each column y of Y.

    Exact and finite. The problem is convex, so its optimum is the
    smallest-residual feasible one among the least-squares solutions on
    each passive set: the unconstrained coefficients plus a subset of the
    constrained ones, the rest held at zero. Columns of A are scaled to
    unit norm (a zero column keeps scale 1), so that a column of tiny
    values is not cut off as rank deficient. One least-squares solve on
    the full set covers every column of Y, and is taken where feasible.
    Only the other columns get the QR factorization A = QR and the other
    passive sets, each solved on R against Z = Q^T Y for all of them at
    once; there are 2^k sets for k constrained coefficients, at most 8 for
    the cost families. As with `np.linalg.lstsq`, a 1-D y gives a (p,)
    solution and one `bool`, an (m, u) Y a (p, u) solution and u bools.
    The flag marks a rank-deficient A (e.g. an all-zero column): the data
    cannot determine every coefficient, and a passive set's minimum-norm
    solution is the one returned.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if A.ndim != 2 or Y.ndim not in (1, 2) or A.shape[0] != Y.shape[0]:
        raise FitError("design matrix and observations are incompatible")
    m, p = A.shape
    if m < p:
        raise FitError(f"need at least as many probe points ({m}) as terms ({p})")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(Y)):
        raise FitError("non-finite values in the fit inputs")
    constrained = np.asarray(constrained, dtype=bool)
    Y2 = Y.reshape(m, -1)

    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0.0] = 1.0
    As = A / scale
    X, _, rank, _ = np.linalg.lstsq(As, Y2, rcond=None)
    bad = np.flatnonzero(np.any(X[constrained] < 0.0, axis=0))
    if bad.size:
        Q, R = np.linalg.qr(As)
        Z = Q.T @ Y2[:, bad]
        best = np.full(bad.size, np.inf)
        cons = np.flatnonzero(constrained)
        sets = itertools.product((True, False), repeat=cons.size)
        for kept in itertools.islice(sets, 1, None):  # the full set is infeasible for these
            passive = ~constrained
            passive[cons] = kept
            idx = np.flatnonzero(passive)
            sol = np.linalg.lstsq(R[:, idx], Z, rcond=None)[0]
            res = np.linalg.norm(R[:, idx] @ sol - Z, axis=0)
            take = (res < best) & ~np.any(sol[constrained[idx]] < 0.0, axis=0)
            best[take] = res[take]
            X[:, bad[take]] = 0.0
            X[np.ix_(idx, bad[take])] = sol[:, take]
    X /= scale[:, None]
    if Y.ndim == 1:
        return X[:, 0], bool(rank < p)
    return X, np.full(Y2.shape[1], rank < p)


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


def _distinct_at_least(coords, p: int) -> bool:
    """Whether the (m, arity) coordinates hold at least p distinct points."""
    seen = set()
    for point in map(tuple, np.asarray(coords, dtype=float).tolist()):
        seen.add(point)
        if len(seen) >= p:
            return True
    return False


def fit_cost_functions(tag: str, coords, values):
    """Fit cost functions of the given type from probe coordinates (an
    (m, arity) array) and the reference costs there: one function for m
    values, a list of u for an (m, u) array, each column fitted alone.

    The constant term (last coefficient) is free and the structural terms
    nonnegative (`nnls_solve`). A C1 term is the mean of its probes; a
    collapsed grid (fewer distinct coordinates than terms, e.g. a
    zero-variance selectivity) degrades to a constant fit through the
    probe mean, flagged degenerate.
    """
    A = design_matrix(tag, coords)
    Y = np.asarray(values, dtype=float)
    m, p = A.shape
    if not Y.size:
        raise FitError("no probe points")
    if Y.ndim not in (1, 2) or Y.shape[0] != m:
        raise FitError(f"{m} probe coordinates but values of shape {Y.shape}")
    Y2 = Y.reshape(m, -1)
    if p == 1 or m < p or not _distinct_at_least(coords, p):  # the probe mean
        B = np.zeros((p, Y2.shape[1]))
        B[-1] = Y2.mean(axis=0)
        degenerate = np.full(Y2.shape[1], p > 1)
    else:
        B, degenerate = nnls_solve(A, Y2, [True] * (p - 1) + [False])
    fits = [
        CostFunction(tag=tag, b=tuple(float(v) for v in B[:, j]), degenerate=bool(degenerate[j]))
        for j in range(Y2.shape[1])
    ]
    return fits[0] if Y.ndim == 1 else fits
