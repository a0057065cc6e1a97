"""Logical cost functions in selectivity space and their fitting.

Every cost family is one row of `FAMILIES`, and everything per family is
derived from its row: the design matrix here, and in `plan` the inputs an
operator must have and, per cost term, what each monomial multiplies
(`PlanIndex.monomials`, read off the row once per plan). The moments and
covariance monomials (`propagate`) and the harness's true coefficients and
costs (`simeval`) read that table, not the row.

Coefficients are fitted from reference cost-model probes on a grid spanning
mu +/- 3 sigma of the relevant selectivity distribution(s), by least squares
with every structural coefficient constrained nonnegative and the constant
term left free. Terms of one family on one grid are fitted in one
`fit_grid` call at a fixed cost, whatever the grid's size or number of
terms: one design matrix, one column scaling and one `np.linalg.lstsq`
solve for every term's probe vector, about 25 numpy calls in all, about
half of the time in the solve; the grid's distinct points are counted on
its axes.
Two slower paths run only where the data call for them: a collapsed grid
(fewer distinct points than coefficients, e.g. a zero-variance input) is
fitted by the probe mean, and a term whose unconstrained solution has a
negative structural coefficient gets the exact passive-set enumeration
after a QR factorization. A fit is flagged `degenerate` when the data
cannot determine its coefficients: its grid collapsed, or its design
matrix is rank deficient (e.g. an input selectivity estimated as exactly
0 gives an all-zero column). A non-finite probe value is a `FitError`.

Probe oracle protocol: `oracle((node_id, unit), coords) -> values`, where
`coords` is a read-only (m, arity) array of selectivity coordinates (shape
(1, 0) for a C1 term) and `values` the m reference costs. A term is probed
in one call over its whole grid, and the terms sharing a grid are fitted
from the `(coords, values)` arrays together; a term whose inputs are all
constants is probed once instead (`propagate.fit_all_cost_functions`).
Many terms are probed at equal coordinates, often at one array: an oracle
may reuse work done for equal coordinates, as long as each reply is what
those coordinates give.
"""

from __future__ import annotations

import functools
import itertools
import math
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
# By number of coefficients p <= 9 (monomials of degree <= 2 in each of at
# most two inputs), which are constrained nonnegative: all but the constant.
_CONSTRAINED = [np.arange(p) < p - 1 for p in range(10)]


class FitError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def monomial_factors(tag: str) -> tuple:
    """Per monomial of the family, in order, the positions of its inputs,
    each repeated by its exponent: C6 gives ((0, 1), (0,), (1,), ()). A
    monomial's value is the product of those inputs taken left to right,
    and 1.0 for the constant's empty tuple. `monomial_values` and
    `design_matrix` start the product from the first input; the harness's
    true costs (`simeval`) start it from an exact 1, which gives the same
    bits."""
    return tuple(tuple(i for i, e in enumerate(exps) for _ in range(e)) for exps in FAMILIES[tag][1])


def monomial_values(tag: str, inputs) -> list:
    """The family's monomials at one value per input (floats, or arrays
    of one length), constant last."""
    values = []
    for idx in monomial_factors(tag):
        v = inputs[idx[0]] if idx else 1.0
        for i in idx[1:]:
            v = v * inputs[i]
        values.append(v)
    return values


def design_matrix(tag: str, coords) -> np.ndarray:
    """Term values at each probe coordinate: one row per row of the
    (m, arity) coordinate array, constant term last. Each column is the
    product of its monomial's factors (`monomial_factors`), multiplied in
    place, bitwise `monomial_values` at the coordinates' columns."""
    family = FAMILIES.get(tag)
    if family is None:
        raise FitError(f"unknown cost-function type {tag!r}")
    X = np.asarray(coords, dtype=float)
    arity = len(family[0])
    if X.ndim != 2 or X.shape[1] != arity:
        raise FitError(f"{tag} takes (m, {arity}) coordinates, got shape {X.shape}")
    A = np.empty((len(X), len(family[1])))
    for k, idx in enumerate(monomial_factors(tag)):
        column = A[:, k]
        column[:] = X[:, idx[0]] if idx else 1.0
        for i in idx[1:]:
            column *= X[:, i]
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


def grid_points(distributions, W: int = 10) -> tuple[np.ndarray, int]:
    """Probe coordinates spanning mu +/- 3 sigma, clamped to [0, 1], and
    their number of distinct points.

    `distributions` is zero, one or two (mu, sigma2) pairs. The interval is
    split into W equal subintervals, giving W+1 boundary points per axis;
    the binary case takes the (W+1)^2 cross product, first axis outer. A
    zero-sigma axis repeats mu W+1 times. Returns an
    (m, len(distributions)) coordinate array; with no distribution, the
    single empty coordinate of a C1 term, shape (1, 0). Each axis is
    `np.clip(np.linspace(mu - 3 sigma, mu + 3 sigma, W + 1), 0, 1)` bit for
    bit, in linspace's own float operations: k * step + lo, then hi. (Its
    other form, for a step that underflows to 0, is never needed: a
    nonzero sigma is at least 1e-162, so hi - lo is 0 or far from 0.)
    The distinct count is the product of each axis's number of distinct
    values (a NaN equals none): the axes are counted, not the points.
    """
    if W < 1:
        raise ValueError("W must be >= 1")
    if len(distributions) > 2:
        raise ValueError("grid_points takes at most two distributions")
    if not distributions:
        return np.empty((1, 0)), 1
    axes = []
    for mu, sigma2 in distributions:
        sigma = math.sqrt(max(sigma2, 0.0))
        lo, hi = mu - 3.0 * sigma, mu + 3.0 * sigma
        step = (hi - lo) / W
        axis = [k * step + lo for k in range(W)]
        axis.append(hi)
        axes.append([0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in axis])  # np.clip: NaN and -0.0 stay
    if len(axes) == 1:
        return np.array(axes[0])[:, None], len(set(axes[0]))
    first, second = axes
    grid = np.empty((W + 1, W + 1, 2))
    grid[:, :, 0] = np.array(first)[:, None]
    grid[:, :, 1] = second
    return grid.reshape(-1, 2), len(set(first)) * len(set(second))


def nnls_solve(A, Y, constrained):
    """Least squares min ||Ab - y|| with b_i >= 0 for constrained i, for
    each column y of Y: (the (p, u) solution, the rank of the scaled
    design).

    Takes a float (m, p) design A with m >= p, a finite (m, u) array Y and
    a boolean (p,) mask, unchecked: `fit_grid` checks what it passes.
    The problem is convex, so its optimum is the smallest-residual
    feasible one among the least-squares solutions on each passive set:
    the unconstrained coefficients plus a subset of the constrained ones,
    the rest held at zero. Each column of A is divided by its norm, a zero
    column by 1, so that a column of tiny values is not cut off as rank
    deficient. One least-squares solve on the full set covers every column
    of Y and is kept where feasible; the other columns are solved on every
    other passive set at once, on R of A = QR against Z = Q^T Y, with the
    full solve's rank tolerance (eps * m, not R's eps * p: R has the
    design's singular values). There are 2^k sets for k constrained
    coefficients, at most 8 for the cost families. A rank below p marks
    a rank-deficient A (e.g. an all-zero column): the data cannot
    determine every coefficient, and a passive set's minimum-norm
    solution is the one returned.
    """
    scale = np.sqrt(np.add.reduce(A * A, axis=0))  # np.linalg.norm(A, axis=0)'s own arithmetic
    scale[scale == 0.0] = 1.0
    As = A / scale
    X, _, rank, _ = np.linalg.lstsq(As, Y, rcond=None)
    if (X[constrained] < 0.0).any():
        bad = np.flatnonzero(np.any(X[constrained] < 0.0, axis=0))
        Q, R = np.linalg.qr(As)
        tol = np.finfo(float).eps * max(As.shape)
        Z = Q.T @ Y[:, bad]
        best = np.full(bad.size, np.inf)
        cons = np.flatnonzero(constrained)
        sets = itertools.product((True, False), repeat=cons.size)
        for kept in itertools.islice(sets, 1, None):  # the full set is infeasible for these
            passive = ~constrained
            passive[cons] = kept
            idx = np.flatnonzero(passive)
            sol = np.linalg.lstsq(R[:, idx], Z, rcond=tol)[0]
            res = np.linalg.norm(R[:, idx] @ sol - Z, axis=0)
            take = (res < best) & ~np.any(sol[constrained[idx]] < 0.0, axis=0)
            best[take] = res[take]
            X[:, bad[take]] = 0.0
            X[np.ix_(idx, bad[take])] = sol[:, take]
    X /= scale[:, None]
    return X, rank


def fit_grid(tag: str, A: np.ndarray, distinct: int, Y: np.ndarray) -> list:
    """Cost functions of the given type from the family's (m, p) design
    matrix (`design_matrix`), the number of distinct probe points
    (`grid_points`) and an (m, u) float array of probe values: u
    functions, each column fitted alone.

    The constant term (last coefficient) is free and the structural terms
    nonnegative (`nnls_solve`). A C1 term is the mean of its probes; a
    collapsed grid (fewer distinct points than terms, e.g. a zero-variance
    selectivity) degrades to a constant fit through the probe mean,
    flagged degenerate. A non-finite probe value is a `FitError` on every
    path, and so is a non-finite coordinate where the solver runs.
    """
    m, p = A.shape
    if not np.isfinite(Y).all():
        raise FitError(f"non-finite probe values for a {tag} fit")
    if p == 1 or m < p or distinct < p:  # the probe mean
        B = np.zeros((p, Y.shape[1]))
        B[-1] = Y.mean(axis=0)
        degenerate = p > 1
    else:
        if not np.isfinite(A).all():
            raise FitError(f"non-finite probe coordinates for a {tag} fit")
        B, rank = nnls_solve(A, Y, _CONSTRAINED[p])
        degenerate = bool(rank < p)
    return [CostFunction(tag, tuple(b), degenerate) for b in B.T.tolist()]
