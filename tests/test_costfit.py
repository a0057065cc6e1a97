"""Cost-function families, probe grids, and the constrained solver."""

import itertools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from runtimedist import costfit
from runtimedist.costfit import CostFunction, monomial_values
from conftest import ARITY, fit_points, kkt_residual, solve_vector


def _fit(tag, coords, fn):
    coords = np.asarray(coords, dtype=float)
    return fit_points(tag, coords, [fn(*c) for c in coords])


# ---------------------------------------------------------------------------
# Grid construction


def test_grid_equal_width():
    pts, _ = costfit.grid_points([(0.5, 0.1**2)], W=2)
    assert [round(x[0], 10) for x in pts] == [0.2, 0.5, 0.8]


def test_grid_clamped_at_zero():
    pts, _ = costfit.grid_points([(0.05, 0.1**2)], W=2)
    assert [round(x[0], 10) for x in pts] == [0.0, 0.05, 0.35]


def test_grid_sigma_zero_collapses():
    pts, distinct = costfit.grid_points([(0.4, 0.0)], W=4)
    assert all(x == (0.4,) for x in pts) and distinct == 1


def test_grid_binary_cross_product():
    pts, distinct = costfit.grid_points([(0.5, 0.01), (0.5, 0.01)], W=10)
    assert len(pts) == distinct == 121
    assert len({p[0] for p in pts}) == 11


def _grid_by_definition(distributions, W):
    """Each axis np.clip(np.linspace(mu - 3 sigma, mu + 3 sigma, W + 1), 0, 1),
    the cross product first axis outer."""
    axes = [np.clip(np.linspace(mu - 3.0 * s, mu + 3.0 * s, W + 1), 0.0, 1.0)
            for mu, s in ((mu, float(np.sqrt(max(s2, 0.0)))) for mu, s2 in distributions)]
    return np.array(list(itertools.product(*axes))) if axes else np.empty((1, 0))


_SIGMA2 = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1.0, 1.0),
                    st.floats(5e-324, 2.2250738585072014e-308))  # zero, negative, subnormal


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 2.0), _SIGMA2), max_size=2), st.integers(1, 12))
@example([(0.3, 1e-320)], 1)
@example([(-0.0, -0.0), (1.0, 0.0)], 1)
def test_grid_points_bitwise_equal_to_definition(distributions, W):
    (got, distinct), want = costfit.grid_points(distributions, W), _grid_by_definition(distributions, W)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert distinct == len(set(map(tuple, want.tolist())))  # counted on the axes, not the points


def test_design_matrix_linear():
    A = costfit.design_matrix("C3", [(0.0,), (0.5,), (1.0,)])
    assert (A @ np.array([100.0, 5.0])).tolist() == [5.0, 55.0, 105.0]


# Each family's monomials written out over the coordinate columns,
# constant (ones) last.
_WRITTEN_OUT = {
    "C1": lambda X: [],
    "C2": lambda X: [X[:, 0]],
    "C3": lambda X: [X[:, 0]],
    "C4": lambda X: [X[:, 0] * X[:, 0], X[:, 0]],
    "C5": lambda X: [X[:, 0], X[:, 1]],
    "C6": lambda X: [X[:, 0] * X[:, 1], X[:, 0], X[:, 1]],
}
_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.5e-310, -1e-320, float("nan")]), st.floats())


@settings(max_examples=200, deadline=None)
@given(tag=st.sampled_from(sorted(_WRITTEN_OUT)), rows=st.lists(st.tuples(_COORDINATES, _COORDINATES), max_size=8))
def test_design_matrix_bitwise_written_out_products(tag, rows):
    assert set(_WRITTEN_OUT) == set(costfit.FAMILIES)
    X = np.array(rows, dtype=float).reshape(len(rows), 2)[:, :ARITY[tag]]
    with np.errstate(all="ignore"):  # inf * 0 is NaN on both sides
        A = costfit.design_matrix(tag, X)
        want = _WRITTEN_OUT[tag](X) + [np.ones(len(X))]
    assert A.shape == (len(X), len(want))
    for k, column in enumerate(want):
        assert A[:, k].tobytes() == np.ascontiguousarray(column).tobytes(), (tag, k)


def test_design_matrix_rows_and_shape_errors():
    assert costfit.design_matrix("C1", [()]).tolist() == [[1.0]]
    assert costfit.design_matrix("C4", [(0.5,)]).tolist() == [[0.25, 0.5, 1.0]]
    assert costfit.design_matrix("C6", [(0.5, 0.25)]).tolist() == [[0.125, 0.5, 0.25, 1.0]]
    with pytest.raises(costfit.FitError):
        costfit.design_matrix("C5", [(0.5,)])
    with pytest.raises(costfit.FitError):
        costfit.design_matrix("C7", [(0.5,)])


# ---------------------------------------------------------------------------
# Solver


def test_nnls_projection_example():
    b, degenerate = solve_vector(np.eye(2), np.array([1.0, -1.0]), [True, True])
    assert b == pytest.approx([1.0, 0.0])
    assert not degenerate
    residual = np.linalg.norm(np.eye(2) @ b - np.array([1.0, -1.0]))
    assert residual == pytest.approx(1.0)


def test_nnls_zero_rhs():
    b, _ = solve_vector(np.random.default_rng(0).normal(size=(6, 3)),
                              np.zeros(6), [True, True, False])
    assert b == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_nnls_rank_deficient_flagged():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    b, degenerate = solve_vector(A, np.array([1.0, 2.0, 3.0]), [False, False])
    assert degenerate
    assert np.allclose(A @ b, [1.0, 2.0, 3.0])


def test_kkt_on_random_problems():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(4, 25))
        p = int(rng.integers(1, min(m, 6) + 1))
        A = rng.normal(size=(m, p))
        y = rng.normal(size=m)
        constrained = rng.random(p) < 0.7
        b, _ = solve_vector(A, y, constrained)
        assert kkt_residual(A, y, b, constrained) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 1))
def test_kkt_property(seed, p, extra):
    rng = np.random.default_rng(seed)
    m = p + 3 + extra
    A = rng.normal(size=(m, p))
    y = rng.normal(size=m)
    constrained = np.array([True] * (p - 1) + [bool(extra)]) if p > 1 else np.array([True])
    b, _ = solve_vector(A, y, constrained)
    assert kkt_residual(A, y, b, constrained) <= 1e-8
    assert all(b[i] >= 0 for i in range(p) if constrained[i])


def _lstsq_calls(monkeypatch):
    calls = [0]
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls[0] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_nnls_chain_fit_recovers_tiny_column(monkeypatch):
    # The C6 `c_o` fit of node 108 in the benchmark's chain variant 2,
    # plan chain12-2: the left selectivity is ~1e-15, so unscaled, the Xl*Xr
    # and Xl columns fall below lstsq's rank cutoff. Scaled, every passive
    # set is well conditioned and the true coefficients come back.
    xl = [0.0, 0.0, 0.0, 0.0, 1.0012928389099477e-15, 2.734375e-15, 4.467457161090054e-15,
          6.200539322180107e-15, 7.933621483270158e-15, 9.666703644360213e-15,
          1.1399785805450263e-14]
    xr = [0.1937425327571933, 0.21299402620575464, 0.23224551965431597, 0.2514970131028773,
          0.2707485065514386, 0.29, 0.3092514934485613, 0.32850298689712265,
          0.34775448034568396, 0.36700597379424527, 0.38625746724280663]
    b_true = (1.5583928027347594e26, 1.1558637744370102e23, 2272.6234889585658, 14.895397562964696)
    A = costfit.design_matrix("C6", [(a, b) for a in xl for b in xr])
    y = A @ np.array(b_true)
    constrained = [True, True, True, False]
    calls = _lstsq_calls(monkeypatch)
    b, degenerate = solve_vector(A, y, constrained)
    assert np.all(np.isfinite(b))
    assert kkt_residual(A, y, b, constrained) <= 1e-8
    assert calls[0] <= 10  # at most 8 passive sets
    assert b[:2] == pytest.approx(b_true[:2], rel=1e-6)
    assert degenerate is False


def test_nnls_narrow_tiny_column_finite(monkeypatch):
    # The same shape with a clipped axis of width ~1e-14 around 2.7e-15,
    # whose unconstrained solution is infeasible: the passive sets are
    # enumerated, and the solve stays finite and optimal.
    axis_l = np.clip(np.linspace(2.734375e-15 - 9e-15, 2.734375e-15 + 9e-15, 11), 0.0, 1.0)
    axis_r = np.linspace(0.29 - 0.096, 0.29 + 0.096, 11)
    A = costfit.design_matrix("C6", [(a, b) for a in axis_l for b in axis_r])
    y = A @ np.array([1.5e26, 1e23, 2000.0, 15.0])
    constrained = [True, True, True, False]
    calls = _lstsq_calls(monkeypatch)
    b, _ = solve_vector(A, y, constrained)
    assert np.all(np.isfinite(b))
    assert kkt_residual(A, y, b, constrained) <= 1e-8
    assert calls[0] <= 10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.lists(st.floats(-15.0, 26.0), min_size=4, max_size=4))
def test_nnls_recovers_planted_coefficients_across_column_scales(seed, p, exponents):
    # Columns scaled by 1e-15 to 1e26, a planted nonnegative b (some entries
    # 0) whose columns contribute comparably to y, and a free constant.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** np.array(exponents[: p - 1] + [0.0])
    A = rng.uniform(0.1, 1.0, size=(2 * p + 5, p)) * scale
    planted = np.where(rng.random(p) < 0.3, 0.0, rng.uniform(0.5, 2.0, size=p))
    planted[-1] = rng.uniform(-1.0, 1.0)
    y = A @ (planted / scale)
    constrained = np.array([True] * (p - 1) + [False])
    b, _ = solve_vector(A, y, constrained)
    assert kkt_residual(A, y, b, constrained) <= 1e-8
    assert b * scale == pytest.approx(planted, rel=1e-8, abs=1e-8)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 4), st.booleans(), st.lists(st.booleans(), max_size=4))
def test_nnls_columns_solved_together_as_alone(seed, p, zero_column, more):
    # An (m, u) solve equals u one-column solves. A column planted with
    # nonnegative coefficients takes the full passive set; one planted with
    # a negative structural coefficient is infeasible there and is
    # enumerated. An all-zero column, as from a selectivity estimated as
    # exactly 0, makes the design rank deficient: every column is flagged.
    rng = np.random.default_rng(seed)
    m = p + 3 + int(rng.integers(0, 6))
    A = rng.normal(size=(m, p))
    if zero_column:
        A[:, 0] = 0.0
    constrained = np.array([True] * (p - 1) + [False])
    columns = []
    for feasible in [True, False] + more:
        b = rng.uniform(0.5, 2.0, size=p)
        if not feasible:
            b[p - 2] = -1.0
        columns.append(A @ b + 0.01 * rng.normal(size=m))
    Y = np.column_stack(columns)
    B, rank = costfit.nnls_solve(A, Y, constrained)
    assert B.shape == (p, Y.shape[1])
    for j, y in enumerate(Y.T):
        b, flag = solve_vector(A, y, constrained)
        assert np.max(np.abs(B[:, j] - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))
        assert flag is bool(rank < p) is zero_column
        assert kkt_residual(A, y, B[:, j], constrained) <= 1e-8
    assert np.linalg.lstsq(A, Y[:, 1], rcond=None)[0][p - 2] < 0.0  # infeasible on the full set


def test_residual_dominance():
    # The constrained fit never beats the unconstrained optimum, and never
    # loses to the clipped unconstrained solution.
    rng = np.random.default_rng(3)
    for _ in range(25):
        A = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        constrained = [True, True, True, False]
        b, _ = solve_vector(A, y, constrained)
        ls, *_ = np.linalg.lstsq(A, y, rcond=None)
        clipped = np.where([True, True, True, False], np.maximum(ls, 0.0), ls)
        r = np.linalg.norm(A @ b - y)
        assert r >= np.linalg.norm(A @ ls - y) - 1e-9
        assert r <= np.linalg.norm(A @ clipped - y) + 1e-9


# ---------------------------------------------------------------------------
# Typed fits


def test_fit_c1_constant():
    cf = fit_points("C1", np.empty((3, 0)), [7.0] * 3)
    assert cf.b == (7.0,)
    assert sum(map(operator.mul, cf.b, monomial_values("C1", ()))) == 7.0


def test_fit_c4_recovery():
    coords = [(x,) for x in np.linspace(0, 1, 11)]
    cf = _fit("C4", coords, lambda x: 3.0 * x * x + 0.5 * x + 7.0)
    assert cf.b == pytest.approx([3.0, 0.5, 7.0], rel=1e-6)
    assert not cf.degenerate


def test_fit_c6_coefficient_mapping():
    # True cost a0*Nl*Nr + a1*Nl with |Rl| = |Rr| = 100 maps to
    # b = (a0*1e4, a1*100, 0, 0) in selectivity space.
    a0, a1 = 0.3, 1.7
    grid, _ = costfit.grid_points([(0.5, 0.02), (0.5, 0.02)], W=10)
    cf = _fit("C6", grid, lambda xl, xr: a0 * (100 * xl) * (100 * xr) + a1 * (100 * xl))
    assert cf.b[0] == pytest.approx(a0 * 1e4, rel=1e-6)
    assert cf.b[1] == pytest.approx(a1 * 100, rel=1e-6)
    assert abs(cf.b[2]) < 1e-6 and abs(cf.b[3]) < 1e-6


@pytest.mark.parametrize("tag", ["C2", "C3", "C4", "C5", "C6"])
def test_noiseless_recovery_all_types(tag):
    rng = np.random.default_rng(hash(tag) % 2**32)
    for rep in range(5):
        p = costfit.NUM_COEFS[tag]
        b_true = list(rng.uniform(0.2, 5.0, size=p))
        b_true[-1] = float(rng.uniform(-3.0, 5.0))  # constant term may be negative
        if ARITY[tag] == 1:
            coords = [(x,) for x in np.linspace(0, 1, 9)]
        else:
            axis = np.linspace(0, 1, 5)
            coords = [(x, y) for x in axis for y in axis]
        cf = fit_points(tag, coords, costfit.design_matrix(tag, coords) @ b_true)
        assert cf.b == pytest.approx(b_true, rel=1e-6, abs=1e-8)


def test_fit_collapsed_grid_degenerates():
    cf = fit_points("C4", [(0.4,)] * 5, [9.0] * 5)
    assert cf.degenerate
    assert cf.b == (0.0, 0.0, 9.0)


def test_fit_zero_column_flagged_degenerate():
    # A join above a sample join that kept no rows: Xl is 0 at every probe,
    # so nothing determines its coefficient. The fit is the Xr-and-constant
    # fit with b[0] = 0, flagged degenerate.
    xr = np.linspace(0.2, 0.8, 11)
    cf = fit_points("C5", [(0.0, x) for x in xr], 3.0 * xr + 2.0)
    assert cf.degenerate is True
    assert cf.b == pytest.approx([0.0, 3.0, 2.0], rel=1e-12, abs=1e-12)
    assert cf.b[1:] == pytest.approx(fit_points("C3", xr[:, None], 3.0 * xr + 2.0).b, rel=1e-12)


@st.composite
def _fit_cases(draw):
    """(family, grid, probe values): axes that are clipped, collapsed (sigma
    0) or zero (mu 0, sigma 0), and true coefficients that may be negative,
    so the unconstrained solution is infeasible; distinct values on an
    axis lie at least about 6e-4 apart."""
    tag = draw(st.sampled_from(["C2", "C3", "C4", "C5", "C6"]))
    dists = [(draw(st.sampled_from([0.0, 1.0]) | st.floats(-0.2, 1.2)),
              draw(st.sampled_from([0.0]) | st.floats(1e-6, 0.3))) for _ in range(ARITY[tag])]
    coords, _ = costfit.grid_points(dists, W=draw(st.integers(1, 10)))
    b = [draw(st.floats(-2.0, 2.0)) for _ in range(costfit.NUM_COEFS[tag])]
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=len(coords))
    return tag, coords, costfit.design_matrix(tag, coords) @ b + draw(st.sampled_from([0.0, 0.1])) * noise


# A collapsed Xr axis (sigma 0, mu != 0) makes the Xr and constant columns
# collinear: a passive set holding both must be solved as rank deficient,
# at the full design's tolerance, not with cancelling ~1e13 coefficients.
_COLLINEAR, _ = costfit.grid_points([(1.0, 0.18940949239117252), (0.3285060835319746, 0.0)], W=9)
# Clipping can put a grid value an ulp from 0 or 1: here 1 - 2**-53 next to
# 1.0, distinct but numerically one value, so the C4 design has rank 2.
_ULP_APART, _ = costfit.grid_points([(1 - 2**-53, 0.3)], W=2)


@settings(max_examples=300, deadline=None)
@given(_fit_cases())
@example(("C5", _COLLINEAR, np.random.default_rng(18).normal(scale=0.1, size=100)))
@example(("C4", _ULP_APART, np.zeros(3)))
def test_fit_contract_on_generated_grids(case):
    # Collapsed: fewer distinct points than coefficients, fitted by the
    # probe mean. Otherwise optimal, and degenerate exactly when the design
    # is rank deficient: per axis, d distinct values span min(d, 2)
    # dimensions of {1, x}, and C4 needs 3 distinct values for x^2. Where
    # two distinct values on an axis lie within 2**-30 of each other (far
    # closer than a grid's spacing: one was clipped to 0 or 1, the other
    # lies an ulp or so away), the rank is the scaled design's numerical
    # rank at the solve's tolerance, eps * max(m, p), instead.
    tag, coords, y = case
    cf = fit_points(tag, coords, y)
    p = costfit.NUM_COEFS[tag]
    axes = [np.unique(coords[:, i]) for i in range(coords.shape[1])]
    distinct = [len(axis) for axis in axes]
    if int(np.prod(distinct)) < p:
        assert cf.degenerate and cf.b == (0.0,) * (p - 1) + (float(np.mean(y)),)
        return
    A = costfit.design_matrix(tag, coords)
    if any(np.any(np.diff(axis) < 2.0**-30) for axis in axes):
        scale = np.linalg.norm(A, axis=0)
        rank = int(np.linalg.lstsq(A / np.where(scale == 0.0, 1.0, scale), y, rcond=None)[2])
    else:
        rank = {"C4": min(distinct[0], 3), "C5": 1 + sum(d > 1 for d in distinct)}.get(
            tag, int(np.prod([min(d, 2) for d in distinct])))
    assert kkt_residual(A, y, cf.b, [True] * (p - 1) + [False]) <= 1e-9
    assert all(v >= 0.0 for v in cf.b[:-1])
    assert cf.degenerate is (rank < p)


def test_non_finite_probe_values_raise_on_every_path():
    nan = float("nan")
    (collapsed, _), (grid, _) = costfit.grid_points([(0.3, 0.0)], 4), costfit.grid_points([(0.3, 0.01)], 4)
    for tag, coords, values in [("C2", collapsed, [1.0, nan, 2.0, 3.0, 4.0]),
                                ("C2", grid, [1.0, nan, 2.0, 3.0, 4.0]),
                                ("C2", grid, np.column_stack(([1.0] * 5, [1.0, 2.0, float("inf"), 3.0, 4.0]))),
                                ("C1", np.empty((1, 0)), [nan])]:
        with pytest.raises(costfit.FitError, match="non-finite probe values"):
            fit_points(tag, coords, values)


def test_cost_function_validation():
    with pytest.raises(costfit.FitError):
        CostFunction(tag="C4", b=(1.0, 2.0))
    cf = CostFunction(tag="C5", b=(1.0, 2.0, 3.0))
    assert sum(map(operator.mul, cf.b, monomial_values(cf.tag, (0.5, 0.25)))) == pytest.approx(0.5 + 0.5 + 3.0)
