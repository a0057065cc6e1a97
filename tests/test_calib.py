"""Cost-unit calibration models."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runtimedist import calib, cli, simeval


def _records(per_unit_values):
    out = []
    for unit, values in per_unit_values.items():
        for v in values:
            out.append(calib.CalibrationRecord(unit=unit, count=1, elapsed_seconds=v))
    return out


def _full(values=(1.0, 2.0)):
    return {u: list(values) for u in calib.COST_UNITS}


def test_solve_unit_examples():
    assert calib.solve_unit_from_record(
        calib.CalibrationRecord("c_t", 1_000_000, 0.5)
    ) == pytest.approx(5e-7)
    assert calib.solve_unit_from_record(
        calib.CalibrationRecord("c_s", 1000, 0.01)
    ) == pytest.approx(1e-5)
    assert calib.solve_unit_from_record(calib.CalibrationRecord("c_o", 10, 0.0)) == 0.0


def test_record_validation():
    with pytest.raises(calib.CalibrationError, match="unknown cost unit"):
        calib.CalibrationRecord("c_x", 1, 0.1)
    with pytest.raises(calib.CalibrationError, match="count"):
        calib.CalibrationRecord("c_t", 0, 0.1)
    # beyond the largest float, and not a number at all: typed errors too
    for elapsed in (-0.1, float("nan"), float("inf"), 10**400, None, "1.0"):
        with pytest.raises(calib.CalibrationError, match="negative or non-finite"):
            calib.CalibrationRecord("c_t", 1, elapsed)


def test_two_point_mean_variance():
    model = calib.fit_cost_units(_records(_full((4.0, 6.0))))
    assert model.mean("c_t") == pytest.approx(5.0)
    assert model.variance("c_t") == pytest.approx(2.0)
    assert model.units["c_t"].observations == 2


def test_constant_observations():
    model = calib.fit_cost_units(_records(_full((3.0, 3.0, 3.0))))
    assert model.mean("c_s") == pytest.approx(3.0)
    assert model.variance("c_s") == 0.0


def test_missing_units_listed():
    values = _full()
    del values["c_i"]
    values["c_o"] = [1.0]
    with pytest.raises(calib.CalibrationError) as exc:
        calib.fit_cost_units(_records(values))
    assert "c_i" in str(exc.value) and "c_o" in str(exc.value)


@pytest.mark.parametrize("values, got", [((1.7e308, 1.7e308), "inf and inf"),
                                         ((1e160, 1e150), "5.0000000005e+159 and inf")],
                         ids=["mean-overflows", "square-overflows"])
def test_overflowing_unit_refused(values, got):
    # The sum of the observations, or one square in the variance, passes
    # the largest float: refused, naming the first such unit.
    with pytest.raises(calib.CalibrationError) as exc:
        calib.fit_cost_units(_records(_full(values)))
    assert str(exc.value) == f"unit c_s: mean and variance must be finite and >= 0, got {got}"


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


_ELAPSED = st.one_of(st.floats(0.0, 100.0), st.just(0.0), st.floats(1e154, 1.7e308))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_ELAPSED, min_size=2, max_size=4), min_size=len(calib.COST_UNITS),
                max_size=len(calib.COST_UNITS)))
def test_calibrate_records_json_or_one_error_line(per_unit):
    # `calibrate --records` either writes a units.json that is JSON, every
    # mean and variance finite and >= 0, or exits 1 with one JSON line.
    rows = [f"{u},1,{v!r}\n" for u, values in zip(calib.COST_UNITS, per_unit) for v in values]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "records.csv"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(["unit,count,elapsed_seconds\n"] + rows)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.dispatch(["calibrate", "--records", path, "--out-dir", out])
        if code == 0:
            with open(os.path.join(out, "units.json"), encoding="utf-8") as fh:
                doc = json.loads(fh.read(), parse_constant=_refuse)
            for u in calib.COST_UNITS:
                model = doc["units"][u]
                assert all(calib.finite_number(x) and x >= 0 for x in (model["mean"], model["variance"]))
        else:
            assert code == 1 and err.getvalue().count("\n") == 1
            assert json.loads(err.getvalue())["error"].startswith("unit c_")


def test_recovers_generator_parameters():
    rng = np.random.default_rng(123)
    values = _full()
    values["c_t"] = list(rng.normal(2.0, 0.2, size=10_000))
    model = calib.fit_cost_units(_records(values))
    assert abs(model.mean("c_t") - 2.0) < 0.01
    assert abs(model.variance("c_t") - 0.04) < 0.004


def test_scale_equivariance():
    base = _records(_full((1.0, 3.0, 4.0)))
    s = 2.5
    scaled = [
        calib.CalibrationRecord(r.unit, r.count, r.elapsed_seconds * s) for r in base
    ]
    a = calib.fit_cost_units(base)
    b = calib.fit_cost_units(scaled)
    for u in calib.COST_UNITS:
        assert b.mean(u) == pytest.approx(s * a.mean(u))
        assert b.variance(u) == pytest.approx(s * s * a.variance(u))


def test_consistency_with_observation_count():
    # Average estimation error shrinks as the observation count grows.
    true_mu, true_var = 2.0, 0.04
    errors = {}
    for k in (100, 1000, 10_000):
        errs = []
        for rep in range(20):
            rng = np.random.default_rng(1000 * k + rep)
            values = _full()
            values["c_t"] = list(rng.normal(true_mu, np.sqrt(true_var), size=k))
            model = calib.fit_cost_units(_records(values))
            errs.append(abs(model.mean("c_t") - true_mu) + abs(model.variance("c_t") - true_var))
        errors[k] = float(np.mean(errs))
    assert errors[10_000] < errors[1000] < errors[100]


def test_metadata_records_independence():
    model = calib.fit_cost_units(_records(_full()))
    assert model.metadata.get("units_independent") is True


def test_csv_roundtrip(tmp_path):
    # `calibrate` writes the world's records; its `--records` parser reads
    # back the same records, every float bit for bit.
    world = simeval.TrueCostWorld.generate(3)
    (tmp_path / "world.json").write_text(world.to_json())
    assert cli.dispatch(["calibrate", "--out-dir", str(tmp_path), "--seed", "5"]) == 0
    again = calib.parse_calibration_csv((tmp_path / "calibration.csv").read_text())
    assert again == world.calibration_records(50, 5)


def test_csv_missing_columns():
    with pytest.raises(calib.CalibrationError, match="columns"):
        calib.parse_calibration_csv("unit,count\nc_t,5\n")


@pytest.mark.parametrize("record, match", [
    ("c_t,1.5,0.1", "line 3: invalid literal for int"),
    ("c_t,5,nan", "line 3: negative or non-finite elapsed time nan"),
    ("c_t,5,-inf", "line 3: negative or non-finite elapsed time -inf"),
    ("c_t,5", "line 3: float() argument must be"),
    ("c_x,5,0.1", "line 3: unknown cost unit 'c_x'"),
    ("c_t,5," + "1" * 200_000, "line 3: field larger than field limit"),
], ids=["float-count", "nan-elapsed", "infinite-elapsed", "short-record", "unknown-unit", "huge-field"])
def test_csv_bad_record_names_its_line(record, match):
    with pytest.raises(calib.CalibrationError, match=re.escape(match)):
        calib.parse_calibration_csv(f"unit,count,elapsed_seconds\nc_t,5,0.1\n{record}\n")
