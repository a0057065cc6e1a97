"""Cost-unit calibration: per-unit normal models from repeated observations.

Five cost units are modeled: sequential page read (c_s), random page read
(c_r), per-tuple CPU (c_t), per-index-tuple CPU (c_i), and per-operation
CPU (c_o). Each calibration record divides an observed elapsed time by a
known primitive count; the per-unit sample mean and unbiased sample
variance define the unit's normal model. Units are treated as mutually
independent; that assumption is recorded in the model metadata.
Calibration records travel as CSV text with the columns `CSV_COLUMNS`.
The package's shared input checks are `finite_number`, `checked_int` and `check_unit`.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field

COST_UNITS = ("c_s", "c_r", "c_t", "c_i", "c_o")
CSV_COLUMNS = ("unit", "count", "elapsed_seconds")  # a record's fields, in order


def finite_number(x) -> bool:
    """An int or a float (numpy's float64 too), not a bool, that a float
    holds finitely: not NaN, not infinite, no int beyond the largest float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def checked_int(value, what: str, least: int | None = None, error=ValueError) -> int:
    """`value` if it is an integer, not a bool, of at least `least` (unless
    that is None); else `error` naming it as `what`."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return value


def check_unit(unit: str, mean, variance, error=ValueError) -> None:
    """`error` naming the unit unless its mean and variance are finite numbers >= 0."""
    if not all(finite_number(x) and x >= 0 for x in (mean, variance)):
        raise error(f"unit {unit}: mean and variance must be finite and >= 0, got {mean!r} and {variance!r}")


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class CalibrationRecord:
    unit: str
    count: int
    elapsed_seconds: float

    def __post_init__(self):
        if self.unit not in COST_UNITS:
            raise CalibrationError(f"unknown cost unit {self.unit!r}")
        if self.count <= 0:
            raise CalibrationError("primitive count must be positive")
        if not finite_number(self.elapsed_seconds) or self.elapsed_seconds < 0:
            raise CalibrationError(
                f"negative or non-finite elapsed time {self.elapsed_seconds!r}: "
                "calibration file is broken, refusing to clamp"
            )


@dataclass
class UnitModel:
    mean: float
    variance: float
    observations: int


@dataclass
class CostUnitModel:
    units: dict[str, UnitModel]
    metadata: dict = field(default_factory=lambda: {"units_independent": True})

    def mean(self, unit: str) -> float:
        return self.units[unit].mean

    def variance(self, unit: str) -> float:
        return self.units[unit].variance


def solve_unit_from_record(record: CalibrationRecord) -> float:
    """Observed unit value: elapsed seconds per primitive operation."""
    return record.elapsed_seconds / record.count


def fit_cost_units(records) -> CostUnitModel:
    """Sample mean and unbiased variance per unit over observed values.

    Every unit needs at least two observations (the variance uses the
    count-1 denominator); missing units are reported together. A mean or
    variance beyond the largest float is a CalibrationError naming the unit.
    """
    values: dict[str, list[float]] = {u: [] for u in COST_UNITS}
    for rec in records:
        values[rec.unit].append(solve_unit_from_record(rec))
    short = [u for u in COST_UNITS if len(values[u]) < 2]
    if short:
        raise CalibrationError(
            f"need >= 2 observations per unit; insufficient for: {', '.join(short)}"
        )
    units = {}
    for u in COST_UNITS:
        obs = values[u]
        k = len(obs)
        mean = sum(obs) / k
        try:
            var = sum((v - mean) ** 2 for v in obs) / (k - 1)
        except OverflowError:  # a square beyond the largest float
            var = math.inf
        check_unit(u, mean, var, error=CalibrationError)
        units[u] = UnitModel(mean=mean, variance=var, observations=k)
    return CostUnitModel(units=units)


def parse_calibration_csv(text: str) -> list[CalibrationRecord]:
    """The records of a calibration CSV's text, whose header holds
    `CSV_COLUMNS`; a bad record is a CalibrationError naming its line."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        if not set(CSV_COLUMNS).issubset(reader.fieldnames or ()):
            raise CalibrationError(f"header needs columns {','.join(CSV_COLUMNS)}")
        return [CalibrationRecord(row["unit"], int(row["count"]), float(row["elapsed_seconds"]))
                for row in reader]
    except (csv.Error, ValueError, TypeError) as exc:
        # the csv reader's count: the DictReader's lags a record the csv module refused
        raise CalibrationError(f"line {reader.reader.line_num}: {exc}") from None
