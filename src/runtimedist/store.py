"""Base relations and seeded pools of sample tables.

A relation is an immutable in-memory table parsed from CSV text; the CLI
reads the file, this module reads none. A text whose columns are all
int64 and whose data hold only digits, minus signs, commas and line ends
(every CSV that `gen-workload` writes) is parsed by one numpy call; any
other text, and any that call refuses, is read by the csv module, which
names a bad line. A sample pool holds, per relation, J independent
sample tables of a common size n. A sample table is itself a Relation,
with its relation's name and schema, that keeps its rows in draw order:
a row's position is its sample index, which downstream provenance
tracking uses to attribute join results to individual draws.
"""

from __future__ import annotations

import csv
import functools
import io
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

COLUMN_TYPES = ("int64", "float64", "string")

_CASTERS = {"int64": int, "float64": float, "string": str}

# The characters an all-int64 text's data may hold to be parsed by numpy.
# With no run of 32 zeros, a cell numpy reads as an int64 has at most 51
# characters (a sign, 31 leading zeros, 19 digits): within `int`'s digit
# limit, and the csv module's field limit unless a caller set it lower.
_INT64_BYTES = b"0123456789-,\r\n"
_ZERO_RUN = "0" * 32
_INT64_CELL_MAX = 51


class IngestError(ValueError):
    """Raised when a schema is malformed or a CSV text does not match its schema."""


class PoolError(IndexError, ValueError):
    """Raised when a plan asks a pool for more sample tables than it holds."""


@dataclass(frozen=True)
class Relation:
    name: str
    schema: tuple[tuple[str, str], ...]
    rows: tuple[tuple, ...]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.schema)

    def column(self, name: str) -> list:
        i = self.column_names.index(name)
        return [row[i] for row in self.rows]


@dataclass
class SamplePool:
    n: int
    pool_size: int
    seed: int
    tables: dict[str, list[Relation]] = field(default_factory=dict)

    def table(self, relation: str, index: int) -> Relation:
        try:
            per_rel = self.tables[relation]
        except KeyError:
            raise PoolError(f"relation {relation!r} not in pool") from None
        if index >= len(per_rel):
            raise PoolError(
                f"pool holds {len(per_rel)} tables for {relation!r}, "
                f"index {index} requested; raise the pool size"
            )
        return per_rel[index]


def validate_schema(schema) -> tuple[tuple[str, str], ...]:
    out = {}
    for col, typ in schema:
        if typ not in COLUMN_TYPES:
            raise IngestError(f"unknown column type {typ!r} for column {col!r}")
        if str(col) in out:
            raise IngestError(f"column {str(col)!r} is declared twice")
        out[str(col)] = typ
    return tuple(out.items())


def _cast(typ, cell):
    """A cell parsed as `typ`; an int64 outside its range is a ValueError."""
    value = _CASTERS[typ](cell)
    if typ == "int64" and not -(2**63) <= value < 2**63:
        raise ValueError(f"int64 value {value} is outside [-2**63, 2**63)")
    return value


def _int64_rows(text: str, names: list[str]) -> tuple[tuple[int, ...], ...] | None:
    """The data rows of an all-int64 text, parsed by one `np.loadtxt` call,
    or None where the csv path must read the text; it reports no error.

    The text must be ASCII, its first line (less a trailing "\\r") the
    column names joined by commas, as the csv module reads it too, and its
    data only `_INT64_BYTES` with no `_ZERO_RUN`. numpy and `int` read such
    cells alike; numpy refuses, with an error or a warning, a bad or
    out-of-range cell, a lone "\\r" line end and a text without a data
    line, and records of another width make an array of that width.
    """
    head, _, body = text.partition("\n")
    head = head.removesuffix("\r")
    if not text.isascii() or head != ",".join(names) or csv.field_size_limit() < _INT64_CELL_MAX:
        return None
    if body.encode("ascii").translate(None, _INT64_BYTES) or _ZERO_RUN in body:
        return None
    try:
        if next(csv.reader([head])) != names:  # a quote, a comma or a "\r" in a name
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except (csv.Error, ValueError, Warning):
        return None
    if array.shape[1] != len(names):
        return None
    return tuple(zip(*(column.tolist() for column in array.T)))


def parse_csv(text: str, name: str, schema) -> Relation:
    """The relation `name` of a headered CSV text under a declared schema.

    The header row must match the schema's column names exactly. Every data
    row must have the schema's arity and every cell must parse as the
    declared type, an int64 one within [-2**63, 2**63); violations, and
    records the csv module cannot read (a field over its size limit),
    raise IngestError naming the first bad line (counted in records, blank
    ones too), not the file: the caller does.
    A text whose columns are all int64 is first offered to `_int64_rows`,
    one numpy parse taken when the text is ASCII, its header line is the
    names joined by commas and its data hold only digits, minus signs,
    commas and line ends; it reports no error, and any text it declines
    goes on to the csv path, which reads and casts one record at a time.
    """
    schema = validate_schema(schema)
    names = [c for c, _ in schema]
    types = [t for _, t in schema]
    if set(types) == {"int64"} and (fast := _int64_rows(text, names)) is not None:
        return Relation(name=name, schema=schema, rows=fast)
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    lineno = 0  # the line of the last record read
    try:
        header = next(reader, None)
        lineno = 1
        if header is None:
            raise IngestError("empty file, header row required")
        if header != names:
            raise IngestError(f"header {header!r} does not match declared columns {names!r}")
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(schema):
                raise IngestError(f"line {lineno}: expected {len(schema)} fields, got {len(raw)}")
            try:
                rows.append(tuple(map(_cast, types, raw)))
            except ValueError as exc:
                raise IngestError(f"line {lineno}: {exc}") from None
    except csv.Error as exc:  # raised reading the record after `lineno`
        raise IngestError(f"line {lineno + 1}: {exc}") from None
    return Relation(name=name, schema=schema, rows=tuple(rows))


def parse_schema_sidecar(text: str) -> tuple[tuple[str, str], ...]:
    """The checked schema of a sidecar's text: one `column,type` line per
    column; blank lines and `#` comments are skipped."""
    schema = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            col, _, typ = line.partition(",")
            schema.append((col.strip(), typ.strip()))
    return validate_schema(schema)


def _table_rng(seed: int, relation: str, table_index: int) -> np.random.Generator:
    # Independent stream per (seed, relation, table_index); crc32 gives a
    # stable name hash across processes (hash() is salted).
    key = zlib.crc32(relation.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, key, table_index]))


def draw_samples(relation: Relation, n: int, pool_size: int, seed: int) -> list[Relation]:
    """Draw J sample tables of n distinct tuples each, without replacement,
    each a Relation whose rows are in draw order.

    Deterministic for a given (seed, relation name, table index).
    """
    if n < 1:
        raise ValueError("sample size n must be positive")
    if n > relation.row_count:
        raise ValueError(
            f"sample size n={n} exceeds |{relation.name}|={relation.row_count}; "
            "lower n (sampling with replacement is not supported)"
        )
    tables = []
    for t in range(pool_size):
        rng = _table_rng(seed, relation.name, t)
        picks = rng.permutation(relation.row_count)[:n]
        rows = tuple(relation.rows[int(i)] for i in picks)
        tables.append(Relation(name=relation.name, schema=relation.schema, rows=rows))
    return tables


def build_pool(relations: dict[str, Relation], n: int, pool_size: int, seed: int) -> SamplePool:
    pool = SamplePool(n=n, pool_size=pool_size, seed=seed)
    for name in sorted(relations):
        pool.tables[name] = draw_samples(relations[name], n, pool_size, seed)
    return pool
