"""Base relations and seeded pools of sample tables.

A relation is an immutable in-memory table loaded from CSV. A sample pool
holds, per relation, J independent sample tables of a common size n. A
sample table is itself a Relation, with its relation's name and schema,
that keeps its rows in draw order: a row's position is its sample index,
which downstream provenance tracking uses to attribute join results to
individual draws.
"""

from __future__ import annotations

import csv
import functools
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

COLUMN_TYPES = ("int64", "float64", "string")

_CASTERS = {"int64": int, "float64": float, "string": str}


class IngestError(ValueError):
    """Raised when a CSV file does not match its declared schema."""


class PoolError(IndexError):
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
            raise KeyError(f"relation {relation!r} not in pool") from None
        if index >= len(per_rel):
            raise PoolError(
                f"pool holds {len(per_rel)} tables for {relation!r}, "
                f"index {index} requested; raise the pool size"
            )
        return per_rel[index]


def validate_schema(schema) -> tuple[tuple[str, str], ...]:
    out = []
    for col, typ in schema:
        if typ not in COLUMN_TYPES:
            raise IngestError(f"unknown column type {typ!r} for column {col!r}")
        out.append((str(col), typ))
    return tuple(out)


def ingest_csv(path, schema) -> Relation:
    """Load a headered CSV file into a Relation under a declared schema.

    The header row must match the schema's column names exactly. Every data
    row must have the schema's arity and every cell must parse as the
    declared type; violations raise IngestError naming the line number.
    """
    schema = validate_schema(schema)
    names = [c for c, _ in schema]
    casters = [_CASTERS[t] for _, t in schema]
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header row required") from None
        if header != names:
            raise IngestError(
                f"{path}: header {header!r} does not match declared columns {names!r}"
            )
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(schema):
                raise IngestError(
                    f"{path}: line {lineno}: expected {len(schema)} fields, got {len(raw)}"
                )
            try:
                rows.append(tuple(cast(cell) for cast, cell in zip(casters, raw)))
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from None
    name = os.path.splitext(os.path.basename(path))[0]
    return Relation(name=name, schema=schema, rows=tuple(rows))


def read_schema_sidecar(path) -> list[tuple[str, str]]:
    """Read a schema sidecar file: one `column,type` line per column."""
    schema = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            col, _, typ = line.partition(",")
            schema.append((col.strip(), typ.strip()))
    return schema


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
