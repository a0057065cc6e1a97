"""Relation ingestion and sample pool behavior."""

import dataclasses

import numpy as np
import pytest

from runtimedist import store


def _relation(n=10):
    schema = (("a", "int64"),)
    rows = tuple((i,) for i in range(n))
    return store.Relation(name="r", schema=schema, rows=rows)


# ---------------------------------------------------------------------------
# Ingestion


def test_ingest_basic(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n1,x\n2,y\n")
    rel = store.ingest_csv(path, [("a", "int64"), ("b", "string")])
    assert rel.row_count == 2
    assert rel.rows == ((1, "x"), (2, "y"))
    assert rel.column_names == ("a", "b")


def test_column_names_computed_once():
    rel = store.Relation("r", (("a", "int64"), ("b", "string")), ((1, "x"), (2, "y")))
    names = rel.column_names
    assert names == ("a", "b") and rel.column_names is names
    assert rel.column("b") == ["x", "y"]
    # The cached names take no part in equality, and a copy reads its own.
    assert rel == store.Relation("r", rel.schema, rel.rows)
    empty = dataclasses.replace(rel, rows=())
    assert empty.column_names == names and empty.column("a") == [] and empty.row_count == 0
    assert empty == store.Relation("r", rel.schema, ()) and empty != rel
    renamed = dataclasses.replace(rel, schema=(("c", "int64"), ("d", "string")))
    assert renamed.column_names == ("c", "d") and renamed.column("d") == ["x", "y"]


def test_ingest_empty_data(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n")
    rel = store.ingest_csv(path, [("a", "int64"), ("b", "string")])
    assert rel.row_count == 0


def test_ingest_arity_error_names_line(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n1\n")
    with pytest.raises(store.IngestError, match="line 2"):
        store.ingest_csv(path, [("a", "int64"), ("b", "string")])


def test_ingest_type_error(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a\nnot_an_int\n")
    with pytest.raises(store.IngestError, match="line 2"):
        store.ingest_csv(path, [("a", "int64")])


def test_ingest_header_mismatch(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("wrong\n1\n")
    with pytest.raises(store.IngestError, match="header"):
        store.ingest_csv(path, [("a", "int64")])


def test_ingest_unknown_type():
    with pytest.raises(store.IngestError, match="unknown column type"):
        store.validate_schema([("a", "int32")])


def test_schema_sidecar_roundtrip(tmp_path):
    path = tmp_path / "r.schema"
    path.write_text("# comment\na,int64\nb,string\n")
    assert store.read_schema_sidecar(path) == [("a", "int64"), ("b", "string")]


# ---------------------------------------------------------------------------
# Sampling


def test_exhaustive_sample_is_permutation():
    rel = _relation(10)
    (table,) = store.draw_samples(rel, n=10, pool_size=1, seed=7)
    assert sorted(table.rows) == sorted(rel.rows)


def test_determinism():
    rel = _relation(10)
    a = store.draw_samples(rel, n=5, pool_size=3, seed=11)
    b = store.draw_samples(rel, n=5, pool_size=3, seed=11)
    assert a == b


def test_different_seed_differs():
    rel = _relation(50)
    a = store.draw_samples(rel, n=10, pool_size=1, seed=1)
    b = store.draw_samples(rel, n=10, pool_size=1, seed=2)
    assert a != b


def test_samples_are_distinct_rows():
    rel = _relation(10)
    for table in store.draw_samples(rel, n=6, pool_size=4, seed=3):
        drawn = list(table.rows)
        assert len(set(drawn)) == len(drawn)


def test_undersized_relation_rejected():
    rel = _relation(4)
    with pytest.raises(ValueError, match="exceeds"):
        store.draw_samples(rel, n=5, pool_size=1, seed=0)


def test_pool_index_out_of_range():
    rel = _relation(10)
    pool = store.build_pool({"r": rel}, n=3, pool_size=2, seed=0)
    assert pool.table("r", 1) == store.draw_samples(rel, n=3, pool_size=2, seed=0)[1]
    with pytest.raises(IndexError, match="pool size"):
        pool.table("r", 2)
    with pytest.raises(KeyError):
        pool.table("missing", 0)


def test_uniform_inclusion_frequency():
    # Each base row should land in a size-n sample with probability n/|R|.
    rel = _relation(10)
    n, trials = 3, 4000
    hits = 0
    for seed in range(trials):
        (table,) = store.draw_samples(rel, n=n, pool_size=1, seed=seed)
        hits += any(r == (0,) for r in table.rows)
    p = n / 10
    se = np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * se


def test_stream_uniformity_chi_square():
    # Per-row draw counts within one table stream are uniform: chi-square
    # over 2000 seeded draws of n=5 from 10 rows (df=9; 27.9 is the 0.1%
    # critical value).
    rel = _relation(10)
    for table_index in (0, 1):
        counts = np.zeros(10)
        for seed in range(2000):
            tables = store.draw_samples(rel, n=5, pool_size=table_index + 1, seed=seed)
            for row in tables[table_index].rows:
                counts[row[0]] += 1
        expected = 2000 * 5 / 10
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 27.9


def test_tables_within_pool_differ():
    rel = _relation(50)
    tables = store.draw_samples(rel, n=10, pool_size=2, seed=5)
    assert list(tables[0].rows) != list(tables[1].rows)
