"""Relation ingestion and sample pool behavior."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from runtimedist import store
from conftest import reference_ingest


def _relation(n=10):
    schema = (("a", "int64"),)
    rows = tuple((i,) for i in range(n))
    return store.Relation(name="r", schema=schema, rows=rows)


def test_draw_samples_refuses_a_sample_size_below_one():
    with pytest.raises(ValueError, match="^sample size n must be positive$"):
        store.draw_samples(_relation(), n=0, pool_size=1, seed=0)


# ---------------------------------------------------------------------------
# Ingestion


def test_ingest_basic():
    rel = store.parse_csv("a,b\n1,x\n2,y\n", "r", [("a", "int64"), ("b", "string")])
    assert rel.name == "r"
    assert rel.row_count == 2
    assert rel.rows == ((1, "x"), (2, "y"))
    assert rel.column_names == ("a", "b")


_SCHEMA = [("a", "int64"), ("x", "float64"), ("s", "string")]
# The same column names all int64: the texts it can read take the numpy path.
_INT64_SCHEMA = [("a", "int64"), ("x", "int64"), ("s", "int64")]


def _int_records(count, end="\n"):
    return "".join(f"{i},{-7 * i},{i % 13}{end}" for i in range(count))


def _assert_reads_as_reference(text, schema):
    """`parse_csv` reads `text` as `reference_ingest` does: the same rows
    and element types, returned, or an IngestError of the same text."""
    try:
        want = reference_ingest(text, "r", schema)
    except store.IngestError as exc:
        with pytest.raises(store.IngestError) as got:
            store.parse_csv(text, "r", schema)
        assert str(got.value) == str(exc)
        return None
    got = store.parse_csv(text, "r", schema)
    assert got == want
    assert [tuple(map(type, row)) for row in got.rows] == [tuple(map(type, row)) for row in want.rows]
    return got


# Texts of thousands of records, and bad records around record 256 (line
# 257), pin the line each error names: record n is line n + 1, blank
# records counted.
@pytest.mark.parametrize("text", [
    "a,x,s\n" + "".join(f"{i},{i / 7!r},w{i}\n" for i in range(9000)),  # 9000 records of three types
    "a,x,s\n" + "".join(f"{i},0.5,w\n" for i in range(5000)) + "7,1.5,v\n\n\n8,2.5,\"two\nlines\"\n9,-0.0,z\n",
    "a,x,s\n" + "".join(f"{i},1e3,w\n" for i in range(6000)) + "12x,1.0,w\n" + "5,1.0\n",  # a bad int at line 6002
    # a short record at line 4102 and a bad int after it: the first is named
    "a,x,s\n" + "".join(f"{i},1e3,w\n" for i in range(4100)) + "5,1.0\n" + "12x,1.0,w\n",
    "a,x,s\n1,2.0,w\n2,two,w\n",  # a bad float
    "a,x,s\n1,2.0,w,extra\n",
    "a,x,s\n\n\n" + "\n" * 5000 + "3,4.0,w\n3\n",  # blank records count as lines
    "a,x,s\n",  # a header alone
    "",  # an empty file
    "a,x,s\n1,2.0,w\n\n2,3.0," + "y" * 131073 + "\n3,4.0,w\n",  # a field over the csv module's limit
    "a,x,s\n" + "".join(f"{i},1e3,w\n" for i in range(300)) + "1z,1.0,w\n" + "2,1.0," + "y" * 131073 + "\n",
    "y" * 131073 + "\n1,2.0,w\n",  # in the header
    # int64 cells at and beyond the bounds of the type: the first one out is at line 304
    "a,x,s\n" + "".join(f"{i},1e3,w\n" for i in range(300)) + f"{2**63 - 1},1.0,w\n{-(2**63)},1.0,w\n"
    + "99999999999999999999999,1.0,w\n" + f"{-(2**63) - 1},1.0,w\n",
    f"a,x,s\n1,2.0,w\n{-(2**63) - 1},2.0,w\n",
    # all-int texts as gen-workload writes them, of up to 9000 records
    "a,x,s\n" + _int_records(9000),
    "a,x,s\r\n" + _int_records(700, "\r\n") + f"{2**63 - 1},{-(2**63)},0\r\n",
    "a,x,s\n" + _int_records(255) + "1z,2,3\n" + _int_records(300),  # a bad record as record 256, line 257
    "a,x,s\n" + _int_records(256) + "1z,2,3\n" + _int_records(300),  # a bad record as record 257, line 258
    "a,x,s\n" + _int_records(256) + "1,2\n" + _int_records(300),  # a short record as record 257
    # a `csv.Error` on record 257, line 258, before a bad int
    "a,x,s\n" + _int_records(256) + "1,2," + "9" * 131073 + "\n" + "1z,2,3\n",
])
def test_ingest_matches_record_by_record_reference(text):
    for schema in (_SCHEMA, _INT64_SCHEMA):
        _assert_reads_as_reference(text, schema)


# What a text may mix in that `gen-workload` never writes. A text draws a
# set of these and applies each to about half the places it can.
_MESS = ["bounds", "zeros", "signs", "separators", "padding", "quotes", "NUL", "odd cells", "blank lines",
         "whitespace lines", "trailing commas", "widths", "line ends", "names", "quoted header"]
# Column names the csv module reads otherwise from a header line, or refuses.
_ODD_NAMES = ['"c{}"', 'c{}"', "c{},x", "c{}\r", "c{}\x00", " c{}", "c{}" + "y" * 131073]
_INT64_EDGES = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30]
# Padding: `int` strips the first four and not "\x1c", which numpy strips.
_PADS = [" ", "\t", "\x0b", "\x0c", "\x1c"]


@st.composite
def _int64_texts(draw):
    """(schema, text, mess): an all-int64 schema of 1-4 columns and a text
    for it; a text without mess is as `gen-workload` writes it."""
    width = draw(st.integers(1, 4))
    mess = draw(st.sets(st.sampled_from(_MESS)))

    def maybe(kind):
        return kind in mess and draw(st.booleans())

    names = [draw(st.sampled_from(_ODD_NAMES)).format(i) if maybe("names") else f"c{i}" for i in range(width)]

    def cell():
        value = draw(st.sampled_from(_INT64_EDGES) if maybe("bounds") else st.integers(-(2**63), 2**63 - 1))
        digits = str(abs(value))
        if maybe("zeros"):  # 32 zeros and more decline the numpy path; over 4300 digits `int` refuses
            digits = "0" * draw(st.sampled_from([1, 31, 32, 4300])) + digits
        if maybe("separators") and len(digits) > 1:  # `int` reads "1_000"
            cut = draw(st.integers(1, len(digits) - 1))
            digits = digits[:cut] + "_" + digits[cut:]
        text = ("-" if value < 0 else "+" if maybe("signs") else "") + digits
        if maybe("padding"):
            text = draw(st.sampled_from(["", *_PADS])) + text + draw(st.sampled_from(["", *_PADS]))
        if maybe("quotes"):
            text = f'"{text}"'
        if maybe("NUL"):
            text = draw(st.sampled_from(["\x00", text + "\x00"]))
        if maybe("odd cells"):
            text = draw(st.sampled_from(["", "1.0", "1e3", "0x10", "#1"]))
        return text

    # "widths" writes some records, or all, one cell short or long
    shift, every = (draw(st.sampled_from([-1, 1])), draw(st.booleans())) if "widths" in mess else (0, False)

    def line():
        if maybe("blank lines"):
            return ""
        if maybe("whitespace lines"):
            return draw(st.sampled_from(_PADS))
        cells = [cell() for _ in range(width)]
        if shift and (every or draw(st.booleans())):
            cells = cells[:-1] if shift < 0 else cells + ["7"]
        return ",".join(cells) + ("," if maybe("trailing commas") else "")

    end = draw(st.sampled_from(["\n", "\r\n"]))

    def line_end():
        return draw(st.sampled_from(["\n", "\r\n", "\r", ""])) if maybe("line ends") else end

    header = [f'"{n}"' if maybe("quoted header") else n for n in names]  # the csv module reads '"c0"' as 'c0'
    text = ",".join(header) + line_end()
    for _ in range(draw(st.integers(1, 12))):
        text += line() + line_end()
    return [(c, "int64") for c in names], text, mess


@settings(max_examples=300, deadline=None)
@given(_int64_texts())
@example((_INT64_SCHEMA, "a,x,s\n" + "\x1c1,2,3\n", {"padding"}))  # padding that `int` refuses
@example((_INT64_SCHEMA, "a,x,s\n" + "0" * 4300 + "1,2,3\n", {"zeros"}))  # over `int`'s digit limit
@example((_INT64_SCHEMA, "a,x,s\r1,2,3\r", {"line ends"}))  # lone "\r" line ends
@example((_INT64_SCHEMA, "a,x,s\n1,2,3\r4,5,6\n", {"line ends"}))
@example((_INT64_SCHEMA, "a,x,s\n1,2\n3,4\n", {"widths"}))  # every record short
@example(([("c0,x", "int64")], "c0,x\n1\n", {"names"}))  # a header the csv module reads as two names
def test_int64_ingest_matches_reference(case):
    schema, text, mess = case
    got = _assert_reads_as_reference(text, schema)
    if not mess:  # a text as gen-workload writes it takes the numpy path
        assert store._int64_rows(text, [c for c, _ in schema]) == got.rows


def test_csv_module_error_is_an_ingest_error_at_its_line():
    # A field over the csv module's limit (131072 characters) is a
    # `csv.Error`, which is not a ValueError.
    with pytest.raises(store.IngestError, match=r"^line 2: field larger than field limit"):
        store.parse_csv("a\n" + "y" * 131073 + "\n", "r", [("a", "string")])
    # A bad cell on an earlier record is reported first.
    with pytest.raises(store.IngestError, match=r"^line 3: invalid literal for int"):
        store.parse_csv("a,s\n1,w\nzz,w\n2," + "y" * 131073 + "\n", "r", [("a", "int64"), ("s", "string")])


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


def test_ingest_empty_data():
    rel = store.parse_csv("a,b\n", "r", [("a", "int64"), ("b", "string")])
    assert rel.row_count == 0


def test_ingest_arity_error_names_line():
    with pytest.raises(store.IngestError, match="line 2"):
        store.parse_csv("a,b\n1\n", "r", [("a", "int64"), ("b", "string")])


def test_ingest_type_error():
    with pytest.raises(store.IngestError, match="line 2"):
        store.parse_csv("a\nnot_an_int\n", "r", [("a", "int64")])


def test_ingest_header_mismatch():
    with pytest.raises(store.IngestError, match="header"):
        store.parse_csv("wrong\n1\n", "r", [("a", "int64")])


def test_ingest_line_ends_as_written():
    # CRLF and CR files read as LF ones; a quoted field keeps its line end.
    schema = [("a", "int64"), ("s", "string")]
    want = store.parse_csv('a,s\n1,x\n2,"y\nz"\n', "r", schema)
    assert store.parse_csv('a,s\r\n1,x\r\n2,"y\nz"\r\n', "r", schema) == want
    assert store.parse_csv('a,s\r1,x\r2,"y\nz"\r', "r", schema) == want
    assert store.parse_csv('a,s\n1,x\n2,"y\r\nz"\n', "r", schema).rows[1] == (2, "y\r\nz")


def test_ingest_unknown_type():
    with pytest.raises(store.IngestError, match="unknown column type"):
        store.validate_schema([("a", "int32")])


def test_column_declared_twice_refused():
    # Two columns of one name would make a plan's reference to it ambiguous.
    with pytest.raises(store.IngestError, match="^column 'a' is declared twice$"):
        store.validate_schema([("a", "int64"), ("b", "string"), ("a", "int64")])
    with pytest.raises(store.IngestError, match="^column 'a' is declared twice$"):
        store.parse_schema_sidecar("a,int64\na,int64\n")


def test_schema_sidecar_roundtrip():
    assert store.parse_schema_sidecar("# comment\na,int64\r\n\nb , string\n") == (("a", "int64"), ("b", "string"))
    assert store.parse_schema_sidecar("a,int64\rb,string\r") == (("a", "int64"), ("b", "string"))
    with pytest.raises(store.IngestError, match="unknown column type 'int32' for column 'a'"):
        store.parse_schema_sidecar("a,int32\n")


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
    with pytest.raises(store.PoolError, match="'missing' not in pool"):
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
