"""The executor's counts against SQLite's, on generated relations and plans.

Each case loads generated int64 relations into an in-memory `sqlite3`
database and translates every node of a generated plan to

    SELECT count(*) FROM r1 AS r1_0 CROSS JOIN r2 AS r2_0 ... WHERE ...

over that node's sub-plan: its leaf appearances in left-to-right order
and every selection, join and key atom at or below it. SQLite shares no
code with `plan.execute`, so every count it returns checks the executor
from outside: without provenance, with provenance, twice into one shared
table, and through `selectivity_truth` inside and outside `plan.sharing`.

Two limits:
- Aggregates are skipped. An Aggregate, and every node above one, reports
  the `estimate_M` its document gives, which no query computes.
- Only int64 columns and int constants are used. SQLite's type affinity
  differs from Python's comparisons for floats and strings: an INTEGER
  column stores a float with an integral value as an int, and it compares
  a number with a string by storage class, where the executor raises.
"""

import json
import sqlite3

from hypothesis import example, given, settings, strategies as st

from runtimedist import plan as planmod, store

NAMES = ("r1", "r2", "r3")
COLUMNS = ("k", "j", "v")
SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
# Keys k and j are small, so they repeat and constants tie with them;
# v mostly too, but one draw in four far apart, up to int64's bounds.
_KEYS = st.integers(-2, 2)
_VALUES = _KEYS | _KEYS | _KEYS | st.sampled_from([2**31, -(2**40) - 1, -(2**63), 2**63 - 1])


def _plan_name(app, column):
    """A column as the plan names it: `r1.k`, or `r1#1.k` for a second appearance."""
    rel, ordinal = app
    return f"{rel}.{column}" if ordinal == 0 else f"{rel}#{ordinal}.{column}"


def _literal(value):
    """An int constant in SQL; -2**63 as an expression, since SQLite reads
    the literal 9223372036854775808 before its minus sign as a float."""
    return "(-9223372036854775807 - 1)" if value == -(2**63) else str(value)


def _sql_name(app, column):
    """The same column in SQL, whose alias for appearance (r1, 1) is `r1_1`."""
    return f"{app[0]}_{app[1]}.{column}"


@st.composite
def _cases(draw):
    """(rows per relation, plan document, per node its (leaves, SQL
    conditions)): 10, 6, 3, 1 or no rows a relation; a tree of three, four,
    two or one scans, relations maybe repeated, split into left-deep,
    right-deep or bushy joins of any kind on one key pair, or two, maybe
    with a selection atom of their own (one in three); a scan with at most
    one selection atom; any scan or join maybe under a Sort or
    Materialize. Wide plans, full relations and single keys come first,
    so most cases join rows that hand on multiplicities above 1."""
    row = st.tuples(_KEYS, _KEYS, _VALUES)
    rows = {name: draw(st.lists(row, min_size=size, max_size=size)) for name in NAMES
            for size in [draw(st.sampled_from([10, 6, 3, 1, 0]))]}
    nodes, subplans, seen = [], {}, {}
    atom = st.tuples(st.sampled_from(COLUMNS), st.sampled_from(sorted(SQL_OPS)), _VALUES)

    def add(rec, leaves, conditions):
        rec["id"] = len(nodes) + 1
        nodes.append(rec)
        subplans[rec["id"]] = leaves, conditions
        wrap = draw(st.sampled_from([None, None, "Sort", "Materialize"]))
        if wrap is None:
            return rec["id"]
        return add({"kind": wrap, "children": [rec["id"]]}, leaves, conditions)

    def build(width):
        if width == 1:
            rel = draw(st.sampled_from(NAMES))
            app = (rel, seen.get(rel, 0))
            seen[rel] = app[1] + 1
            atoms = draw(st.lists(atom, max_size=1))
            rec = {"kind": "SeqScan", "relation": rel, "children": [],
                   "predicate": [{"col": col, "op": op, "value": val} for col, op, val in atoms]}
            return add(rec, [app], [f"{_sql_name(app, col)} {SQL_OPS[op]} {_literal(val)}" for col, op, val in atoms])
        split = draw(st.integers(1, width - 1))
        left, right = build(split), build(width - split)
        (lleaves, lconds), (rleaves, rconds) = subplans[left], subplans[right]
        predicate, conditions = [], lconds + rconds
        for _ in range(draw(st.sampled_from([1, 1, 2]))):
            lapp, rapp = draw(st.sampled_from(lleaves)), draw(st.sampled_from(rleaves))
            lcol, rcol = draw(st.sampled_from(COLUMNS)), draw(st.sampled_from(COLUMNS))
            predicate.append({"left": _plan_name(lapp, lcol), "right": _plan_name(rapp, rcol)})
            conditions.append(f"{_sql_name(lapp, lcol)} = {_sql_name(rapp, rcol)}")
        if draw(st.sampled_from([False, False, True])):
            app = draw(st.sampled_from(lleaves + rleaves))
            col, op, val = draw(atom)
            predicate.append({"col": _plan_name(app, col), "op": op, "value": val})
            conditions.append(f"{_sql_name(app, col)} {SQL_OPS[op]} {_literal(val)}")
        rec = {"kind": draw(st.sampled_from(planmod.JOIN_KINDS)), "children": [left, right], "predicate": predicate}
        return add(rec, lleaves + rleaves, conditions)

    root = build(draw(st.sampled_from([3, 4, 2, 1])))
    return rows, {"nodes": nodes, "root": root}, subplans


def _handed_on_case(through):
    """(r1 join r2 on k) join r3 on r2.j = r3.k: the inner join hands on
    r2's rows, its key-0 rows matching r1's two key-0 rows, so they stand
    for two output rows each; `through` puts a Sort between the joins."""
    rows = {"r1": [(0, 0, 0), (0, 0, 1), (1, 1, 0)], "r2": [(0, 5, 0), (0, 6, 0), (1, 5, 0)],
            "r3": [(5, 0, 0), (5, 0, 0), (6, 0, 0)]}
    r1, r2, r3 = ("r1", 0), ("r2", 0), ("r3", 0)
    nodes = [{"id": 1, "kind": "SeqScan", "relation": "r1", "children": []},
             {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
             {"id": 3, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "r1.k", "right": "r2.k"}]},
             {"id": 4, "kind": "Sort", "children": [3]},
             {"id": 5, "kind": "SeqScan", "relation": "r3", "children": []},
             {"id": 6, "kind": "MergeJoin", "children": [4 if through else 3, 5],
              "predicate": [{"left": "r2.j", "right": "r3.k"}]}]
    inner = ["r1_0.k = r2_0.k"]
    subplans = {1: ([r1], []), 2: ([r2], []), 3: ([r1, r2], inner), 4: ([r1, r2], inner), 5: ([r3], []),
                6: ([r1, r2, r3], inner + ["r2_0.j = r3_0.k"])}
    if not through:
        del nodes[3], subplans[4]
    return rows, {"nodes": nodes, "root": 6}, subplans


def _skewed_case():
    """r1 join r2 on k, two scans with 9 of their 10 rows on key 0: the
    join tallies r2's keys and matches r1's rows on them."""
    rows = {"r1": [(0, i, i) for i in range(9)] + [(1, 0, 0)], "r2": [(0, -i, i) for i in range(9)] + [(1, 1, 1)]}
    nodes = [{"id": 1, "kind": "SeqScan", "relation": "r1", "children": []},
             {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
             {"id": 3, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "r1.k", "right": "r2.k"}]}]
    subplans = {1: ([("r1", 0)], []), 2: ([("r2", 0)], []), 3: ([("r1", 0), ("r2", 0)], ["r1_0.k = r2_0.k"])}
    return rows, {"nodes": nodes, "root": 3}, subplans


def _right_deep_case():
    """r1 join (r2 join r3 on k) on r1.j = r3.j: the inner join hands on
    r3's rows, with multiplicities up to 2, and the root, whose left input
    is a scan and right input is not, tallies r1's rows."""
    rows = {"r1": [(0, 0, 0), (1, 0, 0), (2, 1, 0)], "r2": [(0, 0, 0), (0, 1, 0), (1, 0, 0)],
            "r3": [(0, 0, 0), (1, 1, 0), (1, 0, 0)]}
    r1, r2, r3 = ("r1", 0), ("r2", 0), ("r3", 0)
    nodes = [{"id": 1, "kind": "SeqScan", "relation": "r1", "children": []},
             {"id": 2, "kind": "SeqScan", "relation": "r2", "children": []},
             {"id": 3, "kind": "SeqScan", "relation": "r3", "children": []},
             {"id": 4, "kind": "HashJoin", "children": [2, 3], "predicate": [{"left": "r2.k", "right": "r3.k"}]},
             {"id": 5, "kind": "NestLoopJoin", "children": [1, 4], "predicate": [{"left": "r1.j", "right": "r3.j"}]}]
    inner = ["r2_0.k = r3_0.k"]
    subplans = {1: ([r1], []), 2: ([r2], []), 3: ([r3], []), 4: ([r2, r3], inner),
                5: ([r1, r2, r3], inner + ["r1_0.j = r3_0.j"])}
    return rows, {"nodes": nodes, "root": 5}, subplans


def _sqlite_counts(rows, subplans) -> dict[int, int]:
    """Every node's count, from SQLite, over its sub-plan's leaves and conditions."""
    db = sqlite3.connect(":memory:")
    try:
        for name, table in rows.items():
            db.execute(f"CREATE TABLE {name} ({', '.join(f'{c} INTEGER' for c in COLUMNS)})")
            db.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", table)
        counts = {}
        for nid, (leaves, conditions) in subplans.items():
            sources = " CROSS JOIN ".join(f"{rel} AS {rel}_{ordinal}" for rel, ordinal in leaves)
            (counts[nid],), = db.execute(f"SELECT count(*) FROM {sources} WHERE {' AND '.join(conditions) or 1}")
        return counts
    finally:
        db.close()


@settings(max_examples=300, deadline=None)
@given(_cases())
@example(_handed_on_case(through=False))
@example(_handed_on_case(through=True))
@example(_skewed_case())
@example(_right_deep_case())
def test_every_node_counts_as_sqlite_does(case):
    rows, doc, subplans = case
    relations = {name: store.Relation(name, tuple((c, "int64") for c in COLUMNS), tuple(table))
                 for name, table in rows.items()}
    plan = planmod.parse_plan(json.dumps(doc))
    want = _sqlite_counts(rows, subplans)
    bindings = {app: relations[app[0]] for app in plan.index.appearance.values()}

    def counts(results):
        return {nid: res.count for nid, res in results.items()}

    assert counts(planmod.execute(plan, bindings)) == want
    assert counts(planmod.execute(plan, bindings, provenance=True)) == want
    table = {}
    for provenance in (False, False, True, True):
        assert counts(planmod.execute(plan, bindings, provenance=provenance, shared=table)) == want
    if any(not rows[rel] for rel, _ in plan.index.appearance.values()):
        return  # truth refuses an empty relation
    # A selectivity is the count over the leaf product, so SQLite's count
    # divided the same way gives the same float.
    products = planmod.leaf_products(plan, relations)
    want = {nid: count / products[nid] for nid, count in want.items()}
    assert planmod.selectivity_truth(plan, relations) == want
    with planmod.sharing({}):
        assert [planmod.selectivity_truth(plan, relations) for _ in range(2)] == [want] * 2
