"""Plan parsing, validation, execution, and provenance."""

import gc
import itertools
import json
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from runtimedist import plan as planmod, selest, store
from runtimedist.calib import COST_UNITS
from runtimedist.costfit import FAMILIES
from conftest import (
    assert_stored_as_fresh,
    brute_membership,
    make_tiny_relations,
    s2_enumeration,
    snm_enumeration,
    tiny_instance,
)


def _rel(name, cols, rows):
    schema = tuple((c, "int64") for c in cols)
    return store.Relation(name=name, schema=schema, rows=tuple(tuple(r) for r in rows))


def _parse(doc):
    return planmod.parse_plan(json.dumps(doc))


def _root_rows(plan, bindings):
    """Execute a plan with provenance and rebuild its root's rows from the
    provenance list of the root's selectivity variable: (results, rows,
    positions), in the order the rows are produced."""
    root_var = plan.index.var[plan.root]
    results = planmod.execute(plan, bindings, provenance=True)
    positions = results[root_var].provenance
    tables = [bindings[app].rows for app in plan.index.leaves[root_var]]
    rows = [sum((t[j] for t, j in zip(tables, prov)), ()) for prov in positions]
    return results, rows, positions


def _scan(nid, rel, pred=None):
    doc = {"id": nid, "kind": "SeqScan", "relation": rel, "children": []}
    if pred:
        doc["predicate"] = pred
    return doc


FIG1 = {
    "nodes": [
        _scan(1, "R1"),
        _scan(2, "R2"),
        _scan(3, "R3"),
        {"id": 4, "kind": "HashJoin", "children": [1, 2],
         "predicate": [{"left": "k1", "right": "k2"}]},
        {"id": 5, "kind": "HashJoin", "children": [4, 3],
         "predicate": [{"left": "k2", "right": "k3"}]},
    ],
    "root": 5,
}


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_single_scan():
    p = _parse({"nodes": [_scan(1, "R", [{"col": "a", "op": "<", "value": 5}])], "root": 1})
    assert len(p.nodes) == 1
    assert p.nodes[1].selections == (("a", "<", 5),)
    assert p.nodes[1].join_columns == ((), ())


def test_parse_five_node_tree():
    p = _parse(FIG1)
    assert len(p.nodes) == 5
    assert p.root == 5
    assert planmod.leaf_tables(p, 1) == [("R1", 0)]
    assert planmod.leaf_tables(p, 5) == [("R1", 0), ("R2", 0), ("R3", 0)]
    assert planmod.leaf_tables(p, 4) == [("R1", 0), ("R2", 0)]


def test_self_join_appearance_ordinals():
    doc = {
        "nodes": [
            _scan(1, "R"),
            _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "a", "right": "a"}]},
        ],
        "root": 3,
    }
    p = _parse(doc)
    assert planmod.leaf_tables(p, 3) == [("R", 0), ("R", 1)]


# A generated tree: a relation name (a scan), (unary kind, child) or
# (join kind, left, right).
_trees = st.recursive(
    st.sampled_from(["R", "S", "T"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["Sort", "Materialize", "Aggregate"]), sub),
        st.tuples(st.sampled_from(["HashJoin", "NestLoopJoin"]), sub, sub),
    ),
    max_leaves=8,
)


def _tree_doc(tree):
    """Plan document for a generated tree, ids given in preorder from 10
    in steps of 7, with the tree node of each id."""
    nodes, by_id = [], {}

    def add(t):
        nid = 10 + 7 * len(by_id)
        by_id[nid] = t
        rec = {"id": nid, "estimate_M": 1}
        nodes.append(rec)
        if isinstance(t, str):
            rec.update(kind="SeqScan", relation=t, children=[])
        else:
            rec.update(kind=t[0], children=[add(c) for c in t[1:]])
        return nid

    root = add(tree)
    return {"nodes": nodes, "root": root}, by_id


def _brute_leaves(t):
    return [t] if isinstance(t, str) else [r for c in t[1:] for r in _brute_leaves(c)]


def _brute_has_aggregate(t):
    return not isinstance(t, str) and (t[0] == "Aggregate" or any(map(_brute_has_aggregate, t[1:])))


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_plan_index_matches_brute_force(tree):
    doc, by_id = _tree_doc(tree)
    p = _parse(doc)
    index = p.index
    # The whole plan's leaves, left to right, number each relation's uses.
    seen: dict = {}
    ordinals = []
    for rel in _brute_leaves(tree):
        ordinals.append((rel, seen.get(rel, 0)))
        seen[rel] = seen.get(rel, 0) + 1
    assert list(index.leaves[p.root]) == ordinals
    assert planmod.leaf_tables(p) == ordinals
    scans = [nid for nid in sorted(by_id) if isinstance(by_id[nid], str)]
    assert [index.appearance[nid] for nid in scans] == ordinals  # preorder = leaf order
    children = {rec["id"]: rec["children"] for rec in doc["nodes"]}

    def subtree(nid):
        yield nid
        for c in children[nid]:
            yield from subtree(c)

    def variable(nid):  # down through Sort/Materialize with no aggregate at or below
        t = by_id[nid]
        if isinstance(t, str) or t[0] not in ("Sort", "Materialize") or _brute_has_aggregate(t):
            return nid
        return variable(children[nid][0])

    for nid, t in by_id.items():
        below = set(subtree(nid))
        assert list(index.leaves[nid]) == [o for s, o in zip(scans, ordinals) if s in below]
        assert (nid in index.agg_above) == _brute_has_aggregate(t)
        assert index.var[nid] == variable(nid)
    for (nid, unit), (tag, vars_) in index.terms.items():
        roles = {"own": variable(nid), **dict(zip(("left", "right"), map(variable, children[nid])))}
        assert vars_ == tuple(roles.get(r) for r in FAMILIES[tag][0])  # a scan's left: None
    # Post-order: every node after its children, the root last.
    pos = {nid: i for i, nid in enumerate(index.order)}
    assert sorted(pos) == sorted(by_id) and index.order[-1] == p.root
    assert all(pos[c] < pos[n.id] for n in p.nodes.values() for c in n.children)


def test_plan_and_results_leave_no_reference_cycle():
    # A plan, its index and an execution's results are freed by reference
    # counting alone once dropped, and so is a result that carries a tally
    # and a hash table: a join that counts per key and one that builds
    # pairs, sharing one table, build both on one scan result.
    l = _rel("L", ["k", "a"], [(i % 7, i) for i in range(300)])
    r = _rel("R", ["k", "b"], [(i % 7, i) for i in range(300)])
    doc = {
        "nodes": [
            _scan(1, "L"), _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "k", "right": "k"}]},
            {"id": 4, "kind": "Sort", "children": [3]},
        ],
        "root": 4,
    }
    gc.collect()
    gc.disable()
    try:
        p = _parse(doc)
        results, rows, _ = _root_rows(p, {("L", 0): l, ("R", 0): r})
        assert results[4].count == results[3].count == len(rows) > 0
        refs = [weakref.ref(obj) for obj in (p, results[4], results[1])]
        del p, results, rows
        assert [ref() for ref in refs] == [None, None, None]
        counting = _parse({"nodes": doc["nodes"][:3], "root": 3})
        doc["nodes"][2]["predicate"].append({"col": "a", "op": ">=", "value": 0})
        pairing = _parse({"nodes": doc["nodes"][:3], "root": 3})
        table, bindings = {}, {("L", 0): l, ("R", 0): r}
        scan = planmod.execute(counting, bindings, shared=table)[1]
        assert planmod.execute(pairing, bindings, shared=table)[1] is scan
        assert sorted(tag for tag, _ in scan.derived) == ["hash", "tally"]
        refs = [weakref.ref(obj) for obj in (scan, scan.derived["tally", (0,)])]
        del counting, pairing, table, scan
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_shared_scans_give_a_fresh_execution_results(monkeypatch):
    # One table bound to both appearances of a self-join: the two scans
    # read one table with one selection under two schemas, so they are two
    # entries, and the join's hash table over the left scan's result lives
    # on that result. A second execution hits both and returns the stored
    # results themselves, hash table included. An execution without
    # provenance is keyed apart, and its join counts per key, hashing
    # nothing: the two scans' tallies live on their results, and a second
    # such execution builds none. A plan that passes the left scan through
    # a Materialize hits its hash table too.
    hash_rows, hashed = planmod._hash_rows, []
    monkeypatch.setattr(planmod, "_hash_rows", lambda rows, lpos: hashed.append(rows) or hash_rows(rows, lpos))
    tally, tallied = planmod._tally, []
    monkeypatch.setattr(planmod, "_tally", lambda rows, *args: tallied.append(rows) or tally(rows, *args))
    t = _rel("T", ["k", "a"], [(i % 5, i) for i in range(40)])
    doc = {
        "nodes": [
            _scan(1, "T", [{"col": "a", "op": "<", "value": 30}]),
            _scan(2, "T", [{"col": "a", "op": "<", "value": 30}]),
            {"id": 3, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "k", "right": "k"}]},
        ],
        "root": 3,
    }
    p = _parse(doc)
    bindings = {("T", 0): t, ("T", 1): t}
    fresh = planmod.execute(p, bindings, provenance=True)
    shared = {}
    first = planmod.execute(p, bindings, provenance=True, shared=shared)
    assert first == fresh and len(shared) == 2
    assert first[1].derived == {("hash", (0,)): {k: list(range(k, 30, 5)) for k in range(5)}}
    assert first[2].derived is None and len(hashed) == 2
    again = planmod.execute(p, bindings, provenance=True, shared=shared)
    assert again == fresh and len(shared) == 2 and len(hashed) == 2
    assert again[1] is first[1] and again[2] is first[2] and again[3] is not first[3]
    counted = planmod.execute(p, bindings, shared=shared)
    assert counted == planmod.execute(p, bindings) and counted[3].count == 5 * 6 * 6
    assert len(shared) == 4 and len(hashed) == 2 and len(tallied) == 4
    for scan in (1, 2):
        assert counted[scan].derived == {("tally", (0,)): Counter(dict.fromkeys(range(5), 6))}
    tallied.clear()
    again = planmod.execute(p, bindings, shared=shared)
    assert again == counted and again[1] is counted[1] and len(shared) == 4 and tallied == []
    through = {"nodes": doc["nodes"][:2] + [
        {"id": 3, "kind": "Materialize", "children": [1]},
        {"id": 4, "kind": "HashJoin", "children": [3, 2], "predicate": [{"left": "k", "right": "k"}]},
    ], "root": 4}
    assert planmod.execute(_parse(through), bindings, provenance=True, shared=shared)[4] == fresh[3]
    assert len(shared) == 4 and len(hashed) == 2
    # A plan that fails at its root join has stored its scans and the join
    # its root reads as it built them, each what its good twin's fresh
    # execution builds there; the scan's hash table lives on its result.
    # The twin then hits every entry, and hashes only the join's result.
    doc["nodes"][0]["predicate"][0]["value"] = doc["nodes"][1]["predicate"][0]["value"] = 20

    def deeper(right):
        return _parse({"nodes": doc["nodes"] + [
            _scan(4, "T"), {"id": 5, "kind": "HashJoin", "children": [3, 4], "predicate": [{"left": "T.k", "right": right}]},
        ], "root": 5})

    bindings[("T", 2)] = t
    before = set(shared)
    with pytest.raises(planmod.ExecutionError, match="'zz'"):
        planmod.execute(deeper("zz"), bindings, provenance=True, shared=shared)
    assert len(hashed) == 3 and len(shared) == 8
    good = deeper("T#2.k")
    want = planmod.execute(good, bindings, provenance=True)
    assert assert_stored_as_fresh(shared, before, good, bindings, True) == 4
    del hashed[3:]
    got = planmod.execute(good, bindings, provenance=True, shared=shared)
    assert got == want and repr(got) == repr(want) and len(shared) == 8 and len(hashed) == 4
    # A root join is never stored: failing there, the plan stores nothing new.
    doc["nodes"][2]["predicate"][0]["right"] = "zz"
    with pytest.raises(planmod.ExecutionError, match="'zz'"):
        planmod.execute(_parse(doc), bindings, provenance=True, shared=shared)
    assert len(shared) == 8
    # Without provenance: the left join hands on T#1's rows after tallying
    # T's, then the right join fails on its residual atom's constant. The
    # scans and the left join are stored, the tally lives on T's result,
    # and the good twin hits them all: it tallies only the left join's
    # result, for its root, and stores the right join.
    def bushy(constant):
        return _parse({"nodes": doc["nodes"][:2] + [
            {"id": 3, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "T.k", "right": "T#1.k"}]},
            _scan(4, "T"), _scan(5, "T"),
            {"id": 6, "kind": "HashJoin", "children": [4, 5],
             "predicate": [{"left": "T#2.k", "right": "T#3.k"}, {"col": "T#2.a", "op": "<", "value": constant}]},
            {"id": 7, "kind": "HashJoin", "children": [3, 6], "predicate": [{"left": "T#1.k", "right": "T#2.k"}]},
        ], "root": 7})

    bindings[("T", 3)] = t
    tallied.clear()
    before = set(shared)
    with pytest.raises(planmod.ExecutionError, match="constant 'x' cannot be compared"):
        planmod.execute(bushy("x"), bindings, shared=shared)
    assert len(tallied) == 1 and len(shared) == 8 + 5
    good = bushy(10)
    want = planmod.execute(good, bindings)
    assert assert_stored_as_fresh(shared, before, good, bindings, False) == 5
    tallied.clear()
    got = planmod.execute(good, bindings, shared=shared)
    assert got == want and repr(got) == repr(want) and len(shared) == 8 + 5 + 1
    assert len(tallied) == 1 and tallied[0] is got[3].rows


_columns = st.text("abk.#1", min_size=1, max_size=4)


@st.composite
def _plan_docs(draw):
    """A generated tree's document with selection atoms under every
    comparator on every node but a Sort or Materialize that outputs its
    child's rows, join atoms on its joins, estimate_M wherever it is
    required and on some other nodes, and cost-profile overrides."""
    doc, by_id = _tree_doc(draw(_trees))
    selection = st.fixed_dictionaries({
        "col": _columns, "op": st.sampled_from(sorted(planmod.CMP_OPS)),
        "value": st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    })
    join = st.fixed_dictionaries({"left": _columns, "right": _columns})
    for rec in doc["nodes"]:
        is_join = rec["kind"] in planmod.JOIN_KINDS
        required = _brute_has_aggregate(by_id[rec["id"]])
        passes = rec["kind"] in ("Sort", "Materialize") and not required
        atoms = [] if passes else draw(st.lists(selection, max_size=3))
        if is_join:
            atoms += draw(st.lists(join, min_size=1, max_size=2))
        rec["predicate"] = draw(st.permutations(atoms))
        m = draw(st.integers(0, 10**6) | (st.nothing() if required else st.none()))
        if m is None:
            del rec["estimate_M"]
        else:
            rec["estimate_M"] = m
        tags = sorted(t for t, (inputs, _) in FAMILIES.items() if is_join or len(inputs) < 2)
        rec["cost_profile"] = draw(st.dictionaries(st.sampled_from(COST_UNITS), st.sampled_from(tags), max_size=3))
    return doc


@settings(max_examples=100, deadline=None)
@given(_plan_docs())
@example(FIG1)
@example({"nodes": [_scan(1, "R"), {"id": 2, "kind": "Sort", "children": [1],
                                   "cost_profile": {"c_s": "C3", "c_i": "C2"}}], "root": 2})
def test_roundtrip_serialization(doc):
    p = _parse(doc)
    text = planmod.serialize_plan(p)
    again = planmod.parse_plan(text)
    assert again.root == p.root
    assert again.nodes == p.nodes
    assert list(again.index.terms) == list(p.index.terms)  # the order predictions sum in
    assert planmod.serialize_plan(again) == text
    # One node record per line, in post-order, between the opening and closing lines.
    lines = text.split("\n")
    assert len(lines) == len(p.nodes) + 2
    assert lines[0] == '{"nodes": [' and lines[-1] == f'], "root": {p.root}}}'
    records = [json.loads(line.removeprefix("  ").removesuffix(",")) for line in lines[1:-1]]
    assert [rec["id"] for rec in records] == list(p.index.order)
    assert records == json.loads(text)["nodes"]


# JSON values of every type, the comparator as a list included.
_json_values = st.sampled_from([None, True, False, 0, -1, 7, 1.5, "", "x", [], {}, ["<"]])


def _paths(obj, path=()):
    """Every key path into a JSON value, its own empty path first."""
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _replaced_docs(draw):
    """A generated plan document with the value at one key path, at any
    depth, replaced by a JSON value of any type."""
    doc = draw(_plan_docs())
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(_json_values)
    return doc


_LIST_COMPARATOR = {"nodes": [_scan(1, "r1", [{"col": "r1_val", "op": ["<"], "value": 1}])], "root": 1}


@settings(max_examples=200, deadline=None)
@given(_replaced_docs())
@example(_LIST_COMPARATOR)
def test_replaced_field_gives_a_plan_or_a_plan_error(doc):
    try:
        planmod.parse_plan(json.dumps(doc))
    except planmod.PlanError:
        pass  # any other exception fails the test


def _outcome(build):
    """A built plan's nodes, root and terms, or its PlanError's message."""
    try:
        p = build()
    except planmod.PlanError as exc:
        return str(exc)
    return p.nodes, p.root, list(p.index.terms.items())


@settings(max_examples=150, deadline=None)
@given(_plan_docs() | _replaced_docs())
@example(FIG1)
@example(_LIST_COMPARATOR)
def test_document_and_its_text_give_the_same_plan_or_error(doc):
    by_document = _outcome(lambda: planmod.plan_from_document(doc))
    assert by_document == _outcome(lambda: planmod.parse_plan(json.dumps(doc)))


@pytest.mark.parametrize(
    "doc,match",
    [
        ({"nodes": [{"id": 1, "kind": "Scan", "children": []}], "root": 1}, "unknown kind"),
        ({"nodes": [_scan(1, "R"),
                    {"id": 2, "kind": "HashJoin", "children": [1]}], "root": 2}, "children"),
        ({"nodes": [_scan(1, "R"),
                    {"id": 2, "kind": "Sort", "children": [3]}], "root": 2}, "dangling"),
        ({"nodes": [{"id": 1, "kind": "SeqScan", "children": []}], "root": 1}, "relation"),
        ({"nodes": [_scan(1, "R"),
                    {"id": 2, "kind": "Aggregate", "children": [1]}], "root": 2}, "estimate_M"),
        ({"nodes": [_scan(1, "R")], "root": 9}, "root"),
        ({"nodes": [dict(_scan(1, "R"), cost_profile={"c_t": "C5"})], "root": 1},
         "C5 needs two children"),
        ({"nodes": [_scan(1, "R"), {"id": 2, "kind": "Sort", "children": [1],
                                    "cost_profile": {"c_o": "C6"}}], "root": 2},
         "C6 needs two children"),
        ({"nodes": [_scan(1, ["R"])], "root": 1}, "relation name"),
        ({"nodes": [dict(_scan(1, "R"), cost_profile={"c_o": ["C2"]})], "root": 1}, "unknown cost type"),
        ({"nodes": [_scan(1, "R", [{"col": "a", "op": ["<"], "value": 1}])], "root": 1},
         r"unknown comparator \['<'\]"),
        ({"nodes": [_scan(1, "R", [{"col": "a", "op": {}, "value": 1}])], "root": 1}, "unknown comparator {}"),
        *[({"nodes": [_scan(1, "R"), {"id": 2, "kind": "Sort", "children": [1], "relation": falsy}], "root": 2},
           "node 2: only scans may name a relation") for falsy in ([], 0, False, "")],
    ],
)
def test_validation_errors(doc, match):
    with pytest.raises(planmod.PlanError, match=match):
        _parse(doc)


def test_estimate_m_required_above_aggregate():
    doc = {
        "nodes": [
            _scan(1, "R"),
            {"id": 2, "kind": "Aggregate", "children": [1], "estimate_M": 5},
            {"id": 3, "kind": "Sort", "children": [2]},
        ],
        "root": 3,
    }
    with pytest.raises(planmod.PlanError, match="estimate_M"):
        _parse(doc)
    doc["nodes"][2]["estimate_M"] = 5
    assert _parse(doc).nodes[3].estimate_M == 5


@pytest.mark.parametrize("doc, message", [
    ({"nodes": [_scan(1, "r1"), {"id": 2, "kind": "Sort", "children": [1],
                                 "predicate": [{"col": "r1_val", "op": "<", "value": -1}]}], "root": 2},
     "node 2: kind Sort outputs its child's rows and applies no selection atom"),
    ({"nodes": [_scan(1, "r1"), {"id": 2, "kind": "Materialize", "children": [1],
                                 "predicate": [{"col": "r1_val", "value": 3}]}], "root": 2},
     "node 2: kind Materialize outputs its child's rows and applies no selection atom"),
    ({"nodes": [_scan(1, "r1", [{"left": "nope", "right": "r1_key"}])], "root": 1},
     "node 1: kind SeqScan is not a join and applies no join atom"),
    ({"nodes": [_scan(1, "r1"), {"id": 2, "kind": "Aggregate", "children": [1], "estimate_M": 3,
                                 "predicate": [{"left": "r1_key", "right": "r1_key"}]}], "root": 2},
     "node 2: kind Aggregate is not a join and applies no join atom"),
], ids=["sort-selection", "materialize-selection", "scan-join-atom", "aggregate-join-atom"])
def test_atom_the_node_never_applies_refused(doc, message):
    # The executor would drop these atoms without a word: the Sort's plan
    # would get true selectivity 1.0 whatever its constant.
    with pytest.raises(planmod.PlanError) as exc:
        _parse(doc)
    assert str(exc.value) == message
    # Refused after every other check: an error the parser gave before comes first.
    doc = json.loads(json.dumps(doc))
    doc["nodes"][-1]["cost_profile"] = {"c_q": "C2"}
    with pytest.raises(planmod.PlanError, match="unknown cost unit 'c_q'"):
        _parse(doc)


def test_selection_atoms_where_estimate_m_accounts_for_them_accepted():
    # An Aggregate, and a Sort above one, output their estimate_M.
    atom = {"col": "a", "op": ">", "value": 0}
    doc = {
        "nodes": [
            _scan(1, "R"),
            {"id": 2, "kind": "Aggregate", "children": [1], "estimate_M": 5, "predicate": [atom]},
            {"id": 3, "kind": "Sort", "children": [2], "estimate_M": 5, "predicate": [atom]},
        ],
        "root": 3,
    }
    p = _parse(doc)
    assert p.nodes[2].selections == p.nodes[3].selections == (("a", ">", 0),)
    assert planmod.selectivity_truth(p, {"R": _rel("R", ["a"], [(1,), (2,)])}) == {1: 1.0, 2: 2.5, 3: 2.5}


def test_cost_profile_defaults_and_override():
    p = _parse({"nodes": [_scan(1, "R")], "root": 1})
    assert p.nodes[1].cost_profile == {"c_s": "C3", "c_r": "C1", "c_t": "C3", "c_o": "C2"}
    doc = {"nodes": [dict(_scan(1, "R"), cost_profile={"c_o": "C4"})], "root": 1}
    assert _parse(doc).nodes[1].cost_profile["c_o"] == "C4"
    bad = {"nodes": [dict(_scan(1, "R"), cost_profile={"c_q": "C2"})], "root": 1}
    with pytest.raises(planmod.PlanError, match="cost unit"):
        _parse(bad)


# ---------------------------------------------------------------------------
# Execution


def test_scan_filter_count():
    rel = _rel("R", ["a"], [(1,), (9,), (3,)])
    p = _parse({"nodes": [_scan(1, "R", [{"col": "a", "op": "<", "value": 5}])], "root": 1})
    res, rows, _ = _root_rows(p, {("R", 0): rel})
    assert res[1].count == 2
    assert rows == [(1,), (3,)]


def test_hash_join_hand_example():
    left = _rel("L", ["k"], [(1,), (2,)])
    right = _rel("R", ["k"], [(1,), (1,)])
    doc = {
        "nodes": [
            _scan(1, "L"),
            _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "k", "right": "k"}]},
        ],
        "root": 3,
    }
    p = _parse(doc)
    res, _, positions = _root_rows(p, {("L", 0): left, ("R", 0): right})
    assert res[3].count == 2
    assert sorted(positions) == [(0, 0), (0, 1)]


def test_cross_product_sanity():
    # Joining on a constant column realizes the full cross product.
    l = _rel("L", ["a", "one"], [(1, 1), (2, 1), (3, 1)])
    r = _rel("R", ["b", "one"], [(7, 1), (8, 1)])
    doc = {
        "nodes": [
            _scan(1, "L"),
            _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "one", "right": "one"}]},
        ],
        "root": 3,
    }
    res = planmod.execute(_parse(doc), {("L", 0): l, ("R", 0): r})
    assert res[3].count == 3 * 2


def test_provenance_reconstructs_rows():
    l = _rel("L", ["k", "v"], [(1, 10), (2, 20), (1, 30)])
    r = _rel("R", ["k", "w"], [(1, 5), (3, 6)])
    doc = {
        "nodes": [
            _scan(1, "L"),
            _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "k", "right": "k"}]},
        ],
        "root": 3,
    }
    res, rows, positions = _root_rows(_parse(doc), {("L", 0): l, ("R", 0): r})
    assert res[3].count == 2
    assert sorted(positions) == [(0, 0), (2, 0)]
    assert sorted(rows) == [(1, 10, 1, 5), (1, 30, 1, 5)]


def test_sink_streams_rows():
    # Named for the row callback `execute` once took: with provenance, an
    # unread filtered scan root lists one position per row it keeps, and
    # is the only streamed operator.
    rel = _rel("R", ["a"], [(1,), (2,), (3,)])
    (table,) = store.draw_samples(rel, n=3, pool_size=1, seed=0)
    p = _parse({"nodes": [_scan(1, "R", [{"col": "a", "op": ">", "value": 1}])], "root": 1})
    results = planmod.execute(p, {("R", 0): table}, provenance=True)
    assert list(p.index.streamed) == [1]
    assert len(results[1].provenance) == results[1].count == 2
    assert sorted(table.rows[j] for (j,) in results[1].provenance) == [(2,), (3,)]

def test_aggregate_defers_to_estimate():
    rel = _rel("R", ["a"], [(1,), (2,)])
    doc = {
        "nodes": [
            _scan(1, "R"),
            {"id": 2, "kind": "Aggregate", "children": [1], "estimate_M": 7},
        ],
        "root": 2,
    }
    res = planmod.execute(_parse(doc), {("R", 0): rel})
    assert res[2].count == 7
    assert res[2].rows is None and res[2].provenance is None


def test_sort_materialize_pass_through():
    rel = _rel("R", ["a"], [(1,), (9,), (3,)])
    doc = {
        "nodes": [
            _scan(1, "R", [{"col": "a", "op": "<", "value": 5}]),
            {"id": 2, "kind": "Sort", "children": [1]},
            {"id": 3, "kind": "Materialize", "children": [2]},
        ],
        "root": 3,
    }
    res, rows, _ = _root_rows(_parse(doc), {("R", 0): rel})
    assert res[3] is res[2] is res[1]  # pass-through: the child's result itself
    assert res[3].count == 2
    assert rows == [(1,), (3,)]


def test_executor_is_table_agnostic():
    # A sample table holding the whole relation gives the same counts as
    # the base relation itself.
    rel = _rel("R", ["a"], [(1,), (9,), (3,), (4,)])
    p = _parse({"nodes": [_scan(1, "R", [{"col": "a", "op": "<", "value": 5}])], "root": 1})
    base = planmod.execute(p, {("R", 0): rel})
    (table,) = store.draw_samples(rel, n=4, pool_size=1, seed=0)
    sampled = planmod.execute(p, {("R", 0): table})
    assert base[1].count == sampled[1].count


def test_join_without_equi_atom_rejected():
    l = _rel("L", ["a"], [(1,)])
    r = _rel("R", ["b"], [(2,)])
    doc = {
        "nodes": [
            _scan(1, "L"), _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2]},
        ],
        "root": 3,
    }
    with pytest.raises(planmod.ExecutionError, match="equi-join"):
        planmod.execute(_parse(doc), {("L", 0): l, ("R", 0): r})


def test_unknown_column_rejected():
    rel = _rel("R", ["a"], [(1,)])
    p = _parse({"nodes": [_scan(1, "R", [{"col": "zz", "op": "<", "value": 5}])], "root": 1})
    with pytest.raises(planmod.ExecutionError, match="zz"):
        planmod.execute(p, {("R", 0): rel})


def test_count_only_join_rejects_unknown_column():
    # The root join is only counted, but its columns resolve first.
    l = _rel("L", ["k"], [(1,)])
    r = _rel("R", ["k"], [(1,)])
    doc = {
        "nodes": [
            _scan(1, "L"), _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "k", "right": "nope"}]},
        ],
        "root": 3,
    }
    with pytest.raises(planmod.ExecutionError, match="nope"):
        planmod.selectivity_truth(_parse(doc), {"L": l, "R": r})


@pytest.mark.parametrize("bad", [("k1", "nope"), ("nope", "k3")])
def test_three_way_unknown_column_fails_alike_with_and_without_sink(bad):
    # Without provenance the inner join's output form is decided from the
    # top join's columns before any row is read; a column that does not
    # resolve fails there with the error a run with provenance gives.
    doc = json.loads(json.dumps(FIG1))
    doc["nodes"][4]["predicate"] = [{"left": bad[0], "right": bad[1]}]
    p = _parse(doc)
    bindings = {(f"R{i}", 0): _rel(f"R{i}", [f"k{i}"], [(1,)]) for i in (1, 2, 3)}
    errors = []
    for provenance in (False, True):
        with pytest.raises(planmod.ExecutionError, match="nope") as exc:
            planmod.execute(p, bindings, provenance=provenance)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("on_join", [False, True])
def test_constant_that_cannot_be_compared_is_an_execution_error(on_join):
    # A string constant ordered against an integer column, on a scan or as
    # a residual atom of a read join, fails with and without provenance alike.
    atom = {"col": "k2", "op": "<", "value": "abc"}
    doc = json.loads(json.dumps(FIG1))
    node = doc["nodes"][3 if on_join else 1]  # join 4 or scan 2
    node["predicate"] = node.get("predicate", []) + [atom]
    p = _parse(doc)
    bindings = {(f"R{i}", 0): _rel(f"R{i}", [f"k{i}"], [(1,)]) for i in (1, 2, 3)}
    for provenance in (False, True):
        with pytest.raises(planmod.ExecutionError) as exc:
            planmod.execute(p, bindings, provenance=provenance)
        assert str(exc.value) == f"node {4 if on_join else 2}: constant 'abc' cannot be compared with column 'R2.k2'"


# Cells and constants at and beyond int64's bounds, and ones of other types.
_INT64_CELLS = st.integers(-3, 3) | st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1])
_OTHER_CELLS = st.booleans() | st.floats() | st.sampled_from([-(2**63) - 1, 2**63, 2**64, 10**30])


@st.composite
def _two_columns(draw):
    """The rows, maybe none, of a table of two columns: each holds ints in
    int64's range, near its bounds too, and maybe bools, floats (NaN
    included) and ints beyond the bounds mixed in."""
    size = draw(st.integers(0, 6))
    cells = [_INT64_CELLS | _OTHER_CELLS if draw(st.booleans()) else _INT64_CELLS for _ in range(2)]
    return list(zip(*[draw(st.lists(c, min_size=size, max_size=size)) for c in cells]))


_ATOMS = st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(sorted(planmod.CMP_OPS)),
                            _INT64_CELLS | _OTHER_CELLS | st.integers(2**64, 2**80)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(_two_columns(), st.lists(_ATOMS, min_size=1, max_size=3))
@example([(1, 0), (2, 0)], [[]])  # no atom: every row counts
@example([(0, 0), (1.5, 0)], [[("a", ">", 1)]])  # a float in an int64 column
@example([(0, 0), (0, 1)], [[("a", "=", 0), ("b", "=", 1)], [("b", "!=", 0)]])  # every atom applies
def test_count_only_scan_counts_what_a_python_filter_keeps(rows, scans):
    # Count-only scans of one table, each with 0-3 atoms, count the rows a
    # plain Python filter keeps, alone and in turn twice within one shared
    # table, where later scans read the column arrays earlier ones stored.
    # A stored array is the column itself where its values are ints in
    # int64's range (bools among them), and None otherwise, as for an empty
    # table; a scan whose constants are all ints reads its first atom's.
    rel = _rel("t", ["a", "b"], rows)
    plans = [_parse({"nodes": [_scan(1, "t", [{"col": c, "op": op, "value": v} for c, op, v in atoms])], "root": 1})
             for atoms in scans]
    want = [sum(all(planmod.CMP_OPS[op](row["ab".index(c)], v) for c, op, v in atoms) for row in rows)
            for atoms in scans]
    bindings = {("t", 0): rel}
    table = {}
    for shared in (None, table, table):
        counts = [planmod.execute(p, bindings, shared=shared)[1].count for p in plans]
        assert counts == want and all(type(count) is int for count in counts)
    arrays = {}
    for key, (held, array) in table.items():
        if key[0] == "column":
            assert key[1] == id(held) and held is rel
            arrays[key[2]] = array
    for i, array in arrays.items():
        column = [row[i] for row in rows]
        exact = int in map(type, column) and all(type(v) in (int, bool) and -(2**63) <= v < 2**63 for v in column)
        assert (array is not None) == exact
        assert array is None or (array.dtype == np.int64 and array.tolist() == column)
    assert {"ab".index(atoms[0][0]) for atoms in scans
            if atoms and all(type(v) is int for *_, v in atoms)} <= arrays.keys()


def test_shared_execution_over_empty_tables_counts_as_a_fresh_one():
    # Bound to empty tables, an execution given a table of shared results,
    # fresh or holding what a first one stored, gives what one without a
    # table gives: a scan with selections, one without, and a join.
    bindings = {("L", 0): _rel("L", ["k", "a"], []), ("R", 0): _rel("R", ["k", "b"], [])}
    nodes = [_scan(1, "L", [{"col": "a", "op": "<", "value": 5}]), _scan(2, "R"),
             {"id": 3, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "k", "right": "k"}]}]
    for root, kept in ((1, nodes[:1]), (2, nodes[1:2]), (3, nodes)):
        p = _parse({"nodes": kept, "root": root})
        fresh = planmod.execute(p, bindings)
        table = {}
        for _ in range(2):
            got = planmod.execute(p, bindings, shared=table)
            assert got == fresh and got[root].count == 0 and type(got[root].count) is int


# ---------------------------------------------------------------------------
# True selectivities


def test_selectivity_truth_scan():
    rel = _rel("R", ["a"], [(1,), (9,), (3,)])
    p = _parse({"nodes": [_scan(1, "R", [{"col": "a", "op": "<", "value": 5}])], "root": 1})
    truth = planmod.selectivity_truth(p, {"R": rel})
    assert truth[1] == pytest.approx(2 / 3)


def test_selectivity_truth_zero_join():
    l = _rel("L", ["k"], [(1,), (2,)])
    r = _rel("R", ["k"], [(3,), (4,)])
    doc = {
        "nodes": [
            _scan(1, "L"), _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "k", "right": "k"}]},
        ],
        "root": 3,
    }
    truth = planmod.selectivity_truth(_parse(doc), {"L": l, "R": r})
    assert truth[3] == 0.0


def test_selectivity_truth_join_denominator():
    l = _rel("L", ["k"], [(1,), (1,)])
    r = _rel("R", ["k"], [(1,), (2,), (3,)])
    doc = {
        "nodes": [
            _scan(1, "L"), _scan(2, "R"),
            {"id": 3, "kind": "HashJoin", "children": [1, 2],
             "predicate": [{"left": "k", "right": "k"}]},
        ],
        "root": 3,
    }
    truth = planmod.selectivity_truth(_parse(doc), {"L": l, "R": r})
    assert truth[3] == pytest.approx(2 / 6)


def test_selectivity_truth_empty_relation():
    rel = _rel("R", ["a"], [])
    p = _parse({"nodes": [_scan(1, "R")], "root": 1})
    with pytest.raises(planmod.ExecutionError, match="relation 'R' is empty"):
        planmod.selectivity_truth(p, {"R": rel})


# ---------------------------------------------------------------------------
# Count-only execution against materialized execution and brute force

_JOIN_KINDS = ["HashJoin", "MergeJoin", "NestLoopJoin"]


@st.composite
def _variants(draw):
    """A tiny_instance plan with changes: join kinds, a self-join, a fourth
    leaf, residual selection atoms on the top and the inner join,
    Sort/Materialize wrappers and an Aggregate."""
    shape = draw(st.integers(1, 4))
    joins = shape - 1
    # (leaf position, column index, comparator, constant)
    residual = lambda positions: st.tuples(
        st.sampled_from(positions), st.integers(0, 2), st.sampled_from(sorted(planmod.CMP_OPS)), st.integers(0, 2))
    fourth = None
    if shape == 4:
        # "above": a join of the three-way join and t4, on 1-2 atoms; hand-ons
        # then chain through two read joins. "bushy": a join of two joins,
        # (t1 t2) and (t3 t4), on its three-way atom and up to one more; an
        # atom on each leaf of a child makes that child build pairs.
        # Atoms: (left leaf position, column index, right leaf position, column index).
        layout = draw(st.sampled_from(["above", "bushy"]))
        lefts, rights = ([0, 1, 2], [3]) if layout == "above" else ([0, 1], [2, 3])
        atom = st.tuples(st.sampled_from(lefts), st.integers(0, 2), st.sampled_from(rights), st.integers(0, 2))
        fourth = layout, draw(st.lists(atom, min_size=int(layout == "above"), max_size=2))
    return {
        "seed": draw(st.integers(0, 10_000)),
        "shape": shape,
        "kinds": draw(st.lists(st.sampled_from(_JOIN_KINDS), min_size=joins, max_size=joins)),
        "self_join": shape >= 2 and draw(st.booleans()),
        "fourth": fourth,
        "residual": None if shape < 2 else draw(st.none() | residual(range(shape))),
        "inner_residual": None if shape < 3 else draw(st.none() | residual([0, 1])),
        # (index into the current node list, kind), applied in turn
        "wraps": draw(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(["Sort", "Materialize"])),
                               max_size=2)),
        "aggregate": draw(st.none() | st.tuples(st.integers(0, 20), st.integers(0, 40))),
    }


def _variant_plan(v):
    """(relations, plan, brute-force membership of the plan's full join
    over the tables of a binding, id of the topmost node that outputs it
    outside any aggregate or None). The membership tensor's axes follow
    the plan's leaf order."""
    relations, plan, desc = tiny_instance(v["seed"], shape=min(v["shape"], 3))
    doc = json.loads(planmod.serialize_plan(plan))
    nodes = {rec["id"]: rec for rec in doc["nodes"]}
    leaf_rels = [f"t{pos + 1}" for pos in range(v["shape"])]
    if v["self_join"]:  # leaf 2 reads t1 again, as its second appearance
        leaf_rels[1] = "t1"
        nodes[2].update(relation="t1", predicate=[dict(nodes[2]["predicate"][0], col="t1_x")])
        nodes[10]["predicate"] = [{"left": "t1_y", "right": "t1_y"}]
        if v["shape"] >= 3:
            nodes[11]["predicate"] = [{"left": "t1#1.t1_z", "right": "t3_z"}]

    def column(pos, col):
        rel = leaf_rels[pos]
        return f"{'t1#1' if pos == 1 and v['self_join'] else rel}.{rel}_{'xyz'[col]}"

    if v["fourth"] is not None:
        layout, atoms = v["fourth"]
        relations = dict(relations, t4=make_tiny_relations(np.random.default_rng(v["seed"]), count=4)["t4"])
        thr = v["seed"] % 3
        nodes[4] = _scan(4, "t4", [{"col": "t4_x", "op": "!=", "value": thr}])
        desc["leaves"].append(("t4", 0, "!=", thr))
        if layout == "above":
            nodes[12] = {"id": 12, "kind": "HashJoin", "children": [11, 4], "predicate": []}
            doc["root"], meets = 12, 12
        else:
            nodes[12] = {"id": 12, "kind": "HashJoin", "children": [3, 4],
                         "predicate": [{"left": "t3_y", "right": "t4_y"}]}
            desc["joins"].append((2, 1, 3, 1))
            nodes[11]["children"], meets = [10, 12], 11
        for lpos, lcol, rpos, rcol in atoms:
            nodes[meets]["predicate"].append({"left": column(lpos, lcol), "right": column(rpos, rcol)})
        desc["joins"] += atoms
    for jid, kind in zip((10, 11, 12), v["kinds"]):
        nodes[jid]["kind"] = kind
    residuals = [(jid, atom) for jid, atom in ((doc["root"], v["residual"]), (10, v["inner_residual"])) if atom]
    for jid, (pos, col, op, thr) in residuals:
        nodes[jid]["predicate"].append({"col": column(pos, col), "op": op, "value": thr})

    def membership(bindings):
        tables = [list(bindings[app].rows) for app in p.index.leaves[p.root]]
        z = brute_membership(desc, tables)
        for _, (pos, col, op, thr) in residuals:
            keep = np.array([planmod.CMP_OPS[op](row[col], thr) for row in tables[pos]])
            z = z & keep.reshape([-1 if axis == pos else 1 for axis in range(z.ndim)])
        return z

    parent = {c: rec["id"] for rec in nodes.values() for c in rec["children"]}

    def wrap(target, kind, **extra):
        nid = 100 + len(nodes)
        nodes[nid] = {"id": nid, "kind": kind, "children": [target], **extra}
        if target in parent:
            siblings = nodes[parent[target]]["children"]
            siblings[siblings.index(target)] = nid
            parent[nid] = parent[target]
        else:
            doc["root"] = nid
        parent[target] = nid

    for pick, kind in v["wraps"]:
        wrap(sorted(nodes)[pick % len(nodes)], kind)
    full = doc["root"]  # the full join's output, passed through Sort/Materialize
    if v["aggregate"] is not None:
        pick, m = v["aggregate"]
        wrap(sorted(nodes)[pick % len(nodes)], "Aggregate", estimate_M=m)
        for rec in nodes.values():
            rec.setdefault("estimate_M", m)
    doc["nodes"] = list(nodes.values())
    p = planmod.parse_plan(json.dumps(doc))
    while full in p.index.agg_above:
        node = p.nodes[full]
        full = node.children[0] if node.kind in planmod.UNARY_KINDS else None
        if full is None:
            break
    return relations, p, membership, full


def _variant(seed, shape, **changes):
    return {"seed": seed, "shape": shape, "kinds": ["HashJoin"] * (shape - 1), "self_join": False,
            "fourth": None, "residual": None, "inner_residual": None, "wraps": [], "aggregate": None, **changes}


@settings(max_examples=120, deadline=None)
@given(_variants())
# A chain of hand-ons: the inner join hands t2's rows on to the middle
# one, which hands on t3's; a top join whose atoms read both inputs of the
# join below, so both joins under it build pairs; joins of two joins whose
# inputs hand on one input each, or build pairs of whole rows under a
# residual atom on the top join or under a third atom that reads both
# inputs of each; a residual atom on the inner join. Each leaves rows in
# every operator, some with multiplicities above 1.
@example(_variant(5, 4, fourth=("above", [(2, 1, 3, 1)])))
@example(_variant(35, 4, fourth=("above", [(1, 1, 3, 1), (2, 2, 3, 2)])))
@example(_variant(10, 4, fourth=("bushy", [])))
@example(_variant(52, 4, fourth=("bushy", []), residual=(2, 1, "<=", 1)))
@example(_variant(10, 4, fourth=("bushy", [(0, 2, 3, 2)])))
@example(_variant(11, 3, inner_residual=(0, 2, "<=", 1)))
# A count-only join of two scans, summed over the smaller tally's keys:
# t1's 2 keys against t2's 3, then 3 against 2, then a self-join's 3 against
# 2; a count-only join whose left input, handed on, holds multiplicities
# up to 4, mapped through the right scan's tally.
@example(_variant(7, 2))
@example(_variant(118, 2))
@example(_variant(33, 2, self_join=True))
@example(_variant(104, 3))
def test_count_only_execution_matches_materialized(v):
    relations, p, membership, full = _variant_plan(v)
    bindings = {app: relations[app[0]] for app in p.index.appearance.values()}
    counted = planmod.execute(p, bindings)
    assert all(res.provenance is None for res in counted.values())
    # With provenance, every streamed operator enumerates its pairs.
    listed = planmod.execute(p, bindings, provenance=True)
    assert all(listed[nid].count == counted[nid].count for nid in p.index.order)
    for nid in p.index.streamed:
        assert counted[nid].count == len(listed[nid].provenance)
    for res in counted.values():  # a kept row stands for its multiplicity's worth of output rows
        if res.rows is not None:
            assert len(res.multiplicity or res.rows) == len(res.rows)
            assert sum(res.multiplicity or [1] * len(res.rows)) == res.count
            assert all(len(row) == len(res.schema) for row in res.rows)
    if full is not None:
        z = membership(bindings)
        assert counted[full].count == int(z.sum())
        assert sorted(listed[full].provenance) == sorted(map(tuple, np.argwhere(z).tolist()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(_variants(), min_size=1, max_size=4))
def test_truths_sharing_one_table_equal_fresh_truths(seed, variants):
    # Generated plans over one set of relations, their truths taken twice
    # in turn inside one `sharing` block: each truth is bitwise the plan's
    # fresh truth, the second round computes nothing anew, no tally or
    # hash table either, and the table holds executions without provenance
    # only: every scan and read-join key says so, and every stored result
    # lists no provenance. Each tally or hash table on a stored result is
    # that of the result's own rows. Each column array's key names the
    # relation its entry holds, and the array holds that relation's column
    # at the key's position.
    relations, plans = {}, []
    for v in variants:
        rels, p, _, _ = _variant_plan(dict(v, seed=seed))
        for name, rel in rels.items():
            relations.setdefault(name, rel)  # equal tables for one seed; one object each, so scans can be shared
        plans.append(p)
    fresh = [planmod.selectivity_truth(p, relations) for p in plans]
    table, built = {}, []
    tally, hash_rows = planmod._tally, planmod._hash_rows
    with planmod.sharing(table):
        first = [planmod.selectivity_truth(p, relations) for p in plans]
        stored = set(table)
        with mock.patch.object(planmod, "_tally", lambda *args: built.append(args) or tally(*args)), \
                mock.patch.object(planmod, "_hash_rows", lambda *args: built.append(args) or hash_rows(*args)):
            again = [planmod.selectivity_truth(p, relations) for p in plans]
    assert first == again == fresh and repr(first) == repr(again) == repr(fresh)
    assert stored and set(table) == stored and built == []  # the second round built and stored nothing new
    columns = {key for key in table if key[0] == "column"}
    assert all(key[-1] is False for key in table.keys() - columns)
    # a scan's entry holds (table, result), a read join's (left, right, result)
    results = [res for key in table.keys() - columns for res in table[key][1:]]
    assert all(res.provenance is None for res in results)
    derived = [(res, key, value) for res in results for key, value in (res.derived or {}).items()]
    assert all(value == (tally(res.rows, pos, res.multiplicity) if tag == "tally" else hash_rows(res.rows, pos))
               for res, (tag, pos), value in derived)
    joins = [nid for p in plans for nid in p.index.order if nid not in p.index.agg_above | p.index.appearance.keys()
             and p.index.var[nid] == nid]
    assert derived or not joins  # every join tallied or hashed a stored input
    for key in columns:
        rel, column = table[key]
        assert key[1] == id(rel) and rel is relations[rel.name]
        assert column.tolist() == [row[key[2]] for row in rel.rows]


# How a parent reads the shared join below it: it counts per key on a t1
# column, so the join hands t1's rows on (0); on a t2 column, so it hands
# t2's on (1); or a selection atom makes it build pairs, and so the join
# below (None). With provenance every join builds pairs.
_SIDE_OF = {"left": 0, "right": 1, "pairs": None}
# The `bad` of `_read_join_doc` that builds each bad plan's good twin: the
# same plan below its root, and at its root but for the fault.
_GOOD_TWIN = {"column": None, "constant": "atom"}
_parents = st.tuples(st.sampled_from(sorted(_SIDE_OF)), st.booleans(), st.sampled_from(planmod.JOIN_KINDS))


def _read_join_doc(parent, inner, through, bad=None):
    """t1 join t2 on `inner` (ids 1-3), maybe under a Materialize (4),
    read by a root join (6) with a scan of t3 (5), as `parent` says:
    (how it reads, whether the shared join is its right input, its kind).
    `bad` is "column" for a root join column no schema holds, or
    "constant" for a root selection atom whose constant is a str; "atom"
    gives that atom an int constant, the good twin (`_GOOD_TWIN`)."""
    how, on_right, kind = parent
    nodes = [_scan(1, "t1", [{"col": "t1_x", "op": "<=", "value": 1}]), _scan(2, "t2"),
             {"id": 3, "kind": "HashJoin", "children": [1, 2],
              "predicate": [{"left": f"t1_{inner}", "right": f"t2_{inner}"}]}]
    if through:
        nodes.append({"id": 4, "kind": "Materialize", "children": [3]})
    reads = {"left": "t1_z", "right": "t2_z", "pairs": "t1_z"}[how]
    atom = {"left": "zz" if bad == "column" else reads, "right": "t3_z"}
    if on_right:
        atom = {"left": atom["right"], "right": atom["left"]}
    atoms = [atom]
    if how == "pairs" or bad in ("constant", "atom"):
        atoms.append({"col": "t2_x", "op": "<=", "value": "x" if bad == "constant" else 1})
    children = [nodes[-1]["id"], 5]
    nodes += [_scan(5, "t3"), {"id": 6, "kind": kind, "children": children[::-1] if on_right else children,
                               "predicate": atoms}]
    return {"nodes": nodes, "root": 6}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(_parents, min_size=1, max_size=5), st.sampled_from(["y", "z"]), st.booleans())
def test_plans_sharing_a_read_join_equal_fresh_executions(seed, parents, inner, through):
    # Plans over one set of tiny relations that share the join of t1 and
    # t2 under different parents, executed without and with provenance
    # against one shared table: every result equals a fresh execution's,
    # and the shared join is built once per distinct (inputs, join key,
    # side, provenance), where each plan's fresh execution builds it again.
    # Its entry holds the two inputs its key names and the result every
    # plan then reads. An execution that fails after the join has stored
    # the join and its scans, each as a fresh execution builds it.
    relations = make_tiny_relations(np.random.default_rng(np.random.SeedSequence([seed, 0x5EED])))
    bindings = {(name, 0): rel for name, rel in relations.items()}
    plans = [_parse(_read_join_doc(parent, inner, through)) for parent in parents]
    modes = (False, True)
    fresh = [[planmod.execute(p, bindings, provenance=prov) for p in plans] for prov in modes]
    run_join, built = planmod._run_join, []

    def spying(node, left, right, provenance, read, side, *rest):
        if read:
            built.append((id(left), id(right), node.join_columns, repr(node.selections), side, provenance))
        return run_join(node, left, right, provenance, read, side, *rest)

    table = {}
    with mock.patch.object(planmod, "_run_join", spying):
        shared = [[planmod.execute(p, bindings, provenance=prov, shared=table) for p in plans] for prov in modes]
    assert shared == fresh  # every count, schema, row list, multiplicity and provenance list
    sides = [{_SIDE_OF[how] for how, _, _ in parents}, {None}]
    want = {(side, prov) for prov, per in zip(modes, sides) for side in per}
    assert len(built) == len(set(built)) == len(want) and {b[4:] for b in built} == want
    assert all(len({id(results[3]) for results in per_mode}) == len(per) for per_mode, per in zip(shared, sides))
    entries = {key: value for key, value in table.items() if key[0] == "read-join"}
    assert len(entries) == len(built)
    for key, (left, right, res) in entries.items():
        assert key[1:3] == (id(left), id(right)) and key[-1] is (res.provenance is not None)
    # An execution that fails at its root has stored what it built below as
    # it built it, each entry what its good twin's fresh execution builds
    # for that operator: into an empty table, its three scans and the
    # shared join, built once; into the shared one, what it did not hold.
    # Either table then gives every plan, the twin's too, a fresh
    # execution's results, bitwise.
    counts = fresh[0][0]
    fails = [(True, "column")] + [(False, "constant")] * (counts[3].count > 0 and counts[5].count > 0)
    for prov, bad in fails:
        bad_plan = _parse(_read_join_doc(parents[0], inner, through, bad))
        twin = _parse(_read_join_doc(parents[0], inner, through, _GOOD_TWIN[bad]))
        built.clear()
        empty, before = {}, set(table)
        with mock.patch.object(planmod, "_run_join", spying):
            with pytest.raises(planmod.ExecutionError, match="'zz'|cannot be compared"):
                planmod.execute(bad_plan, bindings, provenance=prov, shared=empty)
            assert len(built) == 1
            with pytest.raises(planmod.ExecutionError, match="'zz'|cannot be compared"):
                planmod.execute(bad_plan, bindings, provenance=prov, shared=table)
        assert assert_stored_as_fresh(empty, set(), twin, bindings, prov) == 4
        assert_stored_as_fresh(table, before, twin, bindings, prov)
        for stored in (empty, table):
            for p in plans + [twin]:
                got, want = (planmod.execute(p, bindings, provenance=prov, shared=t) for t in (stored, None))
                assert got == want and repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), _parents, st.sampled_from(["y", "z"]), st.booleans(), st.booleans())
def test_a_failed_execution_keeps_what_it_derived_from_a_shared_result(seed, parent, inner, through, prov):
    # A plan joining t1 and t2 on the other key column stores the scans of
    # t1, t2 and t3 in a shared table. A plan joining them on `inner` then
    # fails at its root join, on a column no schema holds with provenance,
    # or on a str constant without, after its inner join hashed the stored
    # t1 scan's result on `inner`: it has stored that join, as its good
    # twin's fresh execution builds it, and the hash table stays on that
    # result, the one its rows give. Every later execution sharing the
    # table, the good twin's included, equals a fresh execution, bitwise,
    # and hashes the t1 scan's rows no more.
    relations = make_tiny_relations(np.random.default_rng(np.random.SeedSequence([seed, 0x5EED])))
    bindings = {(name, 0): rel for name, rel in relations.items()}
    bad = "column" if prov else "constant"
    docs = [_read_join_doc(parent, key, through) for key in ("y", "z") if key != inner] + \
        [_read_join_doc(parent, inner, through, _GOOD_TWIN[bad])]
    fresh = [[planmod.execute(_parse(doc), bindings, provenance=mode) for doc in docs] for mode in (False, True)]
    assume(prov or (fresh[0][1][3].count > 0 and fresh[0][1][5].count > 0))  # else no row shows the bad constant
    table = {}
    scan = planmod.execute(_parse(docs[0]), bindings, provenance=prov, shared=table)[1]
    keys, derived = set(table), dict(scan.derived or {})
    with pytest.raises(planmod.ExecutionError, match="'zz'|cannot be compared"):
        planmod.execute(_parse(_read_join_doc(parent, inner, through, bad)), bindings, provenance=prov, shared=table)
    lpos = (scan.schema.index(f"t1.t1_{inner}"),)
    assert assert_stored_as_fresh(table, keys, _parse(docs[1]), bindings, prov) == 1
    assert scan.derived.keys() - derived.keys() == {("hash", lpos)}
    assert scan.derived["hash", lpos] == planmod._hash_rows(scan.rows, lpos)
    hash_rows, hashed = planmod._hash_rows, []
    with mock.patch.object(planmod, "_hash_rows", lambda rows, pos: hashed.append(rows) or hash_rows(rows, pos)):
        shared = [[planmod.execute(_parse(doc), bindings, provenance=mode, shared=table) for doc in docs]
                  for mode in (False, True)]
    assert shared == fresh and repr(shared) == repr(fresh)
    assert all(rows is not scan.rows for rows in hashed)


def _three_way(*residual):
    """(t1 join t2) join t3 on t1.k = t2.k, then t2.k2 = t3.k2: 7 inner
    pairs over t2's 4 rows (fan-out 7/4). Returns the plan, its bindings
    and its results without and with provenance."""
    t1 = _rel("t1", ["k"], [(1,), (1,), (1,), (2,)])
    t2 = _rel("t2", ["k", "k2"], [(1, 5), (1, 6), (2, 5), (3, 6)])
    t3 = _rel("t3", ["k2"], [(5,), (5,), (6,)])
    doc = {
        "nodes": [
            _scan(1, "t1"), _scan(2, "t2"), _scan(3, "t3"),
            {"id": 4, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "k", "right": "t2.k"}]},
            {"id": 5, "kind": "HashJoin", "children": [4, 3],
             "predicate": [{"left": "k2", "right": "k2"}, *residual]},
        ],
        "root": 5,
    }
    p = _parse(doc)
    bindings = {("t1", 0): t1, ("t2", 0): t2, ("t3", 0): t3}
    return p, planmod.execute(p, bindings), planmod.execute(p, bindings, provenance=True)


def test_count_only_inner_join_hands_on_weighted_right_rows():
    # The top join reads only t2's column: the inner join hands on t2's 3
    # matching rows, each weighted by its matches in t1, not the pairs.
    p, counted, listed = _three_way()
    inner = counted[4]
    assert inner.count == 7 and inner.schema == ("t2.k", "t2.k2")
    assert inner.rows == [(1, 5), (1, 6), (2, 5)] and inner.multiplicity == [3, 3, 1]
    assert counted[5].count == (3 + 1) * 2 + 3 * 1 == listed[5].count


def test_count_only_join_under_a_residual_atom_keeps_whole_rows():
    # The top join's residual atom reads t2's column too, so it builds
    # pairs, and the inner join hands it its 7 pairs as whole rows.
    p, counted, listed = _three_way({"col": "t2.k", "op": "<", "value": 2})
    inner = counted[4]
    assert inner.schema == ("t1.k", "t2.k", "t2.k2")
    assert inner.multiplicity is None and sorted(inner.rows) == sorted(listed[4].rows)
    assert len(inner.rows) == 7 and all(len(row) == 3 for row in inner.rows)
    assert all(counted[nid].count == listed[nid].count for nid in p.index.order)
    assert counted[5].count == 3 * 2 + 3 * 1


@settings(max_examples=60, deadline=None)
@given(_variants())
def test_sink_gives_join_children_provenance(v):
    # Named for the row callback `execute` once took: with provenance, the
    # children of a join not above an aggregate carry provenance, one
    # vector per row, as long as the child's leaf count.
    relations, p, _, _ = _variant_plan(v)
    pool = store.build_pool(relations, n=3, pool_size=2, seed=v["seed"])
    bindings = {app: pool.table(*app) for app in p.index.appearance.values()}
    results = planmod.execute(p, bindings, provenance=True)
    for nid in p.index.order:
        node = p.nodes[nid]
        if node.kind in planmod.JOIN_KINDS and nid not in p.index.agg_above:
            for c in node.children:
                res = results[c]
                assert res.provenance is not None and len(res.provenance) == len(res.rows) == res.count
                assert all(len(prov) == len(p.index.leaves[c]) for prov in res.provenance)

@settings(max_examples=60, deadline=None)
@given(_variants())
@example(_variant(0, 1))  # an unread scan root: its list holds the rows its selection keeps
def test_provenance_and_estimates_on_generated_plans(v):
    # Over sample tables, a self-join reading two of them: every streamed
    # operator lists one position vector per output row, read or not, each
    # as long as its leaf count, and its Q sums to its count at every
    # position. The full join's Q, S2_n and S2_{n,m} over every position
    # subset match brute-force enumeration over the sample tables.
    relations, p, membership, full = _variant_plan(v)
    n = 3
    pool = store.build_pool(relations, n=n, pool_size=2, seed=v["seed"])
    bindings = {app: pool.table(*app) for app in p.index.appearance.values()}
    results = planmod.execute(p, bindings, provenance=True)
    est = selest.estimate_all(p, pool, relations)
    for nid in p.index.streamed:
        res = results[nid]
        assert len(res.provenance) == res.count == est[nid].count
        assert all(len(prov) == len(p.index.leaves[nid]) for prov in res.provenance)
        assert [sum(qk.values()) for qk in est[nid].q] == [res.count] * len(p.index.leaves[nid])
    if full is None:
        return
    z = membership(bindings)
    root = est[full]
    K = z.ndim
    assert root.rho_n == pytest.approx(float(z.mean()), rel=1e-12, abs=1e-15)
    for k, qk in enumerate(root.q):
        counts = z.sum(axis=tuple(a for a in range(K) if a != k))
        assert qk == {j: int(c) for j, c in enumerate(counts) if c}
    if K >= 2:  # a scan's S2_n is the closed form instead
        assert root.s2_n == pytest.approx(s2_enumeration(z, n), rel=1e-12, abs=1e-15)
    for m in range(1, K + 1):
        for subset in itertools.combinations(range(K), m):
            assert selest.estimate_for_subset(root, subset) == pytest.approx(
                snm_enumeration(z, n, subset), rel=1e-12, abs=1e-15
            )
