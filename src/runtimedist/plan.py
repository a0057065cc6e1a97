"""Query plans: rooted binary operator trees, execution, provenance.

Plans are parsed from a JSON document, validated, and evaluated over either
base relations or sample tables. When executed over sample tables with
provenance tracking, every scan/join output row carries the sample indexes
of the contributing sample tuples, one per leaf table of the operator's
subtree, in left-to-right leaf order.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property

SCAN_KINDS = ("SeqScan", "IndexScan")
UNARY_KINDS = ("Sort", "Materialize", "Aggregate")
JOIN_KINDS = ("HashJoin", "MergeJoin", "NestLoopJoin")
KINDS = SCAN_KINDS + UNARY_KINDS + JOIN_KINDS

COST_UNITS = ("c_s", "c_r", "c_t", "c_i", "c_o")
COST_TYPES = ("C1", "C2", "C3", "C4", "C5", "C6")

# Per-kind defaults mapping cost unit -> cost-function type. Overridable in
# the plan document via cost_profile. Units absent from a profile carry no
# cost for that operator.
DEFAULT_COST_PROFILES = {
    "SeqScan": {"c_s": "C3", "c_r": "C1", "c_t": "C3", "c_o": "C2"},
    "IndexScan": {"c_r": "C2", "c_i": "C2", "c_o": "C2"},
    "Sort": {"c_t": "C3", "c_o": "C4"},
    "Materialize": {"c_s": "C3", "c_t": "C3"},
    "Aggregate": {"c_t": "C3", "c_o": "C2"},
    "HashJoin": {"c_t": "C5", "c_o": "C5"},
    "MergeJoin": {"c_t": "C5", "c_o": "C5"},
    "NestLoopJoin": {"c_t": "C6", "c_o": "C6"},
}

CMP_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class PlanError(ValueError):
    """Raised for malformed plan documents or invalid trees."""


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be evaluated over its bound tables."""


@dataclass(frozen=True)
class SelAtom:
    """Selection atom: column <cmp> constant."""

    column: str
    op: str
    value: object


@dataclass(frozen=True)
class JoinAtom:
    """Equi-join atom: left column = right column."""

    left: str
    right: str


@dataclass
class OperatorNode:
    id: int
    kind: str
    children: list[int]
    relation: str | None = None
    predicate: list = field(default_factory=list)
    estimate_M: int | None = None
    cost_profile: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PlanIndex:
    """Structure derived from a plan in one post-order walk.

    `leaves` maps every node to its leaf relation appearances, left to
    right; appearance ordinals count repeated uses of the same relation
    across the whole plan, so a self-join yields (R, 0) and (R, 1).
    `agg_above` holds the aggregates and every operator above one.
    """

    order: tuple[int, ...]
    leaves: dict[int, tuple[tuple[str, int], ...]]
    appearance: dict[int, tuple[str, int]]  # scan node id -> (relation, ordinal)
    agg_above: frozenset[int]


def _index_plan(plan: "Plan") -> PlanIndex:
    order: list[int] = []
    leaves: dict[int, tuple[tuple[str, int], ...]] = {}
    appearance: dict[int, tuple[str, int]] = {}
    agg_above: set[int] = set()
    counters: dict[str, int] = {}
    stack = [(plan.root, False)]  # a loop, not a recursive closure: no reference cycle
    while stack:
        nid, children_done = stack.pop()
        node = plan.nodes[nid]
        if not children_done:
            stack.append((nid, True))
            stack.extend((c, False) for c in reversed(node.children))
            continue
        if node.kind in SCAN_KINDS:
            ordinal = counters.get(node.relation, 0)
            counters[node.relation] = ordinal + 1
            appearance[nid] = (node.relation, ordinal)
            leaves[nid] = (appearance[nid],)
        else:
            leaves[nid] = tuple(app for c in node.children for app in leaves[c])
        if node.kind == "Aggregate" or any(c in agg_above for c in node.children):
            agg_above.add(nid)
        order.append(nid)
    return PlanIndex(tuple(order), leaves, appearance, frozenset(agg_above))


@dataclass
class Plan:
    nodes: dict[int, OperatorNode]
    root: int

    def node(self, node_id: int) -> OperatorNode:
        return self.nodes[node_id]

    def children(self, node_id: int) -> list[OperatorNode]:
        return [self.nodes[c] for c in self.nodes[node_id].children]

    @cached_property
    def index(self) -> PlanIndex:
        """Derived structure, built on first use; plans are not mutated."""
        return _index_plan(self)

    def postorder(self):
        return (self.nodes[nid] for nid in self.index.order)


@dataclass
class AnnotatedResult:
    """Per-operator output: cardinality, rows, optional provenance."""

    count: int
    schema: tuple[str, ...] | None
    rows: list[tuple] | None
    provenance: list[tuple[int, ...]] | None = None


def _parse_atom(obj) -> SelAtom | JoinAtom:
    if isinstance(obj, dict) and "left" in obj:
        return JoinAtom(left=str(obj["left"]), right=str(obj["right"]))
    if isinstance(obj, dict) and "col" in obj:
        op = obj.get("op", "=")
        if op not in CMP_OPS:
            raise PlanError(f"unknown comparator {op!r}")
        return SelAtom(column=str(obj["col"]), op=op, value=obj["value"])
    raise PlanError(f"unrecognized predicate atom: {obj!r}")


def parse_plan(text: str) -> Plan:
    """Parse and validate a JSON plan document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan document is not valid JSON: {exc}") from None
    if "nodes" not in doc or "root" not in doc:
        raise PlanError("plan document requires 'nodes' and 'root'")
    nodes: dict[int, OperatorNode] = {}
    for rec in doc["nodes"]:
        nid = int(rec["id"])
        if nid in nodes:
            raise PlanError(f"duplicate node id {nid}")
        kind = rec.get("kind")
        if kind not in KINDS:
            raise PlanError(f"node {nid}: unknown kind {kind!r}")
        children = [int(c) for c in rec.get("children", [])]
        expected = 0 if kind in SCAN_KINDS else 1 if kind in UNARY_KINDS else 2
        if len(children) != expected:
            raise PlanError(
                f"node {nid}: kind {kind} requires {expected} children, got {len(children)}"
            )
        relation = rec.get("relation")
        if kind in SCAN_KINDS and not relation:
            raise PlanError(f"node {nid}: scans require a relation name")
        if kind not in SCAN_KINDS and relation:
            raise PlanError(f"node {nid}: only scans may name a relation")
        predicate = [_parse_atom(a) for a in rec.get("predicate", [])]
        profile = dict(DEFAULT_COST_PROFILES[kind])
        for unit, tag in rec.get("cost_profile", {}).items():
            if unit not in COST_UNITS:
                raise PlanError(f"node {nid}: unknown cost unit {unit!r}")
            if tag not in COST_TYPES:
                raise PlanError(f"node {nid}: unknown cost type {tag!r}")
            profile[unit] = tag
        est = rec.get("estimate_M")
        nodes[nid] = OperatorNode(
            id=nid,
            kind=kind,
            children=children,
            relation=relation,
            predicate=predicate,
            estimate_M=None if est is None else int(est),
            cost_profile=profile,
        )
    root = int(doc["root"])
    if root not in nodes:
        raise PlanError(f"root {root} is not a node")
    plan = Plan(nodes=nodes, root=root)
    _validate_tree(plan)
    return plan


def _validate_tree(plan: Plan) -> None:
    seen: set[int] = set()
    for node in plan.nodes.values():
        for c in node.children:
            if c not in plan.nodes:
                raise PlanError(f"node {node.id}: dangling child {c}")
            if c in seen:
                raise PlanError(f"node {c} has multiple parents")
            seen.add(c)
    if plan.root in seen:
        raise PlanError("root must not be a child")
    index = plan.index
    if len(index.order) != len(plan.nodes):
        raise PlanError("plan contains nodes unreachable from the root")
    for nid in index.order:
        if nid in index.agg_above and plan.nodes[nid].estimate_M is None:
            raise PlanError(
                f"node {nid}: estimate_M required (aggregate or above an aggregate)"
            )


def serialize_plan(plan: Plan) -> str:
    """Serialize a plan back to its JSON document form."""
    recs = []
    for node in plan.postorder():
        rec: dict = {"id": node.id, "kind": node.kind, "children": node.children}
        if node.relation is not None:
            rec["relation"] = node.relation
        if node.predicate:
            atoms = []
            for a in node.predicate:
                if isinstance(a, JoinAtom):
                    atoms.append({"left": a.left, "right": a.right})
                else:
                    atoms.append({"col": a.column, "op": a.op, "value": a.value})
            rec["predicate"] = atoms
        if node.estimate_M is not None:
            rec["estimate_M"] = node.estimate_M
        rec["cost_profile"] = node.cost_profile
        recs.append(rec)
    return json.dumps({"nodes": recs, "root": plan.root}, indent=2, sort_keys=True)


def leaf_tables(plan: Plan, node_id: int | None = None) -> list[tuple[str, int]]:
    """Leaf relation appearances under a node (the root by default), left
    to right, as (relation, appearance ordinal)."""
    return list(plan.index.leaves[plan.root if node_id is None else node_id])


def _resolve(schema: tuple[str, ...], column: str, node_id: int) -> int:
    """Resolve a possibly qualified column name against a schema."""
    if column in schema:
        return schema.index(column)
    matches = [i for i, c in enumerate(schema) if c.endswith("." + column)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ExecutionError(f"node {node_id}: column {column!r} not in schema {schema}")
    raise ExecutionError(f"node {node_id}: column {column!r} is ambiguous in {schema}")


def _sel_filter(node, schema, rows, prov):
    sel = [a for a in node.predicate if isinstance(a, SelAtom)]
    if not sel:
        return rows, prov
    tests = [(_resolve(schema, a.column, node.id), CMP_OPS[a.op], a.value) for a in sel]
    keep = range(len(rows))
    for idx, op, val in tests:  # atom by atom over the rows still kept
        keep = [i for i in keep if op(rows[i][idx], val)]
    return [rows[i] for i in keep], None if prov is None else [prov[i] for i in keep]


def _run_scan(node, appearance, bindings, track_provenance, sink) -> AnnotatedResult:
    if appearance not in bindings:
        raise ExecutionError(f"leaf {appearance} is not bound to a table")
    table = bindings[appearance]
    if hasattr(table, "table_index"):
        pairs = table.rows  # SampleTable: (sample_index, tuple)
        rows = [r for _, r in pairs]
        prov = [(j,) for j, _ in pairs] if track_provenance else None
        base_cols = _table_columns(table, bindings)
    else:
        rows = list(table.rows)
        prov = None
        base_cols = table.column_names
    rel, ordinal = appearance
    alias = rel if ordinal == 0 else f"{rel}#{ordinal}"
    schema = tuple(f"{alias}.{c}" for c in base_cols)
    rows, prov = _sel_filter(node, schema, rows, prov)
    if sink is not None and prov is not None:
        for p in prov:
            sink(node.id, p)
    return AnnotatedResult(count=len(rows), schema=schema, rows=rows, provenance=prov)


def _table_columns(table, bindings):
    # SampleTables carry no schema; recover column names from any bound
    # Relation of the same name, else positional names.
    for b in bindings.values():
        if hasattr(b, "schema") and getattr(b, "name", None) == table.relation:
            return b.column_names
    meta = bindings.get(("__schema__", table.relation))
    if meta is not None:
        return meta
    width = len(table.rows[0][1]) if table.rows else 0
    return tuple(f"c{i}" for i in range(width))


def _run_join(node, left, right, track_provenance, sink) -> AnnotatedResult:
    if left.rows is None or right.rows is None:
        # A child deferred to its cardinality estimate; so must we.
        return AnnotatedResult(count=node.estimate_M, schema=None, rows=None)
    atoms = [a for a in node.predicate if isinstance(a, JoinAtom)]
    if not atoms:
        raise ExecutionError(f"join node {node.id} has no equi-join atom")
    # One atom keys by the value itself, several by the tuple of values.
    lkey = operator.itemgetter(*[_resolve(left.schema, a.left, node.id) for a in atoms])
    rkey = operator.itemgetter(*[_resolve(right.schema, a.right, node.id) for a in atoms])
    schema = left.schema + right.schema
    track = track_provenance and left.provenance is not None and right.provenance is not None
    ht: dict = {}
    for i, row in enumerate(left.rows):
        ht.setdefault(lkey(row), []).append(i)
    rows: list[tuple] = []
    prov: list | None = [] if track else None
    sel = [a for a in node.predicate if isinstance(a, SelAtom)]
    tests = [(_resolve(schema, a.column, node.id), CMP_OPS[a.op], a.value) for a in sel]
    for j, rrow in enumerate(right.rows):
        for i in ht.get(rkey(rrow), ()):
            out = left.rows[i] + rrow
            if tests and not all(op(out[idx], val) for idx, op, val in tests):
                continue
            if track:
                p = left.provenance[i] + right.provenance[j]
                if sink is not None:
                    sink(node.id, p)
                prov.append(p)
            rows.append(out)
    return AnnotatedResult(count=len(rows), schema=schema, rows=rows, provenance=prov)


def execute(plan: Plan, bindings: dict, track_provenance: bool = False, sink=None) -> dict[int, AnnotatedResult]:
    """Evaluate a plan bottom-up and return per-operator results.

    `bindings` maps (relation, appearance) to either a Relation or a
    SampleTable; every leaf appearance must be bound. With provenance
    tracking, bound tables must be SampleTables and each scan/join output
    row is paired with a vector of sample indexes, one per leaf table of
    the subtree. `sink(node_id, provenance)` is invoked once per produced
    scan/join row, before the row is buffered for the parent, so a consumer
    can accumulate statistics on the fly.
    """
    index = plan.index
    results: dict[int, AnnotatedResult] = {}
    for nid in index.order:
        node = plan.nodes[nid]
        if node.kind in SCAN_KINDS:
            res = _run_scan(node, index.appearance[nid], bindings, track_provenance, sink)
        elif node.kind == "Aggregate":
            res = AnnotatedResult(count=node.estimate_M, schema=None, rows=None)
        elif node.kind in ("Sort", "Materialize"):
            child = results[node.children[0]]
            res = AnnotatedResult(
                count=child.count, schema=child.schema, rows=child.rows,
                provenance=child.provenance,
            )
        else:
            left, right = node.children
            res = _run_join(node, results[left], results[right], track_provenance, sink)
        results[nid] = res
    return results


def selectivity_truth(plan: Plan, relations: dict[str, "object"]) -> dict[int, float]:
    """True selectivity of every operator: output count over the product of
    its base leaf-table sizes, from one execution over the full relations."""
    index = plan.index
    bindings = {app: relations[app[0]] for app in index.appearance.values()}
    results = execute(plan, bindings, track_provenance=False)
    truth = {}
    for nid in index.order:
        denom = 1
        for rel, _ in index.leaves[nid]:
            size = relations[rel].row_count
            if size == 0:
                raise ZeroDivisionError(
                    f"relation {rel!r} is empty; selectivity undefined (degenerate input)"
                )
            denom *= size
        truth[nid] = results[nid].count / denom
    return truth
