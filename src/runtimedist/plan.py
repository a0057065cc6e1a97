"""Query plans: rooted binary operator trees, execution, provenance.

Plans are parsed from a JSON document, validated, and evaluated over
relations: base relations or sample tables. A node holds only the atoms
it applies, as the executor reads them. With provenance, every scan/join
result lists, per output row, the positions of its contributing rows,
one per leaf table of the operator's subtree, in left-to-right leaf
order; a sample row's position is its sample index. An operator's rows
are built only where a parent reads them; any other operator, the root
included, only counts its output (and lists its provenance). Without
provenance, a join that counts per key matches one input's rows on the
other's per-key tally, and a read one hands those rows on, each with a
multiplicity, instead of its pairs.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .calib import COST_UNITS, checked_int
from .costfit import FAMILIES, monomial_factors

SCAN_KINDS = ("SeqScan", "IndexScan")
UNARY_KINDS = ("Sort", "Materialize", "Aggregate")
JOIN_KINDS = ("HashJoin", "MergeJoin", "NestLoopJoin")
KINDS = SCAN_KINDS + UNARY_KINDS + JOIN_KINDS

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


class ExecutionError(ValueError):
    """Raised when a plan cannot be evaluated over its bound tables."""


@contextlib.contextmanager
def naming(plan_name: str):
    """Prefix `<plan_name>: ` to an ExecutionError raised in the block."""
    try:
        yield
    except ExecutionError as exc:
        raise ExecutionError(f"{plan_name}: {exc}") from None


@dataclass
class OperatorNode:
    """One operator: `selections` holds (column, comparator, constant) and
    `join_columns` (left columns, right columns), both in document order."""

    id: int
    kind: str
    children: list[int]
    relation: str | None = None
    selections: tuple[tuple[str, str, object], ...] = ()
    join_columns: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
    estimate_M: int | None = None
    cost_profile: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PlanIndex:
    """Structure derived from a plan in one post-order walk.

    `leaves` maps every node to its leaf relation appearances, left to
    right; appearance ordinals count repeated uses of the same relation
    across the whole plan, so a self-join yields (R, 0) and (R, 1).
    `agg_above` holds the aggregates and every operator above one.
    `read` holds the operators whose rows a parent reads: the children of
    a join not above an aggregate, and the child of a read Sort or
    Materialize. An Aggregate never reads its child, and a join at or
    above one outputs its `estimate_M`. The root has no parent, so it is
    never read. `streamed` holds the operators that produce rows, and list
    their provenance when asked: the scans, and the joins not above an
    aggregate. `var` maps every node to its selectivity variable, a node
    id: a Sort or Materialize not above an aggregate passes its child's
    rows on and shares its child's variable; any other node is its own.
    So a node's role reads off the index: a scan is in `appearance`, a
    pass-through has `var[nid] != nid`, an aggregate-derived node is in
    `agg_above`, and any other node is a join.
    `terms` maps each cost term (node id, cost unit), in post-order and
    cost-profile order, to its family and the variables of the family's
    inputs: "own" is the operator's, "left" and "right" its children's,
    and a leaf's left input is None, the constant 1 (a scan reads its
    whole relation). `read_keys` maps every scan or join a parent reads,
    the only operators a table of shared results stores (`execute`), to
    the part of its key there that the plan fixes: its appearance, None
    for a join, and the `repr` of its join columns and selections (a JSON
    constant may be a list, which does not hash).
    `monomials`, built on first read, says what each term's monomials
    multiply.
    """

    order: tuple[int, ...]
    leaves: dict[int, tuple[tuple[str, int], ...]]
    appearance: dict[int, tuple[str, int]]  # scan node id -> (relation, ordinal)
    agg_above: frozenset[int]
    read: frozenset[int]
    streamed: tuple[int, ...]  # post-order
    var: dict[int, int]
    terms: dict[tuple[int, str], tuple[str, tuple]]
    read_keys: dict[int, tuple[tuple[str, int] | None, str]]

    @functools.cached_property
    def monomials(self) -> dict[tuple[int, str], tuple[tuple, tuple]]:
        """Per cost term, in `terms` order, what each monomial of its family
        multiplies, as (factors, powers), each a tuple with one entry per
        coefficient, constant last. A monomial's factors are the variables
        at the positions `costfit.monomial_factors` lists; its powers are
        its ((variable, exponent), ...) over the inputs it reads. A scan's
        constant left input is None in both, and the constant is () in
        both. Terms of one family on the same variables share one entry.
        Built on first read, not at parse: parsing a plan, or generating a
        workload, never reads it; the probe oracle, the harness's true
        costs and the term table (`propagate`) do."""
        return _monomial_table(self.terms)


def _monomial_table(terms) -> dict:
    entries: dict = {}  # (family, variables) -> their shared (factors, powers)
    table = {}
    for term, spec in terms.items():
        entry = entries.get(spec)
        if entry is None:
            tag, vars_ = spec
            entry = entries[spec] = (tuple(tuple(vars_[i] for i in idx) for idx in monomial_factors(tag)),
                                     tuple(tuple((v, e) for v, e in zip(vars_, exps) if e) for exps in FAMILIES[tag][1]))
        table[term] = entry
    return table


def _index_plan(plan: "Plan") -> PlanIndex:
    order: list[int] = []
    leaves: dict[int, tuple[tuple[str, int], ...]] = {}
    appearance: dict[int, tuple[str, int]] = {}
    agg_above: set[int] = set()
    var: dict[int, int] = {}
    terms: dict[tuple[int, str], tuple[str, tuple]] = {}
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
        passes = node.kind in ("Sort", "Materialize") and nid not in agg_above
        var[nid] = var[node.children[0]] if passes else nid
        roles = dict(zip(("own", "left", "right"), [var[nid], *([var[c] for c in node.children] or [None])]))
        for unit, tag in node.cost_profile.items():
            try:
                terms[nid, unit] = tag, tuple(map(roles.__getitem__, FAMILIES[tag][0]))
            except KeyError:
                raise PlanError(f"node {nid}: {tag} needs two children") from None
        order.append(nid)
    streamed = tuple(nid for nid in order if nid not in agg_above and var[nid] == nid)
    read: set[int] = set()
    for nid in reversed(order):  # every parent before its children
        if nid not in agg_above and (var[nid] == nid or nid in read):  # a scan has no children
            read.update(plan.nodes[nid].children)
    read_keys = {nid: (appearance.get(nid), repr((plan.nodes[nid].join_columns, plan.nodes[nid].selections)))
                 for nid in read if var[nid] == nid}
    return PlanIndex(tuple(order), leaves, appearance, frozenset(agg_above), frozenset(read), streamed, var, terms,
                     read_keys)


@dataclass
class Plan:
    nodes: dict[int, OperatorNode]
    root: int

    @functools.cached_property
    def index(self) -> PlanIndex:
        """Derived structure, built on first use; plans are not mutated."""
        return _index_plan(self)


@dataclass
class AnnotatedResult:
    """Per-operator output: its count, its schema and, where a parent reads
    them, its rows. A join's schema is its inputs' schemas concatenated,
    or the kept input's where it hands that input on; its rows are then
    that input's, and each stands for `multiplicity` output rows, so
    `count` is their sum. Any other kept row is one whole output row.
    Executed with provenance, a streamed operator's `provenance` holds one
    position vector per output row, read or not, in the order the rows
    are produced, and its kept rows follow that order. A read scan that
    filters over column arrays, and a read join that counts over them
    (`execute`), keep no rows but `kept`: (the bound table they are rows
    of, their positions in it, their multiplicities or None where each
    stands for one output row), the two as int64 arrays, the rows in table
    order; a reader in Python reads them through `_rows`. A result is
    never mutated, so what is built from it alone (those rows, a join's
    tallies and hash tables over it, its `selest` counters) is built once,
    into `derived`, made on first use, neither compared nor printed, and
    holding nothing that refers back to the result, so no reference cycle
    forms."""

    count: int
    schema: tuple[str, ...] | None
    rows: list[tuple] | None
    provenance: list[tuple[int, ...]] | None = None
    multiplicity: list[int] | None = None
    kept: tuple | None = field(default=None, compare=False, repr=False)
    derived: dict | None = field(default=None, compare=False, repr=False)

    def derive(self, key, build, *args):
        """`build(*args)`, a pure function of this result, built on the
        first call for `key` and kept in `derived`."""
        if self.derived is None:
            self.derived = {}
        value = self.derived.get(key)
        if value is None:
            value = self.derived[key] = build(*args)
        return value


def shared_entry(shared, key, holds, build, *args):
    """The value of `key` in a table of shared results: `build(*args)`,
    built on the first lookup and stored as `(*holds, value)`, where
    `holds` are the objects whose identities the key names; a build that
    raises stores nothing.

    The table is what the executions, fits and probes of one evaluation
    share (`simeval.evaluate_workload` makes it and drops it on return).
    Its rule, for every module, is this. An entry's value is a pure
    function of its key, and the entry holds every object whose identity
    the key names, so no identity is reused while it lives. A value is
    stored when it is built, so what a failed execution or fit stored is
    what a successful one would have, and a hit is bitwise a fresh build.
    An entry keyed by values alone holds nothing and is a plain lookup
    (`propagate.fit_all_cost_functions`'s grids). Each module states its
    own keys: `execute` its read results (only what a parent reads is
    stored) and column arrays, `simeval.TrueCostWorld.cost_oracle` its
    probe replies. What is built from one object alone lives on it, with
    no key (`AnnotatedResult.derive`). Without a table (`shared` None),
    the value is built and nothing is stored."""
    if shared is None:
        return build(*args)
    entry = shared.get(key)
    if entry is None:
        entry = shared[key] = (*holds, build(*args))
    return entry[-1]


def _parse_predicate(atoms) -> tuple[tuple, tuple[tuple[str, ...], tuple[str, ...]]]:
    """A node's selections and join columns, each atom checked in turn."""
    selections, lcols, rcols = [], [], []
    for obj in atoms:
        if isinstance(obj, dict) and {"left", "right"} <= obj.keys():
            lcols.append(str(obj["left"]))
            rcols.append(str(obj["right"]))
        elif isinstance(obj, dict) and {"col", "value"} <= obj.keys():
            op = obj.get("op", "=")
            if not isinstance(op, str) or op not in CMP_OPS:  # a list or an object is not hashable
                raise PlanError(f"unknown comparator {op!r}")
            selections.append((str(obj["col"]), op, obj["value"]))
        else:
            raise PlanError(
                f"predicate atom {obj!r} is neither a join atom (left, right) nor a selection atom (col, value)")
    return tuple(selections), (tuple(lcols), tuple(rcols))


def parse_plan(text: str) -> Plan:
    """Parse and validate a JSON plan document: decode it, then build the
    plan with `plan_from_document`. Text that is not JSON is a PlanError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan document is not valid JSON: {exc}") from None
    return plan_from_document(doc)


def plan_from_document(doc) -> Plan:
    """Validate a decoded plan document and build its plan.

    `doc` holds what `json.loads` gives: dicts with string keys, lists,
    strings, numbers, booleans and None. Every check and its PlanError are
    those `parse_plan` makes after decoding, in the same order; last, an
    atom the node never applies is refused: a join atom off a join, or a
    selection atom on a pass-through Sort or Materialize (an Aggregate's
    `estimate_M`, and that of any node above one, accounts for its atoms).
    Selection constants are taken over as they are, not copied."""
    if not isinstance(doc, dict) or "nodes" not in doc or "root" not in doc:
        raise PlanError("plan document must be an object with 'nodes' and 'root'")
    if not isinstance(doc["nodes"], list):
        raise PlanError("plan document's 'nodes' must be a list")
    nodes: dict[int, OperatorNode] = {}
    for rec in doc["nodes"]:
        if not isinstance(rec, dict) or "id" not in rec:
            raise PlanError(f"node record {rec!r} is not an object with an 'id'")
        nid = checked_int(rec["id"], "a node record's 'id'", error=PlanError)
        if nid in nodes:
            raise PlanError(f"duplicate node id {nid}")
        kind = rec.get("kind")
        if kind not in KINDS:
            raise PlanError(f"node {nid}: unknown kind {kind!r}")
        for key, typ in (("children", list), ("predicate", list), ("cost_profile", dict)):
            if not isinstance(rec.get(key, typ()), typ):
                raise PlanError(f"node {nid}: {key!r} must be {'a list' if typ is list else 'an object'}")
        children = [checked_int(c, f"node {nid}: a 'children' entry", error=PlanError) for c in rec.get("children", [])]
        expected = 0 if kind in SCAN_KINDS else 1 if kind in UNARY_KINDS else 2
        if len(children) != expected:
            raise PlanError(f"node {nid}: kind {kind} requires {expected} children, got {len(children)}")
        relation = rec.get("relation")
        if kind in SCAN_KINDS and not (relation and isinstance(relation, str)):
            raise PlanError(f"node {nid}: scans require a relation name")
        if kind not in SCAN_KINDS and relation is not None:
            raise PlanError(f"node {nid}: only scans may name a relation")
        selections, join_columns = _parse_predicate(rec.get("predicate", []))
        profile = dict(DEFAULT_COST_PROFILES[kind])
        for unit, tag in rec.get("cost_profile", {}).items():
            if unit not in COST_UNITS:
                raise PlanError(f"node {nid}: unknown cost unit {unit!r}")
            if not isinstance(tag, str) or tag not in FAMILIES:
                raise PlanError(f"node {nid}: unknown cost type {tag!r}")
            profile[unit] = tag
        profile = {unit: profile[unit] for unit in COST_UNITS if unit in profile}  # the order terms follow
        est = rec.get("estimate_M")
        nodes[nid] = OperatorNode(
            id=nid,
            kind=kind,
            children=children,
            relation=relation,
            selections=selections,
            join_columns=join_columns,
            estimate_M=None if est is None else checked_int(est, f"node {nid}: 'estimate_M'", 0, error=PlanError),
            cost_profile=profile,
        )
    root = checked_int(doc["root"], "plan document's 'root'", error=PlanError)
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
            raise PlanError(f"node {nid}: estimate_M required (aggregate or above an aggregate)")
    for nid in index.order:  # atoms the node would never apply
        node = plan.nodes[nid]
        if node.join_columns[0] and node.kind not in JOIN_KINDS:
            raise PlanError(f"node {nid}: kind {node.kind} is not a join and applies no join atom")
        if node.selections and index.var[nid] != nid:
            raise PlanError(f"node {nid}: kind {node.kind} outputs its child's rows and applies no selection atom")


_ENCODER = json.JSONEncoder(sort_keys=True)  # no indent: json's C encoder


def serialize_plan(plan: Plan) -> str:
    """Serialize a plan to its JSON document form, keys sorted, one node
    record per line in post-order:

        {"nodes": [
          {"children": [], "cost_profile": {...}, "id": 1, ...},
          ...
        ], "root": N}

    Each record is encoded without `indent`, so `json` uses its C encoder;
    with `indent` it falls back to its pure-Python one, several times
    slower. A node's join atoms come before its selection atoms. The text
    is deterministic, and `parse_plan` reads it back to an equal plan."""
    recs = []
    for node in map(plan.nodes.__getitem__, plan.index.order):
        rec: dict = {"id": node.id, "kind": node.kind, "children": node.children}
        if node.relation is not None:
            rec["relation"] = node.relation
        atoms = [{"left": left, "right": right} for left, right in zip(*node.join_columns)]
        atoms += [{"col": col, "op": op, "value": value} for col, op, value in node.selections]
        if atoms:
            rec["predicate"] = atoms
        if node.estimate_M is not None:
            rec["estimate_M"] = node.estimate_M
        rec["cost_profile"] = node.cost_profile
        recs.append(_ENCODER.encode(rec))
    return '{"nodes": [\n  ' + ",\n  ".join(recs) + f'\n], "root": {plan.root}}}'


def leaf_tables(plan: Plan, node_id: int | None = None) -> list[tuple[str, int]]:
    """Leaf relation appearances under a node (the root by default), left
    to right, as (relation, appearance ordinal)."""
    return list(plan.index.leaves[plan.root if node_id is None else node_id])


@functools.lru_cache(maxsize=4096)
def _resolve(schema: tuple[str, ...], column: str, node_id: int) -> int:
    """Resolve a possibly qualified column name against a schema: its exact
    name, else the one column it is the suffix after a dot of. Cached:
    executions resolve the same few names against the same few schemas."""
    if column in schema:
        return schema.index(column)
    matches = [i for i, c in enumerate(schema) if c.endswith("." + column)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ExecutionError(f"node {node_id}: column {column!r} not in schema {schema}")
    raise ExecutionError(f"node {node_id}: column {column!r} is ambiguous in {schema}")


@functools.lru_cache(maxsize=1024)
def _scan_schema(appearance: tuple[str, int], column_names: tuple[str, ...]) -> tuple[str, ...]:
    """A scan's columns as `alias.column`; a relation's second appearance
    is aliased `R#1`, its third `R#2`, and so on."""
    rel, ordinal = appearance
    alias = rel if ordinal == 0 else f"{rel}#{ordinal}"
    return tuple(f"{alias}.{c}" for c in column_names)


def _scan_input(node, appearance, bindings):
    """A scan's bound table, schema and selection tests (`_tests`)."""
    table = bindings.get(appearance)
    if table is None:
        raise ExecutionError(f"leaf {appearance} is not bound to a table")
    schema = _scan_schema(appearance, table.column_names)
    return table, schema, _tests(node, schema, table.rows[:1])


def _tests(node, schema, rows=()) -> list:
    """A node's selection tests (column position, comparison, constant).
    Each is tried on `rows`, one row or none: a column holds values of one
    type, so a constant its column cannot be compared with fails here."""
    tests = [(_resolve(schema, col, node.id), CMP_OPS[op], val) for col, op, val in node.selections]
    for row in rows:
        for idx, op, val in tests:
            try:
                op(row[idx], val)
            except TypeError:
                raise ExecutionError(
                    f"node {node.id}: constant {val!r} cannot be compared with column {schema[idx]!r}"
                ) from None
    return tests


@functools.lru_cache(maxsize=4096)
def _positions(schema: tuple[str, ...], columns: tuple[str, ...], node_id: int) -> tuple[int, ...]:
    """The schema positions of several columns (`_resolve`)."""
    return tuple(_resolve(schema, c, node_id) for c in columns)


def _join_keys(node, lschema, rschema) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The schema positions of a join's left and right key columns."""
    lcols, rcols = node.join_columns
    if not lcols:
        raise ExecutionError(f"join node {node.id} has no equi-join atom")
    return _positions(lschema, lcols, node.id), _positions(rschema, rcols, node.id)


def _handed_on(plan: Plan, bindings) -> dict[int, int]:
    """The input, 0 for left or 1 for right, that each read join without
    selection atoms hands on. A join hands on only into a join that counts
    per key, one without selection atoms that is not read or hands on too,
    and only an input that holds every column read above it: that join's
    keys and, where that join hands it on in turn, what its reader reads.
    Any other read join builds plain pairs. Every column is resolved
    first, as execution resolves it, against the full schema of the
    operator that names it, so errors are the same with provenance."""
    index = plan.index
    if all(nid in index.appearance or index.var[nid] != nid for nid in index.read):
        return {}  # no join to decide for; execution resolves every column itself
    schemas: dict[int, tuple[str, ...]] = {}
    keys: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for nid in index.order:
        node = plan.nodes[nid]
        if nid in index.agg_above:
            continue
        if nid in index.appearance:
            schemas[nid] = _scan_input(node, index.appearance[nid], bindings)[1]
        elif index.var[nid] != nid:  # a pass-through
            schemas[nid] = schemas[node.children[0]]
        else:
            lschema, rschema = (schemas[c] for c in node.children)
            keys[nid] = _join_keys(node, lschema, rschema)
            schemas[nid] = lschema + rschema
            _tests(node, schemas[nid])
    # The schema positions an operator's reader reads where that reader
    # counts per key, None where it builds pairs; empty where none reads it.
    wanted: dict[int, set[int] | None] = {}
    side: dict[int, int] = {}
    for nid in reversed(index.order):  # every parent before its children
        node = plan.nodes[nid]
        reads = wanted.get(nid, set())
        if index.var[nid] != nid:
            wanted[node.children[0]] = reads
        if nid not in keys:
            continue
        left, right = node.children
        width = len(schemas[left])
        if reads and not node.selections and (max(reads) < width or min(reads) >= width):
            side[nid] = int(min(reads) >= width)
        if node.selections or (nid in index.read and nid not in side):  # builds pairs
            wanted[left] = wanted[right] = None
        else:
            lkeys, rkeys = keys[nid]
            wanted[left] = {i for i in reads if i < width}.union(lkeys)
            wanted[right] = {i - width for i in reads if i >= width}.union(rkeys)
    return side


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: an array a table of shared results
    reaches is read by later plans as it was built."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _int64_column(rows, idx):
    """The values at `idx` as a read-only int64 array, or None where they
    build no exact one: a float, a str or an int beyond int64 gives
    another dtype."""
    try:
        column = np.array(list(map(operator.itemgetter(idx), rows)))
    except ValueError:
        return None
    if column.dtype != np.int64 or column.ndim != 1:
        return None
    return _read_only(column)[0]


def _column(shared, table, idx):
    """`_int64_column` of a table's rows, the table of shared results'
    entry ("column", the table's identity, the position), which holds the
    table (`shared_entry`): None where no exact array builds, as for an
    empty table, and the scan filters in Python."""
    return shared_entry(shared, ("column", id(table), idx), (table,), _int64_column, table.rows, idx)


def _run_scan(node, appearance, bindings, provenance, read, shared) -> AnnotatedResult:
    """`shared` is the table of shared results, or None without one; only
    a scan given one, without provenance, may filter over column arrays
    (`execute`)."""
    table, schema, tests = _scan_input(node, appearance, bindings)
    rows = table.rows
    if shared is not None and not provenance and all(type(val) is int for _, _, val in tests):
        keep = np.ones(len(rows), dtype=bool)
        for idx, op, val in tests:
            column = _column(shared, table, idx)
            if column is None:
                break
            keep &= op(column, val)
        else:
            if read:
                positions, = _read_only(np.flatnonzero(keep))
                return AnnotatedResult(len(positions), schema, None, kept=(table, positions, None))
            return AnnotatedResult(int(np.count_nonzero(keep)), schema, None)
    if not provenance:  # plain rows
        for idx, op, val in tests:  # atom by atom over the rows still kept
            rows = [r for r in rows if op(r[idx], val)]
        return AnnotatedResult(len(rows), schema, list(rows) if read else None)
    kept = range(len(rows))  # positions of the rows still kept
    for idx, op, val in tests:
        kept = [j for j in kept if op(rows[j][idx], val)]
    kept_rows = [rows[j] for j in kept] if read else None
    return AnnotatedResult(len(kept), schema, kept_rows, [(j,) for j in kept])


def _rows(res) -> tuple[list, list | None]:
    """A result's rows and their multiplicities, None where each stands for
    one output row; for a result that keeps them as `kept` arrays, lists
    of the table's tuples and of ints, built once, in table order, into
    `derived`."""
    if res.kept is None:
        return res.rows, res.multiplicity
    table, positions, multiplicity = res.kept
    return res.derive("rows", lambda: ([table.rows[i] for i in positions.tolist()],
                                       None if multiplicity is None else multiplicity.tolist()))


def _tally(rows, pos, multiplicity=None) -> Counter:
    """Rows per join key, the values at `pos`, each row counted by its multiplicity."""
    keys = map(operator.itemgetter(*pos), rows)
    if multiplicity is None:
        return Counter(keys)
    tally: Counter = Counter()
    for key, m in zip(keys, multiplicity):
        tally[key] += m
    return tally


def _hash_rows(rows, lpos) -> dict:
    """A hash table over a join's left rows: their indexes per key, the
    values at `lpos`, each list in row order."""
    lkey = operator.itemgetter(*lpos)
    ht: dict = {}
    for i, row in enumerate(rows):
        ht.setdefault(lkey(row), []).append(i)
    return ht


def _key_counts(values, multiplicity) -> tuple[np.ndarray, np.ndarray]:
    """`_tally` over int64 arrays: the distinct keys, ascending, and the
    rows per key, each row counted by its multiplicity, both int64."""
    if multiplicity is None:
        return _read_only(*np.unique(values, return_counts=True))
    keys, inverse = np.unique(values, return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, multiplicity)
    return _read_only(keys, counts)


def _matches(tally, values) -> np.ndarray:
    """Each value's rows in an array tally (`_key_counts`), 0 where it has
    none: read off a dense table over the keys' span where that span is
    at most the values' count, else found by bisection."""
    keys, counts = tally
    found = np.zeros(len(values), dtype=np.int64)
    if not len(keys):
        return found
    low, high = int(keys[0]), int(keys[-1])
    if high - low <= len(values):
        dense = np.zeros(high - low + 1, dtype=np.int64)
        dense[keys - low] = counts
        inside = (values >= low) & (values <= high)
        found[inside] = dense[values[inside] - low]
        return found
    at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return np.where(keys[at] == values, counts[at], 0)


def _array_join(node, left, right, counted, read, *, columns) -> AnnotatedResult:
    """`_run_join`'s per-key count over int64 column arrays, where it is
    exact: both inputs keep `kept` rows, `columns` holds each one's key
    column over its table (`_column`), and the tally of the `counted`
    input is an array tally (`_key_counts`) of its kept rows' key column,
    built once per result. Every count is an exact int."""
    res, keep = (left, right)[counted], (left, right)[1 - counted]
    pos = _join_keys(node, left.schema, right.schema)[counted][0]
    tally = res.derive(("counts", pos), lambda: _key_counts(columns[counted][res.kept[1]], res.kept[2]))
    table, positions, multiplicity = keep.kept
    matches = _matches(tally, columns[1 - counted][positions])
    if multiplicity is not None:
        matches = matches * multiplicity
    if not read:
        return AnnotatedResult(int(matches.sum()), left.schema + right.schema, None)
    hit = matches != 0
    positions, matches = _read_only(positions[hit], matches[hit])
    return AnnotatedResult(int(matches.sum()), keep.schema, None, kept=(table, positions, matches))


def _run_join(node, left, right, counted, read) -> AnnotatedResult:
    """`counted` is the input, 0 for left or 1 for right, that a join
    counting per key tallies and matches the other input's rows on
    (`execute`); None where the join builds pairs, and lists their
    provenance where its inputs list theirs."""
    lpos, rpos = _join_keys(node, left.schema, right.schema)
    if counted is not None:
        # Weight the other input's rows by their matches on the counted
        # input's tally, which counts each row by its multiplicity and is
        # built once per result.
        inputs = ((left, lpos), (right, rpos))
        (res, pos), (keep, kpos) = inputs[counted], inputs[1 - counted]
        crows, cmultiplicity = _rows(res)
        tally = res.derive(("tally", pos), _tally, crows, pos, cmultiplicity)
        krows, kmultiplicity = _rows(keep)
        matches = map(tally.get, map(operator.itemgetter(*kpos), krows), itertools.repeat(0))
        if kmultiplicity is not None:
            matches = map(operator.mul, matches, kmultiplicity)
        if not read:
            return AnnotatedResult(count=sum(matches), schema=left.schema + right.schema, rows=None)
        matches = list(matches)
        multiplicity = list(filter(None, matches))
        rows = list(itertools.compress(krows, matches))
        return AnnotatedResult(sum(multiplicity), keep.schema, rows, multiplicity=multiplicity)
    # Pairs of whole rows: only a join that counts per key reads a handed-on input.
    schema = left.schema + right.schema
    (lrows, _), (rrows, _) = _rows(left), _rows(right)
    tests = _tests(node, schema, [lrows[0] + rrows[0]] if lrows and rrows else ())
    ht = left.derive(("hash", lpos), _hash_rows, lrows, lpos)
    rkey = operator.itemgetter(*rpos)
    count = 0
    rows: list[tuple] | None = [] if read else None
    provenance = left.provenance is not None  # the inputs, streamed too, list theirs where the execution does
    prov: list | None = [] if provenance else None
    for j, rrow in enumerate(rrows):
        for i in ht.get(rkey(rrow), ()):
            if tests or read:
                out = lrows[i] + rrow
                if tests and not all(op(out[idx], val) for idx, op, val in tests):
                    continue
                if read:
                    rows.append(out)
            count += 1
            if provenance:
                prov.append(left.provenance[i] + right.provenance[j])
    return AnnotatedResult(count, schema, rows, prov)


def execute(plan: Plan, bindings: dict, *, provenance: bool = False, shared=None) -> dict[int, AnnotatedResult]:
    """Evaluate a plan bottom-up and return per-operator results.

    `bindings` maps (relation, appearance) to a Relation, base or sample;
    every leaf appearance must be bound. Every operator reports its count;
    only an operator whose rows a parent reads keeps them: a join's
    children and the child of a read Sort/Materialize (`PlanIndex.read`).
    Sort/Materialize pass their child's result on; Aggregates, and any
    operator above one, report their own `estimate_M` and no rows. Bound
    to empty tables, an execution counts nothing but resolves the columns
    a full one does.

    Without provenance, a join without selection atoms counts per key
    where it is not read, or where its reader counts per key too
    (`_handed_on`). It tallies one input, `counted`, and sums the other
    input's rows' matches in that tally times their multiplicities; a
    read one hands those rows on, each with its product as its
    multiplicity, under their input's schema. `counted` is the other
    side of a handed-on input, else the right input where it is a scan
    result, passed through or not, else the left, so a join of a scan
    and a join tallies the scan. Any other join builds pairs of whole
    rows (`counted` None). That choice is made once per join, here, and
    both join paths read it. Counts are exact integers either way.

    Given a table of shared results and no provenance, each operator
    decides as it runs whether it counts over int64 column arrays. A scan
    whose selection constants are all ints filters over the arrays of the
    columns its atoms read, where each builds an exact one: it counts what
    it keeps, or, where a parent reads it, keeps their positions instead
    of its rows. A per-key join counts over arrays (`_array_join`) where
    both its inputs keep positions, passed through or not, it joins on one
    key column pair whose columns both build exact arrays, and its leaf
    product is below 2**63, which bounds every count and multiplicity it
    makes: a tally is an int64 (key, count) pair (`_key_counts`), the
    other input's kept rows are weighted by a gather on it (`_matches`),
    and a read join hands on their positions and multiplicities as
    arrays. Each keeps them in `AnnotatedResult.kept`. Any other reader of
    such a result, a join in Python per key or in pairs, reads its rows
    and multiplicities through `_rows`: the same rows, in the same order,
    with the same multiplicities as the Python path, so every count is
    equal. Every execution with provenance or without a table (truth
    outside `sharing`, estimation, `generate_workload`'s check) takes the
    Python path.

    With `provenance`, every streamed operator (`PlanIndex.streamed`)
    enumerates its output and lists, per row, read or not, the positions
    of its rows in their bound tables, one per leaf table of the subtree,
    in the order the rows are produced; a kept row is at the same index
    as its provenance. Without it, no provenance is built.

    `shared` is a table of shared results (`shared_entry` states its
    rule), or None, so that everything is computed and nothing kept. Only
    a scan or join a parent reads is stored there; any other, the root
    included, is never reused, so never stored. A read result's key is
    ("read", its inputs' identities: the bound table's or its two input
    results', its `PlanIndex.read_keys` entry, the input it hands on
    (`_handed_on`; None for a scan or for pairs), `provenance`); its entry
    holds those inputs and the result, whose rows or kept arrays are what
    its reader reads, and a full relation's entries never meet a sample
    table's. A scan without provenance whose constants are all ints
    filters over the read-only int64 array of each column its atoms read
    (`_column`), only in an execution given a table: an array built for
    one scan alone costs about twice the Python filter; the joins that
    count over arrays read the same entries for their key columns. What is
    built from a result alone lives on it (`AnnotatedResult.derive`): rows
    from its kept positions, a join's hash table over its left input or
    tally of its counted input, in Python or over arrays, and `selest`'s
    counters. A hit is bitwise a fresh build: a result is never mutated,
    so every count, row, multiplicity and provenance list is unchanged; a
    hash table lists each left row's index per key in row order, so the
    same rows match in the same order; tallies, column arrays and kept
    positions and multiplicities are exact, and every array is read-only.
    """
    index = plan.index
    side = {} if provenance else _handed_on(plan, bindings)
    results: dict[int, AnnotatedResult] = {}
    for nid in index.order:
        node = plan.nodes[nid]
        if nid in index.agg_above:  # before pass-through: a Sort up here reports its own estimate_M
            res = AnnotatedResult(count=node.estimate_M, schema=None, rows=None)
        elif nid in index.appearance:
            appearance = index.appearance[nid]
            if nid not in index.read:  # no parent reads it (a root, an aggregate's input): never stored
                res = _run_scan(node, appearance, bindings, provenance, False, shared)
            else:
                table = bindings.get(appearance)
                res = shared_entry(shared, ("read", (id(table),), index.read_keys[nid], None, provenance), (table,),
                                   _run_scan, node, appearance, bindings, provenance, True, shared)
        elif index.var[nid] != nid:
            res = results[node.children[0]]  # pass-through: the child's result itself
        else:
            (left, right), read, hand = node.children, nid in index.read, side.get(nid)
            lres, rres = results[left], results[right]
            if hand is not None:
                counted = 1 - hand
            elif provenance or node.selections or read:
                counted = None  # pairs
            else:
                counted = int(index.var[right] in index.appearance)
            join = _run_join
            if (counted is not None and lres.kept is not None and rres.kept is not None and len(node.join_columns[0]) == 1
                    and math.prod(len(bindings[app].rows) for app in index.leaves[nid]) < 2**63):
                (lpos,), (rpos,) = _join_keys(node, lres.schema, rres.schema)
                if ((lcolumn := _column(shared, lres.kept[0], lpos)) is not None
                        and (rcolumn := _column(shared, rres.kept[0], rpos)) is not None):
                    join = functools.partial(_array_join, columns=(lcolumn, rcolumn))
            if not read:  # no parent reads it: never stored
                res = join(node, lres, rres, counted, read)
            else:
                key = ("read", (id(lres), id(rres)), index.read_keys[nid], hand, provenance)
                res = shared_entry(shared, key, (lres, rres), join, node, lres, rres, counted, read)
        results[nid] = res
    return results


def leaf_products(plan: Plan, relations) -> dict[int, int]:
    """Every node's product of the row counts of its leaf relations, exact.
    A relation the plan names that `relations` lacks is an ExecutionError
    naming it: truth, the probe oracle and actual runtimes all read their
    relations here first."""
    try:
        return {nid: math.prod(relations[rel].row_count for rel, _ in leaves)
                for nid, leaves in plan.index.leaves.items()}
    except KeyError as exc:
        raise ExecutionError(f"relation {exc.args[0]!r} is not among the relations {sorted(relations)}") from None


# The table of shared results that `selectivity_truth` hands to `execute`
# and the harness's probe oracle keeps its replies in, set only inside
# `sharing`. A scope, not a parameter: every caller of truth or of the
# oracle, and any wrapper of them, calls them with their own arguments.
_SHARED = contextvars.ContextVar("shared", default=None)


@contextlib.contextmanager
def sharing(table: dict):
    """Within the block, `selectivity_truth` shares `table` (`execute`'s
    `shared`) and `shared_table` returns it, so that a harness probe
    oracle made there keeps its replies in it; truth shares nothing
    again when the block exits, also on an exception."""
    token = _SHARED.set(table)
    try:
        yield
    finally:
        _SHARED.reset(token)


def shared_table():
    """The table of the enclosing `sharing` block, or None outside one."""
    return _SHARED.get()


def selectivity_truth(plan: Plan, relations: dict[str, "object"]) -> dict[int, float]:
    """True selectivity of every operator: output count over the product of
    its base leaf-table sizes, from one execution over the full relations
    without provenance. Its counts are exact integers: a join is counted
    through per-key multiplicities where `execute` can, and builds pairs
    of whole rows elsewhere. Inside `sharing(table)` the execution shares
    `table` (`execute`); outside it, nothing is shared."""
    index = plan.index
    products = leaf_products(plan, relations)
    for nid, (rel, _) in index.appearance.items():
        if products[nid] == 0:
            raise ExecutionError(f"relation {rel!r} is empty; selectivity undefined (degenerate input)")
    bindings = {app: relations[app[0]] for app in index.appearance.values()}
    results = execute(plan, bindings, shared=shared_table())
    return {nid: results[nid].count / products[nid] for nid in index.order}
