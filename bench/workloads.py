"""The benchmark's workloads and the passes that evaluate them.

A pass of `study` or `chain` calls the package's public functions itself,
in the order `simeval.evaluate_workload` uses, each inside `tr.span(...)`,
so the traced pass sees each layer boundary and the untraced pass pays one
shared no-op context manager per call. Its outputs are bitwise those of the
package's own evaluation path; `reference.py` records the latter and
`run.py` compares. A pass of `bigrel` is the `runtimedist evaluate`
subcommand itself, with the package functions it calls wrapped for the
pass.

A workload's inputs come from its *variant*, `seed % VARIANTS`: the
stored references cover exactly those variants, so every seed is checked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from runtimedist import calib, cli, plan as planmod, propagate, selest, simeval, store

VARIANTS = 10
BASE_SEED = 42  # variant 0 is the seed of the test suite's study fixture

# Input sizes. "tiny" exists for the benchmark's own test.
SCALES = {
    "full": {
        "study": {"sizes": (500, 2000, 8000), "n": 25, "J": 2, "W": 10, "runs": 5,
                  "scans": 80, "joins": 80, "joins3": 40},
        "chain": {"rows": 2000, "relations": 16, "n": 200, "W": 10, "key_domain": 50,
                  "scan_sel": 0.25, "mix": ((3, 12), (5, 9), (8, 6), (12, 3))},
        "bigrel": {"relation_size": 8000, "key_domain": 800},
    },
    "tiny": {
        "study": {"sizes": (60, 80, 100), "n": 10, "J": 2, "W": 4, "runs": 2,
                  "scans": 6, "joins": 4, "joins3": 2},
        "chain": {"rows": 120, "relations": 4, "n": 30, "W": 4, "key_domain": 10,
                  "scan_sel": 0.5, "mix": ((3, 1), (4, 1))},
        "bigrel": {"relation_size": 150, "key_domain": 15, "scan_count": 6,
                   "join_count": 4, "join3_count": 1, "calib_reps": 10, "runs": 2},
    },
}


def input_seed(seed: int) -> int:
    return BASE_SEED + seed % VARIANTS


@dataclass
class Inputs:
    """What one evaluation pass of study or chain needs besides the plans."""

    relations: dict
    pool: object
    world: simeval.TrueCostWorld
    units: calib.CostUnitModel
    W: int
    runs: int


@dataclass
class Workload:
    # (label, plan document text); for bigrel (label, plan file path) as in
    # the manifest `gen-workload` wrote.
    plans: list
    # study and chain: callable(tr) -> Inputs, run at the start of every
    # pass so that no pass reuses another's relations or pool.
    load: object = None
    # bigrel: the directory of its CLI config, data and output files.
    workdir: str | None = None


@dataclass
class PlanResult:
    label: str
    mean: float
    var: float
    stddev: float
    actual: float | None
    predict_s: float  # estimate, fit and propagate
    tick: int = -1  # the speed gauge's tick taken just before the prediction


def prediction_counts(est, fitted, entries, flags) -> dict:
    """Per-layer counts of one prediction, from what it returned."""
    terms = [cf for per in fitted.values() for cf in per.values()]
    return {
        "terms": len(terms),
        "c1_terms": sum(cf.tag == "C1" for cf in terms),
        "degenerate": sum(cf.degenerate for cf in terms),
        "prov_rows": sum(e.count for e in est.values() if e.source in ("scan-closed-form", "q-scan")),
        "cov_entries": len(entries),
        "bound_entries": sum(e.kind != "direct" for e in entries),
        "bound_dominated": int("bound-dominated" in flags),
    }


def truth_rows(p, rels, truth) -> int:
    """Output rows summed over the plan's operators, from the true selectivities."""
    return round(sum(
        truth[nid] * math.prod(rels[r].row_count for r, _ in planmod.leaf_tables(p, nid))
        for nid in truth))


def pool_rows(pool) -> int:
    return sum(len(t.rows) for ts in pool.tables.values() for t in ts)


# ---------------------------------------------------------------------------
# study: the paper's 200-query methodology study (tests/conftest.py::study).
# Stresses the whole evaluation loop at once: fitting and ground truth each
# take about half, so it shows a trade between the two.


def study_spec(cfg, seed):
    scan_targets = list(np.linspace(0.05, 0.95, cfg["scans"]))
    side = int(round(math.sqrt(cfg["joins"])))
    grid = np.linspace(0.1, 0.9, side)
    join_targets = [(float(a), float(b)) for a in grid for b in grid][: cfg["joins"]]
    side3 = round(cfg["joins3"] ** (1.0 / 3.0))
    grid3 = np.linspace(0.2, 0.8, side3 + 1)
    three = [(float(a), float(b), float(c)) for a in grid3 for b in grid3 for c in grid3]
    return simeval.WorkloadSpec(
        scan_targets=scan_targets, join_targets=join_targets,
        three_way_targets=three[: cfg["joins3"]], seed=seed,
    )


def build_inputs(tr, s, db, n, J, W, runs) -> Inputs:
    """Database, hidden cost world, calibrated units and sample pool, all
    from seed `s`; `db` are the keyword arguments of `generate_database`."""
    with tr.span("simeval.generate_database"):
        relations = simeval.generate_database(s, **db)
    with tr.span("simeval.TrueCostWorld.generate"):
        world = simeval.TrueCostWorld.generate(s)
    with tr.span("simeval.calibration_records"):
        records = world.calibration_records(50, seed=s)
    with tr.span("calib.fit_cost_units"):
        units = calib.fit_cost_units(records)
    with tr.span("store.build_pool"):
        pool = store.build_pool(relations, n=n, pool_size=J, seed=s)
    return Inputs(relations, pool, world, units, W=W, runs=runs)


def setup_study(tr, seed, scale="full") -> Workload:
    cfg = SCALES[scale]["study"]
    s = input_seed(seed)

    def load(tr):
        return build_inputs(tr, s, {"sizes": cfg["sizes"]}, cfg["n"], cfg["J"], cfg["W"], cfg["runs"])

    relations = load(tr).relations
    with tr.span("simeval.generate_workload"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans, _ = simeval.generate_workload(study_spec(cfg, s), relations)
    return Workload([(label, planmod.serialize_plan(p)) for label, p in plans], load=load)


# ---------------------------------------------------------------------------
# chain: predict only, left-deep join chains of 3, 5, 8 and 12 relations.
# Stresses fitting and covariance propagation, which grow with plan depth;
# there is no ground truth (full-data truth of a 12-way chain does not fit
# in memory), so a faster executor or truth path should change nothing here.
# A pass is 30 distinct chains, 12/9/6/3 of the four lengths, so that p50
# falls inside the 5-relation plans and p95 inside the 12-relation ones,
# not on the boundary between two lengths. Join kinds rotate along each
# chain, and each chain starts at another of the 16 relations.

JOIN_KINDS = ("HashJoin", "NestLoopJoin", "MergeJoin")


def chain_plan(relations, names, rotation, scan_sel) -> str:
    nodes = []
    for i, name in enumerate(names, start=1):
        vals = sorted(relations[name].column(f"{name}_val"))
        thr = vals[min(int(round(scan_sel * len(vals))), len(vals) - 1)]
        nodes.append({"id": i, "kind": "SeqScan", "relation": name, "children": [],
                      "predicate": [{"col": f"{name}_val", "op": "<", "value": int(thr)}]})
    left = 1
    for j in range(2, len(names) + 1):
        nid = 100 + j
        # prev.key2 = next.key makes a path, so each sample join keeps
        # about as many rows as it reads.
        nodes.append({"id": nid, "kind": JOIN_KINDS[(j + rotation) % len(JOIN_KINDS)],
                      "children": [left, j],
                      "predicate": [{"left": f"{names[j - 2]}_key2", "right": f"{names[j - 1]}_key"}]})
        left = nid
    return json.dumps({"nodes": nodes, "root": left})


def setup_chain(tr, seed, scale="full") -> Workload:
    cfg = SCALES[scale]["chain"]
    s = input_seed(seed)
    count = cfg["relations"]
    db = {"sizes": (cfg["rows"],) * count, "key_domain": cfg["key_domain"]}

    def load(tr):
        return build_inputs(tr, s, db, cfg["n"], 1, cfg["W"], runs=0)

    relations = load(tr).relations
    plans = []
    for length, repeat in cfg["mix"]:
        for i in range(repeat):
            start = (5 * len(plans)) % count
            names = [f"r{(start + k) % count + 1}" for k in range(length)]
            plans.append((f"chain{length}-{i}", chain_plan(relations, names, i, cfg["scan_sel"])))
    return Workload(plans, load=load)


# ---------------------------------------------------------------------------
# bigrel: the CLI pipeline as a user runs it, over 8000-row relations.
# Set-up runs the gen-world, gen-workload and calibrate subcommands; a pass
# is the evaluate subcommand, CSV ingest included. Ground truth over full
# relations (executor without provenance) is most of a pass, against study
# and chain whose executor runs over tiny sample tables with provenance.


@contextlib.contextmanager
def _patched(targets):
    """Replace each `owner.attr` by `wrap(owner.attr)`; restore after."""
    saved = []
    try:
        for owner, attr, wrap in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrap(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _spanned(tr, name):
    def wrap(fn):
        def traced(*a, **kw):
            with tr.span(name):
                return fn(*a, **kw)
        return traced
    return wrap


# Functions the subcommands call internally, traced so their inner layers
# show: (owner, attribute, span name).
_CLI_SETUP = [
    (simeval, "generate_database", "simeval.generate_database"),
    (simeval, "generate_workload", "simeval.generate_workload"),
    (planmod, "selectivity_truth", "plan.selectivity_truth"),
    (calib, "fit_cost_units", "calib.fit_cost_units"),
]
_CLI_EVALUATE = [
    (cli, "load_relations", "store.load_relations"),
    (cli, "load_world", "cli.load_world"),
    (cli, "load_units", "cli.load_units"),
    (planmod, "parse_plan", "plan.parse_plan"),
    (simeval, "evaluate_workload", "simeval.evaluate_workload"),
    (selest, "estimate_all", "selest.estimate_all"),
    (propagate, "fit_all_cost_functions", "costfit.fit_all_cost_functions"),
    (propagate, "expected_time", "propagate.expected_time"),
    (propagate, "variance_time", "propagate.variance_time"),
    (simeval, "actual_runtime", "simeval.actual_runtime"),
    (simeval, "simulate_actual_runtime", "simeval.simulate_actual_runtime"),
]


def _evaluate_hooks(tr, gauge, latencies, ticks, counts):
    """Wrappers for one `runtimedist evaluate`. `predict_distribution` is
    always wrapped, to time each plan's prediction, after a tick of the
    speed gauge when one is given. When tracing, the
    public calls inside get spans, the probe oracle gets a span per call,
    and truth, pool and predictions add their counts."""

    def predict(fn):
        def timed(*a, **kw):
            ticks.append(gauge.tick() if gauge else -1)
            t0 = time.perf_counter()
            with tr.span("propagate.predict_distribution"):
                out = fn(*a, **kw)
            latencies.append(time.perf_counter() - t0)
            if tr.enabled:
                dist, est, fitted, entries = out
                counts.update(prediction_counts(est, fitted, entries, dist.flags))
            return out
        return timed

    if not tr.enabled:
        return [(propagate, "predict_distribution", predict)]

    def truth(fn):
        def traced(p, rels):
            with tr.span("plan.selectivity_truth"):
                out = fn(p, rels)
            counts["truth_rows"] += truth_rows(p, rels, out)
            return out
        return traced

    def pool(fn):
        def traced(*a, **kw):
            with tr.span("store.build_pool"):
                out = fn(*a, **kw)
            counts["sample_rows"] += pool_rows(out)
            return out
        return traced

    def oracle(fn):
        def traced(world, p, rels):
            return tr.wrap_oracle(fn(world, p, rels), None)
        return traced

    return [(owner, attr, _spanned(tr, name)) for owner, attr, name in _CLI_EVALUATE] + [
        (propagate, "predict_distribution", predict),
        (planmod, "selectivity_truth", truth),
        (store, "build_pool", pool),
        (simeval.TrueCostWorld, "cost_oracle", oracle),
    ]


def _cli(tr, workdir, *argv):
    cfg = os.path.join(workdir, "bigrel.cfg")
    with tr.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(list(argv) + ["--config", cfg])
    if code != 0:
        raise RuntimeError(f"runtimedist {argv[0]} exited with {code}")


def setup_bigrel(tr, seed, workdir, scale="full") -> Workload:
    os.makedirs(workdir, exist_ok=True)
    settings = {
        "data_dir": os.path.join(workdir, "data"),
        "out_dir": os.path.join(workdir, "out"),
        "seed": input_seed(seed),
        **SCALES[scale]["bigrel"],
    }
    with open(os.path.join(workdir, "bigrel.cfg"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in settings.items())
    hooks = [(owner, attr, _spanned(tr, name)) for owner, attr, name in _CLI_SETUP] if tr.enabled else []
    with _patched(hooks):
        for sub in ("gen-world", "gen-workload", "calibrate"):
            _cli(tr, workdir, sub)
    with open(os.path.join(workdir, "out", "workload", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return Workload([(rec["label"], rec["path"]) for rec in manifest["plans"]], workdir=workdir)


def cli_pass(tr, wl: Workload, plans=None, gauge=None):
    """One `runtimedist evaluate`, over `plans` only when given (the
    warm-up). Each plan's mean, stddev and actual runtime and the quality
    metrics are read from the files the command writes."""
    argv = ["evaluate"]
    if plans is not None:
        path = os.path.join(wl.workdir, "subset.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"plans": [{"label": label, "path": p} for label, p in plans]}, fh)
        argv += ["--workload", path]
    latencies, ticks, counts = [], [], Counter()
    with tr.span("bench.pass"), _patched(_evaluate_hooks(tr, gauge, latencies, ticks, counts)):
        _cli(tr, wl.workdir, *argv)
    out = os.path.join(wl.workdir, "out")
    with open(os.path.join(out, "evaluation.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if len(rows) != len(latencies):
        raise RuntimeError(f"{len(rows)} plans in evaluation.csv, {len(latencies)} predicted")
    results = [
        PlanResult(r["plan_id"], float(r["mean"]), float(r["stddev"]) ** 2, float(r["stddev"]),
                   float(r["actual"]), predict_s, tick)
        for r, predict_s, tick in zip(rows, latencies, ticks)
    ]
    return results, {k: summary[k] for k in ("r_p", "r_s", "d_bar")}, counts


# ---------------------------------------------------------------------------
# The study and chain pass.


def evaluate_plan(tr, inputs: Inputs, idx: int, label: str, text: str, counts: Counter,
                  gauge=None) -> PlanResult:
    """Predict one plan and, when the workload has ground truth, simulate
    its actual runtime: `predict_distribution` then `actual_runtime`. A
    tick of the speed gauge, when given, comes just before the prediction."""
    rels, pool, world, units = inputs.relations, inputs.pool, inputs.world, inputs.units
    with tr.span("plan.parse_plan", label):
        p = planmod.parse_plan(text)
    oracle = tr.wrap_oracle(world.cost_oracle(p, rels), label)
    tick = gauge.tick() if gauge else -1
    t0 = time.perf_counter()
    with tr.span("selest.estimate_all", label):
        est = selest.estimate_all(p, pool, rels)
    with tr.span("costfit.fit_all_cost_functions", label):
        fitted = propagate.fit_all_cost_functions(p, est, oracle, W=inputs.W)
    with tr.span("propagate.expected_time", label):
        mean = propagate.expected_time(p, fitted, est, units)
    with tr.span("propagate.variance_time", label):
        var, _, entries, flags = propagate.variance_time(p, fitted, est, units, policy="all")
    predict_s = time.perf_counter() - t0
    dist = propagate.RunningTimeDistribution(mean=mean, variance=var)
    actual = None
    if inputs.runs:
        with tr.span("plan.selectivity_truth", label):
            truth = planmod.selectivity_truth(p, rels)
        draws = []
        for r in range(inputs.runs):
            with tr.span("simeval.simulate_actual_runtime", label):
                draws.append(simeval.simulate_actual_runtime(
                    p, rels, world, seed=idx * 1000 + r, truth=truth))
        actual = float(np.mean(draws))
    if tr.enabled:
        counts.update(prediction_counts(est, fitted, entries, flags))
        if inputs.runs:
            counts["truth_rows"] += truth_rows(p, rels, truth)
    return PlanResult(label, mean, var, dist.stddev, actual, predict_s, tick)


def summarize(tr, results) -> dict:
    """r_p, r_s and D-bar over the pass, as `evaluate_workload` computes them."""
    with tr.span("simeval.summary"):
        records = [simeval.EvalRecord(r.label, r.mean, r.stddev, r.actual) for r in results]
        usable = [r for r in records if r.predicted_stddev > 0.0]
        sigmas = [r.predicted_stddev for r in usable]
        errors = [r.error for r in usable]
        _, dbar, _ = simeval.error_distribution_distance(usable)
        return {
            "r_p": simeval.pearson(sigmas, errors),
            "r_s": simeval.spearman(sigmas, errors),
            "d_bar": dbar,
        }


def run_pass(tr, wl: Workload, plans=None, gauge=None):
    """One evaluation of the workload, over `plans` only when given:
    (per-plan results, r_p/r_s/D-bar or None without ground truth, the
    pass's per-layer counts, filled only when tracing). With a speed
    gauge, each prediction is preceded by one tick."""
    if wl.workdir is not None:
        return cli_pass(tr, wl, plans, gauge)
    counts = Counter()
    with tr.span("bench.pass"):
        inputs = wl.load(tr)
        results = [
            evaluate_plan(tr, inputs, idx, label, text, counts, gauge)
            for idx, (label, text) in enumerate(wl.plans if plans is None else plans)
        ]
        summary = summarize(tr, results) if inputs.runs else None
    if tr.enabled:
        counts["sample_rows"] = pool_rows(inputs.pool)
    return results, summary, counts


SETUPS = {"study": setup_study, "chain": setup_chain, "bigrel": setup_bigrel}
