"""Record the benchmark's reference outputs from the package's own paths.

    python3 bench/reference.py [--workload study ...]

Run from the repository root. For each workload variant it builds the same
inputs as `run.py` and evaluates them the way the package does itself:
`simeval.evaluate_workload` plus `propagate.predict_distribution` for
study, `predict_distribution` for chain, and the `runtimedist evaluate`
subcommand for bigrel. It writes per-plan [mean, variance, actual] and
r_p / r_s / D-bar to bench/reference/<workload>.json. Re-record only when
a change is meant to alter the predictor's outputs, and say so.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import sys

import run


def record(workload, seed, scale="full"):
    """Reference of one variant: {"plans": {label: [mean, var, actual]}, "summary": {...}}."""
    import workloads
    from runtimedist import cli, plan as planmod, propagate, simeval
    from tracer import NullTracer

    tr = NullTracer()
    if workload == "bigrel":
        workdir = os.path.join(run.WORK_DIR, f"reference-{seed}-{os.getpid()}")
        try:
            w = workloads.setup_bigrel(tr, seed, workdir, scale)
            cfg = os.path.join(workdir, "bigrel.cfg")
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.dispatch(["evaluate", "--config", cfg]) != 0:
                    raise RuntimeError("runtimedist evaluate failed")
            out = os.path.join(workdir, "out")
            with open(os.path.join(out, "evaluation.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        plans = {
            r["plan_id"]: [float(r["mean"]), float(r["stddev"]) ** 2, float(r["actual"])]
            for r in rows
        }
        return {"plans": plans, "summary": {k: summary[k] for k in ("r_p", "r_s", "d_bar")}}

    w = workloads.SETUPS[workload](tr, seed, scale)
    inputs = w.load(tr)
    parsed = [(label, planmod.parse_plan(text)) for label, text in w.plans]
    dists = {}
    for label, p in parsed:
        oracle = inputs.world.cost_oracle(p, inputs.relations)
        dist, _, _, _ = propagate.predict_distribution(
            p, inputs.pool, inputs.relations, inputs.units, oracle=oracle, W=inputs.W)
        dists[label] = dist
    if not inputs.runs:
        return {"plans": {k: [d.mean, d.variance, None] for k, d in dists.items()}, "summary": {}}
    records, summary = simeval.evaluate_workload(
        parsed, inputs.relations, inputs.pool, inputs.units, inputs.world,
        W=inputs.W, runs=inputs.runs)
    plans = {}
    for rec in records:
        d = dists[rec.plan_id]
        if rec.predicted_mean != d.mean:
            raise RuntimeError(f"{rec.plan_id}: evaluate_workload and predict_distribution disagree")
        plans[rec.plan_id] = [d.mean, d.variance, rec.actual]
    return {"plans": plans, "summary": {k: summary[k] for k in ("r_p", "r_s", "d_bar")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("study", "chain", "bigrel"), action="append")
    args = ap.parse_args(argv)
    run.load_package()
    import workloads

    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or ("study", "chain", "bigrel"):
        doc = {"variants": {}}
        for v in range(workloads.VARIANTS):
            ref = doc["variants"][str(v)] = record(name, v)
            print(f"{name} variant {v}: {len(ref['plans'])} plans {ref['summary']}", flush=True)
        with open(os.path.join(run.REFERENCE_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
