"""Per-stage prediction and harness time of two source trees, interleaved per plan.

    python tools/ab_stages.py OLD_SRC NEW_SRC [--reps 15]

OLD_SRC and NEW_SRC each hold a `runtimedist` package, e.g. the `src` of a
`git archive` of the parent commit and this tree's `src`. Both are imported
into one process under other names. Each builds the test suite's study
(seed 42: 200 plans, n = 25, W = 10), and every plan is predicted by both
trees, in alternating order, through the four calls the benchmark's study
pass times: `estimate_all`, `fit_all_cost_functions`, `expected_time` and
`variance_time`. Each plan's actual runtime then follows, as that pass
computes it: ground truth (`selectivity_truth`), and five simulated runs
through `simulate_actual_runtime(..., truth=...)`, seeded i * 1000 + r for
plan i, averaged. The two trees' means, variances and actual runtimes must
be bitwise equal.

Then each tree runs the CLI set-up of the benchmark's bigrel workload,
`gen-world`, `gen-workload` and `calibrate` through its `cli.dispatch`, at
its config (seed 42, `relation_size` 8000, `key_domain` 800), each tree in
its own temporary directory and in alternating order. Every file the two
trees write must be byte-identical, the workload manifest's plan paths
compared without their directory.

Per stage it prints each tree's microseconds per plan (the median over the
repetitions) and the median of the per-repetition ratios NEW/OLD, with the
number of repetitions in which NEW was faster; the set-up stages are printed
the same way in milliseconds per run. "total" is the whole prediction, the
four prediction stages without the harness's two, and "set-up" the three
subcommands. Timing both trees in one process, plan by plan, keeps a shared
machine's drift out of the ratio. The timed repetitions run with the cyclic
garbage collector off, so a collection triggered by one tree's allocations
is not charged to the other's stage.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
import warnings

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread setting)

STAGES = ("estimate", "fit", "mean", "variance")
HARNESS = ("truth", "simulate")
RUNS = 5  # simulated runs per plan, as in the benchmark's study pass
SETUP = ("gen-world", "gen-workload", "calibrate")
SETUP_CONFIG = {"seed": 42, "relation_size": 8000, "key_domain": 800}  # the benchmark's bigrel
MODULES = ("calib", "cli", "plan", "propagate", "selest", "simeval", "store")


def load(src, name):
    """The `runtimedist` package under `src`, imported as `name`."""
    path = os.path.join(src, "runtimedist")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def study(pkg, seed=42):
    """Inputs and parsed plans of the test suite's study fixture."""
    sim = pkg["simeval"]
    relations = sim.generate_database(seed, sizes=(500, 2000, 8000))
    world = sim.TrueCostWorld.generate(seed)
    units = pkg["calib"].fit_cost_units(world.calibration_records(50, seed=seed))
    pool = pkg["store"].build_pool(relations, n=25, pool_size=2, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans, _ = sim.generate_workload(sim.WorkloadSpec.grid(80, 80, 40, seed=seed), relations)
    return relations, world, units, pool, [p for _, p in plans]


def predict(pkg, inputs, i, spent):
    """Predict plan i and simulate its actual runtime, adding each stage's
    seconds to `spent`."""
    relations, world, units, pool, plans = inputs
    plan, prop, sim = plans[i], pkg["propagate"], pkg["simeval"]
    oracle = world.cost_oracle(plan, relations)
    t0 = time.perf_counter()
    est = pkg["selest"].estimate_all(plan, pool, relations)
    t1 = time.perf_counter()
    fitted = prop.fit_all_cost_functions(plan, est, oracle, W=10)
    t2 = time.perf_counter()
    mean = prop.expected_time(plan, fitted, est, units)
    t3 = time.perf_counter()
    var = prop.variance_time(plan, fitted, est, units)[0]
    t4 = time.perf_counter()
    truth = pkg["plan"].selectivity_truth(plan, relations)
    t5 = time.perf_counter()
    actual = float(np.mean([sim.simulate_actual_runtime(plan, relations, world, seed=i * 1000 + r, truth=truth)
                            for r in range(RUNS)]))
    t6 = time.perf_counter()
    for stage, seconds in zip(STAGES + HARNESS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)):
        spent[stage] += seconds
    return mean.hex(), var.hex(), actual.hex()


def setup(pkg, root, spent):
    """Run the set-up subcommands through the tree's `cli.dispatch` under
    `root`, adding each one's seconds to `spent`."""
    cfg = os.path.join(root, "setup.cfg")
    with contextlib.redirect_stdout(io.StringIO()):
        for command in SETUP:
            t0 = time.perf_counter()
            code = pkg["cli"].dispatch([command, "--config", cfg])
            spent[command] += time.perf_counter() - t0
            if code:
                sys.exit(f"{command} exited {code} under {root}")


def written(root):
    """Each file the set-up wrote under `root`, by relative path, to its
    bytes; the manifest's with `root` removed from its plan paths."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            if path == os.path.join(root, "setup.cfg"):
                continue
            with open(path, "rb") as fh:
                text = fh.read()
            files[os.path.relpath(path, root)] = text.replace(root.encode(), b"") if name == "manifest.json" else text
    return files


def report(header, unit, stages, runs, reps, scale):
    print(f"{header:12s} {'old ' + unit:>12s} {'new ' + unit:>12s} {'new/old':>8s}  new faster")
    for stage in stages:
        old_s = [r[stage] for r in runs["old"]]
        new_s = [r[stage] for r in runs["new"]]
        ratios = [b / a for a, b in zip(old_s, new_s)]
        print(f"{stage:12s} {statistics.median(old_s) * scale:12.1f} {statistics.median(new_s) * scale:12.1f} "
              f"{statistics.median(ratios):8.3f}  {sum(r < 1.0 for r in ratios)}/{reps}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--reps", type=int, default=15)
    args = ap.parse_args(argv)
    old, new = load(args.old_src, "rd_old"), load(args.new_src, "rd_new")
    inputs = {"old": study(old), "new": study(new)}
    pkgs = {"old": old, "new": new}
    count = len(inputs["old"][4])
    spent = {side: dict.fromkeys(STAGES + HARNESS, 0.0) for side in pkgs}
    for i in range(count):  # untimed: first-use costs, and the bitwise check
        got = {side: predict(pkgs[side], inputs[side], i, spent[side]) for side in pkgs}
        if got["old"] != got["new"]:
            sys.exit(f"plan {i}: (mean, variance, actual runtime) {got['old']} before, {got['new']} after")
    with tempfile.TemporaryDirectory() as old_root, tempfile.TemporaryDirectory() as new_root:
        roots = {"old": old_root, "new": new_root}
        for side, root in roots.items():  # untimed: makes the directories, and the byte check
            settings = {"data_dir": os.path.join(root, "data"), "out_dir": os.path.join(root, "out"), **SETUP_CONFIG}
            with open(os.path.join(root, "setup.cfg"), "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in settings.items())
            setup(pkgs[side], root, dict.fromkeys(SETUP, 0.0))
        old_files, new_files = (written(root) for root in roots.values())
        differ = sorted(p for p in old_files.keys() | new_files.keys() if old_files.get(p) != new_files.get(p))
        if differ:
            sys.exit(f"set-up files differ: {differ[:5]} ({len(differ)} in all)")
        runs = {side: [] for side in pkgs}
        setup_runs = {side: [] for side in pkgs}
        gc.collect()
        gc.disable()
        try:
            for rep in range(args.reps):
                spent = {side: dict.fromkeys(STAGES + HARNESS, 0.0) for side in pkgs}
                for i in range(count):
                    for side in (("old", "new") if (i + rep) % 2 else ("new", "old")):
                        predict(pkgs[side], inputs[side], i, spent[side])
                for side in pkgs:
                    spent[side]["total"] = sum(spent[side][s] for s in STAGES)
                    runs[side].append(spent[side])
            for rep in range(args.reps):
                spent = {side: dict.fromkeys(SETUP, 0.0) for side in pkgs}
                for side in (("old", "new") if rep % 2 else ("new", "old")):
                    setup(pkgs[side], roots[side], spent[side])
                for side in pkgs:
                    spent[side]["set-up"] = sum(spent[side].values())
                    setup_runs[side].append(spent[side])
        finally:
            gc.enable()
    report("stage", "us/plan", STAGES + ("total",) + HARNESS, runs, args.reps, 1e6 / count)
    print()
    report("set-up", "ms/run", SETUP + ("set-up",), setup_runs, args.reps, 1e3)


if __name__ == "__main__":
    main()
