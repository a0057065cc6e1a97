"""Per-stage prediction and harness time of two source trees, interleaved per plan.

    python tools/ab_stages.py OLD_SRC NEW_SRC [--reps 15]

OLD_SRC and NEW_SRC each hold a `runtimedist` package, e.g. the `src` of a
`git archive` of the parent commit and this tree's `src`. Each repetition
imports both into one process under other names, in alternating order, and
each builds the test suite's study (seed 42: 200 plans, n = 25, W = 10) in
the same order. Every plan is predicted by both trees, once untimed and
once timed, in alternating order, through the four calls the benchmark's
study pass times: `estimate_all`, `fit_all_cost_functions`, `expected_time`
and `variance_time`. The fit stage also makes the plan's probe oracle
(`TrueCostWorld.cost_oracle`), which `evaluate_workload` pays per plan, so
work moved into the oracle's construction still shows in a stage. Each
plan's actual runtime then follows, as that pass computes it: ground truth
(`selectivity_truth`), and five simulated runs through
`simulate_actual_runtime(..., truth=...)`, seeded i * 1000 + r for plan i,
averaged. The two trees' means, variances and actual runtimes must be
bitwise equal.

Those calls share nothing across plans. So each tree then runs
`evaluate_workload` once over the same study, as `runtimedist evaluate`
does: one call that predicts every plan with the table of results its
plans share and averages five simulated runs per plan, the two trees in
the repetition's order. Its records, every plan's mean, stddev, actual
runtime and flags, must be bitwise equal between the trees. The study's
relations are too small for the harness's full-data work to weigh as it
does in the benchmark's bigrel workload, so each tree then runs
`evaluate_workload` the same way over the bigrel shape, as `runtimedist
evaluate` runs it there: 200 plans (`WorkloadSpec.grid(80, 80, 40,
seed=42)`) over three 8000-row relations (`generate_database(42,
sizes=(8000,) * 3, key_domain=800)`), the world
`TrueCostWorld.generate(42)`, units fitted from
`calibration_records(50, seed=42)` and the CLI's pool there (n = 400,
pool size 2): the "evaluate, 8000 rows" stage, its records checked
bitwise as above. Each tree then takes every plan's ground truth once
more inside one `plan.sharing` table, as that call does, the trees in
the repetition's order: the "truth, shared" stage, beside the unshared
"truth"; and the same over the bigrel shape, where the per-key joins
count over column arrays, inside one `plan.sharing` table of its own:
the "truth, shared, 8000 rows" stage. Every selectivity of both must be
bitwise equal between the trees.

Then each tree runs the CLI set-up of the benchmark's bigrel workload,
`gen-world`, `gen-workload` and `calibrate` through its `cli.dispatch`, at
its config (seed 42, `relation_size` 8000, `key_domain` 800), each tree in
its own temporary directory, once untimed and eight times timed: each
subcommand runs in both trees, one right after the other, in the
repetition's order, then in the other order, four times over. A tree that
runs second runs faster, and a 2 ms subcommand timed once spreads by a
tenth, so a repetition keeps each subcommand's fastest of the eight runs.
Every file a tree writes must be byte-identical to what the first
repetition's first tree wrote, the workload manifest's plan paths compared
without their directory.

Per stage it prints each tree's microseconds per plan (the median over the
repetitions) and the median of the per-repetition ratios NEW/OLD, with the
number of repetitions in which NEW was faster; the set-up stages are printed
the same way in milliseconds per run. "total" is the whole prediction, the
four prediction stages without the harness's two, "evaluate" and
"evaluate, 8000 rows" the whole shared evaluation per plan, "truth,
shared" and "truth, shared, 8000 rows" the shared ground truth per plan,
and "set-up" the three subcommands. Timing
both trees in one process, plan by plan, keeps a shared machine's drift
out of the ratio. The timed part of a repetition runs with
the cyclic garbage collector off, so a collection triggered by one tree's
allocations is not charged to the other's stage.

Where objects lie in memory moves a stage's time by a few percent: a tree
imported once, with its study, ran its estimation about 2% faster than the
other through a whole run, whichever tree was imported first, and a
study's rows ran ground truth up to a tenth faster or slower from one
build to the next. So every study holds the row tuples of one study of
its shape built at the start (`same_rows`), and each repetition imports
both trees afresh and drops them after: how the two trees' objects lie
is drawn anew each repetition, and the median over repetitions does not
favour either tree.
"""

import argparse
import contextlib
import dataclasses
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
SHARED = ("evaluate", "evaluate, 8000 rows", "truth, shared", "truth, shared, 8000 rows")
RUNS = 5  # simulated runs per plan, as in the benchmark's study pass
SETUP = ("gen-world", "gen-workload", "calibrate")
SETUP_CONFIG = {"seed": 42, "relation_size": 8000, "key_domain": 800}  # the benchmark's bigrel
SHAPES = {  # `generate_database`'s sizes and key domain, and the pool's sample size
    "study": ({"sizes": (500, 2000, 8000)}, 25),
    # the CLI's n at bigrel's config: sample_ratio 0.05 of 8000 rows
    "bigrel": ({"sizes": (SETUP_CONFIG["relation_size"],) * 3, "key_domain": SETUP_CONFIG["key_domain"]}, 400),
}
SETUP_RUNS = 8  # timed set-up runs per tree and repetition, even: half of them run first
MODULES = ("calib", "cli", "plan", "propagate", "selest", "simeval", "store")
ORDERS = (("old", "new"), ("new", "old"))


def load(src, name):
    """The `runtimedist` package under `src`, imported as `name`."""
    path = os.path.join(src, "runtimedist")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def same_rows(mine, theirs):
    """Relation or sample table `mine` holding the row tuples of `theirs`,
    which must equal its own."""
    if mine.rows != theirs.rows:
        sys.exit(f"the two trees' studies differ in the rows of {mine.name!r}")
    return dataclasses.replace(mine, rows=theirs.rows)


def study(pkg, shape, like=None):
    """Inputs and parsed plans of `shape` at seed 42: the test suite's
    study, or the benchmark's bigrel shape at its set-up config. Given
    `like`, another tree's, each relation and sample table holds the row
    tuples of `like`'s (`same_rows`)."""
    sim, seed = pkg["simeval"], SETUP_CONFIG["seed"]
    db, n = SHAPES[shape]
    relations = sim.generate_database(seed, **db)
    world = sim.TrueCostWorld.generate(seed)
    units = pkg["calib"].fit_cost_units(world.calibration_records(50, seed=seed))
    pool = pkg["store"].build_pool(relations, n=n, pool_size=2, seed=seed)
    if like is not None:
        relations = {name: same_rows(rel, like[0][name]) for name, rel in relations.items()}
        pool.tables = {name: list(map(same_rows, tables, like[3].tables[name])) for name, tables in pool.tables.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans, _ = sim.generate_workload(sim.WorkloadSpec.grid(80, 80, 40, seed=seed), relations)
    return relations, world, units, pool, [p for _, p in plans]


def predict(pkg, inputs, i, spent):
    """Predict plan i and simulate its actual runtime, adding each stage's
    seconds to `spent`."""
    relations, world, units, pool, plans = inputs
    plan, prop, sim = plans[i], pkg["propagate"], pkg["simeval"]
    t0 = time.perf_counter()
    est = pkg["selest"].estimate_all(plan, pool, relations)
    t1 = time.perf_counter()
    fitted = prop.fit_all_cost_functions(plan, est, world.cost_oracle(plan, relations), W=10)
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


def evaluate(pkg, inputs, spent, stage):
    """One `evaluate_workload` over a study's inputs, its seconds added to
    `spent[stage]`; each record's mean, stddev and actual runtime in hex,
    and its flags."""
    relations, world, units, pool, plans = inputs
    t0 = time.perf_counter()
    records, _ = pkg["simeval"].evaluate_workload(list(enumerate(plans)), relations, pool, units, world, runs=RUNS)
    spent[stage] += time.perf_counter() - t0
    return [(r.predicted_mean.hex(), r.predicted_stddev.hex(), r.actual.hex(), r.flags) for r in records]


def shared_truth(pkg, relations, plans, spent, stage):
    """Every plan's ground truth inside one `plan.sharing` table, its
    seconds added to `spent[stage]`; each truth's selectivities in hex."""
    planmod = pkg["plan"]
    t0 = time.perf_counter()
    with planmod.sharing({}):
        truths = [planmod.selectivity_truth(p, relations) for p in plans]
    spent[stage] += time.perf_counter() - t0
    return [{nid: sel.hex() for nid, sel in truth.items()} for truth in truths]


def setup(pkgs, roots, spent):
    """Run each set-up subcommand through each tree's `cli.dispatch` under
    its root, the trees in the order of `pkgs` one after the other, adding
    each run's seconds to the tree's list in `spent`."""
    with contextlib.redirect_stdout(io.StringIO()):
        for command in SETUP:
            for side, pkg in pkgs.items():
                t0 = time.perf_counter()
                code = pkg["cli"].dispatch([command, "--config", os.path.join(roots[side], "setup.cfg")])
                spent[side][command].append(time.perf_counter() - t0)
                if code:
                    sys.exit(f"{command} exited {code} under {roots[side]}")


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
    width = max(map(len, (header, *stages)))
    print(f"{header:{width}s} {'old ' + unit:>12s} {'new ' + unit:>12s} {'new/old':>8s}  new faster")
    for stage in stages:
        old_s = [r[stage] for r in runs["old"]]
        new_s = [r[stage] for r in runs["new"]]
        ratios = [b / a for a, b in zip(old_s, new_s)]
        print(f"{stage:{width}s} {statistics.median(old_s) * scale:12.1f} {statistics.median(new_s) * scale:12.1f} "
              f"{statistics.median(ratios):8.3f}  {sum(r < 1.0 for r in ratios)}/{reps}")


def unload(name):
    """Drop the package imported as `name`, and its modules, from `sys.modules`."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--reps", type=int, default=15)
    args = ap.parse_args(argv)
    srcs = {"old": args.old_src, "new": args.new_src}
    first = load(srcs["old"], "rd_rows")
    rows, big_rows = study(first, "study"), study(first, "bigrel")  # whose row tuples every study of a shape holds
    runs = {side: [] for side in srcs}
    setup_runs = {side: [] for side in srcs}
    files = None  # what the first repetition's first tree wrote
    for rep in range(args.reps):
        pkgs = {side: load(srcs[side], f"rd_{side}{rep}") for side in ORDERS[rep % 2]}
        inputs = {side: study(pkg, "study", like=rows) for side, pkg in pkgs.items()}
        bigs = {side: study(pkg, "bigrel", like=big_rows) for side, pkg in pkgs.items()}
        count = len(inputs["old"][4])
        for i in range(count):  # untimed: first-use costs, and the bitwise check
            got = {side: predict(pkg, inputs[side], i, dict.fromkeys(STAGES + HARNESS, 0.0))
                   for side, pkg in pkgs.items()}
            if got["old"] != got["new"]:
                sys.exit(f"plan {i}: (mean, variance, actual runtime) {got['old']} before, {got['new']} after")
        spent = {side: dict.fromkeys(STAGES + HARNESS + SHARED, 0.0) for side in srcs}
        setup_spent = {side: {command: [] for command in SETUP} for side in srcs}
        with contextlib.ExitStack() as stack:
            roots = {side: stack.enter_context(tempfile.TemporaryDirectory()) for side in pkgs}
            for root in roots.values():
                settings = {"data_dir": os.path.join(root, "data"), "out_dir": os.path.join(root, "out"),
                            **SETUP_CONFIG}
                with open(os.path.join(root, "setup.cfg"), "w", encoding="utf-8") as fh:
                    fh.writelines(f"{k} = {v}\n" for k, v in settings.items())
            setup(pkgs, roots, {side: {command: [] for command in SETUP} for side in pkgs})  # untimed: byte check
            for root in roots.values():
                got = written(root)
                files = files or got
                differ = sorted(p for p in files.keys() | got.keys() if files.get(p) != got.get(p))
                if differ:
                    sys.exit(f"set-up files differ: {differ[:5]} ({len(differ)} in all)")
            gc.collect()
            gc.disable()
            try:
                for i in range(count):
                    for side in ORDERS[(i + rep) % 2]:
                        predict(pkgs[side], inputs[side], i, spent[side])
                evaluated = {side: evaluate(pkg, inputs[side], spent[side], "evaluate") for side, pkg in pkgs.items()}
                big_evaluated = {side: evaluate(pkg, bigs[side], spent[side], "evaluate, 8000 rows")
                                 for side, pkg in pkgs.items()}
                truths = {side: shared_truth(pkg, inputs[side][0], inputs[side][4], spent[side], "truth, shared")
                          for side, pkg in pkgs.items()}
                big_truths = {side: shared_truth(pkg, bigs[side][0], bigs[side][4], spent[side],
                                                 "truth, shared, 8000 rows") for side, pkg in pkgs.items()}
                for by_side in (pkgs, dict(reversed(pkgs.items()))) * (SETUP_RUNS // 2):  # each tree first in half
                    setup(by_side, roots, setup_spent)
            finally:
                gc.enable()
        if evaluated["old"] != evaluated["new"]:
            sys.exit("evaluate_workload's records differ between the trees")
        if big_evaluated["old"] != big_evaluated["new"]:
            sys.exit("evaluate_workload's records over 8000 rows differ between the trees")
        if truths["old"] != truths["new"]:
            sys.exit("the shared truths' selectivities differ between the trees")
        if big_truths["old"] != big_truths["new"]:
            sys.exit("the shared truths' selectivities over 8000 rows differ between the trees")
        for side in srcs:
            spent[side]["total"] = sum(spent[side][s] for s in STAGES)
            runs[side].append(spent[side])
            fastest = {command: min(times) for command, times in setup_spent[side].items()}
            fastest["set-up"] = sum(fastest.values())
            setup_runs[side].append(fastest)
        del pkgs, inputs, bigs
        for side in srcs:
            unload(f"rd_{side}{rep}")
    report("stage", "us/plan", STAGES + ("total",) + HARNESS + SHARED, runs, args.reps, 1e6 / count)
    print()
    report("set-up", "ms/run", SETUP + ("set-up",), setup_runs, args.reps, 1e3)


if __name__ == "__main__":
    main()
