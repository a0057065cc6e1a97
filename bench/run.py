"""runtimedist benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload study --seed 1 --seconds 10 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs a separate traced pass and prints the
per-layer metrics. Both check every plan's prediction against the stored
references in bench/reference/. End-to-end times are reported at the
reference speed of the gauge in bench/speed.py. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

# One process, one thread: pin the BLAS pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH, "reference")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# Set-up runs per untraced run; setup_s is their median. A study or chain
# set-up takes about 1 s, a bigrel one about 7 s.
SETUP_REPS = {"study": 7, "chain": 7, "bigrel": 3}
MIN_PASSES = 3
# Gauge ticks (speed.py) before the first set-up, to pay the kernel's
# first-call costs, and just before and after each set-up.
WARM_TICKS = 50
SETUP_TICKS = 30
MIN_PREDICTIONS = 200  # so that at least ten predictions lie beyond p95
# A run makes a fixed number of passes, `--seconds` over these nominal pass
# times (full scale, at the parent commit, on a 2-core VM). The number does
# not depend on the speed measured, so two commits compared over the same
# `--seconds` take each median over the same number of samples.
PASS_S = {"study": 2.0, "chain": 2.0, "bigrel": 6.5}
# Relative tolerance on per-plan mean, variance and actual runtime, and
# absolute tolerance on r_p, r_s and D-bar, against the references.
REL_TOL = 1e-6
ABS_TOL = 1e-6


def load_package():
    if not os.path.isfile(os.path.join(SRC, "runtimedist", "__init__.py")):
        sys.exit(f"error: no runtimedist package under {SRC}; run from the repository root")
    sys.path[:0] = [SRC, BENCH]


def load_reference(workload, seed):
    import workloads

    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["variants"][str(seed % workloads.VARIANTS)]


def _close(got, want):
    if got is None or want is None:
        return got is want
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def check_pass(results, summary, ref, log):
    """Count the plans whose prediction is not finite or differs from the
    reference, and a quality metric that differs; print each to stderr."""
    failed = 0
    plans = ref["plans"]
    for r in results:
        if not (math.isfinite(r.mean) and math.isfinite(r.var)):
            log(f"plan {r.label}: prediction is not finite: mean {r.mean!r}, var {r.var!r}")
            failed += 1
            continue
        want = plans.get(r.label)
        if want is None:
            log(f"plan {r.label}: no reference")
            failed += 1
            continue
        got = (r.mean, r.var, r.actual)
        bad = [f"{name} {g!r} != {w!r}"
               for name, g, w in zip(("mean", "var", "actual"), got, want) if not _close(g, w)]
        if bad:
            log(f"plan {r.label}: {', '.join(bad)}")
            failed += 1
    if len(results) != len(plans):
        log(f"{len(results)} plans evaluated, reference has {len(plans)}")
        failed += 1
    for key, want in ref["summary"].items():
        got = None if summary is None else summary[key]
        if got is None or abs(got - want) > ABS_TOL:
            log(f"summary {key}: {got!r} != {want!r}")
            failed += 1
    return failed


class Run:
    """One benchmark invocation: set-up, warm-up, timed passes, checks."""

    def __init__(self, workload, seed, seconds, scale="full", reference=None, log=None):
        import workloads

        self.workloads = workloads
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.reference = reference if reference is not None else load_reference(workload, seed)
        self.log = log or (lambda msg: print(msg, file=sys.stderr))
        self.workdir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.summary = None

    def setup(self, tr):
        """Build the workload, then warm up on one plan of each class so
        first-call costs land in set-up, not in the timed passes."""
        wl = self.workloads
        setup = wl.SETUPS[self.name]
        with tr.span("bench.setup"):
            if self.name == "bigrel":
                w = setup(tr, self.seed, self.workdir, self.scale)
            else:
                w = setup(tr, self.seed, self.scale)
            seen = {}
            for plan in w.plans:
                seen.setdefault(plan[0].split("-")[0], plan)
            with tr.span("bench.warmup"):
                wl.run_pass(tr, w, plans=list(seen.values()))
        return w

    def one_pass(self, tr, w, gauge=None):
        """One timed evaluation pass, checked against the reference:
        (results, seconds, counts, seconds at the reference speed). With a
        speed gauge both times leave out its ticks."""
        first = len(gauge.times) if gauge else 0
        t0 = time.perf_counter()
        results, summary, counts = self.workloads.run_pass(tr, w, gauge=gauge)
        t1 = time.perf_counter()
        elapsed = scaled = t1 - t0
        if gauge:
            elapsed -= sum(gauge.times[first:])
            scaled = gauge.scaled(t0, t1, first)
        self.summary = summary
        self.attempted += len(results) + (summary is not None)
        self.failed += check_pass(results, summary, self.reference, self.log)
        return results, elapsed, counts, scaled

    def passes(self, share=1.0):
        """The fixed number of passes: `share` of `--seconds` over the
        nominal pass time, at least MIN_PASSES and enough predictions."""
        plans = len(self.reference["plans"])
        return max(MIN_PASSES, math.ceil(MIN_PREDICTIONS / plans),
                   round(share * self.seconds / PASS_S[self.name]))

    def cleanup(self):
        import shutil

        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    def quality(self):
        """r_p, r_s and D-bar of the last pass, already checked against
        the reference; study and bigrel only."""
        return {k: (v, "1") for k, v in sorted((self.summary or {}).items())}

    # -- the untraced run: end-to-end metrics ------------------------------

    def end_to_end(self):
        """Set-ups, then the timed passes. Every time is taken at the
        reference speed of the gauge (speed.py): a set-up by the gauge's
        ticks just before and after it, a pass and a prediction by the
        ticks around each of its stretches (one tick per plan)."""
        from speed import Gauge
        from tracer import NullTracer

        tr = NullTracer()
        gauge = Gauge()
        gauge.ticks(WARM_TICKS)
        setup_times, setup_raw = [], []
        w = None
        for _ in range(SETUP_REPS[self.name]):
            w = None  # drop the previous set-up's objects before timing the next
            gc.collect()
            lo = gauge.ticks(SETUP_TICKS) - SETUP_TICKS
            t0 = time.perf_counter()
            w = self.setup(tr)
            setup_raw.append(time.perf_counter() - t0)
            hi = gauge.ticks(SETUP_TICKS)
            setup_times.append(setup_raw[-1] * gauge.scale(lo, hi))
        results, times, raw = [], [], []
        for _ in range(self.passes()):
            r, t, _, scaled = self.one_pass(tr, w, gauge)
            results += r
            times.append(scaled)
            raw.append(t)
        lat_ms = [r.predict_s * gauge.around(r.tick) * 1e3 for r in results]
        raw_ms = [r.predict_s * 1e3 for r in results]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "predict_ms_p50": (statistics.median(lat_ms), "ms"),
            "evaluate_plans_per_s": (len(w.plans) / statistics.median(times), "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        extra = {
            # Over every prediction of the run; too noisy on a shared
            # machine to gate on, so printed only.
            "predict_ms_p95": (statistics.quantiles(lat_ms, n=20, method="inclusive")[-1], "ms"),
            # The same figures as measured, before scaling to the reference speed.
            "raw.setup_s": (statistics.median(setup_raw), "s"),
            "raw.predict_ms_p50": (statistics.median(raw_ms), "ms"),
            "raw.evaluate_plans_per_s": (len(w.plans) / statistics.median(raw), "1/s"),
            "speed.kernel_ms": (statistics.median(gauge.times) * 1e3, "ms"),
            **self.quality(),
            "failed_frac": (self.failed / self.attempted, "frac"),
            "predictions": (len(lat_ms), "count"),
            "passes": (len(times), "count"),
        }
        return metrics, extra

    # -- the traced run: per-layer metrics ---------------------------------

    def per_layer(self):
        from tracer import NullTracer, Tracer

        tr = Tracer()
        w = self.setup(tr)
        setup = tr.totals(0)
        first = len(tr.spans)
        # Traced and untraced passes alternate, so that the machine's drift
        # falls on both; their difference is the tracing overhead.
        null = NullTracer()
        traced, untraced, counts = [], [], Counter()
        for _ in range(self.passes(share=0.5)):
            _, t, c, _ = self.one_pass(tr, w)
            traced.append(t)
            counts += c
            _, t, _, _ = self.one_pass(null, w)
            untraced.append(t)
        spans = tr.spans
        roots = [i for i in range(first, len(spans)) if spans[i][0] == "bench.pass" and spans[i][3] == -1]
        per = len(roots)
        timed: dict[str, list] = {}  # name -> [self, inclusive, calls] per pass
        for root in roots:
            for name, vals in tr.totals(root).items():
                acc = timed.setdefault(name, [0.0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += vals[k] / per
        os.makedirs(WORK_DIR, exist_ok=True)
        trace_path = os.path.join(WORK_DIR, f"trace-{self.name}-{self.seed}.jsonl.gz")
        tr.write(trace_path)
        self.log(f"trace: {len(spans)} spans written to {os.path.relpath(trace_path, ROOT)}")

        def self_s(name):
            return timed.get(name, (0.0, 0.0, 0.0))[0]

        def total(key):
            return counts[key] / per

        def per_call(name):
            """Mean self time of one call, from the passes or else set-up."""
            secs, _, calls = timed.get(name) or setup.get(name, (0.0, 0.0, 0))
            return secs / max(calls, 1)

        layer_self = {}
        for name, (secs, _, _) in timed.items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + secs
        oracle_calls = timed.get("simeval.cost_oracle", (0.0, 0.0, 0.0))[2]
        metrics = {
            "costfit.fit_s": (timed.get("costfit.fit_all_cost_functions", (0.0, 0.0))[1], "s"),
            "costfit.solve_s": (self_s("costfit.fit_all_cost_functions"), "s"),
            "costfit.probes": (oracle_calls - total("c1_terms"), "count"),
            "costfit.terms": (total("terms"), "count"),
            "costfit.degenerate": (total("degenerate"), "count"),
            "simeval.oracle_s": (self_s("simeval.cost_oracle"), "s"),
            "simeval.oracle_calls": (oracle_calls, "count"),
        }
        if self.summary is not None:  # workloads with ground truth
            truth_s = self_s("plan.selectivity_truth")
            metrics.update({
                "plan.truth_s": (truth_s, "s"),
                "plan.truth_rows": (total("truth_rows"), "count"),
            })
        metrics.update({
            "plan.parse_ms": (per_call("plan.parse_plan") * 1e3, "ms"),
            "selest.estimate_s": (self_s("selest.estimate_all"), "s"),
            "selest.prov_rows": (total("prov_rows"), "count"),
        })
        if self.summary is not None:
            metrics["selest.share_of_truth"] = (self_s("selest.estimate_all") / truth_s, "frac")
        metrics.update({
            "propagate.expected_s": (self_s("propagate.expected_time"), "s"),
            "propagate.variance_s": (self_s("propagate.variance_time"), "s"),
            "propagate.cov_entries": (total("cov_entries"), "count"),
            "propagate.bound_entries": (total("bound_entries"), "count"),
            "propagate.bound_dominated": (total("bound_dominated"), "count"),
        })
        if self.summary is not None:
            metrics.update({
                "simeval.simulate_s": (self_s("simeval.simulate_actual_runtime"), "s"),
                "simeval.workload_gen_s": (setup["simeval.generate_workload"][1], "s"),
            })
        metrics.update({
            "store.build_pool_s": (per_call("store.build_pool"), "s"),
            "store.sample_rows": (total("sample_rows"), "count"),
            "calib.fit_units_s": (per_call("calib.fit_cost_units"), "s"),
            **self.quality(),
            "failed_frac": (self.failed / self.attempted, "frac"),
            "trace.overhead_frac": (min(traced) / min(untraced) - 1.0, "frac"),
            "trace.self_coverage": (
                sum(v for k, v in layer_self.items() if k != "bench") / (sum(traced) / per), "frac"),
        })
        extra = {}
        if "store.load_relations" in timed:  # only bigrel ingests CSV, in every pass
            extra["store.ingest_s"] = (self_s("store.load_relations"), "s")
        extra.update({f"self.{layer}_s": (secs, "s") for layer, secs in sorted(layer_self.items())})
        extra["trace.pass_s"] = (sum(traced) / per, "s")
        extra["trace.untraced_pass_s"] = (sum(untraced) / per, "s")
        extra["passes"] = (per, "count")
        return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("study", "chain", "bigrel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_package()
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics, extra = run.per_layer() if args.trace else run.end_to_end()
    except Exception:  # the package raised: report it as a failed run
        traceback.print_exc()
        metrics, extra = {}, {}
        run.attempted += 1
        run.failed += 1
    finally:
        run.cleanup()
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
