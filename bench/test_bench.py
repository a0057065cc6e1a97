"""Test of the benchmark itself, at a tiny input size.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Run from the repository root. Each workload runs untraced and traced
against a reference recorded on the spot from the package's own
evaluation path; every metric must be emitted with a unit, and a perturbed
reference must make the correctness check fail.
"""

import copy
import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import reference  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# chain has no ground truth, so none of these; it is not in BENCHMARK.json.
TRUTH_ONLY = {"plan.truth_s", "plan.truth_rows", "selest.share_of_truth", "simeval.simulate_s",
              "simeval.workload_gen_s", "r_s", "r_p", "d_bar"}


@pytest.fixture(scope="module", params=["study", "chain", "bigrel"])
def tiny(request):
    name = request.param
    return name, reference.record(name, 0, scale="tiny")


def _run(name, ref, trace):
    logs = []
    r = run.Run(name, 0, 0.0, scale="tiny", reference=ref, log=logs.append)
    try:
        metrics, extra = r.per_layer() if trace else r.end_to_end()
    finally:
        r.cleanup()
    from runtimedist import cli, propagate, simeval

    # The wrappers a pass puts around package functions are gone after it.
    for fn in (propagate.predict_distribution, cli.load_relations, simeval.TrueCostWorld.cost_oracle):
        assert fn.__module__.startswith("runtimedist"), fn
    return r, metrics, extra, logs


def _assert_emitted(metrics, names):
    assert set(metrics) == set(names)
    for name, (value, unit) in metrics.items():
        assert isinstance(unit, str) and unit, name
        assert math.isfinite(value), name


def test_end_to_end_metrics(tiny):
    name, ref = tiny
    r, metrics, extra, logs = _run(name, ref, trace=False)
    assert r.failed == 0, logs
    assert r.attempted > 0
    _assert_emitted(metrics, [m["name"] for m in SPEC["end_to_end"]])
    assert extra["predictions"][0] >= run.MIN_PREDICTIONS
    assert "predict_ms_p95" in extra
    for raw in ("raw.setup_s", "raw.predict_ms_p50", "raw.evaluate_plans_per_s", "speed.kernel_ms"):
        assert extra[raw][0] > 0, raw
    assert ({"r_s", "r_p", "d_bar"} <= set(extra)) == (name != "chain")
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]][1] == spec["unit"]
        assert metrics[spec["name"]][0] > 0


def test_per_layer_metrics(tiny):
    name, ref = tiny
    r, metrics, extra, logs = _run(name, ref, trace=True)
    assert r.failed == 0, logs
    names = {m["name"] for m in SPEC["per_layer"]}
    _assert_emitted(metrics, names - TRUTH_ONLY if name == "chain" else names)
    for spec in SPEC["per_layer"]:
        if spec["name"] in metrics:
            assert metrics[spec["name"]][1] == spec["unit"]
    assert ("store.ingest_s" in extra) == (name == "bigrel")
    assert 0.0 < metrics["trace.self_coverage"][0] <= 1.0
    assert metrics["costfit.probes"][0] > 0
    assert metrics["simeval.oracle_calls"][0] > metrics["costfit.probes"][0]


def test_perturbed_reference_fails(tiny):
    name, ref = tiny
    bad = copy.deepcopy(ref)
    label = sorted(bad["plans"])[0]
    bad["plans"][label][0] *= 1.0 + 1e-3
    r, _, _, logs = _run(name, bad, trace=False)
    assert r.failed > 0
    assert any(label in line for line in logs)
    if bad["summary"]:
        bad = copy.deepcopy(ref)
        bad["summary"]["r_s"] += 1e-3
        r, _, _, logs = _run(name, bad, trace=False)
        assert r.failed > 0
        assert any("r_s" in line for line in logs)


def test_gauge_scales_to_reference_speed():
    import speed

    g = speed.Gauge()
    g.spans = [(float(i), i + 0.5) for i in range(4 * speed.HALF)]
    g.times = [2 * speed.REF_S] * (2 * speed.HALF) + [speed.REF_S / 2] * (2 * speed.HALF)
    assert g.scale(0, speed.HALF) == pytest.approx(0.5)  # a slow stretch: times shrink
    assert g.around(0) == pytest.approx(0.5)
    assert g.around(len(g.times) - 1) == pytest.approx(2.0)
    # Ticks take half of each second; the other halves are scaled by the
    # ticks around the tick after them, the last by the last tick's.
    lo = 2 * speed.HALF
    want = sum(0.5 * g.around(i) for i in range(lo, len(g.times))) + 0.5 * g.around(len(g.times) - 1)
    assert g.scaled(lo - 0.5, len(g.times), lo) == pytest.approx(want)
    assert g.ticks(2) == len(g.times) and all(t > 0 for t in g.times[-2:])
