"""End-to-end command-line pipeline."""

import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_ingest
from runtimedist import calib, cli, propagate, selest, simeval


# The test-scale pipeline's settings, after its data_dir and out_dir.
_SETTINGS = [("seed", "7"), ("relation_size", "200"), ("key_domain", "20"), ("scan_count", "4"),
             ("join_count", "2"), ("join3_count", "1"), ("calib_reps", "30"), ("runs", "3"), ("sample_n", "25")]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.cfg"
    lines = [("data_dir", root / "data"), ("out_dir", root / "out"), *_SETTINGS]
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in lines))
    # Every test reads a complete pipeline, whichever run first: the world,
    # the data and workload, and the calibrated units. The step tests run
    # each step again and check its output, which is deterministic.
    for step in ("gen-world", "gen-workload", "calibrate"):
        assert cli.dispatch([step, "--config", str(cfg)]) == 0
    return root


def _run(workdir, *argv):
    return cli.dispatch(list(argv) + ["--config", str(workdir / "run.cfg")])


def test_config_parsing():
    cfg = cli.parse_config("# comment\nseed = 3\nratio = 0.5\nname = 'x'\n\n")
    assert cfg == {"seed": 3, "ratio": 0.5, "name": "x"}
    assert cli.parse_config("# comment\r\nseed = 3\r\rratio = 0.5\rname = 'x'") == cfg
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config("no equals sign\n")


def test_step1_gen_world(workdir):
    assert _run(workdir, "gen-world") == 0
    path = workdir / "out" / "world.json"
    doc = json.loads(path.read_text())
    assert doc["seed"] == 7
    assert set(doc["unit_means"]) == {"c_s", "c_r", "c_t", "c_i", "c_o"}


def test_step2_gen_workload(workdir):
    assert _run(workdir, "gen-workload") == 0
    for name in ("r1", "r2", "r3"):
        assert (workdir / "data" / f"{name}.csv").exists()
        assert (workdir / "data" / f"{name}.schema").exists()
    manifest = json.loads((workdir / "out" / "workload" / "manifest.json").read_text())
    assert len(manifest["plans"]) >= 2
    for rec in manifest["plans"]:
        assert os.path.exists(rec["path"])


def test_step3_ingest(workdir, capsys):
    assert _run(workdir, "ingest") == 0
    doc = json.loads((workdir / "out" / "ingest.json").read_text())
    assert doc["relations"]["r1"]["rows"] == 200
    assert "r1: 200 rows" in capsys.readouterr().out


def test_generated_relations_take_the_numpy_parse(workdir, monkeypatch):
    # gen-workload's CSVs are all int64, of digits, minus signs, commas and
    # line ends: `load_relations` parses each with one `np.loadtxt` call, to
    # the rows the record-by-record reference reads.
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    relations = cli.load_relations(cli.load_config(argparse.Namespace(config=str(workdir / "run.cfg"))))
    assert sorted(relations) == ["r1", "r2", "r3"] and len(calls) == 3
    for name, rel in relations.items():
        with open(workdir / "data" / f"{name}.csv", newline="", encoding="utf-8") as fh:
            want = reference_ingest(fh.read(), name, rel.schema)
        assert rel == want and rel.row_count == 200
        assert {type(v) for row in rel.rows for v in row} == {int}


def test_generated_relations_are_the_csv_modules_rendering(workdir):
    # gen-workload writes each relation with a row template, not the csv
    # module, and its bytes are the csv module's rendering of the rows.
    relations = simeval.generate_database(7, sizes=(200, 200, 200), key_domain=20)
    for name, rel in relations.items():
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(rel.column_names)
        writer.writerows(rel.rows)
        assert (workdir / "data" / f"{name}.csv").read_bytes() == want.getvalue().encode("utf-8")


def test_int_csv_template_matches_the_csv_module(tmp_path):
    # ints at both int64 limits, negative ones and 0, as the csv module writes them
    header = ("a_id", "b", "c")
    rows = [(-2**63, 2**63 - 1, 0), (-1, -7, 12), (0, 0, 0), (2**63 - 1, -2**63 + 1, -100)]
    cli._write_int_csv(str(tmp_path / "template.csv"), header, rows)
    cli._write_csv(str(tmp_path / "module.csv"), header, rows)
    assert (tmp_path / "template.csv").read_bytes() == (tmp_path / "module.csv").read_bytes()


def test_step4_sample(workdir):
    assert _run(workdir, "sample") == 0
    samples = workdir / "out" / "samples"
    for j in (0, 1):
        path = samples / f"r1.{j}.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("sample_index,")
        assert len(lines) == 26  # header + n rows
    # Each table's file numbers its rows 0..n-1 in draw order.
    cfg = cli.load_config(argparse.Namespace(config=str(workdir / "run.cfg")))
    pool = cli.build_pool(cfg, cli.load_relations(cfg))
    for rel, tables in pool.tables.items():
        for t, table in enumerate(tables):
            with open(samples / f"{rel}.{t}.csv", newline="", encoding="utf-8") as fh:
                body = list(csv.reader(fh))[1:]
            assert [int(rec[0]) for rec in body] == list(range(pool.n))
            assert [rec[1:] for rec in body] == [[str(v) for v in table.rows[j]] for j in range(pool.n)]


def test_step5_calibrate(workdir):
    assert _run(workdir, "calibrate") == 0
    assert (workdir / "out" / "calibration.csv").exists()
    doc = json.loads((workdir / "out" / "units.json").read_text())
    assert doc["metadata"]["units_independent"] is True
    for u, m in doc["units"].items():
        assert m["observations"] == 30
        assert m["mean"] > 0.0


def test_step6_fitcost(workdir):
    plan = workdir / "out" / "workload" / "scan-0.plan"
    assert _run(workdir, "fitcost", "--plan", str(plan)) == 0
    doc = json.loads((workdir / "out" / "costfit.json").read_text())
    funcs = doc["functions"]["1"]
    assert set(funcs) == {"c_s", "c_r", "c_t", "c_o"}
    assert funcs["c_r"]["type"] == "C1"


def test_step7_predict_appends_and_is_deterministic(workdir, capsys):
    plan = workdir / "out" / "workload" / "scan-0.plan"
    assert _run(workdir, "predict", "--plan", str(plan)) == 0
    assert "mean=" in capsys.readouterr().out
    assert _run(workdir, "predict", "--plan", str(plan)) == 0
    lines = (workdir / "out" / "predictions.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    a, b = (json.loads(x) for x in lines)
    a.pop("generated_at"), b.pop("generated_at")
    assert a == b
    assert a["var_s2"] > 0.0
    csv_lines = (workdir / "out" / "predictions.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "plan_id,mean_s,var_s2,stddev_s,flags"
    assert len(csv_lines) == 3 and csv_lines[1] == csv_lines[2]


def test_predict_writes_the_csv_header_into_an_empty_file(workdir, tmp_path):
    # `predict` appends its row after the header where predictions.csv is
    # new or empty, and after the rows already there otherwise.
    for name in ("world.json", "units.json"):
        shutil.copy(workdir / "out" / name, tmp_path)
    csv_path = tmp_path / "predictions.csv"
    argv = ["predict", "--plan", str(workdir / "out" / "workload" / "scan-0.plan"), "--out-dir", str(tmp_path)]
    for made in (False, True):
        if made:
            csv_path.write_text("")
        assert _run(workdir, *argv) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == "plan_id,mean_s,var_s2,stddev_s,flags"
        assert lines[1].startswith("scan-0,")
    assert _run(workdir, *argv) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3 and lines[2] == lines[1] and lines.count(lines[0]) == 1


def test_step8_predict_ablation_policy(workdir):
    plan = workdir / "out" / "workload" / "scan-1.plan"
    assert _run(workdir, "predict", "--plan", str(plan), "--ablation", "no-var-x") == 0
    lines = (workdir / "out" / "predictions.jsonl").read_text().strip().splitlines()
    assert json.loads(lines[-1])["policy"] == "no-var-x"


def test_step9_evaluate_byte_stable(workdir):
    assert _run(workdir, "evaluate") == 0
    csv_path = workdir / "out" / "evaluation.csv"
    first = csv_path.read_bytes()
    summary1 = json.loads((workdir / "out" / "summary.json").read_text())
    assert _run(workdir, "evaluate") == 0
    assert csv_path.read_bytes() == first
    summary2 = json.loads((workdir / "out" / "summary.json").read_text())
    summary1.pop("generated_at"), summary2.pop("generated_at")
    assert summary1 == summary2
    assert summary1["count"] >= 2
    assert -1.0 <= summary1["r_s"] <= 1.0
    rows = first.decode().strip().splitlines()
    assert rows[0] == "plan_id,mean,stddev,actual,error,norm_error,flags"
    assert len(rows) == summary1["count"] + 1


def test_step9b_evaluate_keeps_prediction_flags(workdir):
    # Each plan's flags in evaluation.csv are the ones `predict` gives it,
    # and summary.json counts the plans carrying each flag.
    assert _run(workdir, "evaluate") == 0
    out = workdir / "out"
    with open(out / "evaluation.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((out / "workload" / "manifest.json").read_text())
    counts = {}
    for row, rec in zip(rows, manifest["plans"]):
        assert row["plan_id"] == rec["label"]
        assert _run(workdir, "predict", "--plan", rec["path"]) == 0
        last = (out / "predictions.jsonl").read_text().strip().splitlines()[-1]
        flags = json.loads(last)["flags"]
        assert row["flags"] == ";".join(flags)
        for flag in flags:
            counts[flag] = counts.get(flag, 0) + 1
    assert counts  # this workload has plans with degenerate fits: the check is not vacuous
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flags"] == counts


def test_evaluate_over_one_plan_reported_as_json(workdir, tmp_path, capsys):
    # One plan has no correlation to report: the error says so and gives
    # the counts, where it used to fail inside `pearson` naming no cause.
    manifest = tmp_path / "one.json"
    scan = str(workdir / "out" / "workload" / "scan-0.plan")
    manifest.write_text(json.dumps({"plans": [{"label": "scan-0", "path": scan}]}))
    for f in ("world.json", "units.json"):
        shutil.copy(workdir / "out" / f, tmp_path)
    assert _run(workdir, "evaluate", "--workload", str(manifest), "--out-dir", str(tmp_path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        "evaluate needs at least two plans with a nonzero predicted stddev to correlate; 1 of 1 has one")
    assert not (tmp_path / "summary.json").exists()


def test_evaluate_over_two_copies_of_one_plan_reported_as_json(workdir, tmp_path, capsys):
    # Two copies of one plan have one predicted stddev, so there is no
    # correlation to report: one JSON error line names the cause and the
    # counts, and no summary is written.
    manifest = tmp_path / "twice.json"
    scan = str(workdir / "out" / "workload" / "scan-0.plan")
    manifest.write_text(json.dumps({"plans": [{"label": "a", "path": scan}, {"label": "b", "path": scan}]}))
    for f in ("world.json", "units.json"):
        shutil.copy(workdir / "out" / f, tmp_path)
    assert _run(workdir, "evaluate", "--workload", str(manifest), "--out-dir", str(tmp_path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        "evaluate needs two different predicted stddevs to correlate; "
        "all 2 plans with a nonzero predicted stddev, of 2, have one predicted stddev")
    assert not (tmp_path / "summary.json").exists()


def test_evaluate_counts_zero_count_joins(tmp_path):
    # A key domain twice the relation size and 4 sampling steps: sample
    # joins keep no rows, and summary.json counts the plans so flagged.
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        f"data_dir = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\nseed = 3\n"
        "relation_size = 100\nkey_domain = 200\nscan_count = 0\njoin_count = 4\n"
        "join3_count = 1\ncalib_reps = 10\nruns = 2\nsample_n = 4\n"
    )
    for sub in ("gen-world", "gen-workload", "calibrate", "evaluate"):
        assert cli.dispatch([sub, "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "evaluation.csv", encoding="utf-8") as fh:
        flagged = [row["plan_id"] for row in csv.DictReader(fh) if "zero-count" in row["flags"].split(";")]
    assert "join3-0" in flagged
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["flags"]["zero-count"] == len(flagged)


def test_evaluate_counts_negative_mass_predictions(tmp_path):
    # Five sampling steps leave some plans with sigma/mean above 0.43, so
    # the normal puts more than 1% of its mass below zero: each such plan,
    # and no other, is flagged in evaluation.csv, summary.json counts them,
    # and `predict` records a flagged plan's mass beside its flags.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        f"data_dir = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\nseed = 3\n"
        "relation_size = 200\nkey_domain = 20\nscan_count = 2\njoin_count = 4\n"
        "join3_count = 4\ncalib_reps = 10\nruns = 2\nsample_n = 5\n"
    )
    for sub in ("gen-world", "gen-workload", "calibrate", "evaluate"):
        assert cli.dispatch([sub, "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "evaluation.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    flagged = []
    for row in rows:
        mass = propagate.RunningTimeDistribution(float(row["mean"]), float(row["stddev"]) ** 2).mass_below_zero
        assert ("negative-mass" in row["flags"].split(";")) is (mass > propagate.NEGATIVE_MASS)
        if mass > propagate.NEGATIVE_MASS:
            flagged.append(row["plan_id"])
    assert flagged
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["flags"]["negative-mass"] == len(flagged)
    plan = tmp_path / "out" / "workload" / f"{flagged[0]}.plan"
    assert cli.dispatch(["predict", "--plan", str(plan), "--config", str(cfg)]) == 0
    record = json.loads((tmp_path / "out" / "predictions.jsonl").read_text().splitlines()[-1])
    assert "negative-mass" in record["flags"]
    assert record["mass_below_zero"] == propagate.RunningTimeDistribution(
        record["mean_s"], record["var_s2"]).mass_below_zero > propagate.NEGATIVE_MASS


def test_step10_oracle_on_tiny_relation(workdir, tmp_path):
    data = tmp_path / "tinydata"
    data.mkdir()
    (data / "t.csv").write_text("t_a\n1\n1\n0\n0\n0\n0\n")
    (data / "t.schema").write_text("t_a,int64\n")
    plan = tmp_path / "scan.plan"
    plan.write_text(json.dumps({
        "nodes": [{"id": 1, "kind": "SeqScan", "relation": "t", "children": [],
                   "predicate": [{"col": "t_a", "op": "=", "value": 1}]}],
        "root": 1,
    }))
    rc = _run(workdir, "oracle", "--plan", str(plan), "--data-dir", str(data),
              "--n", "4", "--pools", "2000")
    assert rc == 0
    doc = json.loads((workdir / "out" / "oracle.json").read_text())
    rho = 2 / 6
    assert doc["var_rho_exact"] == pytest.approx(rho * (1 - rho) / 4)
    assert doc["var_rho_empirical"] == pytest.approx(doc["var_rho_exact"], rel=0.2)


@pytest.mark.parametrize("pools", [[], ["--pools", "2"]], ids=["exact", "resampled"])
def test_oracle_over_empty_relation_reported_as_json(tmp_path, capsys, pools):
    # b holds a header and no rows: rho_n over a join with it is undefined,
    # so the oracle refuses it, naming b, instead of writing NaN.
    data = tmp_path / "data"
    data.mkdir()
    for name, rows in (("a", "1\n2\n"), ("b", "")):
        (data / f"{name}.csv").write_text(f"{name}_k\n{rows}")
        (data / f"{name}.schema").write_text(f"{name}_k,int64\n")
    plan = _plan_file(tmp_path, "join", [
        _scan(1, "a"), _scan(2, "b"),
        {"id": 3, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "a_k", "right": "b_k"}]},
    ], 3)
    argv = ["oracle", "--plan", plan, "--data-dir", str(data), "--out-dir", str(tmp_path / "out"), "--n", "2"]
    assert cli.dispatch(argv + pools) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("relation 'b' is empty; ")
    assert not (tmp_path / "out" / "oracle.json").exists()


def _plan_file(tmp_path, name, nodes, root):
    path = tmp_path / f"{name}.plan"
    path.write_text(json.dumps({"nodes": nodes, "root": root}))
    return str(path)


def _scan(nid, rel):
    return {"id": nid, "kind": "SeqScan", "relation": rel, "children": []}


def test_comparator_that_is_a_list_reported_as_one_json_line(workdir, tmp_path, capsys):
    bad = _plan_file(tmp_path, "list-op", [
        dict(_scan(1, "r1"), predicate=[{"col": "r1_val", "op": ["<"], "value": 1}]),
    ], 1)
    assert _run(workdir, "predict", "--plan", bad) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == f"plan file {bad!r} is malformed: unknown comparator ['<']"


def test_errors_reported_as_json(workdir, tmp_path, capsys, monkeypatch):
    # missing data directory
    rc = cli.dispatch(["ingest", "--data-dir", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "does not exist" in err["error"]
    # malformed config file
    bad = tmp_path / "bad.cfg"
    bad.write_text("just junk\n")
    assert cli.dispatch(["gen-world", "--config", str(bad)]) == 1
    assert "error" in json.loads(capsys.readouterr().err)
    # bad policy value from config
    pol = tmp_path / "pol.cfg"
    pol.write_text("policy = sideways\n")
    assert cli.dispatch(["gen-world", "--config", str(pol)]) == 1
    assert "policy" in json.loads(capsys.readouterr().err)["error"]
    # predict before calibrate
    fresh = tmp_path / "fresh-out"
    plan = workdir / "out" / "workload" / "scan-0.plan"
    rc = cli.dispatch(["predict", "--plan", str(plan),
                       "--config", str(workdir / "run.cfg"), "--out-dir", str(fresh)])
    assert rc == 1
    assert "not found" in json.loads(capsys.readouterr().err)["error"]
    # a join over a column no relation has (raised before any row is counted)
    bad_join = _plan_file(tmp_path, "bad-join", [
        _scan(1, "r1"), _scan(2, "r2"),
        {"id": 3, "kind": "HashJoin", "children": [1, 2],
         "predicate": [{"left": "r1_nope", "right": "r2_key"}]},
    ], 3)
    assert _run(workdir, "predict", "--plan", bad_join) == 1
    assert "r1_nope" in json.loads(capsys.readouterr().err)["error"]
    # a self-join needs a second sample table of r1
    self_join = _plan_file(tmp_path, "self-join", [
        _scan(1, "r1"), _scan(2, "r1"),
        {"id": 3, "kind": "HashJoin", "children": [1, 2],
         "predicate": [{"left": "r1_key", "right": "r1_key"}]},
    ], 3)
    assert _run(workdir, "predict", "--plan", self_join, "--pool-size", "1") == 1
    assert "pool size" in json.loads(capsys.readouterr().err)["error"]
    # custom cost profiles the world holds no coefficients for: a unit the
    # default SeqScan profile lacks, C4 where the world drew C3's two, and
    # C2, as long as C3, where the world drew those two for C3
    for unit, tag in [("c_i", "C2"), ("c_s", "C4"), ("c_s", "C2")]:
        custom = _plan_file(tmp_path, f"custom-{unit}", [
            dict(_scan(1, "r1"), cost_profile={unit: tag}),
        ], 1)
        assert _run(workdir, "predict", "--plan", custom) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert f"{tag} coefficients for (SeqScan, {unit})" in err
        assert "default cost profiles" in err
    # a scan of a relation the data directory does not hold
    unknown = _plan_file(tmp_path, "unknown-relation", [_scan(1, "r9")], 1)
    for command in ("predict", "fitcost", "oracle"):
        assert _run(workdir, command, "--plan", unknown) == 1
        assert "node 1: relation 'r9'" in json.loads(capsys.readouterr().err)["error"]
    # workload manifests without a plans list, or a record without a path
    # string (an integer path would open that file descriptor)
    for doc in ({}, {"plans": [{"label": "scan-0"}]}, {"plans": [{"label": "scan-0", "path": 0}]}):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        assert _run(workdir, "evaluate", "--workload", str(manifest)) == 1
        assert "workload manifest" in json.loads(capsys.readouterr().err)["error"]
    # a directory where a file is expected
    for command, option in [("predict", "--plan"), ("evaluate", "--workload")]:
        assert _run(workdir, command, option, str(tmp_path)) == 1
        assert "Is a directory" in json.loads(capsys.readouterr().err)["error"]
    # no simulated runs to average
    no_runs = tmp_path / "no-runs.cfg"
    no_runs.write_text((workdir / "run.cfg").read_text().replace("runs = 3", "runs = 0"))
    assert cli.dispatch(["evaluate", "--config", str(no_runs)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "runs must be an integer >= 1, got 0"
    # more runs than a plan's seeds leave room for
    no_runs.write_text((workdir / "run.cfg").read_text().replace("runs = 3", "runs = 1001"))
    assert cli.dispatch(["evaluate", "--config", str(no_runs)]) == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith("runs must be at most 1000, got 1001")
    # estimation and propagation errors, which no CLI input reaches today
    plan = str(workdir / "out" / "workload" / "scan-0.plan")
    for owner, attr, error in [
        (selest, "estimate_all", selest.EstimationError),
        (propagate, "variance_time", propagate.PropagationError),
    ]:
        def fail(*args, error=error, **kwargs):
            raise error(f"injected {error.__name__}")

        with monkeypatch.context() as m:
            m.setattr(owner, attr, fail)
            assert _run(workdir, "predict", "--plan", plan) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"injected {error.__name__}"}


@pytest.mark.parametrize("doc, match", [
    (7, "must be an object"),
    ({"nodes": {"1": _scan(1, "r1")}, "root": 1}, "'nodes' must be a list"),
    ({"nodes": [{"kind": "SeqScan", "relation": "r1", "children": []}], "root": 1}, "with an 'id'"),
    ({"nodes": [dict(_scan(1, "r1"), children=None)], "root": 1}, "node 1: 'children' must be a list"),
    ({"nodes": [dict(_scan(1, "r1"), cost_profile="c_s")], "root": 1}, "node 1: 'cost_profile' must be an object"),
    ({"nodes": [_scan(1, "r1"), _scan(2, "r2"),
                {"id": 3, "kind": "HashJoin", "children": [1, 2], "predicate": [{"left": "r1_key"}]}], "root": 3},
     "neither a join atom"),
    ({"nodes": [dict(_scan(1, "r1"), predicate=[{"col": "r1_val", "op": "<"}])], "root": 1}, "neither a join atom"),
    ({"nodes": [dict(_scan(1, "r1"), predicate=[{"col": "r1_val", "op": "<", "value": "abc"}])], "root": 1},
     "node 1: constant 'abc' cannot be compared with column 'r1.r1_val'"),
    # integer fields: only a JSON integer, not a bool, and no negative estimate_M
    ({"nodes": [dict(_scan(1, "r1"), id=None)], "root": 1}, "a node record's 'id' must be an integer, got None"),
    ({"nodes": [dict(_scan(1, "r1"), id="x")], "root": 1}, "a node record's 'id' must be an integer, got 'x'"),
    ({"nodes": [dict(_scan(1, "r1"), id=1.7)], "root": 1}, "a node record's 'id' must be an integer, got 1.7"),
    ({"nodes": [dict(_scan(1, "r1"), id=True)], "root": 1}, "a node record's 'id' must be an integer, got True"),
    ({"nodes": [_scan(1, "r1")], "root": None}, "plan document's 'root' must be an integer, got None"),
    ({"nodes": [_scan(1, "r1"), {"id": 2, "kind": "Sort", "children": [[1]]}], "root": 2},
     "node 2: a 'children' entry must be an integer, got [1]"),
    ({"nodes": [_scan(1, "r1"), {"id": 2, "kind": "Aggregate", "children": [1], "estimate_M": "many"}], "root": 2},
     "node 2: 'estimate_M' must be an integer >= 0, got 'many'"),
    ({"nodes": [_scan(1, "r1"), {"id": 2, "kind": "Aggregate", "children": [1], "estimate_M": -5}], "root": 2},
     "node 2: 'estimate_M' must be an integer >= 0, got -5"),
], ids=["top-level-not-object", "nodes-not-list", "node-without-id", "children-not-list",
        "cost-profile-not-object", "join-atom-without-right", "selection-atom-without-value",
        "constant-not-comparable", "id-null", "id-string", "id-float", "id-bool", "root-null",
        "children-entry-list", "estimate-m-string", "estimate-m-negative"])
def test_malformed_plan_reported_as_json(workdir, tmp_path, capsys, doc, match):
    path = tmp_path / "bad.plan"
    path.write_text(json.dumps(doc))
    assert _run(workdir, "predict", "--plan", str(path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and match in json.loads(err)["error"]


@pytest.mark.parametrize("name, change, match", [
    ("world", lambda doc: doc.pop("unit_means"), "missing key 'unit_means'"),
    ("world", lambda doc: doc["unit_vars"].pop("c_t"), "missing key 'c_t'"),
    ("units", lambda doc: doc["units"]["c_t"].pop("variance"), "missing key 'variance'"),
    ("units", lambda doc: doc["units"].pop("c_i"), "missing key 'c_i'"),
    ("world", lambda doc: doc["unit_vars"].update(c_t=-1e-12),
     "unit c_t: mean and variance must be finite and >= 0, got "),
    ("world", lambda doc: doc["unit_means"].update(c_s=float("inf")),
     "unit c_s: mean and variance must be finite and >= 0, got inf"),
    ("world", lambda doc: doc["coefs"]["SeqScan"]["c_s"].__setitem__(0, "x"),
     "coefficients for (SeqScan, c_s) must be a list of finite numbers, got ['x'"),
    ("world", lambda doc: doc["coefs"]["SeqScan"]["c_s"].__setitem__(0, True),
     "coefficients for (SeqScan, c_s) must be a list of finite numbers, got [True"),
    ("world", lambda doc: doc.update(seed=42.9), "seed must be an integer >= 0, got 42.9"),
    ("units", lambda doc: doc["units"]["c_t"].update(mean="1e-6"),
     "unit c_t: mean and variance must be finite and >= 0, got '1e-6' and "),
    ("units", lambda doc: doc["units"]["c_t"].update(mean=float("nan")),
     "unit c_t: mean and variance must be finite and >= 0, got nan and "),
    ("units", lambda doc: doc["units"]["c_o"].update(variance=-1e-12),
     "unit c_o: mean and variance must be finite and >= 0, got "),
    ("units", lambda doc: doc["units"]["c_t"].update(observations="many"),
     "unit c_t: observations must be an integer >= 2, got 'many'"),
    ("units", lambda doc: doc["units"]["c_i"].update(observations=1),
     "unit c_i: observations must be an integer >= 2, got 1"),
    ("units", lambda doc: doc["units"]["c_s"].update(observations=True),
     "unit c_s: observations must be an integer >= 2, got True"),
    ("units", lambda doc: doc.update(metadata=[1]), "metadata must be an object, got [1]"),
], ids=["world-without-unit-means", "world-without-c_t-variance", "unit-without-variance", "units-without-c_i",
        "world-negative-c_t-variance", "world-infinite-c_s-mean", "world-string-coefficient",
        "world-bool-coefficient", "world-float-seed", "units-string-c_t-mean", "units-nan-c_t-mean",
        "units-negative-c_o-variance", "units-string-observations", "units-one-observation",
        "units-bool-observations", "units-list-metadata"])
def test_malformed_world_and_units_reported_as_json(workdir, tmp_path, capsys, name, change, match):
    for fname in ("world.json", "units.json"):
        (tmp_path / fname).write_text((workdir / "out" / fname).read_text())
    doc = json.loads((tmp_path / f"{name}.json").read_text())
    change(doc)
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    plan = workdir / "out" / "workload" / "scan-0.plan"
    assert _run(workdir, "predict", "--plan", str(plan), "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{tmp_path / name}.json" in json.loads(err)["error"] and match in json.loads(err)["error"]


def _value_paths(doc, prefix=()):
    """The key path of every value in a JSON document, a container's
    before its members'."""
    members = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    return [path for key, value in members for path in [prefix + (key,), *_value_paths(value, prefix + (key,))]]


# Every value of a world file and a units file: their layout does not
# depend on the seed or on the calibrated numbers.
_INPUT_VALUES = [("world.json", path) for path in _value_paths(json.loads(simeval.TrueCostWorld.generate(0).to_json()))]
_INPUT_VALUES += [("units.json", path) for path in _value_paths({
    "units": {u: {"mean": 1.0, "variance": 1.0, "observations": 2} for u in calib.COST_UNITS},
    "metadata": {"units_independent": True},
})]
_REPLACEMENTS = {"null": None, "bool": True, "string": "1.0", "list": [], "object": {}, "negative": -1.5,
                 "beyond-float": 10**400}


@settings(max_examples=100, deadline=None)
@given(target=st.sampled_from(_INPUT_VALUES), kind=st.sampled_from([*_REPLACEMENTS, "deleted"]),
       command=st.sampled_from(["predict", "evaluate"]))
@example(target=("units.json", ("units", "c_t", "mean")), kind="null", command="predict")
@example(target=("world.json", ("seed",)), kind="bool", command="evaluate")
@example(target=("world.json", ("unit_vars", "c_o")), kind="string", command="predict")
# a world whose coefficient slot is empty, or missing, used to load and
# fail at its first probe with an error that did not name the file
@example(target=("world.json", ("coefs", "HashJoin", "c_t")), kind="list", command="predict")
@example(target=("world.json", ("coefs",)), kind="object", command="predict")
@example(target=("world.json", ("coefs", "SeqScan", "c_s")), kind="deleted", command="evaluate")
@example(target=("world.json", ("coefs", "SeqScan", "c_s", 0)), kind="negative", command="evaluate")
@example(target=("units.json", ("units", "c_s", "variance")), kind="beyond-float", command="predict")
def test_world_and_units_json_or_one_error_line(workdir, target, kind, command):
    # One value of world.json or units.json replaced or its key deleted:
    # `predict` and `evaluate` exit 0, or exit 1 with one JSON line that
    # names the file.
    name, path = target
    docs = {f: json.loads((workdir / "out" / f).read_text()) for f in ("world.json", "units.json")}
    parent = docs[name]
    for key in path[:-1]:
        parent = parent[key]
    if kind == "deleted":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _REPLACEMENTS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        for f, doc in docs.items():
            with open(os.path.join(tmp, f), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        workload = workdir / "out" / "workload"
        argv = {"predict": ["--plan", str(workload / "join-0.plan")],
                "evaluate": ["--workload", str(workload / "manifest.json")]}[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _run(workdir, command, *argv, "--out-dir", tmp)
        if code != 0:
            assert code == 1 and err.getvalue().count("\n") == 1
            assert repr(os.path.join(tmp, name)) in json.loads(err.getvalue())["error"]


# The layout of the test-scale pipeline's join-0.plan, whose values differ:
# two scans with a selection atom each under a join with one join atom.
_JOIN_PLAN = {"nodes": [
    *({"children": [], "cost_profile": {"c_o": "C2", "c_r": "C1", "c_s": "C3", "c_t": "C3"}, "id": i, "kind": "SeqScan",
       "predicate": [{"col": f"r{i}_val", "op": "<", "value": 1}], "relation": f"r{i}"} for i in (1, 2)),
    {"children": [1, 2], "cost_profile": {"c_o": "C5", "c_t": "C5"}, "id": 3, "kind": "HashJoin",
     "predicate": [{"left": "r1_key", "right": "r2_key"}]},
], "root": 3}
# One change to a plan document: a value replaced or its key deleted, a
# join child made dangling or the join itself, a column no relation has,
# or a scan's selection atom replaced by a join atom, which it never applies.
_PLAN_VALUES = {**_REPLACEMENTS, "dangling": 9, "cycle": 3, "unknown-column": "zzz",
                "join-atom": {"left": "r1_key", "right": "r2_key"}}
_PLAN_CHANGES = st.one_of(
    st.tuples(st.sampled_from(_value_paths(_JOIN_PLAN)), st.sampled_from([*_REPLACEMENTS, "deleted"])),
    st.tuples(st.sampled_from([("nodes", 2, "children", i) for i in (0, 1)]), st.sampled_from(["dangling", "cycle"])),
    st.tuples(st.sampled_from([("nodes", 0, "predicate", 0, "col"), ("nodes", 1, "predicate", 0, "col"),
                               ("nodes", 2, "predicate", 0, "left"), ("nodes", 2, "predicate", 0, "right")]),
              st.just("unknown-column")),
    st.tuples(st.sampled_from([("nodes", i, "predicate", 0) for i in (0, 1)]), st.just("join-atom")),
)


@settings(max_examples=200, deadline=None)
@given(change=_PLAN_CHANGES, command=st.sampled_from(["predict", "fitcost", "evaluate"]))
# a column no relation has used to load and fail where the plan ran, with
# an error that named neither the plan file nor its label
@example(change=(("nodes", 0, "predicate", 0, "col"), "unknown-column"), command="predict")
@example(change=(("nodes", 2, "predicate", 0, "right"), "unknown-column"), command="evaluate")
@example(change=(("nodes", 2, "predicate"), "list"), command="evaluate")  # a join without a join atom
@example(change=(("nodes", 1, "predicate", 0, "value"), "string"), command="fitcost")
@example(change=(("nodes", 0, "predicate", 0), "join-atom"), command="predict")
@example(change=(("nodes", 2, "children", 1), "cycle"), command="evaluate")
def test_plan_document_or_one_error_line(workdir, change, command):
    # `predict` and `fitcost` exit 0, or exit 1 with one JSON line that
    # names the plan file; so does `evaluate` over a manifest of the
    # changed plan and scan-0, naming the file or the label. (A manifest of
    # one plan is refused whatever the plan: it has no correlation.)
    path, kind = change
    doc = json.loads((workdir / "out" / "workload" / "join-0.plan").read_text())
    assert _value_paths(doc) == _value_paths(_JOIN_PLAN)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "deleted":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _PLAN_VALUES[kind]
    with tempfile.TemporaryDirectory() as tmp:
        for f in ("world.json", "units.json"):
            shutil.copy(workdir / "out" / f, tmp)
        plan = os.path.join(tmp, "join-0.plan")
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        manifest = os.path.join(tmp, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            scan = str(workdir / "out" / "workload" / "scan-0.plan")
            json.dump({"plans": [{"label": "join-0", "path": plan}, {"label": "scan-0", "path": scan}]}, fh)
        argv = ["--workload", manifest] if command == "evaluate" else ["--plan", plan]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _run(workdir, command, *argv, "--out-dir", tmp)
        if code != 0:
            assert code == 1 and err.getvalue().count("\n") == 1
            error = json.loads(err.getvalue())["error"]
            names = [repr(plan)] + (["plan 'join-0'"] if command == "evaluate" else [])
            assert any(name in error for name in names), error


@pytest.mark.parametrize("name", ["world", "units", "plan", "manifest", "relation", "config"])
def test_directory_in_place_of_an_input_file_names_it(workdir, tmp_path, capsys, name):
    # A directory where an input file belongs cannot be read; the error
    # says which input it is, not only the operating system's words.
    for fname in ("world.json", "units.json"):
        shutil.copy(workdir / "out" / fname, tmp_path / fname)
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(workdir / "data" / "r1.schema", data)
    cfg = str(workdir / "run.cfg")
    plan = str(workdir / "out" / "workload" / "scan-0.plan")
    what, path, argv = {
        "world": ("world file", tmp_path / "world.json", ["calibrate", "--config", cfg]),
        "units": ("unit model", tmp_path / "units.json", ["predict", "--plan", plan, "--config", cfg]),
        "plan": ("plan file", tmp_path / "dir.plan", ["predict", "--plan", str(tmp_path / "dir.plan"), "--config", cfg]),
        "manifest": ("workload manifest", tmp_path / "manifest.json",
                     ["evaluate", "--workload", str(tmp_path / "manifest.json"), "--config", cfg]),
        "relation": ("relation CSV", data / "r1.csv", ["ingest", "--data-dir", str(data), "--config", cfg]),
        "config": ("config file", tmp_path / "run.cfg", ["gen-world", "--config", str(tmp_path / "run.cfg")]),
    }[name]
    path.unlink(missing_ok=True)
    path.mkdir()
    assert cli.dispatch([*argv, "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == f"{what} {str(path)!r} cannot be read: Is a directory"


@pytest.mark.parametrize("name", ["world", "units", "plan", "manifest", "calibration", "sidecar"])
def test_every_input_file_error_names_the_file(workdir, tmp_path, capsys, name):
    # Each input file in turn holds text that is not its format; the
    # others are the pipeline's own.
    for fname in ("world.json", "units.json"):
        shutil.copy(workdir / "out" / fname, tmp_path / fname)
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(workdir / "data" / "r1.csv", data)
    plan = str(workdir / "out" / "workload" / "scan-0.plan")
    path, argv = {
        "world": (tmp_path / "world.json", ["calibrate"]),
        "units": (tmp_path / "units.json", ["predict", "--plan", plan]),
        "plan": (tmp_path / "bad.plan", ["predict", "--plan", str(tmp_path / "bad.plan")]),
        "manifest": (tmp_path / "manifest.json", ["evaluate", "--workload", str(tmp_path / "manifest.json")]),
        "calibration": (tmp_path / "records.csv", ["calibrate", "--records", str(tmp_path / "records.csv")]),
        "sidecar": (data / "r1.schema", ["ingest", "--data-dir", str(data)]),
    }[name]
    path.write_text("not {a} format\n")
    assert _run(workdir, *argv, "--out-dir", str(tmp_path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and f"{str(path)!r} is malformed: " in json.loads(lines[0])["error"]


def test_bad_calibration_record_names_file_and_line(workdir, tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("unit,count,elapsed_seconds\nc_t,1.5,0.1\n")
    assert _run(workdir, "calibrate", "--records", str(records), "--out-dir", str(tmp_path)) == 1
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"calibration CSV {str(records)!r} is malformed: line 2: invalid literal for int() with base 10: '1.5'")


def test_calibrate_makes_its_out_dir(workdir, tmp_path):
    fresh = tmp_path / "a" / "b"
    assert _run(workdir, "calibrate", "--world", str(workdir / "out" / "world.json"), "--out-dir", str(fresh)) == 0
    assert (fresh / "calibration.csv").is_file() and (fresh / "units.json").is_file()


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["frobnicate"])
    assert exc.value.code != 0


def _parser_with_every_option():
    """The parser as it was before each dispatch built only its own
    subcommand's options: every subcommand has all of its options."""
    parser = argparse.ArgumentParser(
        prog="runtimedist", description="Predict running-time distributions of relational query plans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in cli.COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value configuration file")
        for key, (default, flag, _) in cli.SETTINGS.items():
            if flag:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))
        sp.add_argument("--ablation", choices=propagate.POLICIES,
                        help="covariance policy: all (V1), no-var-c (V2), no-var-x (V3), no-cov (V4)")
        for option, kwargs in options.items():
            sp.add_argument(option, **kwargs)
        sp.set_defaults(func=fn)
    return parser


def _exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("command", [name for name, _, _ in cli.COMMANDS])
def test_subcommand_help_and_usage_errors_match_a_parser_with_every_option(capsys, command):
    full = _parser_with_every_option().parse_args
    for argv, code in (([command, "--help"], 0), ([command, "--frobnicate", "x"], 2)):
        want = _exit_and_output(capsys, full, argv)
        assert want[0] == code
        assert _exit_and_output(capsys, cli.dispatch, argv) == want


def test_top_level_help_lists_every_subcommand(capsys):
    want = _exit_and_output(capsys, _parser_with_every_option().parse_args, ["--help"])
    code, out = _exit_and_output(capsys, cli.dispatch, ["--help"])
    assert (code, out) == want and code == 0
    for name, _, _ in cli.COMMANDS:
        assert name in out.out


@pytest.mark.parametrize("command", [name for name, _, _ in cli.COMMANDS])
def test_runs_over_1000_refused_by_every_subcommand(tmp_path, capsys, command):
    # Every subcommand checks the run count with the config, before it
    # writes anything, not only evaluate.
    cfg = tmp_path / "runs.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\nruns = 1001\n")
    extra = ["--plan", "x.plan"] if command in ("fitcost", "predict", "oracle") else []
    assert cli.dispatch([command, "--config", str(cfg)] + extra) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("runs must be at most 1000, got 1001")
    assert not (tmp_path / "out").exists() and not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["gen-world", "gen-workload", "calibrate"])
def test_out_dir_that_is_a_file_reported_as_json(workdir, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    # The open, not a makedirs, finds the file where a directory should be.
    argv = [command, "--out-dir", str(blocker), "--data-dir", str(blocker)]
    world = ["--world", str(workdir / "out" / "world.json")] if command == "calibrate" else []
    assert _run(workdir, *argv, *world) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(blocker) in json.loads(err)["error"]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("key, value, minimum", [
    ("relation_size", 0, 1), ("relation_size", -3, 1), ("relation_size", 2.5, 1), ("key_domain", 0, 1),
    ("scan_count", -1, 0), ("join_count", -1, 0), ("join3_count", -1, 0), ("join3_count", "many", 0),
])
def test_bad_size_setting_reported_as_json(tmp_path, capsys, key, value, minimum):
    # Checked before any data is written.
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\n{key} = {value}\n")
    assert cli.dispatch(["gen-workload", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"{key} must be an integer >= {minimum}, got {value!r}"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("key, value, least", [
    (key, value, least)
    for key, (default, _, least) in cli.SETTINGS.items() if type(default) is int
    for value in ([] if least is None else [least - 1]) + [2.5]
])
def test_every_integer_setting_checked_by_every_subcommand(tmp_path, capsys, key, value, least):
    # gen-world reads none of these but seed, and still refuses each one
    # before it writes its world.
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"out_dir = {tmp_path / 'out'}\n{key} = {value}\n")
    assert cli.dispatch(["gen-world", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    bound = "" if least is None else f" >= {least}"
    assert json.loads(err)["error"] == f"{key} must be an integer{bound}, got {value!r}"
    assert not (tmp_path / "out").exists()


def test_unknown_setting_reported_as_json(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"out_dir = {tmp_path / 'out'}\npool_sise = 9\n")
    assert cli.dispatch(["gen-world", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"{cfg}: unknown setting 'pool_sise'"
    assert not (tmp_path / "out").exists()


def test_unreadable_csv_record_reported_as_json(tmp_path, capsys):
    # A field over the csv module's limit is one JSON line naming the file
    # and the record's line, not a traceback.
    data = tmp_path / "data"
    data.mkdir()
    (data / "big.schema").write_text("a,string\n")
    (data / "big.csv").write_text("a\nx\n" + "y" * 131073 + "\n")
    assert cli.dispatch(["ingest", "--data-dir", str(data), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith(
        f"relation CSV {str(data / 'big.csv')!r} is malformed: line 3: field larger than field limit")


def test_int64_cell_out_of_range_reported_as_json(tmp_path, capsys):
    # An int64 cell outside [-2**63, 2**63) is refused at ingest, so every
    # int64 column the CLI loads holds int64 values; one JSON line names
    # the file and the record's line.
    data = tmp_path / "data"
    data.mkdir()
    (data / "big.schema").write_text("a,int64\n")
    (data / "big.csv").write_text(f"a\n{2**63 - 1}\n99999999999999999999999\n")
    assert cli.dispatch(["ingest", "--data-dir", str(data), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == (f"relation CSV {str(data / 'big.csv')!r} is malformed: "
                                        "line 3: int64 value 99999999999999999999999 is outside [-2**63, 2**63)")


@pytest.mark.parametrize("case", ["config-not-utf8", "config-without-equals", "config-missing", "csv-not-utf8",
                                  "csv-missing", "column-declared-twice"])
def test_config_and_relation_csv_errors_name_the_file(tmp_path, capsys, case):
    # The config file and the relation CSVs are read as every other input
    # file is: a missing, non-UTF-8 or malformed one is named in the error.
    data = tmp_path / "data"
    cfg, schema, rel = tmp_path / "run.cfg", data / "r.schema", data / "r.csv"
    files = {cfg: f"data_dir = {data}\nout_dir = {tmp_path / 'out'}\n".encode(), schema: b"a,int64\n", rel: b"a\n1\n"}
    changes, want = {
        "config-not-utf8": ({cfg: b"seed = \xff\n"}, f"config file {str(cfg)!r} is malformed: 'utf-8' codec can't "
                            "decode byte 0xff in position 7: invalid start byte"),
        "config-without-equals": ({cfg: files[cfg] + b"just junk\n"},
                                  f"config file {str(cfg)!r} is malformed: line 3: expected key = value"),
        "config-missing": ({cfg: None}, f"config file {str(cfg)!r} not found; check --config"),
        "csv-not-utf8": ({rel: b"a\n1\xff\n"}, f"relation CSV {str(rel)!r} is malformed: 'utf-8' codec can't "
                         "decode byte 0xff in position 3: invalid start byte"),
        "csv-missing": ({rel: None}, f"relation CSV {str(rel)!r} not found; r.schema declares it"),
        "column-declared-twice": ({schema: b"a,int64\na,int64\n", rel: b"a,a\n1,1\n"},
                                  f"schema sidecar {str(schema)!r} is malformed: column 'a' is declared twice"),
    }[case]
    files.update(changes)
    data.mkdir()
    for path, text in files.items():
        if text is not None:
            path.write_bytes(text)
    assert cli.dispatch(["ingest", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == want
    assert not (tmp_path / "out").exists()


# One change to the pipeline's inputs: a config line's key or value, or a
# relation CSV's record. "\udcff" is written as the byte 0xff.
_CONFIG_KEYS = [*cli.SETTINGS, "pool_sise", ""]
_CONFIG_VALUES = ["", "0", "-1", "1", "2.5", "1e400", "nan", "abc", "'7'", "= 1", "\udcff"]
_CSV_CHANGES = {
    "not-utf8": lambda record: b"\xff" + record,
    "field-short": lambda record: record.rpartition(b",")[0],
    "field-long": lambda record: record + b",0",
    "no-cast": lambda record: b"x" + record,
    "unterminated-quote": lambda record: b'"' + record,
    "field-over-limit": lambda record: record + b"1" * 131073,
    "header-deleted": None,
}


@settings(max_examples=200, deadline=None)
@given(change=st.one_of(
    st.tuples(st.just("key"), st.integers(0, len(_SETTINGS) + 1), st.sampled_from(_CONFIG_KEYS)),
    st.tuples(st.just("value"), st.integers(0, len(_SETTINGS) + 1), st.sampled_from(_CONFIG_VALUES)),
    st.tuples(st.sampled_from(["r1", "r2", "r3"]), st.integers(1, 200), st.sampled_from(list(_CSV_CHANGES))),
), command=st.sampled_from(["ingest", "predict"]))
@example(change=("key", 4, "pool_sise"), command="ingest")
@example(change=("key", 0, "world"), command="predict")  # the data directory as the world file
@example(change=("key", 1, "data_dir"), command="predict")
@example(change=("value", 2, "2.5"), command="ingest")
@example(change=("value", 0, "abc"), command="predict")
# a config file or relation CSV that is not UTF-8 used to give an error
# that did not name the file
@example(change=("value", 3, "\udcff"), command="ingest")
@example(change=("r2", 17, "not-utf8"), command="predict")
@example(change=("r1", 200, "field-short"), command="ingest")
@example(change=("r3", 1, "field-long"), command="predict")
@example(change=("r1", 90, "no-cast"), command="ingest")
@example(change=("r2", 199, "unterminated-quote"), command="ingest")
@example(change=("r3", 5, "field-over-limit"), command="predict")
@example(change=("r1", 1, "header-deleted"), command="predict")
def test_config_and_relation_csv_or_one_error_line(workdir, change, command):
    # `ingest` and `predict` exit 0, or exit 1 with one JSON line that names
    # the config file, the relation CSV or the setting's key.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        shutil.copytree(workdir / "data", tmp / "data")
        (tmp / "out").mkdir()
        for f in ("world.json", "units.json"):
            shutil.copy(workdir / "out" / f, tmp / "out" / f)
        lines = [("data_dir", str(tmp / "data")), ("out_dir", str(tmp / "out")), *_SETTINGS]
        if change[0] in ("key", "value"):
            what, i, new = change
            key, value = lines[i]
            lines[i] = (new, value) if what == "key" else (key, new)
            named = [key, lines[i][0]]
            if lines[i][0] in ("data_dir", "out_dir", "world"):
                named.append(lines[i][1])  # a path setting's error may name the path
        else:
            rel, i, kind = change
            path = tmp / "data" / f"{rel}.csv"
            records = path.read_bytes().split(b"\n")
            if kind == "header-deleted":
                del records[0]
            else:
                records[i] = _CSV_CHANGES[kind](records[i])
            path.write_bytes(b"\n".join(records))
            named = [str(path)]
        cfg = tmp / "run.cfg"
        cfg.write_bytes("".join(f"{key} = {value}\n" for key, value in lines).encode("utf-8", "surrogateescape"))
        argv = {"ingest": [], "predict": ["--plan", str(workdir / "out" / "workload" / "join-0.plan")]}[command]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative path setting stays in the temporary directory
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch([command, "--config", str(cfg), *argv])
        finally:
            os.chdir(cwd)
        if code != 0:
            assert code == 1 and err.getvalue().count("\n") == 1
            error = json.loads(err.getvalue())["error"]
            assert any(name in error for name in [str(cfg), *named]), error


@pytest.mark.parametrize("key", ["data_dir", "out_dir", "world"])
def test_numeric_path_setting_reported_as_json(tmp_path, capsys, monkeypatch, key):
    # A config value that reads as a number is not a path: a numeric world
    # would open that file descriptor.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "num.cfg"
    cfg.write_text(f"{key} = 2024\n")
    assert cli.dispatch(["gen-world", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"{key} must be a string, got 2024"
    assert os.listdir(tmp_path) == ["num.cfg"]


@pytest.mark.parametrize("option, value, bound", [
    ("--n", 0, "an integer >= 1"), ("--n", -3, "an integer >= 1"), ("--pools", -1, "an integer >= 0"),
    ("--pools", 1, "0 or an integer >= 2"),  # one pool has no unbiased variance
], ids=["--n-0-1", "--n--3-1", "--pools--1-0", "--pools-1-2"])
def test_bad_oracle_count_reported_as_json(workdir, capsys, option, value, bound):
    plan = workdir / "out" / "workload" / "scan-0.plan"
    assert _run(workdir, "oracle", "--plan", str(plan), option, str(value)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"{option} must be {bound}, got {value}"


@pytest.mark.parametrize("command, key, value, bound", [
    ("sample", "pool_size", 2.7, " >= 1"), ("sample", "sample_n", "many", ""), ("sample", "seed", -1, " >= 0"),
    ("calibrate", "calib_reps", 1, " >= 2"), ("evaluate", "grid_w", 0, " >= 1"), ("evaluate", "runs", 1.5, " >= 1"),
])
def test_bad_integer_setting_reported_as_json(workdir, tmp_path, capsys, command, key, value, bound):
    # Read through the one integer check: 2.7 is not truncated to 2.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + f"{key} = {value}\n")
    assert cli.dispatch([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"{key} must be an integer{bound}, got {value!r}"


@pytest.mark.parametrize("value", ["many", -0.5, 0, 1.5])
def test_bad_sample_ratio_reported_as_json(workdir, tmp_path, capsys, value):
    # Read where sample_n <= 0 selects it: a number in (0, 1].
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + f"sample_n = 0\nsample_ratio = {value}\n")
    assert cli.dispatch(["sample", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"sample_ratio must be a number in (0, 1], got {value!r}"


@pytest.mark.parametrize("value, rows", [(1, 200), (0.05, 10), (0.001, 2)])  # a derived size is at least 2
def test_sample_ratio_in_range_sizes_the_pool(workdir, tmp_path, value, rows):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + f"out_dir = {tmp_path}\nsample_n = 0\nsample_ratio = {value}\n")
    assert cli.dispatch(["sample", "--config", str(cfg)]) == 0
    with open(tmp_path / "samples" / "r1.0.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + rows  # header, then ceil(ratio * 200) rows


@pytest.mark.parametrize("where", ["flag", "config"])
def test_sample_n_of_one_reported_as_json(workdir, tmp_path, capsys, where):
    # An explicit sample_n is used as given, so 1 is refused, not raised
    # to the floor of 2 that a size derived from sample_ratio gets: the
    # variance estimate divides by n - 1.
    cfg = tmp_path / "one.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + f"out_dir = {tmp_path / 'out'}\n"
                   + ("sample_n = 1\n" if where == "config" else ""))
    argv = ["sample", "--config", str(cfg)] + (["--sample-n", "1"] if where == "flag" else [])
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == (
        "sample_n must be at most 0 (derive it from sample_ratio) or an integer >= 2, got 1")
    assert not (tmp_path / "out").exists()


def test_nonpositive_sample_n_selects_sample_ratio(workdir, tmp_path):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + f"out_dir = {tmp_path}\nsample_n = -3\nsample_ratio = 0.1\n")
    assert cli.dispatch(["sample", "--config", str(cfg)]) == 0
    with open(tmp_path / "samples" / "r1.0.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + 20  # header, then ceil(0.1 * 200) rows
