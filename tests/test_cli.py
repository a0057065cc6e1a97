"""End-to-end command-line pipeline."""

import argparse
import csv
import json
import os

import pytest

from runtimedist import cli, propagate, selest


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"data_dir = {root / 'data'}",
                f"out_dir = {root / 'out'}",
                "seed = 7",
                "relation_size = 200",
                "key_domain = 20",
                "scan_count = 4",
                "join_count = 2",
                "join3_count = 1",
                "calib_reps = 30",
                "runs = 3",
                "sample_n = 25",
            ]
        )
        + "\n"
    )
    # Every test reads a complete pipeline, whichever run first: the world,
    # the data and workload, and the calibrated units. The step tests run
    # each step again and check its output, which is deterministic.
    for step in ("gen-world", "gen-workload", "calibrate"):
        assert cli.dispatch([step, "--config", str(cfg)]) == 0
    return root


def _run(workdir, *argv):
    return cli.dispatch(list(argv) + ["--config", str(workdir / "run.cfg")])


def test_config_parsing(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment\nseed = 3\nratio = 0.5\nname = 'x'\n\n")
    cfg = cli.parse_config_file(path)
    assert cfg == {"seed": 3, "ratio": 0.5, "name": "x"}
    bad = tmp_path / "b.cfg"
    bad.write_text("no equals sign\n")
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config_file(bad)


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


def _plan_file(tmp_path, name, nodes, root):
    path = tmp_path / f"{name}.plan"
    path.write_text(json.dumps({"nodes": nodes, "root": root}))
    return str(path)


def _scan(nid, rel):
    return {"id": nid, "kind": "SeqScan", "relation": rel, "children": []}


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
    # default SeqScan profile lacks, and C4 where the world drew C3's two
    for unit, tag in [("c_i", "C2"), ("c_s", "C4")]:
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
    assert "runs must be at least 1" in json.loads(capsys.readouterr().err)["error"]
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
], ids=["world-without-unit-means", "world-without-c_t-variance", "unit-without-variance", "units-without-c_i"])
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


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["frobnicate"])
    assert exc.value.code != 0


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


@pytest.mark.parametrize("command, key, value, bound", [
    ("sample", "pool_size", 2.7, " >= 1"), ("sample", "sample_n", "many", ""), ("sample", "seed", -1, " >= 0"),
    ("calibrate", "calib_reps", 1, " >= 2"), ("evaluate", "grid_w", 0, " >= 1"), ("evaluate", "runs", 1.5, ""),
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


@pytest.mark.parametrize("value, rows", [(1, 200), (0.05, 10)])
def test_sample_ratio_in_range_sizes_the_pool(workdir, tmp_path, value, rows):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + f"out_dir = {tmp_path}\nsample_n = 0\nsample_ratio = {value}\n")
    assert cli.dispatch(["sample", "--config", str(cfg)]) == 0
    with open(tmp_path / "samples" / "r1.0.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + rows  # header, then ceil(ratio * 200) rows


def test_nonpositive_sample_n_selects_sample_ratio(workdir, tmp_path):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + f"out_dir = {tmp_path}\nsample_n = -3\nsample_ratio = 0.1\n")
    assert cli.dispatch(["sample", "--config", str(cfg)]) == 0
    with open(tmp_path / "samples" / "r1.0.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + 20  # header, then ceil(0.1 * 200) rows
