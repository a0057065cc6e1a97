"""Command-line pipeline wiring.

Subcommands: ingest, sample, calibrate, fitcost, predict, evaluate, oracle,
gen-workload, gen-world. All take a flat key-value configuration file
(`key = value` per line, each key one of `SETTINGS`); command-line flags
override config values, and every setting is checked before any
subcommand runs. Runs are deterministic for a fixed config and seed;
reports differ only in their timestamp field.

Every input file, the config file and the relation CSVs included, is read
through `_read`, whose errors name the file; every output file is opened
through `_out`, which makes its directory only when that is missing. No
other module touches the file system.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

from . import calib, plan as planmod, propagate, selest, simeval, store

# key: (default, whether a flag sets it, least value of an integer setting
# or None for any integer). A setting takes its default's type.
SETTINGS = {
    "data_dir": ("data", True, None),
    "out_dir": ("out", True, None),
    "seed": (42, True, 0),
    "sample_n": (0, True, None),            # at most 0: derive from sample_ratio
    "sample_ratio": (0.05, True, None),     # a number in (0, 1]
    "pool_size": (2, True, 1),
    "grid_w": (10, True, 1),
    "policy": ("all", False, None),         # one of propagate.POLICIES; --ablation sets it
    "calib_reps": (50, False, 2),
    "runs": (5, False, 1),
    "world": ("", True, None),              # path to world.json; default <out_dir>/world.json
    "scan_count": (80, False, 0),
    "join_count": (80, False, 0),
    "join3_count": (40, False, 0),
    "relation_size": (2000, False, 1),
    "key_domain": (200, False, 1),
}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    """Flat `key = value` pairs; quotes optional, ints/floats detected."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        out[key.strip()] = _coerce(raw.strip().strip('"').strip("'"))
    return out


def _coerce(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def load_config(args) -> dict:
    """Every setting: its default, then the config file's value, then the
    flag's; a ConfigError names the first unknown or out-of-range one."""
    cfg = {key: default for key, (default, _, _) in SETTINGS.items()}
    if getattr(args, "config", None):
        for key, value in _read(args.config, "config file", "check --config", parse_config).items():
            if key not in SETTINGS:
                raise ConfigError(f"{args.config}: unknown setting {key!r}")
            cfg[key] = value
    for key in SETTINGS:
        if getattr(args, key, None) not in (None, ""):
            cfg[key] = getattr(args, key)
    if getattr(args, "ablation", None):
        cfg["policy"] = args.ablation
    if cfg["policy"] not in propagate.POLICIES:
        raise ConfigError(f"unknown policy {cfg['policy']!r}; one of {propagate.POLICIES}")
    for key, (default, _, least) in SETTINGS.items():
        value = cfg[key]
        if isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        elif isinstance(default, int):
            calib.checked_int(value, key, least, error=ConfigError)
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
            raise ConfigError(f"{key} must be a number in (0, 1], got {value!r}")
    if cfg["sample_n"] == 1:  # the variance estimate divides by n - 1; a derived size is floored at 2
        raise ConfigError("sample_n must be at most 0 (derive it from sample_ratio) or an integer >= 2, got 1")
    simeval.check_runs(cfg["runs"])
    return cfg


# ---------------------------------------------------------------------------
# Shared loading helpers.


def load_relations(cfg) -> dict:
    data_dir = cfg["data_dir"]
    if not os.path.isdir(data_dir):
        raise ConfigError(f"data directory {data_dir!r} does not exist")
    relations = {}
    for entry in sorted(os.listdir(data_dir)):
        if not entry.endswith(".schema"):
            continue
        name = entry[: -len(".schema")]
        schema = _read(os.path.join(data_dir, entry), "schema sidecar", "run gen-workload first",
                       store.parse_schema_sidecar)
        relations[name] = _read(os.path.join(data_dir, name + ".csv"), "relation CSV", f"{entry} declares it",
                                lambda text: store.parse_csv(text, name, schema))
    if not relations:
        raise ConfigError(f"no .schema sidecars found in {data_dir!r}")
    return relations


def sample_n_for(cfg, relations) -> int:
    n = cfg["sample_n"]
    if n <= 0:  # derived from sample_ratio, at least 2
        n = max(math.ceil(cfg["sample_ratio"] * min(r.row_count for r in relations.values())), 2)
    return n


def build_pool(cfg, relations) -> store.SamplePool:
    return store.build_pool(relations, sample_n_for(cfg, relations), cfg["pool_size"], cfg["seed"])


def world_path(cfg) -> str:
    return cfg["world"] or os.path.join(cfg["out_dir"], "world.json")


def _read(path, what: str, hint: str, parse):
    """`parse` of a file's text, its line ends as written (for the csv
    module); a file that is missing or cannot be read (a directory, say),
    is not utf-8 or whose text `parse` refuses is a ConfigError that names
    it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"{what} {path!r} not found; {hint}") from None
    except OSError as exc:
        raise ConfigError(f"{what} {path!r} cannot be read: {exc.strerror}") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"{what} {path!r} is malformed: {detail}") from None


def load_world(cfg) -> simeval.TrueCostWorld:
    return _read(world_path(cfg), "world file", "run gen-world first", simeval.TrueCostWorld.from_json)


def _parse_units(text: str) -> calib.CostUnitModel:
    """Every unit's model, each mean and variance a finite number >= 0 and
    each observation count an integer >= 2, and an object of metadata."""
    doc = json.loads(text)
    units = {}
    for u in calib.COST_UNITS:
        v = doc["units"][u]
        calib.check_unit(u, v["mean"], v["variance"])
        observations = calib.checked_int(v["observations"], f"unit {u}: observations", 2)
        units[u] = calib.UnitModel(mean=v["mean"], variance=v["variance"], observations=observations)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata must be an object, got {metadata!r}")
    return calib.CostUnitModel(units=units, metadata=metadata)


def load_units(cfg) -> calib.CostUnitModel:
    path = os.path.join(cfg["out_dir"], "units.json")
    return _read(path, "unit model", "run calibrate first", _parse_units)


def load_plan(path, relations) -> planmod.Plan:
    """Parse a plan file; every scan must name a loaded relation. Its
    columns resolve where it runs, under `planmod.naming` of the file."""
    def parse(text):
        p = planmod.parse_plan(text)
        for nid, (rel, _) in p.index.appearance.items():
            if rel not in relations:
                raise planmod.PlanError(f"node {nid}: relation {rel!r} is not in the data directory")
        return p
    return _read(path, "plan file", "check the plan's path", parse)


def _parse_manifest(text: str) -> list[dict]:
    """A workload manifest's plan records."""
    doc = json.loads(text)
    recs = doc.get("plans") if isinstance(doc, dict) else None
    if not isinstance(recs, list) or not all(
        isinstance(r, dict) and isinstance(r.get("label"), str) and isinstance(r.get("path"), str) for r in recs
    ):
        raise ValueError("need 'plans', a list of records with string 'label' and 'path'")
    return recs


def _out(path, mode="w"):
    """`path` opened to write (mode "w") or append ("a") text; its directory
    is made only when the open finds it missing, and opened once more."""
    for made in (False, True):
        try:
            return open(path, mode, newline="", encoding="utf-8")
        except FileNotFoundError:
            if made:
                raise
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)


def _write_csv(path, header, rows, mode="w"):
    """`rows` as CSV records, after `header` unless that is None."""
    with _out(path, mode) as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _write_int_csv(path, header, rows):
    """`_write_csv`'s bytes for a header and rows the csv module would not
    quote, such as ints: one `%s` template per line, not a call per field,
    and one write."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with _out(path) as fh:
        fh.write("".join([line % tuple(header)] + [line % row for row in rows]))


def _write_json(path, doc):
    with _out(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stamp(doc: dict) -> dict:
    doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return doc


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_gen_world(cfg, args):
    world = simeval.TrueCostWorld.generate(cfg["seed"])
    path = world_path(cfg)
    with _out(path) as fh:
        fh.write(world.to_json() + "\n")
    print(f"wrote {path}")
    return 0


def cmd_gen_workload(cfg, args):
    size, seed = cfg["relation_size"], cfg["seed"]
    relations = simeval.generate_database(seed, sizes=(size, size, size), key_domain=cfg["key_domain"])
    for name, rel in relations.items():
        base = os.path.join(cfg["data_dir"], name)
        _write_int_csv(base + ".csv", rel.column_names, rel.rows)
        with _out(base + ".schema") as fh:
            fh.writelines(f"{col},{typ}\n" for col, typ in rel.schema)
    spec = simeval.WorkloadSpec.grid(cfg["scan_count"], cfg["join_count"], cfg["join3_count"], seed)
    plans, skipped = simeval.generate_workload(spec, relations)
    wl_dir = os.path.join(cfg["out_dir"], "workload")
    manifest = []
    for label, p in plans:
        path = os.path.join(wl_dir, f"{label}.plan")
        with _out(path) as fh:
            fh.write(planmod.serialize_plan(p) + "\n")
        manifest.append({"label": label, "path": path})
    _write_json(os.path.join(wl_dir, "manifest.json"), {"plans": manifest, "skipped": skipped})
    print(f"wrote {len(manifest)} plans to {wl_dir} ({len(skipped)} targets skipped)")
    return 0


def cmd_ingest(cfg, args):
    relations = load_relations(cfg)
    doc = {
        name: {"rows": rel.row_count, "columns": list(rel.column_names)}
        for name, rel in relations.items()
    }
    _write_json(os.path.join(cfg["out_dir"], "ingest.json"), _stamp({"relations": doc}))
    for name, rel in sorted(relations.items()):
        print(f"{name}: {rel.row_count} rows, {len(rel.schema)} columns")
    return 0


def cmd_sample(cfg, args):
    relations = load_relations(cfg)
    pool = build_pool(cfg, relations)
    out = os.path.join(cfg["out_dir"], "samples")
    for name, tables in sorted(pool.tables.items()):
        for t, table in enumerate(tables):
            _write_csv(os.path.join(out, f"{name}.{t}.csv"), ("sample_index",) + table.column_names,
                       ((j,) + row for j, row in enumerate(table.rows)))
    print(f"pool: n={pool.n}, J={pool.pool_size}, {len(pool.tables)} relations -> {out}")
    return 0


def cmd_calibrate(cfg, args):
    if args.records:
        records = _read(args.records, "calibration CSV", "check --records", calib.parse_calibration_csv)
    else:
        world = load_world(cfg)
        records = world.calibration_records(cfg["calib_reps"], cfg["seed"])
        _write_csv(os.path.join(cfg["out_dir"], "calibration.csv"), calib.CSV_COLUMNS,
                   ((r.unit, r.count, repr(r.elapsed_seconds)) for r in records))
    model = calib.fit_cost_units(records)
    doc = {
        "units": {
            u: {"mean": m.mean, "variance": m.variance, "observations": m.observations}
            for u, m in model.units.items()
        },
        "metadata": model.metadata,
    }
    _write_json(os.path.join(cfg["out_dir"], "units.json"), doc)
    for u, m in sorted(model.units.items()):
        print(f"{u}: mean={m.mean:.3e} var={m.variance:.3e} ({m.observations} obs)")
    return 0


def cmd_fitcost(cfg, args):
    relations = load_relations(cfg)
    pool = build_pool(cfg, relations)
    world = load_world(cfg)
    p = load_plan(args.plan, relations)
    with planmod.naming(f"plan file {args.plan!r}"):
        estimates = selest.estimate_all(p, pool, relations)
        fitted = propagate.fit_all_cost_functions(p, estimates, world.cost_oracle(p, relations), W=cfg["grid_w"])
    doc = {
        "oracle": "simulator-true-cost-model",
        "functions": {
            str(nid): {u: {"type": cf.tag, "b": list(cf.b), "degenerate": cf.degenerate}
                       for u, cf in per.items()}
            for nid, per in fitted.items()
        },
    }
    path = os.path.join(cfg["out_dir"], "costfit.json")
    _write_json(path, _stamp(doc))
    print(f"wrote {path}")
    return 0


def cmd_predict(cfg, args):
    relations = load_relations(cfg)
    pool = build_pool(cfg, relations)
    world = load_world(cfg)
    units = load_units(cfg)
    p = load_plan(args.plan, relations)
    with planmod.naming(f"plan file {args.plan!r}"):
        oracle = world.cost_oracle(p, relations)
        dist, estimates, fitted, entries = propagate.predict_distribution(
            p, pool, relations, units, oracle=oracle, W=cfg["grid_w"], policy=cfg["policy"]
        )
    plan_id = os.path.splitext(os.path.basename(args.plan))[0]
    record = {
        "plan_id": plan_id,
        "mean_s": dist.mean,
        "var_s2": dist.variance,
        "stddev_s": dist.stddev,
        "breakdown": [
            {"component": comp, "value": val, "kind": kind} for comp, val, kind in dist.breakdown
        ],
        "flags": dist.flags,
        "mass_below_zero": dist.mass_below_zero,
        "policy": cfg["policy"],
        "oracle": "simulator-true-cost-model",
        "estimates": {
            str(nid): {"rho_n": e.rho_n, "s2_n": e.s2_n, "n": e.n, "K": len(p.index.leaves[nid])}
            for nid, e in estimates.items()
        },
    }
    with _out(os.path.join(cfg["out_dir"], "predictions.jsonl"), "a") as fh:
        fh.write(json.dumps(_stamp(record), sort_keys=True) + "\n")
    csv_path = os.path.join(cfg["out_dir"], "predictions.csv")
    header = None if os.path.exists(csv_path) else ("plan_id", "mean_s", "var_s2", "stddev_s", "flags")
    _write_csv(csv_path, header,
               [(plan_id, repr(dist.mean), repr(dist.variance), repr(dist.stddev), ";".join(dist.flags))], "a")
    print(f"{plan_id}: mean={dist.mean:.6g}s stddev={dist.stddev:.6g}s flags={dist.flags}")
    return 0


def cmd_evaluate(cfg, args):
    relations = load_relations(cfg)
    pool = build_pool(cfg, relations)
    world = load_world(cfg)
    units = load_units(cfg)
    manifest_path = args.workload or os.path.join(cfg["out_dir"], "workload", "manifest.json")
    recs = _read(manifest_path, "workload manifest", "run gen-workload first", _parse_manifest)
    plans = [(rec["label"], load_plan(rec["path"], relations)) for rec in recs]
    records, summary = simeval.evaluate_workload(
        plans, relations, pool, units, world,
        policy=cfg["policy"], W=cfg["grid_w"], runs=cfg["runs"],
    )
    _write_csv(os.path.join(cfg["out_dir"], "evaluation.csv"),
               ("plan_id", "mean", "stddev", "actual", "error", "norm_error", "flags"),
               ((r.plan_id, repr(r.predicted_mean), repr(r.predicted_stddev), repr(r.actual),
                 repr(r.error), repr(r.norm_error) if r.predicted_stddev > 0 else "", ";".join(r.flags))
                for r in records))
    summary["policy"] = cfg["policy"]
    _write_json(os.path.join(cfg["out_dir"], "summary.json"), _stamp(dict(summary)))
    print(
        f"{summary['count']} plans: r_p={summary['r_p']:.3f} r_s={summary['r_s']:.3f} "
        f"d_bar={summary['d_bar']:.3f} (excluded {summary['excluded_zero_sigma']})"
    )
    return 0


def cmd_oracle(cfg, args):
    pools = calib.checked_int(args.pools or 0, "--pools", 0, error=ConfigError)
    if pools == 1:  # the unbiased variance needs two pools
        raise ConfigError("--pools must be 0 or an integer >= 2, got 1")
    relations = load_relations(cfg)
    p = load_plan(args.plan, relations)
    n = sample_n_for(cfg, relations) if args.n is None else calib.checked_int(args.n, "--n", 1, error=ConfigError)
    with planmod.naming(f"plan file {args.plan!r}"):
        exact = simeval.var_rho_enumeration(p, relations, n)
        doc = {"plan": args.plan, "n": n, "var_rho_exact": exact}
        if pools:
            rho = simeval.resample_rho(p, relations, n, pools, cfg["seed"])
            doc["var_rho_empirical"] = float(rho.var(ddof=1))
            doc["mean_rho_empirical"] = float(rho.mean())
            doc["pools"] = pools
    _write_json(os.path.join(cfg["out_dir"], "oracle.json"), _stamp(doc))
    print(json.dumps({k: v for k, v in doc.items() if k != "generated_at"}, indent=2))
    return 0


# ---------------------------------------------------------------------------


# name, function, and the options it takes besides the settings' flags
COMMANDS = [
    ("gen-world", cmd_gen_world, {}),
    ("gen-workload", cmd_gen_workload, {}),
    ("ingest", cmd_ingest, {}),
    ("sample", cmd_sample, {}),
    ("calibrate", cmd_calibrate, {"--records": {}}),
    ("fitcost", cmd_fitcost, {"--plan": {"required": True}}),
    ("predict", cmd_predict, {"--plan": {"required": True}}),
    ("evaluate", cmd_evaluate, {"--workload": {}}),
    ("oracle", cmd_oracle, {"--plan": {"required": True}, "--n": {"type": int}, "--pools": {"type": int}}),
]


def build_parser(argv) -> argparse.ArgumentParser:
    """Every subcommand is a choice, but only the one `argv` names, its
    first word not starting with "-", is given its options: the others'
    are never read in this dispatch."""
    parser = argparse.ArgumentParser(
        prog="runtimedist",
        description="Predict running-time distributions of relational query plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((word for word in argv if not word.startswith("-")), None)
    for name, fn, options in COMMANDS:
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        if name != named:
            continue
        sp.add_argument("--config", help="flat key=value configuration file")
        for key, (default, flag, _) in SETTINGS.items():
            if flag:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))
        sp.add_argument(
            "--ablation", choices=propagate.POLICIES,
            help="covariance policy: all (V1), no-var-c (V2), no-var-x (V3), no-cov (V4)",
        )
        for option, kwargs in options.items():
            sp.add_argument(option, **kwargs)
    return parser


# Errors reported as one JSON line on stderr, with exit code 1. Every
# package error class derives from ValueError.
REPORTED_ERRORS = (ValueError, OSError)


def dispatch(argv) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        return args.func(load_config(args), args)
    except REPORTED_ERRORS as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
