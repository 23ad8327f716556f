"""Batch command-line front end.

Subcommands: simulate, calibrate, density, moments, report.  Every command
writes its outputs plus a run manifest into --out; reruns with identical
inputs and seeds are byte-identical apart from the manifest's timing fields.
Exit codes: 0 success, 2 configuration or input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, serialize
from .calibrate import calibrate_parametric, parametric_report, pooled_slice, run_elnn
from .elnn import TrainConfig, implied_levy_density
from .errors import (DivergedLoss, DivisionNearZero, LevycalError, NoConvergence,
                     NonFinite, ResidueTooLarge)
from .market import MarketSlice, NoiseSpec, generate_virtual_market, moment_table, uniform_k_sampler
from .spectral import SpectralGrid

_NUMERICAL = (NonFinite, DivisionNearZero, ResidueTooLarge, NoConvergence, DivergedLoss)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass
class RunManifest:
    command: str
    config_digest: str
    seed: int | None
    inputs: list
    outputs: list
    tool_version: str
    duration_seconds: float
    created_utc: str

    def write(self, out_dir):
        doc = self.__dict__.copy()
        (Path(out_dir) / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def _digest(config):
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def _finish(command, config, seed, inputs, out_dir, started):
    outputs = sorted(str(p.relative_to(out_dir)) for p in Path(out_dir).rglob("*") if p.is_file())
    manifest = RunManifest(command, _digest(config), seed, [str(i) for i in inputs], outputs,
                           __version__, time.time() - started,
                           datetime.now(timezone.utc).isoformat())
    manifest.write(out_dir)


def _merge_config(args, keys):
    """defaults < config file < explicit flags; keys are the command's settings."""
    cfg = dict(getattr(args, "_defaults", {}))
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(doc) - set(keys))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
        cfg.update(doc)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _max_workers(n_tasks):
    cap = os.environ.get("ELNN_THREADS")
    limit = int(cap) if cap else os.cpu_count() or 1
    return max(1, min(limit, n_tasks))


# --- simulate -----------------------------------------------------------------

_SIM_DEFAULTS = {"days": 1000, "per_day": 100, "T": 0.05, "r": 0.02,
                 "noise": 0.05, "seed": 0, "k_lo": -0.4, "k_hi": 0.4,
                 "grid_n": SpectralGrid().n, "grid_dw": SpectralGrid().dw}


def cmd_simulate(args):
    cfg = _merge_config(args, _SIM_DEFAULTS.keys() | {"model"})
    model = serialize.load_model(cfg["model"])
    grid = SpectralGrid(int(cfg["grid_n"]), float(cfg["grid_dw"]))
    slices = generate_virtual_market(
        model, int(cfg["days"]), int(cfg["per_day"]), float(cfg["T"]), float(cfg["r"]),
        k_sampler=uniform_k_sampler(float(cfg["k_lo"]), float(cfg["k_hi"])),
        noise=NoiseSpec(float(cfg["noise"]), int(cfg["seed"])), grid=grid)

    out = Path(args.out)
    (out / "slices").mkdir(parents=True, exist_ok=True)
    for s in slices:
        serialize.save_time_values(out / "slices" / f"{s.label}.csv", s.k, s.z)
    serialize.save_grid(out / "grid.json", grid)
    meta = {k: cfg[k] for k in _SIM_DEFAULTS} | {"model": serialize.model_to_dict(model)}
    (out / "market.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _finish("simulate", cfg, int(cfg["seed"]), [cfg["model"]], out, args._started)
    return EXIT_OK


def _load_market(market_dir):
    market_dir = Path(market_dir)
    meta = json.loads((market_dir / "market.json").read_text())
    serialize._require_object(meta, market_dir / "market.json")
    grid = serialize.load_grid(market_dir / "grid.json")
    slices = []
    for f in sorted((market_dir / "slices").glob("*.csv")):
        k, z = serialize.load_time_values(f)
        slices.append(MarketSlice(f.stem, float(meta["T"]), float(meta["r"]), k, z))
    if not slices:
        raise ValueError(f"no slices found under {market_dir}")
    return meta, grid, slices


# --- calibrate ------------------------------------------------------------------

_CAL_DEFAULTS = {"method": "elnn", "m_cutoff": 100.0, "epochs": 30_000,
                 "alpha_reg": 4.0, "beta_reg": 1e-3, "learning_rate": 1e-3,
                 "n_nodes": 20, "seed": 0, "n_groups": 1000, "group_size": 10_000,
                 "budget": 6000}


def _calibrate_one(market_dir, out, cfg):
    meta, grid, slices = _load_market(market_dir)
    out.mkdir(parents=True, exist_ok=True)
    method = cfg["method"]
    if method == "elnn":
        train_cfg = TrainConfig(m_cutoff=float(cfg["m_cutoff"]), epochs=int(cfg["epochs"]),
                                alpha_reg=float(cfg["alpha_reg"]), beta_reg=float(cfg["beta_reg"]),
                                seed=int(cfg["seed"]), n_nodes=int(cfg["n_nodes"]),
                                learning_rate=float(cfg["learning_rate"]))
        params, report = run_elnn(slices, train_cfg, grid=grid,
                                  n_groups=int(cfg["n_groups"]), group_size=int(cfg["group_size"]))
        serialize.save_params(params, out / "params.json")
        serialize.save_loss_trace(out / "loss.csv", report.loss_trace)
    elif method in ("merton", "kou"):
        pooled = pooled_slice(slices, grid, float(cfg["m_cutoff"]), int(cfg["n_groups"]),
                              int(cfg["group_size"]), int(cfg["seed"]))
        model, loss = calibrate_parametric(method, pooled, budget=int(cfg["budget"]),
                                           seed=int(cfg["seed"]))
        report = parametric_report(model, pooled, grid=grid, final_loss=loss)
        serialize.save_model(model, out / "params.json")
    else:
        raise ValueError(f"unknown method {method!r}")
    serialize.save_report(report, out / "report.json")
    serialize.save_report_tables(report, out)


def cmd_calibrate(args):
    cfg = _merge_config(args, _CAL_DEFAULTS.keys())
    markets = args.market
    names = [Path(m).name for m in markets]
    if len(set(names)) < len(names):
        raise ValueError(f"market directories must have distinct names, got {names}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if len(markets) == 1:
        _calibrate_one(markets[0], out, cfg)
    else:
        # independent markets fan out across threads (ELNN_THREADS caps workers)
        with ThreadPoolExecutor(max_workers=_max_workers(len(markets))) as pool:
            futures = [pool.submit(_calibrate_one, m, out / Path(m).name, cfg) for m in markets]
            for f in futures:
                f.result()
    _finish("calibrate", cfg, int(cfg["seed"]), markets, out, args._started)
    return EXIT_OK


# --- density --------------------------------------------------------------------

_DEN_DEFAULTS = {"x_lo": -1.0, "x_hi": 1.0, "grid_n": SpectralGrid().n,
                 "grid_dw": SpectralGrid().dw}


def cmd_density(args):
    cfg = _merge_config(args, _DEN_DEFAULTS.keys() | {"params"})
    doc = json.loads(Path(cfg["params"]).read_text())
    grid = SpectralGrid(int(cfg["grid_n"]), float(cfg["grid_dw"]))
    if isinstance(doc, dict) and "model" in doc:
        model = serialize.model_from_dict(doc)
        x = grid.k
        dvdx = model.density(x)
    else:
        params = serialize.params_from_dict(doc)
        x, dvdx = implied_levy_density(params, grid)
    keep = (x >= float(cfg["x_lo"])) & (x <= float(cfg["x_hi"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_density(out / "density.csv", x[keep], dvdx[keep])
    _finish("density", cfg, None, [cfg["params"]], out, args._started)
    return EXIT_OK


# --- moments --------------------------------------------------------------------

_MOM_DEFAULTS = {"horizons": "1,2,4,8,16", "r": 0.0}


def cmd_moments(args):
    cfg = _merge_config(args, _MOM_DEFAULTS.keys() | {"prices", "model"})
    header, data = serialize.load_columns(cfg["prices"])
    prices = data[:, -1]
    horizons = [int(h) for h in str(cfg["horizons"]).split(",")]
    triplet = None
    if cfg.get("model"):
        triplet = serialize.load_model(cfg["model"]).triplet()
    rows = moment_table(prices, horizons, triplet=triplet, r=float(cfg["r"]))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cols = ["horizon_days", "mean", "std", "skewness", "excess_kurtosis"]
    theory_cols = sorted(rows[0].theory) if rows[0].theory else []
    lines = [",".join(cols + theory_cols)]
    for row in rows:
        vals = [row.horizon_days, row.mean, row.std, row.skewness, row.excess_kurtosis]
        vals += [row.theory[c] for c in theory_cols]
        lines.append(",".join(f"{v:.17g}" for v in vals))
    (out / "moments.csv").write_text("\n".join(lines) + "\n")
    inputs = [cfg["prices"]] + ([cfg["model"]] if cfg.get("model") else [])
    _finish("moments", cfg, None, inputs, out, args._started)
    return EXIT_OK


# --- report ---------------------------------------------------------------------


def cmd_report(args):
    cfg = _merge_config(args, set())
    reports = [serialize.load_report(Path(run) / "report.json") for run in args.runs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_report_tables(reports, out)
    merged = [serialize.report_to_dict(r) for r in reports]
    (out / "report.json").write_text(json.dumps(merged, indent=2) + "\n")
    _finish("report", cfg, None, args.runs, out, args._started)
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="levycal",
                                     description="Exponential Levy calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, defaults):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(_defaults=defaults)

    p = sub.add_parser("simulate", help="generate a virtual option market")
    add_common(p, _SIM_DEFAULTS)
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--days", type=int)
    p.add_argument("--per-day", dest="per_day", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--k-lo", dest="k_lo", type=float)
    p.add_argument("--k-hi", dest="k_hi", type=float)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-dw", dest="grid_dw", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit a model to one or more markets")
    add_common(p, _CAL_DEFAULTS)
    p.add_argument("--market", nargs="+", required=True, help="market directories")
    p.add_argument("--method", choices=["elnn", "merton", "kou"])
    p.add_argument("--m-cutoff", dest="m_cutoff", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha-reg", dest="alpha_reg", type=float)
    p.add_argument("--beta-reg", dest="beta_reg", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--n-nodes", dest="n_nodes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-groups", dest="n_groups", type=int)
    p.add_argument("--group-size", dest="group_size", type=int)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("density", help="emit a Levy density curve")
    add_common(p, _DEN_DEFAULTS)
    p.add_argument("--params", help="fitted params JSON (network) or model JSON")
    p.add_argument("--x-lo", dest="x_lo", type=float)
    p.add_argument("--x-hi", dest="x_hi", type=float)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-dw", dest="grid_dw", type=float)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("moments", help="empirical moment table of a price series")
    add_common(p, _MOM_DEFAULTS)
    p.add_argument("--prices", help="CSV price series (last column is the close)")
    p.add_argument("--horizons")
    p.add_argument("--model", help="optional model JSON for theoretical columns")
    p.add_argument("--r", type=float)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("report", help="merge calibration reports into one table")
    add_common(p, {})
    p.add_argument("--runs", nargs="+", required=True, help="calibration output directories")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = time.time()
    try:
        return args.func(args)
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (LevycalError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
