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
# unused here, but perfbench/inproc.py's tracer rebinds cli.ThreadPoolExecutor and
# fails when the name is missing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, serialize
from .calibrate import calibrate_parametric, parametric_report, pooled_slice, run_elnn
from .elnn import TrainConfig, implied_levy_density
from .errors import DivergedLoss, LevycalError, NonFinite, ResidueTooLarge
from .market import MarketSlice, NoiseSpec, generate_virtual_market, moment_table
from .spectral import SpectralGrid

_NUMERICAL = (NonFinite, ResidueTooLarge, DivergedLoss)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _finish(command, config, seed, inputs, out_dir, started):
    """Write the run's manifest.json into out_dir."""
    out_dir = Path(out_dir)
    canon = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config_digest": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": seed,
        "inputs": [str(i) for i in inputs],
        "outputs": sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file()),
        "tool_version": __version__,
        "duration_seconds": time.time() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _merge_config(args, paths=(), optional=()):
    """defaults < config file < explicit flags.

    The command's settings table gives each setting its default and type; the
    input `paths` are str settings without a default, which a run must be
    given, and the `optional` ones may be left out.  Config values and flags
    must have their setting's type (see serialize.checked): int settings take
    integers, float settings any finite number, str settings strings.
    """
    kinds = ({key: type(value) for key, value in args.defaults.items()}
             | dict.fromkeys([*paths, *optional], str))
    cfg = dict(args.defaults)
    if args.config:
        doc = serialize.load_object(args.config)
        unknown = sorted(set(doc) - set(kinds))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
        cfg |= {k: serialize.checked(v, kinds[k], f"{args.config}: {k!r}") for k, v in doc.items()}
    cfg |= {k: serialize.checked(getattr(args, k), kinds[k], _flag(k)) for k in kinds
            if getattr(args, k) is not None}
    missing = [key for key in paths if key not in cfg]
    if missing:
        raise ValueError(f"missing {_flag(missing[0])} (or the config key {missing[0]!r})")
    return cfg


def _flag(key):
    return "--" + key.replace("_", "-")


# the calibrate fan-out forks its workers; Windows has no fork and on macOS it is
# unsafe, so there the markets run one after another in the command's process
_FORK_FAN_OUT = hasattr(os, "fork") and sys.platform != "darwin"


def _max_workers(n_tasks):
    """Worker processes for n_tasks markets: ELNN_THREADS, or the CPUs this process may use."""
    cap = os.environ.get("ELNN_THREADS")
    if not cap:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(cpus or 1, n_tasks)
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"ELNN_THREADS must be a positive integer, got {cap!r}")
    return min(limit, n_tasks)


def _grid(cfg):
    """The SpectralGrid of the grid_n and grid_dw settings; an error names the setting."""
    n, dw = cfg["grid_n"], cfg["grid_dw"]
    if n < 4 or n & (n - 1):
        raise ValueError(f"'grid_n' must be a power of two, at least 4, got {n}")
    if dw <= 0:
        raise ValueError(f"'grid_dw' must be positive, got {dw}")
    return SpectralGrid(n, dw)


# --- simulate -----------------------------------------------------------------

_SIM_DEFAULTS = {"days": 1000, "per_day": 100, "T": 0.05, "r": 0.02,
                 "noise": 0.05, "seed": 0, "k_lo": -0.4, "k_hi": 0.4,
                 "grid_n": SpectralGrid().n, "grid_dw": SpectralGrid().dw}


def cmd_simulate(args):
    cfg = _merge_config(args, ["model"])
    model = serialize.load_model(cfg["model"])
    grid = _grid(cfg)
    slices = generate_virtual_market(
        model, cfg["days"], cfg["per_day"], cfg["T"], cfg["r"],
        k_lo=cfg["k_lo"], k_hi=cfg["k_hi"],
        noise=NoiseSpec(cfg["noise"], cfg["seed"]), grid=grid)

    out = Path(args.out)
    (out / "slices").mkdir(parents=True, exist_ok=True)
    for s in slices:
        serialize.save_time_values(out / "slices" / f"{s.label}.csv", s.k, s.z)
    serialize.save_grid(out / "grid.json", grid)
    meta = {k: cfg[k] for k in _SIM_DEFAULTS} | {"model": serialize.model_to_dict(model)}
    (out / "market.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _finish("simulate", cfg, cfg["seed"], [cfg["model"]], out, args._started)
    return EXIT_OK


def _load_market(market_dir):
    market_dir = Path(market_dir)
    meta_file = market_dir / "market.json"
    meta = serialize.load_object(meta_file)
    T, r = (serialize.field(meta, key, float, meta_file) for key in ("T", "r"))
    if T <= 0:
        raise ValueError(f"{meta_file}: 'T' must be positive, got {T}")
    grid = serialize.load_grid(market_dir / "grid.json")
    slices = []
    for f in sorted((market_dir / "slices").glob("*.csv")):
        k, z = serialize.load_time_values(f)
        slices.append(MarketSlice(f.stem, T, r, k, z))
    if not slices:
        raise ValueError(f"no slices found under {market_dir}")
    return grid, slices


# --- calibrate ------------------------------------------------------------------

_CAL_DEFAULTS = {"method": "elnn", "m_cutoff": 100.0, "epochs": 30_000,
                 "alpha_reg": 4.0, "beta_reg": 1e-3, "learning_rate": 1e-3,
                 "n_nodes": 20, "seed": 0, "n_groups": 1000, "group_size": 10_000,
                 "budget": 6000}
_METHODS = ("elnn", "merton", "kou")


def _calibrate_one(market_dir, out, cfg):
    grid, slices = _load_market(market_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg["method"] == "elnn":
        train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
        params, losses, report = run_elnn(slices, train_cfg, grid=grid, n_groups=cfg["n_groups"],
                                          group_size=cfg["group_size"])
        serialize.save_params(params, out / "params.json")
        serialize.save_loss_trace(out / "loss.csv", losses)
    else:
        pooled = pooled_slice(slices, grid, cfg["m_cutoff"], cfg["n_groups"], cfg["group_size"],
                              cfg["seed"])
        model, loss = calibrate_parametric(cfg["method"], pooled, budget=cfg["budget"],
                                           seed=cfg["seed"])
        report = parametric_report(model, pooled, loss, grid=grid)
        serialize.save_model(model, out / "params.json")
    serialize.save_report(report, out / "report.json")
    serialize.save_report_tables([report], out)


def cmd_calibrate(args):
    cfg = _merge_config(args)
    if cfg["method"] not in _METHODS:
        raise ValueError(f"'method' must be one of {', '.join(_METHODS)}, got {cfg['method']!r}")
    markets = args.market
    names = [Path(m).name for m in markets]
    if len(set(names)) < len(names):
        raise ValueError(f"market directories must have distinct names, got {names}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    targets = [out] if len(markets) == 1 else [out / name for name in names]
    workers = _max_workers(len(markets)) if len(markets) > 1 else 1
    if workers == 1 or not _FORK_FAN_OUT:
        for market, target in zip(markets, targets):
            _calibrate_one(market, target, cfg)
    else:
        # independent markets fan out to worker processes (ELNN_THREADS caps them): an
        # ELNN epoch holds the GIL, so threads would mostly take turns.  Forked workers
        # inherit the imported modules, and the pool forks them all before it starts
        # its own thread.  Imported here, as single-market commands need neither module.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            for f in [pool.submit(_calibrate_one, m, t, cfg) for m, t in zip(markets, targets)]:
                f.result()
    _finish("calibrate", cfg, cfg["seed"], markets, out, args._started)
    return EXIT_OK


# --- density --------------------------------------------------------------------

_DEN_DEFAULTS = {"x_lo": -1.0, "x_hi": 1.0, "grid_n": SpectralGrid().n,
                 "grid_dw": SpectralGrid().dw}


def cmd_density(args):
    cfg = _merge_config(args, ["params"])
    if not cfg["x_lo"] < cfg["x_hi"]:
        raise ValueError(f"'x_lo' must be below 'x_hi', got {cfg['x_lo']} and {cfg['x_hi']}")
    grid = _grid(cfg)
    x = grid.k
    keep = (x >= cfg["x_lo"]) & (x <= cfg["x_hi"])
    if not keep.any():
        raise ValueError(f"'x_lo' to 'x_hi' ({cfg['x_lo']} to {cfg['x_hi']}) holds no k node "
                         f"of the grid, whose nodes span {x[0]:.6g} to {x[-1]:.6g}")
    doc = serialize.load_object(cfg["params"])
    if "model" in doc:
        dvdx = serialize.model_from_dict(doc, cfg["params"]).density(x)
    else:
        _, dvdx = implied_levy_density(serialize.params_from_dict(doc, cfg["params"]), grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_density(out / "density.csv", x[keep], dvdx[keep])
    _finish("density", cfg, None, [cfg["params"]], out, args._started)
    return EXIT_OK


# --- moments --------------------------------------------------------------------

_MOM_DEFAULTS = {"horizons": "1,2,4,8,16", "r": 0.0}


def cmd_moments(args):
    cfg = _merge_config(args, ["prices"], optional=["model"])
    try:
        horizons = [int(h) for h in cfg["horizons"].split(",")]
    except ValueError:
        raise ValueError("'horizons' must be a comma-separated list of integers, "
                         f"got {cfg['horizons']!r}") from None
    header, data = serialize.load_columns(cfg["prices"])
    prices = data[:, -1]
    triplet = None
    if cfg.get("model"):
        triplet = serialize.load_model(cfg["model"]).triplet()
    rows = moment_table(prices, horizons, triplet=triplet, r=cfg["r"])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    theory_cols = sorted(rows[0].theory)
    table = [[row.horizon_days, row.mean, row.std, row.skewness, row.excess_kurtosis]
             + [row.theory[c] for c in theory_cols] for row in rows]
    serialize.save_columns(out / "moments.csv", ["horizon_days", "mean", "std", "skewness",
                                                 "excess_kurtosis", *theory_cols], zip(*table))
    inputs = [cfg["prices"]] + ([cfg["model"]] if cfg.get("model") else [])
    _finish("moments", cfg, None, inputs, out, args._started)
    return EXIT_OK


# --- report ---------------------------------------------------------------------


def cmd_report(args):
    cfg = _merge_config(args)
    reports = [serialize.load_report(Path(run) / "report.json") for run in args.runs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_report_tables(reports, out)
    (out / "report.json").write_text(json.dumps(reports, indent=2, allow_nan=False) + "\n")
    _finish("report", cfg, None, args.runs, out, args._started)
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="levycal",
                                     description="Exponential Levy calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, defaults, summary, inputs):
        """A subcommand: its input flags, then one flag per setting, typed as its default."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--out", required=True, help="output directory")
        for flag, kwargs in inputs.items():
            p.add_argument(flag, **kwargs)
        for key, default in defaults.items():
            p.add_argument(_flag(key), dest=key, type=type(default))
        p.set_defaults(func=func, defaults=defaults)

    add_command("simulate", cmd_simulate, _SIM_DEFAULTS, "generate a virtual option market",
                {"--model": {"help": "model JSON file"}})
    add_command("calibrate", cmd_calibrate, _CAL_DEFAULTS, "fit a model to one or more markets",
                {"--market": {"nargs": "+", "required": True, "help": "market directories"}})
    add_command("density", cmd_density, _DEN_DEFAULTS, "emit a Levy density curve",
                {"--params": {"help": "fitted params JSON (network) or model JSON"}})
    add_command("moments", cmd_moments, _MOM_DEFAULTS,
                "empirical moment table of a price series",
                {"--prices": {"help": "CSV price series (last column is the close)"},
                 "--model": {"help": "optional model JSON for theoretical columns"}})
    add_command("report", cmd_report, {}, "merge calibration reports into one table",
                {"--runs": {"nargs": "+", "required": True,
                            "help": "calibration output directories"}})
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
    except (LevycalError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
