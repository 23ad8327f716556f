"""Workload definitions shared by the timed runs (run.py) and the traced ones (inproc.py).

A workload is a fixed sequence of `levycal` commands.  Its market seeds come
from the benchmark's --seed argument; everything else (models, noise level,
sizes, training settings) is pinned here, because the ELNN epoch cost depends
on the target and not only on its shape (see README.md in this directory).

This module imports nothing beyond the standard library so that run.py stays
a light parent process that never loads numpy itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Seed of the quality record: every run repeats its reps whatever --seed is,
# so that their numbers are exact and comparable between commits.
QUALITY_SEED = 7

MERTON = {"model": "merton", "sigma": 0.2,
          "params": {"lambda": 1.0, "mu": -0.05, "delta": 0.05}}
KOU = {"model": "kou", "sigma": 0.21,
       "params": {"lambda": 1.4, "p": 0.04, "lambda_plus": 3.7, "lambda_minus": 1.8}}

DAYS, PER_DAY, NOISE = 1000, 100, 0.05
CUSTOM_DAYS, CUSTOM_GRID_N, CUSTOM_GRID_DW = 100, 1024, 0.1
ELNN_EPOCHS = 200
CUSTOM_EPOCHS = 300
HORIZONS = "1,2,4,8,16"
PRICE_DAYS = 2520

# Counts of the traced run that must repeat exactly for a given seed.
EXACT_COUNTS = ("levy_models.parametric_char_shifted.calls", "market.amplify.samples",
                "elnn.epochs", "elnn.nodes", "spectral.phi_from_time_values.calls",
                "serialize.bytes_written", "levy_models.integration_warnings")

# quality record units: loss, absolute errors, 1e4 x RMSE of time values (basis
# points of spot) and 100 x RMSE over the bucket's target std (percent)
QUALITY_METRICS = {"final_loss": "1", "sigma_abs_err": "1", "lambda_abs_err": "1",
                   "z_rmse_sum": "bp", "phi_rmse_sum": "%"}

CONFIGS = {
    "elnn.json": {"method": "elnn", "m_cutoff": 100, "epochs": ELNN_EPOCHS,
                  "n_groups": 100, "group_size": 10_000},
    "merton-fit.json": {"method": "merton", "m_cutoff": 100, "n_groups": 200,
                        "group_size": 10_000, "budget": 1000},
    "kou-fit.json": {"method": "kou", "m_cutoff": 100, "n_groups": 200,
                     "group_size": 10_000, "budget": 1000},
    "custom-fit.json": {"method": "elnn", "m_cutoff": 100, "epochs": CUSTOM_EPOCHS,
                        "n_groups": 20, "group_size": 10_000},
}


def _trapezoid(x, y):
    """Integral of the linear interpolant through (x, y), which the rule gives exactly."""
    return sum(0.5 * (y[i] + y[i + 1]) * (x[i + 1] - x[i]) for i in range(len(x) - 1))


def custom_model():
    """A 41-point Gaussian-shaped jump table with unit mass."""
    n = 41
    x = [-0.5 + i / (n - 1) for i in range(n)]
    raw = [math.exp(-0.5 * ((xi + 0.05) / 0.08) ** 2) for xi in x]
    mass = _trapezoid(x, raw)
    return {"model": "custom", "sigma": 0.2,
            "params": {"x": x, "dvdx": [v / mass for v in raw]}}


def truth(doc):
    """(sigma, lambda) of the model a market was simulated from."""
    if doc["model"] == "custom":
        return doc["sigma"], _trapezoid(doc["params"]["x"], doc["params"]["dvdx"])
    return doc["sigma"], doc["params"]["lambda"]


def price_series(seed, days=PRICE_DAYS):
    """Daily closes with Kou-like double-exponential jumps, from `seed` alone."""
    rng = random.Random(seed)
    sigma, lam, p, up, down = 0.21, 1.4, 0.04, 3.7, 1.8
    dt = 1.0 / 252.0
    price, lines = 100.0, ["day,close"]
    for day in range(days):
        step = -0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * rng.gauss(0.0, 1.0)
        if rng.random() < lam * dt:
            step += rng.expovariate(up) if rng.random() < p else -rng.expovariate(down)
        price *= math.exp(step)
        lines.append(f"{day},{price:.17g}")
    return "\n".join(lines) + "\n"


def write_inputs(inputs, seeds):
    """Write model and config JSONs, the custom table and one price series per seed."""
    inputs.mkdir(parents=True, exist_ok=True)
    docs = {"merton.json": MERTON, "kou.json": KOU, "custom.json": custom_model()} | CONFIGS
    for name, doc in docs.items():
        (inputs / name).write_text(json.dumps(doc, indent=2) + "\n")
    for seed in seeds:
        (inputs / f"prices-{seed}.csv").write_text(price_series(seed))


@dataclass(frozen=True)
class Step:
    """One CLI command, the outputs it must leave and the fits it produces."""

    argv: tuple
    out: str
    expect: tuple
    fits: tuple = ()  # (fit directory, model file of the market's truth)

    @property
    def command(self):
        return self.argv[0]


_CAL_FILES = ("params.json", "report.json", "report_z.csv", "report_re.csv", "report_im.csv")
_ELNN_FILES = _CAL_FILES + ("loss.csv",)


def _simulate(inputs, model, seed, out, days=DAYS, extra=()):
    argv = ("simulate", "--model", f"{inputs}/{model}", "--days", str(days),
            "--per-day", str(PER_DAY), "--noise", str(NOISE), "--seed", str(seed),
            "--out", out) + tuple(extra)
    return Step(argv, out, ("market.json", "grid.json", "manifest.json",
                            f"slices/{days}"))


def _calibrate(inputs, config, markets, out, files, fits):
    argv = ("calibrate", "--config", f"{inputs}/{config}", "--market", *markets, "--out", out)
    return Step(argv, out, files + ("manifest.json",), fits=fits)


def _report(runs, out):
    return Step(("report", "--runs", *runs, "--out", out), out,
                ("report.json", "report_z.csv", "report_re.csv", "report_im.csv",
                 "manifest.json"))


def elnn_pipeline(inputs, seed, rep):
    return [
        _simulate(inputs, "merton.json", seed, f"{rep}/market"),
        _calibrate(inputs, "elnn.json", [f"{rep}/market"], f"{rep}/fit", _ELNN_FILES,
                   ((f"{rep}/fit", "merton.json"),)),
        Step(("density", "--params", f"{rep}/fit/params.json", "--out", f"{rep}/density"),
             f"{rep}/density", ("density.csv", "manifest.json")),
        _report([f"{rep}/fit"], f"{rep}/report"),
    ]


def parametric_pipeline(inputs, seed, rep):
    return [
        _simulate(inputs, "kou.json", seed, f"{rep}/market"),
        _calibrate(inputs, "merton-fit.json", [f"{rep}/market"], f"{rep}/fit-merton",
                   _CAL_FILES, ((f"{rep}/fit-merton", "kou.json"),)),
        _calibrate(inputs, "kou-fit.json", [f"{rep}/market"], f"{rep}/fit-kou",
                   _CAL_FILES, ((f"{rep}/fit-kou", "kou.json"),)),
        Step(("moments", "--prices", f"{inputs}/prices-{seed}.csv", "--horizons", HORIZONS,
              "--model", f"{inputs}/kou.json", "--out", f"{rep}/moments"),
             f"{rep}/moments", ("moments.csv", "manifest.json")),
        _report([f"{rep}/fit-merton", f"{rep}/fit-kou"], f"{rep}/report"),
    ]


def multi_market(inputs, seed, rep):
    # the calibrate fan-out names each market's output directory after it
    per_market = tuple(f"{name}/{f}" for name in ("merton", "kou") for f in _ELNN_FILES)
    return [
        _simulate(inputs, "merton.json", seed, f"{rep}/merton"),
        _simulate(inputs, "kou.json", seed + 1, f"{rep}/kou"),
        _calibrate(inputs, "elnn.json", [f"{rep}/merton", f"{rep}/kou"], f"{rep}/fit",
                   per_market, ((f"{rep}/fit/merton", "merton.json"),
                                (f"{rep}/fit/kou", "kou.json"))),
        _report([f"{rep}/fit/merton", f"{rep}/fit/kou"], f"{rep}/report"),
    ]


def custom_simulate(inputs, seed, rep):
    grid = ("--grid-n", str(CUSTOM_GRID_N), "--grid-dw", str(CUSTOM_GRID_DW))
    return [
        _simulate(inputs, "custom.json", seed, f"{rep}/market", days=CUSTOM_DAYS, extra=grid),
        _calibrate(inputs, "custom-fit.json", [f"{rep}/market"], f"{rep}/fit", _ELNN_FILES,
                   ((f"{rep}/fit", "custom.json"),)),
    ]


WORKLOADS = {
    "elnn-pipeline": elnn_pipeline,
    "parametric-pipeline": parametric_pipeline,
    "multi-market": multi_market,
    "custom-simulate": custom_simulate,
}


def steps(workload, inputs, seed, rep):
    """The workload's commands reading from `inputs` and writing under `rep`."""
    return WORKLOADS[workload](str(inputs), seed, str(rep))


def check_outputs(step):
    """Problems with the files `step` left; empty when all is well.

    Checks presence, the slice count, and that every fit's report agrees with
    its params and carries finite numbers.
    """
    out = Path(step.out)
    problems = []
    for name in step.expect:
        if name.startswith("slices/"):
            want = int(name.split("/")[1])
            got = len(list((out / "slices").glob("*.csv")))
            if got != want:
                problems.append(f"{step.out}: {got} slice files, expected {want}")
        elif not (out / name).is_file():
            problems.append(f"{step.out}: missing {name}")
    if problems:
        return problems
    for fit_dir, _ in step.fits:
        try:
            read_fit(Path(fit_dir))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{fit_dir}: bad report ({exc})")
    return problems


def read_fit(fit_dir):
    """(final_loss, sigma, lambda, z RMSE sum, Re+Im phi RMSE sum) from one fit's files."""
    report = json.loads((fit_dir / "report.json").read_text())
    params = json.loads((fit_dir / "params.json").read_text())
    if params["sigma"] != report["sigma"]:
        raise ValueError("params.json and report.json disagree on sigma")
    row = (float(report["final_loss"]), float(report["sigma"]), float(report["lambda"]),
           float(report["z_rmse"]["sum"]),
           float(report["phi_re_rmse"]["sum"]) + float(report["phi_im_rmse"]["sum"]))
    if not all(math.isfinite(v) for v in row):
        raise ValueError(f"non-finite numbers {row}")
    return row


def quality_record(fits, inputs):
    """The workload's quality metrics summed over its fits, each against its market's truth."""
    totals = dict.fromkeys(QUALITY_METRICS, 0.0)
    for fit_dir, model_file in fits:
        loss, sigma, lam, z_sum, phi_sum = read_fit(Path(fit_dir))
        true_sigma, true_lam = truth(json.loads((Path(inputs) / model_file).read_text()))
        totals["final_loss"] += loss
        totals["sigma_abs_err"] += abs(sigma - true_sigma)
        totals["lambda_abs_err"] += abs(lam - true_lam)
        totals["z_rmse_sum"] += z_sum
        totals["phi_rmse_sum"] += phi_sum
    return totals


class Checker:
    """Counts the commands attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def command(self, step, code, root, reference=None):
        """Check one finished command of a rep rooted at `root`; returns its digests.

        The command fails on a nonzero exit code, a missing or malformed
        output, or, when `reference` holds the first rep's digests, on any
        output whose bytes differ from that rep's.
        """
        self.attempted += 1
        problems = [f"{step.out}: exit code {code}"] if code else check_outputs(step)
        digests = {} if problems else digest_files(step.out, root)
        if reference is not None and not problems:
            prefix = str(Path(step.out).relative_to(root)) + "/"
            if digests != {k: v for k, v in reference.items() if k.startswith(prefix)}:
                problems.append(f"{step.out}: outputs differ from the first rep's")
        self.failures.extend(problems)
        return digests


def tree_digest(digests):
    """One sha256 over a set of per-file digests."""
    return hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest()


def digest_files(out_dir, base):
    """sha256 of every file under out_dir except run manifests, keyed by path below base."""
    return {str(f.relative_to(base)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(Path(out_dir).rglob("*"))
            if f.is_file() and f.name != "manifest.json"}
