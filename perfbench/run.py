"""End-to-end benchmark of the levycal command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything it writes goes under `.bench_work/` at the checkout root.  With
--trace 0 every command runs as a fresh child process, since a user pays
interpreter and import start-up on each command, and the last stdout line
carries the end-to-end metrics.  With --trace 1 one child process replays the
workload in-process with spans around each module's functions (inproc.py) and
the last line carries the per-layer metrics.

A --trace 0 run is: set-up (input files plus an interpreter/import probe,
three times, median reported), then reps of the whole command sequence,
alternating the fixed quality seed and --seed, until --seconds have passed
and at least two have run.  Each timing is the median over the reps, in
reference seconds (see PROBE_REFERENCE_S); the quality record comes from the
fits of the first quality-seed rep, so it is exact and the same on every run.
Every command's exit code and outputs are checked, and every rep's outputs
must be byte-identical, apart from manifest.json, to those of the first rep
of the same seed in this run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
INPUTS = WORK / "inputs"
RESULTS = WORK / "results"

# Identical on every run and every commit: at most nproc (2) program threads.
CHILD_ENV = {
    "PATH": "/usr/local/bin:/usr/bin:/bin",
    "PYTHONPATH": str(ROOT / "src"),
    "ELNN_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C",
}
THREAD_VARS = ("ELNN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 3

# The speed of one thread on the shared machines this runs on drifts by up to
# 1.7x over minutes, which no amount of work inside a run averages out.  So a
# fixed pure-Python loop runs around every timed command, and times are
# reported in reference seconds: wall seconds times PROBE_REFERENCE_S over
# the loop's mean time in the rep, i.e. wall seconds on a machine that runs
# the loop in PROBE_REFERENCE_S.  Raw wall seconds stay in the run record.
PROBE_LOOPS = 2_000_000
PROBE_REFERENCE_S = 0.1

PROBE = """
import json, time
t0 = time.perf_counter()
import levycal.cli
import_s = time.perf_counter() - t0
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"import_s": import_s, "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""

TIMINGS = ("pipeline_s", "calibrate_s", "simulate_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "pipeline_s": "s", "calibrate_s": "s", "simulate_s": "s",
         "peak_rss_mb": "MB"} | wl.QUALITY_METRICS


def setup(seed):
    """Write the inputs and probe a fresh interpreter; returns (median s, probes).

    Each repeat is timed in reference seconds, scaled by speed probes run
    just before and just after it.
    """
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        before = speed_probe()
        t0 = time.perf_counter()
        shutil.rmtree(INPUTS, ignore_errors=True)
        wl.write_inputs(INPUTS, {seed, wl.QUALITY_SEED})
        out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=CHILD_ENV,
                             capture_output=True, text=True, check=True)
        seconds = time.perf_counter() - t0
        times.append(seconds * 2 * PROBE_REFERENCE_S / (before + speed_probe()))
        probes.append(json.loads(out.stdout))
    return statistics.median(times), probes


def environment(seed, probe):
    return {"seed": seed, "quality_seed": wl.QUALITY_SEED,
            "python": sys.version.split()[0], "numpy": probe["numpy"],
            "scipy": probe["scipy"], "blas": probe["blas"],
            "nproc": len(os.sched_getaffinity(0)),
            "child_env": {k: CHILD_ENV[k] for k in THREAD_VARS}}


def run_command(argv):
    """Run one levycal command as a child; returns (exit code, wall s, max RSS MB)."""
    t0 = time.perf_counter()
    with open(WORK / "stderr.log", "ab") as err:
        proc = subprocess.Popen([sys.executable, "-m", "levycal.cli", *argv], cwd=ROOT,
                                env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def speed_probe():
    """Seconds a fixed pure-Python loop takes now: the machine's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - t0


def run_rep(workload, seed, name, checker, reference):
    """Run one rep's commands in sequence; returns (timings, digests, quality record).

    A speed probe runs before the first command and after each one, and the
    rep's wall times are scaled by PROBE_REFERENCE_S over the probes' mean.
    """
    root = WORK / "reps" / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    wall = {"pipeline_s": 0.0, "calibrate_s": 0.0, "simulate_s": 0.0}
    peak_rss, probes = 0.0, [speed_probe()]
    digests, fits, failed = {}, [], len(checker.failures)
    for step in wl.steps(workload, INPUTS, seed, root):
        rc, seconds, rss = run_command(step.argv)
        probes.append(speed_probe())
        wall["pipeline_s"] += seconds
        if step.command in ("calibrate", "simulate"):
            wall[f"{step.command}_s"] += seconds
        peak_rss = max(peak_rss, rss)
        digests.update(checker.command(step, rc, root, reference))
        fits.extend(step.fits)
    try:
        quality = wl.quality_record(fits, INPUTS)
    except (OSError, ValueError, KeyError, TypeError):
        quality = None
    shutil.rmtree(root)
    scale = PROBE_REFERENCE_S / statistics.mean(probes)
    timings = {k: v * scale for k, v in wall.items()} | {"peak_rss_mb": peak_rss}
    record = timings | {"seed": seed, "wall": wall, "probes_s": probes}
    complete = len(checker.failures) == failed
    return record, digests if complete else None, quality


def timed_run(args, checker):
    """Reps alternating the quality seed and --seed; returns (metrics, record extras).

    Every rep's outputs must be byte-identical, apart from manifest.json, to
    those of the first complete rep of the same seed in this run.
    """
    reps, first, quality = [], {}, None
    t0 = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - t0 < args.seconds:
        seed = (wl.QUALITY_SEED, args.seed)[len(reps) % 2]
        rep, got, record = run_rep(args.workload, seed, f"rep-{len(reps)}", checker,
                                   first.get(seed))
        reps.append(rep)
        if got is not None:
            first.setdefault(seed, got)
        if seed == wl.QUALITY_SEED:
            quality = quality or record
    if quality is None:
        raise SystemExit("no quality rep left readable fits:\n" + "\n".join(checker.failures))
    metrics = {k: statistics.median(r[k] for r in reps) for k in TIMINGS}
    digests = {seed: wl.tree_digest(d) for seed, d in first.items()}
    return metrics | quality, {"reps": reps, "digests": digests}


def traced_run(args, checker):
    """In-process traced replay in one child with the same environment (inproc.py)."""
    out = WORK / "trace.json"
    out.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(Path(__file__).with_name("inproc.py")),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--inputs", str(INPUTS), "--work", str(WORK / "reps"), "--out", str(out)],
                   cwd=ROOT, env=CHILD_ENV, check=True)
    doc = json.loads(out.read_text())
    checker.attempted += doc.pop("attempted")
    checker.failures.extend(doc.pop("failures"))
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levycal" / "cli.py").is_file():
        raise SystemExit(f"levycal sources not found under {ROOT / 'src'}")

    WORK.mkdir(exist_ok=True)
    shutil.rmtree(WORK / "reps", ignore_errors=True)
    (WORK / "stderr.log").unlink(missing_ok=True)
    setup_s, probes = setup(args.seed)
    checker = wl.Checker()
    if args.trace:
        extras = traced_run(args, checker)
        metrics = extras.pop("metrics")
        import_s = statistics.median(p["import_s"] for p in probes)
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    else:
        values, extras = timed_run(args, checker)
        values["setup_s"] = setup_s
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    metrics = dict(sorted(metrics.items()))
    shutil.rmtree(WORK / "reps", ignore_errors=True)

    failed = len(checker.failures)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed, probes[-1]),
              "error_rate": failed / checker.attempted, "failures": checker.failures,
              "metrics": metrics} | extras
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    for problem in checker.failures:
        print(f"FAILED {problem}")
    print(f"error_rate = {record['error_rate']:.6g} ({failed} of {checker.attempted} commands)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, seconds in extras.get("top_self_s", []):
        print(f"self time: {name} {seconds:.4g} s")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
