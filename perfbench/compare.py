"""Compare two checkouts of levycal on this benchmark, in alternating pairs.

    python3 perfbench/compare.py collect PARENT CHANGE   # checkout directories
    python3 perfbench/compare.py check

`collect` runs every workload of BENCHMARK.json at seeds 1-10 with the
benchmark's run_seconds, one pair of runs per workload and seed: the parent
first on odd seeds, the change first on even ones, so that a slow spell of
the shared machine falls on both sides alike.  Then each side makes traced
runs at seeds 1 and 2 for the exact counts.  Records go under
.bench_work/pairs/{parent,change}/ of this checkout.  To check the benchmark
against itself, give one checkout twice.

`check` prints per workload and end-to-end metric each side's median and
spread (quartile distance over the median, as statistics.quantiles(n=4) gives
them), the median and spread of the per-seed ratios change/parent, and the
pairs the change won.  It fails when a run was not correct, when a metric's
median ratio is worse than its bound (a regression), when either side's
spread exceeds the bound (unresolved: the run-to-run noise is wider than the
bound), or when the reps of one seed on one side left different outputs.
When both sides hold the same sources, their outputs and exact counts must
also match seed by seed; otherwise differences there are printed as
information, since a change may alter them on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ROOT / ".bench_work" / "pairs"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2)
SIDES = ("parent", "change")


def sources_digest(checkout):
    """sha256 over the program's sources in a checkout."""
    h = hashlib.sha256()
    for f in sorted((checkout / "src").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(checkout)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run(side, checkout, workload, seed, trace):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run([sys.executable, *cmd[1:]], cwd=checkout, capture_output=True,
                          text=True)
    if done.returncode:
        sys.exit(f"{side}: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = f"{workload}-seed{seed}-trace{trace}.json"
    shutil.copy(checkout / ".bench_work" / "results" / record, PAIRS / side / record)
    shown = ", ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                      if trace == 0)
    print(f"{side} {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)


def collect(args):
    checkouts = dict(zip(SIDES, (Path(args.parent).resolve(), Path(args.change).resolve())))
    shutil.rmtree(PAIRS, ignore_errors=True)
    for side in SIDES:
        (PAIRS / side).mkdir(parents=True)
    (PAIRS / "sources.json").write_text(json.dumps(
        {side: sources_digest(path) for side, path in checkouts.items()}) + "\n")
    for workload in (w["name"] for w in BENCH["workloads"]):
        for seed in SEEDS:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                run(side, checkouts[side], workload, seed, 0)
    for workload in (w["name"] for w in BENCH["workloads"]):
        for seed in TRACED_SEEDS:
            for side in SIDES:
                run(side, checkouts[side], workload, seed, 1)


def load(side):
    runs = defaultdict(dict)  # (workload, trace) -> seed -> record
    for path in sorted((PAIRS / side).glob("*.json")):
        rec = json.loads(path.read_text())
        runs[rec["workload"], rec["trace"]][rec["environment"]["seed"]] = rec
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def check():
    sides = {side: load(side) for side in SIDES}
    digests = json.loads((PAIRS / "sources.json").read_text())
    same = digests["parent"] == digests["change"]
    problems, notes = [], []
    for side, runs in sides.items():
        for (workload, _), by_seed in runs.items():
            for seed, rec in by_seed.items():
                if rec["failures"]:
                    problems.append(f"{side} {workload} seed {seed}: {rec['failures'][:3]}")

    print(f"{'workload':20} {'metric':15} {'parent':>10} {'spread':>7} {'change':>10} "
          f"{'spread':>7} {'ratio':>7} {'spread':>7} {'won':>5}  bound  verdict")
    for workload in (w["name"] for w in BENCH["workloads"]):
        a, b = (sides[side].get((workload, 0), {}) for side in SIDES)
        seeds = sorted(set(a) & set(b))
        if len(seeds) < 2:
            problems.append(f"{workload}: fewer than two pairs collected")
            continue
        for metric in BENCH["end_to_end"]:
            key, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            va = [a[s]["metrics"][key]["value"] for s in seeds]
            vb = [b[s]["metrics"][key]["value"] for s in seeds]
            ratios = [y / x for x, y in zip(va, vb)]
            ratio = statistics.median(ratios)
            won = sum(y < x if lower else y > x for x, y in zip(va, vb))
            widths = [spread(va), spread(vb), spread(ratios)]
            worse = ratio - 1 if lower else 1 - ratio
            if worse > bound:
                verdict = "regression"
            elif max(widths[:2]) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            if verdict != "ok":
                problems.append(f"{workload} {key}: {verdict} (ratio {ratio:.4f}, "
                                f"spreads {', '.join(f'{w:.4f}' for w in widths)}, bound {bound})")
            print(f"{workload:20} {key:15} {statistics.median(va):10.5g} {widths[0]:7.4f} "
                  f"{statistics.median(vb):10.5g} {widths[1]:7.4f} {ratio:7.4f} {widths[2]:7.4f} "
                  f"{won:2}/{len(seeds):<2}  {bound:5}  {verdict}")

    # outputs: every rep of one seed on one side, and both sides when the sources match
    outputs = defaultdict(lambda: defaultdict(set))  # (workload, rep seed) -> side -> digests
    for side, runs in sides.items():
        for (workload, _), by_seed in runs.items():
            for rec in by_seed.values():
                for rep_seed, digest in rec.get("digests", {}).items():
                    outputs[workload, rep_seed][side].add(digest)
    for (workload, rep_seed), found in sorted(outputs.items()):
        for side, got in found.items():
            if len(got) > 1:
                problems.append(f"{side} {workload}: reps of seed {rep_seed} left different "
                                "outputs")
        if len(found) == 2 and found["parent"] != found["change"]:
            (problems if same else notes).append(
                f"{workload}: outputs of seed {rep_seed} differ between the sides")
    for (workload, trace), runs in sides["parent"].items():
        for seed, rec in runs.items():
            other = sides["change"].get((workload, trace), {}).get(seed)
            if other is None or "counts" not in rec:
                continue
            moved = {k: (v, other["counts"][k]) for k, v in rec["counts"].items()
                     if other["counts"][k] != v}
            if moved:
                (problems if same else notes).append(
                    f"{workload} seed {seed}: exact counts differ {moved}")
    print("sources:", "identical" if same else "differ")
    for note in notes:
        print("NOTE", note)
    for problem in problems:
        print("FAIL", problem)
    print("OK" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("parent")
    p.add_argument("change")
    sub.add_parser("check")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return check()


if __name__ == "__main__":
    sys.exit(main())
