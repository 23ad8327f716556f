"""Traced in-process replay of one workload, for the per-layer metrics.

Started by run.py with --trace 1 in the same child environment as the timed
commands.  It replays the workload's commands through `levycal.cli.main`
three times at --seed: untraced (warm-up and byte reference), traced, and
untraced again (the baseline of trace.overhead_frac).

Tracing rebinds module attributes from here, including the names modules
imported by value; the program itself is unchanged.  Span stacks are
thread-local because the calibrate fan-out trains markets on worker threads;
a worker's outermost span is parented to the open fan-out span.  Spans stay
in memory and are written out at the end.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import shutil
import statistics
import threading
import time
import warnings
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from scipy.integrate import IntegrationWarning

import workloads as wl
from levycal import calibrate, cli, elnn, levy_models, market, serialize, spectral


class Tracer:
    """Spans and counts recorded by wrappers that stand in for module attributes."""

    def __init__(self):
        self.spans = []  # (id, name, parent id, thread id, start, end)
        self.counts = Counter()
        self.adopt = None  # open fan-out span, parent of worker threads' outer spans
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.adopt
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, parent, threading.get_ident(), t0, t1))

    def count(self, fn, *args):
        with self._lock:
            fn(self.counts, *args)

    def patch(self, owner, attr, span=None, count=None):
        """Rebind owner.attr to a wrapper recording a span and/or a count."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                with self.span(span):
                    result = original(*args, **kwargs)
            if count is not None:
                self.count(count, args, result)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _written(index):
    """Count the bytes of the file a serialize writer received as argument `index`."""
    def count(counts, args, _):
        counts["serialize.bytes_written"] += Path(args[index]).stat().st_size
    return count


def _written_tables(counts, args, _):
    for name in ("report_z.csv", "report_re.csv", "report_im.csv"):
        counts["serialize.bytes_written"] += (Path(args[1]) / name).stat().st_size


def _samples(counts, _, groups):
    counts["market.amplify.samples"] += sum(len(g.k) for g in groups)


def _epoch(counts, args, _):
    counts["elnn.epochs"] += 1
    counts["elnn.nodes"] = max(counts["elnn.nodes"], len(args[1]))


def install(tracer):
    p = tracer.patch
    p(serialize, "save_time_values", "serialize.save_time_values")
    p(serialize, "load_time_values", "serialize.load_time_values")
    for name, index in (("save_columns", 0), ("save_grid", 0), ("save_model", 1),
                        ("save_params", 1), ("save_report", 1)):
        p(serialize, name, count=_written(index))
    p(serialize, "save_report_tables", count=_written_tables)
    p(cli, "generate_virtual_market", "market.generate_virtual_market")
    p(market, "time_value_curve", "spectral.time_value_curve")
    p(market, "cumulants", "levy_models.cumulants")
    p(calibrate, "amplify", "market.amplify", count=_samples)
    p(calibrate, "regrid_time_values", "spectral.regrid_time_values")
    p(calibrate, "phi_from_time_values", "spectral.phi_from_time_values")
    p(calibrate, "time_values_from_phi", "spectral.time_values_from_phi")
    p(spectral, "time_values_from_phi", "spectral.time_values_from_phi")
    p(calibrate, "parametric_char_shifted", "levy_models.parametric_char_shifted")
    p(levy_models, "f_exponent", "levy_models.f_exponent")
    for model in (levy_models.MertonModel, levy_models.KouModel, levy_models.CustomModel):
        p(model, "triplet", "levy_models.triplet")
    p(calibrate, "spectral_target", "calibrate.spectral_target")
    p(calibrate, "evaluate_report", "calibrate.evaluate_report")
    p(cli, "calibrate_parametric", "calibrate.calibrate_parametric")
    p(cli, "run_elnn", "calibrate.run_elnn")
    p(elnn, "train", "elnn.train")
    p(elnn, "_loss_and_grad", count=_epoch)
    p(cli, "implied_levy_density", "elnn.implied_levy_density")

    class FanOut(ThreadPoolExecutor):
        """The calibrate fan-out's executor, traced over its lifetime."""

        def __enter__(self):
            self._span = tracer.span("cli.fanout")
            tracer.adopt = self._span.__enter__()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.adopt = None
                self._span.__exit__(None, None, None)

    tracer.replace(cli, "ThreadPoolExecutor", FanOut)


def replay(workload, seed, inputs, root, tracer=None):
    """Run the workload's commands in-process; returns (pipeline s, steps, warnings)."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    steps = wl.steps(workload, inputs, seed, root)
    total, warned, codes = 0.0, 0, []
    for step in steps:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            if tracer is None:
                codes.append(cli.main(list(step.argv)))
            else:
                with tracer.span(f"cli.{step.command}"):
                    codes.append(cli.main(list(step.argv)))
            total += time.perf_counter() - t0
        warned += sum(issubclass(w.category, IntegrationWarning) for w in caught)
    return total, list(zip(steps, codes)), warned


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, _, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1 in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children[sid]):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, counts, warned, traced_s, untraced_s):
    selfs = self_times(spans)
    calls, total, own, durs = Counter(), defaultdict(float), defaultdict(float), defaultdict(list)
    for sid, name, _, _, t0, t1 in spans:
        calls[name] += 1
        total[name] += t1 - t0
        own[name] += selfs[sid]
        durs[name].append(t1 - t0)
    fanout_wall = total["cli.fanout"]
    fanned = {sid for sid, name, *_ in spans if name == "cli.fanout"}
    fanned_s = sum(t1 - t0 for _, name, parent, _, t0, t1 in spans
                   if name == "calibrate.run_elnn" and parent in fanned)
    epochs = counts["elnn.epochs"]

    m = {
        "cli.self_s": (sum(own[n] for n in own if n.startswith("cli.") and n != "cli.fanout"), "s"),
        "cli.fanout_concurrency": (fanned_s / fanout_wall if fanout_wall else 0.0, "ratio"),
        "serialize.bytes_written": (counts["serialize.bytes_written"], "bytes"),
        "market.amplify.samples": (counts["market.amplify.samples"], "count"),
        "spectral.time_value_curve.total_s": (total["spectral.time_value_curve"], "s"),
        "levy_models.triplet_s": (total["levy_models.triplet"], "s"),
        "levy_models.integration_warnings": (warned, "count"),
        "calibrate.spectral_target.total_s": (total["calibrate.spectral_target"], "s"),
        "elnn.train.total_s": (total["elnn.train"], "s"),
        "elnn.epochs": (epochs, "count"),
        "elnn.nodes": (counts["elnn.nodes"], "count"),
        "elnn.epoch_ms": (1e3 * total["elnn.train"] / epochs if epochs else 0.0, "ms"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    for name in ("serialize.save_time_values", "serialize.load_time_values",
                 "spectral.regrid_time_values", "spectral.phi_from_time_values",
                 "levy_models.parametric_char_shifted", "levy_models.f_exponent"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("serialize.save_time_values", "serialize.load_time_values",
                 "market.generate_virtual_market", "market.amplify",
                 "spectral.regrid_time_values", "spectral.phi_from_time_values",
                 "spectral.time_values_from_phi", "levy_models.parametric_char_shifted",
                 "levy_models.f_exponent", "levy_models.cumulants",
                 "calibrate.calibrate_parametric", "calibrate.evaluate_report",
                 "elnn.implied_levy_density"):
        m[f"{name}.self_s"] = (own[name], "s")
    for name in ("spectral.regrid_time_values", "spectral.phi_from_time_values",
                 "levy_models.parametric_char_shifted"):
        m[f"{name}.p50_ms"] = (_quantile_ms(durs[name], 50), "ms")
    for name in ("spectral.regrid_time_values", "spectral.phi_from_time_values"):
        m[f"{name}.p99_ms"] = (_quantile_ms(durs[name], 99), "ms")
    top = sorted(own.items(), key=lambda item: -item[1])[:8]
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}, top


def traced_run(args):
    checker, reference, seconds = wl.Checker(), None, {}
    tracer = Tracer()
    for name in ("warm", "traced", "untraced"):
        root = args.work / name
        if name == "traced":
            install(tracer)
        try:
            seconds[name], results, warned = replay(args.workload, args.seed, args.inputs, root,
                                                    tracer if name == "traced" else None)
        finally:
            tracer.restore()
        if name == "traced":
            traced_warnings = warned
        digests = {}
        for step, code in results:
            digests.update(checker.command(step, code, root, reference))
        reference = reference or digests
        shutil.rmtree(root)

    spans = tracer.spans
    metrics, top = layer_metrics(spans, tracer.counts, traced_warnings,
                                 seconds["traced"], seconds["untraced"])
    spans_path = args.out.with_name(f"spans-{args.workload}-seed{args.seed}.json")
    spans_path.write_text(json.dumps(
        [{"id": s, "name": n, "parent": p, "thread": t, "start": a, "end": b}
         for s, n, p, t, a, b in spans]) + "\n")
    return {"metrics": metrics, "counts": {k: metrics[k]["value"] for k in wl.EXACT_COUNTS},
            "top_self_s": top, "spans": str(spans_path),
            "attempted": checker.attempted, "failures": checker.failures}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.write_text(json.dumps(traced_run(args)) + "\n")


if __name__ == "__main__":
    main()
