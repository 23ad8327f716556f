import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import levycal
from levycal import CustomModel, KouModel, MertonModel, cli, moment_table
from levycal.cli import main
from levycal.errors import DivergedLoss
from levycal.serialize import (load_columns, load_model, load_params, load_time_values,
                               save_columns, save_model)

import oracles


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "merton.json"
    save_model(MertonModel(sigma=0.2, lam=1.0, mu=-0.05, delta=0.05), path)
    return path


def tiny_simulate(tmp_path, model_file, out_name="mkt", days=3, seed=7, extra=()):
    out = tmp_path / out_name
    code = main(["simulate", "--model", str(model_file), "--out", str(out),
                 "--days", str(days), "--per-day", "40", "--seed", str(seed),
                 "--grid-n", "4096", "--grid-dw", "0.2", *extra])
    assert code == 0
    return out


def test_simulate_writes_expected_layout(tmp_path, model_file):
    out = tiny_simulate(tmp_path, model_file)
    assert (out / "manifest.json").exists()
    assert (out / "grid.json").exists()
    assert (out / "market.json").exists()
    slices = sorted((out / "slices").glob("*.csv"))
    assert len(slices) == 3
    k, z = load_time_values(slices[0])
    assert k.size == 40
    assert np.all(z >= 0)
    manifests = list(out.rglob("manifest.json"))
    assert len(manifests) == 1


def test_simulate_rerun_is_byte_identical(tmp_path, model_file):
    out1 = tiny_simulate(tmp_path, model_file, "m1")
    out2 = tiny_simulate(tmp_path, model_file, "m2")
    for f1 in sorted((out1 / "slices").glob("*.csv")):
        f2 = out2 / "slices" / f1.name
        assert f1.read_bytes() == f2.read_bytes()
    assert (out1 / "market.json").read_bytes() == (out2 / "market.json").read_bytes()


def test_simulate_zero_noise_single_day(tmp_path, model_file):
    out = tiny_simulate(tmp_path, model_file, "clean", days=1, extra=("--noise", "0"))
    files = list((out / "slices").glob("*.csv"))
    assert len(files) == 1


def test_calibrate_zero_epochs_echoes_init(tmp_path, model_file):
    market = tiny_simulate(tmp_path, model_file)
    out = tmp_path / "cal"
    code = main(["calibrate", "--market", str(market), "--out", str(out),
                 "--method", "elnn", "--epochs", "0", "--m-cutoff", "60",
                 "--n-groups", "4", "--group-size", "200", "--seed", "3"])
    assert code == 0
    params = load_params(out / "params.json")
    assert params.sigma == 0.15  # untouched initialization
    assert (out / "loss.csv").read_text().strip() == "epoch,loss"
    # no epoch ran, so there is no final loss: null, not the bare token NaN that
    # strict JSON readers refuse, in calibrate's report and in the merged one
    merged = tmp_path / "merged"
    assert main(["report", "--runs", str(out), "--out", str(merged)]) == 0

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    for path in (out / "report.json", merged / "report.json"):
        doc = json.loads(path.read_text(), parse_constant=refuse)
        for report in doc if isinstance(doc, list) else [doc]:
            assert report["final_loss"] is None


def test_calibrate_parametric_method(tmp_path, model_file):
    market = tiny_simulate(tmp_path, model_file, days=5, seed=1, extra=("--noise", "0"))
    out = tmp_path / "cal_merton"
    code = main(["calibrate", "--market", str(market), "--out", str(out),
                 "--method", "merton", "--m-cutoff", "15", "--n-groups", "4",
                 "--group-size", "500", "--budget", "3000"])
    assert code == 0
    doc = json.loads((out / "params.json").read_text())
    assert doc["model"] == "merton"
    assert abs(doc["sigma"] - 0.2) < 0.05
    report = json.loads((out / "report.json").read_text())
    assert "z_rmse" in report and "sum" in report["z_rmse"]
    assert (out / "report_z.csv").exists()


def test_calibrate_rejects_markets_sharing_a_name(tmp_path, model_file):
    # fan-out outputs go to out/<market name>, so two markets named alike would clash
    m1 = tiny_simulate(tmp_path, model_file, "a/mkt", seed=1)
    m2 = tiny_simulate(tmp_path, model_file, "b/mkt", seed=2)
    out = tmp_path / "clash"
    code = main(["calibrate", "--market", str(m1), str(m2), "--out", str(out),
                 "--method", "elnn", "--epochs", "5", "--m-cutoff", "60",
                 "--n-groups", "2", "--group-size", "100"])
    assert code == 2
    assert not out.exists()


def _digests(root):
    """sha256 of every file under root but the manifests, by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"}


_TINY_ELNN = ["--method", "elnn", "--epochs", "5", "--m-cutoff", "60", "--n-groups", "2",
              "--group-size", "100"]


def test_calibrate_fans_out_multiple_markets(tmp_path, model_file, monkeypatch):
    markets = [tiny_simulate(tmp_path, model_file, "ma", seed=1),
               tiny_simulate(tmp_path, model_file, "mb", seed=2)]
    for market in markets:
        assert main(["calibrate", "--market", str(market), "--out",
                     str(tmp_path / "alone" / market.name), *_TINY_ELNN]) == 0
    alone = _digests(tmp_path / "alone")
    assert len(alone) == 2 * 6
    pids = tmp_path / "pids"
    real_run_elnn = cli.run_elnn

    def run_elnn(*args, **kwargs):  # the forked workers inherit the patch
        with pids.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return real_run_elnn(*args, **kwargs)

    monkeypatch.setattr(cli, "run_elnn", run_elnn)
    # forked workers, the command's own process at a cap of 1, and the same where
    # the platform cannot fork: every market's files equal those of its run alone
    for cap, fork, forked in (("2", True, True), ("1", True, False), ("2", False, False)):
        monkeypatch.setenv("ELNN_THREADS", cap)
        monkeypatch.setattr(cli, "_FORK_FAN_OUT", fork)
        pids.write_text("")
        out = tmp_path / f"multi-{cap}-{fork}"
        assert main(["calibrate", "--market", *map(str, markets), "--out", str(out),
                     *_TINY_ELNN]) == 0
        assert len(list(out.rglob("manifest.json"))) == 1
        assert _digests(out) == alone
        ran_in = pids.read_text().split()
        assert len(ran_in) == 2 and (str(os.getpid()) not in ran_in) == forked, ran_in


def test_fan_out_errors_keep_their_exit_codes(tmp_path, model_file, monkeypatch, capsys):
    # an error raised in a worker process reaches main, which maps it as usual
    monkeypatch.setenv("ELNN_THREADS", "2")
    ma = tiny_simulate(tmp_path, model_file, "ma", seed=1)
    mb = tiny_simulate(tmp_path, model_file, "mb", days=4, seed=2)
    argv = ["calibrate", "--market", str(ma), str(mb), "--out", str(tmp_path / "multi"),
            *_TINY_ELNN]
    real_run_elnn = cli.run_elnn

    def diverge_on_four_days(slices, *args, **kwargs):
        if len(slices) == 4:
            raise DivergedLoss("loss became non-finite")
        return real_run_elnn(slices, *args, **kwargs)

    # the forked workers inherit the patch
    with monkeypatch.context() as mp:
        mp.setattr(cli, "run_elnn", diverge_on_four_days)
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == "numerical failure: loss became non-finite\n"
    bad = sorted((mb / "slices").glob("*.csv"))[-1]
    bad.write_text(bad.read_text() + "0.1,abc\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 42: ") and err.count("\n") == 1, err


# a fan-out worker dies without a word, as one killed for memory would
_DYING_WORKER = """
import multiprocessing, os, sys
from levycal import cli
parent = os.getpid()

def die(*args, **kwargs):
    if os.getpid() == parent:
        raise AssertionError("the market was calibrated in the parent process")
    os._exit(1)

cli.run_elnn = die
try:
    cli.main(sys.argv[1:])
finally:
    print(len(multiprocessing.active_children()))
"""


def test_fan_out_survives_a_dying_worker(tmp_path, model_file):
    ma = tiny_simulate(tmp_path, model_file, "ma", seed=1)
    mb = tiny_simulate(tmp_path, model_file, "mb", seed=2)
    proc = _fresh_python(["-c", "import os; os.environ['ELNN_THREADS'] = '2'\n" + _DYING_WORKER,
                          "calibrate", "--market", str(ma), str(mb), "--out", "multi",
                          *_TINY_ELNN], tmp_path)
    # the broken pool ends the command with its traceback, and no worker is left
    assert proc.returncode == 1 and "BrokenProcessPool" in proc.stderr, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_worker_cap(monkeypatch):
    # by default one worker per CPU this process may run on, not per CPU of the host
    monkeypatch.delenv("ELNN_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert [cli._max_workers(n) for n in (1, 2, 8)] == [1, 2, 2]
    monkeypatch.setenv("ELNN_THREADS", "3")
    assert [cli._max_workers(n) for n in (1, 2, 8)] == [1, 2, 3]


def test_density_of_zero_params(tmp_path):
    params = {"sigma": 0.2, "wr0": [0.0] * 20, "wr1": [0.3] * 20,
              "wi0": [0.0] * 20, "wi1": [0.3] * 20}
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    out = tmp_path / "dens"
    code = main(["density", "--params", str(pfile), "--out", str(out),
                 "--grid-n", "4096", "--grid-dw", "0.2"])
    assert code == 0
    rows = (out / "density.csv").read_text().strip().splitlines()
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    np.testing.assert_array_equal(values, 0.0)


def test_density_of_parametric_model(tmp_path, model_file):
    out = tmp_path / "dens_model"
    code = main(["density", "--params", str(model_file), "--out", str(out),
                 "--x-lo", "-0.2", "--x-hi", "0.2", "--grid-n", "4096", "--grid-dw", "0.2"])
    assert code == 0
    rows = (out / "density.csv").read_text().strip().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    assert xs.min() >= -0.2 and xs.max() <= 0.2


def test_moments_command(tmp_path, model_file):
    prices = 100 * np.exp(np.cumsum(np.random.default_rng(0).normal(0, 0.01, 400)))
    pfile = tmp_path / "prices.csv"
    pfile.write_text("close\n" + "\n".join(f"{p:.10f}" for p in prices) + "\n")
    out = tmp_path / "mom"
    code = main(["moments", "--prices", str(pfile), "--horizons", "1,2,4",
                 "--model", str(model_file), "--out", str(out)])
    assert code == 0
    lines = (out / "moments.csv").read_text().strip().splitlines()
    assert lines[0].startswith("horizon_days,mean,std,")
    assert len(lines) == 4
    # the file holds what the value-by-value writer writes, with a model and without
    # one, NaN skewness of a flat series included
    flat = tmp_path / "flat.csv"
    flat.write_text("close\n" + "100\n" * 20)
    for prices_file, model in ((pfile, model_file), (flat, None)):
        argv = ["moments", "--prices", str(prices_file), "--horizons", "1,2,4",
                "--out", str(tmp_path / "table")]
        assert main(argv + (["--model", str(model)] if model else [])) == 0
        rows = moment_table(load_columns(prices_file)[1][:, -1], [1, 2, 4],
                            triplet=load_model(model).triplet() if model else None)
        theory = sorted(rows[0].theory)
        header = ["horizon_days", "mean", "std", "skewness", "excess_kurtosis", *theory]
        columns = [[getattr(r, c) for r in rows] for c in header[:5]]
        columns += [[r.theory[c] for r in rows] for c in theory]
        oracles.save_columns_reference(tmp_path / "want.csv", header, columns)
        assert (tmp_path / "table" / "moments.csv").read_text() == \
            (tmp_path / "want.csv").read_text()
    assert "nan" in (tmp_path / "want.csv").read_text()


def test_report_merges_runs(tmp_path, model_file):
    market = tiny_simulate(tmp_path, model_file)
    outs = []
    for i, method in enumerate(["elnn", "merton"]):
        out = tmp_path / f"cal{i}"
        args = ["calibrate", "--market", str(market), "--out", str(out),
                "--method", method, "--m-cutoff", "60", "--n-groups", "2",
                "--group-size", "200"]
        if method == "elnn":
            args += ["--epochs", "5"]
        else:
            args += ["--budget", "600"]
        assert main(args) == 0
        outs.append(out)
    merged = tmp_path / "merged"
    code = main(["report", "--runs", *map(str, outs), "--out", str(merged)])
    assert code == 0
    lines = (merged / "report_z.csv").read_text().strip().splitlines()
    assert lines[0] == "label,ATM,ITM,OTM,sum"
    assert len(lines) == 3


def test_rerun_is_byte_identical_beyond_simulate(tmp_path, model_file):
    market = tiny_simulate(tmp_path, model_file)
    cal = ["calibrate", "--market", str(market), "--m-cutoff", "60", "--n-groups", "2",
           "--group-size", "200"]

    def run(root):
        for argv in (cal + ["--epochs", "5", "--out", f"{root}/elnn"],
                     cal + ["--method", "merton", "--budget", "300", "--out", f"{root}/merton"],
                     ["density", "--params", f"{root}/elnn/params.json", "--out", f"{root}/dens"],
                     ["report", "--runs", f"{root}/elnn", f"{root}/merton", "--out",
                      f"{root}/report"]):
            assert main(argv) == 0, argv
        return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
                if f.is_file() and f.name != "manifest.json"}

    first, second = run(tmp_path / "a"), run(tmp_path / "b")
    assert len(first) == 16
    assert first == second
    # report.json is calibrate's report document; report merges the documents unchanged
    docs = [json.loads(first[f"{fit}/report.json"]) for fit in ("elnn", "merton")]
    assert list(docs[0]) == ["label", "sigma", "lambda", "z_rmse", "phi_re_rmse",
                             "phi_im_rmse", "final_loss"]
    assert list(docs[0]["z_rmse"]) == ["ATM", "ITM", "OTM", "sum"]
    assert list(docs[0]["phi_re_rmse"]) == ["Low", "Mid", "High", "sum"]
    assert first["elnn/report.json"] == (json.dumps(docs[0], indent=2) + "\n").encode()
    assert first["report/report.json"] == (json.dumps(docs, indent=2) + "\n").encode()


def test_config_file_with_flag_override(tmp_path, model_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"days": 2, "per_day": 10, "seed": 5,
                               "grid_n": 4096, "grid_dw": 0.2}))
    out = tmp_path / "cfgmkt"
    code = main(["simulate", "--model", str(model_file), "--config", str(cfg),
                 "--out", str(out), "--days", "4"])
    assert code == 0
    assert len(list((out / "slices").glob("*.csv"))) == 4  # flag wins
    k, _ = load_time_values(next(iter(sorted((out / "slices").glob("*.csv")))))
    assert k.size == 10  # config file wins over default


def test_model_file_round_trip(tmp_path, merton_model, kou_model):
    x = np.linspace(-0.6, 0.6, 7)
    for i, model in enumerate((merton_model, kou_model,
                               CustomModel(0.1, x, merton_model.density(x) / 3.0))):
        path = tmp_path / f"model{i}.json"
        save_model(model, path)
        back = load_model(path)
        assert type(back) is type(model)
        for f in dataclasses.fields(model):
            assert np.array_equal(getattr(back, f.name), getattr(model, f.name)), f.name
    # the file keys spell lam as lambda, in field order
    save_model(merton_model, tmp_path / "merton.json")
    save_model(kou_model, tmp_path / "kou.json")
    assert (tmp_path / "merton.json").read_text() == (
        '{\n  "model": "merton",\n  "sigma": 0.2,\n  "params": {\n    "lambda": 1.0,\n'
        '    "mu": -0.05,\n    "delta": 0.05\n  }\n}\n')
    assert (tmp_path / "kou.json").read_text() == (
        '{\n  "model": "kou",\n  "sigma": 0.21,\n  "params": {\n    "lambda": 1.4,\n'
        '    "p": 0.04,\n    "lambda_plus": 3.7,\n    "lambda_minus": 1.8\n  }\n}\n')


@settings(max_examples=200, deadline=None)
@given(table=arrays(np.float64, st.tuples(st.integers(0, 50), st.integers(1, 3)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_columns_match_the_value_by_value_writer(table):
    # any finite floats: signed zeros, subnormals and extreme exponents included
    header = ["a", "b", "c"][:table.shape[1]]
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "new.csv", Path(tmp) / "reference.csv"
        save_columns(path, header, list(table.T))
        oracles.save_columns_reference(reference, header, list(table.T))
        assert path.read_bytes() == reference.read_bytes()
        # read back bit for bit
        got_header, data = load_columns(path, header)
        assert got_header == header
        np.testing.assert_array_equal(data.view(np.int64), table.view(np.int64))


# one CSV value: any text without a comma or a line break, and float spellings
_TOKENS = (st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters=",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                   max_size=8)
           | st.floats().map(repr)
           | st.from_regex(r"[ \t]*[+-]?[0-9_]*\.?[0-9_]*([eE][+-]?[0-9_]+)?[ \t]*", fullmatch=True))


@settings(max_examples=300, deadline=None)
@given(token=_TOKENS)
@example(token=" 1.5")
@example(token="+2")
@example(token="1_0")
@example(token=".5")
@example(token="\uff11")  # fullwidth digit one
@example(token="1__0")
@example(token="0x10")
@example(token="")
def test_csv_values_parse_as_float_does(token):
    # a value in the middle of a file, where the whole-file strip cannot reach it
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "odd.csv"
        path.write_text(f"x,y\n0.5,1\n{token},2\n3,4\n")
        try:
            value = float(token)
        except ValueError as exc:
            expected = f"{path}: line 3: {exc}"
        else:
            expected = None if math.isfinite(value) else f"{path}: line 3: non-finite value"
        if expected is None:
            np.testing.assert_array_equal(load_columns(path)[1], [[0.5, 1], [value, 2], [3, 4]])
        else:
            with pytest.raises(ValueError) as err:
                load_columns(path)
            assert str(err.value) == expected


def test_exit_code_on_missing_model(tmp_path):
    code = main(["simulate", "--model", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_exit_code_on_bad_config(tmp_path, model_file, capsys):
    # a bad grid setting is named as the setting, for either command that takes one
    for command in (["simulate", "--model"], ["density", "--params"]):
        for flag, value, key in (("--grid-n", "1000", "'grid_n'"),  # not a power of two
                                 ("--grid-n", "2", "'grid_n'"),
                                 ("--grid-dw", "0", "'grid_dw'"),
                                 ("--grid-dw", "-0.1", "'grid_dw'")):
            capsys.readouterr()
            code = main([*command, str(model_file), "--out", str(tmp_path / "y"), flag, value])
            assert code == 2, (command, flag, value)
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err, err
    assert not (tmp_path / "y").exists()
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    code = main(["simulate", "--model", str(model_file), "--config", str(cfg),
                 "--out", str(tmp_path / "z")])
    assert code == 2
    market = tiny_simulate(tmp_path, model_file)
    code = main(["calibrate", "--market", str(market), "--out", str(tmp_path / "cal"),
                 "--epochs", "1", "--n-groups", "0", "--group-size", "100"])
    assert code == 2
    # a misspelt key would otherwise leave its setting at the default
    cfg.write_text(json.dumps({"epoch": 3}))
    capsys.readouterr()
    code = main(["calibrate", "--market", str(market), "--config", str(cfg),
                 "--out", str(tmp_path / "typo"), "--n-groups", "2", "--group-size", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'epoch'" in err, err
    assert not (tmp_path / "typo" / "report.json").exists()
    for extra in (["--noise", "nan"], ["--noise", "inf"], ["--noise", "-0.05"],
                  ["--days", "0"], ["--per-day", "0"], ["--days", "-1"]):
        capsys.readouterr()
        code = main(["simulate", "--model", str(model_file), "--out", str(tmp_path / "noisy"),
                     *extra])
        assert code == 2, extra
        assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "noisy").exists()
    # a flag must be a finite number, and a command must be given its input file
    prices = tmp_path / "prices.csv"
    prices.write_text("close\n" + "".join(f"{100 + i}\n" for i in range(40)))
    simulate = ["simulate", "--model", str(model_file)]
    calibrate = ["calibrate", "--market", str(market), "--n-groups", "2", "--group-size", "100"]
    density = ["density", "--params", str(model_file)]
    for argv, flag in ((simulate + ["--k-lo", "nan"], "--k-lo"),
                       (simulate + ["--T", "inf"], "--T"),
                       (density + ["--x-lo", "nan"], "--x-lo"),
                       (calibrate + ["--m-cutoff", "nan"], "--m-cutoff"),
                       (calibrate + ["--learning-rate", "nan"], "--learning-rate"),
                       (["simulate"], "--model"),
                       (["density"], "--params"),
                       (["moments", "--model", str(model_file)], "--prices")):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "flagged")]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err, err
        assert not (tmp_path / "flagged").exists(), argv
    # a setting outside its range exits 2 with an error naming it, and writes no result
    for i, (argv, names) in enumerate((
            (calibrate + ["--learning-rate", "0"], ["learning_rate"]),
            (calibrate + ["--learning-rate", "-1"], ["learning_rate"]),
            (calibrate + ["--beta-reg", "-1"], ["beta_reg"]),
            (calibrate + ["--n-nodes", "0"], ["n_nodes"]),
            (calibrate + ["--n-nodes", "-1"], ["n_nodes"]),
            (calibrate + ["--m-cutoff", "0.001"], ["m_cutoff", "dw"]),
            (calibrate + ["--group-size", "-1"], ["group_size"]),
            (calibrate + ["--method", "merton", "--budget", "0"], ["budget"]),
            (calibrate + ["--method", "kou", "--budget", "-5"], ["budget"]),
            (simulate + ["--k-lo", "-80", "--k-hi", "-70"], ["k_lo", "k_hi"]),
            (simulate + ["--k-lo", "0.4", "--k-hi", "-0.4"], ["k_lo", "k_hi"]),
            (density + ["--x-lo", "1", "--x-hi", "-1"], ["x_lo", "x_hi"]),
            (density + ["--x-lo", "100", "--x-hi", "200"], ["x_lo", "x_hi", "k node"]),
            (density + ["--x-lo", "0.001", "--x-hi", "0.002"], ["x_lo", "x_hi", "k node"]))):
        capsys.readouterr()
        out = tmp_path / f"ranged{i}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(name in err for name in names), err
        assert not [p for p in out.rglob("*") if p.is_file()], argv
    # moments runs without a model, which is optional
    assert main(["moments", "--prices", str(prices), "--horizons", "1,2",
                 "--out", str(tmp_path / "moments")]) == 0
    # config values must have their setting's type: null, booleans, non-integral numbers
    # for int settings and lists are rejected, and so is a method calibrate does not know
    for doc in ({"epochs": None}, {"epochs": True}, {"n_groups": 2.5}, {"epochs": 100.0},
                {"days": [1]}, {"method": "heston"}, {"m_cutoff": 10**400},
                {"beta_reg": math.nan}, {"m_cutoff": math.inf}):
        cfg.write_text(json.dumps(doc))
        argv = (["simulate", "--model", str(model_file)] if "days" in doc else
                ["calibrate", "--market", str(market), "--n-groups", "2", "--group-size", "100"])
        capsys.readouterr()
        code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "typed")])
        assert code == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{next(iter(doc))}'" in err, err
        assert not (tmp_path / "typed").exists(), doc
    # an integer for a float setting is a number, as the benchmark's configs write it
    cfg.write_text(json.dumps({"m_cutoff": 60, "epochs": 1}))
    assert main(["calibrate", "--market", str(market), "--config", str(cfg),
                 "--out", str(tmp_path / "int"), "--n-groups", "2", "--group-size", "100"]) == 0
    # the worker cap is read only when several markets fan out
    other = tiny_simulate(tmp_path, model_file, "other")
    with pytest.MonkeyPatch.context() as mp:
        for cap in ("abc", "0", "-2"):
            mp.setenv("ELNN_THREADS", cap)
            capsys.readouterr()
            assert main(["calibrate", "--market", str(market), str(other), "--epochs", "1",
                         "--out", str(tmp_path / "threads"), "--n-groups", "2",
                         "--group-size", "100"]) == 2, cap
            assert "ELNN_THREADS" in capsys.readouterr().err, cap


def test_exit_code_on_non_object_model_and_params(tmp_path, model_file, capsys):
    for i, text in enumerate(["[1]", "null"]):
        doc = tmp_path / f"doc{i}.json"
        doc.write_text(text)
        assert main(["simulate", "--model", str(doc), "--out", str(tmp_path / "sim")]) == 2
        assert main(["density", "--params", str(doc), "--out", str(tmp_path / "dens")]) == 2
    # the same for a market's market.json and grid.json, and for a run's report.json
    for name in ("market.json", "grid.json"):
        market = tiny_simulate(tmp_path, model_file, f"mkt-{name}")
        (market / name).write_text("[1]")
        capsys.readouterr()
        assert main(["calibrate", "--market", str(market), "--out", str(tmp_path / "cal"),
                     "--epochs", "1", "--n-groups", "2", "--group-size", "100"]) == 2
        assert capsys.readouterr().err.startswith("error:")
    run = tmp_path / "run"
    run.mkdir()
    (run / "report.json").write_text("[1]")
    assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err.startswith("error:")

    # bad values inside the documents name the file and the key
    params = {"sigma": 0.2, "wr0": [0.0] * 3, "wr1": [0.3] * 3, "wi0": [0.0] * 3,
              "wi1": [0.3] * 3}
    market = tiny_simulate(tmp_path, model_file, "mkt-values")
    calibrate = ["calibrate", "--market", str(market), "--out", str(tmp_path / "cal"),
                 "--epochs", "1", "--n-groups", "2", "--group-size", "100"]
    assert main(calibrate[:3] + ["--out", str(run), "--epochs", "1", "--n-groups", "2",
                                 "--group-size", "100"]) == 0
    report = json.loads((run / "report.json").read_text())
    grid = json.loads((market / "grid.json").read_text())
    market_meta = json.loads((market / "market.json").read_text())
    model = json.loads(model_file.read_text())
    doc = tmp_path / "values.json"
    cases = [
        (["simulate", "--model", str(doc), "--out", str(tmp_path / "sim")], doc,
         model | {"params": model["params"] | {"lambda": None}}, "'lambda'"),
        (["simulate", "--model", str(doc), "--out", str(tmp_path / "sim")], doc,
         model | {"params": [1]}, "'params'"),
        (["simulate", "--model", str(doc), "--out", str(tmp_path / "sim")], doc,
         model | {"sigma": math.nan}, "'sigma'"),
        (["simulate", "--model", str(doc), "--out", str(tmp_path / "sim")], doc,
         model | {"params": model["params"] | {"lambda": math.inf}}, "'lambda'"),

        (["density", "--params", str(doc), "--out", str(tmp_path / "dens")], doc,
         params | {"wr0": None}, "'wr0'"),
        (["density", "--params", str(doc), "--out", str(tmp_path / "dens")], doc,
         params | {"wr0": [0.0] * 2}, "wr0, wr1, wi0 and wi1"),
        (calibrate, market / "grid.json", grid | {"n": None}, "'n'"),
        (calibrate, market / "grid.json", grid | {"n": 1000}, "'n'"),
        (calibrate, market / "grid.json", grid | {"dw": -0.2}, "'dw'"),
        (calibrate, market / "market.json", market_meta | {"T": 0.0}, "'T'"),
        (calibrate, market / "market.json", market_meta | {"T": -0.05}, "'T'"),
        (calibrate + ["--method", "merton"], market / "market.json", market_meta | {"T": 0.0},
         "'T'"),
        (calibrate + ["--method", "kou"], market / "market.json", market_meta | {"T": -0.05},
         "'T'"),
        (["report", "--runs", str(run), "--out", str(tmp_path / "rep")], run / "report.json",
         report | {"z_rmse": [1]}, "'z_rmse'"),
        (["report", "--runs", str(run), "--out", str(tmp_path / "rep")], run / "report.json",
         {k: v for k, v in report.items() if k != "final_loss"}, "'final_loss'"),
    ]
    for argv, path, bad, key in cases:
        good = path.read_text() if path.exists() else None
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(argv) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and key in err, err
        if good is not None:
            path.write_text(good)
    assert not (tmp_path / "sim").exists() and not (tmp_path / "rep").exists()
    # a model's own checks run at load, also for density, which prices nothing, and
    # their errors name the file
    doc.write_text(json.dumps({"model": "custom", "sigma": -0.1,
                               "params": {"x": [-1, 1], "dvdx": [1, 1]}}))
    capsys.readouterr()
    assert main(["density", "--params", str(doc), "--out", str(tmp_path / "dens")]) == 2
    assert capsys.readouterr().err == f"error: {doc}: sigma must be nonnegative\n"
    kou = {"model": "kou", "sigma": 0.2,
           "params": {"lambda": 1.0, "p": 0.4, "lambda_plus": 3.0, "lambda_minus": 2.0}}
    for bad in (model | {"params": model["params"] | {"delta": 0.0}},
                model | {"params": model["params"] | {"delta": -0.05}},
                kou | {"params": kou["params"] | {"p": 1.5}},
                kou | {"params": kou["params"] | {"lambda_plus": 2.0}}):
        doc.write_text(json.dumps(bad))
        for command in (["density", "--params", str(doc), "--out", str(tmp_path / "dens")],
                        ["simulate", "--model", str(doc), "--out", str(tmp_path / "sim")]):
            capsys.readouterr()
            assert main(command) == 2, bad
            err = capsys.readouterr().err
            assert err.startswith(f"error: {doc}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "dens").exists() and not (tmp_path / "sim").exists()


def test_exit_code_on_bad_csv_input(tmp_path, model_file, capsys):
    # empty, non-finite or ragged slice and price files, and horizons or prices moments
    # cannot use
    market = tiny_simulate(tmp_path, model_file)
    slice_csv = sorted((market / "slices").glob("*.csv"))[0]
    good_slice = slice_csv.read_text()
    header, *rows = good_slice.splitlines()
    three_columns = "\n".join([header] + [row + ",0.5" for row in rows]) + "\n"
    prices = tmp_path / "prices.csv"
    good_prices = "close\n" + "".join(f"{100.0 + i}\n" for i in range(30))
    calibrate = ["calibrate", "--market", str(market), "--out", str(tmp_path / "cal"),
                 "--epochs", "1", "--n-groups", "2", "--group-size", "100"]
    moments = ["moments", "--prices", str(prices), "--out", str(tmp_path / "mom")]
    cases = [(calibrate, "", good_prices, None),
             (calibrate, good_slice.replace("\n", "\nnan,nan\n", 1), good_prices, "line 2"),
             (calibrate, good_slice + "0.1,inf\n", good_prices, "line 42"),
             (calibrate, three_columns, good_prices, "line 2"),
             (calibrate, good_slice + "0.1\n", good_prices, "line 42"),
             (calibrate, good_slice + "0.1,abc\n", good_prices, "line 42"),
             (moments, good_slice, "", None),
             (moments, good_slice, good_prices + "nan\n", "line 32"),
             (moments + ["--horizons", "1,-1"], good_slice, good_prices, None),
             (moments + ["--horizons", "0"], good_slice, good_prices, None),
             (moments + ["--horizons", "1,abc"], good_slice, good_prices, "horizons"),
             (moments + ["--horizons", ""], good_slice, good_prices, "horizons"),
             (moments + ["--horizons", "1,16"], good_slice, good_prices,
              "horizon 16 leaves 1 non-overlapping returns in 30 prices"),
             (moments, good_slice, good_prices.replace("\n101.0", "\n-101.0"), None)]
    for argv, slice_text, price_text, where in cases:
        slice_csv.write_text(slice_text)
        prices.write_text(price_text)
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), err
        assert where is None or where in err, err
    assert not (tmp_path / "mom" / "moments.csv").exists()


# run one CLI command in a fresh interpreter and print the modules it loaded that
# cost start-up time: SciPy's, and the process pool of the calibrate fan-out
_LOADED_MODULES = """
import json, sys
from levycal.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing")
                        or m == "concurrent.futures.process")))
sys.exit(code)
"""


def _fresh_python(args, cwd):
    """Run a fresh interpreter with the package on its path; returns the process."""
    env = dict(os.environ)
    src = str(Path(levycal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _loaded(argv, cwd, preamble=""):
    proc = _fresh_python(["-c", preamble + _LOADED_MODULES, *argv], cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_commands_load_only_the_scipy_they_use(tmp_path, model_file):
    # every command starts a fresh interpreter, so module imports are start-up cost
    market = tiny_simulate(tmp_path, model_file)
    prices = tmp_path / "prices.csv"
    prices.write_text("close\n" + "".join(f"{100.0 + i}\n" for i in range(40)))
    kou_file = tmp_path / "kou.json"
    save_model(KouModel(sigma=0.21, lam=1.4, p=0.04, lam_plus=3.7, lam_minus=1.8), kou_file)
    custom_file = tmp_path / "custom.json"
    x = np.linspace(-0.5, 0.5, 41)
    save_model(CustomModel(0.2, x, np.exp(-0.5 * ((x + 0.05) / 0.08) ** 2) / 0.2), custom_file)
    sim = ["simulate", "--out", "sim", "--days", "2", "--per-day", "20",
           "--grid-n", "4096", "--grid-dw", "0.2"]
    cal = ["calibrate", "--market", str(market), "--n-groups", "2", "--group-size", "100"]
    report = ["report", "--runs", "cal", "calm", "--out", "rep"]
    loaded = {
        "simulate": _loaded(sim + ["--model", str(model_file)], tmp_path),
        "kou": _loaded(sim + ["--model", str(kou_file)], tmp_path),
        "custom": _loaded(sim + ["--model", str(custom_file)], tmp_path),
        "elnn": _loaded(cal + ["--epochs", "0", "--out", "cal"], tmp_path),
        "merton": _loaded(cal + ["--method", "merton", "--budget", "1", "--out", "calm"],
                          tmp_path),
        "kou-fit": _loaded(cal + ["--method", "kou", "--budget", "1", "--out", "calk"], tmp_path),
        "density": _loaded(["density", "--params", "cal/params.json", "--out", "den"], tmp_path),
        "merton-density": _loaded(["density", "--params", str(model_file), "--out", "denm"],
                                  tmp_path),
        "moments": _loaded(["moments", "--prices", str(prices), "--model", str(model_file),
                            "--out", "mom"], tmp_path),
        "report": _loaded(report, tmp_path),
    }
    # every jump model has closed forms, and the spline, the Nelder-Mead and
    # Merton's normal cdf are levycal's own; only a fan-out over several markets
    # starts worker processes
    for command, modules in loaded.items():
        assert modules == set(), command
    # the positive controls: the probe sees SciPy when something has imported it,
    # and the process pool of a two-market calibrate
    assert "scipy.special" in _loaded(report, tmp_path, "import scipy.special\n")
    other = tiny_simulate(tmp_path, model_file, "other")
    two = ["calibrate", "--market", str(market), str(other), "--epochs", "0", "--n-groups", "2",
           "--group-size", "100", "--out", "cal2"]
    assert "concurrent.futures.process" in _loaded(
        two, tmp_path, "import os; os.environ['ELNN_THREADS'] = '2'\n")


def test_exit_code_on_custom_table_overflow(tmp_path, capsys):
    # the e^{2x} moment of a table reaching x = 400 overflows a float
    path = tmp_path / "far.json"
    save_model(CustomModel(0.2, np.array([-1.0, 0.0, 400.0]), np.array([0.0, 1.0, 1.0])), path)
    code = main(["simulate", "--model", str(path), "--out", str(tmp_path / "far"),
                 "--days", "2", "--per-day", "10"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def _only_numerical_failure(stderr):
    return stderr.startswith("numerical failure:") and stderr.count("\n") == 1


def test_exit_code_on_divergence(tmp_path, model_file):
    market = tiny_simulate(tmp_path, model_file)
    out = tmp_path / "diverge"
    argv = ["calibrate", "--market", str(market), "--out", str(out),
            "--method", "elnn", "--epochs", "10", "--m-cutoff", "60",
            "--n-groups", "2", "--group-size", "200",
            "--learning-rate", "1e160"]
    # in a fresh process, where numpy's warnings would reach stderr
    proc = _fresh_python(["-m", "levycal.cli", *argv], tmp_path)
    assert proc.returncode == 3
    assert _only_numerical_failure(proc.stderr), proc.stderr


def test_exit_code_on_merton_moment_overflow(tmp_path):
    # the e^x and e^{2x} moments of delta = 40 jumps overflow a float
    path = tmp_path / "wide.json"
    save_model(MertonModel(sigma=0.2, lam=1.0, mu=-0.05, delta=40.0), path)
    proc = _fresh_python(["-m", "levycal.cli", "simulate", "--model", str(path),
                          "--out", "wide", "--days", "2", "--per-day", "10"], tmp_path)
    assert proc.returncode == 3
    assert _only_numerical_failure(proc.stderr), proc.stderr
