import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from levycal import (CustomModel, KouModel, MarketSlice, MertonModel, NoiseSpec, SpectralCurve,
                     SpectralGrid, TrainConfig, amplify, bucketed_errors, calibrate_parametric,
                     generate_virtual_market, parametric_char_shifted, run_elnn,
                     spectral_target, stability_summary, time_value_curve)
from levycal import calibrate
from levycal.calibrate import _BOXES, _DEFAULT_STARTS, _START_RANGES, PeriodEstimate
from levycal.errors import LengthMismatch
from levycal.levy_models import MODELS

import oracles

T, R = 0.05, 0.02


def noise_free_slice(model, grid, wmax):
    curve = SpectralCurve(grid.w, parametric_char_shifted(model, grid.w, T)).clip(wmax)
    return MarketSlice("clean", T, R, np.array([0.0]), np.array([0.0]), spectral=curve)


# --- buckets ----------------------------------------------------------------------


def bucket_of(coord, kind):
    """The bucket bucketed_errors puts `coord` in, or None when it is in none."""
    table = bucketed_errors([coord, coord], [0.0, 0.0], [0.0, 1.0], kind=kind)
    named = [name for name, value in table.items() if name != "sum" and value is not None]
    assert len(named) <= 1
    return named[0] if named else None


def test_bucket_boundaries():
    assert bucket_of(-0.05, "time_value") == "ATM"
    assert bucket_of(-0.050001, "time_value") == "ITM"
    assert bucket_of(0.03, "time_value") == "OTM"
    assert bucket_of(0.0299, "time_value") == "ATM"
    assert bucket_of(-25.0, "spectral") == "Mid"
    assert bucket_of(19.9, "spectral") == "Low"
    assert bucket_of(40.0, "spectral") == "High"
    assert bucket_of(60.0, "spectral") is None


def test_bucketed_zero_errors(rng):
    k = rng.uniform(-0.2, 0.2, 100)
    vals = rng.uniform(0, 0.02, 100)
    table = bucketed_errors(k, vals, vals)
    assert list(table) == ["ATM", "ITM", "OTM", "sum"]
    assert all(v == 0.0 for v in table.values())
    assert table["sum"] == 0.0


def test_bucketed_single_sample():
    table = bucketed_errors(np.array([0.0]), np.array([0.013]), np.array([0.01]))
    assert table["ATM"] == pytest.approx(1e4 * 0.003, rel=1e-12)
    assert table["ITM"] is None
    assert table["OTM"] is None
    assert table["sum"] == table["ATM"]


def test_bucketed_matches_hand_computation(rng):
    k = rng.uniform(-0.3, 0.3, 64)
    target = rng.uniform(0, 0.02, 64)
    pred = target + rng.normal(0, 1e-3, 64)
    table = bucketed_errors(k, pred, target)
    masks = {"ATM": (k >= -0.05) & (k < 0.03), "ITM": k < -0.05, "OTM": k >= 0.03}
    for name, mask in masks.items():
        want = 1e4 * math.sqrt(np.mean((pred[mask] - target[mask]) ** 2))
        assert table[name] == pytest.approx(want, abs=1e-12)
    assert table["sum"] == pytest.approx(sum(table[name] for name in masks), abs=1e-12)


def test_bucketed_permutation_invariant(rng):
    k = rng.uniform(-0.3, 0.3, 64)
    target = rng.uniform(0, 0.02, 64)
    pred = target + rng.normal(0, 1e-3, 64)
    perm = rng.permutation(64)
    t1 = bucketed_errors(k, pred, target)
    t2 = bucketed_errors(k[perm], pred[perm], target[perm])
    for name, value in t1.items():
        assert value == pytest.approx(t2[name], rel=1e-12)


def test_bucketed_spectral_scaling():
    w = np.array([5.0, 10.0, 25.0, 30.0, 50.0, 55.0, 70.0])
    target = np.array([1.0, 0.8, 0.55, 0.5, 0.2, 0.15, 0.05])
    pred = target + np.array([0.01, -0.01, 0.02, 0.01, 0.005, 0.004, 99.0])
    table = bucketed_errors(w, pred, target, kind="spectral")
    assert list(table) == ["Low", "Mid", "High", "sum"]
    for name, idx in [("Low", [0, 1]), ("Mid", [2, 3]), ("High", [4, 5])]:
        std = np.std(target[idx])
        want = 100.0 * math.sqrt(np.mean((pred[idx] - target[idx]) ** 2)) / std
        assert table[name] == pytest.approx(want, rel=1e-12)
    # the huge error at w=70 is outside every bucket, so totals stay finite
    assert table["sum"] < 100.0


def test_bucketed_spectral_single_point_bucket():
    # a one-sample bucket has zero target spread: entry reported as absent
    table = bucketed_errors(np.array([5.0]), np.array([1.2]), np.array([1.0]),
                            kind="spectral")
    assert table["Low"] is None


def test_bucketed_by_block_matches_whole_array_table(rng, monkeypatch):
    # block by block, from an array or a function of the coords, each bucket selects
    # what np.searchsorted selects and gives the whole-array table's floats
    def predict(c):
        return 0.01 + 0.1 * c * c - 0.02 * c

    k = np.concatenate([rng.uniform(-0.4, 0.4, 997), [-0.05, 0.03, -0.05, 0.03, -0.0]])
    w = np.concatenate([rng.uniform(-70.0, 70.0, 500), [-60.0, -40.0, -20.0, 20.0, 40.0, 60.0]])
    for coords, kind in ((rng.permutation(k), "time_value"), (rng.permutation(w), "spectral")):
        target = predict(coords) + rng.normal(0.0, 1e-3, coords.size)
        want = oracles.bucketed_errors_whole(coords, predict(coords), target, kind)
        for block in (16_384, 64, 1):
            monkeypatch.setattr(calibrate, "_BLOCK", block)
            assert bucketed_errors(coords, predict(coords), target, kind) == want, block
            assert bucketed_errors(coords, predict, target, kind) == want, block


def test_bucketed_errors_hold_one_bucket_and_its_mask(merton_model):
    # a pool of 10^6 quotes read through the spline: beyond the largest bucket's squared
    # errors and its membership mask, only temporaries of a few blocks are held.  Reading
    # a bucket whole would hold its strikes, its predictions and the spline's terms
    grid = SpectralGrid(2**14, 0.05)
    _, z_nodes = time_value_curve(merton_model.triplet(), T, R, grid)
    spline = calibrate.spline_on_grid(grid, z_nodes)
    rng = np.random.default_rng(3)
    k = rng.uniform(-0.5, 0.5, 10**6)
    z = spline(k) + rng.normal(0.0, 1e-4, k.size)
    largest = max(np.count_nonzero((k >= lo) & (k < hi))
                  for lo, hi in calibrate.K_BUCKETS.values())
    tracemalloc.start()
    try:
        bucketed_errors(k, spline, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowance = 16 * calibrate._BLOCK * 8  # sixteen blocks of floats, whatever the pool
    assert peak < 8 * largest + k.size + allowance, peak


def test_report_reads_the_spline_by_bucket(merton_model, monkeypatch):
    grid = SpectralGrid(n=2**12, dw=0.2)
    market = oracles.pool_days(generate_virtual_market(merton_model, 8, 100, T, R,
                                                       noise=NoiseSpec(scale=0.05, seed=3),
                                                       grid=grid))
    pooled = calibrate.pooled_slice(market, grid, 60.0, 2, 500, 0)
    phi = parametric_char_shifted(merton_model, grid.w, T)
    z_model = calibrate.time_values_from_phi(phi, R, T, grid)
    want = oracles.bucketed_errors_whole(
        pooled.k, calibrate.spline_on_grid(grid, z_model)(pooled.k), pooled.z)
    for block in (16_384, 100):
        monkeypatch.setattr(calibrate, "_BLOCK", block)
        report = calibrate.evaluate_report(merton_model, pooled, grid, 1.0)
        assert report["z_rmse"] == want


@pytest.mark.parametrize("kind", ["elnn", "elnn-0-epochs", "merton", "kou", "custom"])
def test_every_fit_reports_through_one_path(kind, merton_model, kou_model):
    # evaluate_report reads the label, sigma, lambda and Phi(w - i) off any fitted law;
    # each kind's report equals the one its own path made, key by key and bit for bit
    grid = SpectralGrid(n=2**12, dw=0.2)
    market = oracles.pool_days(generate_virtual_market(kou_model, 8, 100, T, R,
                                                       noise=NoiseSpec(scale=0.05, seed=3),
                                                       grid=grid))
    pooled = calibrate.pooled_slice(market, grid, 60.0, 2, 500, 0)
    if kind.startswith("elnn"):
        cfg = TrainConfig(m_cutoff=60.0, epochs=0 if kind.endswith("epochs") else 40, seed=5)
        fit, final_loss, losses = run_elnn(pooled, cfg)
        assert final_loss == (losses[-1] if cfg.epochs else None)
        want = oracles.elnn_report(fit, losses, pooled, grid)
    else:
        fit = {"merton": merton_model, "kou": kou_model,
               "custom": CustomModel(0.2, [-0.5, -0.05, 0.4], [0.0, 2.0, 0.0])}[kind]
        final_loss = 1.25
        want = oracles.parametric_report(fit, pooled, final_loss, grid)
    report = calibrate.evaluate_report(fit, pooled, grid, final_loss)
    assert list(report) == list(want)
    for key in want:  # repr tells every float apart, -0.0 from 0.0 too
        assert repr(report[key]) == repr(want[key]), key
    assert report["label"] == kind.split("-")[0]


def test_bucketed_length_mismatch():
    with pytest.raises(LengthMismatch):
        bucketed_errors(np.zeros(3), np.zeros(2), np.zeros(3))


# --- parametric calibration --------------------------------------------------------


@pytest.fixture(scope="module")
def grid_cal():
    return SpectralGrid()


def test_merton_self_calibration(grid_cal):
    truth = MertonModel(sigma=0.2, lam=1.0, mu=-0.05, delta=0.05)
    slc = noise_free_slice(truth, grid_cal, 400.0)
    fitted, loss = calibrate_parametric("merton", slc, budget=20_000, seed=1)
    assert loss < 1e-8
    assert fitted.sigma == pytest.approx(0.2, rel=0.02)
    assert fitted.lam == pytest.approx(1.0, rel=0.02)
    assert fitted.mu == pytest.approx(-0.05, rel=0.02)
    assert fitted.delta == pytest.approx(0.05, rel=0.02)


def test_kou_self_calibration(grid_cal):
    truth = KouModel(sigma=0.21, lam=1.4, p=0.04, lam_plus=3.7, lam_minus=1.8)
    slc = noise_free_slice(truth, grid_cal, 220.0)
    fitted, loss = calibrate_parametric("kou", slc, seed=1, budget=20_000)
    assert fitted.sigma == pytest.approx(0.21, rel=0.05)
    assert fitted.lam == pytest.approx(1.4, rel=0.05)
    assert fitted.p == pytest.approx(0.04, rel=0.05)
    assert fitted.lam_plus == pytest.approx(3.7, rel=0.05)
    assert fitted.lam_minus == pytest.approx(1.8, rel=0.05)
    # a fit holds Python floats, as the model read back from its params file does, so
    # both have the same drift bit for bit
    for name in ("sigma", "lam", "p", "lam_plus", "lam_minus"):
        assert type(getattr(fitted, name)) is float, name


def test_unknown_family(grid_cal):
    with pytest.raises(ValueError):
        calibrate_parametric("heston", noise_free_slice(
            MertonModel(0.2, 1.0, -0.05, 0.05), grid_cal, 400.0), budget=1)


def test_budget_caps_loss_evaluations(monkeypatch):
    w = SpectralGrid(n=256, dw=0.5).w
    rng = np.random.default_rng(3)
    target = (parametric_char_shifted(MertonModel(0.2, 1.0, -0.05, 0.05), w, T)
              + 0.01 * (rng.normal(size=w.size) + 1j * rng.normal(size=w.size)))
    slc = MarketSlice("noisy", T, R, np.array([0.0]), np.array([0.0]),
                      spectral=SpectralCurve(w, target))
    calls = []

    # every evaluation inside the box calls Phi once, and only evaluations do
    def counted(*args):
        calls.append(args)
        return parametric_char_shifted(*args)

    monkeypatch.setattr(calibrate, "parametric_char_shifted", counted)
    for budget in (1, 4, 5, 100, 1000):
        calls.clear()
        fitted, loss = calibrate_parametric("merton", slc, budget=budget, seed=2)
        assert 1 <= len(calls) <= budget, (budget, len(calls))
        if budget == 1:  # only the default start is served, and it does not move
            start = _DEFAULT_STARTS["merton"].tolist()
            assert [fitted.sigma, fitted.lam, fitted.mu, fitted.delta] == start
            assert loss == oracles.parametric_loss(MertonModel(*start), slc.spectral.fold(), T)


def assert_nelder_mead_matches_scipy(f, x0, maxfev):
    """_nelder_mead against its oracle, SciPy's Nelder-Mead with the same tolerances."""
    from scipy.optimize import minimize

    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    x, fun = calibrate._nelder_mead(counted, x0, maxfev)
    want = minimize(f, x0, method="Nelder-Mead",
                    options={"maxfev": maxfev, "xatol": 1e-8, "fatol": 1e-12})
    np.testing.assert_array_equal(x, want.x)
    assert fun == want.fun
    assert len(calls) == want.nfev


@pytest.mark.parametrize("noise", [0.0, 0.01, 0.1])
@pytest.mark.parametrize("family, truth", [
    ("merton", MertonModel(0.2, 1.0, -0.05, 0.05)),
    ("kou", KouModel(0.21, 1.4, 0.04, 3.7, 1.8))])
def test_nelder_mead_matches_scipy(family, truth, noise):
    w = SpectralGrid(n=64, dw=1.0).w
    rng = np.random.default_rng(3)
    target = (parametric_char_shifted(truth, w, T)
              + noise * (rng.normal(size=w.size) + 1j * rng.normal(size=w.size)))
    slc = MarketSlice("noisy", T, R, np.array([0.0]), np.array([0.0]),
                      spectral=SpectralCurve(w, target))
    loss = calibrate._box_loss(family, slc)
    starts = [_DEFAULT_STARTS[family]] + [
        np.array([rng.uniform(lo, hi) for lo, hi in _START_RANGES[family]]) for _ in range(2)]
    # sigma 1.99 steps to 2.09, outside the box (an infinite loss), and lambda 0
    # takes the step for a zero coordinate
    edge = _DEFAULT_STARTS[family].copy()
    edge[:2] = 1.99, 0.0
    assert loss(np.r_[1.05 * 1.99, edge[1:]]) == math.inf
    n = len(edge)
    # maxfev n + 1 is exactly the initial simplex
    for x0 in starts + [edge]:
        for maxfev in (1, n, n + 1, n + 2, 40, 200, 1200):
            assert_nelder_mead_matches_scipy(loss, x0, maxfev)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), maxfev=st.integers(1, 300))
def test_nelder_mead_matches_scipy_on_a_quadratic(data, n, maxfev):
    # x0 may hold zeros, which take SciPy's 0.00025 step; rounding the loss to two
    # decimals gives it plateaus, where contractions fail and the simplex shrinks,
    # so some runs stop mid-shrink
    coord = st.floats(-3.0, 3.0)
    x0 = np.array(data.draw(st.lists(st.one_of(st.just(0.0), coord), min_size=n, max_size=n)))
    centre = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)))
    assert_nelder_mead_matches_scipy(lambda x: round(float(np.sum((x - centre) ** 2)), 2),
                                     x0, maxfev)


def test_nelder_mead_matches_scipy_when_cut_mid_shrink():
    # a call that returns -1, as a noisy loss might, can make a shrunk vertex the
    # best just before the evaluations run out; only the last sort puts it first
    from scipy.optimize import minimize

    def lucky_on_call(lucky):
        calls = itertools.count(1)
        return lambda x: -1.0 if next(calls) == lucky else round(float(np.sum(x ** 2)), 1)

    x0 = np.array([3.0, 0.0])
    for lucky in range(1, 40):
        x, fun = calibrate._nelder_mead(lucky_on_call(lucky), x0, lucky)
        want = minimize(lucky_on_call(lucky), x0, method="Nelder-Mead",
                        options={"maxfev": lucky, "xatol": 1e-8, "fatol": 1e-12})
        np.testing.assert_array_equal(x, want.x)
        assert fun == want.fun


@st.composite
def models_in_start_ranges(draw):
    family = draw(st.sampled_from(sorted(_START_RANGES)))
    values = [draw(st.floats(lo, hi)) for lo, hi in _START_RANGES[family]]
    return {"merton": MertonModel, "kou": KouModel}[family](*values)


@settings(max_examples=100, deadline=None)
@given(model=models_in_start_ranges(), n_pairs=st.integers(1, 300),
       dw=st.floats(0.05, 2.0), noise=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
# a near-perfect fit, where rel=1e-12 alone failed at a relative difference of 1.01e-12
@example(model=MertonModel(0.21875, 0.5, 0.0, 0.03125), n_pairs=1, dw=1.0, noise=5.96e-8, seed=2)
def test_folded_parametric_loss_matches_full_grid(model, n_pairs, dw, noise, seed):
    # the fold drops only the target's antisymmetric part, a constant: adding it
    # back gives the full-grid trapezoid loss against the noisy target
    w = (np.arange(2 * n_pairs) - n_pairs + 0.5) * dw
    rng = np.random.default_rng(seed)
    target = (parametric_char_shifted(MertonModel(0.2, 1.0, -0.05, 0.05), w, T)
              + noise * (rng.normal(size=w.size) + 1j * rng.normal(size=w.size)))
    curve = SpectralCurve(w, target)
    anti = 0.5 * (target - np.conj(target[::-1]))
    constant = oracles.full_grid_spectral_loss(anti, w, 0.0)
    phi = parametric_char_shifted(model, w, T)
    want = oracles.full_grid_spectral_loss(phi, w, target)
    got = calibrate._parametric_loss(curve.fold(), T)(model) + constant
    # Phi - target is rounded in ulps of |Phi| + |target|, not of the difference, so
    # near a perfect fit the loss holds only to about eps sqrt(loss sum wts (|Phi| + |target|)^2)
    scale = oracles.full_grid_spectral_loss(np.abs(phi) + np.abs(target), w, 0.0)
    rounding = 8 * np.finfo(float).eps * math.sqrt(want * scale)
    assert got == pytest.approx(want, rel=1e-12, abs=rounding)


# --- the loss skips the nodes where a model cannot move it --------------------------


@st.composite
def models_in_the_box(draw, families=("merton", "kou")):
    """A model drawn from anywhere in its family's box; a custom one from a random table."""
    family = draw(st.sampled_from(families))
    if family == "custom":
        n = draw(st.integers(2, 8))
        x = draw(st.floats(-3.0, 0.0)) + np.cumsum(
            [0.0] + draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
        dvdx = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
        return CustomModel(draw(st.floats(*_BOXES["merton"][0])), x, np.array(dvdx))
    return MODELS[family](*[draw(st.floats(lo, hi)) for lo, hi in _BOXES[family]])


def signed(magnitudes):
    return st.builds(lambda m, s: s * m, magnitudes, st.sampled_from([1.0, -1.0]))


# target parts where the floor is special: zeros, exact powers of two (whose spacing
# below is half the spacing above) and subnormals (whose floors count as 0)
SPECIAL_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    signed(st.integers(-1074, 10).map(lambda e: math.ldexp(1.0, e))),
    signed(st.integers(1, 2**52 - 1).map(lambda m: m * 5e-324)))


def loss_and_cut(model, folded, T):
    """The skipping loss and the number of nodes it evaluated Phi on, in its one call."""
    lengths = []

    def counted(model, w, T):
        lengths.append(len(w))
        return parametric_char_shifted(model, w, T)

    with mock.patch.object(calibrate, "parametric_char_shifted", counted):
        loss = calibrate._parametric_loss(folded, T)(model)
    assert len(lengths) == 1
    return loss, lengths[0]


@settings(max_examples=300, deadline=None)
@given(model=models_in_the_box(), truth=models_in_the_box(), T=st.floats(0.01, 1.0),
       n=st.integers(1, 300), w0=st.floats(0.01, 60.0), dw=st.floats(0.01, 5.0),
       noise=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_skipping_loss_equals_the_plain_loss(model, truth, T, n, w0, dw, noise, seed, data):
    # a grid that starts far out cuts at 0 for a large sigma, and one that stays
    # near w = 0 cuts past its end for a small one
    w = w0 + dw * np.arange(n)
    rng = np.random.default_rng(seed)
    target = (parametric_char_shifted(truth, w, T)
              + noise * (rng.normal(size=n) + 1j * rng.normal(size=n)))
    tr, ti = target.real.copy(), target.imag.copy()
    if data.draw(st.booleans()):
        # a pure diffusion reaches the bound, |Phi(w - i)| = e^{-T sigma^2 w^2 / 2}.  Target
        # parts that are powers of two of Phi's signs, with floors 2^(k - 55) within a
        # factor 8 of e times the bound, or zeros, put every node near the skip's edge,
        # where a larger floor would round otherwise: the spacing below a power of two
        # is half the spacing above, and Phi^2 must underflow where the target is 0
        model = dataclasses.replace(model, lam=0.0)
        phi = parametric_char_shifted(model, w, T)
        k = (np.ceil((1.0 - 0.5 * T * model.sigma ** 2 * w ** 2) / math.log(2.0)) + 55
             + rng.integers(-3, 3, n))
        edge = (k >= -945) & (k <= 1000)
        power = np.ldexp(1.0, np.clip(k, -945, 1000).astype(int))
        tr, ti = (np.where(edge, np.where(rng.random(n) < 0.25, 0.0, np.copysign(power, part)),
                           target_part)
                  for part, target_part in ((phi.real, tr), (phi.imag, ti)))
    for node, imag, value in data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.booleans(), SPECIAL_PARTS), max_size=n)):
        (ti if imag else tr)[node] = value
    wts = np.full(n, dw)
    loss, cut = loss_and_cut(model, (w, wts, tr, ti), T)
    event("cut at 0" if cut == 0 else "cut past the end" if cut == n else "cut mid-way")
    terms = oracles.parametric_loss_terms(model, (w, wts, tr, ti), T)
    assert loss == float(np.sum(terms))
    # each skipped term on its own, as the sum can hide a last-bit change in a small one
    np.testing.assert_array_equal(terms[cut:], (wts * ((0.0 - tr) ** 2 + (0.0 - ti) ** 2))[cut:])


@pytest.mark.parametrize("family, sigma, w0, maturity, where", [
    ("merton", 2.0, 50.0, 1.0, "start"), ("kou", 0.21, 0.25, T, "middle"),
    ("merton", 1e-4, 0.25, T, "end"), ("merton", 2.0, 0.25, T, "descending")])
def test_skipping_loss_cuts_where_the_bound_meets_the_floor(family, sigma, w0, maturity, where):
    # the benchmark's folded grid (dw 0.5, |w| <= 400) against a noisy target; the
    # bound falls along w only on ascending nodes, so descending ones skip none
    w = w0 + 0.5 * np.arange(800)
    if where == "descending":
        w = w[::-1]
    rng = np.random.default_rng(5)
    target = (parametric_char_shifted(KouModel(0.21, 1.4, 0.04, 3.7, 1.8), w, maturity)
              + 0.05 * (rng.normal(size=w.size) + 1j * rng.normal(size=w.size)))
    folded = (w, np.full(w.size, 0.5), target.real, target.imag)
    model = MODELS[family](sigma, *_DEFAULT_STARTS[family].tolist()[1:])
    loss, cut = loss_and_cut(model, folded, maturity)
    assert {"start": cut == 0, "middle": 0 < cut < w.size}.get(where, cut == w.size)
    assert loss == oracles.parametric_loss(model, folded, maturity)


@pytest.mark.parametrize("part", [0.0, -0.0, 1.0, -1.0, 0.75, -2.0 ** -400])
def test_skipping_loss_is_exact_at_the_floor(part):
    # a pure diffusion reaches the bound, |Phi(w - i)| = e^{-T sigma^2 w^2 / 2}, and its
    # phase turns by more than 2 pi across a fine grid around the node where e times
    # the bound meets the floor of a constant target, so some nodes past the cut hold
    # Phi at nearly the bound with either sign
    model, maturity = MertonModel(2.0, 0.0, 0.0, 1.0), 1.0
    floor = calibrate._ZERO_FLOOR if part == 0.0 else np.spacing(abs(part)) / 8
    w_edge = math.sqrt(2.0 * (1.0 - math.log(floor)) / (maturity * model.sigma ** 2))
    w = w_edge + np.linspace(-2.0, 2.0, 4001)
    tr = ti = np.full(w.size, part)
    wts = np.full(w.size, 0.001)
    loss, cut = loss_and_cut(model, (w, wts, tr, ti), maturity)
    assert 0 < cut < w.size
    terms = oracles.parametric_loss_terms(model, (w, wts, tr, ti), maturity)
    assert loss == float(np.sum(terms))
    np.testing.assert_array_equal(terms[cut:], (wts * ((0.0 - tr) ** 2 + (0.0 - ti) ** 2))[cut:])


@settings(max_examples=300, deadline=None)
@given(model=models_in_the_box(("merton", "kou", "custom")), T=st.floats(0.01, 1.0),
       w=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=50))
def test_shifted_char_fn_within_the_skip_bound(model, T, w):
    # |Phi(w - i)| <= e^{-T sigma^2 w^2 / 2} wherever that bound is above 2^-1000; the
    # skip keeps a margin of e over it, far above the rounding allowed here
    w = np.array(w)
    log_bound = -0.5 * T * model.sigma ** 2 * w ** 2
    keep = log_bound > -1000.0 * math.log(2.0)
    phi = parametric_char_shifted(model, w, T)[keep]
    assert np.all(np.abs(phi) <= np.exp(log_bound[keep] + 1e-9))


# --- stability summary ---------------------------------------------------------------


def test_stability_identical_periods():
    entries = [PeriodEstimate(str(y), 0.2, 1.0) for y in range(3)]
    summary = stability_summary(entries)
    assert summary.sigma_cv == pytest.approx(0.0, abs=1e-14)
    assert summary.lam_cv == pytest.approx(0.0, abs=1e-14)


def test_stability_cv_value():
    entries = [PeriodEstimate("a", 0.2, 1.0), PeriodEstimate("b", 0.2, 1.2)]
    summary = stability_summary(entries)
    assert summary.lam_cv == pytest.approx(0.1 / 1.1, rel=1e-12)


def test_stability_needs_two_periods():
    with pytest.raises(ValueError):
        stability_summary([PeriodEstimate("a", 0.2, 1.0)])


# --- driver -----------------------------------------------------------------------


def test_run_elnn_smoke_and_determinism(merton_model):
    grid = SpectralGrid(n=2**12, dw=0.2)
    market = oracles.pool_days(generate_virtual_market(merton_model, 20, 100, T, R,
                                                       noise=NoiseSpec(scale=0.05, seed=11),
                                                       grid=grid))
    cfg = TrainConfig(m_cutoff=60.0, epochs=60, seed=2)
    runs = []
    for _ in range(2):
        pooled = calibrate.pooled_slice(market, grid, cfg.m_cutoff, 10, 1000, cfg.seed)
        params, final_loss, losses = run_elnn(pooled, cfg)
        runs.append((params, losses, calibrate.evaluate_report(params, pooled, grid, final_loss)))
    (params1, losses1, report1), (params2, losses2, report2) = runs
    assert params1.s == params2.s
    np.testing.assert_array_equal(params1.wr0, params2.wr0)
    np.testing.assert_array_equal(losses1, losses2)
    assert report1 == report2
    assert report1["sigma"] == params1.sigma
    assert report1["final_loss"] == losses1[-1]
    assert losses1.size == 60
    assert all(v is not None for v in report1["z_rmse"].values())


def test_spectral_target_averages_groups(merton_model):
    grid = SpectralGrid(n=2**12, dw=0.2)
    market = oracles.pool_days(generate_virtual_market(merton_model, 10, 200, T, R,
                                                       noise=NoiseSpec(scale=0.0, seed=1),
                                                       grid=grid))
    target = spectral_target(amplify(market, n_groups=4, group_size=500, seed=3), grid)
    truth = merton_model.triplet().phi_shifted(grid.w, T)
    mask = np.abs(grid.w) <= 30
    assert np.max(np.abs(target.values - truth)[mask]) < 0.02


def test_spectral_target_matches_per_group_reference(merton_model):
    grid = SpectralGrid(n=2**12, dw=0.2)
    market = oracles.pool_days(generate_virtual_market(merton_model, 10, 200, T, R,
                                                       noise=NoiseSpec(scale=0.05, seed=4),
                                                       grid=grid))
    target = spectral_target(amplify(market, n_groups=8, group_size=500, seed=5), grid)
    want = oracles.spectral_target_per_group(market, grid, 8, 500, seed=5)
    np.testing.assert_array_equal(target.w, grid.w)
    assert np.max(np.abs(target.values - want)) <= 1e-9 * np.max(np.abs(want))


def test_spectral_target_memory_does_not_grow_with_groups(merton_model):
    # amplify draws the groups one at a time, so the peak of the traced heap holds
    # one group however many are averaged; all 64 groups at once would add 5 MB
    grid = SpectralGrid(n=2**12, dw=0.2)
    market = oracles.pool_days(generate_virtual_market(merton_model, 10, 200, T, R,
                                                       noise=NoiseSpec(scale=0.05, seed=4),
                                                       grid=grid))
    spectral_target(amplify(market, n_groups=2, group_size=5000, seed=5), grid)  # warm-up
    peaks = {}
    for n_groups in (4, 64):
        tracemalloc.start()
        try:
            spectral_target(amplify(market, n_groups=n_groups, group_size=5000, seed=5), grid)
            peaks[n_groups] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 1.1 * peaks[4]
