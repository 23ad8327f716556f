import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levycal import (KouModel, MarketSlice, MertonModel, NoiseSpec, SpectralCurve,
                     SpectralGrid, TrainConfig, bucketed_errors, calibrate_parametric,
                     generate_virtual_market, parametric_char_shifted, run_elnn,
                     spectral_target, stability_summary)
from levycal.calibrate import _START_RANGES, PeriodEstimate, _parametric_loss
from levycal.errors import LengthMismatch

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
    fitted, loss = calibrate_parametric("merton", slc, seed=1)
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
            MertonModel(0.2, 1.0, -0.05, 0.05), grid_cal, 400.0))


@st.composite
def models_in_start_ranges(draw):
    family = draw(st.sampled_from(sorted(_START_RANGES)))
    values = [draw(st.floats(lo, hi)) for lo, hi in _START_RANGES[family]]
    return {"merton": MertonModel, "kou": KouModel}[family](*values)


@settings(max_examples=100, deadline=None)
@given(model=models_in_start_ranges(), n_pairs=st.integers(1, 300),
       dw=st.floats(0.05, 2.0), noise=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
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
    want = oracles.full_grid_spectral_loss(parametric_char_shifted(model, w, T), w, target)
    got = _parametric_loss(model, curve.fold(), T) + constant
    assert got == pytest.approx(want, rel=1e-12, abs=0)


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
    slices = generate_virtual_market(merton_model, 20, 100, T, R,
                                     noise=NoiseSpec(scale=0.05, seed=11), grid=grid)
    cfg = TrainConfig(m_cutoff=60.0, epochs=60, seed=2)
    params1, losses1, report1 = run_elnn(slices, cfg, grid=grid, n_groups=10, group_size=1000)
    params2, losses2, report2 = run_elnn(slices, cfg, grid=grid, n_groups=10, group_size=1000)
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
    slices = generate_virtual_market(merton_model, 10, 200, T, R,
                                     noise=NoiseSpec(scale=0.0, seed=1), grid=grid)
    target = spectral_target(slices, grid, n_groups=4, group_size=500, seed=3)
    from levycal import char_fn
    truth = char_fn(grid.w - 1j, merton_model.triplet(), T)
    mask = np.abs(grid.w) <= 30
    assert np.max(np.abs(target.values - truth)[mask]) < 0.02


def test_spectral_target_matches_per_group_reference(merton_model):
    grid = SpectralGrid(n=2**12, dw=0.2)
    slices = generate_virtual_market(merton_model, 10, 200, T, R,
                                     noise=NoiseSpec(scale=0.05, seed=4), grid=grid)
    target = spectral_target(slices, grid, n_groups=8, group_size=500, seed=5)
    want = oracles.spectral_target_per_group(slices, grid, 8, 500, seed=5)
    np.testing.assert_array_equal(target.w, grid.w)
    assert np.max(np.abs(target.values - want)) <= 1e-9 * np.max(np.abs(want))
