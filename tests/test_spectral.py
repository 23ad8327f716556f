import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from levycal import (CustomModel, ElnnParams, MertonModel, SpectralCurve, SpectralGrid,
                     phi_from_time_values, regrid_time_values, spectral, time_value_curve,
                     time_values_from_phi)
from levycal.errors import InsufficientSupport, LengthMismatch, ResidueTooLarge
from levycal.levy_models import _char_in_strip
from levycal.spectral import _BLOCK, inverse_real, spline_on_grid

import oracles
from oracles import call_price, plancherel_gap, zeta

T, R = 0.05, 0.02

# frozen from the forward-transform quadrature of the Poisson-mixture z oracle
ZETA_AT_5 = 0.0010989397746039083 - 9.556281257956025e-06j


def test_grid_nyquist_relation(default_grid):
    g = default_grid
    assert g.dk * g.dw * g.n == pytest.approx(2 * math.pi, rel=1e-12)
    assert not np.any(g.w == 0.0)
    np.testing.assert_allclose(g.w, -g.w[::-1], atol=0)
    assert g.k[g.n // 2] == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(n=1000)  # not a power of two
    with pytest.raises(ValueError):
        SpectralGrid(dw=0.0)


def test_zeta_degenerate_phi_is_zero():
    w = np.array([0.5, 2.0, -3.0])
    np.testing.assert_array_equal(zeta(w, np.ones(3, dtype=complex), R, T), np.zeros(3))


def test_zeta_near_zero_bounded(merton_triplet, default_grid):
    w_min = default_grid.w[np.argmin(np.abs(default_grid.w))]
    phi = merton_triplet.phi_shifted(np.array([w_min]), T)
    val = zeta(np.array([w_min]), phi, R, T)[0]
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) < 1.0


def test_zeta_rejects_zero_frequency():
    with pytest.raises(ValueError, match="w = 0"):
        zeta(np.array([0.0]), np.array([1.0 + 0j]), R, T)


def test_zeta_against_transform_oracle(merton_triplet):
    phi = merton_triplet.phi_shifted(np.array([5.0]), T)
    val = zeta(np.array([5.0]), phi, R, T)[0]
    assert val == pytest.approx(ZETA_AT_5, abs=1e-9)


def test_call_price_arithmetic():
    assert call_price(0.0, 0.0, 0.02, T) == pytest.approx(1 - math.exp(-0.001), abs=1e-12)
    assert call_price(1.0, 0.01, 0.02, T) == pytest.approx(0.01, abs=1e-15)
    assert call_price(0.0, -0.5, 0.02, T) == 0.0  # floored


def test_call_price_monte_carlo(merton_model, merton_triplet, default_grid):
    k_nodes, z = time_value_curve(merton_triplet, T, R, default_grid)
    idx = np.argmin(np.abs(k_nodes - 0.05))
    fft_price = call_price(k_nodes[idx], z[idx], R, T)
    mc, se = oracles.mc_call_price(merton_model, k_nodes[idx], T, R)
    assert abs(fft_price - mc) < 3 * se


def test_time_value_deep_tails(merton_triplet, default_grid):
    k, z = time_value_curve(merton_triplet, T, R, default_grid)
    for k_test in (4.0, -4.0):
        idx = np.argmin(np.abs(k - k_test))
        assert abs(z[idx]) < 1e-5


def test_time_value_atm_matches_black_scholes(default_grid):
    diffusion = MertonModel(sigma=0.2, lam=1e-14, mu=-0.05, delta=0.05)
    k, z = time_value_curve(diffusion.triplet(), T, R, default_grid)
    i0 = np.argmin(np.abs(k))
    z_bs = oracles.bs_call(0.0, 0.2, T, R) - (1 - math.exp(-R * T))
    assert z[i0] == pytest.approx(z_bs, abs=1e-5)


def test_time_value_vs_series_oracle(merton_model, merton_triplet, default_grid):
    k, z = time_value_curve(merton_triplet, T, R, default_grid)
    sel = np.abs(k) <= 0.5
    np.testing.assert_allclose(z[sel], oracles.merton_series_z(k[sel], merton_model, T, R),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("grid", [SpectralGrid(2**10, 0.1), SpectralGrid(2**14, 0.05)],
                         ids=["2^10", "2^14"])
def test_time_value_curve_prices_every_fitted_law(merton_model, kou_model, grid):
    # every fitted law, jump model or network, prices through its phi_shifted(w, T); a
    # jump model's curve keeps the floats of Phi at the complex array w - i
    for t, r in ((T, R), (0.25, 0.0)):
        for model in (merton_model, kou_model, _custom_model()):
            k, z = time_value_curve(model.triplet(), t, r, grid)
            want = time_values_from_phi(_char_in_strip(grid.w - 1j, model, t), r, t, grid)
            assert k.tobytes() == grid.k.tobytes() and z.tobytes() == want.tobytes()
        params = ElnnParams.init_random(20, 0)
        _, z = time_value_curve(params, t, r, grid)
        want = time_values_from_phi(params.phi_shifted(grid.w, t), r, t, grid)
        assert z.tobytes() == want.tobytes()


def test_time_value_nonnegative(merton_triplet, kou_triplet, default_grid):
    for trip in (merton_triplet, kou_triplet):
        _, z = time_value_curve(trip, T, R, default_grid)
        assert z.min() >= -1e-6


def test_residue_check_fires(default_grid):
    # an asymmetric spectrum cannot come from a real z curve
    phi = np.ones(default_grid.n, dtype=complex)
    phi[: default_grid.n // 2] += 0.3j
    with pytest.raises(ResidueTooLarge):
        time_values_from_phi(phi, R, T, default_grid)


def test_inverse_real_rejects_a_nan_residue():
    # NaN > limit is False, so only "not residue <= limit" catches a NaN residue
    grid = SpectralGrid(64, 0.5)
    values = np.ones(grid.n, dtype=complex)
    values[5] = np.nan
    with pytest.raises(ResidueTooLarge):
        inverse_real(grid, values)


def test_roundtrip_merton(merton_triplet, default_grid):
    k, z = time_value_curve(merton_triplet, T, R, default_grid)
    curve = phi_from_time_values(z, R, T, default_grid)
    truth = merton_triplet.phi_shifted(curve.w, T)
    mask = np.abs(curve.w) <= 100.0
    assert np.max(np.abs(curve.values[mask] - truth[mask])) < 1e-3


def test_roundtrip_kou(kou_triplet, default_grid):
    k, z = time_value_curve(kou_triplet, T, R, default_grid)
    curve = phi_from_time_values(z, R, T, default_grid)
    truth = kou_triplet.phi_shifted(curve.w, T)
    mask = np.abs(curve.w) <= 55.0
    assert np.max(np.abs(curve.values[mask] - truth[mask])) < 1e-3


def test_phi_from_zero_time_values(default_grid):
    # the dealiasing carrier's spurious kink term stays below its alias bound
    curve = phi_from_time_values(np.zeros(default_grid.n), R, T, default_grid)
    mask = np.abs(curve.w) <= 55.0
    assert np.max(np.abs(curve.values[mask] - 1.0)) < 0.01


def test_phi_conjugate_symmetry(merton_triplet, default_grid):
    # floating symmetry is limited by phase-argument rounding amplified by w^2
    _, z = time_value_curve(merton_triplet, T, R, default_grid)
    curve = phi_from_time_values(z, R, T, default_grid)
    np.testing.assert_allclose(curve.values[::-1], np.conj(curve.values), atol=1e-6)


@st.composite
def curves_and_convex_weights(draw, n):
    m = draw(st.integers(1, 5))
    z = draw(arrays(np.float64, (m, n), elements=st.floats(-1.0, 1.0)))
    raw = draw(arrays(np.float64, m, elements=st.floats(0.0, 1.0)).filter(lambda v: v.sum() > 0))
    return z, raw / raw.sum()


@settings(max_examples=60, deadline=None)
@given(curves_and_convex_weights(64))
def test_transform_of_weighted_mean_is_weighted_mean_of_transforms(case):
    # phi_from_time_values is affine in z, which lets spectral_target transform
    # the averaged group curve once
    z, wts = case
    grid = SpectralGrid(n=64, dw=0.5)
    each = [phi_from_time_values(zi, R, T, grid).values for zi in z]
    of_mean = phi_from_time_values(wts @ z, R, T, grid).values
    mean_of = sum(c * v for c, v in zip(wts, each))
    scale = 1.0 + max(np.max(np.abs(v)) for v in each)
    assert np.max(np.abs(of_mean - mean_of)) <= 1e-12 * scale


def test_length_mismatch(default_grid):
    with pytest.raises(LengthMismatch):
        phi_from_time_values(np.zeros(10), R, T, default_grid)


def test_regrid_identity(small_grid):
    # amplitudes under 1e-4 sit below any meaningful time-value region, so the
    # support check stays quiet for synthetic data
    idx = np.arange(200, 260)
    k = small_grid.k[idx]
    z = 9e-5 * np.exp(-np.arange(60) / 10.0)
    out = regrid_time_values(k, z, small_grid)
    np.testing.assert_allclose(out[idx], z, atol=1e-18)
    assert out[idx[0] - 1] == 0.0 and out[idx[-1] + 1] == 0.0


def test_regrid_bin_mean(small_grid):
    node = small_grid.k[300]
    k = np.array([node - 0.2 * small_grid.dk, node + 0.2 * small_grid.dk,
                  small_grid.k[310]])
    z = np.array([1e-5, 3e-5, 5e-5])
    out = regrid_time_values(k, z, small_grid)
    assert out[300] == pytest.approx(2e-5, abs=1e-18)  # mean of the bin's two samples
    assert out[310] == pytest.approx(5e-5, abs=1e-18)


def test_regrid_interpolates_interior_holes(small_grid):
    idx = np.array([300, 302, 304])
    out = regrid_time_values(small_grid.k[idx], np.array([1e-5, 2e-5, 5e-5]), small_grid)
    assert out[301] == pytest.approx(1.5e-5, rel=1e-12)
    assert out[303] == pytest.approx(3.5e-5, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(power=st.integers(2, 18), dw=st.floats(1e-3, 10.0))
def test_regrid_bins_from_the_grid_first_k_node(power, dw):
    # regrid_time_values places its bin edges from the first k node without building
    # grid.k; samples on the edges, where a one-ulp shift moves a sample to the next
    # bin, land where grid.k[0] puts them
    grid = SpectralGrid(2**power, dw)
    assert (0 - grid.n / 2) * grid.dk == grid.k[0]
    edge = grid.k[0] - 0.5 * grid.dk
    j = np.arange(1, min(grid.n, 33))
    k = edge + j * grid.dk
    z = 1e-6 * (1.0 + j / 64.0)  # distinct, and small enough to pass the support check
    idx = np.floor((k - edge) / grid.dk).astype(int)
    counts = np.bincount(idx, minlength=grid.n)
    means = np.bincount(idx, weights=z, minlength=grid.n)[counts > 0] / counts[counts > 0]
    assert regrid_time_values(k, z, grid)[counts > 0].tobytes() == means.tobytes()


def test_regrid_insufficient_support(merton_triplet, default_grid, rng):
    k_full, z_full = time_value_curve(merton_triplet, T, R, default_grid)
    # samples only in a sliver around the money while the curve peak implies
    # a time-value region an order of magnitude wider
    sel = np.abs(k_full) < 0.01
    with pytest.raises(InsufficientSupport):
        regrid_time_values(k_full[sel], z_full[sel], default_grid)


def _custom_model():
    """A 41-point table: a Gaussian bump of jumps centred at -0.05."""
    x = np.linspace(-0.5, 0.5, 41)
    return CustomModel(0.2, x, np.exp(-0.5 * ((x + 0.05) / 0.08) ** 2) / 0.2)


def test_grid_spline_matches_scipy_cubic_spline(merton_model, kou_model, rng, monkeypatch):
    from scipy.interpolate import CubicSpline

    # the spline evaluates its query points over blocks of _BLOCK points; blocks of 3
    # and 5 points put thousands of block edges among the strikes, the knots and the
    # points beyond both ends, and leave partial last blocks.  Where the edges fall
    # depends only on the number of query points, so the small blocks run on one grid
    # and one model, every grid and model at _BLOCK
    every = ((SpectralGrid(2**14, 0.05), SpectralGrid(4096, 0.2), SpectralGrid(1024, 0.1)),
             (merton_model, kou_model, _custom_model()))
    small = ((SpectralGrid(1024, 0.1),), (kou_model,))
    for block, (grids, models) in ((_BLOCK, every), (3, small), (5, small)):
        monkeypatch.setattr(spectral, "_BLOCK", block)
        for grid in grids:
            # random strikes, every knot, and points just and far beyond both ends
            beyond = np.array([1e-12, 1e-3, 0.5, 10.0])
            q = np.concatenate([rng.uniform(-0.4, 0.4, 20_000), grid.k,
                                grid.k[0] - beyond, grid.k[-1] + beyond])
            for model in models:
                k, z = time_value_curve(model.triplet(), T, R, grid)
                np.testing.assert_array_equal(spline_on_grid(grid, z)(q), CubicSpline(k, z)(q))
        # signed zeros too: the same bits, not only equal values.  The first curve falls
        # away on both sides of a -0.0 knot, where every term of the cubic is -0.0
        grid = SpectralGrid(1024, 0.1)
        q = np.concatenate([grid.k, rng.uniform(grid.k[0] - 1.0, grid.k[-1] + 1.0, 5000)])
        x = grid.k - grid.k[500]
        dip = -x**3 - x**2
        dip[500] = -0.0
        for z in [dip] + [rng.choice([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0], grid.n)
                          for _ in range(20)]:
            np.testing.assert_array_equal(spline_on_grid(grid, z)(q).view(np.int64),
                                          CubicSpline(grid.k, z)(q).view(np.int64))


def test_grid_spline_blocks_match_point_by_point(merton_model, rng):
    # a 2-D q of several blocks and a partial one, points beyond both grid ends included
    grid = SpectralGrid(1024, 0.1)
    k, z = time_value_curve(merton_model.triplet(), T, R, grid)
    spline = spline_on_grid(grid, z)
    q = rng.uniform(k[0] - 2.0, k[-1] + 2.0, 3 * (_BLOCK + 7)).reshape(3, -1)
    q[0, :4] = k[0] - 1e-12, k[0] - 5.0, k[-1] + 1e-12, k[-1] + 5.0
    got = spline(q)
    want = np.array([spline(x) for x in q.ravel()]).reshape(q.shape)
    assert got.shape == q.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert spline(q[0, 0]).shape == ()
    assert spline(np.empty((0, 3))).shape == (0, 3)


def test_grid_spline_memory_is_its_output_plus_one_block(merton_model):
    grid = SpectralGrid(2**14, 0.05)
    _, z = time_value_curve(merton_model.triplet(), T, R, grid)
    spline = spline_on_grid(grid, z)
    q = np.random.default_rng(3).uniform(-0.5, 0.5, 10**6)
    tracemalloc.start()
    try:
        spline(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * q.nbytes  # the output is as large as q


def test_grid_spline_build_holds_no_grid_sized_list(merton_model):
    # the spline keeps four coefficients per node, 32 bytes; the solve's bands,
    # right-hand side and slopes are float64 arrays read and written one row at a time
    # through memoryviews, where Python lists of floats over the whole grid took 192
    # bytes per node
    grid = SpectralGrid(2**16, 0.0125)
    _, z = time_value_curve(merton_model.triplet(), T, R, grid)
    tracemalloc.start()
    try:
        spline_on_grid(grid, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * grid.n, peak / grid.n


def test_regrid_noisy_phi_within_propagated_band(merton_model, merton_triplet, default_grid, rng):
    from scipy.interpolate import CubicSpline

    k_nodes, z_nodes = time_value_curve(merton_triplet, T, R, default_grid)
    spline = CubicSpline(k_nodes, z_nodes)
    n = 10_000
    k = rng.uniform(-0.4, 0.4, n)
    z_true = np.maximum(spline(k), 0.0)
    z_noisy = np.maximum(z_true + rng.normal(0, 1, n) * 0.05 * z_true, 0.0)
    z_binned = regrid_time_values(k, z_noisy, default_grid)
    curve = phi_from_time_values(z_binned, R, T, default_grid)
    truth = merton_triplet.phi_shifted(curve.w, T)

    # propagate the per-bin noise variance through the forward transform;
    # each component of F[noise](w) is Gaussian with variance dk^2 sum(var)/2
    counts = np.bincount(np.floor((k - (default_grid.k[0] - default_grid.dk / 2))
                                  / default_grid.dk).astype(int), minlength=default_grid.n)
    var_bin = np.zeros(default_grid.n)
    occupied = counts > 0
    z_on_nodes = np.maximum(spline(default_grid.k), 0.0)
    var_bin[occupied] = (0.05 * z_on_nodes[occupied]) ** 2 / counts[occupied]
    sigma_f = math.sqrt(0.5 * float(np.sum(var_bin))) * default_grid.dk
    w = curve.w
    band = 3.0 * np.abs(1j * w * (1 + 1j * w)) * sigma_f + 1e-4
    mask = np.abs(w) <= 60.0
    err = curve.values - truth
    within = (np.abs(err.real) <= band) & (np.abs(err.imag) <= band)
    assert np.mean(within[mask]) >= 0.99


def test_refinement_ratio(merton_model, merton_triplet):
    errs = []
    for n, dw in [(2**12, 0.8), (2**13, 0.4)]:
        grid = SpectralGrid(n=n, dw=dw)
        k, z = time_value_curve(merton_triplet, T, R, grid)
        sel = np.abs(k) <= 0.6
        errs.append(np.max(np.abs(z[sel] - oracles.merton_series_z(k[sel], merton_model, T, R))))
    assert errs[0] / errs[1] >= 3.0


def test_plancherel_identity(merton_triplet, kou_triplet, default_grid):
    def phi_of(trip):
        return lambda u: _char_in_strip(u, trip, T)

    lhs, rhs = plancherel_gap(phi_of(merton_triplet), phi_of(merton_triplet), default_grid)
    assert lhs == 0.0 and rhs == 0.0

    bumped = MertonModel(sigma=0.21, lam=1.0, mu=-0.05, delta=0.05).triplet()
    for a, b in [(merton_triplet, kou_triplet), (merton_triplet, bumped)]:
        lhs, rhs = plancherel_gap(phi_of(a), phi_of(b), default_grid)
        assert lhs > 0.0
        assert lhs == pytest.approx(rhs, rel=1e-3)


def test_call_price_monotone_in_k(merton_triplet, default_grid):
    k, z = time_value_curve(merton_triplet, T, R, default_grid)
    prices = call_price(k, z, R, T)
    sel = np.abs(k) <= 2.0
    assert np.all(np.diff(prices[sel]) <= 1e-10)
