import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from levycal import CustomModel, KouModel, MertonModel, char_fn, cumulants, f_exponent
from levycal.errors import NonFinite

import oracles

# frozen by the quadrature oracles in oracles.quad_jump_exponent / scipy.quad
MERTON_F_MINUS_I = 0.002419204739069579
MERTON_DRIFT = -0.022419204739069578
KOU_F_MINUS_I = -0.07155389197317333


def test_merton_density_direct_substitution(merton_model):
    # x = mu hits the peak lam / (delta sqrt(2 pi))
    assert merton_model.density(-0.05) == pytest.approx(7.978845608028654, abs=1e-9)
    assert merton_model.density(50.0) == 0.0
    assert merton_model.density(-50.0) == 0.0
    x = np.linspace(-1, 1, 101)
    assert np.all(merton_model.density(x) >= 0.0)


def test_merton_density_integrates_to_lambda(merton_model):
    total, _ = integrate.quad(lambda x: merton_model.density(x), -1, 1, epsabs=1e-13)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_kou_density_one_sided_limits(kou_model):
    assert kou_model.density(1e-12) == pytest.approx(0.04 * 1.4 * 3.7, rel=1e-9)
    assert kou_model.density(-1e-12) == pytest.approx(0.96 * 1.4 * 1.8, rel=1e-9)
    assert kou_model.density(0.0) == 0.0


def test_kou_density_integrates_to_lambda(kou_model):
    up, _ = integrate.quad(lambda x: kou_model.density(x), 0, 30, epsabs=1e-12)
    dn, _ = integrate.quad(lambda x: kou_model.density(x), -30, 0, epsabs=1e-12)
    assert up + dn == pytest.approx(1.4, abs=1e-8)


def test_parameter_validation():
    with pytest.raises(ValueError):
        MertonModel(sigma=0.2, lam=1.0, mu=0.0, delta=0.0)
    with pytest.raises(ValueError):
        MertonModel(sigma=-0.1, lam=1.0, mu=0.0, delta=0.1)
    with pytest.raises(ValueError):
        KouModel(sigma=0.2, lam=1.0, p=0.5, lam_plus=2.0, lam_minus=1.0)
    with pytest.raises(ValueError):
        KouModel(sigma=0.2, lam=1.0, p=1.5, lam_plus=3.0, lam_minus=1.0)
    with pytest.raises(ValueError):
        CustomModel(-0.1, np.array([-1.0, 1.0]), np.ones(2))


def test_f_exponent_at_zero(merton_model):
    val = f_exponent(0.0, merton_model.density, merton_model.support)
    assert abs(val) < 1e-12


def test_f_exponent_merton_minus_i(merton_model):
    val = f_exponent(-1j, merton_model.density, merton_model.support)
    assert val.real == pytest.approx(MERTON_F_MINUS_I, abs=1e-10)
    assert abs(val.imag) < 1e-12
    # closed form agrees with the quadrature route
    assert complex(merton_model.jump_exponent(np.array(-1j))) == pytest.approx(val, abs=1e-10)


def test_f_exponent_kou_minus_i(kou_model):
    val = f_exponent(-1j, kou_model.density, kou_model.support)
    assert val.real == pytest.approx(KOU_F_MINUS_I, abs=1e-9)
    assert complex(kou_model.jump_exponent(np.array(-1j))) == pytest.approx(val, abs=1e-9)


def test_f_exponent_strip_validation(merton_model):
    with pytest.raises(ValueError):
        f_exponent(1.0 + 0.5j, merton_model.density, merton_model.support)
    with pytest.raises(ValueError):
        f_exponent(1.0 - 2.5j, merton_model.density, merton_model.support)


def quad_drift(model):
    """Martingale drift -sigma^2/2 - f(-i) with f(-i) by quadrature of the density."""
    f_mi = f_exponent(-1j, model.density, model.support)
    return -0.5 * model.sigma**2 - float(np.real(f_mi))


def zero_table(sigma):
    return CustomModel(sigma, np.array([-1.5, 1.5]), np.zeros(2))


def test_martingale_drift_pure_diffusion():
    for sigma, expected in ((0.2, -0.02), (0.0, 0.0)):
        assert quad_drift(zero_table(sigma)) == pytest.approx(expected, abs=1e-12)
        assert zero_table(sigma).drift() == pytest.approx(expected, abs=1e-12)


def test_martingale_drift_merton(merton_model):
    b = quad_drift(merton_model)
    assert b == pytest.approx(MERTON_DRIFT, abs=1e-10)
    assert merton_model.drift() == pytest.approx(MERTON_DRIFT, abs=1e-10)


def test_triplet_drift_consistency(merton_model, kou_model):
    for model in (merton_model, kou_model):
        trip = model.triplet()
        assert trip.drift() == pytest.approx(quad_drift(model), abs=1e-8)
        quad_mass = oracles.quad_moment(0, model.density, model.support)
        assert trip.lam == pytest.approx(quad_mass, rel=1e-9)


def test_char_fn_at_zero_is_one(merton_triplet, kou_triplet):
    for trip in (merton_triplet, kou_triplet):
        val = char_fn(np.array([0.0]), trip, 0.05)[0]
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_char_fn_martingale_identity(merton_triplet, kou_triplet):
    for trip in (merton_triplet, kou_triplet):
        val = char_fn(np.array(-1j), trip, 0.05)
        assert abs(complex(val) - 1.0) < 1e-8


def test_char_fn_parity(merton_triplet):
    w = np.array([0.5, 3.0, 17.0, 80.0])
    plus = char_fn(w, merton_triplet, 0.05)
    minus = char_fn(-w, merton_triplet, 0.05)
    np.testing.assert_allclose(minus.real, plus.real, rtol=0, atol=1e-15)
    np.testing.assert_allclose(minus.imag, -plus.imag, rtol=0, atol=1e-15)


def test_char_fn_monte_carlo(merton_triplet, merton_model):
    est, se_re, se_im = oracles.mc_char_fn(merton_model, 10.0, 0.05)
    val = complex(char_fn(np.array([10.0]), merton_triplet, 0.05)[0])
    assert abs(val.real - est.real) < 3 * se_re
    assert abs(val.imag - est.imag) < 3 * se_im


def test_char_fn_closed_form_vs_quadrature(merton_model, kou_model, rng):
    # independent quadrature of the Levy-Khinchine integrand at random real w
    for model in (merton_model, kou_model):
        trip = model.triplet()
        w = rng.uniform(-100, 100, 20)
        closed = char_fn(w, trip, 0.05)
        psi = (-0.5 * model.sigma**2 * w**2 + 1j * trip.drift() * w
               + f_exponent(w + 0j, model.density, model.support))
        via_quad = np.exp(0.05 * psi)
        np.testing.assert_allclose(closed, via_quad, rtol=0, atol=1e-8)


def test_char_fn_rejects_bad_T(merton_triplet):
    with pytest.raises(ValueError):
        char_fn(np.array([1.0]), merton_triplet, 0.0)


def test_cumulants_pure_diffusion():
    trip = zero_table(0.2).triplet()
    cum = cumulants(trip, 1.0 / 252)
    assert cum.skewness == pytest.approx(0.0, abs=1e-12)
    assert cum.excess_kurtosis == pytest.approx(0.0, abs=1e-12)
    assert cum.std == pytest.approx(0.2 / math.sqrt(252), rel=1e-10)


def test_cumulant_delta_linearity(merton_triplet):
    d = 1.0 / 252
    c1 = cumulants(merton_triplet, d)
    c2 = cumulants(merton_triplet, 2 * d)
    for n in ("k1", "k2", "k3", "k4"):
        assert getattr(c2, n) == 2 * getattr(c1, n)  # exact, linear in delta


def test_skewness_scaling_is_exactly_half(merton_triplet):
    d = 1.0 / 252
    s1 = cumulants(merton_triplet, d).skewness
    s4 = cumulants(merton_triplet, 4 * d).skewness
    assert s4 / s1 == 0.5


def test_merton_cumulant_values(merton_triplet):
    # frozen from the moment quadrature oracle
    cum = cumulants(merton_triplet, 1.0 / 252)
    assert cum.k1 == pytest.approx(-8.896509817091106e-05, rel=1e-9)
    assert cum.k2 == pytest.approx(0.00017857142857142854, rel=1e-10)
    assert cum.k3 == pytest.approx(-1.984126984126984e-06, rel=1e-10)
    assert cum.k4 == pytest.approx(2.48015873015873e-07, rel=1e-10)
    assert cum.skewness == pytest.approx(-0.8314794192830982, rel=1e-9)
    assert cum.excess_kurtosis == pytest.approx(7.7777777777777795, rel=1e-9)


def test_jump_moment_closed_forms(merton_model, kou_model):
    for model in (merton_model, kou_model):
        for n in (1, 2, 3, 4):
            quad_val = oracles.quad_moment(n, model.density, model.support)
            assert model.jump_moment(n) == pytest.approx(quad_val, rel=1e-9, abs=1e-12)
    # e^x and e^{2x} moments: nu_hat(-ia) is bit for bit the closed form, and
    # f(-ia) by quadrature plus the mass and the truncated mean
    m, k = merton_model, kou_model
    for a in (1.0, 2.0):
        closed = ((m, m.lam * np.exp(a * m.mu + 0.5 * a**2 * m.delta**2)),
                  (k, k.lam * (k.p * k.lam_plus / (k.lam_plus - a)
                               + (1.0 - k.p) * k.lam_minus / (k.lam_minus + a))))
        for model, expected in closed:
            assert model.exp_moment(a) == expected, (model.kind, a)
            f_w = oracles.quad_jump_exponent(-1j * a, model.density, model.support)
            assert model.exp_moment(a) == pytest.approx(
                f_w.real + model.lam + a * model.truncated_mean(), rel=1e-10)


def custom_tables():
    # the benchmark's Gaussian-shaped table lies inside (-1, 1) and ends near zero;
    # the second reaches past both truncation kinks and ends at nonzero values
    x = np.linspace(-0.5, 0.5, 41)
    inner = CustomModel(0.2, x, np.exp(-0.5 * ((x + 0.05) / 0.08) ** 2) / 0.2005)
    x = np.linspace(-2.5, 1.7, 23)
    wide = CustomModel(0.1, x, 0.3 + np.exp(-x**2))
    return inner, wide


def test_custom_model_closed_forms_match_quadrature():
    for model in custom_tables():
        # the density has a kink at every knot, so the references split there
        knots = tuple(model.x)
        assert model.lam == pytest.approx(
            oracles.quad_moment(0, model.density, model.support, knots), rel=1e-12)
        inside = (max(model.x[0], -1.0), min(model.x[-1], 1.0))
        assert model.truncated_mean() == pytest.approx(
            oracles.quad_moment(1, model.density, inside, knots), rel=1e-12, abs=1e-15)
        for n in (1, 2, 3, 4):
            assert model.jump_moment(n) == pytest.approx(
                oracles.quad_moment(n, model.density, model.support, knots),
                rel=1e-12, abs=1e-15)
        for w in (0.0, 1e-8, 1e-6, 1e-3, 0.025, 5.0, 3 - 2j, -1j, -2j):
            ref = oracles.quad_jump_exponent(w, model.density, model.support,
                                             split=(-1.0, 1.0, *knots))
            assert abs(complex(model.jump_exponent(w)) - ref) <= 1e-12, w
        # the e^x and e^{2x} moments are nu_hat(-i) and nu_hat(-2i)
        for a in (1.0, 2.0):
            f_w = complex(model.jump_exponent(-1j * a))
            assert model.exp_moment(a) == pytest.approx(
                f_w.real + model.lam + a * model.truncated_mean(), rel=1e-14)


def test_custom_model_roundtrip(merton_model):
    x = np.linspace(-0.6, 0.6, 801)
    custom = CustomModel(0.2, x, merton_model.density(x))
    trip = custom.triplet()
    # drift close to the Merton one; the table truncates far tails only
    assert trip.drift() == pytest.approx(MERTON_DRIFT, abs=1e-4)
    with pytest.raises(ValueError):
        CustomModel(0.2, x[::-1], merton_model.density(x))


def test_merton_truncated_mean_matches_scipy_stats():
    # the closed form without scipy.stats gives the norm.cdf/norm.pdf result bit for bit
    for sigma, lam, mu, delta in ((0.2, 1.0, -0.05, 0.05), (0.1, 3.0, 0.4, 0.7),
                                  (0.3, 0.5, -2.5, 0.2), (0.2, 20.0, 0.0, 1e-3)):
        model = MertonModel(sigma, lam, mu, delta)
        alpha, beta = (-1.0 - mu) / delta, (1.0 - mu) / delta
        expected = lam * (mu * (norm.cdf(beta) - norm.cdf(alpha))
                          - delta * (norm.pdf(beta) - norm.pdf(alpha)))
        assert model.truncated_mean() == expected


def test_parametric_triplets_take_mass_without_quadrature(merton_model, kou_model,
                                                         monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(integrate, "quad", no_quadrature)
    monkeypatch.setattr(integrate, "quad_vec", no_quadrature)
    for model in (merton_model, kou_model):
        trip = model.triplet()
        assert trip.lam == model.lam
        char_fn(np.array([0.5 - 1j]), trip, 0.05)
        cumulants(trip, 1.0 / 252)
    with pytest.raises(NonFinite):
        MertonModel(sigma=0.2, lam=float("inf"), mu=-0.05, delta=0.05).triplet()


def test_triplet_rejects_non_integrable():
    # the e^{2x} moment of a table reaching x = 400 overflows; so does the mass of a huge one
    for x, dvdx in (([-1.0, 0.0, 400.0], [0.0, 1.0, 1.0]),
                    ([-1.0, 1.0], [1e308, 1e308])):
        with pytest.raises(NonFinite):
            CustomModel(0.2, np.array(x), np.array(dvdx)).triplet()
