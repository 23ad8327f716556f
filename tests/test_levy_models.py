import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from levycal import (CustomModel, ElnnParams, KouModel, MertonModel, SpectralGrid, cumulants,
                     f_exponent, parametric_char_shifted)
from levycal.calibrate import _BOXES, _START_RANGES
from levycal.errors import NonFinite
from levycal.levy_models import _char_in_strip

import oracles

# f(-i) = integral (e^x - 1) nu(dx) in closed form for the conftest models, and
# the martingale drift -sigma^2/2 - f(-i)
MERTON_F_MINUS_I = 1.0 * (math.exp(-0.05 + 0.5 * 0.05**2) - 1.0)
MERTON_DRIFT = -0.5 * 0.2**2 - MERTON_F_MINUS_I
KOU_F_MINUS_I = 1.4 * (0.04 * 3.7 / (3.7 - 1.0) + 0.96 * 1.8 / (1.8 + 1.0) - 1.0)


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
    val = f_exponent(0.0, merton_model.density, oracles.support(merton_model))
    assert abs(val) < 1e-12


def test_f_exponent_merton_minus_i(merton_model):
    val = f_exponent(-1j, merton_model.density, oracles.support(merton_model))
    assert val.real == pytest.approx(MERTON_F_MINUS_I, abs=1e-10)
    assert abs(val.imag) < 1e-12
    # closed form agrees with the quadrature route
    assert complex(merton_model.jump_exponent(np.array(-1j))) == pytest.approx(val, abs=1e-10)


def test_f_exponent_kou_minus_i(kou_model):
    val = f_exponent(-1j, kou_model.density, oracles.support(kou_model))
    assert val.real == pytest.approx(KOU_F_MINUS_I, abs=1e-9)
    assert complex(kou_model.jump_exponent(np.array(-1j))) == pytest.approx(val, abs=1e-9)


def test_f_exponent_strip_validation(merton_model):
    with pytest.raises(ValueError):
        f_exponent(1.0 + 0.5j, merton_model.density, oracles.support(merton_model))
    with pytest.raises(ValueError):
        f_exponent(1.0 - 2.5j, merton_model.density, oracles.support(merton_model))


def quad_drift(model):
    """Martingale drift -sigma^2/2 - f(-i) with f(-i) by quadrature of the density."""
    f_mi = f_exponent(-1j, model.density, oracles.support(model))
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
        quad_mass = oracles.quad_moment(0, model.density, oracles.support(model))
        assert trip.lam == pytest.approx(quad_mass, rel=1e-9)


def test_char_fn_at_zero_is_one(merton_triplet, kou_triplet):
    for trip in (merton_triplet, kou_triplet):
        val = _char_in_strip(np.array([0.0 + 0j]), trip, 0.05)[0]
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_char_fn_martingale_identity(merton_triplet, kou_triplet):
    for trip in (merton_triplet, kou_triplet):
        val = _char_in_strip(np.array(-1j), trip, 0.05)
        assert abs(complex(val) - 1.0) < 1e-8


def test_char_fn_parity(merton_triplet):
    w = np.array([0.5, 3.0, 17.0, 80.0])
    plus = _char_in_strip(w + 0j, merton_triplet, 0.05)
    minus = _char_in_strip(-w + 0j, merton_triplet, 0.05)
    np.testing.assert_allclose(minus.real, plus.real, rtol=0, atol=1e-15)
    np.testing.assert_allclose(minus.imag, -plus.imag, rtol=0, atol=1e-15)


def test_char_fn_monte_carlo(merton_triplet, merton_model):
    est, se_re, se_im = oracles.mc_char_fn(merton_model, 10.0, 0.05)
    val = complex(_char_in_strip(np.array([10.0 + 0j]), merton_triplet, 0.05)[0])
    assert abs(val.real - est.real) < 3 * se_re
    assert abs(val.imag - est.imag) < 3 * se_im


def test_char_fn_closed_form_vs_quadrature(merton_model, kou_model, rng):
    # independent quadrature of the Levy-Khinchine integrand at random real w
    for model in (merton_model, kou_model):
        trip = model.triplet()
        w = rng.uniform(-100, 100, 20)
        closed = _char_in_strip(w + 0j, trip, 0.05)
        psi = (-0.5 * model.sigma**2 * w**2 + 1j * trip.drift() * w
               + f_exponent(w + 0j, model.density, oracles.support(model)))
        via_quad = np.exp(0.05 * psi)
        np.testing.assert_allclose(closed, via_quad, rtol=0, atol=1e-8)


def test_char_fn_rejects_bad_T(merton_triplet):
    with pytest.raises(ValueError):
        _char_in_strip(np.array([1.0 + 0j]), merton_triplet, 0.0)
    with pytest.raises(ValueError):
        parametric_char_shifted(merton_triplet, np.array([1.0]), 0.0)


@pytest.mark.parametrize("n", [0, 1, 7, 1024])
def test_parametric_char_shifted_is_char_fn_at_w_minus_i(merton_model, kou_model, n):
    # it gives the floats of Phi at the complex array w - i, the strip check that
    # Im(w - i) = -1 always passes left out, and every jump model prices through it;
    # no frequencies give an empty curve, as a fit's loss asks when it skips every node
    w = np.linspace(0.25, 400.0, n)
    for model in (merton_model, kou_model, custom_tables()[1]):
        shifted = parametric_char_shifted(model, w, 0.05)
        assert shifted.shape == (n,) and shifted.dtype == complex
        np.testing.assert_array_equal(shifted, _char_in_strip(w - 1j, model, 0.05))
        np.testing.assert_array_equal(model.phi_shifted(w, 0.05), shifted)


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
            quad_val = oracles.quad_moment(n, model.density, oracles.support(model))
            assert model.jump_moment(n) == pytest.approx(quad_val, rel=1e-9, abs=1e-12)
    # e^x and e^{2x} moments: nu_hat(-ia) is bit for bit the closed form, and
    # f(-ia) by quadrature plus the mass
    m, k = merton_model, kou_model
    for a in (1.0, 2.0):
        closed = ((m, m.lam * np.exp(a * m.mu + 0.5 * a**2 * m.delta**2)),
                  (k, k.lam * (k.p * k.lam_plus / (k.lam_plus - a)
                               + (1.0 - k.p) * k.lam_minus / (k.lam_minus + a))))
        for model, expected in closed:
            assert model.exp_moment(a) == expected, (model.kind, a)
            f_w = oracles.quad_jump_exponent(-1j * a, model.density, oracles.support(model))
            assert model.exp_moment(a) == pytest.approx(f_w.real + model.lam, rel=1e-10)


def custom_tables():
    # the benchmark's Gaussian-shaped table lies inside (-1, 1) and ends near zero;
    # the second reaches past -1 and 1 and ends at nonzero values
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
            oracles.quad_moment(0, model.density, oracles.support(model), knots), rel=1e-12)
        for n in (1, 2, 3, 4):
            assert model.jump_moment(n) == pytest.approx(
                oracles.quad_moment(n, model.density, oracles.support(model), knots),
                rel=1e-12, abs=1e-15)
        for w in (0.0, 1e-8, 1e-6, 1e-3, 0.025, 5.0, 3 - 2j, -1j, -2j):
            ref = oracles.quad_jump_exponent(w, model.density, oracles.support(model),
                                             split=knots)
            assert abs(complex(model.jump_exponent(w)) - ref) <= 1e-12, w
        # the e^x and e^{2x} moments are nu_hat(-i) and nu_hat(-2i)
        for a in (1.0, 2.0):
            f_w = complex(model.jump_exponent(-1j * a))
            assert model.exp_moment(a) == pytest.approx(f_w.real + model.lam, rel=1e-14)


def test_custom_model_roundtrip(merton_model):
    x = np.linspace(-0.6, 0.6, 801)
    custom = CustomModel(0.2, x, merton_model.density(x))
    trip = custom.triplet()
    # drift close to the Merton one; the table truncates far tails only
    assert trip.drift() == pytest.approx(MERTON_DRIFT, abs=1e-4)
    with pytest.raises(ValueError):
        CustomModel(0.2, x[::-1], merton_model.density(x))


def test_parametric_triplets_take_mass_without_quadrature(merton_model, kou_model,
                                                         monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(integrate, "quad", no_quadrature)
    monkeypatch.setattr(integrate, "quad_vec", no_quadrature)
    for model in (merton_model, kou_model):
        trip = model.triplet()
        assert trip.lam == model.lam
        trip.phi_shifted(np.array([0.5]), 0.05)
        cumulants(trip, 1.0 / 252)
    with pytest.raises(NonFinite):
        MertonModel(sigma=0.2, lam=float("inf"), mu=-0.05, delta=0.05).triplet()


def test_triplet_rejects_non_integrable():
    # the e^{2x} moment of a table reaching x = 400 overflows; so does the mass of a huge one
    for x, dvdx in (([-1.0, 0.0, 400.0], [0.0, 1.0, 1.0]),
                    ([-1.0, 1.0], [1e308, 1e308])):
        with pytest.raises(NonFinite):
            CustomModel(0.2, np.array(x), np.array(dvdx)).triplet()


def reference_models():
    """The benchmark's Merton and Kou models, the corners of each family's box and
    300 seeded draws from it, and both custom tables."""
    rng = np.random.default_rng(33)
    models = [MertonModel(0.2, 1.0, -0.05, 0.05), KouModel(0.21, 1.4, 0.04, 3.7, 1.8),
              *custom_tables()]
    for family, cls in (("merton", MertonModel), ("kou", KouModel)):
        box = _BOXES[family]
        models += [cls(*corner) for corner in itertools.product(*box)]
        models += [cls(*[float(rng.uniform(lo, hi)) for lo, hi in box]) for _ in range(300)]
    return models


@pytest.mark.parametrize("T", [0.05, 0.25])
def test_exponent_without_truncation_matches_the_truncated_form(T):
    # a finite-activity exponent needs no truncation function: the truncated mean
    # enters the truncated form's jump part and drift with opposite signs, so Phi
    # and the mean are the same up to rounding
    w = SpectralGrid().w
    for model in reference_models():
        phi, k1 = oracles.truncated_form(model, w, T)
        assert np.max(np.abs(parametric_char_shifted(model, w, T) - phi)) <= 1e-12, model
        assert cumulants(model, 1.0).k1 == pytest.approx(k1, rel=1e-13, abs=1e-15), model


def laws():
    """Merton and Kou models in their fits' start ranges, the custom tables and
    random networks."""
    return st.one_of(
        *(st.builds(cls, *(st.floats(lo, hi) for lo, hi in _START_RANGES[cls.kind]))
          for cls in (MertonModel, KouModel)),
        st.sampled_from(custom_tables()),
        st.builds(ElnnParams.init_random, st.integers(1, 30), st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(law=laws(), T=st.floats(0.01, 1.0),
       w=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=16))
def test_phi_over_a_doubled_maturity_is_the_square(law, T, w):
    # the increments over [0, T] and [T, 2T] are independent and alike, so
    # Phi_{2T}(w - i) = Phi_T(w - i)^2; atol covers the subnormal range
    w = np.array(w)
    np.testing.assert_allclose(law.phi_shifted(w, 2 * T), law.phi_shifted(w, T) ** 2,
                               rtol=1e-12, atol=1e-300)
