import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from levycal import (Adam, ElnnParams, SpectralCurve, SpectralGrid, TrainConfig, ann_i,
                     ann_r, calibrate_parametric, char_fn, elnn, gradient, implied_lambda,
                     implied_levy_density, objective, phi_model, train)
from levycal.elnn import _guard_pole, _loss_and_grad
from levycal.errors import DivergedLoss
from levycal.spectral import trapezoid_weights

import oracles

T = 0.05

# frozen adaptive-quadrature value of the single-node regularizer example
REG_SINGLE_NODE = 9.965263685850614e-05


def random_params(rng, n=8, spread=0.6):
    return ElnnParams(
        s=float(rng.normal(0.2, 0.05)),
        wr0=rng.normal(0, spread, n),
        wr1=rng.uniform(0.05, 1.5, n),
        wi0=rng.normal(0, spread, n),
        wi1=rng.uniform(0.05, 1.5, n),
    )


def toy_slice(rng, n_w=256, dw=0.5, n_nodes=8, noise=0.05, seed=None):
    w = (np.arange(n_w) - n_w / 2 + 0.5) * dw
    base = phi_model(w, ElnnParams.init_random(n_nodes, seed=seed or 7), T)
    target = base + noise * (rng.normal(size=n_w) + 1j * rng.normal(size=n_w))
    return SimpleNamespace(T=T, spectral=SpectralCurve(w, target))


def full_grid_nodes(slc):
    """The slice's own nodes, trapezoid weights and target parts, unfolded."""
    w, values = slc.spectral.w, slc.spectral.values
    return w, trapezoid_weights(len(w)) * (w[1] - w[0]), values.real, values.imag


def regularizer(p, w, m_cutoff, alpha_reg=4.0):
    """Trapezoid value of integral |w/M|^alpha (ann_r^2 + ann_i^2) dw: the
    objective with beta 1 against the model itself, whose data term is 0."""
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, phi_model(w, p, T)))
    return objective(p, slc, TrainConfig(m_cutoff=m_cutoff, alpha_reg=alpha_reg, beta_reg=1.0))


# --- network structure ----------------------------------------------------------


def test_ann_r_single_node_at_zero():
    p = ElnnParams(0.2, np.array([1.0]), np.array([0.3]), np.array([0.0]), np.array([0.3]))
    assert ann_r(0.0, p) == 0.25


def test_parity_exact(rng):
    for _ in range(1000):
        p = random_params(rng, n=4)
        w = float(rng.uniform(-50, 50))
        assert ann_r(-w, p) == ann_r(w, p)
        assert ann_i(-w, p) == -ann_i(w, p)


def test_sigmoid_product_decay():
    p = ElnnParams(0.2, np.array([1.0]), np.array([5.0]), np.array([0.0]), np.array([5.0]))
    assert abs(ann_r(100.0, p)) < 1e-200


def test_vanishing_tails(rng):
    for _ in range(50):
        p = random_params(rng)
        w_far = 50.0 / np.min(np.abs(p.wr1))
        total = np.sum(np.abs(p.wr0)) + np.sum(np.abs(p.wi0))
        assert abs(ann_r(w_far, p)) < 1e-20 * total
        w_far_i = 50.0 / np.min(np.abs(p.wi1))
        # the odd network carries a trailing factor w, hence the (1 + |w|) scale
        assert abs(ann_i(w_far_i, p)) < 1e-20 * total * (1.0 + w_far_i)


def test_ann_i_odd_and_zero_at_origin(rng):
    p = random_params(rng)
    assert ann_i(0.0, p) == 0.0


def test_ann_i_slope_at_zero():
    p = ElnnParams(0.2, np.array([0.0]), np.array([0.3]), np.array([1.0]), np.array([0.4]))
    h = 1e-7
    slope = (ann_i(h, p) - ann_i(-h, p)) / (2 * h)
    assert slope == pytest.approx(0.25, rel=1e-6)


def test_ann_r_derivative_zero_at_origin(rng):
    p = random_params(rng)
    h = 1e-6
    assert abs((ann_r(h, p) - ann_r(-h, p)) / (2 * h)) < 1e-8


def test_phi_model_at_zero_is_exactly_one(rng):
    for _ in range(1000):
        p = random_params(rng, n=6)
        val = phi_model(np.array([0.0]), p, T)[0]
        assert abs(val - 1.0) < 1e-15


def test_phi_model_pure_diffusion_closed_form():
    n = 5
    p = ElnnParams(0.2, np.zeros(n), np.full(n, 0.3), np.zeros(n), np.full(n, 0.3))
    val = phi_model(np.array([10.0]), p, T)[0]
    # exp(T(-sigma^2 w^2/2 + i sigma^2 w/2)) = e^{-0.1} (cos 0.01 + i sin 0.01)
    want = math.exp(-0.1) * complex(math.cos(0.01), math.sin(0.01))
    assert val == pytest.approx(want, abs=1e-12)


def test_property8_identity(rng):
    for _ in range(1000):
        p = random_params(rng, n=5)
        lhs = float(np.sum(p.wr0 / (2 * (1 + np.cos(p.wr1)))
                           - p.wi0 / (2 * (1 + np.cos(p.wi1)))))
        assert lhs == pytest.approx(p.c0 - p.c1, abs=1e-12)


def test_c0_c1_from_complex_evaluation(rng):
    # independent route: evaluate the node product sig(a) sig(-a) at w = i
    def bump_at_i(scale):
        a = 1j * scale
        return 1.0 / ((1.0 + np.exp(-a)) * (1.0 + np.exp(a)))

    for _ in range(200):
        p = random_params(rng, n=5)
        # ann_r(i) + i ann_i(i), where ann_i carries the trailing factor w = i
        at_i = np.sum(p.wr0 * bump_at_i(p.wr1)) + 1j * np.sum(p.wi0 * bump_at_i(p.wi1)) * 1j
        assert abs(at_i.imag) < 1e-12
        assert at_i.real == pytest.approx(p.c0 - p.c1, abs=1e-12)
        assert p.c0 == pytest.approx(float(ann_r(0.0, p)), abs=1e-14)


# --- regularizer ----------------------------------------------------------------


def test_regularizer_zero_weights(default_grid):
    n = 20
    p = ElnnParams(0.2, np.zeros(n), np.full(n, 0.3), np.zeros(n), np.full(n, 0.3))
    assert regularizer(p, default_grid.w, 10.0) == 0.0


def test_regularizer_reflection_invariant(rng, default_grid):
    p = random_params(rng)
    w = default_grid.w
    # the data term against the model itself is exactly 0
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, phi_model(w, p, T)))
    assert objective(p, slc, TrainConfig(m_cutoff=10.0, beta_reg=0.0)) == 0.0
    assert regularizer(p, w, 10.0) == pytest.approx(regularizer(p, -w[::-1], 10.0), rel=1e-13)


def test_regularizer_matches_quadrature(default_grid):
    p = ElnnParams(0.2, np.array([1.0]), np.array([1.0]), np.array([0.0]), np.array([1.0]))
    val = regularizer(p, default_grid.w, 10.0, alpha_reg=4.0)
    assert val == pytest.approx(REG_SINGLE_NODE, rel=1e-4)


# --- objective and gradient -----------------------------------------------------


def test_objective_zero_at_truth(rng):
    w = (np.arange(128) - 64 + 0.5) * 0.5
    p = random_params(rng, n=4)
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, phi_model(w, p, T)))
    cfg = TrainConfig(m_cutoff=20.0, epochs=1, beta_reg=0.0)
    assert objective(p, slc, cfg) == pytest.approx(0.0, abs=1e-25)


def test_objective_at_least_beta_lambda(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    p = random_params(rng)
    lam_term = cfg.beta_reg * regularizer(p, slc.spectral.w, cfg.m_cutoff, cfg.alpha_reg)
    assert objective(p, slc, cfg) >= lam_term


def test_objective_matches_plain_summation(rng):
    # the objective measures the distance to the target's conjugate-symmetric part
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    p = random_params(rng)
    w = slc.spectral.w
    values = slc.spectral.values
    dw = w[1] - w[0]
    total = 0.0
    for i, wi in enumerate(w):
        weight = dw * (0.5 if i in (0, len(w) - 1) else 1.0)
        model = phi_model(np.array([wi]), p, T)[0]
        diff = model - 0.5 * (values[i] + np.conj(values[len(w) - 1 - i]))
        rho = abs(wi / cfg.m_cutoff) ** cfg.alpha_reg
        reg = rho * (float(ann_r(wi, p)) ** 2 + float(ann_i(wi, p)) ** 2)
        total += weight * (diff.real**2 + diff.imag**2 + cfg.beta_reg * reg)
    assert objective(p, slc, cfg) == pytest.approx(total, abs=1e-10)


def test_gradient_matches_finite_differences(rng):
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    worst = 0.0
    for trial in range(20):
        slc = toy_slice(rng, seed=trial + 50)
        p = random_params(rng, n=8)
        # scale weights of both signs reach the -sgn(scale) factor of the bump slope
        p.wr1[::2] *= -1.0
        p.wi1[1::2] *= -1.0
        ga = gradient(p, slc, cfg)
        vec = p.vector()
        for h in (1e-5, 1e-6):
            gf = np.empty_like(ga)
            for i in range(len(vec)):
                up, dn = vec.copy(), vec.copy()
                up[i] += h
                dn[i] -= h
                gf[i] = (objective(ElnnParams.from_vector(up), slc, cfg)
                         - objective(ElnnParams.from_vector(dn), slc, cfg)) / (2 * h)
            rel = np.max(np.abs(ga - gf)) / np.max(np.abs(gf))
            worst = max(worst, rel)
    assert worst < 1e-5


def test_gradient_zero_weights_fixes_scales(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    n = 6
    p = ElnnParams(0.18, np.zeros(n), np.linspace(0.05, 0.4, n),
                   np.zeros(n), np.linspace(0.05, 0.4, n))
    g = ElnnParams.from_vector(gradient(p, slc, cfg))
    np.testing.assert_array_equal(g.wr1, np.zeros(n))
    np.testing.assert_array_equal(g.wi1, np.zeros(n))


def test_gradient_invariant_under_grid_reflection(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    p = random_params(rng)
    g1 = gradient(p, slc, cfg)
    flipped = SimpleNamespace(
        T=T, spectral=SpectralCurve(-slc.spectral.w[::-1], np.conj(slc.spectral.values[::-1])))
    g2 = gradient(p, flipped, cfg)
    np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_loss_and_grad_matches_reference_epoch(rng):
    # the reference takes one (nodes, n) expit matrix per network and the scale
    # slope as its own temporary; here scales of both signs, zero outer weights,
    # and scales at which exp|w scale| overflows, so that e is 0 exactly
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    for trial in range(10):
        slc = toy_slice(rng, seed=trial + 50)
        p = random_params(rng, n=8)
        p.wr1[::2] *= -1.0
        p.wi1[1::2] *= -1.0
        p.wr0[3] = p.wi0[5] = 0.0
        p.wr1[1], p.wi1[2] = 900.0, -1000.0
        for nodes in (full_grid_nodes(slc), slc.spectral.fold()):
            loss, grad = _loss_and_grad(p, *nodes, T, cfg)
            want_loss, want_grad = oracles.elnn_loss_and_grad(p, *nodes, T, cfg)
            assert loss == pytest.approx(want_loss, rel=1e-13, abs=0)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-13, atol=0)


# --- training -------------------------------------------------------------------


def test_adam_single_step_reference():
    adam = Adam(lr=0.1)
    theta = np.array([1.0, -2.0])
    adam.step(theta, np.array([0.5, -1.0]))
    # first step: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
    np.testing.assert_allclose(theta, [1.0 - 0.1 * (0.5 / 0.5), -2.0 + 0.1], atol=1e-9)


def test_guard_keeps_angles_off_pole():
    angles = np.array([math.pi, math.pi - 1e-9, 1.0])
    out = _guard_pole(angles.copy())
    assert np.all(1.0 + np.cos(out) > 1e-6)
    assert out[2] == 1.0


def test_train_zero_epochs_returns_init(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=0, seed=5)
    init = ElnnParams.init_random(cfg.n_nodes, seed=cfg.seed)
    params, losses = train(slc, cfg)
    assert losses.size == 0
    assert params.s == init.s
    np.testing.assert_array_equal(params.wr0, init.wr0)


def test_train_deterministic(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=50, seed=3)
    p1, l1 = train(slc, cfg)
    p2, l2 = train(slc, cfg)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(p1.wr0, p2.wr0)
    assert p1.s == p2.s


def test_concurrent_training_runs_match_sequential(rng):
    # every run owns its workspaces, so runs on threads cannot touch each
    # other's arrays; more runs than cores and a short switch interval
    slices = [toy_slice(rng, seed=seed) for seed in (11, 12, 13)]
    cfg = TrainConfig(m_cutoff=20.0, epochs=40, seed=3)
    alone = [train(slc, cfg) for slc in slices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(slices)) as pool:
            together = list(pool.map(lambda slc: train(slc, cfg), slices, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (p1, l1), (p2, l2) in zip(alone, together):
        np.testing.assert_array_equal(l2, l1)
        np.testing.assert_array_equal(p2.vector(), p1.vector())


def test_train_reports_objective_loss(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1, seed=3)
    init = ElnnParams.init_random(cfg.n_nodes, seed=cfg.seed)
    _, losses = train(slc, cfg)
    assert losses[0] == objective(init, slc, cfg)


def test_train_diverges_with_absurd_learning_rate(rng):
    # ADAM steps are bounded by the rate, so only an overflow-scale rate can
    # push the regularizer term to infinity
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=10, seed=3, learning_rate=1e160)
    with pytest.raises(DivergedLoss):
        train(slc, cfg)


def test_folded_training_matches_full_grid_loss(rng):
    # on a conjugate-symmetric target the fold drops nothing: train's loss is
    # the full-grid loss of the reference implementation
    w = (np.arange(128) - 64 + 0.5) * 0.5
    truth = phi_model(w, ElnnParams.init_random(6, seed=21), T)
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, truth))
    cfg = TrainConfig(m_cutoff=20.0, epochs=3, seed=4)
    init = ElnnParams.init_random(cfg.n_nodes, seed=cfg.seed)
    _, losses = train(slc, cfg)
    want, _ = oracles.elnn_loss_and_grad(init, *full_grid_nodes(slc), T, cfg)
    assert losses[0] == pytest.approx(want, rel=1e-12)


def test_train_folds_every_target_onto_half_the_nodes(rng, monkeypatch):
    # a noisy target is far from conjugate-symmetric; training still runs on w > 0
    slc = toy_slice(rng)
    seen = []
    loss_and_grad = elnn._loss_and_grad

    def counted(params, w, *args, **kwargs):
        seen.append(len(w))
        return loss_and_grad(params, w, *args, **kwargs)

    monkeypatch.setattr(elnn, "_loss_and_grad", counted)
    train(slc, TrainConfig(m_cutoff=20.0, epochs=3))
    assert seen == [len(slc.spectral.w) // 2] * 3


def test_folded_gradient_matches_full_grid_reference(rng):
    # the fold moves the loss by the target's antisymmetric part only, a
    # constant, so the gradient is the full-grid one on any target
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    for trial in range(10):
        slc = toy_slice(rng, seed=trial + 80)
        p = random_params(rng, n=8)
        w, wts, tr, ti = full_grid_nodes(slc)
        want_loss, want_grad = oracles.elnn_loss_and_grad(p, w, wts, tr, ti, T, cfg)
        np.testing.assert_allclose(gradient(p, slc, cfg), want_grad, rtol=1e-12, atol=0)
        anti = 0.5 * (slc.spectral.values - np.conj(slc.spectral.values[::-1]))
        constant = float(np.sum(wts * np.abs(anti) ** 2))
        assert objective(p, slc, cfg) + constant == pytest.approx(want_loss, rel=1e-12)


@pytest.mark.parametrize("w", [(np.arange(255) - 127) * 0.5,       # odd length
                               (np.arange(256) - 128 + 0.6) * 0.5,  # off-centre
                               np.array([0.25])])
def test_target_needs_symmetric_grid(rng, w):
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, np.ones(len(w), dtype=complex)))
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    p = random_params(rng)
    for run in (lambda: objective(p, slc, cfg), lambda: gradient(p, slc, cfg),
                lambda: train(slc, cfg), lambda: calibrate_parametric("merton", slc),
                lambda: calibrate_parametric("kou", slc)):
        with pytest.raises(ValueError, match="pairs"):
            run()


# --- recovery on a clean target -------------------------------------------------


@pytest.fixture(scope="module")
def merton_quick_fit(merton_triplet):
    grid = SpectralGrid()
    curve = SpectralCurve(grid.w, char_fn(grid.w - 1j, merton_triplet, T)).clip(100.0)
    slc = SimpleNamespace(T=T, spectral=curve)
    cfg = TrainConfig(m_cutoff=100.0, epochs=4000, seed=0)
    params, losses = train(slc, cfg)
    return params, losses


def test_quick_fit_recovers_sigma(merton_quick_fit):
    params, _ = merton_quick_fit
    assert abs(params.sigma - 0.2) / 0.2 < 0.01


def test_loss_decreases(merton_quick_fit):
    _, losses = merton_quick_fit
    assert losses[-1] < 0.1 * losses[0]
    # non-increasing over 1000-epoch windows within a 5% band
    for i in range(0, len(losses) - 1000, 500):
        assert losses[i + 1000] <= 1.05 * losses[i]


# --- implied density and intensity ----------------------------------------------


def test_implied_density_zero_weights(default_grid):
    n = 20
    p = ElnnParams(0.2, np.zeros(n), np.full(n, 0.3), np.zeros(n), np.full(n, 0.3))
    x, dens = implied_levy_density(p, default_grid)
    np.testing.assert_array_equal(dens, np.zeros(default_grid.n))
    assert implied_lambda(p) == 0.0


def test_params_roundtrip_via_json(tmp_path, rng):
    from levycal.serialize import load_params, save_params

    p = random_params(rng)
    p = ElnnParams(abs(p.s), p.wr0, p.wr1, p.wi0, p.wi1)
    save_params(p, tmp_path / "p.json")
    q = load_params(tmp_path / "p.json")
    assert q.sigma == p.sigma
    np.testing.assert_array_equal(q.wr0, p.wr0)
    np.testing.assert_array_equal(q.wi1, p.wi1)
