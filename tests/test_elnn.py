import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from levycal import (ElnnParams, SpectralCurve, SpectralGrid, TrainConfig, calibrate_parametric,
                     elnn, implied_levy_density, train)
from levycal.elnn import (_BLOCK_FLOATS, Adam, _block_bounds, _block_step, _constants,
                         _guard_pole, _loss_and_grad, _Workspace)
from levycal.errors import DivergedLoss
from levycal.spectral import _inverse_nodes, trapezoid_weights

import oracles
from oracles import ann_i, ann_r, elnn_gradient, elnn_objective

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
    base = ElnnParams.init_random(n_nodes, seed=seed or 7).phi_shifted(w, T)
    target = base + noise * (rng.normal(size=n_w) + 1j * rng.normal(size=n_w))
    return SimpleNamespace(T=T, spectral=SpectralCurve(w, target))


def full_grid_nodes(slc):
    """The slice's own nodes, trapezoid weights and target parts, unfolded."""
    w, values = slc.spectral.w, slc.spectral.values
    return w, trapezoid_weights(len(w)) * (w[1] - w[0]), values.real, values.imag


def regularizer(p, w, m_cutoff, alpha_reg=4.0):
    """Trapezoid value of integral |w/M|^alpha (ann_r^2 + ann_i^2) dw: the
    objective with beta 1 against the model itself, whose data term is 0."""
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, p.phi_shifted(w, T)))
    cfg = TrainConfig(m_cutoff=m_cutoff, alpha_reg=alpha_reg, beta_reg=1.0)
    return elnn_objective(p, slc, cfg)


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
        val = p.phi_shifted(np.array([0.0]), T)[0]
        assert abs(val - 1.0) < 1e-15


def test_phi_model_pure_diffusion_closed_form():
    n = 5
    p = ElnnParams(0.2, np.zeros(n), np.full(n, 0.3), np.zeros(n), np.full(n, 0.3))
    val = p.phi_shifted(np.array([10.0]), T)[0]
    # exp(T(-sigma^2 w^2/2 + i sigma^2 w/2)) = e^{-0.1} (cos 0.01 + i sin 0.01)
    want = math.exp(-0.1) * complex(math.cos(0.01), math.sin(0.01))
    assert val == pytest.approx(want, abs=1e-12)


# --- blocked network evaluation -------------------------------------------------


def full_block_phi(w, p):
    """phi_shifted from one bump block over all of w, as the allocating epoch builds it."""
    w = np.asarray(w, dtype=float)
    c0, c1, _, _ = _constants(p)
    pr, pi = oracles._allocating_phi_parts(w, ann_r(w, p), ann_i(w, p), p.sigma, c0, c1, T)
    return pr + 1j * pi


def full_block_density(p, grid):
    """implied_levy_density's dnu/dx from one bump block over the whole grid."""
    g = _inverse_nodes(grid, ann_r(grid.w, p) + 1j * ann_i(grid.w, p))
    return np.exp(-grid.k) * g.real


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    bits = [np.asarray(a).reshape(-1).view(np.int64) for a in (got, want)]
    np.testing.assert_array_equal(*bits)


# Beyond one block (plus the 3 nodes the last block may take up), lengths are
# multiples of 256.  A multi-threaded BLAS splits a gemv's w nodes into one
# share per thread and sums a share's last (length mod 4) nodes in another
# order, so there a blocked and a full pass agree bit for bit only where every
# share is a multiple of 4 long: true for power-of-two grids on up to 64
# threads.  With one BLAS thread they agree at every length; the next test
# checks that.
@st.composite
def _nodes_and_length(draw):
    n_nodes = draw(st.integers(1, 120))
    length = draw(st.one_of(st.integers(1, _block_step(n_nodes) + 3),
                            st.integers(1, 40).map(lambda j: 256 * j)))
    return n_nodes, length


@settings(max_examples=60, deadline=None)
@given(nodes_and_length=_nodes_and_length(), two_d=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(nodes_and_length=(1, 1), two_d=False, seed=0)
@example(nodes_and_length=(120, 5 * 256), two_d=True, seed=1)
def test_blocked_evaluation_matches_full_block(nodes_and_length, two_d, seed):
    n_nodes, length = nodes_and_length
    p = random_params(np.random.default_rng(seed), n=n_nodes)
    w = np.random.default_rng(seed).uniform(-400.0, 400.0, length)
    if two_d and length % 2 == 0:
        w = w.reshape(2, -1)
    assert_same_bits(p.phi_shifted(w, T), full_block_phi(w, p))
    assert_same_bits(p.phi_shifted(float(w.flat[0]), T), full_block_phi(float(w.flat[0]), p))
    grid = SpectralGrid(2 ** (2 + seed % 13), 0.05 + 0.01 * (seed % 7))
    x, dens = implied_levy_density(p, grid)
    np.testing.assert_array_equal(x, grid.k)
    assert_same_bits(dens, full_block_density(p, grid))


def test_blocked_evaluation_where_exp_overflows():
    # at scales of 1,000, exp|a| overflows wherever |w| > 0.71, on almost all of the
    # grid; the pass must keep that overflow silent (pytest turns its warning into an
    # error) and still give e = 0 exactly there
    p = random_params(np.random.default_rng(5), n=6)
    p.wr1[:] = p.wi1[:] = 1000.0
    grid = SpectralGrid(2**14, 0.05)
    assert_same_bits(p.phi_shifted(grid.w, T), full_block_phi(grid.w, p))
    assert_same_bits(implied_levy_density(p, grid)[1], full_block_density(p, grid))


_ONE_THREAD_CHECK = """
import numpy as np
from levycal import SpectralGrid, implied_levy_density
from levycal.elnn import _block_step
import test_elnn as t

for n_nodes in (1, 3, 20, 57, 120):
    p = t.random_params(np.random.default_rng(n_nodes), n=n_nodes)
    step = _block_step(n_nodes)
    for length in (0, 1, 2, 3, 4, 5, 7, step - 1, step, step + 1, step + 2, step + 3,
                   step + 4, step + 5, 2 * step + 3, 3 * step + 7, 5001):
        print(n_nodes, length)
        w = np.random.default_rng(length).uniform(-400.0, 400.0, length)
        t.assert_same_bits(p.phi_shifted(w, t.T), t.full_block_phi(w, p))
        t.assert_same_bits(p.phi_shifted(w.reshape(1, -1), t.T), t.full_block_phi(w, p)[None])
    grid = SpectralGrid(2**14, 0.05)
    t.assert_same_bits(implied_levy_density(p, grid)[1], t.full_block_density(p, grid))
"""


def test_blocked_evaluation_matches_full_block_on_one_blas_thread():
    # a fresh interpreter, as a BLAS reads its thread count when numpy loads it
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(elnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(tests), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _ONE_THREAD_CHECK], env=env, cwd=tests,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout.splitlines()[-1:] + [proc.stderr]


def test_network_evaluation_memory_is_one_block():
    # a 100-node network on a 2^16-node grid: the full (200, 2^16) bump block and its
    # e array take 210 MB of float64
    grid = SpectralGrid(2**16, 0.05)
    p = ElnnParams.init_random(100, 0)
    w = grid.w
    full_block = 2 * (2 * p.n_nodes) * grid.n * 8
    for evaluate in (lambda: p.phi_shifted(w, T), lambda: implied_levy_density(p, grid)):
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_block / 10


def test_workspace_size_does_not_grow_with_nodes():
    # 8,000 and 64,000 folded nodes take 2 and 16 blocks of 4,096 nodes at 20 network
    # nodes, and 10 and 79 blocks of 816 at 100; every block's arrays are views into
    # one buffer sized for one block.  Two (2 n_nodes, nodes) arrays and 22
    # node-sized vectors over all the nodes would take 45 MB more at 64,000 nodes
    # than at 8,000, with 20 network nodes
    def allocated(size, n_nodes):
        """Bytes of array data that a new workspace holds, and the workspace."""
        tracemalloc.start()
        try:
            work = _Workspace(size, n_nodes)
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
        return sum(stat.size for stat in arrays.statistics("filename")), work

    for n_nodes in (20, 100):
        step = _block_step(n_nodes)
        small, work = allocated(8000, n_nodes)
        assert allocated(64_000, n_nodes)[0] == small
        # the bump block and e, |w|, ann_r, ann_i, pr, pi, dr, di, the regularizer
        # weights, three scratch vectors and the backward pass's eight rows
        buffer = (4 * n_nodes + 3 + 16) * step * 8
        # beside it, two (2, 4, n) and two (2, 2, n) arrays for the backward matmuls,
        # and |[wr1, wi1]|
        assert small == buffer + (16 + 8 + 2) * n_nodes * 8
        assert 2 * n_nodes * step <= _BLOCK_FLOATS
        blocks = list(work.blocks())
        assert [at for at, _ in blocks] == [slice(*b) for b in _block_bounds(8000, n_nodes)]
        assert blocks[0][1].e.shape == blocks[0][1].bump.shape == (2 * n_nodes, step)
        assert blocks[0][1].rows.shape == (2, 4, step)


def test_property8_identity(rng):
    for _ in range(1000):
        p = random_params(rng, n=5)
        lhs = float(np.sum(p.wr0 / (2 * (1 + np.cos(p.wr1)))
                           - p.wi0 / (2 * (1 + np.cos(p.wi1)))))
        c0, c1, _, _ = _constants(p)
        assert lhs == pytest.approx(c0 - c1, abs=1e-12)


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
        c0, c1, _, _ = _constants(p)
        assert at_i.real == pytest.approx(c0 - c1, abs=1e-12)
        assert c0 == pytest.approx(float(ann_r(0.0, p)), abs=1e-14)


# --- regularizer ----------------------------------------------------------------


def test_regularizer_zero_weights(default_grid):
    n = 20
    p = ElnnParams(0.2, np.zeros(n), np.full(n, 0.3), np.zeros(n), np.full(n, 0.3))
    assert regularizer(p, default_grid.w, 10.0) == 0.0


def test_regularizer_reflection_invariant(rng, default_grid):
    p = random_params(rng)
    w = default_grid.w
    # the data term against the model itself is exactly 0
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, p.phi_shifted(w, T)))
    assert elnn_objective(p, slc, TrainConfig(m_cutoff=10.0, beta_reg=0.0)) == 0.0
    assert regularizer(p, w, 10.0) == pytest.approx(regularizer(p, -w[::-1], 10.0), rel=1e-13)


def test_regularizer_matches_quadrature(default_grid):
    p = ElnnParams(0.2, np.array([1.0]), np.array([1.0]), np.array([0.0]), np.array([1.0]))
    val = regularizer(p, default_grid.w, 10.0, alpha_reg=4.0)
    assert val == pytest.approx(REG_SINGLE_NODE, rel=1e-4)


# --- objective and gradient -----------------------------------------------------


def test_objective_zero_at_truth(rng):
    w = (np.arange(128) - 64 + 0.5) * 0.5
    p = random_params(rng, n=4)
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, p.phi_shifted(w, T)))
    cfg = TrainConfig(m_cutoff=20.0, epochs=1, beta_reg=0.0)
    assert elnn_objective(p, slc, cfg) == pytest.approx(0.0, abs=1e-25)


def test_objective_at_least_beta_lambda(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    p = random_params(rng)
    lam_term = cfg.beta_reg * regularizer(p, slc.spectral.w, cfg.m_cutoff, cfg.alpha_reg)
    assert elnn_objective(p, slc, cfg) >= lam_term


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
        model = p.phi_shifted(np.array([wi]), T)[0]
        diff = model - 0.5 * (values[i] + np.conj(values[len(w) - 1 - i]))
        rho = abs(wi / cfg.m_cutoff) ** cfg.alpha_reg
        reg = rho * (float(ann_r(wi, p)) ** 2 + float(ann_i(wi, p)) ** 2)
        total += weight * (diff.real**2 + diff.imag**2 + cfg.beta_reg * reg)
    assert elnn_objective(p, slc, cfg) == pytest.approx(total, abs=1e-10)


def test_gradient_matches_finite_differences(rng):
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    worst = 0.0
    for trial in range(20):
        slc = toy_slice(rng, seed=trial + 50)
        p = random_params(rng, n=8)
        # scale weights of both signs reach the -sgn(scale) factor of the bump slope
        p.wr1[::2] *= -1.0
        p.wi1[1::2] *= -1.0
        ga = elnn_gradient(p, slc, cfg)
        vec = p.vector()
        for h in (1e-5, 1e-6):
            gf = np.empty_like(ga)
            for i in range(len(vec)):
                up, dn = vec.copy(), vec.copy()
                up[i] += h
                dn[i] -= h
                gf[i] = (elnn_objective(ElnnParams.from_vector(up), slc, cfg)
                         - elnn_objective(ElnnParams.from_vector(dn), slc, cfg)) / (2 * h)
            rel = np.max(np.abs(ga - gf)) / np.max(np.abs(gf))
            worst = max(worst, rel)
    assert worst < 1e-5


def test_gradient_zero_weights_fixes_scales(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    n = 6
    p = ElnnParams(0.18, np.zeros(n), np.linspace(0.05, 0.4, n),
                   np.zeros(n), np.linspace(0.05, 0.4, n))
    g = ElnnParams.from_vector(elnn_gradient(p, slc, cfg))
    np.testing.assert_array_equal(g.wr1, np.zeros(n))
    np.testing.assert_array_equal(g.wi1, np.zeros(n))


def test_gradient_invariant_under_grid_reflection(rng):
    slc = toy_slice(rng)
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    p = random_params(rng)
    g1 = elnn_gradient(p, slc, cfg)
    flipped = SimpleNamespace(
        T=T, spectral=SpectralCurve(-slc.spectral.w[::-1], np.conj(slc.spectral.values[::-1])))
    g2 = elnn_gradient(p, flipped, cfg)
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
            loss, grad = _loss_and_grad(p, *nodes, T, cfg, _Workspace(len(nodes[0]), 8))
            want_loss, want_grad = oracles.elnn_loss_and_grad(p, *nodes, T, cfg)
            assert loss == pytest.approx(want_loss, rel=1e-13, abs=0)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-13, atol=0)


def allocating_epoch_cases(rng, n_w, dw, n_nodes):
    """A folded toy target of n_w // 2 nodes and parameters with scales of both
    signs, zero outer weights, and scales at which exp|w scale| overflows."""
    nodes = toy_slice(rng, n_w=n_w, dw=dw).spectral.fold()
    for trial in range(3):
        p = random_params(rng, n=n_nodes)
        p.wr1[::2] *= -1.0
        p.wi1[1::2] *= -1.0
        p.wr0[trial] = p.wi0[-1 - trial] = 0.0
        p.wr1[1 + trial], p.wi1[2] = 900.0, -1000.0
        yield p, nodes


# 512 nodes take one block and one row block (64 rows) at 20 network nodes, and one
# block and two row blocks at 37; 8,000 nodes take one block at 7 network nodes, in
# row blocks of 4 rows, which do not divide 2 * 7 rows; two blocks of 4,096 and 3,904
# nodes at 20; and at 100, nine blocks of 816 nodes and a last block of 656.  1,635
# nodes at 100 take a block of 816 and one of 819, which takes up a remainder of 3
_EPOCH_BLOCKS = {(1024, 20): [512], (1024, 37): [512], (16_000, 7): [8000],
                 (16_000, 20): [4096, 3904], (16_000, 100): [816] * 9 + [656],
                 (3270, 100): [816, 819]}


@pytest.mark.parametrize("n_w, dw, n_nodes", [(1024, 0.2, 20), (1024, 0.2, 37),
                                              (16_000, 0.0125, 7), (16_000, 0.0125, 20),
                                              (16_000, 0.0125, 100), (3270, 0.06, 100)])
def test_epoch_matches_allocating_epoch(rng, n_w, dw, n_nodes):
    cfg = TrainConfig(m_cutoff=100.0)
    for p, nodes in allocating_epoch_cases(rng, n_w, dw, n_nodes):
        work = _Workspace(len(nodes[0]), n_nodes)
        assert len(nodes[0]) == n_w // 2
        assert [len(block.aw) for _, block in work.blocks()] == _EPOCH_BLOCKS[n_w, n_nodes]
        for want_grad in (True, False, True):  # the workspace is reused across calls
            loss, grad = _loss_and_grad(p, *nodes, T, cfg, want_grad=want_grad, work=work)
            want_loss, want = oracles.elnn_allocating_epoch(p, *nodes, T, cfg,
                                                            want_grad=want_grad)
            assert loss == want_loss
            if want_grad:
                assert grad.tobytes() == want.tobytes()
            else:
                assert grad is None and want is None


@pytest.mark.parametrize("n_w, dw, n_nodes", [(1024, 0.2, 20), (1024, 0.2, 37),
                                              (16_000, 0.0125, 7)])
def test_evaluation_equals_the_epoch_forward(rng, n_w, dw, n_nodes):
    # one block holds every node, so its Phi parts after the epoch are Phi on all of
    # w; pr + 1j * pi turns -0.0 into +0.0, so the assembled values are compared
    cfg = TrainConfig(m_cutoff=100.0)
    for p, nodes in allocating_epoch_cases(rng, n_w, dw, n_nodes):
        work = _Workspace(len(nodes[0]), n_nodes)
        (_, block), = work.blocks()
        _loss_and_grad(p, *nodes, T, cfg, work, want_grad=False)
        assert (block.pr + 1j * block.pi).tobytes() == p.phi_shifted(nodes[0], T).tobytes()


def test_training_matches_allocating_epoch(rng, monkeypatch):
    slc = toy_slice(rng, n_w=16_000, dw=0.0125)
    cfg = TrainConfig(m_cutoff=100.0, epochs=50, seed=3)
    params, losses = train(slc, cfg)
    monkeypatch.setattr(elnn, "_loss_and_grad", oracles.elnn_allocating_epoch)
    want_params, want_losses = train(slc, cfg)
    assert losses.tobytes() == want_losses.tobytes()
    assert params.vector().tobytes() == want_params.vector().tobytes()


def test_epoch_allocates_no_node_sized_array(rng):
    # 8,000 folded nodes and 20 network nodes, the paper's defaults: the epoch
    # allocated about 754 KiB of node-sized temporaries before its workspace
    # held them all; one node-sized vector is 62.5 KiB
    nodes = toy_slice(rng, n_w=16_000, dw=0.0125).spectral.fold()
    cfg = TrainConfig()
    p = ElnnParams.init_random(cfg.n_nodes, 0)
    work = _Workspace(len(nodes[0]), cfg.n_nodes)
    for want_grad in (True, False):
        _loss_and_grad(p, *nodes, T, cfg, want_grad=want_grad, work=work)
        tracemalloc.start()
        try:
            _loss_and_grad(p, *nodes, T, cfg, want_grad=want_grad, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


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
    assert losses[0] == elnn_objective(init, slc, cfg)


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
    truth = ElnnParams.init_random(6, seed=21).phi_shifted(w, T)
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
        np.testing.assert_allclose(elnn_gradient(p, slc, cfg), want_grad, rtol=1e-12, atol=0)
        anti = 0.5 * (slc.spectral.values - np.conj(slc.spectral.values[::-1]))
        constant = float(np.sum(wts * np.abs(anti) ** 2))
        assert elnn_objective(p, slc, cfg) + constant == pytest.approx(want_loss, rel=1e-12)


@pytest.mark.parametrize("w", [(np.arange(255) - 127) * 0.5,       # odd length
                               (np.arange(256) - 128 + 0.6) * 0.5,  # off-centre
                               np.array([0.25])])
def test_target_needs_symmetric_grid(rng, w):
    slc = SimpleNamespace(T=T, spectral=SpectralCurve(w, np.ones(len(w), dtype=complex)))
    cfg = TrainConfig(m_cutoff=20.0, epochs=1)
    p = random_params(rng)
    for run in (lambda: elnn_objective(p, slc, cfg), lambda: elnn_gradient(p, slc, cfg),
                lambda: train(slc, cfg), lambda: calibrate_parametric("merton", slc, budget=1),
                lambda: calibrate_parametric("kou", slc, budget=1)):
        with pytest.raises(ValueError, match="pairs"):
            run()


# --- recovery on a clean target -------------------------------------------------


@pytest.fixture(scope="module")
def merton_quick_fit(merton_triplet):
    grid = SpectralGrid()
    curve = SpectralCurve(grid.w, merton_triplet.phi_shifted(grid.w, T)).clip(100.0)
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
    assert p.lam == 0.0


@given(n_nodes=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(1e-6, 50.0))
def test_lam_is_c0_minus_c1(n_nodes, seed, spread):
    # the jump intensity a fit reports is c0 - c1 of the derived constants, exactly
    p = random_params(np.random.default_rng(seed), n=n_nodes, spread=spread)
    c0, c1, _, _ = _constants(p)
    assert p.lam == c0 - c1
    assert p.kind == "elnn" and p.sigma == abs(p.s)


def test_params_roundtrip_via_json(tmp_path, rng):
    from levycal.serialize import load_fit, save_params

    p = random_params(rng)
    p = ElnnParams(abs(p.s), p.wr0, p.wr1, p.wi0, p.wi1)
    save_params(p, tmp_path / "p.json")
    q = load_fit(tmp_path / "p.json")
    assert q.sigma == p.sigma
    np.testing.assert_array_equal(q.wr0, p.wr0)
    np.testing.assert_array_equal(q.wi1, p.wi1)
