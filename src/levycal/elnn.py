"""Constrained two-network model of the jump spectrum h(w) and its trainer.

h(w), the Fourier transform of e^x dnu/dx, is approximated by two groups of
sigmoid-product nodes: an even real part and an odd imaginary part,

    ann_r(w) = sum_j wr0_j sig(wr1_j w) sig(-wr1_j w),
    ann_i(w) = sum_j wi0_j sig(wi1_j w) sig(-wi1_j w) w.

Every node bump is evaluated at real w as e(1 - e) with
e = sig(-|a|) = 1 / (1 + exp|a|), a = w * scale: exactly even in w, and free
of the cancellation in 1 - sig(a) deep in the tails (where exp|a| overflows,
e is 0 exactly).  Both networks share one block of bumps, one row per scale
weight [wr1, wi1] and one column per frequency, so that each pass over it is
a contiguous broadcast of |scale| against |w|.  The slope of a bump in its
scale weight is -sgn(scale) |w| (1 - 2e) e(1 - e); with PE = e(1 - e) e,
(1 - 2e) e(1 - e) = e(1 - e) - 2 PE, so a sum of row * slope over w is two
products of the row times |w| with the bump block and with PE.

The derived constants
    c0 = sum_j wr0_j / 4                      (= ann_r(0), total e^x jump mass)
    c1 = sum_j [wr0_j/4 - wr0_j/(2(1+cos wr1_j)) + wi0_j/(2(1+cos wi1_j))]
follow from evaluating the node product at the imaginary unit, where
sig(ai) sig(-ai) = 1 / (2(1 + cos a)).  Their difference c0 - c1 is the jump
intensity.  The shifted characteristic function of the model is

    Phi(w - i) = exp(R) (cos Arg + i sin Arg),
    R   = T(-sigma^2 w^2 / 2 + ann_r(w) - c0),
    Arg = T( sigma^2 w / 2   + ann_i(w) - c1 w).

The model is conjugate-symmetric by construction (Re Phi even, Im Phi odd in
w), so on a +-symmetric grid its L2 distance to any target is the distance on
w > 0 to the target's conjugate-symmetric part, with the mirrored trapezoid
weights added, plus the target's antisymmetric part: a constant that no
parameter moves (about 1e-14 on noisy virtual-market targets).  The loss is
measured on that fold (SpectralCurve.fold), over half the nodes.  Training
minimizes it plus beta times the spectral regularizer Lambda, using
full-batch ADAM with an analytic gradient (including the chain rule through
c0 and c1).  The optimizer steps one flat parameter vector laid out as
[s, wr0, wr1, wi0, wi1] (ElnnParams.vector); the gradient comes back in the
same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, ResidueTooLarge
from .spectral import SpectralGrid, _inverse_nodes

_GUARD = 1e-6  # lower bound kept on 1 + cos(weight) near the c1 pole
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # ADAM moment decays and denominator floor


@dataclass
class ElnnParams:
    """Trainable state: volatility through sigma = |s|, plus four weight groups."""

    s: float
    wr0: np.ndarray
    wr1: np.ndarray
    wi0: np.ndarray
    wi1: np.ndarray

    @property
    def sigma(self):
        return abs(self.s)

    @property
    def n_nodes(self):
        return len(self.wr0)

    @property
    def c0(self):
        return _constants(self)[0]

    @property
    def c1(self):
        return _constants(self)[1]

    @classmethod
    def init_random(cls, n_nodes=20, seed=0):
        """Small near-diffusion start: outer weights ~ U(-0.05, 0.05), scales
        ~ U(0.02, 0.5) which keeps 1 + cos(.) far from the pole."""
        rng = np.random.default_rng(seed)
        return cls(
            s=0.15,
            wr0=rng.uniform(-0.05, 0.05, n_nodes),
            wr1=rng.uniform(0.02, 0.5, n_nodes),
            wi0=rng.uniform(-0.05, 0.05, n_nodes),
            wi1=rng.uniform(0.02, 0.5, n_nodes),
        )

    def vector(self):
        """A new flat array [s, wr0, wr1, wi0, wi1]."""
        return np.concatenate(([self.s], self.wr0, self.wr1, self.wi0, self.wi1))

    @classmethod
    def from_vector(cls, theta):
        """Parameters whose weight groups are views into the flat array theta."""
        wr0, wr1, wi0, wi1 = np.split(theta[1:], 4)
        return cls(float(theta[0]), wr0, wr1, wi0, wi1)


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    m_cutoff: float
    epochs: int = 30_000
    alpha_reg: float = 4.0
    beta_reg: float = 1e-3
    seed: int = 0
    n_nodes: int = 20
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.m_cutoff <= 0:
            raise ValueError("m_cutoff must be positive")
        if self.alpha_reg <= 1:
            raise ValueError("alpha_reg must exceed 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.beta_reg < 0:
            raise ValueError(f"beta_reg must be nonnegative, got {self.beta_reg}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be at least 1, got {self.n_nodes}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


def _bump(w, scale, e=None, bump=None):
    """Node bumps sig(a) sig(-a) at a = scale_j * w: one row per scale weight,
    then the axes of w.

    The bump is e(1 - e) with e = 1 / (1 + exp|a|); (bump, e) are written into
    the given arrays when there are any.
    """
    e = np.multiply.outer(np.abs(scale), np.abs(w), out=e)
    with np.errstate(over="ignore"):  # exp|a| = inf gives e = 0 exactly
        np.exp(e, out=e)
    e += 1.0
    np.reciprocal(e, out=e)
    bump = np.subtract(1.0, e, out=bump)
    bump *= e
    return bump, e


def _forward(w, params, e=None, bump=None):
    """Both networks at real w, scalar or array.

    Returns (ann_r(w), ann_i(w), bump, e) with bump and e the shared block of
    _bump over the scales [wr1, wi1]: r-group rows first, then i-group rows.
    """
    w = np.asarray(w)
    n = params.n_nodes
    bump, e = _bump(w, np.concatenate((params.wr1, params.wi1)), e, bump)
    annr = np.tensordot(params.wr0, bump[:n], 1)
    anni = np.tensordot(params.wi0, bump[n:], 1) * w
    return annr, anni, bump, e


def _constants(params):
    """(c0, c1, ur, ui) with the per-node pole factors u = 1 / (2(1 + cos scale))."""
    ur = 1.0 / (2.0 * (1.0 + np.cos(params.wr1)))
    ui = 1.0 / (2.0 * (1.0 + np.cos(params.wi1)))
    c0 = 0.25 * float(np.sum(params.wr0))
    c1 = c0 - float(np.sum(params.wr0 * ur) - np.sum(params.wi0 * ui))
    return c0, c1, ur, ui


def _phi_parts(w, annr, anni, sigma, c0, c1, T):
    """Real and imaginary parts of Phi(w - i) = exp(R) (cos Arg + i sin Arg)."""
    sig2 = sigma * sigma
    R = T * (-0.5 * sig2 * w**2 + annr - c0)
    arg = T * (0.5 * sig2 * w + anni - c1 * w)
    expR = np.exp(R)
    return expR * np.cos(arg), expR * np.sin(arg)


def ann_r(w, params):
    """Even real-part network; scalar or array real w."""
    return _forward(w, params)[0]


def ann_i(w, params):
    """Odd imaginary-part network (trailing factor w)."""
    return _forward(w, params)[1]


def phi_model(w, params, T):
    """Model Phi(w - i) for real frequencies w."""
    w = np.asarray(w, dtype=float)
    annr, anni, _, _ = _forward(w, params)
    c0, c1, _, _ = _constants(params)
    pr, pi = _phi_parts(w, annr, anni, params.sigma, c0, c1, T)
    return pr + 1j * pi


def objective(params, market_slice, config):
    """Trapezoid L2 distance to the target's conjugate-symmetric part, measured
    on w > 0, plus beta times the regularizer."""
    w, wts, tr, ti = market_slice.spectral.fold()
    loss, _ = _loss_and_grad(params, w, wts, tr, ti, market_slice.T, config, want_grad=False)
    return loss


def gradient(params, market_slice, config):
    """Exact gradient of the objective, laid out like ElnnParams.vector()."""
    w, wts, tr, ti = market_slice.spectral.fold()
    _, grad = _loss_and_grad(params, w, wts, tr, ti, market_slice.T, config, want_grad=True)
    return grad


class _Workspace:
    """What every epoch of one training run reuses: the per-run constants of the
    quadrature nodes and the three (2n, nodes) arrays of the shared bump block.

    Each run builds its own, so runs on concurrent threads share no arrays.
    """

    def __init__(self, w, wts, config, n_nodes):
        self.aw = np.abs(w)
        self.w2 = w * w
        self.wrho = wts * np.abs(w / config.m_cutoff) ** config.alpha_reg  # regularizer weights
        self.e, self.bump, self.pe = np.empty((3, 2 * n_nodes, len(w)))


def _loss_and_grad(params, w, wts, target_re, target_im, T, config, want_grad=True, work=None):
    """Fused forward/backward pass over the given quadrature nodes.

    Returns the loss and its gradient as a flat vector laid out like
    ElnnParams.vector() (None when want_grad is False).  work is the
    _Workspace of a training run over these nodes; without one the call
    builds its own.
    """
    if work is None:
        work = _Workspace(w, wts, config, params.n_nodes)
    n = params.n_nodes
    wr0, wr1, wi0, wi1, sigma = params.wr0, params.wr1, params.wi0, params.wi1, params.sigma
    annr, anni, P, e = _forward(w, params, work.e, work.bump)
    c0, c1, ur, ui = _constants(params)
    pr, pi = _phi_parts(w, annr, anni, sigma, c0, c1, T)
    dr = pr - target_re
    di = pi - target_im

    reg = float(np.sum(work.wrho * (annr**2 + anni**2)))
    loss = float(np.sum(wts * (dr**2 + di**2))) + config.beta_reg * reg
    if not want_grad:
        return loss, None

    GR = 2.0 * wts * (dr * pr + di * pi)      # coefficient of dR/dtheta
    GA = 2.0 * wts * (-dr * pi + di * pr)     # coefficient of dArg/dtheta
    GAw = GA * w
    sum_GA_w = float(np.sum(GAw))
    sum_GR = float(np.sum(GR))

    # d(1/(2(1+cos a)))/da, the pole-side derivative of the c1 closed form
    vr = np.sin(wr1) / (2.0 * (1.0 + np.cos(wr1)) ** 2)
    vi = np.sin(wi1) / (2.0 * (1.0 + np.cos(wi1)) ** 2)

    # regularizer residuals
    LR = (2.0 * config.beta_reg) * work.wrho * annr
    LI = (2.0 * config.beta_reg) * work.wrho * anni

    g_s = np.sign(params.s) * T * sigma * (-float(np.sum(GR * work.w2)) + sum_GA_w)

    # Each network's [data, regularizer] rows, then the same rows times |w|,
    # against that network's bump rows: (network, row, w) @ (network, w, node).
    rows = np.stack((GR, LR, GAw, LI * w)).reshape(2, 2, -1)
    rows = np.concatenate((rows, rows * work.aw), axis=1)
    bumps = P.reshape(2, n, -1).transpose(0, 2, 1)
    pe = np.multiply(P, e, out=work.pe).reshape(2, n, -1).transpose(0, 2, 1)
    dots = rows @ bumps
    # scale slopes: sum over w of row |w| (1 - 2e) bump = (row |w|) . bump
    # - 2 (row |w|) . PE, times the per-node sign -sgn(scale)
    slopes = (dots[:, 2:] - 2.0 * (rows[:, 2:] @ pe)) * -np.sign((wr1, wi1))[:, None]
    (dot_P, dot_Q), (dot_PW, dot_QW) = dots[:, :2], slopes

    g_wr0 = T * (dot_P[0] - 0.25 * sum_GR - (0.25 - ur) * sum_GA_w) + dot_P[1]
    g_wi0 = T * (dot_Q[0] - ui * sum_GA_w) + dot_Q[1]
    g_wr1 = wr0 * (T * (dot_PW[0] + vr * sum_GA_w) + dot_PW[1])
    g_wi1 = wi0 * (T * (dot_QW[0] - vi * sum_GA_w) + dot_QW[1])

    return loss, np.concatenate(([g_s], g_wr0, g_wr1, g_wi0, g_wi1))


class Adam:
    """Plain ADAM over one flat parameter vector, stepped in place."""

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        self.m = _BETA1 * self.m + (1.0 - _BETA1) * grad
        self.v = _BETA2 * self.v + (1.0 - _BETA2) * (grad * grad)
        theta -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + _EPS)


def _guard_pole(angles):
    """Nudge any scale weight whose 1 + cos(.) sits inside the guard band."""
    bad = 1.0 + np.cos(angles) <= _GUARD
    while np.any(bad):
        angles[bad] += 1e-3
        bad = 1.0 + np.cos(angles) <= _GUARD
    return angles


def train(market_slice, config):
    """Full-batch ADAM on one spectral target from
    ElnnParams.init_random(config.n_nodes, config.seed); deterministic.

    Returns the trained parameters and the per-epoch objective trace.  Raises
    DivergedLoss as soon as the loss or its gradient stops being finite.
    """
    w, wts, tr, ti = market_slice.spectral.fold()
    work = _Workspace(w, wts, config, config.n_nodes)
    theta = ElnnParams.init_random(config.n_nodes, seed=config.seed).vector()
    scales = theta[1:].reshape(4, config.n_nodes)[1::2]  # wr1 and wi1 rows, views into theta
    _guard_pole(scales)
    adam = Adam(config.learning_rate)
    losses = np.empty(config.epochs)
    # a diverging run overflows on its way to the non-finite value that stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss, grad = _loss_and_grad(ElnnParams.from_vector(theta), w, wts, tr, ti,
                                        market_slice.T, config, work=work)
            if not math.isfinite(loss):
                raise DivergedLoss(f"loss became non-finite at epoch {epoch}")
            if not np.isfinite(grad).all():
                raise DivergedLoss(f"gradient became non-finite at epoch {epoch}")
            losses[epoch] = loss
            adam.step(theta, grad)
            _guard_pole(scales)
    return ElnnParams.from_vector(theta), losses


def implied_levy_density(params, grid=None):
    """Recover (x, dnu/dx) by inverse transform of h(w) = ann_r + i ann_i.

    Values far out in |x| sit below the transform's rounding floor once the
    e^{-x} factor is applied; restrict attention to the region of interest.
    """
    grid = grid or SpectralGrid()
    annr, anni, _, _ = _forward(grid.w, params)
    g = _inverse_nodes(grid, annr + 1j * anni)
    residue = float(np.max(np.abs(g.imag)))
    if residue > 1e-6:
        raise ResidueTooLarge(f"imaginary residue {residue:.3e} in density recovery")
    x = grid.k
    return x.copy(), np.exp(-x) * g.real


def implied_lambda(params):
    """Jump intensity implied by the trained constants: c0 - c1."""
    return params.c0 - params.c1
