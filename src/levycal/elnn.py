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
a contiguous broadcast of |scale| against |w|.  The pass walks the frequencies
in blocks of a fixed number of floats, so its memory does not grow with the
network nodes times the frequencies.  The slope of a bump in its
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
c0 and c1); an epoch adds each block's share of the loss's and the
gradient's sums over w.  The optimizer steps one flat parameter vector laid
out as [s, wr0, wr1, wi0, wi1] (ElnnParams.vector); the gradient comes back
in the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, NonFinite
from .spectral import SpectralGrid, inverse_real

_GUARD = 1e-6  # lower bound kept on 1 + cos(weight) near the c1 pole
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # ADAM moment decays and denominator floor


@dataclass
class ElnnParams:
    """Trainable state: volatility through sigma = |s|, plus four weight groups; as a
    fitted law it gives a jump model's kind, sigma, lam and phi_shifted(w, T)."""

    s: float
    wr0: np.ndarray
    wr1: np.ndarray
    wi0: np.ndarray
    wi1: np.ndarray

    kind = "elnn"

    @property
    def sigma(self):
        return abs(self.s)

    @property
    def lam(self):
        """Jump intensity implied by the trained constants: c0 - c1."""
        c0, c1, _, _ = _constants(self)
        return c0 - c1

    def phi_shifted(self, w, T):
        """The model's Phi(w - i) at real frequencies w."""
        w = np.asarray(w, dtype=float)
        annr, anni = _networks(w, self)
        c0, c1, _, _ = _constants(self)
        # a 0-d w needs 0-d outputs, which unpacking one (5,) array would not give
        pr, pi = _phi_parts(w, annr, anni, self.sigma, c0, c1, T,
                            [np.empty_like(w) for _ in range(5)])
        return pr + 1j * pi

    @property
    def n_nodes(self):
        return len(self.wr0)

    @classmethod
    def init_random(cls, n_nodes, seed):
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
    """Hyperparameters of one training run; the defaults are the paper's, and
    calibrate's settings table takes its ELNN settings from these fields."""

    m_cutoff: float = 100.0
    epochs: int = 30_000
    alpha_reg: float = 4.0
    beta_reg: float = 1e-3
    learning_rate: float = 1e-3
    n_nodes: int = 20
    seed: int = 0

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


# floats of one (2 n_nodes, nodes) array of the network pass, 1.25 MiB: the pass walks
# w in blocks of this size, so that its memory does not grow with n_nodes times the
# number of nodes of w
_BLOCK_FLOATS = 163_840
# floats of one row block of the bump pass: 256 KiB per array, so that a row block's
# e and bump stay in cache from the first of its steps to the last
_ROW_BLOCK = 32_768


def _block_step(n_nodes):
    """Nodes of w in one block of the network pass: _BLOCK_FLOATS // (2 n_nodes),
    rounded down to a multiple of 8 and at least 8, so that a BLAS that splits a
    block's nodes between 2 threads gives each thread a multiple of 4."""
    return max(8, _BLOCK_FLOATS // (2 * n_nodes) // 8 * 8)


def _block_bounds(size, n_nodes):
    """(start, stop) of each block of the network pass over `size` nodes of w.

    Every block but the last holds _block_step(n_nodes) nodes.  BLAS's gemv
    sums a block shorter than 4 nodes in another order, so a remainder that
    short joins the previous block rather than standing alone.
    """
    start, step = 0, _block_step(n_nodes)
    for stop in range(step, size - 3, step):
        yield start, stop
        start = stop
    yield start, size


class _Block:
    """The arrays of one length of block of the network pass, as views of the
    workspace's buffer in the order __init__ names them: e and the bump block
    (one row per scale weight [wr1, wi1], r-group rows first, and as pe and bumps
    by network, node of w and network node), node-sized rows, and the backward
    pass's rows, whose first column holds the coefficients GR of dR and GA w of
    dArg.  row_blocks holds each row block's views of |scale|, e and bump."""

    def __init__(self, buf, size, ascale, step):
        n = len(ascale) // 2
        bumps, vecs = np.split(buf[:(4 * n + 19) * size], [4 * n * size])
        self.e, self.bump = bumps.reshape(2, 2 * n, size)
        self.pe, self.bumps = np.swapaxes(bumps.reshape(2, 2, n, size), 2, 3)
        (self.aw, self.annr, self.anni, self.pr, self.pi, self.dr, self.di, self.wrho,
         *self.scratch) = vecs.reshape(19, size)[:11]
        self.rows = vecs[11 * size:].reshape(2, 4, size)
        # the rows times |w|, one 1-D product each: numpy copies a 2-D product's
        # broadcast |w| into a buffer when the product fits its 8,192-float buffer
        self.scaled_rows = [(row[j], row[j + 2]) for row in self.rows for j in (0, 1)]
        self.rows_w = self.rows[:, 2:]
        self.row_blocks = [(ascale[i:i + step], self.e[i:i + step], self.bump[i:i + step])
                           for i in range(0, 2 * n, step)]

    def networks(self, w, params, pe=False):
        """(ann_r(w), ann_i(w)) at a block's nodes w, in this block's own arrays.

        The bump is e(1 - e) with e = 1 / (1 + exp|a|), built one row block at a
        time; with pe, e then becomes PE = bump * e while the row block is still
        in cache.  exp|a| = inf gives e = 0 exactly, so the caller runs the pass
        under np.errstate(over="ignore").
        """
        n = params.n_nodes
        np.abs(w, out=self.aw)
        for ascale, e, bump in self.row_blocks:
            np.multiply.outer(ascale, self.aw, out=e)
            np.exp(e, out=e)
            e += 1.0
            np.reciprocal(e, out=e)
            np.subtract(1.0, e, out=bump)
            bump *= e
            if pe:
                e *= bump
        np.dot(params.wr0, self.bump[:n], out=self.annr)
        np.dot(params.wi0, self.bump[n:], out=self.anni)
        self.anni *= w
        return self.annr, self.anni


class _Workspace:
    """The one network pass over a fixed number of frequency nodes w, with every
    array that a training epoch writes: every epoch and every evaluation of the
    networks runs it, and an epoch allocates no node-sized array.

    One _Block per length of block (at most two) holds its arrays as views into
    one buffer sized for the longer, with row blocks of the rows that fit
    _ROW_BLOCK floats of it.  Every per-node factor, the regularizer weights
    included, is computed per block, so that the buffer does not grow with the
    nodes.  dots and pe_dots gather the blocks' backward matmuls, each block's
    written first into dots_block and pe_block.

    Node-sized temporaries would cost more than their arithmetic: glibc's free
    trims them off the heap top after each epoch, so the next epoch would fault
    their pages in again.  Each run builds its own workspace, so no two runs
    share an array.
    """

    def __init__(self, size, n_nodes):
        self.size, self.n_nodes = size, n_nodes
        lengths = {stop - start for start, stop in _block_bounds(size, n_nodes)}
        longest = max(lengths)
        buf = np.empty((4 * n_nodes + 19) * longest)
        self.ascale = np.empty(2 * n_nodes)
        step = max(1, _ROW_BLOCK // max(longest, 1))
        self.by_length = {length: _Block(buf, length, self.ascale, step) for length in lengths}
        self.dots, self.dots_block = np.empty((2, 2, 4, n_nodes))
        self.pe_dots, self.pe_block = np.empty((2, 2, 2, n_nodes))

    def scales(self, params):
        np.abs((params.wr1, params.wi1), out=self.ascale.reshape(2, -1))

    def blocks(self):
        """(slice of w, _Block whose arrays it writes) for each block in turn."""
        for start, stop in _block_bounds(self.size, self.n_nodes):
            yield slice(start, stop), self.by_length[stop - start]


def _networks(w, params):
    """(ann_r(w), ann_i(w)) at a float array w of any shape, 0-d included.

    Each value is a sum over network nodes, not over w, so the blocks of the
    pass give the floats of one pass over all of w.
    """
    flat = w.reshape(-1)
    annr, anni = np.empty((2, flat.size))
    work = _Workspace(flat.size, params.n_nodes)
    work.scales(params)
    with np.errstate(over="ignore"):  # exp|a| = inf gives e = 0 exactly
        for at, block in work.blocks():
            annr[at], anni[at] = block.networks(flat[at], params)
    return annr.reshape(w.shape), anni.reshape(w.shape)


def _constants(params):
    """(c0, c1, ur, ui) with the per-node pole factors u = 1 / (2(1 + cos scale))."""
    ur = 1.0 / (2.0 * (1.0 + np.cos(params.wr1)))
    ui = 1.0 / (2.0 * (1.0 + np.cos(params.wi1)))
    c0 = 0.25 * float(np.sum(params.wr0))
    c1 = c0 - float(np.sum(params.wr0 * ur) - np.sum(params.wi0 * ui))
    return c0, c1, ur, ui


def _phi_parts(w, annr, anni, sigma, c0, c1, T, out):
    """Real and imaginary parts of Phi(w - i) = exp(R) (cos Arg + i sin Arg).

    out is five arrays shaped like w: the parts are written into the first
    two, and the other three are scratch.
    """
    pr, pi, R, expR, arg = out
    sig2 = sigma * sigma
    np.square(w, out=R)  # R = T(-sig2 w^2 / 2 + ann_r - c0)
    R *= -0.5 * sig2
    R += annr
    R -= c0
    R *= T
    np.exp(R, out=expR)
    np.multiply(0.5 * sig2, w, out=arg)  # Arg = T(sig2 w / 2 + ann_i - c1 w)
    arg += anni
    arg -= np.multiply(c1, w, out=R)
    arg *= T
    np.cos(arg, out=pr)
    pr *= expR
    np.sin(arg, out=pi)
    pi *= expR
    return pr, pi


def _loss_and_grad(params, w, wts, target_re, target_im, T, config, work, want_grad=True):
    """Fused forward/backward pass over the given quadrature nodes.

    Returns the loss and its gradient as a flat vector laid out like
    ElnnParams.vector() (None when want_grad is False).  work is a _Workspace
    over these nodes.  The pass walks its blocks, writes every node-sized value
    into the block's arrays and adds the block's share of each sum over w.
    """
    wr0, wr1, wi0, wi1, sigma = params.wr0, params.wr1, params.wi0, params.wi1, params.sigma
    c0, c1, ur, ui = _constants(params)
    work.scales(params)
    data = reg = sum_GR = sum_GA_w = sum_GR_w2 = 0.0
    dots, pe_dots = work.dots, work.pe_dots
    dots.fill(0.0)
    pe_dots.fill(0.0)
    with np.errstate(over="ignore"):  # exp|a| = inf gives e = 0 exactly
        for nodes, block in work.blocks():
            wb, wtsb = w[nodes], wts[nodes]
            annr, anni = block.networks(wb, params, pe=want_grad)
            t0, t1, t2 = block.scratch
            pr, pi = _phi_parts(wb, annr, anni, sigma, c0, c1, T,
                                (block.pr, block.pi, t0, t1, t2))
            dr = np.subtract(pr, target_re[nodes], out=block.dr)
            di = np.subtract(pi, target_im[nodes], out=block.di)

            wrho = np.divide(wb, config.m_cutoff, out=block.wrho)  # regularizer weights
            np.abs(wrho, out=wrho)
            wrho **= config.alpha_reg
            wrho *= wtsb
            np.square(annr, out=t0)
            t0 += np.square(anni, out=t1)
            t0 *= wrho
            reg += float(np.sum(t0))
            np.square(dr, out=t0)
            t0 += np.square(di, out=t1)
            t0 *= wtsb
            data += float(np.sum(t0))
            if not want_grad:
                continue

            # Each network's [data, regularizer] rows, then the same rows times |w|,
            # against that network's bump rows: (network, row, w) @ (network, w, node).
            rows = block.rows
            GR, GAw = rows[0, 0], rows[1, 0]
            wts2 = np.multiply(2.0, wtsb, out=t2)
            np.multiply(dr, pr, out=GR)               # coefficient of dR/dtheta
            GR += np.multiply(di, pi, out=t0)
            GR *= wts2
            np.negative(dr, out=GAw)                  # coefficient of dArg/dtheta, then times w
            GAw *= pi
            GAw += np.multiply(di, pr, out=t0)
            GAw *= wts2
            GAw *= wb
            sum_GA_w += float(np.sum(GAw))
            sum_GR += float(np.sum(GR))
            sum_GR_w2 += float(np.sum(np.multiply(GR, np.square(wb, out=t1), out=t0)))

            # regularizer residuals
            lrho = np.multiply(2.0 * config.beta_reg, wrho, out=wrho)
            np.multiply(lrho, annr, out=rows[0, 1])
            np.multiply(lrho, anni, out=rows[1, 1])
            rows[1, 1] *= wb
            for row, scaled in block.scaled_rows:
                np.multiply(row, block.aw, out=scaled)
            dots += np.matmul(rows, block.bumps, out=work.dots_block)
            pe_dots += np.matmul(block.rows_w, block.pe, out=work.pe_block)

    loss = data + config.beta_reg * reg
    if not want_grad:
        return loss, None

    # d(1/(2(1+cos a)))/da, the pole-side derivative of the c1 closed form
    vr = np.sin(wr1) / (2.0 * (1.0 + np.cos(wr1)) ** 2)
    vi = np.sin(wi1) / (2.0 * (1.0 + np.cos(wi1)) ** 2)

    g_s = np.sign(params.s) * T * sigma * (-sum_GR_w2 + sum_GA_w)

    # scale slopes: sum over w of row |w| (1 - 2e) bump = (row |w|) . bump
    # - 2 (row |w|) . PE, times the per-node sign -sgn(scale)
    slopes = (dots[:, 2:] - 2.0 * pe_dots) * -np.sign((wr1, wi1))[:, None]
    (dot_P, dot_Q), (dot_PW, dot_QW) = dots[:, :2], slopes

    g_wr0 = T * (dot_P[0] - 0.25 * sum_GR - (0.25 - ur) * sum_GA_w) + dot_P[1]
    g_wi0 = T * (dot_Q[0] - ui * sum_GA_w) + dot_Q[1]
    g_wr1 = wr0 * (T * (dot_PW[0] + vr * sum_GA_w) + dot_PW[1])
    g_wi1 = wi0 * (T * (dot_QW[0] - vi * sum_GA_w) + dot_QW[1])

    return loss, np.concatenate(([g_s], g_wr0, g_wr1, g_wi0, g_wi1))


class Adam:
    """Plain ADAM over one flat parameter vector, stepped in place."""

    def __init__(self, lr):
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
    work = _Workspace(len(w), config.n_nodes)
    theta = ElnnParams.init_random(config.n_nodes, seed=config.seed).vector()
    scales = theta[1:].reshape(4, config.n_nodes)[1::2]  # wr1 and wi1 rows, views into theta
    _guard_pole(scales)
    adam = Adam(config.learning_rate)
    losses = np.empty(config.epochs)
    # a diverging run overflows on its way to the non-finite value that stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss, grad = _loss_and_grad(ElnnParams.from_vector(theta), w, wts, tr, ti,
                                        market_slice.T, config, work)
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
    Raises NonFinite when the networks overflow, and ResidueTooLarge as
    spectral.inverse_real does.
    """
    grid = grid or SpectralGrid()
    annr, anni = _networks(grid.w, params)
    if not (np.all(np.isfinite(annr)) and np.all(np.isfinite(anni))):
        raise NonFinite("the networks ann_r and ann_i overflow on the grid's frequencies")
    x = grid.k
    return x, np.exp(-x) * inverse_real(grid, annr + 1j * anni)
