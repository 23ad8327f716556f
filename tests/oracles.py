"""Independent reference implementations used only to verify the package.

Nothing here shares code with the library paths under test: prices come from
the Poisson-mixture closed form or Monte Carlo, transforms from scipy.quad,
simulation from a standalone compound-Poisson sampler, the ELNN loss and
gradient from scipy's expit with one bump matrix per network, and CSV text
from formatting one value at a time.  The one exception is
spectral_target_per_group, which reuses the library's amplification,
regridding and transform and checks only the order of averaging.
"""

from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import expit
from scipy.stats import norm

from levycal import amplify, phi_from_time_values, regrid_time_values


def bs_call(k, sigma, T, r):
    """Normalized Black-Scholes call on spot 1 at log-moneyness k."""
    s = sigma * np.sqrt(T)
    d1 = (r * T - k + 0.5 * s * s) / s
    d2 = d1 - s
    return norm.cdf(d1) - np.exp(k - r * T) * norm.cdf(d2)


def merton_series_z(k, model, T, r, n_terms=60):
    """Merton time value via the Poisson mixture of lognormal call prices."""
    lam, mu, d, sig = model.lam, model.mu, model.delta, model.sigma
    expj = np.exp(mu + 0.5 * d * d)
    b_free = -0.5 * sig * sig - lam * (expj - 1.0)
    kappa = np.asarray(k, dtype=float) - r * T
    total = np.zeros_like(kappa)
    pn = np.exp(-lam * T)
    for n in range(n_terms):
        m = b_free * T + n * mu
        v = sig * sig * T + n * d * d
        sv = np.sqrt(v)
        d1 = (m + v - kappa) / sv
        d2 = d1 - sv
        total += pn * (np.exp(m + 0.5 * v) * norm.cdf(d1) - np.exp(kappa) * norm.cdf(d2))
        pn *= lam * T / (n + 1)
    return total - np.maximum(1.0 - np.exp(kappa), 0.0)


def _cuts(support, split):
    lo, hi = support
    return sorted({lo, hi, *(c for c in split if lo < c < hi)})


def quad_jump_exponent(w, density, support, split=(-1.0, 1.0)):
    """f(w) by plain scipy.quad on real and imaginary parts separately."""
    cuts = _cuts(support, split)

    def real_part(x):
        val = np.exp(1j * w * x) - 1.0 - 1j * w * x * (abs(x) <= 1.0)
        return val.real * density(x)

    def imag_part(x):
        val = np.exp(1j * w * x) - 1.0 - 1j * w * x * (abs(x) <= 1.0)
        return val.imag * density(x)

    re = sum(integrate.quad(real_part, a, b, epsabs=1e-13, epsrel=1e-11, limit=2000)[0]
             for a, b in zip(cuts[:-1], cuts[1:]))
    im = sum(integrate.quad(imag_part, a, b, epsabs=1e-13, epsrel=1e-11, limit=2000)[0]
             for a, b in zip(cuts[:-1], cuts[1:]))
    return re + 1j * im


def quad_moment(n, density, support, split=(-1.0, 1.0)):
    """integral x^n nu(dx) over the support by plain scipy.quad."""
    cuts = _cuts(support, split)
    return sum(integrate.quad(lambda x: x**n * density(x), a, b,
                              epsabs=1e-13, epsrel=1e-11, limit=2000)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


def simulate_terminal(model, T, n_paths, seed):
    """Standalone exact sampler of X_T for the Merton and Kou models."""
    rng = np.random.default_rng(seed)
    if model.kind == "merton":
        expj = np.exp(model.mu + 0.5 * model.delta**2)
    else:
        expj = (model.p * model.lam_plus / (model.lam_plus - 1.0)
                + (1.0 - model.p) * model.lam_minus / (model.lam_minus + 1.0))
    b_free = -0.5 * model.sigma**2 - model.lam * (expj - 1.0)
    x = b_free * T + model.sigma * np.sqrt(T) * rng.standard_normal(n_paths)
    counts = rng.poisson(model.lam * T, n_paths)
    if model.kind == "merton":
        x += counts * model.mu + np.sqrt(counts) * model.delta * rng.standard_normal(n_paths)
    else:
        total = int(counts.sum())
        if total:
            sizes = rng.exponential(1.0, total)
            up = rng.random(total) < model.p
            sizes = np.where(up, sizes / model.lam_plus, -sizes / model.lam_minus)
            owner = np.repeat(np.arange(n_paths), counts)
            x += np.bincount(owner, weights=sizes, minlength=n_paths)
    return x


def mc_char_fn(model, w, T, n_paths=10**6, seed=7):
    """Monte-Carlo estimate of E[e^{iwX_T}] with per-component standard errors."""
    x = simulate_terminal(model, T, n_paths, seed)
    vals = np.exp(1j * w * x)
    est = vals.mean()
    se_re = vals.real.std(ddof=1) / np.sqrt(n_paths)
    se_im = vals.imag.std(ddof=1) / np.sqrt(n_paths)
    return est, se_re, se_im


def mc_call_price(model, k, T, r, n_paths=10**6, seed=11):
    """Monte-Carlo normalized call price with its standard error."""
    x = simulate_terminal(model, T, n_paths, seed)
    payoff = np.exp(-r * T) * np.maximum(np.exp(r * T + x) - np.exp(k), 0.0)
    return payoff.mean(), payoff.std(ddof=1) / np.sqrt(n_paths)


def spectral_target_per_group(slices, grid, n_groups, group_size, seed):
    """Group-averaged Phi*(w - i) with one transform per amplified group."""
    groups = amplify(slices, n_groups, group_size, seed=seed)
    T, r = groups[0].T, groups[0].r
    acc = np.zeros(grid.n, dtype=complex)
    for g in groups:
        z_nodes = regrid_time_values(g.k, g.z, grid)
        acc += phi_from_time_values(z_nodes, r, T, grid).values
    return acc / len(groups)


def save_columns_reference(path, header, columns):
    """CSV columns under a header line, formatted one value at a time with %.17g."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def full_grid_spectral_loss(phi, w, target):
    """Trapezoid L2 distance between Phi(w - i) samples and a target on all of
    the uniform nodes w, halved end weights included."""
    wts = np.full(len(w), w[1] - w[0])
    wts[[0, -1]] *= 0.5
    return float(np.sum(wts * np.abs(np.asarray(phi) - target) ** 2))


def _elnn_bumps(w, scale):
    """Node bumps e(1 - e), e = expit(-|w scale|), one row per w node, and e."""
    e = expit(np.multiply.outer(-np.abs(w), np.abs(scale)))
    return e * (1.0 - e), e


def elnn_loss_and_grad(params, w, wts, target_re, target_im, T, config):
    """The ELNN loss and flat gradient with one (nodes, n) bump matrix per
    network and the scale slope as its own temporary P (1 - 2e) |w|."""
    wr0, wr1, wi0, wi1, sigma = params.wr0, params.wr1, params.wi0, params.wi1, params.sigma
    P, er = _elnn_bumps(w, wr1)
    Q, ei = _elnn_bumps(w, wi1)
    annr = P @ wr0
    anni = (Q @ wi0) * w
    ur = 1.0 / (2.0 * (1.0 + np.cos(wr1)))
    ui = 1.0 / (2.0 * (1.0 + np.cos(wi1)))
    c0 = 0.25 * float(np.sum(wr0))
    c1 = c0 - float(np.sum(wr0 * ur) - np.sum(wi0 * ui))
    sig2 = sigma * sigma
    R = T * (-0.5 * sig2 * w**2 + annr - c0)
    arg = T * (0.5 * sig2 * w + anni - c1 * w)
    pr, pi = np.exp(R) * np.cos(arg), np.exp(R) * np.sin(arg)
    dr = pr - target_re
    di = pi - target_im

    wrho = wts * np.abs(w / config.m_cutoff) ** config.alpha_reg
    reg = float(np.sum(wrho * (annr**2 + anni**2)))
    loss = float(np.sum(wts * (dr**2 + di**2))) + config.beta_reg * reg

    GR = 2.0 * wts * (dr * pr + di * pi)
    GA = 2.0 * wts * (-dr * pi + di * pr)
    GAw = GA * w
    sum_GA_w = float(np.sum(GAw))
    sum_GR = float(np.sum(GR))
    vr = np.sin(wr1) / (2.0 * (1.0 + np.cos(wr1)) ** 2)
    vi = np.sin(wi1) / (2.0 * (1.0 + np.cos(wi1)) ** 2)
    LR = (2.0 * config.beta_reg) * wrho * annr
    LI = (2.0 * config.beta_reg) * wrho * anni

    g_s = np.sign(params.s) * T * sigma * (-float(np.sum(GR * w**2)) + sum_GA_w)

    left_r = np.vstack((GR, LR))
    left_i = np.vstack((GAw, LI * w))
    dot_P = left_r @ P
    dot_Q = left_i @ Q
    g_wr0 = T * (dot_P[0] - 0.25 * sum_GR - (0.25 - ur) * sum_GA_w) + dot_P[1]
    g_wi0 = T * (dot_Q[0] - ui * sum_GA_w) + dot_Q[1]

    aw = np.abs(w)[:, None]
    dot_PW = (left_r @ (P * (1.0 - 2.0 * er) * aw)) * -np.sign(wr1)
    dot_QW = (left_i @ (Q * (1.0 - 2.0 * ei) * aw)) * -np.sign(wi1)
    g_wr1 = wr0 * (T * (dot_PW[0] + vr * sum_GA_w) + dot_PW[1])
    g_wi1 = wi0 * (T * (dot_QW[0] - vi * sum_GA_w) + dot_QW[1])

    return loss, np.concatenate(([g_s], g_wr0, g_wr1, g_wi0, g_wi1))
