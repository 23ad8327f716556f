"""Independent reference implementations used only to verify the package.

Nothing here shares code with the library paths under test: prices come from
the Poisson-mixture closed form or Monte Carlo, transforms from scipy.quad,
simulation from a standalone compound-Poisson sampler, the ELNN loss and
gradient from scipy's expit with one bump matrix per network, and CSV text
from formatting one value at a time.  The exceptions are
spectral_target_per_group, which reuses the library's amplification,
regridding and transform and checks only the order of averaging,
plancherel_gap, which checks the library's inverse transform against
Plancherel's identity, elnn_objective and elnn_gradient, which call the
library's fused loss on a slice's folded target so that tests can probe it
one quantity at a time, and elnn_allocating_epoch, the training epoch before
its workspace held every per-node vector, which training's epoch must match
bit for bit.  ann_r and ann_i run that epoch's full-block network pass, which
the library's blocked evaluation must match bit for bit too.
virtual_market_days is generate_virtual_market's loop before it drew each day
when read: it spawns every day's stream up front and holds every day, and
the lazy market must give its days bit for bit.  bucketed_errors_whole is
bucketed_errors before it formed a bucket's errors block by block: it bins
every coordinate at once with np.searchsorted, and the blocked table must
equal it.  parametric_loss is the Merton and Kou fits' loss before it skipped
the nodes where a model cannot move it: it evaluates the library's Phi(w - i)
on every folded node (parametric_loss_terms), and the skipping loss must equal
it bit for bit.  elnn_report and parametric_report are the two per-kind report
paths from before every fit reported through one: each gathers its kind's
label, sigma, lambda and Phi(w - i) on the grid itself (the network's Phi from
the full-block pass, lambda as c0 - c1) and hands them to the report body of
that time, which reuses the library's spline and buckets; the report of any
fitted law must equal them bit for bit.  zeta and call_price are the pricing
formulas the module docstring of levycal.spectral states.  truncated_form is
the jump models' exponent written with the truncation function x 1_{|x|<=1},
as the library wrote it before it dropped that function: it reuses each
model's closed-form transform, mass and moments, and adds the truncated mean
(truncated_mean) to the jump part and the drift.  pool_days is not
a reference: it pools days into one slice as cli._load_market pools a
market's slice files, for the tests that start from generated days.
"""

import math
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import expit
from scipy.stats import norm

from levycal import (MarketSlice, SpectralGrid, amplify, bucketed_errors,
                     parametric_char_shifted, phi_from_time_values, regrid_time_values,
                     time_value_curve, time_values_from_phi)
from levycal.calibrate import K_BUCKETS, K_EDGES, W_BUCKETS, W_EDGES
from levycal.elnn import _block_bounds, _constants, _loss_and_grad, _Workspace
from levycal.spectral import _inverse_nodes, spline_on_grid, trapezoid_weights


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


def support(model):
    """(lo, hi): the span of x that the quadratures integrate a model's Levy density
    over; the Merton and Kou densities are negligible outside it, a table's is zero."""
    if model.kind == "merton":
        return (min(-1.0, model.mu - 10.0 * model.delta), max(1.0, model.mu + 10.0 * model.delta))
    if model.kind == "kou":
        half = max(1.5, 40.0 / min(model.lam_plus - 2.0, model.lam_minus))
        return (-half, half)
    return (float(model.x[0]), float(model.x[-1]))


def _cuts(support, split):
    lo, hi = support
    return sorted({lo, hi, *(c for c in split if lo < c < hi)})


def quad_jump_exponent(w, density, support, split=()):
    """f(w) = integral (e^{iwx} - 1) nu(dx) by plain scipy.quad on real and
    imaginary parts separately, split at the points `split` inside the support."""
    cuts = _cuts(support, split)

    def real_part(x):
        return (np.exp(1j * w * x) - 1.0).real * density(x)

    def imag_part(x):
        return (np.exp(1j * w * x) - 1.0).imag * density(x)

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


def truncated_mean(model):
    """integral_{-1}^{1} x nu(dx): Merton's through scipy.stats.norm, Kou's in
    closed form, a table's by quadrature over [-1, 1]."""
    if model.kind == "merton":
        alpha, beta = (-1.0 - model.mu) / model.delta, (1.0 - model.mu) / model.delta
        return model.lam * (model.mu * (norm.cdf(beta) - norm.cdf(alpha))
                            - model.delta * (norm.pdf(beta) - norm.pdf(alpha)))
    if model.kind == "kou":
        def one_sided(eta):  # integral_0^1 x eta e^{-eta x} dx
            return 1.0 / eta - math.exp(-eta) * (1.0 + 1.0 / eta)

        return model.lam * (model.p * one_sided(model.lam_plus)
                            - (1.0 - model.p) * one_sided(model.lam_minus))
    inside = (max(float(model.x[0]), -1.0), min(float(model.x[-1]), 1.0))
    return quad_moment(1, model.density, inside, tuple(model.x))


def truncated_form(model, w, T):
    """(Phi(w - i), k1 of X_1) with the exponent written with the truncation
    function x 1_{|x|<=1}: f(w) = nu_hat(w) - lambda - i w m, with m the
    truncated mean, drift b = -sigma^2/2 - f(-i) and k1 = b + integral
    (x - x 1_{|x|<=1}) nu(dx)."""
    m = truncated_mean(model)
    z = np.asarray(w, dtype=float) - 1j
    f = model.nu_hat(z) - model.lam - 1j * z * m
    b = -0.5 * model.sigma**2 - (model.exp_moment(1.0) - model.lam - m)
    phi = np.exp(T * (-0.5 * model.sigma**2 * z**2 + 1j * b * z + f))
    return phi, b + (model.jump_moment(1) - m)


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


def pool_days(days):
    """One slice of every day's quotes in day order, as cli._load_market pools its files."""
    days = list(days)
    T, r = days[0].T, days[0].r
    assert all((d.T, d.r) == (T, r) for d in days), "the days must share T and r"
    return MarketSlice("pool", T, r, np.concatenate([d.k for d in days]),
                       np.concatenate([d.z for d in days]))


def spectral_target_per_group(market, grid, n_groups, group_size, seed):
    """Group-averaged Phi*(w - i) with one transform per group amplified from `market`."""
    groups = amplify(market, n_groups, group_size, seed=seed)
    acc = np.zeros(grid.n, dtype=complex)
    for g in groups:
        z_nodes = regrid_time_values(g.k, g.z, grid)
        acc += phi_from_time_values(z_nodes, market.r, market.T, grid).values
    return acc / len(groups)


def virtual_market_days(model, days, per_day, T, r, k_lo, k_hi, noise, grid):
    """Every day of a virtual market, drawn at once from SeedSequence(seed).spawn(days)."""
    _, z_nodes = time_value_curve(model.triplet(), T, r, grid)
    spline = spline_on_grid(grid, z_nodes)
    streams = np.random.SeedSequence(noise.seed).spawn(days)
    slices = []
    for day, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        k = rng.uniform(k_lo, k_hi, per_day)
        z_clean = np.maximum(spline(k), 0.0)
        z_noisy = z_clean + rng.normal(0.0, 1.0, per_day) * (noise.scale * z_clean)
        slices.append(MarketSlice(f"day-{day:04d}", T, r, k, np.maximum(z_noisy, 0.0)))
    return slices


def bucketed_errors_whole(coords, predicted, target, kind="time_value"):
    """bucketed_errors' table, every coordinate binned at once by np.searchsorted."""
    coords, predicted, target = (np.asarray(a, dtype=float) for a in (coords, predicted, target))
    if kind == "time_value":
        which, buckets = np.searchsorted(K_EDGES, coords, side="right"), K_BUCKETS
    else:
        which, buckets = np.searchsorted(W_EDGES, np.abs(coords), side="right"), W_BUCKETS
    table = {}
    for name, bin_ in buckets.items():
        mask = which == bin_
        if not mask.any():
            table[name] = None
            continue
        rmse = math.sqrt(float(np.mean((predicted[mask] - target[mask]) ** 2)))
        if kind == "time_value":
            table[name] = 1e4 * rmse
        else:
            std = float(np.std(target[mask]))
            table[name] = 100.0 * rmse / std if std > 0 else None
    vals = [v for v in table.values() if v is not None]
    table["sum"] = sum(vals) if vals else None
    return table


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


def parametric_loss_terms(model, folded, T):
    """The terms wts * |Phi(w - i) - (tr + i ti)|^2 of the folded spectral L2 loss of a
    model, on every node of folded = (w, wts, tr, ti) as SpectralCurve.fold gives it."""
    w, wts, tr, ti = folded
    phi = parametric_char_shifted(model, w, T)
    return wts * ((phi.real - tr) ** 2 + (phi.imag - ti) ** 2)


def parametric_loss(model, folded, T):
    """The folded spectral L2 loss of a model: the sum of its parametric_loss_terms."""
    return float(np.sum(parametric_loss_terms(model, folded, T)))


def ann_r(w, params):
    """Even real-part network from one bump block over all of w; scalar or array real w."""
    return _allocating_forward(w, params)[0]


def ann_i(w, params):
    """Odd imaginary-part network (trailing factor w)."""
    return _allocating_forward(w, params)[1]


def elnn_objective(params, market_slice, config):
    """The training loss on the slice's folded target: trapezoid L2 distance to
    its conjugate-symmetric part on w > 0, plus beta times the regularizer."""
    w, wts, tr, ti = market_slice.spectral.fold()
    work = _Workspace(len(w), params.n_nodes)
    loss, _ = _loss_and_grad(params, w, wts, tr, ti, market_slice.T, config, work, want_grad=False)
    return loss


def elnn_gradient(params, market_slice, config):
    """Exact gradient of elnn_objective, laid out like ElnnParams.vector()."""
    w, wts, tr, ti = market_slice.spectral.fold()
    work = _Workspace(len(w), params.n_nodes)
    _, grad = _loss_and_grad(params, w, wts, tr, ti, market_slice.T, config, work)
    return grad


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


# --- the allocating ELNN epoch ----------------------------------------------------
# The epoch as it was before training's workspace held its temporaries: a new array
# for every per-node vector, and the backward pass's own bump * e.  Like training's
# epoch it walks the nodes in the blocks of elnn._block_bounds and adds each block's
# share of every sum over w, but it builds each block's arrays afresh.  Training's
# epoch keeps its ufuncs, operands and order, so the two must agree bit for bit; so
# must the library's blocked network evaluation and _allocating_forward, which ann_r
# and ann_i run over all of w at once.


def _allocating_bump(w, scale, e=None, bump=None):
    e = np.multiply.outer(np.abs(scale), np.abs(w), out=e)
    with np.errstate(over="ignore"):  # exp|a| = inf gives e = 0 exactly
        np.exp(e, out=e)
    e += 1.0
    np.reciprocal(e, out=e)
    bump = np.subtract(1.0, e, out=bump)
    bump *= e
    return bump, e


def _allocating_forward(w, params, e=None, bump=None):
    w = np.asarray(w)
    n = params.n_nodes
    bump, e = _allocating_bump(w, np.concatenate((params.wr1, params.wi1)), e, bump)
    annr = np.tensordot(params.wr0, bump[:n], 1)
    anni = np.tensordot(params.wi0, bump[n:], 1) * w
    return annr, anni, bump, e


def _allocating_phi_parts(w, annr, anni, sigma, c0, c1, T):
    sig2 = sigma * sigma
    R = T * (-0.5 * sig2 * w**2 + annr - c0)
    arg = T * (0.5 * sig2 * w + anni - c1 * w)
    expR = np.exp(R)
    return expR * np.cos(arg), expR * np.sin(arg)


def elnn_allocating_epoch(params, w, wts, target_re, target_im, T, config, work=None,
                          want_grad=True):
    """elnn._loss_and_grad as the allocating epoch wrote it, over the same blocks of
    nodes; work is ignored, so that train can run on this epoch in its place."""
    n = params.n_nodes
    wr0, wr1, wi0, wi1, sigma = params.wr0, params.wr1, params.wi0, params.wi1, params.sigma
    c0, c1, ur, ui = _constants(params)
    data = reg = sum_GR = sum_GA_w = sum_GR_w2 = 0.0
    dots, pe_dots = np.zeros((2, 4, n)), np.zeros((2, 2, n))
    for start, stop in _block_bounds(len(w), n):
        wb, wtsb = w[start:stop], wts[start:stop]
        e, bump = np.empty((2, 2 * n, len(wb)))
        annr, anni, P, e = _allocating_forward(wb, params, e, bump)
        pr, pi = _allocating_phi_parts(wb, annr, anni, sigma, c0, c1, T)
        dr = pr - target_re[start:stop]
        di = pi - target_im[start:stop]

        wrho = wtsb * np.abs(wb / config.m_cutoff) ** config.alpha_reg
        reg += float(np.sum(wrho * (annr**2 + anni**2)))
        data += float(np.sum(wtsb * (dr**2 + di**2)))
        if not want_grad:
            continue

        GR = 2.0 * wtsb * (dr * pr + di * pi)
        GA = 2.0 * wtsb * (-dr * pi + di * pr)
        GAw = GA * wb
        sum_GA_w += float(np.sum(GAw))
        sum_GR += float(np.sum(GR))
        sum_GR_w2 += float(np.sum(GR * (wb * wb)))

        LR = (2.0 * config.beta_reg) * wrho * annr
        LI = (2.0 * config.beta_reg) * wrho * anni

        rows = np.empty((2, 4, len(wb)))
        rows[0, 0], rows[0, 1], rows[1, 0], rows[1, 1] = GR, LR, GAw, LI * wb
        np.multiply(rows[:, :2], np.abs(wb), out=rows[:, 2:])
        bumps = P.reshape(2, n, -1).transpose(0, 2, 1)
        pe = np.multiply(P, e, out=e).reshape(2, n, -1).transpose(0, 2, 1)
        dots += rows @ bumps
        pe_dots += rows[:, 2:] @ pe

    loss = data + config.beta_reg * reg
    if not want_grad:
        return loss, None

    vr = np.sin(wr1) / (2.0 * (1.0 + np.cos(wr1)) ** 2)
    vi = np.sin(wi1) / (2.0 * (1.0 + np.cos(wi1)) ** 2)

    g_s = np.sign(params.s) * T * sigma * (-sum_GR_w2 + sum_GA_w)

    slopes = (dots[:, 2:] - 2.0 * pe_dots) * -np.sign((wr1, wi1))[:, None]
    (dot_P, dot_Q), (dot_PW, dot_QW) = dots[:, :2], slopes

    g_wr0 = T * (dot_P[0] - 0.25 * sum_GR - (0.25 - ur) * sum_GA_w) + dot_P[1]
    g_wi0 = T * (dot_Q[0] - ui * sum_GA_w) + dot_Q[1]
    g_wr1 = wr0 * (T * (dot_PW[0] + vr * sum_GA_w) + dot_PW[1])
    g_wi1 = wi0 * (T * (dot_QW[0] - vi * sum_GA_w) + dot_QW[1])

    return loss, np.concatenate(([g_s], g_wr0, g_wr1, g_wi0, g_wi1))


def _report(label, sigma, lam, phi_on_grid, pooled, grid, final_loss):
    """calibrate.evaluate_report when it took the label, sigma, lambda and the grid's
    Phi(w - i) one by one."""
    z_spline = spline_on_grid(grid, time_values_from_phi(phi_on_grid, pooled.r, pooled.T, grid))
    target_curve = pooled.spectral
    keep = np.abs(target_curve.w) < W_EDGES[-1]
    w_rep = target_curve.w[keep]
    tgt_rep = target_curve.values[keep]
    start = int(np.searchsorted(grid.w, w_rep[0] - 0.25 * grid.dw))
    phi_rep = phi_on_grid[start:start + len(w_rep)]
    return {"label": label, "sigma": sigma, "lambda": lam,
            "z_rmse": bucketed_errors(pooled.k, z_spline, pooled.z),
            "phi_re_rmse": bucketed_errors(w_rep, phi_rep.real, tgt_rep.real, kind="spectral"),
            "phi_im_rmse": bucketed_errors(w_rep, phi_rep.imag, tgt_rep.imag, kind="spectral"),
            "final_loss": final_loss}


def elnn_report(params, losses, pooled, grid):
    """The report of a network fit with per-epoch `losses`, as run_elnn made it when it
    also evaluated the fit: final_loss None after 0 epochs."""
    c0, c1, _, _ = _constants(params)
    pr, pi = _allocating_phi_parts(grid.w, ann_r(grid.w, params), ann_i(grid.w, params),
                                   params.sigma, c0, c1, pooled.T)
    final_loss = float(losses[-1]) if len(losses) else None
    return _report("elnn", params.sigma, c0 - c1, pr + 1j * pi, pooled, grid, final_loss)


def parametric_report(model, pooled, final_loss, grid):
    """The report of a jump model, as calibrate.parametric_report made it."""
    phi_on_grid = parametric_char_shifted(model, grid.w, pooled.T)
    return _report(model.kind, model.sigma, model.lam, phi_on_grid, pooled, grid, final_loss)


def zeta(w, phi_shifted, r, T):
    """Damped time-value transform zeta(w) = e^{iwrT} (Phi(w-i) - 1) / (iw(1+iw))."""
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) < 1e-12):
        raise ValueError("zeta is indeterminate at w = 0; use an offset grid")
    iw = 1j * w
    return np.exp(iw * r * T) * (np.asarray(phi_shifted) - 1.0) / (iw * (1.0 + iw))


def call_price(k, z, r, T):
    """Normalized call price: time value plus intrinsic, floored at zero."""
    intrinsic = np.maximum(1.0 - np.exp(np.asarray(k) - r * T), 0.0)
    return np.maximum(np.asarray(z) + intrinsic, 0.0)


def plancherel_gap(phi_a, phi_b, grid=None):
    """Both sides of the Plancherel identity for a pair of characteristic functions.

    phi_a and phi_b are callables w -> Phi_{X_T}(w) accepting complex arguments.
    Returns (lhs, rhs) where

        lhs = integral |Phi_a(w-i) - Phi_b(w-i)|^2 dw,
        rhs = 2pi * integral (e^x rho_a(x) - e^x rho_b(x))^2 dx,

    with the densities recovered by inverse FFT of the unshifted characteristic
    functions.  The x integral is restricted to |x| <= 10: beyond it the
    e^x scaling amplifies the transform's rounding floor above the signal.
    """
    grid = grid or SpectralGrid()
    w = grid.w
    shift_a = phi_a(w - 1j)
    shift_b = phi_b(w - 1j)
    lhs = float(np.sum(trapezoid_weights(grid.n) * np.abs(shift_a - shift_b) ** 2) * grid.dw)

    rho_a = _inverse_nodes(grid, phi_a(w + 0j)).real
    rho_b = _inverse_nodes(grid, phi_b(w + 0j)).real
    x = grid.k
    keep = np.abs(x) <= 10.0
    diff = np.exp(x[keep]) * (rho_a[keep] - rho_b[keep])
    rhs = float(2.0 * math.pi * np.sum(trapezoid_weights(len(diff)) * diff**2) * grid.dk)
    return lhs, rhs
