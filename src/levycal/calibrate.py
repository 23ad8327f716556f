"""End-to-end calibration drivers, bucketed error reports and stability tables.

Network and parametric fits share one pooled slice.  A market's daily slices
are pooled once, as it is loaded; the pooled slice holds that pool as its
quotes, and its target comes from the synthetic groups amplify resamples
from it: each group is regridded onto the k nodes, and the mean of the
regridded curves is Fourier-transformed once into Phi*(w - i).  That equals
the average of the groups' own transforms because the transform is affine in
z, and training against the group average carries exactly the full-batch
gradient of training on every group at once.
Parametric fits minimize the same folded trapezoid L2 spectral loss as the
network (SpectralCurve.fold), without the regularizer, by Nelder-Mead from
five starts that share one budget of loss evaluations, inside a box of
admissible parameters.  The Nelder-Mead is levycal's own (_nelder_mead) and
repeats SciPy's step for step, so a fit needs no scipy.optimize at start-up.
Each loss evaluates the model's Phi(w - i) only on the leading nodes where it
can still move the loss's last bit (_parametric_loss), and equals the loss over
every node bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elnn
from .errors import LengthMismatch
from .levy_models import MODELS, parametric_char_shifted
from .market import MarketSlice, amplify
from .spectral import (phi_from_time_values, regrid_time_values, spline_on_grid,
                       time_values_from_phi)


# Error-table buckets, in the order the tables list them.  Each dict maps a bucket
# name to the half-open interval [lo, hi) of its coordinates: moneyness k for time
# values, |w| for frequencies, so |w| >= 60 is in no bucket.
K_BUCKETS = {"ATM": (-0.05, 0.03), "ITM": (-math.inf, -0.05), "OTM": (0.03, math.inf)}
W_BUCKETS = {"Low": (-math.inf, 20.0), "Mid": (20.0, 40.0), "High": (40.0, 60.0)}


# coords per block of bucketed_errors' residuals
_BLOCK = 16_384


def bucketed_errors(coords, predicted, target, kind="time_value"):
    """Scaled per-bucket RMSE as {bucket: value, ..., "sum": total}.

    kind "time_value": coords are moneyness k, entries are 1e4 * RMSE.
    kind "spectral":   coords are frequencies, entries are 100 * RMSE / std of
    the bucket's target.  An empty bucket, or a spectral one whose target has
    no spread, is None; the sum adds the others and is None when none is left.
    `predicted` holds the predictions aligned with coords, or is a function
    that gives them at an array of coords.  The coords must be finite.  A
    bucket's squared errors are formed over blocks of _BLOCK coords, so
    beyond them and the bucket's membership mask only block-sized temporaries
    are held.
    """
    coords = np.asarray(coords, dtype=float)
    target = np.asarray(target, dtype=float)
    if not callable(predicted):
        predicted = np.asarray(predicted, dtype=float)
    if len(target) != len(coords) or not callable(predicted) and len(predicted) != len(coords):
        raise LengthMismatch("coords, predicted and target must be aligned")
    if kind == "time_value":
        buckets, binned = K_BUCKETS, coords
    elif kind == "spectral":
        buckets, binned = W_BUCKETS, np.abs(coords)
    else:
        raise ValueError(f"unknown bucket kind {kind!r}")

    table = {}
    for name, (lo, hi) in buckets.items():
        member = (binned >= lo) & (binned < hi)
        squares = np.empty(np.count_nonzero(member))
        if not squares.size:
            table[name] = None
            continue
        n = 0
        for start in range(0, len(coords), _BLOCK):
            block = slice(start, start + _BLOCK)
            mask = member[block]
            pred = predicted(coords[block][mask]) if callable(predicted) else predicted[block][mask]
            squares[n:n + pred.size] = (pred - target[block][mask]) ** 2
            n += pred.size
        rmse = math.sqrt(float(np.mean(squares)))
        del squares  # so the next bucket's mask is not built beside it
        if kind == "time_value":
            table[name] = 1e4 * rmse
        else:
            std = float(np.std(target[member]))
            table[name] = 100.0 * rmse / std if std > 0 else None
    vals = [v for v in table.values() if v is not None]
    table["sum"] = sum(vals) if vals else None
    return table


# ---------------------------------------------------------------------------
# Parametric calibration
# ---------------------------------------------------------------------------

_BOXES = {
    "merton": [(1e-4, 2.0), (0.0, 20.0), (-2.0, 2.0), (1e-3, 2.0)],
    "kou": [(1e-4, 2.0), (0.0, 20.0), (0.0, 1.0), (2.0 + 1e-6, 60.0), (1e-3, 60.0)],
}

_DEFAULT_STARTS = {
    "merton": np.array([0.15, 0.5, -0.02, 0.08]),
    "kou": np.array([0.15, 0.5, 0.3, 5.0, 3.0]),
}

# start draws come from ranges a calibrated equity model plausibly occupies,
# not the full admissible box; simplex descent is local
_START_RANGES = {
    "merton": [(0.05, 0.5), (0.2, 3.0), (-0.2, 0.1), (0.02, 0.15)],
    "kou": [(0.05, 0.5), (0.2, 3.0), (0.02, 0.6), (2.3, 8.0), (0.5, 5.0)],
}


# Floor of a target part that is +-0.0: a model part below it squares to 0.0.
# Floors below _FLOOR_MIN count as 0, so nothing from a subnormal part on is skipped:
# near the subnormal range a computed |Phi| can exceed its bound
_ZERO_FLOOR = 2.0 ** -540
_FLOOR_MIN = 2.0 ** -1000


def _parametric_loss(folded, T):
    """The folded spectral L2 loss as a function of a Merton or Kou model: its
    distance on w > 0 to the target's conjugate-symmetric part, as SpectralCurve.fold
    gives it, sum(wts * ((Phi.real - tr) ** 2 + (Phi.imag - ti) ** 2)).

    Phi(w - i) is evaluated only up to a cut; each later node's term is taken as
    wts * ((0.0 - tr) ** 2 + (0.0 - ti) ** 2), and the sum runs over the same
    full-length terms, so every loss is the plain formula's bit for bit.  The
    cut is exact because the model's drift makes e^{X_T} a martingale: weighting
    by e^{X_T} gives a Levy law with the same sigma and jump measure e^x nu >= 0,
    so |Phi(w - i)| <= e^{-T sigma^2 w^2 / 2}.  Each node has a floor, an eighth
    of the spacing of |tr| and of |ti|, whichever is smaller (_ZERO_FLOOR for a
    part that is +-0.0); a model part below it leaves Phi - t rounded to -t, or
    its square 0.0.  A node is skipped when e times the bound is at most the
    smallest floor from it on, so that the nodes past the cut all qualify.
    """
    w, wts, tr, ti = folded
    tail = wts * ((0.0 - tr) ** 2 + (0.0 - ti) ** 2)
    floor = np.minimum(*(np.where(part == 0.0, _ZERO_FLOOR, np.spacing(np.abs(part)) / 8)
                         for part in (tr, ti)))
    floor = np.where(floor >= _FLOOR_MIN, floor, 0.0)  # a NaN floor counts as 0 too
    if np.any(np.diff(w) <= 0):  # the bound falls along w only on ascending nodes
        floor[:] = 0.0
    with np.errstate(divide="ignore"):
        # log of the suffix minimum: nondecreasing along w, as is T sigma^2 w^2 / 2
        log_floor = np.log(np.minimum.accumulate(floor[::-1])[::-1])
    half_w2 = 0.5 * w * w

    def loss(model):
        # the first node where log floor >= 1 + T sigma^2 w^2 / 2 (the 1 is the margin e)
        cut = int(np.searchsorted(log_floor + model.sigma ** 2 * T * half_w2, 1.0))
        phi = parametric_char_shifted(model, w[:cut], T)
        terms = tail.copy()
        terms[:cut] = wts[:cut] * ((phi.real - tr[:cut]) ** 2 + (phi.imag - ti[:cut]) ** 2)
        return float(np.sum(terms))

    return loss


def _box_loss(family, market_slice):
    """The loss calibrate_parametric minimizes over a family's parameter vector:
    _parametric_loss against the slice's folded curve, infinite outside the box."""
    box, cls = _BOXES[family], MODELS[family]
    model_loss = _parametric_loss(market_slice.spectral.fold(), market_slice.T)

    def loss_fn(theta):
        if not all(lo <= value <= hi for value, (lo, hi) in zip(theta, box)):
            return math.inf
        # each model holds Python floats, as one read from its file does; numpy scalars
        # would take numpy's complex division in exp_moment, which rounds differently
        return model_loss(cls(*theta.tolist()))

    return loss_fn


# Nelder-Mead convergence: the simplex's spread in x and in the loss
_XATOL = 1e-8
_FATOL = 1e-12


class _Exhausted(Exception):
    """A _nelder_mead run has spent its evaluations."""


def _sort_simplex(sim, fsim):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(f, x0, maxfev):
    """Minimize f from x0 in at most `maxfev` evaluations; returns (x, f(x)) of the best vertex.

    Step for step SciPy's minimize(method="Nelder-Mead") without bounds and
    with adaptive=False, xatol _XATOL and fatol _FATOL: the same initial
    simplex, coefficients, arithmetic order and sorts, so the same floats.
    f gets a copy of each vertex.  A run stops where its evaluations run
    out, mid-shrink included, and then sorts the simplex once more.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return f(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _Exhausted:
        pass
    sim, fsim = _sort_simplex(*_sort_simplex(sim, fsim))  # SciPy sorts twice here
    while nfev < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction, kept when no worse than xr
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = evaluate(xc)
                    keep = fxc <= fxr
                else:  # inside contraction, kept when better than the worst vertex
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = evaluate(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
        except _Exhausted:
            pass
        sim, fsim = _sort_simplex(sim, fsim)
    return sim[0], np.min(fsim)


def calibrate_parametric(family, market_slice, budget, seed=0):
    """Fit a Merton or Kou model to the slice's spectral curve.

    One Nelder-Mead run (_nelder_mead, SciPy's algorithm bit for bit, without
    importing scipy.optimize) from each of five starting points, the family's
    default start and then four seeded draws.  They share `budget` (at least 1)
    loss evaluations: start i may spend (budget + 4 - i) // 5 and a start with
    no share is skipped.  The loss is infinite outside the family's parameter
    box, which holds every start.  Returns (model, loss) of the lowest fit, the
    loss folded as _parametric_loss folds it.
    """
    if family not in _BOXES:
        raise ValueError(f"unknown parametric family {family!r}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    rng = np.random.default_rng(seed)
    starts = [_DEFAULT_STARTS[family]] + [
        np.array([rng.uniform(lo, hi) for lo, hi in _START_RANGES[family]]) for _ in range(4)]

    loss_fn = _box_loss(family, market_slice)
    shares = [(budget + 4 - i) // 5 for i in range(len(starts))]
    fits = [_nelder_mead(loss_fn, x0, share) for x0, share in zip(starts, shares) if share]
    x, fun = min(fits, key=lambda fit: fit[1])
    return MODELS[family](*x.tolist()), float(fun)


# ---------------------------------------------------------------------------
# Target, network fit and report
# ---------------------------------------------------------------------------


def spectral_target(groups, grid):
    """Phi*(w - i) of amplify's groups, averaged over groups.

    The groups are drawn one at a time, each is regridded onto the k nodes
    into a running sum, so memory does not grow with their number, and the
    mean curve is transformed once.  phi_from_time_values is affine in z, so
    this equals the mean of the groups' own transforms.  The averaged curve is
    an exact stand-in for full-batch training over all groups: the L2 loss
    against it differs from the group-averaged loss only by a constant.
    """
    z_sum = np.zeros(grid.n)
    for g in groups:
        z_sum += regrid_time_values(g.k, g.z, grid)
    return phi_from_time_values(z_sum / len(groups), groups.market.r, groups.market.T, grid)


def check_cutoff(m_cutoff, grid):
    """Raise unless the target clipped to |w| <= 4 * m_cutoff keeps at least the two
    innermost nodes +-dw/2 of the grid."""
    if 4.0 * m_cutoff < grid.w_offset:
        raise ValueError(f"m_cutoff must be at least dw / 8 = {grid.dw / 8} on a grid with "
                         f"dw {grid.dw}, so that the target keeps two nodes |w| <= 4 m_cutoff; "
                         f"got {m_cutoff}")


def pooled_slice(market, grid, m_cutoff, n_groups, group_size, seed):
    """The slice `market`, which pools every day's quotes, with its target.

    The pooled slice holds the market's own arrays, not a copy.  The target's
    groups are amplified from seed + 1, and the target is clipped to
    |w| <= 4 * m_cutoff, which check_cutoff checks.
    """
    check_cutoff(m_cutoff, grid)
    target = spectral_target(amplify(market, n_groups, group_size, seed=seed + 1), grid)
    return MarketSlice("pooled", market.T, market.r, market.k, market.z,
                       spectral=target.clip(4.0 * m_cutoff))


def run_elnn(pooled, config):
    """elnn.train on a pooled slice, as (params, final_loss, losses) beside
    calibrate_parametric's (model, loss); final_loss is None when no epoch ran."""
    params, losses = elnn.train(pooled, config)
    return params, float(losses[-1]) if len(losses) else None, losses


def evaluate_report(fit, pooled, grid, final_loss):
    """The report.json document of a fitted law, with its bucketed z and Phi errors.

    `fit` is ElnnParams or a jump model, which give the report's label (kind),
    sigma and lam and its Phi(w - i) on the grid's w nodes (phi_shifted);
    `pooled` is the slice from pooled_slice that the law was fitted to.
    """
    phi_on_grid = fit.phi_shifted(grid.w, pooled.T)
    # the spline reads the quotes' k one bucket at a time, so no pool-sized prediction is held
    z_spline = spline_on_grid(grid, time_values_from_phi(phi_on_grid, pooled.r, pooled.T, grid))

    # the target's nodes are a contiguous central block of the grid's w lattice; those
    # with |w| >= 60 fall in no bucket
    w, target = pooled.spectral.w, pooled.spectral.values
    start = int(np.searchsorted(grid.w, w[0] - 0.25 * grid.dw))
    phi_rep = phi_on_grid[start:start + len(w)]
    return {"label": fit.kind, "sigma": fit.sigma, "lambda": fit.lam,
            "z_rmse": bucketed_errors(pooled.k, z_spline, pooled.z),
            "phi_re_rmse": bucketed_errors(w, phi_rep.real, target.real, kind="spectral"),
            "phi_im_rmse": bucketed_errors(w, phi_rep.imag, target.imag, kind="spectral"),
            "final_loss": final_loss}


# ---------------------------------------------------------------------------
# Stability across periods
# ---------------------------------------------------------------------------


@dataclass
class PeriodEstimate:
    label: str
    sigma: float
    lam: float
    density: tuple | None = None  # optional (x, dnu/dx) curve for plotting


@dataclass
class StabilitySummary:
    labels: list
    sigmas: np.ndarray
    lams: np.ndarray
    sigma_cv: float
    lam_cv: float
    densities: dict


def _cv(values):
    mean = float(np.mean(values))
    if mean == 0.0:
        return math.nan
    return float(np.std(values)) / abs(mean)


def stability_summary(per_period):
    """Dispersion of sigma and lambda across periods (population CV)."""
    if len(per_period) < 2:
        raise ValueError("need at least two periods")
    sigmas = np.array([p.sigma for p in per_period], dtype=float)
    lams = np.array([p.lam for p in per_period], dtype=float)
    densities = {p.label: p.density for p in per_period if p.density is not None}
    return StabilitySummary([p.label for p in per_period], sigmas, lams,
                            _cv(sigmas), _cv(lams), densities)
