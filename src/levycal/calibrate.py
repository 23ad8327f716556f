"""End-to-end calibration drivers, bucketed error reports and stability tables.

Network and parametric fits share one pooled target.  Raw daily slices are
amplified into large synthetic groups, each group is regridded onto the k
nodes, and the mean of the regridded curves is Fourier-transformed once into
Phi*(w - i).  That equals the average of the groups' own transforms because
the transform is affine in z, and training against the group average carries
exactly the full-batch gradient of training on every group at once.
Parametric fits minimize the same folded trapezoid L2 spectral loss as the
network (SpectralCurve.fold), without the regularizer, with a restarted
Nelder-Mead simplex under box penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elnn
from .errors import LengthMismatch, NoConvergence
from .levy_models import MODELS, parametric_char_shifted
from .market import MarketSlice, amplify
from .spectral import (SpectralGrid, phi_from_time_values, regrid_time_values, spline_on_grid,
                       time_values_from_phi)


# Error-table buckets.  A coordinate lies in bin np.searchsorted(edges, c, side="right"):
# moneyness k below -0.05 is ITM, below 0.03 ATM and otherwise OTM; frequencies
# are bucketed on |w|, and |w| >= 60 (bin 3) is in no bucket.  Each dict maps a
# bucket name to its bin, in the order the tables list them.
K_EDGES = (-0.05, 0.03)
K_BUCKETS = {"ATM": 1, "ITM": 0, "OTM": 2}
W_EDGES = (20.0, 40.0, 60.0)
W_BUCKETS = {"Low": 0, "Mid": 1, "High": 2}


def bucketed_errors(coords, predicted, target, kind="time_value"):
    """Scaled per-bucket RMSE as {bucket: value, ..., "sum": total}.

    kind "time_value": coords are moneyness k, entries are 1e4 * RMSE.
    kind "spectral":   coords are frequencies, entries are 100 * RMSE / std of
    the bucket's target.  An empty bucket, or a spectral one whose target has
    no spread, is None; the sum adds the others and is None when none is left.
    """
    coords = np.asarray(coords, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    target = np.asarray(target, dtype=float)
    if not (len(coords) == len(predicted) == len(target)):
        raise LengthMismatch("coords, predicted and target must be aligned")
    if kind == "time_value":
        which, buckets = np.searchsorted(K_EDGES, coords, side="right"), K_BUCKETS
    elif kind == "spectral":
        which, buckets = np.searchsorted(W_EDGES, np.abs(coords), side="right"), W_BUCKETS
    else:
        raise ValueError(f"unknown bucket kind {kind!r}")

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


def _parametric_loss(model, folded, T):
    """The folded spectral L2 loss of a Merton or Kou model: its distance on
    w > 0 to the target's conjugate-symmetric part, as SpectralCurve.fold gives it."""
    w, wts, tr, ti = folded
    phi = parametric_char_shifted(model, w, T)
    return float(np.sum(wts * ((phi.real - tr) ** 2 + (phi.imag - ti) ** 2)))


def calibrate_parametric(family, market_slice, budget=20_000, seed=0):
    """Fit a Merton or Kou model to the slice's spectral curve.

    Nelder-Mead from several seeded starting points, then repeated simplex
    restarts from the incumbent until the budget of loss evaluations (at
    least 1) runs out; parameter boxes are enforced through a smooth penalty
    so the simplex can roam.  Returns (model, loss), the loss folded as
    _parametric_loss folds it.
    """
    if family not in _BOXES:
        raise ValueError(f"unknown parametric family {family!r}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    # each model holds Python floats, as one read from its file does; numpy scalars
    # would take numpy's complex division in exp_moment, which rounds differently
    box, cls = _BOXES[family], MODELS[family]
    folded = market_slice.spectral.fold()

    def loss_fn(theta):
        penalty = 0.0
        for value, (lo, hi) in zip(theta, box):
            if value < lo:
                penalty += (lo - value) ** 2
            elif value > hi:
                penalty += (value - hi) ** 2
        if penalty > 0.0:
            return 1e6 * (1.0 + penalty)
        return _parametric_loss(cls(*theta.tolist()), folded, market_slice.T)

    rng = np.random.default_rng(seed)
    starts = [_DEFAULT_STARTS[family].copy()]
    ranges = _START_RANGES[family]
    while len(starts) < 5:  # seeded draws fill up to five starting points
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in ranges]))

    # imported here because scipy.optimize adds start-up time to every CLI command
    from scipy.optimize import minimize

    best_theta, best_loss = None, np.inf
    per_start = max(200, budget // (len(starts) + 4))
    spent = 0
    for x0 in starts:
        res = minimize(loss_fn, x0, method="Nelder-Mead",
                       options={"maxfev": per_start, "xatol": 1e-8, "fatol": 1e-12})
        spent += res.nfev
        if np.isfinite(res.fun) and res.fun < best_loss:
            best_theta, best_loss = res.x, float(res.fun)
    # repeated fresh simplexes from the incumbent escape collapsed valleys
    while best_theta is not None and spent < budget:
        res = minimize(loss_fn, best_theta, method="Nelder-Mead",
                       options={"maxfev": min(3000, budget - spent),
                                "xatol": 1e-12, "fatol": 1e-16})
        spent += res.nfev
        if not (np.isfinite(res.fun) and res.fun < best_loss * (1 - 1e-12)):
            if np.isfinite(res.fun) and res.fun < best_loss:
                best_theta, best_loss = res.x, float(res.fun)
            break
        best_theta, best_loss = res.x, float(res.fun)
    if best_theta is None or not np.isfinite(best_loss) or best_loss >= 1e6:
        raise NoConvergence(f"{family} calibration found no admissible minimum within budget {budget}")
    return cls(*best_theta.tolist()), best_loss


# ---------------------------------------------------------------------------
# Network driver
# ---------------------------------------------------------------------------


def spectral_target(slices, grid, n_groups=1000, group_size=10_000, seed=0):
    """Phi*(w - i) of the amplified groups, averaged over groups.

    Every group is regridded onto the k nodes and the mean curve is
    transformed once.  phi_from_time_values is affine in z, so this equals
    the mean of the groups' own transforms.  The averaged curve is an exact
    stand-in for full-batch training over all groups: the L2 loss against it
    differs from the group-averaged loss only by a parameter-independent
    constant.
    """
    groups = amplify(slices, n_groups, group_size, seed=seed)
    z_sum = np.zeros(grid.n)
    for g in groups:
        z_sum += regrid_time_values(g.k, g.z, grid)
    return phi_from_time_values(z_sum / len(groups), groups[0].r, groups[0].T, grid)


def pooled_slice(slices, grid, m_cutoff, n_groups, group_size, seed):
    """One slice holding every quote of `slices` and the pooled spectral target.

    The target is amplified from seed + 1 and clipped to |w| <= 4 * m_cutoff,
    which must keep at least the two innermost nodes +-dw/2.
    """
    if 4.0 * m_cutoff < grid.w_offset:
        raise ValueError(f"m_cutoff must be at least dw / 8 = {grid.dw / 8} on a grid with "
                         f"dw {grid.dw}, so that the target keeps two nodes |w| <= 4 m_cutoff; "
                         f"got {m_cutoff}")
    target = spectral_target(slices, grid, n_groups, group_size, seed=seed + 1)
    return MarketSlice("pooled", slices[0].T, slices[0].r,
                       np.concatenate([s.k for s in slices]),
                       np.concatenate([s.z for s in slices]),
                       spectral=target.clip(4.0 * m_cutoff))


def evaluate_report(label, sigma, lam, phi_on_grid, pooled, grid, final_loss):
    """The report.json document of one fitted model, with its bucketed z and Phi errors.

    phi_on_grid holds the model's Phi(w - i) on the grid's w nodes; `pooled`
    is the slice from pooled_slice that the model was fitted to.
    """
    z_model = time_values_from_phi(phi_on_grid, pooled.r, pooled.T, grid)
    z_pred = spline_on_grid(grid, z_model)(pooled.k)

    target_curve = pooled.spectral
    keep = np.abs(target_curve.w) < W_EDGES[-1]
    w_rep = target_curve.w[keep]
    tgt_rep = target_curve.values[keep]
    # target nodes are a contiguous central block of the grid's w lattice
    start = int(np.searchsorted(grid.w, w_rep[0] - 0.25 * grid.dw))
    phi_rep = phi_on_grid[start:start + len(w_rep)]
    return {"label": label, "sigma": sigma, "lambda": lam,
            "z_rmse": bucketed_errors(pooled.k, z_pred, pooled.z),
            "phi_re_rmse": bucketed_errors(w_rep, phi_rep.real, tgt_rep.real, kind="spectral"),
            "phi_im_rmse": bucketed_errors(w_rep, phi_rep.imag, tgt_rep.imag, kind="spectral"),
            "final_loss": final_loss}


def run_elnn(market_slices, config, grid=None, n_groups=1000, group_size=10_000):
    """Amplify, transform, train and evaluate; deterministic for fixed seeds.

    Returns (params, per-epoch losses, report).  The training target is the
    pooled slice's spectral curve, truncated to |w| <= 4 * m_cutoff.  The
    report's final_loss is None when no epoch ran.
    """
    grid = grid or SpectralGrid()
    pooled = pooled_slice(market_slices, grid, config.m_cutoff, n_groups, group_size, config.seed)
    params, losses = elnn.train(pooled, config)
    phi_grid = elnn.phi_model(grid.w, params, pooled.T)
    final_loss = float(losses[-1]) if len(losses) else None
    return params, losses, evaluate_report("elnn", params.sigma, elnn.implied_lambda(params),
                                           phi_grid, pooled, grid, final_loss)


def parametric_report(model, pooled, final_loss, grid=None):
    """Evaluate a fitted parametric model against the pooled slice it was fitted to."""
    grid = grid or SpectralGrid()
    phi_grid = parametric_char_shifted(model, grid.w, pooled.T)
    return evaluate_report(model.kind, model.sigma, model.lam, phi_grid, pooled, grid, final_loss)


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
