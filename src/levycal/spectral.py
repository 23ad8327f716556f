"""FFT pricing transforms between characteristic functions and option time values.

Fourier convention:  F[h](w) = integral h(k) e^{ikw} dk  and
F^{-1}[g](k) = (1/2pi) integral g(w) e^{-ikw} dw.

The forward pricing route evaluates the damped transform of the time value

    zeta(w) = e^{iwrT} (Phi(w - i) - 1) / (iw (1 + iw)),
    z(k)    = F^{-1}[zeta](k),
    c(k)    = z(k) + (1 - e^{k - rT})^+,

and the inverse route recovers the market's shifted characteristic function
from observed time values:

    Phi*(w - i) = 1 + e^{-iwrT} iw (1 + iw) F[z*](w).

Both discrete transforms use trapezoid end weights.  The frequency grid is
shifted by half a bin so no node sits on the w = 0 singularity of zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionNearZero, InsufficientSupport, LengthMismatch, ResidueTooLarge
from .levy_models import char_fn

DEFAULT_N = 2**14
DEFAULT_DW = 0.05

_RESIDUE_LIMIT = 1e-6


@dataclass(frozen=True)
class SpectralGrid:
    """Paired uniform log-strike and frequency grids linked by dk*dw*n = 2pi."""

    n: int = DEFAULT_N
    dw: float = DEFAULT_DW

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two, at least 4")
        if self.dw <= 0:
            raise ValueError("dw must be positive")

    @property
    def w_offset(self):
        return 0.5 * self.dw

    @property
    def dk(self):
        return 2.0 * math.pi / (self.n * self.dw)

    @property
    def w(self):
        """Frequency nodes, symmetric pairs +-w, none at zero."""
        return (np.arange(self.n) - self.n / 2 + 0.5) * self.dw

    @property
    def k(self):
        """Log-moneyness nodes, k = 0 included."""
        return (np.arange(self.n) - self.n / 2) * self.dk


def trapezoid_weights(n):
    """Trapezoid weights on n unit-spaced nodes; scale by the spacing for a quadrature."""
    if n < 2:
        raise ValueError("need at least two nodes")
    wts = np.ones(n)
    wts[0] = wts[-1] = 0.5
    return wts


@dataclass
class SpectralCurve:
    """Samples of Phi(w - i) on uniform frequency nodes."""

    w: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.w) != len(self.values):
            raise LengthMismatch("frequency nodes and values differ in length")

    def clip(self, w_max):
        keep = np.abs(self.w) <= w_max
        return SpectralCurve(self.w[keep], self.values[keep])

    def fold(self):
        """(w, wts, re, im): the nodes w > 0, their folded trapezoid weights and
        the real and imaginary parts of the curve's conjugate-symmetric part there.

        For a conjugate-symmetric model Phi, sum(wts * |Phi(w) - (re + i im)|^2)
        is the full-grid trapezoid L2 distance to the curve, less the curve's
        antisymmetric part, a constant no model moves.  The nodes must be an
        even number of +-w pairs.
        """
        w = self.w
        half = len(w) // 2
        if len(w) < 2 or len(w) % 2 or not np.allclose(
                w[:half], -w[::-1][:half], rtol=0, atol=1e-12 * (abs(w[0]) + 1)):
            raise ValueError("the spectral target needs an even number of frequency nodes "
                             f"in +-w pairs, got {len(w)} nodes")
        wts = trapezoid_weights(len(w)) * (w[1] - w[0])
        tr, ti = self.values.real, self.values.imag
        return (w[half:], wts[half:] + wts[::-1][half:],
                0.5 * (tr[half:] + tr[::-1][half:]), 0.5 * (ti[half:] - ti[::-1][half:]))


def _inverse_nodes(grid, values):
    """(1/2pi) integral g(w) e^{-ikw} dw on the k nodes, trapezoid weighted."""
    w0 = grid.w[0]
    k0 = grid.k[0]
    j = np.arange(grid.n)
    pre = values * trapezoid_weights(grid.n) * np.exp(-1j * k0 * j * grid.dw)
    spec = np.fft.fft(pre)
    return (grid.dw / (2.0 * math.pi)) * np.exp(-1j * grid.k * w0) * spec


def _forward_nodes(grid, values):
    """integral h(k) e^{ikw} dk on the w nodes, trapezoid weighted."""
    w0 = grid.w[0]
    k0 = grid.k[0]
    m = np.arange(grid.n)
    pre = values * trapezoid_weights(grid.n) * np.exp(1j * m * grid.dk * w0)
    spec = grid.n * np.fft.ifft(pre)
    return grid.dk * np.exp(1j * k0 * grid.w) * spec


def zeta(w, phi_shifted, r, T):
    """Damped time-value transform zeta(w) = e^{iwrT} (Phi(w-i) - 1) / (iw(1+iw))."""
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) < 1e-12):
        raise DivisionNearZero("zeta is indeterminate at w = 0; use an offset grid")
    iw = 1j * w
    return np.exp(iw * r * T) * (np.asarray(phi_shifted) - 1.0) / (iw * (1.0 + iw))


def call_price(k, z, r, T):
    """Normalized call price: time value plus intrinsic, floored at zero."""
    intrinsic = np.maximum(1.0 - np.exp(np.asarray(k) - r * T), 0.0)
    return np.maximum(np.asarray(z) + intrinsic, 0.0)


def time_values_from_phi(phi_shifted, r, T, grid):
    """Invert zeta to time values given Phi(w - i) samples on the grid's w nodes.

    zeta splits into e^{iwrT} Phi(w-i) / (iw(1+iw)) plus the constant part
    -e^{iwrT} / (iw(1+iw)).  Only the first, which decays with Phi, goes
    through the FFT; the second has the closed-form inverse transform
    sgn(k - rT)/2 + e^{k-rT} 1_{k < rT}.  Without the split, the slow 1/w^2
    tail of zeta leaves an O(1/w_max) truncation bias in z.
    """
    w = grid.w
    iw = 1j * w
    regular = np.exp(iw * r * T) * np.asarray(phi_shifted) / (iw * (1.0 + iw))
    z_complex = _inverse_nodes(grid, regular)
    residue = float(np.max(np.abs(z_complex.imag)))
    if residue > _RESIDUE_LIMIT:
        raise ResidueTooLarge(f"imaginary residue {residue:.3e} exceeds {_RESIDUE_LIMIT:.0e}")
    k = grid.k
    singular = np.sign(k - r * T) / 2.0
    below = k < r * T
    singular[below] += np.exp(k[below] - r * T)
    return z_complex.real + singular


def time_value_curve(triplet, T, r, grid=None):
    """Time values z(k) on the grid's k nodes for a martingale triplet.

    Returns (k, z) arrays.  Raises ResidueTooLarge when the imaginary residue
    of the inverse transform exceeds 1e-6, which signals a grid too coarse
    for the model at hand.
    """
    grid = grid or SpectralGrid()
    phi = char_fn(grid.w - 1j, triplet, T)
    return grid.k.copy(), time_values_from_phi(phi, r, T, grid)


def phi_from_time_values(z_values, r, T, grid):
    """Recover Phi*(w - i) samples from time values aligned to the grid's k nodes.

    Any genuine time-value curve has a derivative jump of -1 at k = rT where
    the intrinsic value kicks in, so its transform decays only like 1/w^2 and
    aliases visibly once multiplied back by iw(1+iw).  A carrier with the same
    kink and a closed-form transform,
    0.5 e^{-|k - rT|}  <->  e^{iwrT} / (1 + w^2),
    is therefore subtracted before the FFT and its exact transform added back.
    """
    z_values = np.asarray(z_values, dtype=float)
    if len(z_values) != grid.n:
        raise LengthMismatch("time values must be aligned to the grid's k nodes")
    w = grid.w
    carrier = 0.5 * np.exp(-np.abs(grid.k - r * T))
    transform = _forward_nodes(grid, z_values - carrier)
    transform += np.exp(1j * w * r * T) / (1.0 + w**2)
    iw = 1j * w
    phi = 1.0 + np.exp(-iw * r * T) * iw * (1.0 + iw) * transform
    return SpectralCurve(w.copy(), phi)


def spline_on_grid(grid, z):
    """The not-a-knot cubic spline through z on the grid's k nodes, as a function of k.

    It equals scipy.interpolate.CubicSpline(grid.k, z) bit for bit, points
    beyond either end included (extrapolated from the end cubics), without
    the start-up time of importing scipy.interpolate.  Every step repeats
    SciPy's arithmetic in SciPy's order: the same bands and right-hand side,
    LAPACK gtsv's elimination and back-substitution for the slopes, and
    PPoly's coefficients and evaluation sum.
    """
    k = grid.k
    z = np.asarray(z, dtype=float)
    n = grid.n
    dx = np.diff(k)
    slope = np.diff(z) / dx
    h0, h1 = k[2] - k[0], k[-1] - k[-3]
    d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    du = np.concatenate(([h0], dx[:-1])).tolist()
    dl = np.concatenate((dx[1:], [h1])).tolist()
    b = np.empty(n)
    b[0] = ((dx[0] + 2 * h0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / h0
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * h1 + dx[-1]) * dx[-2] * slope[-1]) / h1
    b = b.tolist()

    for i in range(n - 1):
        # gtsv swaps rows i and i + 1 unless |d_i| >= |dl_i|; on a uniform grid
        # the diagonal always dominates, so it never does, and neither do we
        assert abs(d[i]) >= abs(dl[i])
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    s = [0.0] * n
    s[-1] = b[-1] / d[-1]
    s[-2] = (b[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        # gtsv's fill-in without row swaps is 0.0, which can still flip the sign of a zero
        s[i] = (b[i] - du[i] * s[i + 1] - 0.0 * s[i + 2]) / d[i]
    s = np.array(s)

    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], z[:-1]

    def spline(q):
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(k, q, "right") - 1, 0, n - 2)
        x = q - k[i]
        # PPoly's sum starts from 0.0, which turns a -0.0 into 0.0
        return 0.0 + c3[i] + c2[i] * x + c1[i] * (x * x) + c0[i] * (x * x * x)

    return spline


def regrid_time_values(k_samples, z_samples, grid):
    """Bin scattered (k, z) samples onto the grid's k nodes.

    Each node takes the mean of the samples in its bin; empty interior bins
    are filled by linear interpolation between the nearest occupied bins, and
    nodes outside the sample span are set to zero (vanishing time value).
    """
    k_samples = np.asarray(k_samples, dtype=float)
    z_samples = np.asarray(z_samples, dtype=float)
    if k_samples.shape != z_samples.shape:
        raise LengthMismatch("k and z sample arrays differ in shape")
    if k_samples.size < 2:
        raise InsufficientSupport("need at least two samples")

    edges_lo = grid.k[0] - 0.5 * grid.dk
    idx = np.floor((k_samples - edges_lo) / grid.dk).astype(int)
    if np.any(idx < 0) or np.any(idx >= grid.n):
        raise InsufficientSupport("samples fall outside the grid's k range")

    sums = np.bincount(idx, weights=z_samples, minlength=grid.n)
    counts = np.bincount(idx, minlength=grid.n)
    occupied = counts > 0
    z = np.zeros(grid.n)
    z[occupied] = sums[occupied] / counts[occupied]

    first, last = np.flatnonzero(occupied)[[0, -1]]
    interior = np.arange(first, last + 1)
    holes = interior[~occupied[interior]]
    if holes.size:
        z[holes] = np.interp(grid.k[holes], grid.k[occupied], z[occupied])

    _check_support(k_samples, z)
    return z


def _check_support(k_samples, z_binned):
    """Reject samples covering under half of a reference Gaussian's time-value region."""
    peak = float(np.max(z_binned, initial=0.0))
    scale = peak * math.sqrt(2.0 * math.pi)  # sigma*sqrt(T) implied by the ATM time value
    if scale <= 0.0 or 0.3989 * scale <= 1e-4:
        return
    half_width = scale * math.sqrt(2.0 * math.log(0.3989 * scale / 1e-4))
    lo, hi = float(np.min(k_samples)), float(np.max(k_samples))
    overlap = max(0.0, min(hi, half_width) - max(lo, -half_width))
    if overlap < 0.5 * (2.0 * half_width):
        raise InsufficientSupport(
            f"samples span [{lo:.3f}, {hi:.3f}] but the reference region is +-{half_width:.3f}"
        )


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
