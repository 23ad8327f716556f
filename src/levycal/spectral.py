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

from .errors import InsufficientSupport, LengthMismatch, ResidueTooLarge

DEFAULT_N = 2**14
DEFAULT_DW = 0.05

_RESIDUE_LIMIT = 1e-6
# nodes or query points per block of a step whose temporaries would otherwise
# grow with its input: the networks' bumps and the spline's terms
_BLOCK = 2048


@dataclass(frozen=True)
class SpectralGrid:
    """Paired uniform log-strike and frequency grids linked by dk*dw*n = 2pi."""

    n: int = DEFAULT_N
    dw: float = DEFAULT_DW

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError(f"'n' must be a power of two, at least 4, got {self.n}")
        if self.dw <= 0:
            raise ValueError(f"'dw' must be positive, got {self.dw}")

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


def inverse_real(grid, values):
    """The real part of _inverse_nodes(grid, values), a transform that should be real.

    Raises ResidueTooLarge when the imaginary residue exceeds _RESIDUE_LIMIT
    at any k node, which signals a grid too coarse for the values.
    """
    g = _inverse_nodes(grid, values)
    residue = float(np.max(np.abs(g.imag)))
    if not residue <= _RESIDUE_LIMIT:  # a NaN residue fails too
        raise ResidueTooLarge(f"imaginary residue {residue:.3e} exceeds {_RESIDUE_LIMIT:.0e}")
    return g.real


def _forward_nodes(grid, values):
    """integral h(k) e^{ikw} dk on the w nodes, trapezoid weighted."""
    w0 = grid.w[0]
    k0 = grid.k[0]
    m = np.arange(grid.n)
    pre = values * trapezoid_weights(grid.n) * np.exp(1j * m * grid.dk * w0)
    spec = grid.n * np.fft.ifft(pre)
    return grid.dk * np.exp(1j * k0 * grid.w) * spec


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
    z_regular = inverse_real(grid, regular)
    k = grid.k
    singular = np.sign(k - r * T) / 2.0
    below = k < r * T
    singular[below] += np.exp(k[below] - r * T)
    return z_regular + singular


def time_value_curve(law, T, r, grid=None):
    """Time values z(k) on the grid's k nodes for a fitted law.

    The law is a jump model or ElnnParams: anything with phi_shifted(w, T),
    its Phi(w - i) at real frequencies.  Returns (k, z) arrays.  Raises
    ResidueTooLarge as inverse_real does, when the imaginary residue of the
    inverse transform exceeds _RESIDUE_LIMIT, which signals a grid too coarse
    for the law at hand.
    """
    grid = grid or SpectralGrid()
    phi = law.phi_shifted(grid.w, T)
    return grid.k, time_values_from_phi(phi, r, T, grid)


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
    return SpectralCurve(w, phi)


def spline_on_grid(grid, z):
    """The not-a-knot cubic spline through z on the grid's k nodes, as a function of k.

    It equals scipy.interpolate.CubicSpline(grid.k, z) bit for bit, points
    beyond either end included (extrapolated from the end cubics), without
    the start-up time of importing scipy.interpolate.  Every step repeats
    SciPy's arithmetic in SciPy's order: the same bands and right-hand side,
    LAPACK gtsv's elimination and back-substitution for the slopes, and
    PPoly's coefficients and evaluation sum.  The solve reads and writes its
    float64 bands through memoryviews, so it holds no grid-sized list.
    """
    k = grid.k
    z = np.asarray(z, dtype=float)
    n = grid.n
    dx = np.diff(k)
    slope = np.diff(z) / dx
    h0, h1 = k[2] - k[0], k[-1] - k[-3]
    d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    du = np.concatenate(([h0], dx[:-1]))
    dl = np.concatenate((dx[1:], [h1]))
    b = np.empty(n)
    b[0] = ((dx[0] + 2 * h0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / h0
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * h1 + dx[-1]) * dx[-2] * slope[-1]) / h1

    # gtsv's elimination, then its back-substitution, row by row through memoryviews
    # of the float64 arrays, which read and write one Python float at a time
    s = np.empty(n)
    with (memoryview(d) as dv, memoryview(du) as duv, memoryview(dl) as dlv,
          memoryview(b) as bv, memoryview(s) as sv):
        d_j, b_j = dv[0], bv[0]
        for j, dl_j, du_j in zip(range(n - 1), dlv, duv):
            # gtsv swaps rows j and j + 1 unless |d_j| >= |dl_j|; on a uniform grid
            # the diagonal always dominates, so it never does, and neither do we
            assert abs(d_j) >= abs(dl_j)
            fact = dl_j / d_j
            d_j = dv[j + 1] = dv[j + 1] - fact * du_j
            b_j = bv[j + 1] = bv[j + 1] - fact * b_j
        s1 = sv[n - 1] = b_j / d_j
        s0 = sv[n - 2] = (bv[n - 2] - duv[n - 2] * s1) / dv[n - 2]
        for j, b_j, du_j, d_j in zip(range(n - 3, -1, -1), bv[n - 3::-1], duv[n - 3::-1],
                                     dv[n - 3::-1]):
            # gtsv's fill-in without row swaps is 0.0, which can still flip the sign of a zero
            s0, s1 = (b_j - du_j * s0 - 0.0 * s1) / d_j, s0
            sv[j] = s0
    del d, du, dl, b

    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], z[:-1]

    def spline(q):
        q = np.asarray(q, dtype=float)
        flat = q.reshape(-1)
        out = np.empty(flat.size)
        for start in range(0, flat.size, _BLOCK):  # temporaries of one block at a time
            block = flat[start:start + _BLOCK]
            i = np.clip(np.searchsorted(k, block, "right") - 1, 0, n - 2)
            x = block - k[i]
            # PPoly's sum starts from 0.0, which turns a -0.0 into 0.0
            out[start:start + _BLOCK] = (0.0 + c3[i] + c2[i] * x + c1[i] * (x * x)
                                         + c0[i] * (x * x * x))
        return out.reshape(q.shape)

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

    # grid.k[0], without building the grid's k nodes
    edges_lo = (0 - grid.n / 2) * grid.dk - 0.5 * grid.dk
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
        k = grid.k
        z[holes] = np.interp(k[holes], k[occupied], z[occupied])

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

