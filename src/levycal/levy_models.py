"""Levy triplets, parametric jump models, and characteristic functions.

A finite-activity Levy process is described by its triplet (sigma, nu, b).
Its characteristic function follows the Levy-Khinchine formula

    Phi_{X_t}(w) = exp( t * ( -sigma^2 w^2 / 2 + i b w + f(w) ) ),
    f(w) = integral( (e^{iwx} - 1 - i w x 1_{|x|<=1}) nu(dx) ),

and the discounted asset e^{-rt} S_t = S_0 e^{X_t} is a martingale when the
drift satisfies b = -sigma^2/2 - f(-i).

Complex arguments are restricted to the strip Im(w) in [-2, 0], which is
exactly where integrability of e^{2x} nu(dx) guarantees convergence.  The
generic path evaluates f(w) by adaptive quadrature of the density handle;
the Merton and Kou models also carry closed-form exponents used as a fast
path and cross-checked against the quadrature in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFinite

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-12, limit=400)

# Im(w) strip where the shifted characteristic function is defined.
_STRIP_LO, _STRIP_HI = -2.0, 0.0
_STRIP_SLACK = 1e-9


def _check_strip(w):
    im = np.min(np.imag(w)), np.max(np.imag(w))
    if im[0] < _STRIP_LO - _STRIP_SLACK or im[1] > _STRIP_HI + _STRIP_SLACK:
        raise ValueError(f"Im(w) must lie in [{_STRIP_LO}, {_STRIP_HI}], got range {im}")


def _quad_pieces(lo, hi):
    """Split the integration domain at the +-1 kinks of the truncation indicator."""
    cuts = [lo] + [c for c in (-1.0, 1.0) if lo < c < hi] + [hi]
    return list(zip(cuts[:-1], cuts[1:]))


@dataclass
class LevyTriplet:
    """Triplet (sigma, nu, b) with the Levy density given as a callable x -> dnu/dx.

    support is the finite interval outside which the density is numerically
    negligible; all quadratures run over it.  jump_exponent, when present,
    is a closed form for f(w) used instead of quadrature.  mass, when
    present, is the jump intensity of a parametric model, and the density's
    finiteness is then taken from that model instead of checked by quadrature.
    """

    sigma: float
    density: Callable[[np.ndarray], np.ndarray]
    drift_b: float
    support: tuple[float, float]
    jump_exponent: Callable[[np.ndarray], np.ndarray] | None = None
    mass: float | None = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        lo, hi = self.support
        if not lo < hi:
            raise ValueError("empty support interval")
        # [a3] and [a1**]: finite activity and a finite second exponential moment.
        # A supplied mass comes from a parametric model whose constructor
        # already keeps e^{2x} nu integrable, so only a bare density is integrated.
        m2 = 0.0
        if self.mass is None:
            self.mass = total_mass(self.density, self.support)
            m2 = exp_moment(self.density, self.support, 2.0)
        if not (np.isfinite(self.mass) and np.isfinite(m2)):
            raise NonFinite("Levy density violates finiteness assumptions")

    @classmethod
    def martingale(cls, sigma, density, support, jump_exponent=None):
        """Build a triplet with the drift fixed by the martingale condition."""
        b = martingale_drift(sigma, density, support)
        return cls(sigma, density, b, support, jump_exponent=jump_exponent)


def _quad(f, a, b):
    """integral( f(x) dx ) over [a, b] by adaptive quadrature."""
    # imported here, not at the top: scipy.integrate adds start-up time to
    # every CLI command, and only the quadrature paths need it
    from scipy.integrate import quad

    return quad(f, a, b, **_QUAD_KW)[0]


def total_mass(density, support):
    """Jump intensity lambda = integral of the Levy density."""
    return sum(_quad(density, a, b) for a, b in _quad_pieces(*support))


def exp_moment(density, support, order):
    """integral( e^{order * x} nu(dx) ) over the truncated support."""
    val = 0.0
    for a, b in _quad_pieces(*support):
        val += _quad(lambda x: math.exp(order * x) * density(x), a, b)
    return val


def power_moment(density, support, n):
    """integral( x^n nu(dx) ) over the truncated support."""
    val = 0.0
    for a, b in _quad_pieces(*support):
        val += _quad(lambda x: x**n * density(x), a, b)
    return val


def truncated_mean(density, support):
    """integral( x 1_{|x|<=1} nu(dx) ), the drift bookkeeping constant."""
    lo, hi = support
    a, b = max(lo, -1.0), min(hi, 1.0)
    if a >= b:
        return 0.0
    return _quad(lambda x: x * density(x), a, b)


def f_exponent(w, density, support):
    """Jump part f(w) of the Levy-Khinchine exponent by adaptive quadrature.

    Accepts a scalar or an array of complex w with Im(w) in [-2, 0].
    Raises NonFinite when the quadrature does not produce a finite value.
    """
    # imported here for the same start-up reason as in _quad
    from scipy.integrate import quad_vec

    _check_strip(w)
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))

    def integrand(x):
        trunc = 1.0 if abs(x) <= 1.0 else 0.0
        return (np.exp(1j * w_arr * x) - 1.0 - 1j * w_arr * x * trunc) * density(x)

    total = np.zeros_like(w_arr)
    for a, b in _quad_pieces(*support):
        piece, _ = quad_vec(integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=2000)
        total += piece
    if not np.all(np.isfinite(total)):
        raise NonFinite("quadrature of the jump exponent failed to converge")
    return total[0] if np.isscalar(w) or np.ndim(w) == 0 else total


def martingale_drift(sigma, density, support):
    """Drift b = -sigma^2/2 - f(-i) making the discounted asset a martingale."""
    f_mi = f_exponent(-1j, density, support)
    return -0.5 * sigma**2 - float(np.real(f_mi))


def char_fn(w, triplet, T):
    """Characteristic function Phi_{X_T}(w) = exp(T(-sigma^2 w^2/2 + i b w + f(w)))."""
    if T <= 0:
        raise ValueError("T must be positive")
    _check_strip(w)
    w_arr = np.asarray(w, dtype=complex)
    if triplet.jump_exponent is not None:
        f_w = triplet.jump_exponent(w_arr)
    else:
        f_w = f_exponent(w_arr, triplet.density, triplet.support)
    psi = -0.5 * triplet.sigma**2 * w_arr**2 + 1j * triplet.drift_b * w_arr + f_w
    out = np.exp(T * psi)
    if not np.all(np.isfinite(out)):
        raise NonFinite("characteristic function evaluation produced non-finite values")
    return out


@dataclass
class CumulantSet:
    """First four cumulants of X_delta plus the derived shape statistics."""

    delta: float
    k1: float
    k2: float
    k3: float
    k4: float

    @property
    def mean(self):
        return self.k1

    @property
    def std(self):
        return math.sqrt(self.k2)

    @property
    def skewness(self):
        return self.k3 / (self.k2 * math.sqrt(self.k2))

    @property
    def excess_kurtosis(self):
        return self.k4 / (self.k2 * self.k2)


def cumulants(triplet, delta):
    """Cumulants of the increment X_delta; exactly linear in delta by construction.

    k1 is the full E[X_delta], i.e. drift plus the mass of jumps beyond the
    |x|<=1 truncation, so the bookkeeping constant never leaks out.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    dens, sup = triplet.density, triplet.support
    m1_outer = power_moment(dens, sup, 1) - truncated_mean(dens, sup)
    base = (
        triplet.drift_b + m1_outer,
        triplet.sigma**2 + power_moment(dens, sup, 2),
        power_moment(dens, sup, 3),
        power_moment(dens, sup, 4),
    )
    if not all(np.isfinite(base)):
        raise NonFinite("cumulant quadrature failed")
    return CumulantSet(delta, *(delta * b for b in base))


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------


@dataclass
class MertonModel:
    """Jump diffusion with Gaussian jumps: nu(x) = lam * N(mu, delta^2) pdf."""

    sigma: float
    lam: float
    mu: float
    delta: float

    kind = "merton"

    def __post_init__(self):
        if self.sigma < 0 or self.lam < 0:
            raise ValueError("sigma and lam must be nonnegative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def support(self):
        lo = min(-1.0, self.mu - 10.0 * self.delta)
        hi = max(1.0, self.mu + 10.0 * self.delta)
        return (lo, hi)

    def density(self, x):
        return merton_density(x, self)

    def exp_moment(self, a):
        """integral e^{ax} nu(dx) = lam * exp(a mu + a^2 delta^2 / 2)."""
        return self.lam * np.exp(a * self.mu + 0.5 * a**2 * self.delta**2)

    def truncated_mean(self):
        # integral_{-1}^{1} x nu(dx) in closed form via the normal cdf/pdf
        # (ndtr and _norm_pdf are what scipy.stats.norm evaluates); imported
        # here because scipy.special adds start-up time to every CLI command
        from scipy.special import ndtr

        alpha = (-1.0 - self.mu) / self.delta
        beta = (1.0 - self.mu) / self.delta
        return self.lam * (
            self.mu * (ndtr(beta) - ndtr(alpha))
            - self.delta * (_norm_pdf(beta) - _norm_pdf(alpha))
        )

    def jump_exponent(self, w):
        w = np.asarray(w, dtype=complex)
        hat_nu = self.lam * np.exp(1j * w * self.mu - 0.5 * self.delta**2 * w**2)
        return hat_nu - self.lam - 1j * w * self.truncated_mean()

    def drift(self):
        f_mi = self.exp_moment(1.0) - self.lam - self.truncated_mean()
        return -0.5 * self.sigma**2 - f_mi

    def jump_moment(self, n):
        """integral x^n nu(dx) for n <= 4."""
        mu, d2 = self.mu, self.delta**2
        central = {1: mu, 2: mu**2 + d2, 3: mu**3 + 3 * mu * d2, 4: mu**4 + 6 * mu**2 * d2 + 3 * d2**2}
        return self.lam * central[n]

    def triplet(self):
        return LevyTriplet(
            self.sigma, self.density, self.drift(), self.support,
            jump_exponent=self.jump_exponent, mass=self.lam,
        )


@dataclass
class KouModel:
    """Double-exponential jump diffusion.

    Up jumps arrive at rate p*lam with sizes Exp(lam_plus), down jumps at rate
    (1-p)*lam with magnitudes Exp(lam_minus).  lam_plus > 2 keeps the second
    exponential moment of the density finite.
    """

    sigma: float
    lam: float
    p: float
    lam_plus: float
    lam_minus: float

    kind = "kou"

    def __post_init__(self):
        if self.sigma < 0 or self.lam < 0:
            raise ValueError("sigma and lam must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.lam_plus <= 2.0:
            raise ValueError("lam_plus must exceed 2 for a finite second exponential moment")
        if self.lam_minus <= 0.0:
            raise ValueError("lam_minus must be positive")

    @property
    def support(self):
        half = max(1.5, 40.0 / min(self.lam_plus - 2.0, self.lam_minus))
        return (-half, half)

    def density(self, x):
        return kou_density(x, self)

    def exp_moment(self, a):
        if a >= self.lam_plus:
            raise NonFinite("exponential moment diverges")
        up = self.p * self.lam_plus / (self.lam_plus - a)
        dn = (1.0 - self.p) * self.lam_minus / (self.lam_minus + a)
        return self.lam * (up + dn)

    def truncated_mean(self):
        def one_sided(eta):
            # integral_0^1 x eta e^{-eta x} dx
            return 1.0 / eta - math.exp(-eta) * (1.0 + 1.0 / eta)

        return self.lam * (
            self.p * one_sided(self.lam_plus) - (1.0 - self.p) * one_sided(self.lam_minus)
        )

    def jump_exponent(self, w):
        w = np.asarray(w, dtype=complex)
        hat_nu = self.lam * (
            self.p * self.lam_plus / (self.lam_plus - 1j * w)
            + (1.0 - self.p) * self.lam_minus / (self.lam_minus + 1j * w)
        )
        return hat_nu - self.lam - 1j * w * self.truncated_mean()

    def drift(self):
        f_mi = self.exp_moment(1.0) - self.lam - self.truncated_mean()
        return -0.5 * self.sigma**2 - f_mi

    def jump_moment(self, n):
        fact = math.factorial(n)
        return self.lam * fact * (
            self.p / self.lam_plus**n + (1.0 - self.p) * (-1.0) ** n / self.lam_minus**n
        )

    def triplet(self):
        return LevyTriplet(
            self.sigma, self.density, self.drift(), self.support,
            jump_exponent=self.jump_exponent, mass=self.lam,
        )


@dataclass
class CustomModel:
    """Tabulated Levy density interpolated linearly; zero outside the table."""

    sigma: float
    x: np.ndarray
    dvdx: np.ndarray

    kind = "custom"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.dvdx = np.asarray(self.dvdx, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2 or np.any(np.diff(self.x) <= 0):
            raise ValueError("x must be a strictly increasing table")
        if self.x.shape != self.dvdx.shape:
            raise ValueError("x and dvdx tables must be aligned")
        if np.any(self.dvdx < 0):
            raise ValueError("density values must be nonnegative")

    @property
    def support(self):
        return (float(self.x[0]), float(self.x[-1]))

    def density(self, xq):
        return np.interp(xq, self.x, self.dvdx, left=0.0, right=0.0)

    def triplet(self):
        return LevyTriplet.martingale(self.sigma, self.density, self.support)


def parametric_char_shifted(model, w, T):
    """Closed-form Phi(w - i) for a parametric model, bypassing quadrature.

    Used in calibration loops where the characteristic function is evaluated
    thousands of times per fit.
    """
    u = np.asarray(w, dtype=float) - 1j
    psi = -0.5 * model.sigma**2 * u**2 + 1j * model.drift() * u + model.jump_exponent(u)
    return np.exp(T * psi)


def _norm_pdf(x):
    """Standard normal pdf, the formula scipy.stats.norm.pdf evaluates."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def merton_density(x, model):
    """Merton Levy density lam * N(mu, delta^2) pdf evaluated at x."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = (x - model.mu) / model.delta
    out = model.lam / (model.delta * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    return float(out[0]) if scalar else out


def kou_density(x, model):
    """Kou Levy density; the measure-zero point x=0 is assigned the value 0."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x, dtype=float)
    pos = x > 0
    neg = x < 0
    out[pos] = model.p * model.lam * model.lam_plus * np.exp(-model.lam_plus * x[pos])
    out[neg] = (1.0 - model.p) * model.lam * model.lam_minus * np.exp(model.lam_minus * x[neg])
    return float(out[0]) if scalar else out
