"""Jump models and their characteristic functions.

A finite-activity Levy process is described by its triplet (sigma, nu, b);
each jump model is that triplet, with its sigma, its Levy measure nu and the
martingale drift b.
Its characteristic function follows the Levy-Khinchine formula

    Phi_{X_t}(w) = exp( t * ( -sigma^2 w^2 / 2 + i b w + f(w) ) ),
    f(w) = integral( (e^{iwx} - 1 - i w x 1_{|x|<=1}) nu(dx) ),

and the discounted asset e^{-rt} S_t = S_0 e^{X_t} is a martingale when the
drift satisfies b = -sigma^2/2 - f(-i).

Complex arguments are restricted to the strip Im(w) in [-2, 0], which is
exactly where integrability of e^{2x} nu(dx) guarantees convergence.  Every
jump model (Merton, Kou and a linearly interpolated table) evaluates its
integrals of nu in closed form: the mass lambda, the transform
nu_hat(w) = integral( e^{iwx} nu(dx) ), the truncated mean and the power
moments, so f(w) = nu_hat(w) - lambda - i w * truncated mean.  f_exponent
integrates f(w) by adaptive quadrature of a density instead; it is the
reference the test suite checks the closed forms against.  Merton's truncated
mean needs the normal cdf: _ndtr ports Cephes' ndtr, the algorithm
scipy.special.ndtr runs, so evaluating a model imports no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite

# Im(w) strip where the shifted characteristic function is defined.
_STRIP_LO, _STRIP_HI = -2.0, 0.0
_STRIP_SLACK = 1e-9


def _check_strip(w):
    im = np.imag(w)
    if not np.size(im):
        return
    im = np.min(im), np.max(im)
    if im[0] < _STRIP_LO - _STRIP_SLACK or im[1] > _STRIP_HI + _STRIP_SLACK:
        raise ValueError(f"Im(w) must lie in [{_STRIP_LO}, {_STRIP_HI}], got range {im}")


def f_exponent(w, density, support):
    """Jump part f(w) of the Levy-Khinchine exponent by adaptive quadrature.

    Accepts a scalar or an array of complex w with Im(w) in [-2, 0].
    Raises NonFinite when the quadrature does not produce a finite value.
    """
    # imported here, not at the top: scipy.integrate adds start-up time, and no
    # command needs it because every jump model has closed forms
    from scipy.integrate import quad_vec

    _check_strip(w)
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))

    def integrand(x):
        trunc = 1.0 if abs(x) <= 1.0 else 0.0
        return (np.exp(1j * w_arr * x) - 1.0 - 1j * w_arr * x * trunc) * density(x)

    # pieces split at the +-1 kinks of the truncation indicator
    lo, hi = support
    cuts = [lo] + [c for c in (-1.0, 1.0) if lo < c < hi] + [hi]
    total = np.zeros_like(w_arr)
    for a, b in zip(cuts[:-1], cuts[1:]):
        piece, _ = quad_vec(integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=2000)
        total += piece
    if not np.all(np.isfinite(total)):
        raise NonFinite("quadrature of the jump exponent failed to converge")
    return total[0] if np.isscalar(w) or np.ndim(w) == 0 else total


def _char_in_strip(w_arr, model, T):
    """Phi_{X_T}(w) = exp(T(-sigma^2 w^2/2 + i b w + f(w))) at a complex array in the strip."""
    if T <= 0:
        raise ValueError("T must be positive")
    # the result is checked below, so numpy's overflow and invalid-value warnings are not shown
    with np.errstate(over="ignore", invalid="ignore"):
        f_w = model.jump_exponent(w_arr)
        psi = -0.5 * model.sigma**2 * w_arr**2 + 1j * model.drift() * w_arr + f_w
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


def cumulants(model, delta):
    """Cumulants of the increment X_delta; exactly linear in delta by construction.

    k1 is the full E[X_delta], i.e. drift plus the mass of jumps beyond the
    |x|<=1 truncation, so the bookkeeping constant never leaks out.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    m1_outer = model.jump_moment(1) - model.truncated_mean()
    base = (
        model.drift() + m1_outer,
        model.sigma**2 + model.jump_moment(2),
        model.jump_moment(3),
        model.jump_moment(4),
    )
    if not all(np.isfinite(base)):
        raise NonFinite("cumulants of the jump model are not finite")
    return CumulantSet(delta, *(delta * b for b in base))


# ---------------------------------------------------------------------------
# Jump models
# ---------------------------------------------------------------------------


class _JumpModel:
    """Levy-Khinchine bookkeeping shared by the jump models.

    A model supplies sigma, the mass lam, nu_hat(w) = integral( e^{iwx} nu(dx) ),
    truncated_mean() and jump_moment(n), all in closed form.  As a fitted law it
    gives what ElnnParams gives: kind, sigma, lam and phi_shifted(w, T).
    """

    def jump_exponent(self, w):
        """f(w) = nu_hat(w) - lam - i w integral( x 1_{|x|<=1} nu(dx) )."""
        w = np.asarray(w, dtype=complex)
        return self.nu_hat(w) - self.lam - 1j * w * self.truncated_mean()

    def exp_moment(self, a):
        """integral e^{ax} nu(dx) = nu_hat(-ia)."""
        return float(np.real(self.nu_hat(-1j * a)))

    def drift(self):
        """Drift b = -sigma^2/2 - f(-i) making the discounted asset a martingale."""
        f_mi = self.exp_moment(1.0) - self.lam - self.truncated_mean()
        return -0.5 * self.sigma**2 - f_mi

    def phi_shifted(self, w, T):
        """Phi(w - i) at real frequencies w."""
        return parametric_char_shifted(self, w, T)

    def triplet(self):
        """The model itself, checked for [a3] finite activity and [a1**] a finite e^{2x} moment.

        A table reaching far to the right overflows e^{2x}, which this reports."""
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.lam) and np.isfinite(self.exp_moment(2.0))
        if not finite:
            raise NonFinite("Levy density violates finiteness assumptions")
        return self


@dataclass
class MertonModel(_JumpModel):
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

    def density(self, x):
        """lam * N(mu, delta^2) pdf at x."""
        scalar = np.ndim(x) == 0
        z = (np.atleast_1d(np.asarray(x, dtype=float)) - self.mu) / self.delta
        out = self.lam / (self.delta * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
        return float(out[0]) if scalar else out

    def nu_hat(self, w):
        return self.lam * np.exp(1j * w * self.mu - 0.5 * self.delta**2 * w**2)

    def truncated_mean(self):
        # integral_{-1}^{1} x nu(dx) in closed form via the normal cdf/pdf
        # (_ndtr and _norm_pdf equal what scipy.stats.norm evaluates)
        alpha = (-1.0 - self.mu) / self.delta
        beta = (1.0 - self.mu) / self.delta
        return self.lam * (
            self.mu * (_ndtr(beta) - _ndtr(alpha))
            - self.delta * (_norm_pdf(beta) - _norm_pdf(alpha))
        )

    def jump_moment(self, n):
        """integral x^n nu(dx) for n <= 4."""
        mu, d2 = self.mu, self.delta**2
        central = {1: mu, 2: mu**2 + d2, 3: mu**3 + 3 * mu * d2, 4: mu**4 + 6 * mu**2 * d2 + 3 * d2**2}
        return self.lam * central[n]


@dataclass
class KouModel(_JumpModel):
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

    def density(self, x):
        """Kou Levy density; the measure-zero point x=0 is assigned the value 0."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x, dtype=float)
        pos, neg = x > 0, x < 0
        out[pos] = self.p * self.lam * self.lam_plus * np.exp(-self.lam_plus * x[pos])
        out[neg] = (1.0 - self.p) * self.lam * self.lam_minus * np.exp(self.lam_minus * x[neg])
        return float(out[0]) if scalar else out

    def nu_hat(self, w):
        return self.lam * (
            self.p * self.lam_plus / (self.lam_plus - 1j * w)
            + (1.0 - self.p) * self.lam_minus / (self.lam_minus + 1j * w)
        )

    def truncated_mean(self):
        def one_sided(eta):
            # integral_0^1 x eta e^{-eta x} dx
            return 1.0 / eta - math.exp(-eta) * (1.0 + 1.0 / eta)

        return self.lam * (
            self.p * one_sided(self.lam_plus) - (1.0 - self.p) * one_sided(self.lam_minus)
        )

    def jump_moment(self, n):
        fact = math.factorial(n)
        return self.lam * fact * (
            self.p / self.lam_plus**n + (1.0 - self.p) * (-1.0) ** n / self.lam_minus**n
        )


@dataclass
class CustomModel(_JumpModel):
    """Tabulated Levy density interpolated linearly; zero outside the table.

    Every integral of nu is a sum over the table's segments.  Each segment is
    written about its midpoint c, with half-width h, mid value m and slope
    beta, so nu = m + beta (x - c) on [c - h, c + h].
    """

    sigma: float
    x: np.ndarray
    dvdx: np.ndarray

    kind = "custom"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.dvdx = np.asarray(self.dvdx, dtype=float)
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.x.ndim != 1 or self.x.size < 2 or np.any(np.diff(self.x) <= 0):
            raise ValueError("x must be a strictly increasing table")
        if self.x.shape != self.dvdx.shape:
            raise ValueError("x and dvdx tables must be aligned")
        if np.any(self.dvdx < 0):
            raise ValueError("density values must be nonnegative")

    def density(self, xq):
        return np.interp(xq, self.x, self.dvdx, left=0.0, right=0.0)

    def _segments(self, lo=-np.inf, hi=np.inf):
        """(c, h, m, beta) of every segment, its ends clipped to [lo, hi]."""
        beta = np.diff(self.dvdx) / np.diff(self.x)
        a = np.clip(self.x[:-1], lo, hi)
        h = 0.5 * (np.clip(self.x[1:], lo, hi) - a)
        c = a + h
        return c, h, self.dvdx[:-1] + beta * (c - self.x[:-1]), beta

    @property
    def lam(self):
        return _segment_moment(*self._segments(), 0)

    def nu_hat(self, w):
        # the segment term e^{iwc} (2hm sin(y)/y + 2i h^2 beta (sin y - y cos y)/y^2),
        # y = wh; the plain 1/(iw)^2 form of the same integral loses every digit
        # near w = 0
        w = np.asarray(w, dtype=complex)
        total = np.zeros(w.shape, dtype=complex)
        for c, h, m, beta in zip(*self._segments()):
            even, odd = _segment_kernels(w * h)
            total += np.exp(1j * w * c) * (2.0 * h * m * even + 2j * h * h * beta * odd)
        return total

    def truncated_mean(self):
        return _segment_moment(*self._segments(-1.0, 1.0), 1)

    def jump_moment(self, n):
        return _segment_moment(*self._segments(), n)


def _segment_kernels(y):
    """sin(y)/y and (sin y - y cos y)/y^2.

    Below |y| = 0.01 both come from their series, which avoid the 0/0 at y = 0
    and the cancellation in sin y - y cos y.
    """
    small = np.abs(y) < 1e-2
    ys = np.where(small, 1.0, y)
    sin, cos = np.sin(ys), np.cos(ys)
    y2 = y * y
    even = np.where(small, 1.0 - y2 / 6.0 + y2 * y2 / 120.0, sin / ys)
    odd = np.where(small, y * (1.0 / 3.0 - y2 / 30.0 + y2 * y2 / 840.0),
                   (sin - ys * cos) / (ys * ys))
    return even, odd


def _segment_moment(c, h, m, beta, n):
    """Sum over segments of integral_{c-h}^{c+h} x^n (m + beta (x - c)) dx.

    With x = c + t, only even powers of t survive the symmetric integral:
    t^k pairs with m for even k and t^{k+1} with beta for odd k.
    """
    total = np.zeros_like(c)
    for k in range(n + 1):
        p = k + k % 2  # the even power of t that survives
        coef = m if k % 2 == 0 else beta
        total += math.comb(n, k) * c ** (n - k) * coef * 2.0 * h ** (p + 1) / (p + 1)
    return float(np.sum(total))


def parametric_char_shifted(model, w, T):
    """Phi(w - i) at real frequencies w, the curve every fit compares with its target."""
    # Im(w - i) = -1 at every real w, inside the strip, so no strip check is needed
    return _char_in_strip(np.asarray(w, dtype=float) - 1j, model, T)


def _norm_pdf(x):
    """Standard normal pdf, the formula scipy.stats.norm.pdf evaluates."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


# Cephes' ndtr (S. Moshier), which scipy.special.ndtr runs: its erf table T/U,
# its erfc tables P/Q (below 8) and R/S (from 8), and MAXLOG, past which
# e^{-z^2} underflows.  U, Q and S carry the unit leading coefficient that
# Cephes' p1evl leaves out of its tables; 1.0 * x + c is exactly x + c
_SQRTH = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x, coef):
    """Cephes' Horner sum of the polynomial with coefficients coef, highest first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes' erf for |x| <= 1, the only range _ndtr asks of it."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(z):
    """Cephes' erfc for z >= sqrt(1/2), the only range _ndtr asks of it."""
    if z < 1.0:
        return 1.0 - _erf(z)
    if z * z > _MAXLOG:
        return 0.0
    if z < 8.0:
        p, q = _polevl(z, _ERFC_P), _polevl(z, _ERFC_Q)
    else:
        p, q = _polevl(z, _ERFC_R), _polevl(z, _ERFC_S)
    return (math.exp(-z * z) * p) / q


def _ndtr(a):
    """Standard normal cdf; equals scipy.special.ndtr bit for bit, without the
    start-up time of importing scipy.special.  A NaN falls through to NaN."""
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


# every jump model by the kind its files name it
MODELS = {cls.kind: cls for cls in (MertonModel, KouModel, CustomModel)}
