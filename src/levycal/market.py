"""Virtual-market generation, data amplification, and real-quote ingestion.

Virtual markets draw daily batches of log-moneyness points, read the model's
time value off a dense FFT curve, and perturb each sample with proportional
noise N(0, (scale * z)^2), truncated so time values stay nonnegative.
Amplification pools every sample across days and resamples large synthetic
one-day groups with replacement, which is what makes the daily Fourier
inversion well conditioned.

Quote ingestion applies the liquidity filters (volume and minimum price),
converts puts through put-call parity and maps prices to time values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyPool, MixedMaturities, NonFinite, ParseError
from .levy_models import cumulants
from .spectral import SpectralCurve, SpectralGrid, time_value_curve

TRADING_DAYS = 252.0


@dataclass
class OptionQuote:
    strike: float
    spot: float
    maturity: float
    price: float
    is_call: bool
    volume: int
    trade_date: str


@dataclass
class NoiseSpec:
    """Proportional market noise: z* = z + N(0, (scale * z)^2), floored at 0."""

    scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"noise scale must be finite and nonnegative, got {self.scale}")


@dataclass
class MarketSlice:
    """One calibration unit: samples (k, z*) sharing a maturity and rate."""

    label: str
    T: float
    r: float
    k: np.ndarray
    z: np.ndarray
    spectral: SpectralCurve | None = None

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.k.shape != self.z.shape:
            raise ValueError("k and z arrays must be aligned")


@dataclass
class QuoteFilters:
    """Liquidity filters: keep quotes with volume >= min_volume and price >= min_price."""

    min_volume: int = 100
    min_price: float = 0.5


def uniform_k_sampler(lo=-0.4, hi=0.4):
    """Default moneyness sampler for virtual markets."""

    def sample(rng, size):
        return rng.uniform(lo, hi, size)

    return sample


def generate_virtual_market(model, days, per_day, T, r, k_sampler=None, noise=None, grid=None):
    """Simulate `days` daily slices of `per_day` noisy time-value observations.

    The model curve is computed once on the FFT grid and interpolated with a
    cubic spline at the sampled moneyness points.  Every day owns an RNG
    substream spawned from the master seed, so output is reproducible and
    independent of evaluation order.
    """
    if days < 1 or per_day < 1:
        raise ValueError(f"days and per_day must be at least 1, got {days} and {per_day}")
    # imported here because scipy.interpolate adds start-up time to every CLI command
    from scipy.interpolate import CubicSpline

    k_sampler = k_sampler or uniform_k_sampler()
    noise = noise or NoiseSpec()
    grid = grid or SpectralGrid()
    k_nodes, z_nodes = time_value_curve(model.triplet(), T, r, grid)
    spline = CubicSpline(k_nodes, z_nodes)

    streams = np.random.SeedSequence(noise.seed).spawn(days)
    slices = []
    for day, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        k = np.asarray(k_sampler(rng, per_day), dtype=float)
        z_clean = np.maximum(spline(k), 0.0)
        z_noisy = z_clean + rng.normal(0.0, 1.0, per_day) * (noise.scale * z_clean)
        slices.append(MarketSlice(f"day-{day:04d}", T, r, k, np.maximum(z_noisy, 0.0)))
    return slices


def amplify(slices, n_groups=1000, group_size=10_000, seed=0):
    """Pool all samples and resample synthetic one-day groups with replacement.

    When group_size equals the pool size and a single group is requested the
    pool is permuted instead, so nothing is lost or duplicated.
    """
    if n_groups < 1:
        raise ValueError(f"n_groups must be at least 1, got {n_groups}")
    if not slices:
        raise EmptyPool("no slices to amplify")
    T, r = slices[0].T, slices[0].r
    if any(s.T != T or s.r != r for s in slices):
        raise MixedMaturities("amplification requires slices sharing T and r")
    pool_k = np.concatenate([s.k for s in slices])
    pool_z = np.concatenate([s.z for s in slices])
    if pool_k.size == 0:
        raise EmptyPool("sample pool is empty")

    rng = np.random.default_rng(seed)
    groups = []
    for g in range(n_groups):
        if n_groups == 1 and group_size == pool_k.size:
            idx = rng.permutation(pool_k.size)
        else:
            idx = rng.integers(0, pool_k.size, group_size)
        groups.append(MarketSlice(f"group-{g:04d}", T, r, pool_k[idx], pool_z[idx]))
    return groups


def ingest_quotes(csv_stream, filters=None):
    """Parse the quote CSV schema and apply the liquidity filters.

    Schema (header required):
        trade_date,expiry_date,strike,spot,is_call,price,volume
    Maturity is the business-day count between the dates over 252.
    Returns (quotes, kept, dropped).
    """
    filters = filters or QuoteFilters()
    reader = csv.reader(csv_stream)
    header = next(reader, None)
    expected = ["trade_date", "expiry_date", "strike", "spot", "is_call", "price", "volume"]
    if header is None or [h.strip() for h in header] != expected:
        raise ParseError(1, f"expected header {','.join(expected)}")

    quotes, dropped = [], 0
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise ParseError(line_no, f"expected 7 fields, got {len(row)}")
        trade_date, expiry_date, strike_s, spot_s, is_call_s, price_s, volume_s = row
        try:
            strike = float(strike_s)
            spot = float(spot_s)
            price = float(price_s)
            volume = int(volume_s)
            busdays = int(np.busday_count(trade_date.strip(), expiry_date.strip()))
        except (ValueError, TypeError) as exc:
            raise ParseError(line_no, str(exc)) from None
        if is_call_s.strip() not in ("0", "1"):
            raise ParseError(line_no, f"is_call must be 0 or 1, got {is_call_s!r}")
        if strike <= 0 or spot <= 0 or price <= 0:
            raise ParseError(line_no, "strike, spot and price must be positive")
        if volume < 0:
            raise ParseError(line_no, "volume must be nonnegative")
        if busdays <= 0:
            raise ParseError(line_no, "expiry must fall after the trade date")

        if volume < filters.min_volume or price < filters.min_price:
            dropped += 1
            continue
        quotes.append(OptionQuote(strike, spot, busdays / TRADING_DAYS, price,
                                  is_call_s.strip() == "1", volume, trade_date.strip()))
    return quotes, len(quotes), dropped


def to_time_values(quotes, r, label="slice"):
    """Convert quotes sharing one maturity into a (k, z*) slice.

    Puts become calls via call = put + spot - strike e^{-rT}; time value is
    the normalized price less intrinsic, clamped at zero.  Returns the slice
    and the count of clamped samples.
    """
    if not quotes:
        raise MixedMaturities("no quotes supplied")
    T = quotes[0].maturity
    if any(q.maturity != T for q in quotes):
        raise MixedMaturities("quotes span multiple maturities")

    k = np.empty(len(quotes))
    z = np.empty(len(quotes))
    clamped = 0
    disc = math.exp(-r * T)
    for i, q in enumerate(quotes):
        call = q.price if q.is_call else q.price + q.spot - q.strike * disc
        k[i] = math.log(q.strike / q.spot)
        intrinsic = max(1.0 - math.exp(k[i] - r * T), 0.0)
        z[i] = call / q.spot - intrinsic
        if z[i] < 0.0:
            z[i] = 0.0
            clamped += 1
    return MarketSlice(label, T, r, k, z), clamped


@dataclass
class MomentRow:
    """Empirical moments of non-overlapping returns at one horizon."""

    horizon_days: int
    horizon_years: float
    n_returns: int
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    theory: dict = field(default_factory=dict)


def moment_table(price_series, horizons, triplet=None, r=0.0):
    """Empirical mean/std/skew/kurtosis of log returns per horizon.

    Horizons are in series steps (days).  When a triplet (a jump model that
    passed its triplet() check) is supplied each row also carries the
    model-implied values and the matching Gaussian ones (same mean and std,
    zero skewness and excess kurtosis).
    """
    prices = np.asarray(price_series, dtype=float)
    if min(horizons) < 1:
        raise ValueError(f"horizons must be at least one step, got {min(horizons)}")
    if prices.ndim != 1 or prices.size <= max(horizons):
        raise ValueError("price series shorter than the largest horizon")
    if not np.all(np.isfinite(prices) & (prices > 0)):
        raise ValueError("prices must be finite and positive")
    logp = np.log(prices)
    rows = []
    for h in horizons:
        steps = logp[::h]
        rets = np.diff(steps)
        n = rets.size
        mean = float(np.mean(rets))
        centered = rets - mean
        m2 = float(np.mean(centered**2))
        std = math.sqrt(m2)
        if m2 > 0:
            skew = float(np.mean(centered**3)) / m2**1.5
            exkurt = float(np.mean(centered**4)) / m2**2 - 3.0
        else:
            skew = math.nan
            exkurt = math.nan
        delta = h * (1.0 / TRADING_DAYS)
        theory = {}
        if triplet is not None:
            cum = cumulants(triplet, delta)
            theory = {
                "levy_mean": cum.mean + r * delta,
                "levy_std": cum.std,
                "levy_skewness": cum.skewness,
                "levy_excess_kurtosis": cum.excess_kurtosis,
                "gauss_mean": cum.mean + r * delta,
                "gauss_std": cum.std,
                "gauss_skewness": 0.0,
                "gauss_excess_kurtosis": 0.0,
            }
        rows.append(MomentRow(h, delta, n, mean, std, skew, exkurt, theory))
    return rows
