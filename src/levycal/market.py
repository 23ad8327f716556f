"""Virtual-market generation, data amplification, and real-quote ingestion.

Virtual markets draw daily batches of log-moneyness points, read the model's
time value off a dense FFT curve, and perturb each sample with proportional
noise N(0, (scale * z)^2), truncated so time values stay nonnegative.
A virtual market draws its days in order as it is iterated, so writing one
out holds a batch of days in memory, not all of them.  Amplification
resamples large synthetic one-day groups with replacement from one slice
that pools every day's samples, which is what makes the daily Fourier
inversion well conditioned.  Groups are drawn one at a time as they are
iterated, so a calibration holds one group in memory, not all of them.

Quote ingestion applies the liquidity filters (volume and minimum price),
converts puts through put-call parity and maps prices to time values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPool, MixedMaturities, ParseError
from .levy_models import cumulants
from .spectral import SpectralCurve, SpectralGrid, spline_on_grid, time_value_curve

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


def generate_virtual_market(model, days, per_day, T, r, k_lo=-0.4, k_hi=0.4, noise=None,
                            grid=None):
    """An iterator over `days` daily slices of `per_day` noisy time-value observations.

    Each day draws its moneyness points uniformly from [k_lo, k_hi), a range
    within the grid's k nodes.  The model curve is computed once on the FFT
    grid when the market is made, and each day reads it through a cubic
    spline at its sampled points when the day is drawn.  Day i draws from its
    own RNG substream, SeedSequence(noise.seed, spawn_key=(i,)), which is
    SeedSequence(noise.seed).spawn(days)[i].
    """
    if days < 1 or per_day < 1:
        raise ValueError(f"days and per_day must be at least 1, got {days} and {per_day}")
    noise = noise or NoiseSpec()
    grid = grid or SpectralGrid()
    if not k_lo < k_hi:
        raise ValueError(f"k_lo must be below k_hi, got k_lo {k_lo} and k_hi {k_hi}")
    k_nodes = grid.k
    if not (k_nodes[0] <= k_lo and k_hi <= k_nodes[-1]):
        raise ValueError(f"k_lo and k_hi must lie within the grid's k nodes "
                         f"[{k_nodes[0]:.6g}, {k_nodes[-1]:.6g}], got {k_lo} and {k_hi}")
    _, z_nodes = time_value_curve(model.triplet(), T, r, grid)
    spline = spline_on_grid(grid, z_nodes)
    # every label as wide as the last day's, so the labels sort in day order
    width = max(4, len(str(days - 1)))

    def draw(day):
        rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(day,)))
        k = rng.uniform(k_lo, k_hi, per_day)
        z_clean = np.maximum(spline(k), 0.0)
        z_noisy = z_clean + rng.normal(0.0, 1.0, per_day) * (noise.scale * z_clean)
        return MarketSlice(f"day-{day:0{width}d}", T, r, k, np.maximum(z_noisy, 0.0))

    # _DRAW_BATCH days are drawn back to back before they are yielded: drawn one at a
    # time between the caller's writes, each day's draws took twice as long
    return (s for start in range(0, days, _DRAW_BATCH)
            for s in [draw(day) for day in range(start, min(start + _DRAW_BATCH, days))])


# days generate_virtual_market's iterator draws at a time
_DRAW_BATCH = 64


class AmplifiedGroups:
    """amplify's groups, drawn one at a time on each pass from a fresh default_rng(seed)."""

    def __init__(self, market, n_groups, group_size, seed):
        self.market, self.n_groups, self.group_size, self.seed = market, n_groups, group_size, seed

    def __len__(self):
        return self.n_groups

    def __iter__(self):
        rng = np.random.default_rng(self.seed)
        m = self.market
        size = m.k.size
        for g in range(self.n_groups):
            if self.n_groups == 1 and self.group_size == size:
                idx = rng.permutation(size)
            else:
                idx = rng.integers(0, size, self.group_size)
            yield MarketSlice(f"group-{g:04d}", m.T, m.r, m.k[idx], m.z[idx])


def amplify(market, n_groups=1000, group_size=10_000, seed=0):
    """The AmplifiedGroups resampled from `market`, the slice that pools every day's quotes.

    The groups read the slice's own arrays, not a copy.  A group draws
    group_size samples with replacement; when that is the pool size and one
    group is requested the pool is permuted instead, so nothing is lost or
    duplicated.
    """
    if n_groups < 1:
        raise ValueError(f"n_groups must be at least 1, got {n_groups}")
    if group_size < 1:
        raise ValueError(f"group_size must be at least 1, got {group_size}")
    if market.k.size == 0:
        raise EmptyPool("sample pool is empty")
    return AmplifiedGroups(market, n_groups, group_size, seed)


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


# moment_table's model columns, sorted by name
_THEORY_COLUMNS = ["gauss_excess_kurtosis", "gauss_mean", "gauss_skewness", "gauss_std",
                   "levy_excess_kurtosis", "levy_mean", "levy_skewness", "levy_std"]


def moment_table(price_series, horizons, triplet=None, r=0.0):
    """(header, columns): moments.csv's table of log returns, one row per horizon.

    Horizons are in series steps (days).  The columns are horizon_days and the
    empirical mean, std, skewness and excess_kurtosis.  When a triplet (a jump
    model that passed its triplet() check) is supplied, _THEORY_COLUMNS follow:
    the model-implied values and the matching Gaussian ones (same mean and
    std, zero skewness and excess kurtosis).
    """
    prices = np.asarray(price_series, dtype=float)
    if min(horizons) < 1:
        raise ValueError(f"horizons must be at least one step, got {min(horizons)}")
    if prices.ndim != 1:
        raise ValueError("the price series must be one column")
    if not np.all(np.isfinite(prices) & (prices > 0)):
        raise ValueError("prices must be finite and positive")
    for h in horizons:
        # logp[::h] below holds this many non-overlapping returns; one has no spread
        count = max(prices.size - 1, 0) // h
        if count < 2:
            raise ValueError(f"horizon {h} leaves {count} non-overlapping returns in "
                             f"{prices.size} prices; it needs at least two")
    logp = np.log(prices)
    rows = []
    for h in horizons:
        steps = logp[::h]
        rets = np.diff(steps)
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
        row = [h, mean, std, skew, exkurt]
        if triplet is not None:
            delta = h * (1.0 / TRADING_DAYS)
            cum = cumulants(triplet, delta)
            model_mean = cum.mean + r * delta
            # in _THEORY_COLUMNS' order
            row += [0.0, model_mean, 0.0, cum.std,
                    cum.excess_kurtosis, model_mean, cum.skewness, cum.std]
        rows.append(row)
    header = ["horizon_days", "mean", "std", "skewness", "excess_kurtosis"]
    return header + (_THEORY_COLUMNS if triplet is not None else []), list(zip(*rows))
