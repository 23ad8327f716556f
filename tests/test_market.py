import io
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.stats import ks_2samp

from levycal import (MarketSlice, NoiseSpec, QuoteFilters, amplify, cumulants,
                     generate_virtual_market, ingest_quotes, moment_table, time_value_curve,
                     to_time_values, uniform_k_sampler)
from levycal.errors import EmptyPool, MixedMaturities, ParseError
from levycal.market import OptionQuote

import oracles

T, R = 0.05, 0.02

QUOTE_HEADER = "trade_date,expiry_date,strike,spot,is_call,price,volume"


def test_zero_noise_returns_model_values(merton_model, default_grid):
    slices = generate_virtual_market(merton_model, 2, 50, T, R,
                                     noise=NoiseSpec(scale=0.0, seed=4), grid=default_grid)
    k_nodes, z_nodes = time_value_curve(merton_model.triplet(), T, R, default_grid)
    spline = CubicSpline(k_nodes, z_nodes)
    for s in slices:
        np.testing.assert_array_equal(s.z, np.maximum(spline(s.k), 0.0))


def test_noise_is_five_percent_proportional(merton_model, kou_model, default_grid):
    for model in (merton_model, kou_model):
        slices = generate_virtual_market(model, 1000, 100, T, R,
                                         noise=NoiseSpec(scale=0.05, seed=9), grid=default_grid)
        clean = generate_virtual_market(model, 1000, 100, T, R,
                                        noise=NoiseSpec(scale=0.0, seed=9), grid=default_grid)
        ratios = []
        for s, c in zip(slices, clean):
            mask = c.z > 1e-12
            ratios.append((s.z[mask] - c.z[mask]) / c.z[mask])
        ratios = np.concatenate(ratios)
        assert ratios.std() == pytest.approx(0.05, rel=0.05)


def test_generation_reproducible(merton_model, default_grid):
    a = generate_virtual_market(merton_model, 3, 40, T, R, noise=NoiseSpec(seed=2), grid=default_grid)
    b = generate_virtual_market(merton_model, 3, 40, T, R, noise=NoiseSpec(seed=2), grid=default_grid)
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s.k, t.k)
        np.testing.assert_array_equal(s.z, t.z)


def test_amplify_permutation_when_sizes_match(rng):
    pool = MarketSlice("d", T, R, rng.uniform(-0.3, 0.3, 40), rng.uniform(0, 0.02, 40))
    groups = amplify([pool], n_groups=1, group_size=40, seed=0)
    assert len(groups) == 1
    np.testing.assert_array_equal(np.sort(groups[0].k), np.sort(pool.k))
    np.testing.assert_array_equal(np.sort(groups[0].z), np.sort(pool.z))


def test_amplify_group_distribution_matches_pool(merton_model, default_grid):
    slices = generate_virtual_market(merton_model, 100, 100, T, R,
                                     noise=NoiseSpec(seed=3), grid=default_grid)
    pool_k = np.concatenate([s.k for s in slices])
    groups = amplify(slices, n_groups=5, group_size=10_000, seed=1)
    for g in groups:
        assert ks_2samp(g.k, pool_k).statistic < 0.05


def test_amplify_singletons(rng):
    pool = MarketSlice("d", T, R, rng.uniform(-0.3, 0.3, 10), rng.uniform(0, 0.02, 10))
    groups = amplify([pool], n_groups=7, group_size=1, seed=0)
    assert len(groups) == 7
    assert all(g.k.size == 1 for g in groups)


def test_amplify_empty_pool():
    with pytest.raises(EmptyPool):
        amplify([], 10, 10)
    empty = MarketSlice("d", T, R, np.array([]), np.array([]))
    with pytest.raises(EmptyPool):
        amplify([empty], 10, 10)


def test_amplify_deterministic(rng):
    pool = MarketSlice("d", T, R, rng.uniform(-0.3, 0.3, 50), rng.uniform(0, 0.02, 50))
    g1 = amplify([pool], 4, 30, seed=9)
    g2 = amplify([pool], 4, 30, seed=9)
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a.k, b.k)


# --- ingestion -------------------------------------------------------------------


def quotes_csv(rows):
    return io.StringIO("\n".join([QUOTE_HEADER] + rows))


def test_ingest_applies_filters():
    rows = [
        "2015-03-02,2015-03-20,2000,2100,1,25.5,150",
        "2015-03-02,2015-03-20,2000,2100,1,25.5,99",   # volume filter
        "2015-03-02,2015-03-20,2000,2100,0,0.49,500",  # price filter
        "2015-03-02,2015-03-20,2005,2100,0,11.0,100",
    ]
    quotes, kept, dropped = ingest_quotes(quotes_csv(rows))
    assert kept == 2 and dropped == 2
    assert all(q.volume >= 100 and q.price >= 0.5 for q in quotes)
    assert quotes[0].maturity == pytest.approx(14 / 252)


def test_ingest_empty_file():
    quotes, kept, dropped = ingest_quotes(quotes_csv([]))
    assert quotes == [] and kept == 0 and dropped == 0


def test_ingest_rejects_bad_rows():
    with pytest.raises(ParseError) as err:
        ingest_quotes(quotes_csv(["2015-03-02,2015-03-20,2000,2100,1,25.5"]))
    assert err.value.line_number == 2
    with pytest.raises(ParseError):
        ingest_quotes(quotes_csv(["2015-03-02,2015-03-20,-5,2100,1,25.5,200"]))
    with pytest.raises(ParseError):
        ingest_quotes(quotes_csv(["2015-03-02,2015-03-20,2000,2100,2,25.5,200"]))
    with pytest.raises(ParseError):
        ingest_quotes(io.StringIO("strike,spot\n1,2"))


def test_ingest_custom_filters():
    rows = ["2015-03-02,2015-03-20,2000,2100,1,0.3,5"]
    quotes, kept, dropped = ingest_quotes(quotes_csv(rows), QuoteFilters(0, 0.0))
    assert kept == 1 and dropped == 0


# --- time-value conversion --------------------------------------------------------


def test_to_time_values_arithmetic():
    # call at k=0: z* = price/spot - (1 - e^{-rT})
    rT = 0.001
    q = OptionQuote(strike=100.0, spot=100.0, maturity=T, price=2.0, is_call=True,
                    volume=500, trade_date="2015-03-02")
    slc, clamped = to_time_values([q], r=rT / T)
    assert clamped == 0
    assert slc.k[0] == 0.0
    assert slc.z[0] == pytest.approx(0.02 - (1 - math.exp(-rT)), abs=1e-15)


def test_put_call_parity_consistency(merton_model, default_grid):
    k_nodes, z_nodes = time_value_curve(merton_model.triplet(), T, R, default_grid)
    spline = CubicSpline(k_nodes, z_nodes)
    spot = 2000.0
    quotes = []
    for strike in (1900.0, 2000.0, 2110.0):
        k = math.log(strike / spot)
        z = float(spline(k))
        call = (z + max(1 - math.exp(k - R * T), 0.0)) * spot
        put = call - spot + strike * math.exp(-R * T)
        quotes.append(OptionQuote(strike, spot, T, call, True, 100, "2015-03-02"))
        quotes.append(OptionQuote(strike, spot, T, put, False, 100, "2015-03-02"))
    slc, _ = to_time_values(quotes, R)
    calls = slc.z[0::2]
    puts = slc.z[1::2]
    np.testing.assert_allclose(calls, puts, rtol=0, atol=1e-12)


def test_to_time_values_roundtrip(merton_model, default_grid):
    k_nodes, z_nodes = time_value_curve(merton_model.triplet(), T, R, default_grid)
    spline = CubicSpline(k_nodes, z_nodes)
    spot = 1234.5
    rng = np.random.default_rng(0)
    ks = rng.uniform(-0.3, 0.3, 200)
    quotes = []
    for k in ks:
        z = max(float(spline(k)), 0.0)
        price = (z + max(1 - math.exp(k - R * T), 0.0)) * spot
        quotes.append(OptionQuote(spot * math.exp(k), spot, T, price, True, 500, "2015-03-02"))
    slc, clamped = to_time_values(quotes, R)
    np.testing.assert_allclose(slc.k, ks, atol=1e-14)
    np.testing.assert_allclose(slc.z, np.maximum(spline(ks), 0.0), atol=1e-10)


def test_to_time_values_clamps_and_counts():
    q = OptionQuote(strike=50.0, spot=100.0, maturity=T, price=30.1, is_call=True,
                    volume=10, trade_date="2015-03-02")
    # intrinsic alone is worth ~ 0.5007 of spot; price 0.301 of spot implies z < 0
    slc, clamped = to_time_values([q], R)
    assert clamped == 1
    assert slc.z[0] == 0.0


def test_to_time_values_mixed_maturities():
    q1 = OptionQuote(100, 100, 0.05, 2.0, True, 10, "2015-03-02")
    q2 = OptionQuote(100, 100, 0.10, 2.5, True, 10, "2015-03-02")
    with pytest.raises(MixedMaturities):
        to_time_values([q1, q2], R)
    with pytest.raises(MixedMaturities):
        to_time_values([], R)


# --- simulation and moments -------------------------------------------------------


def test_simulator_matches_cumulant_theory(merton_model, merton_triplet):
    dt = 1.0 / 252
    x = oracles.simulate_terminal(merton_model, dt, 400_000, 5)
    cum = cumulants(merton_triplet, dt)
    n = x.size
    assert x.mean() == pytest.approx(cum.mean, abs=4 * cum.std / math.sqrt(n))
    assert x.std() == pytest.approx(cum.std, rel=0.02)
    sk = float(((x - x.mean()) ** 3).mean() / x.std() ** 3)
    assert sk == pytest.approx(cum.skewness, abs=4 * math.sqrt(6.0 / n) * (1 + abs(cum.skewness)))


def test_moment_table_constant_series():
    rows = moment_table(np.full(100, 42.0), [1, 2])
    for row in rows:
        assert row.std == 0.0
        assert math.isnan(row.skewness)
        assert math.isnan(row.excess_kurtosis)


def test_moment_table_includes_theory(merton_model, merton_triplet):
    prices = 100.0 * np.exp(np.cumsum(oracles.simulate_terminal(merton_model, 1 / 252, 5000, 1)))
    rows = moment_table(prices, [1, 4], triplet=merton_triplet)
    assert rows[0].theory["gauss_skewness"] == 0.0
    assert rows[0].theory["levy_skewness"] == pytest.approx(
        cumulants(merton_triplet, 1 / 252).skewness, rel=1e-12)
    assert rows[1].horizon_days == 4


def test_moment_table_rejects_short_series():
    # also horizons below one step, and prices whose logarithm is not a finite number
    good = np.linspace(100.0, 110.0, 20)
    for prices, horizons in ((np.ones(5), [10]), (good, [1, -1]), (good, [0]),
                             (np.r_[good, 0.0], [1]), (np.r_[good, -1.0], [1]),
                             (np.r_[good, np.nan], [1]), (np.r_[good, np.inf], [1])):
        with pytest.raises(ValueError):
            moment_table(prices, horizons)
