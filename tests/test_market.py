import io
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.stats import ks_2samp

from levycal import (MarketSlice, NoiseSpec, QuoteFilters, amplify, cumulants,
                     generate_virtual_market, ingest_quotes, moment_table, time_value_curve,
                     to_time_values)
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


def test_virtual_market_draws_each_day_when_read(merton_model, default_grid):
    noise = NoiseSpec(scale=0.05, seed=5)
    market = generate_virtual_market(merton_model, 6, 30, T, R, k_lo=-0.3, k_hi=0.35,
                                     noise=noise, grid=default_grid)
    want = oracles.virtual_market_days(merton_model, 6, 30, T, R, -0.3, 0.35, noise,
                                       default_grid)
    days = list(market)
    assert len(days) == 6
    for day, ref in zip(days, want):
        assert (day.label, day.T, day.r) == (ref.label, T, R)
        np.testing.assert_array_equal(day.k, ref.k)
        np.testing.assert_array_equal(day.z, ref.z)


def test_day_labels_sort_in_day_order(merton_model, default_grid):
    # cli reads a market's slice files in sorted name order, so from day 10,000 on every
    # label takes the last day's width; a market of up to 10,000 days keeps 4 digits
    for days, first, last in ((10_001, "day-00000", "day-10000"),
                              (10_000, "day-0000", "day-9999")):
        labels = [s.label for s in generate_virtual_market(merton_model, days, 1, T, R,
                                                           grid=default_grid)]
        assert labels == sorted(labels)
        assert (len(labels), labels[0], labels[-1]) == (days, first, last)


def test_day_stream_is_the_spawned_stream():
    # day i draws from SeedSequence(seed, spawn_key=(i,)), which is spawn(days)[i]
    for seed in (0, 7, 2**40 + 3):
        spawned = np.random.SeedSequence(seed).spawn(12)
        for i in (0, 1, 11):
            mine = np.random.SeedSequence(seed, spawn_key=(i,))
            np.testing.assert_array_equal(mine.generate_state(8), spawned[i].generate_state(8))


def test_amplify_pools_a_lone_slice_without_copying(merton_model, default_grid):
    pooled = oracles.pool_days(generate_virtual_market(merton_model, 5, 40, T, R,
                                                       noise=NoiseSpec(seed=6), grid=default_grid))
    groups = amplify(pooled, n_groups=3, group_size=70, seed=4)
    assert np.shares_memory(groups.market.k, pooled.k)
    assert np.shares_memory(groups.market.z, pooled.z)
    # each group indexes the pool with the next draw of one default_rng(seed)
    rng = np.random.default_rng(4)
    for g in groups:
        idx = rng.integers(0, pooled.k.size, 70)
        np.testing.assert_array_equal(g.k, pooled.k[idx])
        np.testing.assert_array_equal(g.z, pooled.z[idx])


def test_amplify_permutation_when_sizes_match(rng):
    pool = MarketSlice("d", T, R, rng.uniform(-0.3, 0.3, 40), rng.uniform(0, 0.02, 40))
    groups = amplify(pool, n_groups=1, group_size=40, seed=0)
    assert len(groups) == 1
    [group] = groups
    np.testing.assert_array_equal(np.sort(group.k), np.sort(pool.k))
    np.testing.assert_array_equal(np.sort(group.z), np.sort(pool.z))


def test_amplify_group_distribution_matches_pool(merton_model, default_grid):
    pool = oracles.pool_days(generate_virtual_market(merton_model, 100, 100, T, R,
                                                     noise=NoiseSpec(seed=3), grid=default_grid))
    groups = amplify(pool, n_groups=5, group_size=10_000, seed=1)
    for g in groups:
        assert ks_2samp(g.k, pool.k).statistic < 0.05


def test_amplify_singletons(rng):
    pool = MarketSlice("d", T, R, rng.uniform(-0.3, 0.3, 10), rng.uniform(0, 0.02, 10))
    groups = amplify(pool, n_groups=7, group_size=1, seed=0)
    assert len(groups) == 7
    assert all(g.k.size == 1 for g in groups)


def test_amplify_empty_pool():
    empty = MarketSlice("d", T, R, np.array([]), np.array([]))
    with pytest.raises(EmptyPool):
        amplify(empty, 10, 10)


def test_amplify_checks_at_call_time(rng):
    # the groups are drawn lazily, but bad input fails before any is drawn
    pool = MarketSlice("d", T, R, rng.uniform(-0.3, 0.3, 10), rng.uniform(0, 0.02, 10))
    for n_groups, group_size in ((0, 10), (10, 0)):
        with pytest.raises(ValueError):
            amplify(pool, n_groups, group_size)


def test_amplify_deterministic(rng):
    pool = MarketSlice("d", T, R, rng.uniform(-0.3, 0.3, 50), rng.uniform(0, 0.02, 50))
    groups = amplify(pool, 4, 30, seed=9)
    assert len(groups) == 4
    # every pass over one result, and every call with the same seed, draws the same groups
    passes = [list(groups), list(groups), list(amplify(pool, 4, 30, seed=9))]
    assert [len(p) for p in passes] == [4, 4, 4]
    for a, b, c in zip(*passes):
        assert a.label == b.label == c.label
        assert (a.T, a.r) == (T, R)
        for field in ("k", "z"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            np.testing.assert_array_equal(getattr(a, field), getattr(c, field))


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
    header, columns = moment_table(np.full(100, 42.0), [1, 2])
    table = dict(zip(header, columns))
    for std, skewness, excess_kurtosis in zip(table["std"], table["skewness"],
                                              table["excess_kurtosis"]):
        assert std == 0.0
        assert math.isnan(skewness)
        assert math.isnan(excess_kurtosis)


def test_moment_table_includes_theory(merton_model, merton_triplet):
    prices = 100.0 * np.exp(np.cumsum(oracles.simulate_terminal(merton_model, 1 / 252, 5000, 1)))
    table = dict(zip(*moment_table(prices, [1, 4], triplet=merton_triplet)))
    assert table["gauss_skewness"][0] == 0.0
    assert table["levy_skewness"][0] == pytest.approx(
        cumulants(merton_triplet, 1 / 252).skewness, rel=1e-12)
    assert table["horizon_days"][1] == 4


def test_moment_table_names_each_theory_column(kou_triplet):
    # a nonzero rate moves the mean columns off k1, and Kou's skewness and excess
    # kurtosis tell the shape columns apart
    r = 0.03
    header, columns = moment_table(np.linspace(100.0, 120.0, 40), [1, 3, 7],
                                   triplet=kou_triplet, r=r)
    assert header == ["horizon_days", "mean", "std", "skewness", "excess_kurtosis",
                      "gauss_excess_kurtosis", "gauss_mean", "gauss_skewness", "gauss_std",
                      "levy_excess_kurtosis", "levy_mean", "levy_skewness", "levy_std"]
    table = dict(zip(header, columns))
    assert table["horizon_days"] == (1, 3, 7)
    for i, h in enumerate((1, 3, 7)):
        delta = h / 252
        cum = cumulants(kou_triplet, delta)
        assert table["levy_mean"][i] == table["gauss_mean"][i] == cum.mean + r * delta
        assert table["levy_std"][i] == table["gauss_std"][i] == cum.std
        assert table["levy_skewness"][i] == cum.skewness
        assert table["levy_excess_kurtosis"][i] == cum.excess_kurtosis
        assert table["gauss_skewness"][i] == table["gauss_excess_kurtosis"][i] == 0.0


def test_moment_table_rejects_short_series():
    # also horizons below one step, a horizon with one return (no spread), and prices
    # whose logarithm is not a finite number
    good = np.linspace(100.0, 110.0, 20)
    for prices, horizons in ((np.ones(5), [10]), (np.ones(30), [1, 16]), (good, [1, -1]),
                             (good, [0]), (np.r_[good, 0.0], [1]), (np.r_[good, -1.0], [1]),
                             (np.r_[good, np.nan], [1]), (np.r_[good, np.inf], [1])):
        with pytest.raises(ValueError):
            moment_table(prices, horizons)
    # the shortest series a horizon takes: two returns, 2h + 1 prices
    header, columns = moment_table(np.linspace(100.0, 110.0, 33), [1, 16])
    assert columns[header.index("horizon_days")] == (1, 16)
    with pytest.raises(ValueError, match="horizon 16 leaves 1 non-overlapping returns in 32"):
        moment_table(np.linspace(100.0, 110.0, 32), [1, 16])
