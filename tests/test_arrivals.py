"""Arrival stream samplers and ground-truth type probabilities.

Statistical checks use 4-sigma tolerances so they stay deterministic in
practice while still catching real distribution bugs.
"""

import numpy as np
import pytest

from allocsim import (
    RateFunction,
    RatePiece,
    StationaryArrivals,
    NonstationaryArrivals,
    rate_extrema,
    sample_nonstationary_stream,
    sample_stationary_stream,
    type_probability_matrix,
)
from allocsim.errors import NegativeRate, ZeroTotalRate
from allocsim.model import GRID_DT_DEFAULT, substream


def constant_fn(c, t0=0.0, t_end=10.0):
    return RateFunction((RatePiece(t0, t_end, "constant", (c,)),))


class TestStationarySampler:
    def test_single_type_gets_every_arrival(self):
        seq = sample_stationary_stream(np.array([1.0]), 5, seed=0)
        assert len(seq) == 5
        assert np.all(seq.types == 0)
        assert np.all(np.diff(seq.times) >= 0.0)

    def test_type_frequencies_match_rates(self):
        # rates 1:3 -> the second type should carry 75% of arrivals
        T = 100_000
        seq = sample_stationary_stream(np.array([1.0, 3.0]), T, seed=11)
        frac = float((seq.types == 1).mean())
        sigma = np.sqrt(0.75 * 0.25 / T)
        assert abs(frac - 0.75) <= 4.0 * sigma

    def test_deterministic_per_seed(self):
        a = sample_stationary_stream(np.array([0.5, 1.5]), 1000, seed=4)
        b = sample_stationary_stream(np.array([0.5, 1.5]), 1000, seed=4)
        c = sample_stationary_stream(np.array([0.5, 1.5]), 1000, seed=5)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.types, b.types)
        assert not np.array_equal(a.times, c.times)

    def test_zero_total_rate_rejected(self):
        with pytest.raises(ZeroTotalRate):
            sample_stationary_stream(np.array([0.0, 0.0]), 10, seed=0)

    def test_mean_gap_matches_total_rate(self):
        total = 2.5
        seq = sample_stationary_stream(np.array([1.0, 1.5]), 50_000, seed=3)
        gaps = np.diff(np.concatenate([[0.0], seq.times]))
        assert gaps.mean() == pytest.approx(1.0 / total, rel=0.02)


class TestNonstationarySampler:
    def test_constant_rate_count(self):
        # Poisson(c*h) count; 4 sigma around the mean
        c, h = 5.0, 100.0
        seq = sample_nonstationary_stream((constant_fn(c, 0.0, h),), 0.0, h, seed=8)
        mean = c * h
        assert abs(len(seq) - mean) <= 4.0 * np.sqrt(mean)

    def test_zero_rate_type_never_arrives(self):
        fns = (constant_fn(2.0), constant_fn(0.0))
        seq = sample_nonstationary_stream(fns, 0.0, 10.0, seed=2)
        assert np.all(seq.types == 0)
        assert len(seq) > 0

    def test_deterministic_per_seed(self):
        fns = (constant_fn(1.0), constant_fn(3.0))
        a = sample_nonstationary_stream(fns, 0.0, 10.0, seed=6)
        b = sample_nonstationary_stream(fns, 0.0, 10.0, seed=6)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.types, b.types)

    def test_times_sorted_and_in_window(self):
        fn = RateFunction((RatePiece(0.0, 6.0, "sinusoid", (0.5, 1.0, 0.0, 2.0)),))
        seq = sample_nonstationary_stream((fn,), 0.0, 6.0, seed=1)
        assert np.all(np.diff(seq.times) >= 0.0)
        assert seq.times[0] >= 0.0 and seq.times[-1] < 6.0

    def test_thinning_agrees_with_stationary_mix(self):
        # Constant rates let both samplers target the same type mix; compare
        # the two empirical frequencies against each other at 4 sigma.
        rates = np.array([2.0, 3.0])
        h = 8000.0
        thin = sample_nonstationary_stream(
            (constant_fn(2.0, 0.0, h), constant_fn(3.0, 0.0, h)), 0.0, h, seed=13
        )
        stat = sample_stationary_stream(rates, len(thin), seed=14)
        p = rates[1] / rates.sum()
        f_thin = float((thin.types == 1).mean())
        f_stat = float((stat.types == 1).mean())
        sigma = np.sqrt(p * (1 - p) * (1.0 / len(thin) + 1.0 / len(stat)))
        assert abs(f_thin - f_stat) <= 4.0 * sigma

    def test_negative_rate_raises(self):
        # the majorant scan of the second piece sees -0.5 at its right end
        fn = RateFunction((RatePiece(0.0, 1.0, "constant", (1.0,)),
                           RatePiece(1.0, 2.0, "linear", (-1.0, 1.5))))
        with pytest.raises(NegativeRate, match=r"t=2 \(-0\.5\)"):
            sample_nonstationary_stream((constant_fn(1.0, 0.0, 2.0), fn), 0.0, 2.0, seed=0)

    def test_matches_one_draw_pair_per_proposal(self):
        # The sampler collects a piece's proposals and accepts them at once;
        # its times must be those of the per-proposal loop below, byte for
        # byte. The pieces: a sinusoid, a linear ramp, a zero rate (skipped,
        # no draws), a quadratic dip that proposes at every seed here but
        # accepts nothing, and a constant.
        fn = RateFunction((
            RatePiece(0.0, 3.0, "sinusoid", (2.0, 1.5, 0.3, 3.0)),
            RatePiece(3.0, 5.0, "linear", (4.0, -10.0)),
            RatePiece(5.0, 6.0, "constant", (0.0,)),
            RatePiece(6.0, 7.0, "quadratic", (16.0, -208.0, 676.000001)),
            RatePiece(7.0, 10.0, "constant", (1.5,)),
        ))
        for seed in (6, 7, 10):
            accepted, proposed = thin_per_proposal(
                fn, substream(seed, "stream", 0), GRID_DT_DEFAULT)
            seq = sample_nonstationary_stream((fn,), 0.0, 10.0, seed=seed)
            expected = np.array([t for kept in accepted for t in kept])
            assert seq.times.tobytes() == expected.tobytes()
            assert proposed[2] == 0
            assert proposed[3] >= 2 and not accepted[3]
            assert all(accepted[i] for i in (0, 1, 4))


def thin_per_proposal(fn, rng, grid_dt):
    """Thinning of one type as one loop per proposal: per piece with a
    positive grid maximum lam_bar, an exponential gap, then (unless the
    proposal left the piece) a uniform u, keeping the time where
    u lam_bar <= rate. Returns the kept times and proposal count per piece."""
    accepted, proposed = [], []
    for piece in fn.pieces:
        lam_bar = piece.grid_max(grid_dt)
        kept, tried = [], 0
        if lam_bar > 0.0:
            t = piece.t_from
            while True:
                t += rng.exponential(1.0 / lam_bar)
                if t >= piece.t_to:
                    break
                tried += 1
                if rng.random() * lam_bar <= piece.value(t):
                    kept.append(t)
        accepted.append(kept)
        proposed.append(tried)
    return accepted, proposed


def phi_row(model, t):
    """φ(t) for one time, from type_probability_matrix."""
    return type_probability_matrix(model, np.array([t]))[0]


class TestTypeProbability:
    def test_stationary_mix(self):
        model = StationaryArrivals(np.array([1.0, 3.0]))
        np.testing.assert_allclose(phi_row(model, 0.0), [0.25, 0.75])

    def test_equal_rates_uniform(self):
        model = StationaryArrivals(np.full(4, 0.7))
        np.testing.assert_allclose(phi_row(model, 2.0), np.full(4, 0.25))

    def test_time_varying_mix(self):
        # lambda_1 = t + 1, lambda_2 = 1: at t=1 the mix is [2/3, 1/3]
        fns = (
            RateFunction((RatePiece(0.0, 2.0, "linear", (1.0, 1.0)),)),
            constant_fn(1.0, 0.0, 2.0),
        )
        model = NonstationaryArrivals(fns, 0.0, 2.0)
        np.testing.assert_allclose(phi_row(model, 1.0), [2.0 / 3.0, 1.0 / 3.0])

    def test_matrix_rows_match_scalar(self):
        fns = (
            RateFunction((RatePiece(0.0, 2.0, "quadratic", (0.5, 0.0, 0.5)),)),
            constant_fn(1.0, 0.0, 2.0),
        )
        model = NonstationaryArrivals(fns, 0.0, 2.0)
        times = np.array([0.1, 0.9, 1.7])
        mat = type_probability_matrix(model, times)
        for k, t in enumerate(times):
            rates = np.array([fn.value(t) for fn in fns])
            np.testing.assert_allclose(mat[k], rates / rates.sum())
        np.testing.assert_allclose(mat.sum(axis=1), 1.0)


class TestRateExtrema:
    def test_constant(self):
        assert rate_extrema(constant_fn(5.0), (0.0, 10.0), 0.001) == (5.0, 5.0)

    def test_linear_exact_endpoints(self):
        fn = RateFunction((RatePiece(0.0, 1.0, "linear", (2.0, 0.0)),))
        lo, hi = rate_extrema(fn, (0.0, 1.0), 0.001)
        assert lo == 0.0
        assert hi == 2.0

    def test_sinusoid_window(self):
        fn = RateFunction((RatePiece(0.0, 1.0, "sinusoid", (0.5, 1.0, 0.0, 30.0)),))
        lo, hi = rate_extrema(fn, (0.0, 1.0), 0.001)
        assert lo == pytest.approx(30.0, abs=1e-9)
        assert hi == pytest.approx(30.0 + 0.5 * np.sin(1.0), abs=1e-9)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            rate_extrema(constant_fn(1.0), (2.0, 2.0), 0.001)

