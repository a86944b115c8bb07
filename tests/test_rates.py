import dataclasses
import itertools
import math
import re
import time
import warnings

import numpy as np
import pytest

from dnarate import (
    ChannelParams,
    EnumerationCapError,
    SchemeParams,
    achievable_outer_rate_exact,
    achievable_outer_rate_mc,
    asymptotic_rate,
    block_capacity,
    channel_capacity,
    gap_to_capacity,
    mean_gated_capacity,
    multi_draw_capacity,
    optimize_scheme,
    overall_rate,
    r_max,
    rates,
    validate_scheme,
)

C1 = multi_draw_capacity(1, 0.1)
C2 = multi_draw_capacity(2, 0.1)
RIX1 = 0.999 * C1


def params_for(c, beta=0.05, p=0.1):
    return ChannelParams(c=c, beta=beta, p=p)


def count_error(name, value):
    """The message multidraw._check_count gives for a bad positive count."""
    return re.escape(f"{name} out of range: must be a positive integer, got {value!r}")


def brute_force_r_max(params, epsilon=1e-3):
    """(value, d_star, r_ix) of the best asymptotic_rate over r_ix = (1 - epsilon)
    * C_d at every d of the 1e-12 Poisson support; the first maximum wins."""
    best = (-math.inf, 0, 0.0)
    for d in range(1, rates._poisson_cut(params.c, 1e-12) + 1):
        r_ix = (1 - epsilon) * multi_draw_capacity(d, params.p)
        if params.beta < r_ix < 1.0:
            val = asymptotic_rate(params, r_ix)
            if val > best[0]:
                best = (val, d, r_ix)
    d_star = 1
    while multi_draw_capacity(d_star, params.p) <= best[2]:
        d_star += 1
    return best[0], d_star, best[2]


class TestParamValidation:
    def test_channel_params(self):
        with pytest.raises(ValueError):
            ChannelParams(c=0, beta=0.05, p=0.1)
        with pytest.raises(ValueError):
            ChannelParams(c=1, beta=1.0, p=0.1)
        with pytest.raises(ValueError):
            ChannelParams(c=1, beta=0.05, p=0.6)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_channel_params_reject_nonfinite_reading_rate(self, c):
        with pytest.raises(ValueError, match="finite"):
            ChannelParams(c=c, beta=0.05, p=0.1)

    def test_scheme_params(self):
        with pytest.raises(ValueError):
            SchemeParams(K=0, r_ix=0.5, r_in=0.5, r_out=0.5)
        with pytest.raises(ValueError):
            SchemeParams(K=1, r_ix=1.0, r_in=0.5, r_out=0.5)
        with pytest.raises(ValueError):
            SchemeParams(K=1, r_ix=0.5, r_in=0.5, r_out=0.0)
        assert SchemeParams(K=1, r_ix=0.5, r_in=0.5, r_out=1.0).r_out == 1.0

    @pytest.mark.parametrize("K", [True, 2.0, 2.5, "2"])
    def test_block_size_must_be_an_integer(self, K):
        with pytest.raises((ValueError, TypeError)):
            SchemeParams(K=K, r_ix=0.5, r_in=0.5, r_out=0.5)

    def test_numpy_integer_block_size(self):
        assert SchemeParams(K=np.int64(3), r_ix=0.5, r_in=0.5, r_out=0.5).K == 3


class TestPoissonTables:
    @pytest.mark.parametrize("c", [*np.geomspace(0.5, 1000, 25), 8, 20, 25, 50, 64])
    def test_cut_at_closed_form_tail(self, c):
        c = float(c)
        log_pmf, pmf = rates._poisson_table(c, rates._poisson_cut(c, rates._TABLE_TAIL))
        assert len(pmf) == len(log_pmf) <= c + 12 * math.sqrt(c) + 60
        assert np.all(pmf >= 0.0) and pmf.sum() <= 1.0 + 1e-9
        assert [math.exp(x) for x in log_pmf] == pmf.tolist()

    def test_formerly_overrunning_reading_rates(self):
        # these tables used to run to the 100,001-entry fallback
        for c in (8, 20, 25, 50, 64):
            assert len(rates._sampling_masses(float(c))) < 150
            assert rates._sample_count_matrix(params_for(c), 3, 1, 0).shape[1] < 150

    @pytest.mark.parametrize("c", [1e4, 1e5])
    def test_mc_paths_at_large_reading_rates(self, c):
        # rounding lifts the table's sum to 1 + 8.9e-12 at c = 1e4 and
        # 1 + 1.9e-11 at 1e5, past what multinomial accepts; p = 0 keeps the
        # capacity table cheap (each C_d costs O(d) for p > 0)
        assert abs(math.fsum(rates._sampling_masses(c)) - 1.0) < 1e-15
        params = ChannelParams(c, 0.05, 0.0)
        scheme = SchemeParams(K=3, r_ix=0.999, r_in=0.5, r_out=1.0)
        est = achievable_outer_rate_mc(params, scheme, 64)
        assert 0.0 <= est.value <= 1.0
        res = optimize_scheme(params, 3, samples=64, method="mc")
        assert 0.0 <= res.rate.value <= 1.0

    def test_mc_paths_finish_at_c8(self):
        start = time.perf_counter()
        res = optimize_scheme(ChannelParams(8, 0.05, 0.1), 10, samples=10, method="mc")
        assert res.rate.method == "monte_carlo"
        scheme = SchemeParams(K=1, r_ix=0.5, r_in=0.5, r_out=1.0)
        est = achievable_outer_rate_mc(ChannelParams(8, 0.05, 0.1), scheme, samples=1000)
        assert 0.0 <= est.value <= 1.0
        assert time.perf_counter() - start < 10.0


class TestChannelCapacity:
    def test_low_reading_rate(self):
        assert channel_capacity(params_for(1)) == pytest.approx(0.370762, abs=1e-4)

    def test_high_reading_rate(self):
        assert channel_capacity(params_for(10)) == pytest.approx(0.940040, abs=1e-4)

    def test_vanishing_reading_rate(self):
        assert abs(channel_capacity(params_for(1e-12))) <= 1e-9

    def test_tail_eps_validated(self):
        with pytest.raises(ValueError):
            channel_capacity(params_for(1), tail_eps=0.0)

    @pytest.mark.parametrize("c", [0.5, 1, 3, 10, 50])
    def test_noiseless_closed_form(self, c):
        # at p = 0 every drawn strand is read perfectly: (1 - e^-c)(1 - beta)
        cap = channel_capacity(ChannelParams(c, 0.05, 0.0), tail_eps=1e-12)
        assert abs(cap - (1 - math.exp(-c)) * (1 - 0.05)) <= 1e-12

    @pytest.mark.parametrize("p, c", [(0.5, 2), (0.45, 2), (0.4, 1)])
    def test_clamped_at_zero_when_indexing_costs_more(self, p, c):
        assert channel_capacity(params_for(c, p=p)) == 0.0

    @pytest.mark.parametrize(
        "c, expected",
        [
            (1, 0.37076199137325977),
            (2, 0.590899440455746),
            (4, 0.8078476721280954),
            (10, 0.9400395027862796),
        ],
    )
    def test_positive_values_unchanged_by_the_clamp(self, c, expected):
        assert channel_capacity(params_for(c)) == expected


class TestBlockCapacity:
    def test_all_zero(self):
        assert block_capacity((0, 0, 0, 0), 0.1, 0.5) == 0.0

    def test_mean_of_gated(self):
        assert block_capacity((1, 0), 0.1, 0.5304) == pytest.approx(C1 / 2, abs=1e-9)

    def test_permutation_invariance(self):
        a = block_capacity((0, 1, 2, 5), 0.1, RIX1)
        b = block_capacity((5, 2, 1, 0), 0.1, RIX1)
        assert a == b

    @pytest.mark.parametrize("d", [(1.5, 2.2), (1.0, 2.0), (True, False), (), (1, -1)])
    def test_draw_counts_must_be_nonnegative_integers(self, d):
        with pytest.raises(ValueError, match="d out of range: must be a nonempty vector"):
            block_capacity(d, 0.1, RIX1)


class TestExactOuterRate:
    def test_single_strand_blocks_one_draw(self):
        # with K = 1 and r_in just below one draw's capacity, a block survives
        # iff its strand is drawn at all: mass 1 - e^{-1}
        scheme = SchemeParams(K=1, r_ix=RIX1, r_in=C1 - 1e-9, r_out=1.0)
        est = achievable_outer_rate_exact(params_for(1), scheme)
        assert est.method == "exact" and est.stderr == 0.0
        assert est.value == pytest.approx(1 - math.exp(-1), abs=1e-9 + est.truncation_mass)

    def test_single_strand_blocks_two_draws(self):
        scheme = SchemeParams(K=1, r_ix=RIX1, r_in=C2 - 1e-9, r_out=1.0)
        est = achievable_outer_rate_exact(params_for(1), scheme)
        assert est.value == pytest.approx(1 - 2 * math.exp(-1), abs=1e-9 + est.truncation_mass)

    def test_inner_rate_near_one_supports_nothing(self):
        for K in (1, 2, 3):
            scheme = SchemeParams(K=K, r_ix=RIX1, r_in=1 - 1e-9, r_out=1.0)
            assert achievable_outer_rate_exact(params_for(2), scheme).value == 0.0

    def test_monotone_in_inner_rate(self):
        params = params_for(2)
        vals = []
        for r_in in np.linspace(0.05, 0.95, 19):
            scheme = SchemeParams(K=2, r_ix=RIX1, r_in=float(r_in), r_out=1.0)
            vals.append(achievable_outer_rate_exact(params, scheme).value)
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_truncation_accounted(self):
        scheme = SchemeParams(K=2, r_ix=RIX1, r_in=0.01, r_out=1.0)
        est = achievable_outer_rate_exact(params_for(2), scheme, tail_eps=1e-6)
        # everything except the all-zero block qualifies at tiny r_in
        assert est.value == pytest.approx(
            1 - math.exp(-4), abs=1e-12 + est.truncation_mass
        )
        assert 0.0 <= est.truncation_mass < 1e-6

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_types_match_ordered_enumeration(self, K, c):
        params = params_for(c)
        rng = np.random.default_rng(100 * K + c)
        d_max = rates._poisson_cut(K * c, 1e-12)
        log_pmf = [-c + d * math.log(c) - math.lgamma(d + 1) for d in range(d_max + 1)]
        for _ in range(3):
            r_ix, r_in = rng.uniform(0.06, 0.95), rng.uniform(0.02, 0.98)
            scheme = SchemeParams(K=K, r_ix=float(r_ix), r_in=float(r_in), r_out=1.0)
            gtab = [g if g > r_ix else 0.0 for g in (multi_draw_capacity(d, 0.1)
                                                     for d in range(d_max + 1))]
            brute = math.fsum(
                math.exp(sum(log_pmf[d] for d in v))
                for v in itertools.product(range(d_max + 1), repeat=K)
                if sum(v) <= d_max and sum(gtab[d] for d in v) / K > r_in
            )
            est = achievable_outer_rate_exact(params, scheme)
            assert abs(est.value - brute) <= 1e-13

    def test_type_count_and_mass(self):
        types, weights, truncation, d_max = rates._exact_support(params_for(2), 4, 1e-12)
        assert len(types) == 4626 and math.comb(d_max + 4, 4) == 82251
        assert np.all(np.diff(types.astype(int), axis=1) >= 0)
        assert np.all(types.sum(axis=1) <= d_max)
        assert len({tuple(t) for t in types}) == len(types)
        assert math.fsum(weights) + truncation == pytest.approx(1.0, abs=1e-13)

    def test_type_count_matches_brute_force(self):
        # Nondecreasing K-tuples with sum <= d_max, counted one by one.
        for K in range(1, 8):
            sums = np.bincount(
                [sum(t) for t in itertools.combinations_with_replacement(range(26), K)
                 if sum(t) <= 25],
                minlength=26,
            )
            for d_max, n in enumerate(np.cumsum(sums)):
                n = int(n)
                assert rates._type_count(d_max, K, 10**12) == n
                # saturation: past the cap the count is cap + 1, never more
                assert rates._type_count(d_max, K, n - 1) == n
                assert rates._type_count(d_max, K, n) == n
                assert rates._type_count(d_max, K, n + 1) == n

    @pytest.mark.parametrize("c, K", [(2, 4), (1, 3), (2, 8)])
    def test_type_table_has_the_counted_rows(self, c, K):
        types, _, _, d_max = rates._exact_support(params_for(c), K, 1e-12)
        assert len(types) == rates._type_count(d_max, K, 10**12)
        assert types.shape[1] == min(K, d_max) and types.dtype == np.uint8

    def test_numpy_block_size_counts_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rates._type_count(40_000, np.int64(20_000), 10**8) == 10**8 + 1

    def test_auto_refuses_huge_block_quickly(self):
        # About 10^6 columns at d_max near 2 * 10^6: far past the cell cap.
        start = time.perf_counter()
        feasible = rates._use_exact(ChannelParams(2, 0.05, 0.1), 10**6, "auto", 1e-12)
        assert feasible is False
        assert time.perf_counter() - start < 5.0

    def test_auto_refusal_builds_no_huge_table(self, monkeypatch):
        # The cut at K = 10^6 comes from the closed-form tail, so no
        # Poisson(2 * 10^6) table (about two million entries) is built.
        table = rates._poisson_table
        built = []

        def recording_table(c, d_max):
            built.append(d_max + 1)
            return table(c, d_max)

        monkeypatch.setattr(rates, "_poisson_table", recording_table)
        start = time.perf_counter()
        feasible = rates._use_exact(ChannelParams(2, 0.05, 0.1), 10**6, "auto", 1e-12)
        assert feasible is False
        assert time.perf_counter() - start < 0.5
        assert all(n <= 10**5 for n in built)

    @pytest.mark.parametrize("tail_eps", [0.5, 0.3, 0.1, 1e-3, 1e-6, 1e-12, 1e-15])
    def test_tail_cut_lower_bound(self, tail_eps):
        # A Poisson table's cut never lies more than 2 below the mean.
        for lam in [0.01, 0.3, 0.69, 0.7, 1, 1.3, 1.7, 2, 2.5, 3, 4.2, 7, 10.5,
                    33, 64.9, 100, 777.7, 1000, 4321]:
            assert rates._poisson_cut(lam, tail_eps) >= max(0, math.ceil(lam) - 2)

    def test_method_name_checked(self):
        with pytest.raises(ValueError, match="method must be auto, exact or mc"):
            rates._use_exact(params_for(1), 1, "fast", 1e-12)
        with pytest.raises(ValueError, match="method must be auto, exact or mc"):
            optimize_scheme(params_for(1), 1, method="fast")

    @pytest.mark.parametrize("c, K", [(20, 4), (30, 4), (5, 5)])
    def test_truncation_mass_is_the_poisson_tail(self, c, K):
        # Independent oracle: mpmath's regularized lower incomplete gamma,
        # P(d + 1, lam) = P(X > d) for X ~ Poisson(lam).
        mpmath = pytest.importorskip("mpmath")
        scheme = SchemeParams(K=K, r_ix=RIX1, r_in=0.45, r_out=1.0)
        est = achievable_outer_rate_exact(params_for(c), scheme)
        d_max = rates._exact_support(params_for(c), K, 1e-12)[3]
        with mpmath.workdps(40):
            tail = mpmath.gammainc(d_max + 1, 0, K * c, regularized=True)
        assert abs(est.truncation_mass - float(tail)) <= 1e-10 * float(tail)
        assert 0.0 < est.truncation_mass <= 1e-12

    def test_nothing_below_the_cut_at_tiny_reading_rate(self):
        # At c = 1e-13 and K = 1 the cut is d_max = 0: only the empty block.
        params = ChannelParams(1e-13, 0.05, 0.1)
        assert rates._exact_support(params, 1, 1e-12)[3] == 0
        est = achievable_outer_rate_exact(params, SchemeParams(1, 0.5304, 1e-9, 1.0))
        assert est.value == 0.0 and 0.0 <= est.truncation_mass <= 1e-12

    def test_cap_refused_loudly(self):
        scheme = SchemeParams(K=64, r_ix=RIX1, r_in=0.5, r_out=1.0)
        with pytest.raises(EnumerationCapError, match="Monte-Carlo"):
            achievable_outer_rate_exact(params_for(4), scheme)


class TestMonteCarloOuterRate:
    def test_matches_closed_form(self):
        scheme = SchemeParams(K=1, r_ix=RIX1, r_in=RIX1, r_out=1.0)
        est = achievable_outer_rate_mc(params_for(1), scheme, samples=10**6, seed=42)
        assert est.method == "monte_carlo"
        assert est.value == pytest.approx(1 - math.exp(-1), abs=3 * est.stderr)
        assert est.stderr == pytest.approx(
            math.sqrt(est.value * (1 - est.value) / 10**6)
        )

    @pytest.mark.parametrize("c", [2, 4])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_exact(self, K, c):
        params = params_for(c)
        scheme = SchemeParams(K=K, r_ix=RIX1, r_in=0.45, r_out=1.0)
        exact = achievable_outer_rate_exact(params, scheme)
        mc = achievable_outer_rate_mc(params, scheme, samples=200_000, seed=K)
        assert abs(exact.value - mc.value) <= 3 * mc.stderr + exact.truncation_mass

    def test_single_sample_is_bernoulli(self):
        scheme = SchemeParams(K=2, r_ix=RIX1, r_in=0.5, r_out=1.0)
        for seed in range(6):
            est = achievable_outer_rate_mc(params_for(1), scheme, samples=1, seed=seed)
            assert est.value in (0.0, 1.0)

    def test_bit_identical_reruns(self):
        scheme = SchemeParams(K=3, r_ix=RIX1, r_in=0.4, r_out=1.0)
        a = achievable_outer_rate_mc(params_for(2), scheme, samples=150_000, seed=9)
        b = achievable_outer_rate_mc(params_for(2), scheme, samples=150_000, seed=9)
        assert a == b

    def test_worker_count_invariance(self):
        scheme = SchemeParams(K=2, r_ix=RIX1, r_in=0.5, r_out=1.0)
        runs = [
            achievable_outer_rate_mc(params_for(2), scheme, samples=200_000, seed=3, threads=t)
            for t in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]


    @pytest.mark.parametrize("threads", [0, -3, 1.5, 2.0, True])
    def test_thread_count_checked(self, threads):
        scheme = SchemeParams(K=2, r_ix=RIX1, r_in=0.4, r_out=1.0)
        with pytest.raises(ValueError, match=count_error("threads", threads)):
            achievable_outer_rate_mc(params_for(1), scheme, 1000, threads=threads)

    @pytest.mark.parametrize("samples", [0, -5, 1000.0, 1.5, True])
    def test_sample_budget_checked(self, samples):
        scheme = SchemeParams(K=2, r_ix=RIX1, r_in=0.4, r_out=1.0)
        with pytest.raises(ValueError, match=count_error("samples", samples)):
            achievable_outer_rate_mc(params_for(1), scheme, samples)


class TestTypeSampler:
    def test_rows_are_multinomial(self):
        K, n = 7, 20_000
        pmf = rates._sampling_masses(2.0)
        (h,) = rates._type_batches(11, 0, n, K, pmf)
        assert h.shape == (n, len(pmf))
        assert np.all(h.sum(axis=1) == K)
        se = np.sqrt(K * pmf * (1 - pmf) / n)
        assert np.all(np.abs(h.mean(axis=0) - K * pmf) <= 5 * se)

    def test_batches_keep_the_chunk_stream(self):
        # c = 50 tables are wide enough that one chunk is drawn in batches
        K, n = 5, 65_536
        pmf = rates._sampling_masses(50.0)
        batches = list(rates._type_batches(4, 2, n, K, pmf))
        assert len(batches) > 1
        rng = rates.substream(4, "outer-rate-mc", 2)
        whole = rng.multinomial(K, pmf, size=n)
        assert np.array_equal(np.vstack(batches), whole)

    def test_optimizer_and_estimator_share_histograms(self):
        params, K, seed = params_for(2), 6, 8
        samples = rates.MC_CHUNK + 5_000
        counts = rates._sample_count_matrix(params, K, samples, seed, threads=2)
        assert np.array_equal(counts, rates._sample_count_matrix(params, K, samples, seed))
        pmf = rates._sampling_masses(2.0)
        for ci, (lo, n) in enumerate([(0, rates.MC_CHUNK), (rates.MC_CHUNK, 5_000)]):
            drawn = np.vstack(list(rates._type_batches(seed, ci, n, K, pmf)))
            assert np.array_equal(counts[lo : lo + n], drawn)
        scheme = SchemeParams(K=K, r_ix=RIX1, r_in=0.47, r_out=1.0)
        gtab = rates.gated_capacity_table(0.1, counts.shape[1] - 1, RIX1)
        wins = int((rates._hist_means(counts, gtab, K) > 0.47).sum())
        est = achievable_outer_rate_mc(params, scheme, samples, seed=seed)
        assert est.value == wins / samples


class TestOverallRate:
    def test_no_overhead_limit(self):
        assert overall_rate(1 - 1e-12, 1.0, 1 - 1e-12, 1e-15) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_hand_product(self):
        # 0.632121 * 0.531004 * (1 - 0.05/0.530473) = 0.304022 by hand
        val = overall_rate(0.531004, 0.632121, 0.530473, 0.05)
        assert val == pytest.approx(0.304022, abs=2e-6)
        assert abs(val - 0.306575) < 0.01

    def test_zero_outer_rate(self):
        assert overall_rate(0.5, 0.0, 0.5, 0.05) == 0.0

    @pytest.mark.parametrize("r_ix", [0.0, 1.0, 1.5, math.nan])
    def test_index_rate_range(self, r_ix):
        with pytest.raises(ValueError, match="r_ix out of range: must be in"):
            overall_rate(0.5, 0.5, r_ix, 0.05)
        with pytest.raises(ValueError, match="r_ix out of range: must be in"):
            SchemeParams(K=1, r_ix=r_ix, r_in=0.5, r_out=1.0)

    def test_overhead_domain_error(self):
        with pytest.raises(ValueError):
            overall_rate(0.5, 0.5, 0.04, 0.05)


class TestAsymptoticRate:
    def test_low_reading_rate(self):
        assert asymptotic_rate(params_for(1), RIX1) == pytest.approx(0.364443, abs=5e-4)

    def test_high_reading_rate(self):
        r_ix = 0.999 * multi_draw_capacity(3, 0.1)
        assert asymptotic_rate(params_for(10), r_ix) == pytest.approx(0.930767, abs=5e-4)

    def test_mean_gated_peak(self):
        # peak of the large-K overall-rate curve sits at the mean gated capacity
        params = params_for(2)
        val = asymptotic_rate(params, RIX1)
        mean = mean_gated_capacity(params, RIX1)
        assert val / (1 - params.beta / RIX1) == pytest.approx(mean, abs=1e-12)
        assert mean == pytest.approx(0.634133, abs=1e-5)

    def test_beta_must_be_below_rix(self):
        with pytest.raises(ValueError):
            asymptotic_rate(params_for(1), 0.04)


class TestRMax:
    def test_threshold_draw_counts(self):
        assert r_max(params_for(1)).d_star == 1
        assert r_max(params_for(6)).d_star == 2
        assert r_max(params_for(10)).d_star == 3

    def test_values(self):
        assert r_max(params_for(1)).r_max == pytest.approx(0.3644, abs=5e-4)
        assert r_max(params_for(10)).r_max == pytest.approx(0.9308, abs=5e-4)

    def test_threshold_is_the_gate_actually_applied(self):
        # at c = 30 the best candidate is r_ix = 0.999 C_66, a level just
        # below saturation, which every d >= 12 already passes
        res = r_max(params_for(30))
        assert res.d_star == 12
        assert res.r_ix_used == brute_force_r_max(params_for(30))[2]
        assert multi_draw_capacity(11, 0.1) <= res.r_ix_used < multi_draw_capacity(12, 0.1)

    @pytest.mark.parametrize("p", [0, 0.01, 0.1, 0.3])
    @pytest.mark.parametrize("beta", [0.01, 0.05, 0.3])
    @pytest.mark.parametrize("c", [0.5, 1, 2, 4, 10, 15, 30, 100])
    def test_best_of_every_level_in_the_support(self, c, beta, p):
        params = ChannelParams(c, beta, p)
        val, d_star, r_ix = brute_force_r_max(params)
        res = r_max(params)
        assert abs(res.r_max - val) <= 1e-12
        assert (res.d_star, res.r_ix_used) == (d_star, r_ix)

    def test_no_level_in_the_support_clears_beta(self):
        # the first level beyond the support that clears beta, at rate 0.0
        assert dataclasses.astuple(r_max(ChannelParams(2, 0.3, 0.45))) == (
            0.0, 52, 0.30091097209441975)
        with pytest.raises(ValueError, match="no feasible"):
            r_max(ChannelParams(2, 0.05, 0.5))

    def test_rix_used_sits_below_the_level(self):
        res = r_max(params_for(10))
        lo = multi_draw_capacity(res.d_star - 1, 0.1)
        hi = multi_draw_capacity(res.d_star, 0.1)
        assert lo < res.r_ix_used < hi
        assert res.r_ix_used == pytest.approx(0.999 * hi)

    def test_never_beats_capacity(self):
        for c in (1, 2, 4, 6, 8, 10):
            params = params_for(c)
            assert r_max(params).r_max <= channel_capacity(params) + 1e-9

    def test_epsilon_insensitivity(self):
        for c in (1, 6, 10):
            params = params_for(c)
            a = r_max(params, epsilon=1e-3)
            b = r_max(params, epsilon=5e-4)
            bound = params.beta * 1e-3 / multi_draw_capacity(a.d_star, 0.1) + 1e-6
            assert abs(a.r_max - b.r_max) < bound

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            r_max(params_for(1), epsilon=0.2)


class TestGapToCapacity:
    def test_high_reading_rate_gap(self):
        assert gap_to_capacity(params_for(10)) == pytest.approx(0.009273, abs=5e-4)

    def test_nonnegative(self):
        for c in (1, 3, 7, 10):
            assert gap_to_capacity(params_for(c)) >= -1e-9

    def test_decreasing_in_cleanliness(self):
        gaps = [gap_to_capacity(params_for(4, p=p)) for p in (0.1, 0.05, 0.01, 0.001)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_decreasing_tail_in_reading_rate(self):
        # the gap rises until c = 4 and only then falls monotonically
        gaps = [gap_to_capacity(params_for(c)) for c in (4, 6, 8, 10)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestValidateScheme:
    def test_valid_case(self):
        verdict = validate_scheme(
            params_for(1), SchemeParams(K=1, r_ix=0.5304, r_in=0.6, r_out=0.9)
        )
        assert verdict.ok and verdict.violations == ()

    def test_overhead_violation(self):
        verdict = validate_scheme(
            params_for(1), SchemeParams(K=1, r_ix=0.04, r_in=0.6, r_out=0.9)
        )
        assert not verdict.ok
        assert any("beta" in v and "r_ix" in v for v in verdict.violations)

    def test_quarter_noise_never_clusters(self):
        # h(0.5) = 1 wipes out the clustering margin for any inner rate
        for r_in in (0.1, 0.5, 0.99):
            verdict = validate_scheme(
                params_for(1, p=0.25),
                SchemeParams(K=1, r_ix=0.5, r_in=r_in, r_out=0.9),
            )
            assert not verdict.ok
            assert any("clustering" in v for v in verdict.violations)

    def test_all_violations_reported(self):
        verdict = validate_scheme(
            params_for(1, p=0.25), SchemeParams(K=1, r_ix=0.04, r_in=0.5, r_out=0.9)
        )
        assert len(verdict.violations) >= 1 and not verdict.ok


class TestOptimizeScheme:
    def test_plain_concatenation(self):
        res = optimize_scheme(params_for(1), 1, samples=10_000, seed=0)
        assert res.overall == pytest.approx(0.306575, abs=0.01)
        assert res.d_candidate == 1

    def test_small_block_dip(self):
        res = optimize_scheme(params_for(1), 3, samples=10_000, seed=0)
        assert res.overall == pytest.approx(0.219713, abs=0.01)

    def test_deterministic(self):
        a = optimize_scheme(params_for(2), 10, samples=20_000, seed=5)
        b = optimize_scheme(params_for(2), 10, samples=20_000, seed=5)
        assert a == b

    def test_never_beats_capacity(self):
        for c in (1, 2):
            res = optimize_scheme(params_for(c), 7, samples=10_000, seed=1)
            assert res.overall <= channel_capacity(params_for(c)) + 1e-6

    def test_large_k_limit_is_an_upper_bound(self):
        for K in (1, 10, 100):
            res = optimize_scheme(params_for(2), K, samples=10_000, seed=2)
            limit = asymptotic_rate(params_for(2), res.scheme.r_ix)
            slack = 3 * res.rate.stderr * res.scheme.r_in + 1e-9
            assert res.overall <= limit + slack

    def test_scheme_is_consistent(self):
        res = optimize_scheme(params_for(2), 4, samples=10_000, seed=3)
        recomputed = overall_rate(
            res.scheme.r_in, res.rate.value, res.scheme.r_ix, 0.05
        )
        assert res.overall == pytest.approx(recomputed, abs=1e-12)
        assert res.scheme.r_out == res.rate.value

    @pytest.mark.parametrize("c, K", [(1, 3), (2, 100)])
    def test_reported_outer_rate_is_the_mc_estimate(self, c, K):
        res = optimize_scheme(params_for(c), K, samples=5000, seed=4, method="mc")
        est = achievable_outer_rate_mc(params_for(c), res.scheme, 5000, 4)
        assert est.value == res.rate.value
        assert est.stderr == res.rate.stderr

    @pytest.mark.parametrize("c, K", [(1, 3), (2, 4)])
    def test_reported_outer_rate_is_the_exact_value(self, c, K):
        res = optimize_scheme(params_for(c), K, method="exact")
        est = achievable_outer_rate_exact(params_for(c), res.scheme)
        assert abs(est.value - res.rate.value) <= 1e-12
        assert est.truncation_mass == res.rate.truncation_mass

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_brute_force_supremum(self, K, c):
        # the objective only jumps at block values v, so its supremum is the
        # best value just below some v; scan them all with the estimator
        params = params_for(c)
        types, _, _, d_max = rates._exact_support(params, K, 1e-12)
        best = 0.0
        for d0 in range(1, 9):
            r_ix = 0.999 * multi_draw_capacity(d0, params.p)
            if not params.beta < r_ix < 1.0:
                continue
            gtab = rates.gated_capacity_table(params.p, d_max, r_ix)
            for v in np.unique(gtab[types].mean(axis=1)):
                r_in = float(np.nextafter(v, 0.0))
                if not 0.0 < r_in < 1.0:
                    continue
                scheme = SchemeParams(K, r_ix, r_in, 1.0)
                r_out = achievable_outer_rate_exact(params, scheme).value
                best = max(best, r_in * r_out * (1 - params.beta / r_ix))
        res = optimize_scheme(params, K, method="exact")
        assert abs(res.overall - best) <= 1e-12

    @staticmethod
    def full_scan(params, K, exact, samples=None, seed=None):
        """(overall, d, r_ix, r_in, r_out) of the first maximum over every
        capacity level of the optimiser's table."""
        if exact:
            types, weights, _, d_max = rates._exact_support(params, K, 1e-12)
            total = 1.0
        else:
            counts = rates._sample_count_matrix(params, K, samples, seed)
            d_max, weights, total = counts.shape[1] - 1, np.ones(samples), samples
        best = (-math.inf,)
        for d in range(1, d_max + 1):
            r_ix = 0.999 * multi_draw_capacity(d, params.p)
            if not params.beta < r_ix < 1.0:
                continue
            gtab = rates.gated_capacity_table(params.p, d_max, r_ix)
            values = gtab[types].mean(axis=1) if exact else counts @ gtab / K
            r_in, r_out = rates._best_inner_rate(values, weights, total)
            val = r_in * r_out * (1 - params.beta / r_ix)
            if val > best[0]:
                best = (val, d, r_ix, r_in, r_out)
        return best

    @pytest.mark.parametrize("c, K, method", [(30, 100, "mc"), (2, 3, "exact")])
    def test_skipped_levels_never_win(self, c, K, method):
        # the mean bound only skips levels a full scan would not pick
        params = params_for(c)
        res = optimize_scheme(params, K, samples=10_000, seed=0, method=method)
        expected = self.full_scan(params, K, method == "exact", 10_000, 0)
        s = res.scheme
        assert (res.overall, res.d_candidate, s.r_ix, s.r_in, s.r_out) == expected

    def test_levels_past_eight_are_tried(self):
        res = optimize_scheme(params_for(30), 10_000, samples=2000)
        assert res.d_candidate > 8

    def test_noiseless_inner_rate_below_one(self):
        # at p = 0 a block's value can be exactly 1; r_in must stay below it
        res = optimize_scheme(ChannelParams(3, 0.05, 0.0), 4)
        assert 0.0 < res.scheme.r_in < 1.0
        assert res.scheme.r_in == np.nextafter(1.0, 0.0)
        assert SchemeParams(*dataclasses.astuple(res.scheme)) == res.scheme

    @pytest.mark.parametrize("method", ["exact", "mc", "auto"])
    @pytest.mark.parametrize("tail_eps", [0.0, -1.0, math.nan, 1.0, 5.0, math.inf])
    def test_tail_eps_checked(self, tail_eps, method):
        with pytest.raises(ValueError, match="tail_eps out of range"):
            optimize_scheme(params_for(2), 3, samples=1000, method=method, tail_eps=tail_eps)

    @pytest.mark.parametrize("K", [0, 2.5, 2.0, True])
    def test_block_size_checked_like_scheme_params(self, K):
        with pytest.raises(ValueError, match="K out of range"):
            optimize_scheme(params_for(1), K)

    @pytest.mark.parametrize("samples", [0, -5, 1000.0, True])
    def test_mc_sample_budget_checked(self, samples):
        with pytest.raises(ValueError, match=count_error("samples", samples)):
            optimize_scheme(params_for(2), 100, samples=samples, method="mc")

    @pytest.mark.parametrize("method", ["mc", "exact", "auto"])
    @pytest.mark.parametrize("threads", [0, -3, 1.5, True])
    def test_thread_count_checked(self, method, threads):
        with pytest.raises(ValueError, match=count_error("threads", threads)):
            optimize_scheme(params_for(2), 3, samples=1000, method=method, threads=threads)

    @pytest.mark.parametrize("method", ["mc", "exact"])
    @pytest.mark.parametrize("epsilon", [0.0, -0.2, 0.5, math.nan])
    def test_epsilon_checked_like_r_max(self, method, epsilon):
        # epsilon = 0 would set r_ix = C_d, which the strict gate drops
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 0.1\]"):
            optimize_scheme(params_for(2), 3, samples=1000, method=method, epsilon=epsilon)
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 0.1\]"):
            r_max(params_for(2), epsilon=epsilon)

    @pytest.mark.parametrize("method", ["mc", "exact"])
    def test_epsilon_checked_before_any_table(self, method, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("table built before the epsilon check")

        monkeypatch.setattr(rates, "_exact_support", refuse)
        monkeypatch.setattr(rates, "_sample_count_matrix", refuse)
        with pytest.raises(ValueError, match="epsilon must be in"):
            optimize_scheme(params_for(2), 12, samples=1000, method=method, epsilon=0.5)
