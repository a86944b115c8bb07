import dataclasses
import itertools
import math
import re
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from dnarate import (
    ChannelParams,
    EnumerationCapError,
    InstanceDims,
    RMaxResult,
    SchemeParams,
    achievable_outer_rate_exact,
    achievable_outer_rate_mc,
    asymptotic_rate,
    block_capacity,
    channel_capacity,
    gap_to_capacity,
    mean_gated_capacity,
    multi_draw_capacity,
    multidraw,
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
        # the log-space masses summed to 1 + 8.9e-12 at c = 1e4 and
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

    # Pinned from the saddle-point masses; each lies within 2.2e-16 of the
    # 40-digit mpmath value of the same truncated sum.
    @pytest.mark.parametrize(
        "c, expected",
        [
            (1, 0.37076199137325977),
            (2, 0.5908994404557462),
            (4, 0.8078476721280957),
            (10, 0.9400395027862767),
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

    @pytest.mark.parametrize("p", [0.1, 0.4])
    def test_counts_past_saturation_in_bounded_memory(self, p):
        # every level from S(p) on is 1.0, so a count of 2^40 reads the entry
        # at S(p), and no table runs past it
        tracemalloc.start()
        try:
            value = block_capacity((3, 2**40), p, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.hex() == block_capacity((3, multidraw._saturation(p)), p, 0.5).hex()
        assert peak < 4e6


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

    def test_support_memory_is_bounded_by_its_output(self):
        # Per-row temporaries are built one row block at a time, so the table
        # and its weights, not float64 copies of them, set the peak.
        tracemalloc.start()
        try:
            types, weights, _, _ = rates._exact_support(params_for(2), 11, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(types) > 5 * (rates._HIST_CELLS // types.shape[1])  # many row blocks
        assert peak <= 3 * (types.nbytes + weights.nbytes)

    def test_blockwise_sum_is_the_masked_sum(self):
        # the winners' weights are compacted block by block, then summed once
        params, K = params_for(2), 10
        types, weights, _, d_max = rates._exact_support(params, K, 1e-12)
        assert len(types) > 3 * (rates._HIST_CELLS // types.shape[1])  # several row blocks
        gtab = rates.gated_capacity_table(0.1, d_max, RIX1)
        means = gtab[types].sum(axis=1) / K
        for r_in in (0.3, 0.52, 0.55, 0.6):
            est = achievable_outer_rate_exact(params, SchemeParams(K, RIX1, r_in, 1.0))
            assert est.value == float(weights[means > r_in].sum())

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
        # K = 10^6 is refused from the closed-form lower bound on the cut, so
        # no Poisson(2 * 10^6) table (about two million entries) is built.
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

    def test_refusal_at_huge_block_builds_no_window(self):
        # At K * c = 2 * 10^12 a window around the mean would hold about
        # 3 * 10^7 counts; the lower bound on the cut refuses first.
        start = time.perf_counter()
        assert rates._use_exact(ChannelParams(2, 0.05, 0.1), 10**12, "auto", 1e-12) is False
        assert time.perf_counter() - start < 0.05
        scheme = SchemeParams(K=10**12, r_ix=RIX1, r_in=0.5, r_out=1.0)
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError):
            achievable_outer_rate_exact(params_for(2), scheme)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("tail_eps", [0.99, 0.5, 1e-3, 1e-12, 1e-20])
    def test_cut_floor_is_a_lower_bound(self, tail_eps):
        for lam in [1e-3, 0.7, 2, 33, 1000, 4321.5, 2e5]:
            assert rates._cut_floor(lam, tail_eps) <= rates._poisson_cut(lam, tail_eps)

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


# (c, the largest K up to which the cost rule draws every block size as
# alias-table rows, the largest K it draws as alias-table rows)
CROSSOVERS = [(0.5, 280, 284), (2, 375, 375), (10, 702, 704)]


class TestTypeSampler:
    def test_rows_are_multinomial(self):
        K, n = 7, 20_000
        pmf = rates._sampling_masses(2.0)
        h = np.vstack(list(rates._type_batches(11, 0, n, K, pmf)))
        assert h.shape == (n, len(pmf))
        assert np.all(h.sum(axis=1) == K)
        se = np.sqrt(K * pmf * (1 - pmf) / n)
        assert np.all(np.abs(h.mean(axis=0) - K * pmf) <= 5 * se)

    def test_batches_keep_the_chunk_stream(self):
        # one chunk drawn in batches gives the rows one call draws: at c = 50
        # one-strand rows, elsewhere rows of g strands a draw, with one draw
        # from the (K % g)-strand table after them but at K = 100 at c = 2;
        # and multinomial rows at c = 50, K = 5000, past the crossover
        n = 65_536
        for c, K, g in ((50, 5, 1), (2, 99, 3), (2, 100, 3), (10, 101, 2), (0.5, 31, 4)):
            pmf = rates._sampling_masses(float(c))
            assert rates._alias_rows(K, pmf) and rates._group_size(K, pmf.size) == g
            cells, batches = rates._drawn_batches(4, 2, n, K, pmf)
            batches = list(batches)
            assert len(batches) > 1
            whole, table_cells = reference_slots(4, 2, n, K, pmf, g)
            assert np.array_equal(cells, table_cells)
            assert np.array_equal(np.vstack(batches), whole)
            hist = slot_histograms(whole, table_cells, pmf.size)
            assert np.array_equal(np.vstack(list(rates._type_batches(4, 2, n, K, pmf))), hist)
        pmf = rates._sampling_masses(50.0)
        assert not rates._alias_rows(5000, pmf)
        cells, batches = rates._drawn_batches(4, 2, n, 5000, pmf)
        batches = list(batches)
        assert cells is None and len(batches) > 1
        whole = rates.substream(4, "outer-rate-mc", 2).multinomial(5000, pmf, size=n)
        assert np.array_equal(np.vstack(batches), whole)

    @pytest.mark.parametrize("c", [0.5, 2, 10, 50, 10**4])
    def test_alias_table_holds_the_multinomial_law(self, c):
        # a cell's mass is its kept share plus the shares aliased to it; the
        # last cell holds the leftover 1 - sum of the others, as in multinomial
        pmf = rates._sampling_masses(float(c))
        top, cells = rates._alias_table(pmf.tobytes())
        W = pmf.size
        assert top.shape == (W,) and cells.shape == (1, 2 * W)
        keep, alias = top - np.arange(W), cells[0, 1::2]
        assert np.array_equal(cells[0, ::2], np.arange(W))
        assert np.all((0 <= keep) & (keep <= 1)) and np.all((0 <= alias) & (alias < W))
        mass = (keep + np.bincount(alias, 1.0 - keep, minlength=W)) / W
        assert np.abs(mass - law_of(pmf)).max() <= 1e-15

    @pytest.mark.parametrize(
        "c, g, size", [(0.5, 4, 0), (1, 3, 0), (2, 2, 0), (2, 3, 0), (10, 2, 0), (30, 2, 0),
                       (2, 1, 2300), (2, 2, 2300), (0.5, 3, 3060)]
    )
    def test_group_table_holds_the_g_strand_law(self, c, g, size):
        # entry j, at slot 2j, is the j-th nondecreasing g-tuple of cells; its
        # mass, kept share plus the shares aliased to it, is the math.fsum of
        # the products of the masses over every ordering of the tuple. Past
        # the tuples, up to `size`, entries hold the cell W and no mass
        pmf = rates._sampling_masses(float(c))
        W, q = pmf.size, law_of(pmf).tolist()
        top, cells = rates._alias_table(pmf.tobytes(), g, size)
        n_types = math.comb(W + g - 1, g)
        N = max(n_types, size)
        assert n_types <= rates._GROUP_ENTRIES
        assert top.shape == (N,) and cells.shape == (g, 2 * N)
        types = [tuple(t) for t in cells[:, ::2].T.tolist()]
        assert types[:n_types] == list(itertools.combinations_with_replacement(range(W), g))
        assert types[n_types:] == [(W,) * g] * (N - n_types)
        want = np.zeros(N)
        want[:n_types] = [
            math.fsum(math.prod(q[d] for d in order) for order in set(itertools.permutations(t)))
            for t in types[:n_types]
        ]
        assert math.fsum(want) == pytest.approx(1.0, abs=1e-14)
        entry = {t: j for j, t in enumerate(types)}
        alias = np.array([entry[tuple(t)] for t in cells[:, 1::2].T.tolist()])
        assert np.all(alias < n_types)
        keep = top - np.arange(N)
        assert np.all((0 <= keep) & (keep <= 1)) and np.all(keep[n_types:] == 0)
        mass = (keep + np.bincount(alias, 1.0 - keep, minlength=N)) / N
        assert np.abs(mass - want).max() <= 1e-15

    @pytest.mark.parametrize("c, g, r", [(2, 3, 0), (2, 3, 1), (2, 3, 2), (0.5, 4, 3), (10, 2, 1)])
    def test_row_table_is_the_g_table_then_the_r_table(self, c, g, r):
        pmf = rates._sampling_masses(float(c))
        W, N = pmf.size, math.comb(pmf.size + g - 1, g)
        top, cells = rates._row_table(pmf.tobytes(), g, r)
        g_top, g_cells = rates._alias_table(pmf.tobytes(), g)
        assert np.array_equal(top[:N], g_top) and np.array_equal(cells[:, : 2 * N], g_cells)
        assert top.size == (2 * N if r else N)
        if r:
            r_top, r_cells = rates._alias_table(pmf.tobytes(), r, N)
            assert np.array_equal(top[N:], r_top)
            assert np.array_equal(cells[:r, 2 * N :], r_cells)
            assert np.all(cells[r:, 2 * N :] == W)

    @pytest.mark.parametrize("c", [0.5, 2, 10, 50])
    def test_single_draw_rows_follow_the_table(self, c):
        n = rates.MC_CHUNK
        pmf = rates._sampling_masses(float(c))
        h = np.vstack(list(rates._type_batches(5, 0, n, 1, pmf)))
        assert h.shape == (n, pmf.size) and h.dtype == np.int64
        assert np.all(h.sum(axis=1) == 1)
        law = law_of(pmf)
        se = np.sqrt(law * (1 - law) / n)
        assert np.all(np.abs(h.mean(axis=0) - law) <= 5 * se)

    @pytest.mark.parametrize("c, alias_up_to, last_alias_K", CROSSOVERS)
    def test_sampler_rule_is_the_cost_rule(self, c, alias_up_to, last_alias_K):
        # alias-table rows up to alias_up_to, multinomial rows past
        # last_alias_K; between them the multinomial row's cost, which is not
        # monotone in K, decides either way. Each is the chunk's substream
        # drawn by that sampler in one batch. The crossovers lie far past the
        # table width W, where the K <= W rule had them
        n = 3_000
        pmf = rates._sampling_masses(float(c))
        W = pmf.size
        picks = [rates._alias_rows(K, pmf) for K in range(1, 2001)]
        assert all(picks[:alias_up_to]) and not picks[alias_up_to]
        assert picks[last_alias_K - 1] and not any(picks[last_alias_K:])
        assert alias_up_to > 10 * W
        for K in (1, 10, W, W + 1, 31, 100, alias_up_to, alias_up_to + 1, last_alias_K,
                  last_alias_K + 1, 1000):
            drawn = np.vstack(list(rates._type_batches(7, 1, n, K, pmf)))
            assert np.all(drawn.sum(axis=1) == K)
            if picks[K - 1]:
                slots, cells = reference_slots(7, 1, n, K, pmf, rates._group_size(K, W))
                expected = slot_histograms(slots, cells, W)
            else:
                expected = rates.substream(7, "outer-rate-mc", 1).multinomial(K, pmf, size=n)
            assert np.array_equal(drawn, expected), K

    @pytest.mark.parametrize(
        "c, K, g", [(2, 99, 3), (2, 100, 3), (2, 101, 3), (10, 21, 2), (0.5, 31, 4), (0.5, 3, 4)]
    )
    def test_grouped_values_are_the_histogram_means(self, monkeypatch, c, K, g):
        # g strands a draw with K % g = 0, 1, 2 or 3 single-strand draws after
        # them, and a forced g past K, where every draw is single-strand: the
        # estimator's values are _hist_means of the count matrix's rows
        pmf = rates._sampling_masses(float(c))
        W = pmf.size
        if g > K:
            monkeypatch.setattr(rates, "_group_size", lambda K, W: g)
        assert rates._group_size(K, W) == g and rates._alias_rows(K, pmf)
        gtab = rates.gated_capacity_table(0.1, W - 1, RIX1)
        h = np.vstack(list(rates._type_batches(3, 0, 20_000, K, pmf)))
        slots, cells = reference_slots(3, 0, 20_000, K, pmf, g)
        assert np.array_equal(h, slot_histograms(slots, cells, W))
        assert np.all(h.sum(axis=1) == K)
        values = np.concatenate(list(rates._block_values(3, 0, 20_000, K, pmf, gtab)))
        assert np.array_equal(bits(values), bits(rates._hist_means(h, gtab, K)))

    def test_draws_come_from_the_module_substream(self):
        # one rates.substream call per chunk, the binding the benchmark's
        # tracer wraps, on both samplers and both consumers
        params, seed, samples = params_for(2), 5, 2 * rates.MC_CHUNK + 7
        for K in (100, 1000):
            scheme = SchemeParams(K, RIX1, 0.5, 1.0)
            with mock.patch.object(rates, "substream", wraps=rates.substream) as spy:
                est = achievable_outer_rate_mc(params, scheme, samples, seed, threads=2)
                counts = rates._sample_count_matrix(params, K, samples, seed, threads=2)
            assert sorted(call.args for call in spy.call_args_list) == sorted(
                [(seed, "outer-rate-mc", ci) for ci in range(3)] * 2
            )
            gtab = rates.gated_capacity_table(0.1, counts.shape[1] - 1, RIX1)
            assert est.value == int((rates._hist_means(counts, gtab, K) > 0.5).sum()) / samples

    @pytest.mark.parametrize("c", [2, 10])
    def test_alias_estimate_matches_the_block_law(self, c):
        # K = 10 is the benchmark's alias-table block size. The reference is
        # the law of the block sum on a 2^-16 lattice, rounded down and up; at
        # c = 2 exact enumeration lies inside it, at c = 10 it passes ENUM_CAP
        params, K = params_for(c), 10
        scheme = SchemeParams(K, RIX1, mean_gated_capacity(params, RIX1), 1.0)
        mc = achievable_outer_rate_mc(params, scheme, 2 * rates.MC_CHUNK, seed=c)
        pmf = rates._sampling_masses(float(c))
        grid = rates._block_grid(rates.gated_capacity_table(0.1, pmf.size - 1, RIX1), K)
        lo, hi = lattice_bracket(law_of(pmf), grid, K, scheme.r_in, 16)
        assert 0.2 < lo <= hi < 0.8 and hi - lo < mc.stderr
        assert lo - 5 * mc.stderr <= mc.value <= hi + 5 * mc.stderr
        if c == 2:
            exact = achievable_outer_rate_exact(params, scheme)
            assert lo - exact.truncation_mass <= exact.value <= hi
            assert abs(exact.value - mc.value) <= 5 * mc.stderr + exact.truncation_mass

    @pytest.mark.parametrize(
        "c, K, n",
        [
            (0.5, 1, 65_536),
            (2, 23, 20_000),
            (50, 119, 65_536),
            (2, 7, 300),
            (2, 100, 20_000),
            (10, 300, 20_000),
            (0.5, 31, 65_536),
            (2, 101, 300),
        ],
    )
    def test_alias_batches_hold_no_more_than_a_multinomial_batch(self, c, K, n):
        # both consumers of alias rows: the count matrix's histograms and the
        # estimator's block values, at points below and past W, of single
        # strands (c = 50) and of g strands a draw, with 0 to 3 single-strand
        # draws after them. A batch places at most _ALIAS_DRAWS strands, with
        # temporaries of _ALIAS_DRAW_BYTES a strand at most. The estimator's
        # table of slot values is made with the iterator, before any batch
        pmf = rates._sampling_masses(float(c))
        W = pmf.size
        assert rates._alias_rows(K, pmf)
        cell_bytes = 8 * min(n, rates._HIST_CELLS // W) * W  # one multinomial batch
        gtab = rates.gated_capacity_table(0.1, W - 1, RIX1)
        for batches in (
            rates._type_batches(1, 0, n, K, pmf),
            rates._block_values(1, 0, n, K, pmf, gtab),
        ):
            rows = 0
            tracemalloc.start()
            try:
                while True:
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    h = next(batches, None)
                    if h is None:
                        break
                    temporaries = tracemalloc.get_traced_memory()[1] - before - h.nbytes
                    assert h.nbytes <= cell_bytes and temporaries <= cell_bytes
                    assert len(h) * K <= rates._ALIAS_DRAWS
                    # and a few small arrays per batch, whatever its size
                    assert temporaries <= rates._ALIAS_DRAW_BYTES * len(h) * K + 4096
                    rows += len(h)
                    del h
            finally:
                tracemalloc.stop()
            assert rows == n

    def test_optimizer_and_estimator_share_histograms(self):
        # the estimator sums alias rows without a histogram, and still counts
        # exactly the blocks whose histogram row wins in the count matrix: at
        # alias points below and past W and at a multinomial point
        seed, samples = 8, rates.MC_CHUNK + 5_000
        for c, K, alias in ((2, 6, True), (10, 100, True), (2, 1000, False)):
            params, pmf = params_for(c), rates._sampling_masses(float(c))
            assert rates._alias_rows(K, pmf) == alias
            counts = rates._sample_count_matrix(params, K, samples, seed)
            for ci, (lo, n) in enumerate([(0, rates.MC_CHUNK), (rates.MC_CHUNK, 5_000)]):
                drawn = np.vstack(list(rates._type_batches(seed, ci, n, K, pmf)))
                assert np.array_equal(counts[lo : lo + n], drawn)
            r_in = mean_gated_capacity(params, RIX1)
            scheme = SchemeParams(K=K, r_ix=RIX1, r_in=r_in, r_out=1.0)
            gtab = rates.gated_capacity_table(0.1, counts.shape[1] - 1, RIX1)
            wins = int((rates._hist_means(counts, gtab, K) > r_in).sum())
            assert 0 < wins < samples
            for threads in (1, 2):
                again = rates._sample_count_matrix(params, K, samples, seed, threads)
                assert np.array_equal(counts, again)
                est = achievable_outer_rate_mc(params, scheme, samples, seed, threads)
                assert est.value == wins / samples

    def test_count_matrix_holds_counts_past_32_bits(self):
        # uint32 cells wrapped at K = 2^36: each row summed to 12,884,901,888
        K = 2**36
        counts = rates._sample_count_matrix(params_for(2), K, 50, 0)
        assert np.all(counts.sum(axis=1) == K)
        # and the optimiser's r_in sat near 0.150, far below the block mean
        best = optimize_scheme(params_for(2), K, samples=50, method="mc")
        mean = mean_gated_capacity(params_for(2), best.scheme.r_ix)
        assert best.scheme.r_in == pytest.approx(mean, abs=1e-4)


def slot_histograms(slots, cells, W):
    """Reference histograms of alias-table slots, one bincount per row of
    their cells; the padding W of single-strand slots is dropped."""
    return np.array([np.bincount(cells[:, row].ravel(), minlength=W + 1)[:W] for row in slots])


def reference_slots(seed, chunk_index, n, K, pmf, g):
    """(slots, cells) of one chunk's n rows drawn in one call: K // g draws
    from the g-strand table, then one from the (K % g)-strand table."""
    W = pmf.size
    G, r = divmod(K, g)
    top, cells = rates._row_table(pmf.tobytes(), g, r)
    rng = rates.substream(seed, "outer-rate-mc", chunk_index)
    slots = rates._alias_slots(rng, top, math.comb(W + g - 1, g), G, G + (r > 0), n)
    return slots, cells


def law_of(pmf):
    """The law Generator.multinomial draws from pmf: the last cell holds the
    leftover 1 - sum of the others."""
    return np.append(pmf[:-1], 1.0 - math.fsum(pmf[:-1]))


def lattice_bracket(law, values, K, r_in, bits):
    """(lower, upper) bounds on P(sum of K i.i.d. values[d] > K * r_in), d ~ law:
    the exact laws of the sums of the values rounded down and up to
    multiples of 2^-bits, by K sparse convolutions on that lattice."""
    bounds = []
    for rounding in (np.floor, np.ceil):
        steps = rounding(np.ldexp(values, bits)).astype(np.int64)
        dist = np.ones(1)
        for _ in range(K):
            grown = np.zeros(dist.size + int(steps.max()))
            for step, mass in zip(steps.tolist(), law.tolist()):
                grown[step : step + dist.size] += mass * dist
            dist = grown
        bounds.append(math.fsum(dist[np.arange(dist.size) > np.ldexp(K * r_in, bits)]))
    return tuple(bounds)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def on_grid(gtab, K):
    """gtab floored to multiples of 2^-s, s = 53 - ceil(log2 K): the table
    every block value is summed on, so any sum of K entries is exact."""
    s = 53 - math.ceil(math.log2(K))
    return np.ldexp(np.floor(np.ldexp(gtab, s)), -s)


class TestHistMeans:
    # The optimiser's reported R_out equals the estimator's value only because
    # a row's block mean depends on nothing but the row: not on its dtype, the
    # rows drawn with it, or the thread that computes it.
    @pytest.mark.parametrize("c, K", [(2, 10), (10, 100), (50, 5), (2, 1000), (10, 10**4)])
    def test_rows_bit_identical_across_dtypes_and_row_counts(self, c, K):
        pmf = rates._sampling_masses(float(c))
        gtab = rates.gated_capacity_table(0.1, len(pmf) - 1, 0.5)
        h = np.vstack(list(rates._type_batches(3, 0, 20_000, K, pmf)))
        assert h.dtype == np.int64
        means = bits(rates._hist_means(h, gtab, K))
        for dtype in (np.float64, np.uint16):  # the optimiser's count matrix is uint16
            assert np.array_equal(means, bits(rates._hist_means(h.astype(dtype), gtab, K)))
        for n in (1, 3, 17, 4_099, 19_999):
            assert np.array_equal(means[:n], bits(rates._hist_means(h[:n], gtab, K)))
        assert np.array_equal(means[5:], bits(rates._hist_means(h[5:], gtab, K)))

    @pytest.mark.parametrize("c, K", [(2, 10), (10, 100), (50, 5), (2, 1000), (10, 10**4)])
    def test_block_values_are_the_histogram_means(self, c, K):
        # the estimator's values, gathered on alias rows, against the count
        # matrix's histograms of the same draws
        pmf = rates._sampling_masses(float(c))
        gtab = rates.gated_capacity_table(0.1, len(pmf) - 1, 0.5)
        h = np.vstack(list(rates._type_batches(3, 0, 20_000, K, pmf)))
        values = np.concatenate(list(rates._block_values(3, 0, 20_000, K, pmf, gtab)))
        assert np.array_equal(bits(values), bits(rates._hist_means(h, gtab, K)))

    def test_rows_bit_identical_on_worker_threads(self):
        K, seed = 100, 6
        pmf = rates._sampling_masses(10.0)
        gtab = rates.gated_capacity_table(0.1, len(pmf) - 1, 0.5)

        def chunk_means(ci):
            batches = rates._type_batches(seed, ci, rates.MC_CHUNK, K, pmf)
            return bits(np.concatenate([rates._hist_means(h, gtab, K) for h in batches]))

        serial = rates._map_chunks(chunk_means, 2, 1)
        threaded = rates._map_chunks(chunk_means, 2, 2)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


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

    @pytest.mark.parametrize("r_in", [-0.5, 0.0, 1.0, 1.5, math.nan])
    def test_inner_rate_range_of_scheme_params(self, r_in):
        message = re.escape(f"r_in out of range: must be in (0, 1), got {r_in!r}")
        with pytest.raises(ValueError, match=message):
            overall_rate(r_in, 1.0, 0.5304, 0.05)
        with pytest.raises(ValueError, match=message):
            SchemeParams(K=1, r_ix=0.5304, r_in=r_in, r_out=1.0)

    @pytest.mark.parametrize("r_out", [-0.1, 7.0, math.nan])
    def test_achieved_outer_rate_range(self, r_out):
        with pytest.raises(ValueError, match=re.escape(f"must be in [0, 1], got {r_out!r}")):
            overall_rate(0.5, r_out, 0.5304, 0.05)

    def test_achieved_outer_rate_ends_allowed(self):
        assert overall_rate(0.5, 1.0, 0.5, 0.05) == 0.5 * 0.9

    def test_one_overhead_message(self):
        # overall_rate, asymptotic_rate and payload_length share one rule
        message = re.escape("beta (0.05) must be below r_ix (0.04)")
        with pytest.raises(ValueError, match=message):
            overall_rate(0.5, 0.5, 0.04, 0.05)
        with pytest.raises(ValueError, match=message):
            asymptotic_rate(params_for(1), 0.04)
        with pytest.raises(ValueError, match=message):
            InstanceDims.from_channel(params_for(1), 64).payload_length(0.05, 0.04)

    @pytest.mark.parametrize("r_out", [1e-3, 0.632121, 1.0])
    @pytest.mark.parametrize("beta", [1e-15, 0.05, 0.3])
    def test_scheme_overall_is_overall_rate(self, beta, r_out):
        scheme = SchemeParams(K=3, r_ix=0.530473, r_in=0.531004, r_out=r_out)
        assert scheme.overall(beta) == overall_rate(
            scheme.r_in, scheme.r_out, scheme.r_ix, beta)

    @pytest.mark.parametrize("beta", [0.530473, 0.6, 1.0])
    def test_scheme_overall_refuses_beta_at_or_above_r_ix(self, beta):
        scheme = SchemeParams(K=3, r_ix=0.530473, r_in=0.531004, r_out=1.0)
        with pytest.raises(ValueError, match=re.escape(f"beta ({beta}) must be below r_ix")):
            scheme.overall(beta)


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
        # the first level beyond the support that clears beta, at rate 0.0;
        # 0.999 C_52 at p = 0.45 is 0.3009109720944315368 to 19 digits
        assert dataclasses.astuple(r_max(ChannelParams(2, 0.3, 0.45))) == (
            0.0, 52, 0.3009109720944315)
        with pytest.raises(ValueError, match="no feasible"):
            r_max(ChannelParams(2, 0.05, 0.5))

    def test_levels_past_a_thousand_draws(self):
        # 0.999 C_1139 at p = 0.45 is the first level to clear beta = 0.9985;
        # the levels are tried up to d = 1586, where Z^d / ln 2 < 1 - beta / 0.999
        params = ChannelParams(1, 0.9985, 0.45)
        assert r_max(params) == RMaxResult(0.0, 1139, 0.998501947794934)
        assert multidraw._bhattacharyya_depth(0.45, 1 - 0.9985 / 0.999) == 1586
        assert gap_to_capacity(params) == channel_capacity(params)

    @pytest.mark.parametrize("beta", [0.999, 0.9995])
    def test_no_level_clears_beta_at_or_past_one_minus_epsilon(self, beta):
        with pytest.raises(ValueError, match="no feasible"):
            r_max(ChannelParams(1, beta, 0.1))

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

    @pytest.mark.parametrize("c, beta, p", [(1, 0.05, 0.1), (4, 0.05, 0.1), (4, 0.05, 0.001),
                                            (10, 0.3, 0.01), (2, 0.3, 0.45)])
    def test_both_terms_on_one_support(self, c, beta, p):
        params = ChannelParams(c, beta, p)
        assert gap_to_capacity(params) == channel_capacity(params) - r_max(params).r_max
        with pytest.raises(TypeError):
            gap_to_capacity(params, tail_eps=0.1)  # a second cut could make the gap negative


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

    def test_no_positive_rate_at_one_half(self):
        # at p = 1/2 every capacity level is 0, so no index rate clears beta
        with pytest.raises(ValueError, match="no scheme with positive rate exists"):
            optimize_scheme(ChannelParams(1, 0.05, 0.5), 1)

    @pytest.mark.parametrize("c, K", [(1, 3), (2, 100)])
    def test_reported_outer_rate_is_the_mc_estimate(self, c, K):
        res = optimize_scheme(params_for(c), K, samples=5000, seed=4, method="mc")
        est = achievable_outer_rate_mc(params_for(c), res.scheme, 5000, 4)
        assert est.value == res.rate.value
        assert est.stderr == res.rate.stderr

    @pytest.mark.parametrize("c, K", [(1, 1), (1, 3), (2, 4), (2, 6), (3, 6)])
    def test_reported_outer_rate_is_the_exact_value(self, c, K):
        res = optimize_scheme(params_for(c), K, method="exact")
        est = achievable_outer_rate_exact(params_for(c), res.scheme)
        assert est.value == res.rate.value == res.scheme.r_out
        assert est.truncation_mass == res.rate.truncation_mass
        assert res.overall == res.scheme.overall(params_for(c).beta)

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
            gtab = on_grid(rates.gated_capacity_table(params.p, d_max, r_ix), K)
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
            gtab = on_grid(rates.gated_capacity_table(params.p, d_max, r_ix), K)
            values = gtab[types].mean(axis=1) if exact else counts @ gtab / K
            r_in, r_out = rates._best_inner_rate(values, weights, total)
            val = r_in * r_out * (1 - params.beta / r_ix)
            if val > best[0]:
                best = (val, d, r_ix, r_in, r_out)
        return best

    @pytest.mark.parametrize("c, K, method", [(30, 100, "mc"), (2, 3, "exact")])
    def test_skipped_levels_never_win(self, c, K, method):
        # the mean bound only skips levels a full scan would not pick; the
        # outer rate reported for the pick is the matching estimator's
        params = params_for(c)
        res = optimize_scheme(params, K, samples=10_000, seed=0, method=method)
        _, d, r_ix, r_in, r_out = self.full_scan(params, K, method == "exact", 10_000, 0)
        if method == "exact":
            r_out = achievable_outer_rate_exact(params, SchemeParams(K, r_ix, r_in, 1.0)).value
        expected = (overall_rate(r_in, r_out, r_ix, params.beta), d, r_ix, r_in, r_out)
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
        # under every method, although only Monte-Carlo spends the budget
        for method, K in (("mc", 100), ("exact", 3), ("auto", 3)):
            with pytest.raises(ValueError, match=count_error("samples", samples)):
                optimize_scheme(params_for(2), K, samples=samples, method=method)

    @pytest.mark.parametrize("c, K", [(5, 4), (3, 6), (2, 4), (1, 8)])
    def test_block_value_rules_agree_at_reported_inner_rate(self, c, K):
        # The exact types, written as histograms, win or lose alike under the
        # sorted-type sum and the histogram einsum at the optimiser's r_in,
        # which sits one float below a block value.
        params = params_for(c)
        s = optimize_scheme(params, K, method="exact").scheme
        types, _, _, d_max = rates._exact_support(params, K, 1e-12)
        hist = np.zeros((len(types), d_max + 1), dtype=np.int64)
        for col in types.T.astype(np.intp):
            hist[np.arange(len(types)), col] += 1
        hist[:, 0] += K - types.shape[1]
        gtab = rates.gated_capacity_table(params.p, d_max, s.r_ix)
        by_type = rates._type_means(gtab, types, K)
        by_hist = rates._hist_means(hist, gtab, K)
        assert np.array_equal(bits(by_type), bits(by_hist))
        assert np.array_equal(by_type > s.r_in, by_hist > s.r_in)

    def test_exact_and_mc_outer_rate_agree_at_optimised_scheme(self):
        # one float below the block value, the histogram rule lost 2.9e-3 of
        # mass here and the MC estimate fell 11 standard errors short
        params = params_for(5)
        res = optimize_scheme(params, 4, method="exact")
        mc = achievable_outer_rate_mc(params, res.scheme, 2**20, seed=7, threads=2)
        assert abs(mc.value - res.rate.value) < 5 * mc.stderr

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
