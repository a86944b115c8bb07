import math
import time
import warnings

import numpy as np
import pytest

from dnarate import (
    ChannelParams,
    SchemeParams,
    achievable_outer_rate_exact,
    binary_entropy,
    binom_pmf,
    capacity_table,
    channel_capacity,
    check_crossover,
    gated_capacity,
    gated_capacity_table,
    multi_draw_capacity,
    multidraw,
    poisson_pmf,
    poisson_pmf_vec,
)

C1 = 0.5310044064107188  # 1 - h(0.1), checked below against binary_entropy
C2 = 0.7420858585497174  # hand evaluation of the three binomial summands at p=0.1


class TestCrossoverValidation:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5])
    def test_accepts(self, p):
        assert check_crossover(p) == p

    @pytest.mark.parametrize("p", [-0.1, 0.50001, 0.6, 1.0, float("nan")])
    def test_rejects(self, p):
        with pytest.raises(ValueError):
            check_crossover(p)

    def test_rejected_everywhere(self):
        with pytest.raises(ValueError):
            binom_pmf(2, 0.6, 1)
        with pytest.raises(ValueError):
            multi_draw_capacity(1, -0.2)
        with pytest.raises(ValueError):
            gated_capacity(1, 0.7, 0.5)


class TestBinomPmf:
    def test_empty_product(self):
        assert binom_pmf(0, 0.1, 0) == 1.0

    def test_hand_value(self):
        # 2 * 0.1 * 0.9
        assert binom_pmf(2, 0.1, 1) == pytest.approx(0.18, abs=1e-15)

    def test_symmetry_at_half(self):
        for d in (2, 5, 17, 40):
            for i in range(d + 1):
                assert binom_pmf(d, 0.5, i) == pytest.approx(
                    binom_pmf(d, 0.5, d - i), rel=1e-12
                )

    def test_out_of_range_i(self):
        with pytest.raises(ValueError):
            binom_pmf(3, 0.1, 4)
        with pytest.raises(ValueError):
            binom_pmf(3, 0.1, -1)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.25, 0.5])
    def test_normalisation(self, p):
        for d in range(65):
            total = sum(binom_pmf(d, p, i) for i in range(d + 1))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPoissonPmf:
    def test_zero_draws(self):
        assert poisson_pmf(1, 0) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_hand_value(self):
        assert poisson_pmf(2, 2) == pytest.approx(2 * math.exp(-2), rel=1e-14)

    def test_far_tail_is_finite(self):
        # exp(-1)/200! is below the smallest positive float64; the log-space
        # form must underflow cleanly instead of producing inf/inf = NaN.
        val = poisson_pmf(1, 200)
        assert math.isfinite(val)
        assert not math.isnan(val)
        assert 0.0 <= val < 1e-300

    def test_deep_tail_positive_when_representable(self):
        val = poisson_pmf(30, 200)
        assert 0.0 < val < 1e-90

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            poisson_pmf(0.0, 1)
        with pytest.raises(ValueError, match="c out of range: must be positive and finite"):
            poisson_pmf(math.inf, 3)
        with pytest.raises(ValueError):
            poisson_pmf(1.0, -1)


class TestPoissonPmfVec:
    def test_zero_vector(self):
        assert poisson_pmf_vec(1, (0, 0)) == pytest.approx(math.exp(-2), rel=1e-13)

    def test_product_of_three(self):
        # (2 e^-2)^3 = 8 e^-6
        assert poisson_pmf_vec(2, (1, 1, 1)) == pytest.approx(
            8 * math.exp(-6), rel=1e-13
        )

    def test_permutation_invariance(self):
        base = poisson_pmf_vec(1.7, (0, 3, 1, 2))
        for perm in [(3, 0, 2, 1), (1, 2, 3, 0), (2, 3, 0, 1)]:
            vec = np.array([0, 3, 1, 2])[list(perm)]
            assert poisson_pmf_vec(1.7, vec) == pytest.approx(base, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            poisson_pmf_vec(1, (1, -1))
        with pytest.raises(ValueError, match="c out of range: must be positive and finite"):
            poisson_pmf_vec(math.inf, (1, 3))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_point_value(self):
        assert binary_entropy(0.1) == pytest.approx(0.468996, abs=1e-6)

    @pytest.mark.parametrize("x", [-0.01, 1.01, float("nan")])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)


class TestMultiDrawCapacity:
    def test_zero_draws_carry_nothing(self):
        for p in (0.0, 0.1, 0.3, 0.5):
            assert multi_draw_capacity(0, p) == 0.0

    def test_single_draw_is_bsc(self):
        assert multi_draw_capacity(1, 0.1) == pytest.approx(C1, abs=1e-12)
        for p in np.linspace(0.01, 0.49, 25):
            assert multi_draw_capacity(1, p) == pytest.approx(
                1.0 - binary_entropy(p), abs=1e-10
            )

    def test_two_draws(self):
        assert multi_draw_capacity(2, 0.1) == pytest.approx(C2, abs=1e-6)

    def test_index_rate_anchor(self):
        # the value used throughout for index rates just below one draw's capacity
        assert 0.999 * multi_draw_capacity(1, 0.1) == pytest.approx(0.5304, abs=1e-4)

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.25, 0.4, 0.49, 0.5])
    def test_monotone_in_draws(self, p):
        tab = capacity_table(p, 64)
        assert (np.diff(tab) >= 0).all()

    def test_noiseless_boundary(self):
        for d in range(1, 20):
            assert multi_draw_capacity(d, 0.0) == 1.0

    def test_useless_boundary(self):
        for d in range(0, 20):
            assert multi_draw_capacity(d, 0.5) == 0.0

    def test_range(self):
        tab = capacity_table(0.1, 200)
        assert (tab >= 0.0).all() and (tab <= 1.0).all()

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            multi_draw_capacity(-1, 0.1)


class TestSaturation:
    # Levels from S(p) = multidraw._saturation(p) on are 1.0 by the
    # Bhattacharyya bound and are never computed.
    @pytest.fixture(autouse=True)
    def cold(self):
        multidraw._capacity_cached.cache_clear()

    def test_saturation_levels(self):
        ps = (0.0, 0.001, 0.01, 0.1, 0.1234, 0.25, 0.4, 0.45, 0.49, 0.5)
        assert [multidraw._saturation(p) for p in ps] == [
            1, 14, 24, 74, 91, 263, 1852, 7522, 188945, math.inf]

    @pytest.mark.parametrize("k", [20, 26, 30, 40, 53])
    def test_saturation_accurate_near_one_half(self, k):
        # 4pq = 1 - (1 - 2p)^2 rounds to 1 from k = 27 on, yet S(p) is finite:
        # about 2 ln(2^54 / ln 2) / (1 - 2p)^2
        t = 2.0**-k  # 1 - 2p
        expected = 2.0 * math.log(2.0**54 / math.log(2.0)) / t**2
        assert multidraw._saturation(0.5 - t / 2) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("p, d_max", [(0.001, 2000), (0.01, 2000), (0.1, 2000),
                                          (0.25, 2000), (0.4, 3000), (0.45, 3000)])
    def test_tables_bit_identical_to_every_level_computed(self, p, d_max):
        levels = np.array([multidraw._capacity_cached.__wrapped__(d, p)
                           for d in range(d_max + 1)])
        assert np.array_equal(capacity_table(p, d_max).view(np.uint64), levels.view(np.uint64))
        for d in (1, d_max // 2, d_max):
            assert multi_draw_capacity(d, p) == levels[d]

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.25, 0.4])
    def test_every_level_is_one_from_the_first_computed_one(self, p):
        # the bound leaves a margin: the first exact 1.0 is 13 / 23 / 71 / 250 / 1757
        s = multidraw._saturation(p)
        levels = [multidraw._capacity_cached.__wrapped__(d, p)
                  for d in range(min(3 * s, 6000) + 1)]
        first = levels.index(1.0)
        assert first <= s
        assert all(level == 1.0 for level in levels[first:])

    @pytest.mark.parametrize("p", [0.1, 0.4])
    @pytest.mark.parametrize("d", [10**18, 2**62])
    def test_cold_calls_past_saturation_compute_nothing(self, d, p):
        start = time.perf_counter()
        assert multi_draw_capacity(d, p) == 1.0
        assert gated_capacity(d, p, 0.5) == 1.0
        assert time.perf_counter() - start < 1e-3
        assert multidraw._capacity_cached.cache_info().currsize == 0

    def test_large_reading_rates_stop_at_saturation(self):
        start = time.perf_counter()
        assert channel_capacity(ChannelParams(1e4, 0.05, 0.1)) == 0.9499999999990015
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        scheme = SchemeParams(K=1, r_ix=0.5, r_in=0.5, r_out=1.0)
        est = achievable_outer_rate_exact(ChannelParams(1e5, 0.05, 0.1), scheme)
        assert time.perf_counter() - start < 1.0
        assert abs(est.value - 1.0) <= est.truncation_mass + 1e-15


class TestDeepUnderflow:
    @pytest.mark.parametrize("d", [2000, 4000])
    def test_no_runtime_warning(self, d):
        # both tails of the binomial underflow here; no 0/0 may be evaluated.
        # multi_draw_capacity returns 1.0 from d = 91 on without computing, so
        # the computation is called directly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert multidraw._capacity_cached.__wrapped__(d, 0.1234) == 1.0


class TestGatedCapacity:
    def test_zero_draws_gated(self):
        assert gated_capacity(0, 0.1, 0.5) == 0.0

    def test_passes_gate(self):
        assert gated_capacity(1, 0.1, 0.5304) == pytest.approx(C1, abs=1e-9)

    def test_blocked_by_gate(self):
        assert gated_capacity(1, 0.1, 0.532) == 0.0

    def test_value_is_exactly_capacity_or_zero(self):
        for d in range(0, 40):
            for r_ix in (0.1, 0.5304, 0.742, 0.99):
                g = gated_capacity(d, 0.1, r_ix)
                assert g == 0.0 or g == multi_draw_capacity(d, 0.1)

    def test_gate_domain(self):
        with pytest.raises(ValueError):
            gated_capacity(1, 0.1, 0.0)
        with pytest.raises(ValueError):
            gated_capacity(1, 0.1, 1.0)

    @pytest.mark.parametrize("r_ix", [0.0, 1.0, -0.5, float("nan")])
    def test_gate_domain_wording(self, r_ix):
        with pytest.raises(ValueError, match="r_ix out of range: must be in"):
            gated_capacity(1, 0.1, r_ix)
        with pytest.raises(ValueError, match="r_ix out of range: must be in"):
            gated_capacity_table(0.1, 4, r_ix)


class TestCountsMustBeIntegers:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: poisson_pmf(2, 1.5),
            lambda: multi_draw_capacity(2.7, 0.1),
            lambda: multi_draw_capacity(True, 0.1),
            lambda: gated_capacity(2.5, 0.1, 0.5),
            lambda: binom_pmf(3.9, 0.1, 1),
            lambda: binom_pmf(3, 0.1, 1.0),
            lambda: capacity_table(0.1, 3.7),
            lambda: capacity_table(0.1, math.inf),
            lambda: gated_capacity_table(0.1, 4.0, 0.5),
            lambda: poisson_pmf_vec(2, (1.5, 2)),
            lambda: poisson_pmf_vec(2, (True, False)),
            lambda: poisson_pmf_vec(2, ()),
        ],
        ids=[
            "poisson_pmf-1.5",
            "multi_draw_capacity-2.7",
            "multi_draw_capacity-True",
            "gated_capacity-2.5",
            "binom_pmf-d-3.9",
            "binom_pmf-i-1.0",
            "capacity_table-3.7",
            "capacity_table-inf",
            "gated_capacity_table-4.0",
            "poisson_pmf_vec-float",
            "poisson_pmf_vec-bool",
            "poisson_pmf_vec-empty",
        ],
    )
    def test_non_integral_counts_rejected(self, call):
        with pytest.raises(ValueError, match="out of range: must be a"):
            call()

    def test_numpy_integers_accepted(self):
        assert multi_draw_capacity(np.int64(2), 0.1) == multi_draw_capacity(2, 0.1)
        assert len(capacity_table(0.1, np.uint8(3))) == 4
        assert poisson_pmf(2, np.int32(1)) == poisson_pmf(2, 1)
        assert poisson_pmf_vec(2, np.array([1, 2], dtype=np.uint8)) == poisson_pmf_vec(
            2, (1, 2)
        )
