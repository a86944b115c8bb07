import math
import warnings

import numpy as np
import pytest

from dnarate import (
    binary_entropy,
    binom_pmf,
    capacity_table,
    check_crossover,
    gated_capacity,
    gated_capacity_table,
    multi_draw_capacity,
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

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.25, 0.4, 0.49])
    def test_monotone_in_draws(self, p):
        tab = capacity_table(p, 64)
        assert (np.diff(tab) >= 0).all()

    def test_noiseless_boundary(self):
        for d in range(1, 20):
            assert multi_draw_capacity(d, 0.0) == 1.0

    def test_useless_boundary(self):
        for d in range(0, 20):
            assert multi_draw_capacity(d, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        tab = capacity_table(0.1, 200)
        assert (tab >= 0.0).all() and (tab <= 1.0).all()

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            multi_draw_capacity(-1, 0.1)


class TestDeepUnderflow:
    @pytest.mark.parametrize("d", [2000, 4000])
    def test_no_runtime_warning(self, d):
        # both tails of the binomial underflow here; no 0/0 may be evaluated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert multi_draw_capacity(d, 0.1234) == 1.0


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
