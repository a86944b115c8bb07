"""Accuracy of the Poisson and binomial masses, and of what they feed.

Every mass in the package comes from Loader's saddle-point form
(multidraw._stirlerr and multidraw._bd0). These tests check it against
40-digit mpmath values that share no code with the package, and check the
bounds that rounding in the masses used to break: at p = 0 the capacity is
at most (1 - beta)(1 - e^-c), and an outer rate is a probability.
"""

import math

import numpy as np
import pytest
from scipy.special import pdtrc

from dnarate import (
    ChannelParams,
    SchemeParams,
    achievable_outer_rate_exact,
    channel_capacity,
    multi_draw_capacity,
    multidraw,
    rates,
)

mp = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ULP = 2.0**-52


def _rel_err(got, exact):
    return float(abs(mp.mpf(got) - exact) / exact)


def _exact_poisson(c, d):
    with mp.workdps(40):
        c = mp.mpf(c)
        return mp.exp(-c + d * mp.log(c) - mp.loggamma(d + 1))


def _exact_binom(d, p, i):
    with mp.workdps(40):
        p = mp.mpf(p)
        return mp.binomial(d, i) * p**i * (1 - p) ** (d - i)


def _exact_binom_row(d, p):
    """Binomial(d, p) masses at i = 0 .. d by their recurrence, 40 digits."""
    with mp.workdps(40):
        p = mp.mpf(p)
        r, b, row = p / (1 - p), (1 - p) ** d, []
        for i in range(d + 1):
            row.append(b)
            b *= r * (d - i) / (i + 1)
        return row


def test_stirlerr_table():
    with mp.workdps(40):
        for n in range(1, 16):
            exact = mp.loggamma(n + 1) - (n + 0.5) * mp.log(n) + n - mp.log(2 * mp.pi) / 2
            assert multidraw._STIRLERR[n] == float(exact)
    assert multidraw._STIRLERR[0] == 0.0


@pytest.mark.parametrize("c", [1e2, 1e3, 1e4, 1e5])
def test_poisson_masses_beat_the_log_space_form(c):
    # about 70 counts from where the masses leave the float range up to the
    # 1e-16 cut, against the exp(-c + d log c - lgamma(d + 1)) form the
    # saddle-point masses replaced, whose terms of size ~c cancel
    d_max = rates._poisson_cut(c, rates._TABLE_TAIL)
    pmf = rates._poisson_table(c, d_max)[1]
    new, old = [], []
    for d in np.unique(np.linspace(max(0, c - 37 * math.sqrt(c)), d_max, 70).round()):
        d = int(d)
        exact = _exact_poisson(c, d)
        if exact < 1e-300:
            continue
        new.append(_rel_err(pmf[d], exact))
        old.append(_rel_err(math.exp(-c + d * math.log(c) - math.lgamma(d + 1)), exact))
    assert len(new) >= 60
    assert max(new) <= max(old) / 10
    assert np.median(new) <= 1e-14


@pytest.mark.parametrize("c", [1e-3, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
def test_poisson_masses_sum_to_one_less_the_tail(c):
    d_max = rates._poisson_cut(c, 1e-12)
    pmf = rates._poisson_table(c, d_max)[1]
    assert abs(math.fsum(pmf) - (1.0 - pdtrc(d_max, c))) <= 1e-15


def test_binomial_masses_up_to_30_draws():
    # Below a mass of about 1e-20 the log mass, |log b| > 46, is itself
    # coarser than 2e-14 in relative terms; there the error stays within 4
    # ulps of log b.
    for p in np.arange(1, 50) / 100:
        for d in range(1, 31):
            row = multidraw._binom_pmf(d, p)
            for i, exact in enumerate(_exact_binom_row(d, p)):
                err = _rel_err(row[i], exact)
                if exact >= 1e-20:
                    assert err <= 2e-14, (p, d, i)
                else:
                    assert err <= 4 * ULP * abs(float(mp.log(exact))), (p, d, i)


@pytest.mark.parametrize("d", [50, 300, 1000, 3000, 10_000])
@pytest.mark.parametrize("p", [0.01, 0.1, 0.25, 0.4, 0.5])
def test_binomial_masses_within_six_sigma(d, p):
    mean, sd = d * p, math.sqrt(d * p * (1 - p))
    lo, hi = max(0, math.ceil(mean - 6 * sd)), min(d, math.floor(mean + 6 * sd))
    row = multidraw._binom_pmf(d, p)
    for i in np.unique(np.linspace(lo, hi, 25).round()):
        i = int(i)
        assert _rel_err(row[i], _exact_binom(d, p, i)) <= 1e-13, i


def _exact_capacity(d, p):
    # C_d = 1 - sum_i b_i log2(1 + (p/q)^(d - 2i))
    with mp.workdps(40):
        r = mp.mpf(p) / (1 - mp.mpf(p))
        ratio, step = r**d, r**-2
        loss = mp.mpf(0)
        for b in _exact_binom_row(d, p):
            loss += b * mp.log1p(ratio)
            ratio *= step
        return 1 - loss / mp.log(2)


def test_capacity_levels():
    for p in np.arange(1, 50) / 100:
        for d in (1, 2, 3, 4, 5, 7, 10, 15, 23, 33, 50, 71, 100, 150, 250, 400):
            cap = multi_draw_capacity(d, float(p))
            assert abs(cap - _exact_capacity(d, float(p))) <= 1e-14, (p, d)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(log_c=st.floats(-3.0, 5.0), beta=st.floats(0.001, 0.999))
def test_noiseless_rates_within_their_ceilings(log_c, beta):
    # At p = 0 every drawn strand carries a full bit, so the capacity is at
    # most (1 - beta)(1 - e^-c) and a block of one strand succeeds with
    # probability at most 1 - e^-c. Masses summing past 1 broke both.
    c = 10.0**log_c
    params = ChannelParams(c, beta, 0.0)
    assert channel_capacity(params) <= (1.0 - beta) * -math.expm1(-c)
    scheme = SchemeParams(K=1, r_ix=0.999, r_in=0.5, r_out=1.0)
    assert achievable_outer_rate_exact(params, scheme).value <= 1.0


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    log_c=st.floats(-3.0, math.log10(300.0)),
    beta=st.floats(0.001, 0.999),
    p=st.sampled_from([0.1, 0.4]),
)
def test_noisy_capacity_within_the_noiseless_ceiling(log_c, beta, p):
    c = 10.0**log_c
    assert channel_capacity(ChannelParams(c, beta, p)) <= (1.0 - beta) * -math.expm1(-c)
