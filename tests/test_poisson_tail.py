"""Accuracy of the Poisson tail cut at large means.

rates._poisson_tail_cut sums the package's own saddle-point masses over a
window around the mean. Here its cut and tail are checked against a direct
40-digit mpmath sum, at means where scipy's pdtrc loses digits (relative
error 8.3e-9 at lam = 10^6 and 2.2e-2 at 2e7 for tails near 1e-16), so
pdtrc cannot serve as the oracle there.
"""

import pytest

from dnarate import rates

mp = pytest.importorskip("mpmath")


def _exact_tail(lam, d):
    """(P(X > d), P(X = d)) for X ~ Poisson(lam): the upper tail summed term
    by term from d + 1 by the ratio lam / k, at 40 digits."""
    with mp.workdps(40):
        lam = mp.mpf(lam)
        at_d = mp.exp(-lam + d * mp.log(lam) - mp.loggamma(d + 1))
        term, total, k = at_d * lam / (d + 1), mp.mpf(0), d + 1
        while term > total * mp.mpf(10) ** -30:
            total += term
            k += 1
            term *= lam / k
        return total, at_d


@pytest.mark.parametrize("tail", [1e-3, 1e-9, 1e-16])
@pytest.mark.parametrize("lam", [2.5e5, 1e6, 7.1e6, 2e7])
def test_tail_and_cut_against_a_direct_sum(lam, tail):
    d, got = rates._poisson_tail_cut(lam, tail)
    above, at_d = _exact_tail(lam, d)
    assert abs(mp.mpf(got) - above) <= 1e-13 * above
    assert above < tail  # sound
    assert above + at_d >= tail  # minimal: P(X > d - 1) is not below tail


@pytest.mark.parametrize("lam", [1e-13, 1e-3, 0.7, 2.0, 41.0, 1e3])
def test_cut_at_tails_near_one(lam):
    # The window's lower end never passes the cut, even where the cut is 0.
    for tail in (0.5, 0.9, 0.999999):
        d, above = rates._poisson_tail_cut(lam, tail)
        exact, at_d = _exact_tail(lam, d)
        assert above < tail and float(exact) < tail
        assert d == 0 or float(exact + at_d) >= tail
