"""Property test of the Poisson tail cut behind the capacity sums.

channel_capacity, mean_gated_capacity, asymptotic_rate and r_max sum over a
strand's draw counts d = 0 .. d_max. The cut d_max must be sound, leaving
out less than tail_eps, and minimal, one count fewer would leave out at
least tail_eps, for any tail_eps in (0, 1); and each tabulated mass must be
multidraw.poisson_pmf's value bit for bit. At p = 0 the capacity table costs
O(d), so the same checks run up to c = 10^5 there.
"""

import math

import numpy as np
import pytest
from scipy.special import pdtrc

from dnarate import ChannelParams, poisson_pmf, rates

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _check_cut(c, tail_eps, p=0.1, checked=None):
    """The cut's soundness and minimality, and the masses at the counts
    `checked` (every count by default) against poisson_pmf bit for bit."""
    pmf, ctab = rates._capacity_terms(ChannelParams(c, 0.05, p), tail_eps)
    d_max = len(pmf) - 1
    assert len(ctab) == d_max + 1
    assert pdtrc(d_max, c) < tail_eps  # sound
    assert d_max == 0 or tail_eps <= pdtrc(d_max - 1, c)  # minimal
    checked = range(d_max + 1) if checked is None else checked
    assert [pmf[d] for d in checked] == [poisson_pmf(c, d) for d in checked]
    return pmf


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(log_c=st.floats(-3.0, 3.0), log_tail=st.floats(-20.0, math.log10(0.5)))
def test_cut_is_sound_and_minimal(log_c, log_tail):
    _check_cut(10.0**log_c, 10.0**log_tail)


# A cut taken from the running sum of the masses stopped one count early at
# c = 41 and 49.5, leaving out 1.0e-12 and more; below a 1e-16 tail it was
# clamped to the 1e-16 table, leaving out up to 6.1e-17 at c = 1.
@pytest.mark.parametrize("c, tail_eps", [
    (41.0, 1e-12), (49.5, 1e-12),
    (0.5, 1e-17), (1.0, 1e-17), (2.0, 1e-17), (10.0, 1e-17),
])
def test_cut_where_the_running_sum_failed(c, tail_eps):
    _check_cut(c, tail_eps)


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
@hypothesis.given(log_c=st.floats(3.0, 5.0), log_tail=st.floats(-16.0, -3.0))
def test_cut_at_large_reading_rates(log_c, log_tail):
    c = 10.0**log_c
    d_max = rates._poisson_cut(c, 10.0**log_tail)
    checked = np.unique(np.linspace(0, d_max, 400).round().astype(int))
    pmf = _check_cut(c, 10.0**log_tail, p=0.0, checked=checked)
    assert abs(math.fsum(pmf) - (1.0 - pdtrc(d_max, c))) <= 1e-15
