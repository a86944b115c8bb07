"""Property test of the Poisson tail cut behind the capacity sums.

channel_capacity, mean_gated_capacity, asymptotic_rate and r_max sum over a
strand's draw counts d = 0 .. d_max. The cut d_max must be sound, leaving
out less than tail_eps, and minimal, one count fewer would leave out at
least tail_eps, for any tail_eps in (0, 1); and each tabulated mass must be
multidraw.poisson_pmf's value bit for bit.
"""

import math

import pytest
from scipy.special import pdtrc

from dnarate import ChannelParams, poisson_pmf, rates

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _check_cut(c, tail_eps):
    pmf, ctab = rates._capacity_terms(ChannelParams(c, 0.05, 0.1), tail_eps)
    d_max = len(pmf) - 1
    assert len(ctab) == d_max + 1
    assert pdtrc(d_max, c) < tail_eps  # sound
    assert d_max == 0 or tail_eps <= pdtrc(d_max - 1, c)  # minimal
    assert pmf.tolist() == [poisson_pmf(c, d) for d in range(d_max + 1)]


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
