"""Property test of the exact/Monte-Carlo decision over the whole input range.

Reading rates run log-uniformly over [1e-13, 1e3] and block sizes over
[1, 1e7]; wherever "auto" picks exact evaluation it must decide quickly and
return an honest value, and "exact" must either answer or refuse loudly.
"""

import time

import pytest

from dnarate import (
    ChannelParams,
    EnumerationCapError,
    SchemeParams,
    achievable_outer_rate_exact,
    rates,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _check_estimate(est, tail_eps):
    assert est.method == "exact"
    assert 0.0 <= est.value <= 1.0
    assert 0.0 <= est.truncation_mass <= tail_eps


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(
    log_c=st.floats(-13.0, 3.0),
    log_k=st.floats(0.0, 7.0),
    tail_eps=st.sampled_from([1e-12, 1e-6]),
    r_in=st.floats(0.01, 0.99),
)
def test_exact_decision_is_quick_and_honest(log_c, log_k, tail_eps, r_in):
    params = ChannelParams(10.0**log_c, 0.05, 0.1)
    K = round(10.0**log_k)
    start = time.perf_counter()
    use_exact = rates._use_exact(params, K, "auto", tail_eps)
    assert time.perf_counter() - start < 0.5
    scheme = SchemeParams(K, 0.5304, r_in, 1.0)
    if use_exact:
        _check_estimate(achievable_outer_rate_exact(params, scheme, tail_eps), tail_eps)
    else:
        try:
            est = achievable_outer_rate_exact(params, scheme, tail_eps)
        except EnumerationCapError:
            return
        _check_estimate(est, tail_eps)
