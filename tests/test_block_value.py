"""Every path that computes a block's gated capacity gives the same bits.

A block decodes when the mean gated capacity of its K strands exceeds r_in.
The exact enumeration sums sorted draw-count types, Monte-Carlo and the
optimiser take histograms, the decoder and block_capacity take draw counts
in strand order. All of them floor the gated table to multiples of 2^-s,
s = 53 - ceil(log2 K), where any sum of K entries is exact, so a block's
value cannot depend on the path; the oracle here is math.fsum of that grid.
"""

import math

import numpy as np
import pytest

from dnarate import (
    ChannelParams,
    SchemeParams,
    block_capacity,
    capacity_table,
    gated_capacity_table,
    oracle_inner_decode,
    optimize_scheme,
    rates,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def grid_shift(K):
    """s of the 2^-s grid: 53 - ceil(log2 K), derived here without the package."""
    return 53 - math.ceil(math.log2(K))


def assert_paths_agree(p, r_ix, K, draws, r_ins=()):
    """draws holds one block of K draw counts per row. The decoder's decisions
    are checked at each of r_ins, and at a few rows' values and the floats
    just below them, where a value one ulp off would flip the decision."""
    n = len(draws)
    gtab = gated_capacity_table(p, int(draws.max()), r_ix)
    s = grid_shift(K)
    grid = np.ldexp(np.floor(np.ldexp(gtab, s)), -s)
    assert np.all(gtab - grid >= 0.0) and np.all(gtab - grid < 2.0**-s)

    exact = np.array([math.fsum(row.tolist()) / K for row in grid[draws]])
    assert np.array_equal(bits(rates._type_means(gtab, draws, K)), bits(exact))
    sorted_rows = np.sort(draws, axis=1).astype(np.min_scalar_type(draws.max()))
    assert np.array_equal(bits(rates._type_means(gtab, sorted_rows, K)), bits(exact))

    cells = np.arange(n)[:, None] * len(gtab) + draws
    hist = np.bincount(cells.ravel(), minlength=n * len(gtab)).reshape(n, len(gtab))
    narrow = np.uint16 if K < 65536 else np.uint32  # the optimiser's count matrix
    for h in (hist, hist.astype(narrow)):
        assert np.array_equal(bits(rates._hist_means(h, gtab, K)), bits(exact))

    for i in range(0, n, max(1, n // 500)):
        assert bits(block_capacity(draws[i], p, r_ix)) == bits(exact[i])

    values = exact[:: max(1, n // 4)]
    for r_in in [*r_ins, *values, *np.nextafter(values, 0.0)]:
        if 0.0 < r_in < 1.0:
            scheme = SchemeParams(K, r_ix, float(r_in), 1.0)
            inner = oracle_inner_decode(draws.ravel(), ChannelParams(1.0, 0.05, p), scheme)
            assert np.array_equal(inner.decoded, exact > r_in)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(
    p=st.sampled_from([0.0, 0.01, 0.1, 0.25, 0.4, 0.45]),
    K=st.sampled_from([1, 2, 3, 4, 7, 64, 65, 1000, 10**4, 2**20]),
    c=st.floats(0.05, 40.0),
    level=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32 - 1),
    optimised=st.none(),
)
# The exact types at the inner rate optimize_scheme reports: one float below
# a block value, where any path that rounds that value down loses the block.
@hypothesis.example(p=0.1, K=4, c=5.0, level=0.0, seed=0, optimised=True)
@hypothesis.example(p=0.1, K=6, c=3.0, level=0.0, seed=0, optimised=True)
@hypothesis.example(p=0.1, K=4, c=2.0, level=0.0, seed=0, optimised=True)
@hypothesis.example(p=0.1, K=8, c=1.0, level=0.0, seed=0, optimised=True)
def test_every_path_gives_the_same_bits(p, K, c, level, seed, optimised):
    rng = np.random.default_rng(seed)
    if optimised:
        params = ChannelParams(c, 0.05, p)
        scheme = optimize_scheme(params, K, method="exact").scheme
        types = rates._exact_support(params, K, 1e-12)[0].astype(np.int64)
        draws = rng.permuted(np.pad(types, ((0, 0), (K - types.shape[1], 0))), axis=1)
        assert_paths_agree(p, scheme.r_ix, K, draws, [scheme.r_in])
    else:
        draws = rng.poisson(c, size=(max(1, min(20, 2**22 // K)), K))
        top = capacity_table(p, max(1, int(draws.max())))[-1]
        assert_paths_agree(p, max(level * top, 1e-9), K, draws)
