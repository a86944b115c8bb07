"""Bit-level probability building blocks.

Binomial and Poisson mass functions, binary entropy, and the capacity of the
multi-draw channel: one input bit observed through d independent copies of a
binary symmetric channel with crossover probability p. Everything here is a
pure function of its arguments.
"""

import math
import numbers
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

__all__ = [
    "check_crossover",
    "binom_pmf",
    "poisson_pmf",
    "poisson_pmf_vec",
    "binary_entropy",
    "multi_draw_capacity",
    "gated_capacity",
    "capacity_table",
    "gated_capacity_table",
]


def check_crossover(p):
    """Validate a per-bit flip probability; must lie in [0, 1/2]."""
    p = float(p)
    if math.isnan(p) or not 0.0 <= p <= 0.5:
        raise ValueError(f"p out of range: must be in [0, 1/2], got {p!r}")
    return p


def _check_reading_rate(c):
    """Validate a reading rate (expected draws per strand); positive and finite."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"c out of range: must be positive and finite, got {c!r}")


def _check_count(n, name, positive=False):
    """Validate a count (draws, flips, a table bound or a block size): an
    integer, never a float or a bool, that is nonnegative, or positive if
    asked. Returns it as an int."""
    low, kind = (1, "positive") if positive else (0, "nonnegative")
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < low:
        raise ValueError(f"{name} out of range: must be a {kind} integer, got {n!r}")
    return int(n)


def _check_draw_vector(d):
    """Validate a nonempty vector of draw counts: an integer dtype and no
    negative entry, the vector form of _check_count. Returns it as int64."""
    arr = np.asarray(d)
    if (
        arr.ndim != 1
        or arr.size == 0
        or not np.issubdtype(arr.dtype, np.integer)
        or (arr < 0).any()
    ):
        raise ValueError(
            f"d out of range: must be a nonempty vector of nonnegative integers, got {d!r}"
        )
    return arr.astype(np.int64)


def _check_index_rate(r_ix):
    """Validate an index code rate; must lie in (0, 1)."""
    r_ix = float(r_ix)
    if not 0.0 < r_ix < 1.0:
        raise ValueError(f"r_ix out of range: must be in (0, 1), got {r_ix!r}")
    return r_ix


def binom_pmf(d, p, i):
    """Probability of exactly i flips among d independent Ber(p) trials.

    Uses exact integer binomials up to d = 30 and log-gamma beyond, so the
    value stays finite for any draw count a Poisson tail can reach.
    """
    p = check_crossover(p)
    d = _check_count(d, "d")
    i = _check_count(i, "i")
    if i > d:
        raise ValueError(f"i must lie in [0, {d}], got {i}")
    if p == 0.0:
        return 1.0 if i == 0 else 0.0
    if d <= 30:
        return math.comb(d, i) * p**i * (1.0 - p) ** (d - i)
    log_pmf = (
        gammaln(d + 1)
        - gammaln(i + 1)
        - gammaln(d - i + 1)
        + i * math.log(p)
        + (d - i) * math.log1p(-p)
    )
    return float(math.exp(log_pmf))


def poisson_pmf(c, d):
    """Poisson(c) mass at d, evaluated in log space.

    Large d therefore cannot overflow the factorial; far-tail values that lie
    below the float64 range underflow gracefully to 0.0 instead of NaN.
    """
    c = float(c)
    d = _check_count(d, "d")
    _check_reading_rate(c)
    return math.exp(-c + d * math.log(c) - math.lgamma(d + 1))


def poisson_pmf_vec(c, d):
    """Joint mass of a vector of independent Poisson(c) draw counts.

    Computed as the exponential of the summed log masses; the product
    commutes, so permutations of d give identical values.
    """
    c = float(c)
    _check_reading_rate(c)
    d = _check_draw_vector(d)
    logs = -c + d * math.log(c) - gammaln(d + 1)
    return float(math.exp(logs.sum()))


def binary_entropy(x):
    """Entropy in bits of a Ber(x) variable, with the 0 log 0 = 0 convention."""
    x = float(x)
    if math.isnan(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@lru_cache(maxsize=None)
def _capacity_cached(d, p):
    if d == 0:
        return 0.0
    if p == 0.0:
        return 1.0
    i = np.arange(d + 1)
    log_b = (
        gammaln(d + 1)
        - gammaln(i + 1)
        - gammaln(d - i + 1)
        + i * math.log(p)
        + (d - i) * math.log1p(-p)
    )
    b = np.exp(log_b)
    # Summands with b = 0 (far-tail underflow) contribute nothing; their
    # ratio is left at 1, so neither 0/0 nor log2(0) is ever evaluated.
    pos = b > 0.0
    ratio = np.ones_like(b)
    ratio[pos] = b[pos] / (b[pos] + b[::-1][pos])
    val = 1.0 + float(np.dot(b, np.log2(ratio)))
    return min(max(val, 0.0), 1.0)


def multi_draw_capacity(d, p):
    """Capacity in bits of the d-fold observation channel.

    The channel maps one input bit to d outputs, each an independent BSC(p)
    observation of the bit. d = 0 carries nothing; for p = 0 a single draw
    already suffices, so the capacity is 1 for every d >= 1.
    """
    d = _check_count(d, "d")
    return _capacity_cached(d, check_crossover(p))


def gated_capacity(d, p, r_ix):
    """Capacity of the d-fold observation channel, zeroed when it cannot
    carry an index of rate r_ix (strict comparison)."""
    r_ix = _check_index_rate(r_ix)
    cap = multi_draw_capacity(d, p)
    return cap if cap > r_ix else 0.0


def capacity_table(p, d_max):
    """Array of multi-draw capacities for d = 0 .. d_max."""
    p = check_crossover(p)
    d_max = _check_count(d_max, "d_max")
    return np.array([_capacity_cached(d, p) for d in range(d_max + 1)])


def gated_capacity_table(p, d_max, r_ix):
    """Array of index-gated capacities for d = 0 .. d_max."""
    r_ix = _check_index_rate(r_ix)
    return _gate(capacity_table(p, d_max), r_ix)


def _gate(tab, r_ix):
    """Capacity table with every entry at or below r_ix zeroed."""
    return np.where(tab > r_ix, tab, 0.0)
