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


def _check_draw_vector(d, name="d"):
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
            f"{name} out of range: must be a nonempty vector of nonnegative integers, got {d!r}"
        )
    return arr.astype(np.int64)


def _check_unit(x, name, ends="()"):
    """Validate a rate or fraction in the unit interval, each end open or
    closed as `ends` writes it: "()", "(]" or "[]". Returns it as a float."""
    x = float(x)
    if not 0.0 <= x <= 1.0 or (x == 0.0 and ends[0] == "(") or (x == 1.0 and ends[1] == ")"):
        raise ValueError(f"{name} out of range: must be in {ends[0]}0, 1{ends[1]}, got {x!r}")
    return x


def _check_index_overhead(beta, r_ix):
    """Validate an index code rate in (0, 1) above beta, leaving room for data."""
    r_ix = _check_unit(r_ix, "r_ix")
    if not beta < r_ix:
        raise ValueError(f"beta ({beta!r}) must be below r_ix ({r_ix!r}): no room for data")
    return r_ix


def _check_block_size(K, M):
    """Validate a block size: a positive integer K dividing M. Returns K as an int."""
    K = _check_count(K, "K", positive=True)
    if M % K:
        raise ValueError(f"K ({K}) must divide the number of strands M ({M})")
    return K


# ---------------------------------------------------------------------------
# Loader's saddle-point masses (C. Loader, "Fast and Accurate Computation of
# Binomial Probabilities", 2000; the form R's dpois and dbinom use). Every
# Poisson and binomial mass in the package comes from _stirlerr and _bd0:
# both are small where the mass is large, so no term of size ~c or ~d has
# to cancel.

# stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n) for n = 0 .. 15, with
# stirlerr(0) set to 0 so that a zero count drops out of the forms below.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
# 1/12, 1/360, 1/1260, 1/1680, 1/1188: the Stirling series in 1/n^2 past the
# table, with alternating signs
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
# 1/17, 1/15, ..., 1/3: the series of atanh(v)/v - 1 in v^2, highest power
# first, to below an ulp for |v| < 0.1
_ATANH = [1.0 / k for k in range(17, 1, -2)]
_TWO_PI = 2.0 * math.pi


def _stirlerr(n):
    """log n! - log(sqrt(2 pi n) (n/e)^n) at the counts n (an integer
    array), and 0 at n = 0: the table up to 15, the Stirling series beyond."""
    x = np.maximum(n, 16.0)
    w = 1.0 / (x * x)
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 * w) * w) * w) * w) / x
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(int)], series)


@lru_cache(maxsize=None)
def _stirlerr_upto(n):
    """_stirlerr at 0 .. n. Binomial rows read prefixes of the table for the
    next power of two, so a sweep over d builds O(log d) tables."""
    return _stirlerr(np.arange(n + 1))


def _bd0(x, mu):
    """x log(x/mu) + mu - x at the counts x (an array) and means mu > 0 (a
    scalar or an array like x), taken as (x - mu) v + 2x (atanh v - v) with
    v = (x - mu)/(x + mu). The first term is never negative and the second,
    when negative, is at most about a tenth of it, so they cancel little.
    atanh v - v is its series where |v| < 0.1, log(x/mu)/2 - v where
    v >= 1/2 (there arctanh loses digits to the rounding of 1 - v), and
    arctanh v - v between."""
    x = np.asarray(x, dtype=float)
    mu = np.broadcast_to(mu, x.shape)
    dx = x - mu
    v = dx / (x + mu)
    # |v| rounds to 1 at x = 0 or x >> mu, where 2x = 0 or the log form serves
    g = np.arctanh(np.clip(v, -1.0 + 2.0**-53, 1.0 - 2.0**-53))
    far = v >= 0.5
    with np.errstate(over="ignore"):  # x/mu overflows only for subnormal mu
        g[far] = 0.5 * np.log(x[far] / mu[far])
    g -= v
    near = np.abs(v) < 0.1
    vn = v[near]
    w = vn * vn
    series = np.full_like(w, _ATANH[0])
    for coef in _ATANH[1:]:
        series *= w
        series += coef
    g[near] = vn * w * series
    g *= x
    g *= 2.0
    g += dx * v
    return g


def _log_poisson_pmf(c, d):
    """log Poisson(c) masses at the draw counts d (an integer array):
    -stirlerr(d) - bd0(d, c) - log(2 pi d)/2, which is -c at d = 0."""
    return -_stirlerr(d) - _bd0(d, c) - 0.5 * np.log(np.where(d > 0, _TWO_PI * d, 1.0))


def _binom_pmf(d, p):
    """Binomial(d, p) masses at i = 0 .. d, for d >= 1 and 0 < p <= 1/2:
    exp(stirlerr(d) - stirlerr(i) - stirlerr(d - i) - bd0(i, dp)
    - bd0(d - i, dq)) / sqrt(2 pi i (d - i)/d). At i = 0 and i = d the
    stirlerr and square-root factors drop out. Both bd0 rows are taken in
    one call, bd0(i, dq) reversed giving bd0(d - i, dq)."""
    i = np.arange(d + 1)
    s = _stirlerr_upto(1 << d.bit_length())[: d + 1]
    bd0 = _bd0(np.concatenate([i, i]), np.repeat([d * p, d * (1.0 - p)], d + 1))
    log_b = s[-1] - s
    log_b -= s[::-1]
    log_b -= bd0[: d + 1]
    log_b -= bd0[d + 1 :][::-1]
    log_b[1:-1] -= 0.5 * np.log(_TWO_PI * i[1:-1] * i[-2:0:-1] / d)
    return np.exp(log_b, out=log_b)


def binom_pmf(d, p, i):
    """Probability of exactly i flips among d independent Ber(p) trials.

    Loader's saddle-point form, the one every binomial mass in the package
    uses. Against 40-digit values its relative error stays below 3e-14
    within six standard deviations of the mean up to d = 10^4. It computes
    the row of d + 1 masses, so a call costs O(d).
    """
    p = check_crossover(p)
    d = _check_count(d, "d")
    i = _check_count(i, "i")
    if i > d:
        raise ValueError(f"i must lie in [0, {d}], got {i}")
    if p == 0.0 or d == 0:
        return 1.0 if i == 0 else 0.0
    return float(_binom_pmf(d, p)[i])


def poisson_pmf(c, d):
    """Poisson(c) mass at d, by Loader's saddle-point form.

    Against 40-digit values its relative error is about 1e-14 at c = 100
    and at most 2e-13 up to c = 10^5, largest where the mass nears the
    float64 range; values below that range underflow gracefully to 0.0.
    """
    c = float(c)
    d = _check_count(d, "d")
    _check_reading_rate(c)
    # as a float, so that a count past the int64 range still gives 0.0
    return math.exp(_log_poisson_pmf(c, np.array([float(d)]))[0])


def poisson_pmf_vec(c, d):
    """Joint mass of a vector of independent Poisson(c) draw counts.

    Computed as the exponential of the exactly rounded sum of the log
    masses, so permutations of d give identical values.
    """
    c = float(c)
    _check_reading_rate(c)
    d = _check_draw_vector(d)
    return math.exp(math.fsum(_log_poisson_pmf(c, d)))


def binary_entropy(x):
    """Entropy in bits of a Ber(x) variable, with the 0 log 0 = 0 convention."""
    x = _check_unit(x, "x", "[]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _bhattacharyya_depth(p, slack):
    """The first d with Z^d / ln 2 < slack, Z = 2 sqrt(pq), for slack in
    (0, 1): 1 at p = 0, inf at p = 1/2. As 1 - C_d <= log2(1 + Z^d) <= Z^d / ln 2
    (Arikan, "Channel Polarization", 2009, Prop. 1), every level from it on
    is above 1 - slack. Above p = 1/4, log Z^2 = log1p(-(1 - 2p)^2) with
    1 - 2p exact keeps it finite and accurate up to p = 1/2."""
    if p == 0.0:
        return 1
    t = 1.0 - 2.0 * p
    log_z2 = math.log1p(-t * t) if p > 0.25 else math.log(4.0 * p * (1.0 - p))
    return math.floor(2.0 * math.log(slack * math.log(2.0)) / log_z2) + 1 if log_z2 else math.inf


def _saturation(p):
    """S(p), the first d with Z^d / ln 2 < 2^-54 (see _bhattacharyya_depth):
    as 2^-54 is half an ulp below 1.0, every level from S(p) on is 1.0."""
    return _bhattacharyya_depth(p, 2.0**-54)


def _mixture(pmf, values):
    """pmf . values as numpy's pairwise sum of the products, on the calling
    thread and with no BLAS call: its order, and so its bits, depend only on
    the length."""
    return float((pmf * values).sum())


@lru_cache(maxsize=None)
def _capacity_cached(d, p):
    """C_d = 1 + sum_i b_i log2(b_i / (b_i + b_(d-i))), b the Binomial(d, p)
    masses. b_(d-i)/b_i = (p/q)^(d-2i), so each log is the closed form
    -log(1 + (p/q)^(d-2i)), a softplus that never sees 0/0."""
    if d == 0 or p == 0.5:
        return 0.0
    if p == 0.0:
        return 1.0
    b = _binom_pmf(d, p)
    loss = _mixture(b, np.logaddexp(0.0, np.arange(d, -d - 1, -2) * math.log(p / (1.0 - p))))
    return min(max(1.0 - loss / math.log(2.0), 0.0), 1.0)


def multi_draw_capacity(d, p):
    """Capacity in bits of the d-fold observation channel.

    The channel maps one input bit to d outputs, each an independent BSC(p)
    observation of the bit. d = 0 carries nothing, nor does p = 1/2. From
    d = S(p) on (S(0) = 1) it is 1.0, returned without computing.
    """
    d = _check_count(d, "d")
    p = check_crossover(p)
    return 1.0 if d >= _saturation(p) else _capacity_cached(d, p)


def gated_capacity(d, p, r_ix):
    """Capacity of the d-fold observation channel, zeroed when it cannot
    carry an index of rate r_ix (strict comparison)."""
    r_ix = _check_unit(r_ix, "r_ix")
    cap = multi_draw_capacity(d, p)
    return cap if cap > r_ix else 0.0


def capacity_table(p, d_max):
    """Array of multi-draw capacities for d = 0 .. d_max. Levels below
    S(p) = _saturation(p) are computed, and the rest are 1.0."""
    p = check_crossover(p)
    d_max = _check_count(d_max, "d_max")
    tab = np.ones(d_max + 1)
    n = min(d_max + 1, _saturation(p))
    tab[:n] = [_capacity_cached(d, p) for d in range(n)]
    return tab


def gated_capacity_table(p, d_max, r_ix):
    """Array of index-gated capacities for d = 0 .. d_max."""
    r_ix = _check_unit(r_ix, "r_ix")
    return _gate(capacity_table(p, d_max), r_ix)


def _gate(tab, r_ix):
    """Capacity table with every entry at or below r_ix zeroed."""
    return np.where(tab > r_ix, tab, 0.0)
