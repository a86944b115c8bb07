"""Capacity and achievable rates of the pooled-strand storage channel.

The channel stores M unordered binary strands of length L, hands back
N = c*M reads drawn uniformly with replacement, and flips each read bit with
probability p. The coding scheme layers an outer code of rate r_out over
inner blocks of K strands coded at rate r_in, with each strand carrying its
position index behind an index code of rate r_ix. This module computes the
channel capacity, the largest outer rate the scheme can support (exactly by
enumeration or by Monte-Carlo), the large-K limit of the overall rate, its
supremum over index rates, and an optimizer for scheme parameters that takes
the supremum over inner rates in closed form. Both searches try an index
rate just below every distinct capacity level of their table.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import pdtrc

# multi_draw_capacity is not called here, but bench/tracer.py wraps this
# module's binding of it along with the two table functions.
from .multidraw import (  # noqa: F401
    _check_count,
    _check_draw_vector,
    _check_index_rate,
    _check_reading_rate,
    _gate,
    binary_entropy,
    capacity_table,
    check_crossover,
    gated_capacity_table,
    multi_draw_capacity,
)
from .seeding import _check_threads, _map_chunks, substream

__all__ = [
    "ChannelParams",
    "SchemeParams",
    "RateEstimate",
    "RMaxResult",
    "SchemeValidation",
    "OptimizeResult",
    "EnumerationCapError",
    "ENUM_CAP",
    "channel_capacity",
    "block_capacity",
    "mean_gated_capacity",
    "achievable_outer_rate_exact",
    "achievable_outer_rate_mc",
    "overall_rate",
    "asymptotic_rate",
    "r_max",
    "gap_to_capacity",
    "optimize_scheme",
    "validate_scheme",
]

# Samples per RNG substream chunk; partial counts are combined in chunk order,
# so estimates are identical for any worker count.
MC_CHUNK = 65536
# Upper-tail mass P(X > d) at which the Monte-Carlo sampling table is cut.
_TABLE_TAIL = 1e-16
# Table cells handled at once: histogram cells drawn within an MC chunk (only
# tables wider than 64 entries, c above 18, split a chunk) or types gathered.
_HIST_CELLS = 1 << 22
# Hard ceiling on exact enumeration, in type-table cells (types x stored columns).
ENUM_CAP = 10**8
# "auto" method switches to Monte-Carlo above this many type-table cells;
# the full ENUM_CAP is only honoured when exact evaluation is requested.
AUTO_EXACT_CELLS = 4_000_000


class EnumerationCapError(RuntimeError):
    """Exact enumeration would build more than ENUM_CAP type-table cells."""


@dataclass(frozen=True)
class ChannelParams:
    """Channel triple: reading rate c (expected reads per strand), strand
    density beta = log2(M)/L, and per-bit flip probability p."""

    c: float
    beta: float
    p: float

    def __post_init__(self):
        _check_reading_rate(self.c)
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta out of range: must be in (0, 1), got {self.beta!r}")
        check_crossover(self.p)


@dataclass(frozen=True)
class SchemeParams:
    """Code quadruple: inner block size K plus index, inner and outer rates."""

    K: int
    r_ix: float
    r_in: float
    r_out: float

    def __post_init__(self):
        _check_count(self.K, "K", positive=True)
        _check_index_rate(self.r_ix)
        if not 0.0 < self.r_in < 1.0:
            raise ValueError(f"r_in out of range: must be in (0, 1), got {self.r_in!r}")
        if not 0.0 < self.r_out <= 1.0:
            raise ValueError(f"r_out out of range: must be in (0, 1], got {self.r_out!r}")

    def overall(self, beta):
        """Net rate of this scheme on a channel with strand density beta."""
        return overall_rate(self.r_in, self.r_out, self.r_ix, beta)


@dataclass(frozen=True)
class RateEstimate:
    """An achievable-outer-rate figure together with its uncertainty.

    Exact estimates carry zero stderr and report the Poisson mass left
    outside the enumerated set; Monte-Carlo estimates carry the binomial
    standard error of the success fraction.
    """

    value: float
    stderr: float
    method: str  # "exact" or "monte_carlo"
    samples: int
    truncation_mass: float


@dataclass(frozen=True)
class RMaxResult:
    """Supremum of the large-K rate over index rates, the index rate attaining
    it, and d_star, the fewest draws whose capacity passes that index gate."""

    r_max: float
    d_star: int
    r_ix_used: float


@dataclass(frozen=True)
class SchemeValidation:
    """Verdict of validate_scheme: every violated condition, not just the first."""

    ok: bool
    violations: tuple


@dataclass(frozen=True)
class OptimizeResult:
    """Best scheme found by optimize_scheme for one block size."""

    scheme: SchemeParams
    rate: RateEstimate
    overall: float
    d_candidate: int


# ---------------------------------------------------------------------------
# The Poisson law of one strand's draw count

@lru_cache(maxsize=32)
def _poisson_table(c, d_max):
    """(log_pmf, pmf) arrays of Poisson(c) on 0 .. d_max, the one table every
    rate path reads: multidraw.poisson_pmf's float operations in its order,
    so each mass matches it bit for bit. The cache is bounded, as sweeps over
    c, K or tail_eps each ask for new tables."""
    c, n = float(c), d_max + 1
    lgam = np.fromiter(map(math.lgamma, range(1, n + 1)), float, n)
    log_pmf = -c + np.arange(n, dtype=float) * math.log(c) - lgam
    return log_pmf, np.fromiter(map(math.exp, log_pmf.tolist()), float, n)


def _poisson_cut(lam, tail):
    """Smallest d whose closed-form Poisson(lam) tail P(X > d) is below tail,
    by bisection, as the tail falls with d."""
    lo, hi = -1, max(1, int(lam))  # P(X > lo) >= tail > P(X > hi)
    while pdtrc(hi, lam) >= tail:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if pdtrc(mid, lam) >= tail else (lo, mid)
    return hi


def _sampling_masses(c):
    """Masses Monte-Carlo sampling draws from: Poisson(c) on 0 .. its cut at
    tail _TABLE_TAIL, divided by their sum. Rounding in the masses, whose
    relative error grows with c, lifts that sum past 1 + 1e-12 from about
    c = 10^4, which multinomial refuses."""
    pmf = _poisson_table(c, _poisson_cut(c, _TABLE_TAIL))[1]
    return pmf / math.fsum(pmf)


def _check_tail_eps(tail_eps):
    if not 0.0 < tail_eps < 1.0:
        raise ValueError(f"tail_eps out of range: must be in (0, 1), got {tail_eps!r}")


def _capacity_terms(params, tail_eps):
    """Poisson masses and capacities C_d of one strand's draw count, on
    d = 0 .. d_max, d_max the smallest count whose tail mass is below tail_eps."""
    _check_tail_eps(tail_eps)
    d_max = _poisson_cut(params.c, tail_eps)
    return _poisson_table(params.c, d_max)[1], capacity_table(params.p, d_max)


# ---------------------------------------------------------------------------
# Capacity and per-block capacities

def channel_capacity(params, tail_eps=1e-12):
    """Capacity per stored bit of the pooled-strand channel.

    The Poisson mixture over per-strand draw counts is truncated at the
    smallest count whose tail mass is below tail_eps; since every capacity
    term is at most 1, the result is within tail_eps of the full sum. When
    the indexing cost beta * (1 - e^-c) exceeds the mixture (noisy reads,
    e.g. p near 1/2), no positive rate is achievable and 0.0 is returned.
    """
    pmf, ctab = _capacity_terms(params, tail_eps)
    mixture = float(np.dot(pmf, ctab))
    return max(0.0, mixture - params.beta * (1.0 - math.exp(-params.c)))


def block_capacity(d, p, r_ix):
    """Mean index-gated capacity across the strands of one inner block.

    The block sees its K strands through independent observation channels
    with draw counts d; permuting d leaves the mean unchanged.
    """
    d = _check_draw_vector(d)
    gtab = gated_capacity_table(p, int(d.max()), r_ix)
    return float(gtab[d].mean())


def mean_gated_capacity(params, r_ix, tail_eps=1e-12):
    """Expected index-gated capacity of a single strand's draw count."""
    pmf, ctab = _capacity_terms(params, tail_eps)
    return float(np.dot(pmf, _gate(ctab, _check_index_rate(r_ix))))


# ---------------------------------------------------------------------------
# Draw-count types
#
# A block's gated capacity is the mean of its K strands' gated capacities, so
# it depends only on the histogram of the K draw counts (the block's "type"),
# not on their order. Exact evaluation enumerates types with their
# multinomial weights; Monte-Carlo samples them as multinomial histograms.

def _type_count(d_max, K, cap):
    """Number of draw-count types with total at most d_max, or cap + 1 once
    it passes cap: the partitions of n <= d_max into parts no larger than K,
    with generating function 1 / ((1 - x) prod_{i <= K} (1 - x^i)). Each
    factor 1 / (1 - x^i), a running sum along each residue class mod i, only
    adds partitions, so the count stops as soon as it passes cap."""
    if d_max + 1 > cap:  # every n <= d_max has a partition
        return cap + 1
    counts = np.ones(d_max + 1, dtype=np.int64)  # 1 / (1 - x)
    for i in range(1, min(K, d_max) + 1):
        padded = np.pad(counts, (0, -(d_max + 1) % i)).reshape(-1, i)
        counts = np.minimum(padded.cumsum(axis=0), cap + 1).ravel()[: d_max + 1]
        if counts[-1] > cap:  # the largest entry
            return cap + 1
    return int(counts[-1])


def _fits(d_max, K, cap):
    """Whether the type table below d_max holds at most cap cells."""
    cols = min(K, d_max)
    return cols == 0 or _type_count(d_max, K, cap // cols) <= cap // cols


def _use_exact(params, K, method, tail_eps):
    """Whether `method` evaluates the outer rate exactly: always for "exact",
    and for "auto" while the type table stays within AUTO_EXACT_CELLS."""
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"method must be auto, exact or mc, got {method!r}")
    return method == "exact" or (
        method == "auto" and _fits(_poisson_cut(K * params.c, tail_eps), K, AUTO_EXACT_CELLS)
    )


def _exact_support(params, K, tail_eps):
    """Draw-count types below the tail cut d_max of a block's Poisson(K * c)
    total, their probabilities, the closed-form tail mass beyond d_max, d_max.

    Types are the nondecreasing K-tuples with component sum <= d_max, one
    per histogram; each weighs K! / prod(m_i!) times the product of its
    Poisson masses, m_i the repeats of each draw value. The table holds the
    last min(K, d_max) columns in the smallest unsigned dtype for d_max; the
    z leading zeros before them are implied."""
    d_max = _poisson_cut(K * params.c, tail_eps)
    if not _fits(d_max, K, ENUM_CAP):
        raise EnumerationCapError(
            f"exact enumeration needs more than {ENUM_CAP} type-table cells; "
            "use the Monte-Carlo estimator"
        )
    cols, z = min(K, d_max), max(0, K - d_max)
    types = np.zeros((1, 0), dtype=np.min_scalar_type(d_max))
    total = last = np.zeros(1, dtype=np.int32)  # ENUM_CAP bounds d_max and the rows
    run = np.full(1, float(z))  # length of the run of equal values ending each row
    log_repeats = np.zeros(1)  # log prod(m_i!) / z!, accumulated run by run
    for j in range(cols):
        # the cols - j components still to place are all >= the next value
        n_next = (d_max - total) // (cols - j) - last + 1
        rows = np.repeat(np.arange(len(types), dtype=np.int32), n_next)
        start = np.repeat(np.cumsum(n_next, dtype=np.int32) - n_next, n_next)
        nxt = last[rows] + np.arange(rows.size, dtype=np.int32) - start
        run = np.where(nxt == last[rows], run[rows] + 1.0, 1.0)
        log_repeats = log_repeats[rows] + np.log(run)
        total, last = total[rows] + nxt, nxt
        types = np.column_stack([types[rows], nxt.astype(types.dtype)])
    # log K!/z! as cols logs when z > 0: no lgamma(K+1) - lgamma(z+1) cancellation
    log_coef = math.fsum(np.log(np.arange(z + 1.0, K + 1))) if z else math.lgamma(K + 1)
    log_pmf = _poisson_table(params.c, d_max)[0]
    log_w = log_coef - log_repeats + (_type_means(log_pmf, types, 1) + z * log_pmf[0])
    return types, np.exp(log_w), float(pdtrc(d_max, K * params.c)), d_max


def _type_means(table, types, K):
    """Row sums of table[types] / K, gathered _HIST_CELLS cells at a time. With
    table = gtab these are the gated block capacities: implied zeros add gtab[0] = 0."""
    step = max(1, _HIST_CELLS // max(1, types.shape[1]))
    parts = np.split(types, range(step, len(types), step))
    return np.concatenate([table[t].sum(axis=1) / K for t in parts])


def _type_batches(seed, chunk_index, n, K, pmf):
    """Draw-count histograms of one chunk's n sampled blocks, in row batches.

    Row j counts how many of block j's K i.i.d. draws take each value of the
    tabulated Poisson law; it is one multinomial draw, so the cost is set by
    the table's support, not by K. Batching bounds memory for wide tables and
    leaves the chunk's variate stream unchanged.
    """
    rng = substream(seed, "outer-rate-mc", chunk_index)
    rows = max(1, _HIST_CELLS // pmf.size)
    for start in range(0, n, rows):
        yield rng.multinomial(K, pmf, size=min(rows, n - start))


def _hist_means(h, gtab, K):
    """Gated block capacity of each sampled histogram row."""
    return h @ gtab / K


def _chunk_sizes(samples):
    """Sizes of the MC_CHUNK-sample chunks of a positive sample budget."""
    samples = _check_count(samples, "samples", positive=True)
    return [min(MC_CHUNK, samples - s) for s in range(0, samples, MC_CHUNK)]


# ---------------------------------------------------------------------------
# Achievable outer rate

def achievable_outer_rate_exact(params, scheme, tail_eps=1e-12):
    """Largest supportable outer rate, by exact enumeration of draw-count types.

    Sums the joint Poisson mass of every block type whose gated block
    capacity strictly exceeds r_in, over the finite set of types with
    component sum below the certified tail cut. The neglected mass is
    reported as truncation_mass, never silently dropped.
    """
    _check_tail_eps(tail_eps)
    types, weights, truncation, d_max = _exact_support(params, scheme.K, tail_eps)
    gtab = gated_capacity_table(params.p, d_max, scheme.r_ix)
    value = float(weights[_type_means(gtab, types, scheme.K) > scheme.r_in].sum())
    return RateEstimate(value, 0.0, "exact", 0, truncation)


def achievable_outer_rate_mc(params, scheme, samples, seed=0, threads=1):
    """Monte-Carlo estimate of the largest supportable outer rate.

    Draws `samples` i.i.d. block histograms and returns the fraction whose
    gated block capacity strictly exceeds r_in, with the binomial standard
    error. Each fixed-size chunk of samples owns its own substream of `seed`
    and the integer success counts are combined in chunk order, so the
    estimate is bit-identical for any thread count.
    """
    _check_threads(threads)
    sizes = _chunk_sizes(samples)
    pmf = _sampling_masses(params.c)
    gtab = gated_capacity_table(params.p, len(pmf) - 1, scheme.r_ix)

    def count(ci):
        return sum(
            int((_hist_means(h, gtab, scheme.K) > scheme.r_in).sum())
            for h in _type_batches(seed, ci, sizes[ci], scheme.K, pmf)
        )

    v = sum(_map_chunks(count, len(sizes), threads)) / samples
    stderr = math.sqrt(v * (1.0 - v) / samples)
    return RateEstimate(v, stderr, "monte_carlo", samples, 0.0)


# ---------------------------------------------------------------------------
# Rate algebra

def overall_rate(r_in, r_out, r_ix, beta):
    """Net information rate: outer times inner rate, discounted by the
    per-strand index overhead beta / r_ix."""
    r_ix = _check_index_rate(r_ix)
    if not beta < r_ix:
        raise ValueError(
            f"beta ({beta!r}) must be below r_ix ({r_ix!r}); "
            "the index overhead would consume the whole strand"
        )
    return r_out * r_in * (1.0 - beta / r_ix)


def asymptotic_rate(params, r_ix, tail_eps=1e-12):
    """Overall rate supported in the large-block-size limit at index rate r_ix.

    As K grows, the per-block mean of gated capacities concentrates at its
    expectation, so the inner rate can be set just below it and the outer
    rate approaches 1.
    """
    if not r_ix > params.beta:
        raise ValueError(f"r_ix ({r_ix!r}) must exceed beta ({params.beta!r})")
    mean = mean_gated_capacity(params, r_ix, tail_eps)
    return mean * (1.0 - params.beta / r_ix)


def _check_epsilon(epsilon):
    if not 0.0 < epsilon <= 0.1:
        raise ValueError(f"epsilon must be in (0, 0.1], got {epsilon!r}")


def _index_levels(ctab, beta, epsilon):
    """Index-rate candidates (d, r_ix) of a capacity table C_0 .. C_dmax.

    Only index rates just below a capacity level matter, so the candidates
    are r_ix = (1 - epsilon) * C_d for d >= 1, each run of equal values taken
    at its first d, kept where beta < r_ix < 1.
    """
    d = np.arange(1, len(ctab))
    r_ix = (1.0 - epsilon) * ctab[1:]
    keep = np.r_[True, r_ix[1:] != r_ix[:-1]] & (beta < r_ix) & (r_ix < 1.0)
    return d[keep], r_ix[keep]


def r_max(params, epsilon=1e-3):
    """Maximise the large-K rate over index rates.

    Every capacity level of the Poisson support (tail mass 1e-12) is a
    candidate r_ix = (1 - epsilon) * C_d. C_d never decreases in d, so the
    gate C_d > r_ix keeps the draw counts d >= t, and the candidate's rate is
    the suffix sum of pi_d * C_d from t, times 1 - beta / r_ix; the first
    maximum wins. d_star is that t, which may lie below the candidate's d.
    When no level in the support clears beta, the levels up to d = 1000 are
    tried with zero mass beyond the support, which returns rate 0.0 at the
    first one that does.
    """
    _check_epsilon(epsilon)
    pmf, ctab = _capacity_terms(params, 1e-12)
    _, r_ix = _index_levels(ctab, params.beta, epsilon)
    if r_ix.size == 0:
        ctab = capacity_table(params.p, max(1000, len(ctab) - 1))
        pmf = np.pad(pmf, (0, len(ctab) - len(pmf)))
        _, r_ix = _index_levels(ctab, params.beta, epsilon)
        if r_ix.size == 0:
            raise ValueError("no feasible index-rate candidate above beta")
    suffix = np.append(np.cumsum((pmf * ctab)[::-1])[::-1], 0.0)
    # The running max keeps t the first d with C_d > r_ix through float noise.
    t = np.searchsorted(np.maximum.accumulate(ctab), r_ix, side="right")
    vals = suffix[t] * (1.0 - params.beta / r_ix)
    j = int(np.argmax(vals))
    return RMaxResult(float(vals[j]), int(t[j]), float(r_ix[j]))


def gap_to_capacity(params, epsilon=1e-3, tail_eps=1e-12):
    """Shortfall of the best large-K scheme rate against channel capacity."""
    return channel_capacity(params, tail_eps) - r_max(params, epsilon).r_max


def validate_scheme(params, scheme):
    """Check a scheme against the conditions the decoding analysis needs.

    The rates' own ranges are enforced by SchemeParams; this checks how the
    scheme sits against the channel. Returns a verdict listing every
    violated condition; nothing is raised.
    """
    violations = []
    if not params.beta < scheme.r_ix:
        violations.append(
            f"index overhead: beta ({params.beta}) must be below r_ix ({scheme.r_ix})"
        )
    else:
        margin = (
            scheme.r_in
            * (1.0 - params.beta / scheme.r_ix)
            * (1.0 - binary_entropy(min(2.0 * params.p, 1.0)))
        )
        if not params.beta < margin:
            violations.append(
                "clustering margin: beta must be below "
                f"r_in * (1 - beta/r_ix) * (1 - h(2p)) = {margin:.6f}"
            )
    return SchemeValidation(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Scheme optimisation

def _sample_count_matrix(params, K, samples, seed, threads=1):
    """Per-sample histogram of draw counts, shared across index-rate candidates.

    Row j holds how many of sample j's K draws equal each count value; the
    gated block capacity for any index rate is then a single matrix-vector
    product. The rows are the ones achievable_outer_rate_mc draws from the
    same seed.
    """
    sizes = _chunk_sizes(samples)
    pmf = _sampling_masses(params.c)
    dtype = np.uint16 if K < 65536 else np.uint32
    counts = np.empty((samples, len(pmf)), dtype=dtype)

    def fill(ci):
        row = ci * MC_CHUNK
        for h in _type_batches(seed, ci, sizes[ci], K, pmf):
            counts[row : row + len(h)] = h
            row += len(h)

    _map_chunks(fill, len(sizes), threads)
    return counts


def _best_inner_rate(values, weights, total):
    """Supremum of r * W(V > r) / total over inner rates r, and its W / total.

    W(V > r) is a step function falling at each block value v, so the
    supremum is the largest v * W(V >= v), approached from just below v. The
    reported inner rate is the float below v, where W(V > r) is W(V >= v)
    exactly. Of equal values the first in sorted order has the largest tail.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    tail = np.cumsum(weights[order][::-1])[::-1] / total
    j = int(np.argmax(v * tail))
    return float(np.nextafter(v[j], 0.0)), float(tail[j])


def optimize_scheme(
    params,
    K,
    samples=10_000,
    seed=0,
    method="auto",
    epsilon=1e-3,
    tail_eps=1e-12,
    threads=1,
):
    """Search index and inner rates maximising the overall rate at block size K.

    Index-rate candidates are (1 - epsilon) times every capacity level of the
    draw-count table. The outer rate R_out(r_in), the weight of blocks whose
    gated capacity exceeds r_in, is a step function, so for each candidate
    the supremum of r_in * R_out(r_in) is the largest v * W(V >= v) over
    block values v, with r_in the float just below v. It is at most the mean
    E_W[V] (Markov), so a candidate whose mean cannot beat the best so far is
    skipped; the result is the first maximum of a full scan. The table is
    every draw-count type where _use_exact allows, else Monte-Carlo block
    histograms with the given budget and seed, shared by all candidates; the
    reported outer rate is what the matching estimator returns.
    """
    _check_count(K, "K", positive=True)
    _check_threads(threads)
    _check_tail_eps(tail_eps)
    _check_epsilon(epsilon)
    use_exact = _use_exact(params, K, method, tail_eps)
    if use_exact:
        types, weights, truncation, d_max_tab = _exact_support(params, K, tail_eps)
        total = 1.0
        # Weighted count of each stored draw value (implied zeros weigh gtab[0] = 0).
        mean_hist = sum(np.bincount(col, weights, d_max_tab + 1) for col in types.T)
    else:
        counts = _sample_count_matrix(params, K, samples, seed, threads)
        d_max_tab = counts.shape[1] - 1
        weights, total = np.ones(samples), samples
        mean_hist = counts.sum(axis=0) / samples

    ctab = capacity_table(params.p, d_max_tab)
    best = None  # (overall, d0, r_ix, r_in, r_out)
    for d0, r_ix in zip(*_index_levels(ctab, params.beta, epsilon)):
        gtab = _gate(ctab, r_ix)
        gain = 1.0 - params.beta / r_ix
        if best is not None and mean_hist @ gtab / K * gain * (1.0 + 1e-12) < best[0]:
            continue
        values = _type_means(gtab, types, K) if use_exact else _hist_means(counts, gtab, K)
        r_in, r_out = _best_inner_rate(values, weights, total)
        val = r_in * r_out * gain
        if best is None or val > best[0]:
            best = (val, int(d0), float(r_ix), r_in, r_out)

    if best is None or best[0] <= 0.0:
        raise ValueError("no scheme with positive rate exists for these parameters")

    overall, d0, r_ix, r_in, r_out = best
    if use_exact:
        rate = RateEstimate(r_out, 0.0, "exact", 0, truncation)
    else:
        stderr = math.sqrt(r_out * (1.0 - r_out) / samples)
        rate = RateEstimate(r_out, stderr, "monte_carlo", samples, 0.0)
    scheme = SchemeParams(K, r_ix, r_in, r_out)
    return OptimizeResult(scheme, rate, overall, d0)
