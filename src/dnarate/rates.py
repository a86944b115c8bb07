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

# multi_draw_capacity is not called here, but bench/tracer.py wraps this
# module's binding of it along with the two table functions.
from .multidraw import (  # noqa: F401
    _bhattacharyya_depth,
    _check_count,
    _check_draw_vector,
    _check_index_overhead,
    _check_reading_rate,
    _check_unit,
    _gate,
    _log_poisson_pmf,
    _mixture,
    _saturation,
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
# Table cells handled at once: histogram cells drawn within an MC chunk (for
# multinomial rows only tables wider than 64 entries, c above 18, split a
# chunk), or type-table cells built, weighed or gathered.
_HIST_CELLS = 1 << 22
# Uniforms an alias-table MC batch draws at most, for the estimator's block
# values and the optimiser's histograms alike. At 2^16 (1.6 MB of
# temporaries) a batch runs as fast as larger ones, and malloc keeps less of
# the freed batches resident in the worker threads' arenas: at 2^18 the
# analysis benchmark's peak RSS rose from 303 to 314-320 MB.
_ALIAS_DRAWS = 1 << 16
# Bytes each of those draws holds at once, at most: the uniform, its slot and
# the slot's threshold (8 each), and the mask. Once the uniform is freed, the
# slot and either the float64 block value gathered for it or its int64 cell
# take 16.
_ALIAS_DRAW_BYTES = 25
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
        _check_unit(self.beta, "beta")
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
        _check_unit(self.r_ix, "r_ix")
        _check_unit(self.r_in, "r_in")
        _check_unit(self.r_out, "r_out", "(]")

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
    rate path reads: the saddle-point log masses multidraw.poisson_pmf uses,
    so each mass matches it bit for bit. The cache is bounded, as sweeps over
    c, K or tail_eps each ask for new tables."""
    log_pmf = _log_poisson_pmf(float(c), np.arange(d_max + 1))
    return log_pmf, np.fromiter(map(math.exp, log_pmf.tolist()), float, d_max + 1)


# Bits of margin below the tail that _poisson_tail_cut's window leaves out.
_WINDOW_BITS = 64


@lru_cache(maxsize=1024)
def _poisson_tail_cut(lam, tail):
    """(d, P(X > d)) for X ~ Poisson(lam), d the smallest count whose tail is
    below `tail`, the tail a reverse running sum of the saddle-point masses.

    The sum runs over a window [lo, hi] around lam. By the Chernoff bound
    P(X >= k) <= exp(-bd0(k, lam)) above lam, and its mirror below, each
    side of it holds less than tail * 2^-64: its ends come from
    bd0(lam + x, lam) >= x^2 / (2 (lam + x/3)) and
    bd0(lam - x, lam) >= x^2 / (2 lam), so it spans
    O(sqrt(lam log(1/tail))) counts. As P(X > lo - 1) >= 1 - tail * 2^-64
    > tail, the cut lies in the window. The map is pure and every sweep
    asks for the same cuts again, so it is memoised; an entry is two numbers.
    """
    t = _WINDOW_BITS * math.log(2.0) - math.log(tail)
    lo = max(0, math.floor(lam - math.sqrt(2.0 * lam * t)))
    hi = math.ceil(lam + t / 3.0 + math.sqrt(t * t / 9.0 + 2.0 * lam * t))
    mass = np.exp(_log_poisson_pmf(float(lam), np.arange(lo, hi + 1)))
    # above[i] = P(X > lo + i - 1); it never rises, as the masses are >= 0
    above = np.append(np.cumsum(mass[::-1])[::-1], 0.0)
    i = max(1, int(np.count_nonzero(above >= tail)))
    return lo + i - 1, float(above[i])


def _poisson_cut(lam, tail):
    """Smallest d whose Poisson(lam) tail P(X > d) is below tail."""
    return _poisson_tail_cut(lam, tail)[0]


def _cut_floor(lam, tail):
    """A lower bound on _poisson_cut(lam, tail) that builds no window: as
    P(X <= lam - x) <= exp(-x^2 / 2 lam), the cut lies above
    lam - sqrt(2 lam (-log(1 - tail)))."""
    return max(0, math.floor(lam - math.sqrt(2.0 * lam * -math.log1p(-tail))))


def _sampling_masses(c):
    """Masses Monte-Carlo sampling draws from: Poisson(c) on 0 .. its cut at
    tail _TABLE_TAIL. They sum to within a few 1e-16 of 1 - the tail, well
    inside the 1 + 1e-12 that multinomial accepts; the tail's share falls to
    the last cell."""
    return _poisson_table(c, _poisson_cut(c, _TABLE_TAIL))[1]


def _capacity_terms(params, tail_eps):
    """Poisson masses and capacities C_d of one strand's draw count, on
    d = 0 .. d_max, d_max the smallest count whose tail mass is below tail_eps."""
    _check_unit(tail_eps, "tail_eps")
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
    mixture = _mixture(pmf, ctab)
    return max(0.0, mixture - params.beta * (1.0 - math.exp(-params.c)))


def block_capacity(d, p, r_ix):
    """Mean index-gated capacity across the strands of one inner block.

    The block sees its K strands through independent observation channels
    with draw counts d; summed on _block_grid, the mean is the same bits in
    every order, in the estimators and in the decoder.
    """
    d = _check_draw_vector(d)
    return float(_draw_means(d[None], check_crossover(p), r_ix)[0])


def mean_gated_capacity(params, r_ix, tail_eps=1e-12):
    """Expected index-gated capacity of a single strand's draw count."""
    pmf, ctab = _capacity_terms(params, tail_eps)
    return _mixture(pmf, _gate(ctab, _check_unit(r_ix, "r_ix")))


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


@lru_cache(maxsize=1024)
def _fits(d_max, K, cap):
    """Whether the type table below d_max holds at most cap cells. Memoised:
    every estimate asks it twice, at the cut and at its lower bound."""
    cols = min(K, d_max)
    return cols == 0 or _type_count(d_max, K, cap // cols) <= cap // cols


def _block_cut(params, K, tail_eps, cap):
    """(d_max, P(X > d_max)) of a block's Poisson(K * c) total X, or None
    when the type table below d_max would pass cap cells. A K * c far past
    the cap is refused by _cut_floor before any window is built."""
    lam = K * params.c
    if not _fits(_cut_floor(lam, tail_eps), K, cap):
        return None
    cut = _poisson_tail_cut(lam, tail_eps)
    return cut if _fits(cut[0], K, cap) else None


def _use_exact(params, K, method, tail_eps):
    """Whether `method` evaluates the outer rate exactly: always for "exact",
    and for "auto" while the type table stays within AUTO_EXACT_CELLS."""
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"method must be auto, exact or mc, got {method!r}")
    return method == "exact" or (
        method == "auto" and _block_cut(params, K, tail_eps, AUTO_EXACT_CELLS) is not None
    )


def _exact_support(params, K, tail_eps):
    """Draw-count types below the tail cut d_max of a block's Poisson(K * c)
    total, their probabilities, the tail mass beyond d_max, d_max.

    Types are the nondecreasing K-tuples with component sum <= d_max, one
    per histogram; each weighs K! / prod(m_i!) times the product of its
    Poisson masses, m_i the repeats of each draw value. The table holds the
    last min(K, d_max) columns in the smallest unsigned dtype for d_max; the
    z leading zeros before them are implied."""
    cut = _block_cut(params, K, tail_eps, ENUM_CAP)
    if cut is None:
        raise EnumerationCapError(
            f"exact enumeration needs more than {ENUM_CAP} type-table cells; "
            "use the Monte-Carlo estimator"
        )
    d_max, truncation = cut
    cols, z = min(K, d_max), max(0, K - d_max)
    types = np.zeros((1, 0), dtype=np.min_scalar_type(d_max))
    # Parents per block: each has at most d_max + 1 children, so a block's new
    # rows hold at most _HIST_CELLS cells and the temporaries stay bounded.
    step = max(1, _HIST_CELLS // ((d_max + 1) * max(1, cols)))
    for j in range(cols):
        last = types[:, -1] if j else np.zeros(1, dtype=types.dtype)
        # the cols - j components still to place are all >= the next value
        n_next = (d_max - types.sum(axis=1, dtype=np.int32)) // (cols - j) - last + 1
        start = np.cumsum(n_next) - n_next  # first new row of each parent
        grown = np.empty((int(start[-1] + n_next[-1]), j + 1), dtype=types.dtype)
        for p0 in range(0, len(types), step):
            n = n_next[p0 : p0 + step]
            rows = np.repeat(np.arange(p0, p0 + n.size), n)
            block = slice(start[p0], start[p0] + rows.size)
            grown[block, :j] = types[rows]
            grown[block, j] = last[rows] + np.arange(start[p0], block.stop) - start[rows]
        types = grown
    # log K!/z! as cols logs when z > 0: no lgamma(K+1) - lgamma(z+1) cancellation
    log_coef = math.fsum(np.log(np.arange(z + 1.0, K + 1))) if z else math.lgamma(K + 1)
    log_pmf = _poisson_table(params.c, d_max)[0]
    weights = np.empty(len(types))
    for b in _row_blocks(types):
        t = types[b]
        run = np.full(len(t), float(z))  # length of the run of equal values ending at col
        log_repeats = np.zeros(len(t))  # log prod(m_i!) / z!, accumulated run by run
        prev = 0  # the z implied zeros precede the first column
        for col in t.T:
            run = np.where(col == prev, run + 1.0, 1.0)
            log_repeats += np.log(run)
            prev = col
        weights[b] = np.exp(log_coef - log_repeats + (log_pmf[t].sum(axis=1) + z * log_pmf[0]))
    return types, weights, truncation, d_max


def _row_blocks(types):
    """Slices of the type table's rows, _HIST_CELLS cells or fewer each."""
    step = max(1, _HIST_CELLS // max(1, types.shape[1]))
    return [slice(r, r + step) for r in range(0, len(types), step)]


def _block_grid(gtab, K):
    """gtab floored to multiples of 2^-s, s = 53 - ceil(log2 K), each entry by
    less than 2^-s. A sum of K such entries, at most K <= 2^(53-s), is exact."""
    s = 53 - int(K - 1).bit_length()
    return np.ldexp(np.floor(np.ldexp(gtab, s)), -s)


def _type_means(gtab, types, K):
    """Gated block capacities of the rows of draw counts `types`, summed on
    _block_grid one row block at a time. Implied zeros add gtab[0] = 0."""
    grid = _block_grid(gtab, K)
    means = np.empty(len(types))
    for b in _row_blocks(types):
        means[b] = grid[types[b]].sum(axis=1) / K
    return means


def _draw_means(rows, p, r_ix):
    """_type_means of rows of observed draw counts, K per row, each count
    clipped at S(p), past which every level is 1.0, so that the gated table
    runs only up to the top clipped count."""
    top = min(int(rows.max()), _saturation(p))
    gtab = gated_capacity_table(p, top, r_ix)
    return _type_means(gtab, np.minimum(rows, top), rows.shape[1])


@lru_cache(maxsize=32)
def _alias_table(masses):
    """Walker's alias table (ACM TOMS 1977) of the law Generator.multinomial
    draws from the float64 pmf whose bytes are `masses`: each cell's mass,
    but the last cell takes the leftover 1 - sum of the others.

    Returned as (top, cells): a uniform x in [0, W) lands in j = floor(x)
    and takes cell cells[2j] = j when x < top[j], else cells[2j + 1], j's
    alias. Vose's O(W) construction (IEEE TSE 1991), memoised per sampling
    table; the cache is bounded like _poisson_table's."""
    q = np.frombuffer(masses).copy()
    q[-1] = max(0.0, 1.0 - math.fsum(q[:-1]))
    W = q.size
    scaled = (q * W).tolist()
    keep, alias = [1.0] * W, list(range(W))
    small = [j for j in range(W) if scaled[j] < 1.0]
    large = [j for j in range(W) if scaled[j] >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        keep[lo], alias[lo] = scaled[lo], hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    top = np.arange(W) + np.array(keep)
    cells = np.stack([np.arange(W), np.array(alias)], axis=1).ravel()
    top.flags.writeable = cells.flags.writeable = False
    return top, cells


def _alias_slots(rng, top, K, rows):
    """(rows, K) slots of K alias-table draws each: one uniform per draw, read
    in row order, so consecutive calls continue one stream. Slot 2j is cell j
    and slot 2j + 1 its alias, so cells[slot] is the drawn cell, and a
    per-cell table gathered at cells is read at the slots in one gather.
    `top` holds the thresholds of _alias_table."""
    W = top.size
    x = rng.random((rows, K))
    x *= W
    slots = x.astype(np.intp)
    moves = x >= top[slots]
    del x
    slots <<= 1
    slots += moves  # one gather picks j or its alias, with no branch per draw
    return slots


def _alias_rows(K, pmf):
    """Whether the estimator draws blocks of K draws from pmf faster as
    alias-table rows than as multinomial rows.

    An alias row costs its K draws. A multinomial row draws one binomial for
    each cell it visits, 1 + sum over d < W - 1 of (1 - F(d)^K) of them, F
    the table's CDF. Where K times a cell's mass passes 30, numpy draws that
    binomial by BTPE, at an extra set-up; elsewhere by inversion, one step
    per draw it places. In units of one alias draw, the costs fitted on the
    estimator's time per chunk (c from 0.5 to 100, K up to 2000, in
    BENCH_26.json) are 4.6 a visited cell, 1.3 an inversion step and 10 a
    BTPE cell, and 4 more for a multinomial row.
    """
    F = np.cumsum(pmf[:-1])
    visited = 1.0 + float(np.sum(1.0 - F**K))
    btpe = K * pmf > 30.0
    steps = K * float(pmf[~btpe].sum())
    return K < 4.0 + 4.6 * visited + 1.3 * steps + 10.0 * int(btpe.sum())


def _drawn_batches(seed, chunk_index, n, K, pmf):
    """One chunk's n sampled blocks, in row batches, as (cells, batch).

    Every row is K i.i.d. draws from the tabulated Poisson law of width W,
    the leftover mass in the last cell, as multinomial(K, pmf) draws them.
    _alias_rows picks the sampler for the whole chunk. An alias batch is the
    (rows, K) slots of _alias_slots, with the table's cells; a multinomial
    batch is the (rows, W) int64 histograms of Generator.multinomial, bit
    for bit those of earlier versions, with cells None.

    A multinomial batch holds at most _HIST_CELLS cells; an alias batch
    draws at most _ALIAS_DRAWS uniforms, and so few that their temporaries,
    _ALIAS_DRAW_BYTES each, take no more memory than the multinomial batch's
    int64 cells. Batching leaves the chunk's variate stream unchanged.
    """
    rng = substream(seed, "outer-rate-mc", chunk_index)
    W = pmf.size
    rows = min(n, max(1, _HIST_CELLS // W))
    if not _alias_rows(K, pmf):
        for start in range(0, n, rows):
            yield None, rng.multinomial(K, pmf, size=min(rows, n - start))
        return
    top, cells = _alias_table(pmf.tobytes())
    draws = min(_ALIAS_DRAWS, rows * W * 8 // _ALIAS_DRAW_BYTES)
    rows = max(1, min(rows, draws // K))
    for start in range(0, n, rows):
        yield cells, _alias_slots(rng, top, K, min(rows, n - start))


def _type_batches(seed, chunk_index, n, K, pmf):
    """Draw-count histograms of one chunk's n sampled blocks, in the row
    batches of _drawn_batches: row j counts how many of block j's K draws
    take each value of the table. Alias slots are counted with bincount."""
    W = pmf.size
    for cells, batch in _drawn_batches(seed, chunk_index, n, K, pmf):
        if cells is not None:
            rows = len(batch)
            batch = cells[batch]
            batch += np.arange(0, rows * W, W)[:, None]  # row r counts into r*W + cell
            batch = np.bincount(batch.ravel(), minlength=rows * W).reshape(rows, W)
        yield batch


def _block_values(seed, chunk_index, n, K, pmf, gtab):
    """Gated block capacities of one chunk's n sampled blocks, in the row
    batches of _drawn_batches, with no histogram of alias rows: a row's K
    slots index gtab[cells], and _type_means sums them. Every K-term sum on
    _block_grid is exact, so a row's value is the bits _hist_means gives its
    histogram."""
    for cells, batch in _drawn_batches(seed, chunk_index, n, K, pmf):
        yield _hist_means(batch, gtab, K) if cells is None else _type_means(gtab[cells], batch, K)


def _hist_means(h, gtab, K):
    """Gated block capacity of each sampled histogram row.

    On _block_grid every product and sum is exact, so a row's value is the
    bits _type_means gives its draw counts, whatever its dtype or the rows
    around it. einsum without `optimize` makes no BLAS call that starts its
    own thread pool under the MC worker threads.
    """
    return np.einsum("ij,j->i", h, _block_grid(gtab, K)) / K


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
    _check_unit(tail_eps, "tail_eps")
    types, weights, truncation, d_max = _exact_support(params, scheme.K, tail_eps)
    gtab = gated_capacity_table(params.p, d_max, scheme.r_ix)
    value = _winners_weight(types, weights, gtab, scheme.K, scheme.r_in)
    return RateEstimate(value, 0.0, "exact", 0, truncation)


def _winners_weight(types, weights, gtab, K, r_in):
    """Total weight of the types whose gated block capacity exceeds r_in. The
    winners' weights are moved in order to the front of `weights`, which is
    overwritten, block by block: the sum of weights[means > r_in] without a
    full-length copy."""
    won = 0
    for b in _row_blocks(types):
        w = weights[b][_type_means(gtab, types[b], K) > r_in]
        weights[won : won + w.size] = w
        won += w.size
    return float(weights[:won].sum())


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
            int((v > scheme.r_in).sum())
            for v in _block_values(seed, ci, sizes[ci], scheme.K, pmf, gtab)
        )

    v = sum(_map_chunks(count, len(sizes), threads)) / samples
    stderr = math.sqrt(v * (1.0 - v) / samples)
    return RateEstimate(v, stderr, "monte_carlo", samples, 0.0)


# ---------------------------------------------------------------------------
# Rate algebra

def overall_rate(r_in, r_out, r_ix, beta):
    """Net information rate: outer times inner rate, discounted by the
    per-strand index overhead beta / r_ix. r_in is a code rate, in (0, 1)
    as in SchemeParams; r_out is an achieved outer rate, in [0, 1]."""
    r_in, r_out = _check_unit(r_in, "r_in"), _check_unit(r_out, "r_out", "[]")
    r_ix = _check_index_overhead(beta, r_ix)
    return r_out * r_in * (1.0 - beta / r_ix)


def asymptotic_rate(params, r_ix, tail_eps=1e-12):
    """Overall rate supported in the large-block-size limit at index rate r_ix.

    As K grows, the per-block mean of gated capacities concentrates at its
    expectation, so the inner rate can be set just below it and the outer
    rate approaches 1.
    """
    r_ix = _check_index_overhead(params.beta, r_ix)
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
    When no level in the support clears beta, the levels beyond it are
    tried with zero mass, which returns rate 0.0 at the first one that does.
    They end where a level is sure to: at the first d whose Bhattacharyya
    bound puts C_d above beta / (1 - epsilon) (see _bhattacharyya_depth), at
    most S(p), where C_d = 1.0. Only p = 1/2, or beta >= 1 - epsilon, has no
    candidate.
    """
    _check_epsilon(epsilon)
    pmf, ctab = _capacity_terms(params, 1e-12)
    _, r_ix = _index_levels(ctab, params.beta, epsilon)
    if r_ix.size == 0 and params.beta < 1.0 - epsilon and params.p != 0.5:
        slack = 1.0 - params.beta / (1.0 - epsilon)
        d_end = min(_bhattacharyya_depth(params.p, slack), _saturation(params.p))
        ctab = capacity_table(params.p, max(d_end, len(ctab) - 1))
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


def gap_to_capacity(params, epsilon=1e-3):
    """Shortfall of the best large-K scheme rate against channel capacity,
    both with the Poisson support r_max uses (tail mass 1e-12)."""
    return channel_capacity(params) - r_max(params, epsilon).r_max


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
    gated block capacity for any index rate is then one _hist_means pass. The
    rows are the ones achievable_outer_rate_mc draws from the same seed.
    """
    sizes = _chunk_sizes(samples)
    pmf = _sampling_masses(params.c)
    counts = np.empty((samples, len(pmf)), dtype=np.min_scalar_type(K))

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
    supremum is the largest v * W(V >= v), approached from just below v. Of
    equal values the first in sorted order has the largest tail. The
    reported inner rate is the float just below v: every path computes a
    block's value in the same bits, so the blocks of value v decode there.
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
    block values v; r_in is reported one float below v. The supremum is at
    most the mean E_W[V] (Markov), so a candidate whose mean cannot beat the
    best so far is skipped; the result is the first maximum of a full scan.
    The table is every draw-count type where _use_exact allows, else
    Monte-Carlo block histograms with the given budget and seed, shared by
    all candidates. The reported outer rate is what the matching estimator
    returns for the chosen scheme, bit for bit: the exact one is summed again
    by the estimator's own pass, as the sorted tail sums in another order.
    The overall rate is the scheme's, from that outer rate.
    """
    _check_count(K, "K", positive=True)
    _check_count(samples, "samples", positive=True)
    _check_threads(threads)
    _check_unit(tail_eps, "tail_eps")
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
        if best is not None and _mixture(mean_hist, gtab) / K * gain * (1.0 + 1e-12) < best[0]:
            continue
        values = _type_means(gtab, types, K) if use_exact else _hist_means(counts, gtab, K)
        r_in, r_out = _best_inner_rate(values, weights, total)
        val = r_in * r_out * gain
        if best is None or val > best[0]:
            best = (float(val), int(d0), float(r_ix), r_in, r_out)

    if best is None or best[0] <= 0.0:
        raise ValueError("no scheme with positive rate exists for these parameters")

    _, d0, r_ix, r_in, r_out = best
    if use_exact:
        r_out = _winners_weight(types, weights, _gate(ctab, r_ix), K, r_in)
        rate = RateEstimate(r_out, 0.0, "exact", 0, truncation)
    else:
        stderr = math.sqrt(r_out * (1.0 - r_out) / samples)
        rate = RateEstimate(r_out, stderr, "monte_carlo", samples, 0.0)
    scheme = SchemeParams(K, r_ix, r_in, r_out)
    return OptimizeResult(scheme, rate, scheme.overall(params.beta), d0)
