"""Four-stage decoder at desk scale.

Reads are greedily grouped into clusters of bounded diameter, clusters are
index-decoded by an oracle that succeeds exactly when the cluster is clean
and its size carries the index rate, inner blocks are decoded or erased by
comparing their gated block capacity with the inner rate, and the outer code
succeeds when erasures plus twice the errors fit its redundancy. The oracle
decoders stand in for capacity-achieving codes: they isolate the behaviour of
the channel and the scheme thresholds without constructing codebooks.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import InstanceDims, random_pool, simulate_channel
from .multidraw import (_check_block_size, _check_count, _check_draw_vector, _check_unit,
                        gated_capacity_table)
from .rates import _draw_means, validate_scheme
from .seeding import _check_threads, _map_chunks, derive_seed

__all__ = [
    "ClusteringConfig",
    "Cluster",
    "Clustering",
    "DecodeReport",
    "IndexDecodeResult",
    "InnerDecodeResult",
    "PipelineResult",
    "BudgetError",
    "greedy_cluster",
    "count_wrong_clusters",
    "oracle_index_decode",
    "oracle_inner_decode",
    "outer_success",
    "decode",
    "run_pipeline",
    "DEFAULT_DISTANCE_BUDGET",
]

# Clustering work cap, in scan words (the time the blocked scan takes to sum
# one 64-bit word for one pair): the work of the pair source greedy_cluster
# picks for the U distinct reads, U(U - 1)/2 * prefix for the scan or the
# field collisions times their price for the index. Left out: the field
# sorts, the walk's member passes and the scan's finishes; at wide
# diameters, where prefix = W, those are at most about the counted work
# again. At the noisy point (c = 2, p = 0.1, rho = 0.3), 2^34 admits
# M = 32,768 (8.6e9 words; 3.3 s a trial on one core of an Intel Xeon, numpy
# 2.4) and M = 46,000 (1.7e10 words; 7.7 s), and refuses M = 65,536 (3.4e10).
DEFAULT_DISTANCE_BUDGET = 2.0**34
# Bytes a pipeline instance may draw, checked before the first draw: the
# pool's unpacked bits (M * L, the largest array), then the packed reads,
# origins and flip counts (N * (ceil(L / 8) + 16)).
_INSTANCE_BYTES = 2**29


class BudgetError(RuntimeError):
    """Requested simulation exceeds the clustering work or instance byte budget."""


def _check_rho(rho):
    """Validate a clustering diameter fraction; must lie in (0, 1]. A fraction
    of 1, the whole strand, is the only one-bit diameter at L = 1."""
    return _check_unit(rho, "rho", "(]")


@dataclass(frozen=True)
class ClusteringConfig:
    """Clustering diameter as a fraction of the strand length.

    When rho is not given it defaults to 2p + epsilon_prime: two reads of the
    same strand differ in about 2p(1-p)L bits, so that diameter keeps
    same-origin reads together with room to spare.
    """

    rho: float | None = None
    epsilon_prime: float = 0.05

    def resolve(self, p):
        """Diameter fraction for a channel with flip probability p."""
        return _check_rho(self.rho if self.rho is not None else 2.0 * p + self.epsilon_prime)

    def resolved(self, p):
        """Copy of this config with rho pinned for flip probability p."""
        return ClusteringConfig(rho=self.resolve(p), epsilon_prime=self.epsilon_prime)


@dataclass(frozen=True)
class Cluster:
    """One group of read indices, kept in ascending read order."""

    members: tuple

    @property
    def size(self):
        return len(self.members)


class Clustering:
    """The clusters of a read set as two read-only int64 arrays: `sizes`, one
    per cluster in order, and `members`, every cluster's read indices one
    cluster after another.

    The stage functions read the arrays. Iterating builds each Cluster
    (members as Python ints) as it is reached; `list(clustering)` gives them
    all. Two Clusterings are equal when their arrays are.
    """

    __slots__ = ("sizes", "members")

    def __init__(self, sizes, members):
        sizes, members = _index_array(sizes, "sizes"), _index_array(members, "members")
        if (sizes < 0).any() or sizes.sum() != members.size:
            raise ValueError(f"cluster sizes must be non-negative and sum to the "
                             f"{members.size} members, got sum {sizes.sum()}")
        sizes.flags.writeable = members.flags.writeable = False
        self.sizes, self.members = sizes, members

    def __len__(self):
        return self.sizes.size

    def __iter__(self):
        flat, ends = self.members.tolist(), np.cumsum(self.sizes).tolist()
        for start, end in zip([0, *ends], ends):
            yield Cluster(members=tuple(flat[start:end]))

    def __eq__(self, other):
        if not isinstance(other, Clustering):
            return NotImplemented
        return (np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.members, other.members))

    def __repr__(self):
        return f"Clustering({len(self)} clusters of {self.members.size} reads)"


def _index_array(values, name):
    """A fresh int64 copy of a one-dimensional array of integers."""
    values = np.asarray(values)
    if values.ndim != 1 or (values.size and values.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a one-dimensional array of integers")
    return values.astype(np.int64)


@dataclass(frozen=True)
class DecodeReport:
    """Counters of one pipeline trial.

    erasures and errors are in outer-symbol (strand) units: an erased block
    contributes K erasures and every wrong cluster or wrongly decoded index
    can corrupt up to two blocks, hence 2K symbols each.
    """

    m_wrong_clusters: int
    m_wrong_index: int
    m_wrong_inner: int
    erasures: int
    errors: int
    outer_success: bool


@dataclass(frozen=True)
class IndexDecodeResult:
    """Outcome of oracle index decoding.

    draws[i] is the size of the cluster assigned to strand i (0 when no
    cluster claimed it); assignments maps cluster position in the input
    Clustering to the decoded strand index.
    """

    draws: np.ndarray
    assignments: dict
    m_wrong_index: int


@dataclass(frozen=True)
class InnerDecodeResult:
    """Outcome of oracle inner decoding plus the erasure/error accounting."""

    decoded: np.ndarray  # per-block booleans
    erasures: int  # outer symbols
    errors: int  # outer symbols
    m_wrong_inner: int


@dataclass(frozen=True)
class PipelineResult:
    reports: tuple
    success_rate: float


# Seeds per blocked distance pass.
_SEED_BLOCK = 64
# Candidate lists up to this size are walked on Python integers; longer ones
# take one numpy pass per member until they are this short.
_LIST_WALK = 32
# Widest pigeonhole field: with the padding gap of a partial last byte
# inside it, it still spans at most 64 bits, one shift of a two-word window.
_FIELD_BITS = 57
# Checking one field collision of reads of W 64-bit words takes about as
# long as the blocked scan summing a + b W words, at most c (see
# greedy_cluster).
_COLLISION_COST = (-100, 125, 320)


def greedy_cluster(output, config):
    """Group reads into maximal clusters of diameter at most rho*L, returned
    as a Clustering: clusters in seed order, members ascending. The stage
    functions read its arrays, so a trial builds no Cluster object.

    The rule: in read-index order, the first unassigned read seeds a cluster,
    and every later unassigned read joins iff its distance to every current
    member is within the diameter. Because members only accumulate, a read
    rejected once can never join later, so a single ordered pass per cluster
    reaches the fixpoint. Every read ends up in exactly one cluster.

    Identical reads always share a cluster, so the rule runs on the distinct
    reads only, each standing at its first copy. Take reads r1 < r2 with the
    same bits. A cluster that rejects r1 keeps the member that rejected it,
    so it rejects r2 as well. Once r1 seeds or joins a cluster, every later
    member is within the diameter of r1, hence of r2, and d(r1, r2) = 0; so
    r2 joins r1's cluster. The first unassigned read is therefore always the
    first copy of some distinct value, and the clusters of the distinct reads
    in first-occurrence order, each read taking its first copy's cluster, are
    the rule's clusters.

    A seed's candidates are its near reads: the pending reads within
    t = floor(rho*L) bits of it. Two exact sources list them, and one walk
    turns them into clusters (see _walk).
    - The pigeonhole index cuts the L bits into t + 1 disjoint fields of
      floor(L / (t + 1)) bits or one more, at most 57 (see _fields). Two
      reads within t bits agree on at least one field, so every near pair
      shares a field value. Each pair that does is kept only after its
      distance is checked.
    - The blocked scan computes each seed's distance to every later pending
      read, word by word. Once a word prefix puts a pair past t bits, the
      rest cannot bring it back, so only the pairs still within t after the
      prefix get the rest. The prefix is the fewest words w < W over which
      two unrelated reads differ by at least 2.5 standard deviations more
      than t bits on average: 32w - t >= 2.5 * 4 sqrt(w) (see _scan_words).
      So at most about 0.6% of unrelated pairs survive it, where a prefix
      that only just puts the mean past t would keep about half of them.
      At L = 240 and t = 72, three words of four; at L = 960 and t = 60,
      three of fifteen.
    The rule between them prices both in scan words, the time the scan
    takes to sum one 64-bit word for one pair: over the U distinct reads,
    U(U - 1)/2 * prefix for the scan. One field collision takes about as
    long to check as min(125 W - 100, 320) words (numpy 2.4 on x86-64). The
    line is fitted on the crossovers of c = 2 reads for W = 1 to 15; the
    cap holds because counted collisions cost 200 to 330 words each for
    W = 4 to 15, c = 2 to 4 and p = 0.01 to 0.05. Random reads would have
    U(U - 1)/2 * sum(2^-width) collisions; if that prices the index above
    the scan, no field is sorted (at L = 240, for t > 17). Otherwise the
    collisions are counted while the fields are sorted, before any pair is
    built, and the index is taken iff the count keeps it at most the scan.
    If the chosen source's work passes DEFAULT_DISTANCE_BUDGET, BudgetError
    is raised before any pair list or scan buffer exists. So the clean bench
    point (t = 12 of 240 bits, thirteen fields of 18 or 19 bits: about 300
    collisions, 9e4 words against the scan's 7.5e6) takes the index, and
    the noisy one (t = 72) the scan without sorting a field.
    """
    if config.rho is None:
        raise ValueError(
            "ClusteringConfig.rho is unset; pin it with resolved(p) or pass rho"
        )
    threshold = _check_rho(config.rho) * output.length
    if threshold < 1.0:
        raise ValueError(f"clustering diameter rho*L = {threshold} is below one bit")
    t = int(threshold)  # distances are whole bits
    n, width = output.reads.shape
    padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = output.reads
    keys = padded.view(np.dtype((np.void, padded.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct reads in first-occurrence order
    span = np.min_scalar_type(8 * width)  # holds any distance, padding included
    labels = np.empty(first.size, dtype=np.int64)  # per distinct read
    labels[order] = _greedy_labels(padded.view(np.uint64)[first[order]], t, span, output.length)
    labels = labels[inverse]  # per read
    # Stable by label: members ascending, clusters in seed order.
    return Clustering(np.bincount(labels), np.argsort(labels, kind="stable"))


def _greedy_labels(rows, t, span, length):
    """Cluster label of each read under the greedy rule with diameter t bits;
    clusters are numbered in seed order. rows holds one read of `length` bits
    per row as 64-bit words, padding bits zero; span is an unsigned dtype
    that holds any distance. Raises BudgetError when the cheaper pair
    source's work (see greedy_cluster) passes DEFAULT_DISTANCE_BUDGET."""
    n, words = rows.shape
    assigned = bytearray(n)
    prefix = _scan_words(t, words)
    scan = n * (n - 1) / 2 * prefix
    index, groups = _index_work(rows, t, length, min(scan, DEFAULT_DISTANCE_BUDGET))
    source, work = ("index", index) if index <= scan else ("scan", scan)
    if work > DEFAULT_DISTANCE_BUDGET:
        raise BudgetError(f"clustering {n:,} distinct reads by the {source} takes {work:,.0f} "
                          f"scan words, over the budget of {DEFAULT_DISTANCE_BUDGET:,.0f}")
    if source == "scan":
        seeds = _scanned_seeds(rows, t, span, assigned, prefix)
    else:
        seeds = _listed_seeds(_indexed_pairs(rows, t, groups), assigned)
    roots = np.array(_walk(rows, t, span, seeds, assigned), dtype=np.int64)
    seeded = roots == np.arange(roots.size)  # a seed is its own cluster's root
    return (np.cumsum(seeded) - 1)[roots]


def _walk(rows, t, span, seeds, assigned):
    """The greedy walk both pair sources share: the seed of each read's
    cluster.

    `seeds` yields seeds of the rule in order, each with its near reads in
    ascending order, as a list or an array; an earlier cluster may have
    taken some of them since they were listed, and the rest are the seed's
    candidates. A read that no source yields and no cluster takes has no
    near read after it, so it is a cluster of its own. cand[0] is within
    the diameter of every member so far: it joins and drops the later
    candidates out of its reach. Up to _LIST_WALK candidates are walked on
    Python integers, with no numpy call. More (wide diameters, where one
    cluster takes most reads) take one numpy pass per member until that few
    are left, their rows copied only when one drops.
    """
    taken = np.frombuffer(assigned, dtype=bool)
    roots = list(range(rows.shape[0]))
    raw, size = rows.tobytes(), 8 * rows.shape[1]
    for seed, near in seeds:
        assigned[seed] = 1
        if isinstance(near, list):
            cand = [r for r in near if not assigned[r]]
            if len(cand) > _LIST_WALK:
                cand = np.array(cand)
        else:
            cand = near[~taken[near]]
        members = []
        if isinstance(cand, np.ndarray):
            sub = rows[cand]
            while cand.size > _LIST_WALK:
                far = np.bitwise_count(sub[1:] ^ sub[0]).sum(axis=1, dtype=span)
                members.append(int(cand[0]))
                cand, sub = cand[1:], sub[1:]
                if far.max() > t:
                    keep = far <= t
                    cand, sub = cand[keep], sub[keep]
            cand = cand.tolist()
        if len(cand) > 1:
            # Each candidate with its bits as one Python integer.
            cand = [(r, int.from_bytes(raw[r * size:(r + 1) * size], "little")) for r in cand]
            while len(cand) > 1:
                r, head = cand[0]
                members.append(r)
                cand = [(r, bits) for r, bits in cand[1:] if (head ^ bits).bit_count() <= t]
            cand = [r for r, _ in cand]
        for r in members + cand:
            assigned[r] = 1
            roots[r] = seed
    return roots


def _scanned_seeds(rows, t, span, assigned, prefix):
    """Pair source 1, the blocked scan: the rule's seeds in order, each with
    its near pending reads.

    The next B pending reads are taken as seeds, and their distances to
    every later pending read are summed one numpy pass per 64-bit word. Only
    the first `prefix` words (see _scan_words) are summed for every cell:
    over them an unrelated pair averages at least 2.5 standard deviations
    more than t bits, so few such cells stay within t, and a cell past t
    there stays past t. When the block has no more cells within t than
    pending reads, one flatnonzero lists them and the other words are added
    on those cells alone (see _finished); each seed gets a Python list.
    Otherwise the other words are added densely and the same rule runs on
    the full distances: a list per seed, or each seed's row of the block as
    an array.

    A seed that an earlier seed's cluster took is skipped; every other one
    is the rule's next seed, because every read below it is assigned. One
    with no near read is a cluster of its own: it is marked assigned, not
    yielded (see _walk). The pending set is compacted once per block. The
    next block holds twice as many seeds as this one used (at most 64), so
    a wide diameter, whose clusters take many block seeds, computes few
    rows it throws away.
    """
    n, words = rows.shape
    # Word-major layout: row w holds the w-th 64-bit word of every pending
    # read, so a block's distances are one broadcast pass per word.
    mat = np.ascontiguousarray(rows.T)
    dist = np.empty(_SEED_BLOCK * n, dtype=span)
    near = np.empty(_SEED_BLOCK * n, dtype=bool)
    xbuf = np.empty(_SEED_BLOCK * n, dtype=np.uint64)
    cbuf = np.empty(_SEED_BLOCK * n, dtype=np.uint8)
    # ahead[j, k]: read pending[k + 1] comes after seed pending[j].
    ahead = ~np.tri(_SEED_BLOCK, _SEED_BLOCK - 1, -1, dtype=bool)
    taken = np.frombuffer(assigned, dtype=bool)
    pending = np.arange(n)  # read indices still unassigned, ascending
    block = _SEED_BLOCK
    while pending.size:
        b = min(block, pending.size)
        # d[j, k]: distance from seed pending[j] to read pending[k + 1].
        shape = (b, pending.size - 1)
        cells = shape[0] * shape[1]
        d = dist[:cells].reshape(shape)
        x, cnt = xbuf[:cells].reshape(shape), cbuf[:cells].reshape(shape)
        close = near[:cells].reshape(shape)
        later = pending[1:]
        summed = 0
        for stop in sorted({prefix, words}):  # the prefix, then the rest if too many are near
            _sum_words(mat, range(summed, stop), b, d, x, cnt)
            summed = stop
            np.less_equal(d, t, out=close)
            close[:, : b - 1] &= ahead[:b, : b - 1]
            listed = np.count_nonzero(close) <= later.size
            if listed:
                break
        if listed:
            hits = np.flatnonzero(close)
            if summed < words and hits.size:
                hits = _finished(mat, summed, hits, later.size, d, t, span)
            reads = later[hits % later.size].tolist()
            bounds = np.searchsorted(hits, later.size * np.arange(b + 1)).tolist()
        used = 0
        for j, seed in enumerate(pending[:b].tolist()):
            if assigned[seed]:
                continue
            used += 1
            found = reads[bounds[j]:bounds[j + 1]] if listed else later[close[j]]
            if len(found):
                yield seed, found
            else:
                assigned[seed] = 1  # no near read: a cluster of its own
        keep = ~taken[pending]
        mat = np.compress(keep, mat, axis=1)
        pending = pending[keep]
        block = min(_SEED_BLOCK, 2 * used)


def _sum_words(mat, words, b, d, x, cnt):
    """Add to d[j, k] the distance between columns j and k + 1 of mat over
    the given word rows; word 0 writes d instead. x and cnt are scratch of
    d's shape."""
    for w in words:
        np.bitwise_xor(mat[w, :b, None], mat[w, None, 1:], out=x)
        if w:
            d += np.bitwise_count(x, out=cnt)
        else:
            np.bitwise_count(x, out=d)


def _finished(mat, prefix, hits, width, d, t, span):
    """The hits (flat cells j * width + k of the block) whose distance is
    within t once the words from `prefix` on are added to d: seed column j
    against column k + 1 of mat, gathered for those cells alone."""
    seeds, cols = np.divmod(hits, width)
    rest = np.bitwise_count(mat[prefix:, seeds] ^ mat[prefix:, cols + 1]).sum(axis=0, dtype=span)
    return hits[d.ravel()[hits] + rest <= t]


def _listed_seeds(pairs, assigned):
    """The rule's seeds that have near reads after them, in order, each with
    those reads as a list, from every near pair (lo, hi), lo < hi, sorted by
    lo then hi."""
    lo, hi = pairs
    starts = np.flatnonzero(np.diff(lo, prepend=-1))
    bounds = [*starts.tolist(), lo.size]
    hi = hi.tolist()
    for k, seed in enumerate(lo[starts].tolist()):
        if not assigned[seed]:
            yield seed, hi[bounds[k]:bounds[k + 1]]


def _index_work(rows, t, length, limit):
    """The pigeonhole index's work in scan words (see greedy_cluster) and, per
    field, the reads that share a value and the values, sorted; infinite
    work when t + 1 fields do not fit in the L bits. Once the work passes
    `limit`, no more fields are sorted and the groups are None: the work is
    then the random reads' expectation if no field was sorted, else the
    collisions counted so far."""
    n, words = rows.shape
    fields = t + 1
    if fields > length:
        return np.inf, None
    q, r = divmod(length, fields)  # r fields of q + 1 bits, the rest of q
    chance = (fields - r) * 2.0 ** -min(q, _FIELD_BITS) + r * 2.0 ** -min(q + 1, _FIELD_BITS)
    base, per_word, most = _COLLISION_COST
    cost = min(base + per_word * words, most)  # per collision
    work = n * (n - 1) / 2 * chance * cost
    if work > limit:
        return work, None
    groups, collisions = [], 0
    for word, shift, mask in _fields(length, fields):
        values = rows[:, word] >> np.uint64(shift)
        if shift + mask.bit_length() > 64:
            values |= rows[:, word + 1] << np.uint64(64 - shift)
        values &= np.uint64(mask)
        order = np.argsort(values)
        values = values[order]
        sizes = np.diff(np.flatnonzero(values[1:] != values[:-1]) + 1, prepend=0, append=n)
        collisions += int((sizes * (sizes - 1) // 2).sum())
        if collisions * cost > limit:
            return collisions * cost, None
        shared = np.repeat(sizes > 1, sizes)
        # After the last run, a value that no field of at most 57 bits takes.
        groups.append((order[shared], np.append(values[shared], ~np.uint64(0))))
    return collisions * cost, groups


def _indexed_pairs(rows, t, groups):
    """Pair source 2, the pigeonhole index: every pair of reads within t bits,
    as (lo, hi) arrays with lo < hi, sorted by lo then hi, from each field's
    reads that share a value (see _index_work).

    A field's pass k checks the reads k places apart in sorted order whose
    values are equal, among those equal k - 1 apart: each collision once, at
    most U per pass.
    """
    n = rows.shape[0]
    heads, tails = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for ids, values in groups:
        at, k = np.flatnonzero(values[1:] == values[:-1]), 1
        while at.size:
            a, b = ids.take(at), ids.take(at + k)
            near = np.bitwise_count(rows.take(a, axis=0) ^ rows.take(b, axis=0)).sum(axis=1) <= t
            heads.append(a[near])
            tails.append(b[near])
            k += 1
            at = at[values.take(at + k) == values.take(at)]
    a, b = np.concatenate(heads), np.concatenate(tails)
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return keys // n, keys % n


def _scan_words(t, words):
    """Words the blocked scan sums for every pair of reads of W = `words`
    words at diameter t (see _scanned_seeds): the fewest w < W with
    32w >= t and (32w - t)^2 >= 100w, else all W. Over w words two unrelated
    reads differ in 32w bits on average, with standard deviation 4 sqrt(w),
    so the rule puts that mean at least 2.5 standard deviations past t."""
    w = max(1, -(-t // 32))
    while w < words and (32 * w - t) ** 2 < 100 * w:
        w += 1
    return min(w, words)


def _fields(length, fields):
    """The pigeonhole fields, an even cut of the L read bits into `fields`
    runs of floor(L / fields) bits or one more, at most _FIELD_BITS, as
    (word, shift, mask): words `word` and `word + 1` read as one 128-bit
    window, shifted right and masked. Runs are cut in the words' bit order,
    where a partial last byte has 8 - L % 8 padding bits below its valid
    ones; the field across them leaves them out of its mask."""
    full, gap = length - length % 8, -length % 8  # bits in whole bytes; the gap
    q, r = divmod(length, fields)
    cut, start = [], 0
    for f in range(fields):
        stop = start + min(q + (f < r), _FIELD_BITS)
        first, last = start + gap * (start >= full), stop - 1 + gap * (stop > full)
        mask = (1 << (last - first + 1)) - 1
        if start < full < stop:
            mask ^= ((1 << gap) - 1) << (full - first)
        cut.append((first // 64, first % 64, mask))
        start = stop
    return cut


def _check_clustering(clusters):
    """Refuse stage input that is not a Clustering."""
    if not isinstance(clusters, Clustering):
        raise TypeError(f"clusters must be a Clustering(sizes, members), "
                        f"got {type(clusters).__name__}")


def _clean_strands(sizes, members, output):
    """Per cluster, the strand whose full read set it is, or -1 if it is not
    clean (mixed origins, some of its strand's reads missing, or empty).
    sizes and members are a Clustering's arrays; every member must be a read
    index in [0, N)."""
    strands = np.full(sizes.size, -1, dtype=np.int64)
    filled = np.flatnonzero(sizes)
    if filled.size:
        if members.min() < 0 or members.max() >= output.N:
            raise ValueError(f"cluster members must be read indices in [0, {output.N}), "
                             f"got {members.min()} .. {members.max()}")
        origins = output.origins[members]
        starts = (np.cumsum(sizes) - sizes)[filled]
        lo = np.minimum.reduceat(origins, starts)
        fiber_size = np.bincount(output.origins, minlength=output.pool_size)
        clean = (lo == np.maximum.reduceat(origins, starts)) & (sizes[filled] == fiber_size[lo])
        strands[filled[clean]] = lo[clean]
    return strands


def count_wrong_clusters(clusters, output):
    """Count clusters that are not exactly the full read set of one strand.
    `clusters` is a Clustering; its arrays must partition the reads, each
    read in exactly one cluster."""
    _check_clustering(clusters)
    sizes, members = clusters.sizes, clusters.members
    inside = members[(members >= 0) & (members < output.N)]
    covers = np.bincount(inside, minlength=output.N)
    if inside.size != members.size or (covers != 1).any():
        raise ValueError(f"clustering covers {np.count_nonzero(covers)} reads, expected "
                         f"{output.N}, in {members.size} members; clusters must partition "
                         f"the reads")
    return int((_clean_strands(sizes, members, output) < 0).sum())


def oracle_index_decode(clusters, output, params, r_ix):
    """Decode cluster indices with a genie standing in for the index code.

    A cluster whose size cannot carry rate r_ix (gated capacity zero) is
    discarded silently. Among the rest, a cluster decodes to its strand index
    iff it is clean, i.e. exactly one strand's full read set; corrupted
    clusters count as wrong index decodings and are discarded. Should two
    clusters ever claim the same index, all its claimants are dropped.

    `clusters` is a Clustering; every member must be a read index in [0, N).
    """
    m = output.pool_size
    _check_clustering(clusters)
    sizes, members = clusters.sizes, clusters.members
    gtab = gated_capacity_table(params.p, int(sizes.max()) if sizes.size else 1, r_ix)
    strands = _clean_strands(sizes, members, output)
    kept = gtab[sizes] > 0.0
    m_wrong = int((kept & (strands < 0)).sum())
    claims = np.flatnonzero(kept & (strands >= 0))  # positions, ascending
    claimed = strands[claims]
    sole = claims[np.bincount(claimed, minlength=m)[claimed] == 1]
    draws = np.zeros(m, dtype=np.int64)
    draws[strands[sole]] = sizes[sole]
    assignments = dict(zip(sole.tolist(), strands[sole].tolist()))
    return IndexDecodeResult(draws=draws, assignments=assignments, m_wrong_index=m_wrong)


def oracle_inner_decode(draws, params, scheme, m_wrong_clusters=0, m_wrong_index=0):
    """Decode or erase each inner block by its gated block capacity.

    A block decodes iff the mean gated capacity of its assigned cluster sizes
    strictly exceeds r_in, and is erased otherwise. The returned erasure and
    error totals are the decoding-analysis upper bounds in outer-symbol
    units: erased blocks count K symbols each, and each wrong cluster or
    wrong index may corrupt up to two blocks (2K symbols), both clamped at
    the codeword length. The oracle itself never mis-decodes a clean block,
    so m_wrong_inner is structurally zero.
    """
    draws = _check_draw_vector(draws, "draws")
    K = _check_block_size(scheme.K, draws.size)
    blocks = draws.size // K
    decoded = _draw_means(draws.reshape(blocks, K), params.p, scheme.r_ix) > scheme.r_in
    n_erased = int(blocks - decoded.sum())
    corrupt = 2 * (int(m_wrong_clusters) + int(m_wrong_index))
    m_wrong_inner = 0
    erasures = K * min(n_erased + corrupt, blocks)
    errors = K * min(m_wrong_inner + corrupt, blocks)
    return InnerDecodeResult(
        decoded=decoded,
        erasures=erasures,
        errors=errors,
        m_wrong_inner=m_wrong_inner,
    )


def outer_success(s, t, M, r_out):
    """Unique decoding succeeds iff erasures plus twice the errors fit the
    outer code's redundancy: s + 2t <= M(1 - r_out).

    The redundancy is evaluated as M - M*r_out, which keeps round budgets
    like M = 100, r_out = 0.9 at exactly 10 symbols.
    """
    return s + 2 * t <= M - M * r_out


def decode(output, params, scheme, config=None):
    """Run the decoder chain on one channel output.

    The reads are clustered with `config` (default ClusteringConfig())
    resolved for params.p, then index-, inner- and outer-decoded with the
    oracles; the outer code spans M = output.pool_size strands, which K must
    divide. The check runs before clustering, the costly stage.
    """
    M = output.pool_size
    _check_block_size(scheme.K, M)
    config = (config or ClusteringConfig()).resolved(params.p)
    clusters = greedy_cluster(output, config)
    m_c = count_wrong_clusters(clusters, output)
    ix = oracle_index_decode(clusters, output, params, scheme.r_ix)
    inner = oracle_inner_decode(
        ix.draws, params, scheme, m_wrong_clusters=m_c, m_wrong_index=ix.m_wrong_index
    )
    return DecodeReport(
        m_wrong_clusters=m_c,
        m_wrong_index=ix.m_wrong_index,
        m_wrong_inner=inner.m_wrong_inner,
        erasures=inner.erasures,
        errors=inner.errors,
        outer_success=bool(outer_success(inner.erasures, inner.errors, M, scheme.r_out)),
    )


def _trial_output(params, dims, seed, t):
    """Channel output of pipeline trial t: a fresh pool and read set, each
    drawn from its own substream of the master seed."""
    pool = random_pool(dims, derive_seed(seed, "pipeline.pool", t))
    return simulate_channel(pool, params, derive_seed(seed, "pipeline.channel", t))


def _pipeline_setup(params, scheme, M, trials, clustering, threads):
    """run_pipeline's checks, before any draw: the instance dimensions, within
    _INSTANCE_BYTES, and the clustering config resolved for params.p."""
    _check_count(trials, "trials", positive=True)
    _check_threads(threads)
    dims = InstanceDims.from_channel(params, M, scheme.K)
    size = dims.M * dims.L + dims.N * (-(-dims.L // 8) + 16)
    if size > _INSTANCE_BYTES:
        raise BudgetError(f"M = {dims.M:,} strands of L = {dims.L} bits and N = {dims.N:,} reads "
                          f"draw {size:,} bytes, over the bound of {_INSTANCE_BYTES:,}")
    verdict = validate_scheme(params, scheme)
    if not verdict.ok:
        warnings.warn(
            "scheme violates decoding-analysis conditions: "
            + "; ".join(verdict.violations),
            stacklevel=3,
        )
    return dims, (clustering or ClusteringConfig()).resolved(params.p)


def run_pipeline(params, scheme, M, trials, seed=0, clustering=None, threads=1):
    """Run the full decode pipeline end to end for several trials.

    Each trial draws a fresh pool and channel output (deterministically from
    the master seed and the trial index) and runs decode on it. Schemes
    failing validate_scheme produce a warning but still run.
    """
    dims, config = _pipeline_setup(params, scheme, M, trials, clustering, threads)

    def one_trial(t):
        return decode(_trial_output(params, dims, seed, t), params, scheme, config)

    reports = tuple(_map_chunks(one_trial, trials, threads))
    rate = sum(r.outer_success for r in reports) / trials
    return PipelineResult(reports=reports, success_rate=rate)
