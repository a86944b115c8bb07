"""Four-stage decoder at desk scale.

Reads are greedily grouped into clusters of bounded diameter, clusters are
index-decoded by an oracle that succeeds exactly when the cluster is clean
and its size carries the index rate, inner blocks are decoded or erased by
comparing their gated block capacity with the inner rate, and the outer code
succeeds when erasures plus twice the errors fit its redundancy. The oracle
decoders stand in for capacity-achieving codes: they isolate the behaviour of
the channel and the scheme thresholds without constructing codebooks.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import InstanceDims, random_pool, simulate_channel
from .multidraw import (_check_block_size, _check_count, _check_draw_vector, _check_unit,
                        _clip_draws, gated_capacity_table)
from .rates import _type_means, validate_scheme
from .seeding import _check_threads, _map_chunks, derive_seed

__all__ = [
    "ClusteringConfig",
    "Cluster",
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

# Pairwise-distance work cap for run_pipeline, in units of N^2 * L. The
# blocked greedy pass runs on the U <= N distinct reads. Each is a seed at most
# once, compared with the pending reads after its block's first seed: at most
# U^2/2 + 32U distances. Each member is compared once with its seed's later
# candidates: at most U^2/2 more. So N^2 distances of L bits still bound the
# work.
DEFAULT_DISTANCE_BUDGET = 1e11


class BudgetError(RuntimeError):
    """Requested simulation exceeds the pairwise-distance work budget."""


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
    cluster claimed it); assignments maps cluster position in the input list
    to the decoded strand index.
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


def greedy_cluster(output, config):
    """Group reads into maximal clusters of diameter at most rho*L.

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
    labels[order] = _greedy_labels(padded.view(np.uint64)[first[order]], t, span)
    labels = labels[inverse]  # per read
    # Stable by label: members ascending, clusters in seed order.
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [
        Cluster(members=tuple(members[start:end]))
        for start, end in zip([0, *ends], ends)
    ]


def _greedy_labels(rows, t, span):
    """Cluster label of each read under the greedy rule with diameter t bits;
    clusters are numbered in seed order. rows holds one read per row as
    64-bit words; span is an unsigned dtype that holds any distance.

    The pass is blocked. The next B pending reads are taken as seeds, and
    their distances to every later pending read are computed in one numpy
    pass. The seeds are then walked in order. A seed that an earlier seed's
    cluster took is skipped. Otherwise every read below it is assigned, so it
    is the rule's next seed; with no near read after it, it is a cluster of
    its own. Else its candidates are its still-pending near reads in
    ascending order, and each candidate that survives joins and drops, in one
    numpy pass, the later candidates farther than the diameter from it. The
    pending set is compacted once per block. The next block holds twice as
    many seeds as this one used (at most 64), so a wide diameter, whose
    clusters take many block seeds, computes few rows it throws away.
    """
    n = rows.shape[0]
    # Word-major layout: row w holds the w-th 64-bit word of every pending
    # read, so a block's distances are one broadcast pass per word.
    mat = np.ascontiguousarray(rows.T)
    dist = np.empty(_SEED_BLOCK * n, dtype=span)
    near = np.empty(_SEED_BLOCK * n, dtype=bool)
    xbuf = np.empty(_SEED_BLOCK * n, dtype=np.uint64)
    cbuf = np.empty(_SEED_BLOCK * n, dtype=np.uint8)
    # ahead[j, k]: read pending[k + 1] comes after seed pending[j].
    ahead = ~np.tri(_SEED_BLOCK, _SEED_BLOCK - 1, -1, dtype=bool)
    assigned = bytearray(n)
    taken = np.frombuffer(assigned, dtype=bool)
    labels = [0] * n
    label = 0
    pending = np.arange(n)  # read indices still unassigned, ascending
    block = _SEED_BLOCK
    while pending.size:
        b = min(block, pending.size)
        # d[j, k]: distance from seed pending[j] to read pending[k + 1].
        shape = (b, pending.size - 1)
        cells = shape[0] * shape[1]
        d = dist[:cells].reshape(shape)
        x, cnt = xbuf[:cells].reshape(shape), cbuf[:cells].reshape(shape)
        d.fill(0)
        for word in mat:
            np.bitwise_xor(word[:b, None], word[None, 1:], out=x)
            d += np.bitwise_count(x, out=cnt)
        close = np.less_equal(d, t, out=near[:cells].reshape(shape))
        close[:, : b - 1] &= ahead[:b, : b - 1]
        lonely = (~close.any(axis=1)).tolist()
        later = pending[1:]
        used = 0
        for j, seed in enumerate(pending[:b].tolist()):
            if assigned[seed]:
                continue
            used += 1
            assigned[seed] = 1
            labels[seed] = label
            if not lonely[j]:
                cand = later[close[j]]
                cand = cand[~taken[cand]]  # still pending, ascending
                sub = rows[cand]
                members = []
                # cand[0] is within the diameter of every member so far: it
                # joins and drops the later candidates out of its reach. The
                # rows are copied only when one is dropped.
                while cand.size > 1:
                    far = np.bitwise_count(sub[1:] ^ sub[0]).sum(axis=1, dtype=span)
                    members.append(int(cand[0]))
                    cand, sub = cand[1:], sub[1:]
                    if far.max() > t:
                        keep = far <= t
                        cand, sub = cand[keep], sub[keep]
                members += cand.tolist()
                for r in members:
                    assigned[r] = 1
                    labels[r] = label
            label += 1
        keep = ~taken[pending]
        mat = np.compress(keep, mat, axis=1)
        pending = pending[keep]
        block = min(_SEED_BLOCK, 2 * used)
    return labels


def _clean_strands(clusters, output):
    """Per cluster, the strand whose full read set it is, or -1 if it is not
    clean (mixed origins, some of its strand's reads missing, or empty).
    Every member must be a read index in [0, N)."""
    sizes = np.fromiter((c.size for c in clusters), dtype=np.int64, count=len(clusters))
    strands = np.full(sizes.size, -1, dtype=np.int64)
    filled = np.flatnonzero(sizes)
    if filled.size:
        members = np.fromiter(
            itertools.chain.from_iterable(c.members for c in clusters),
            dtype=np.int64,
            count=int(sizes.sum()),
        )
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
    The clusters must partition the reads: each read in exactly one."""
    members = sorted(itertools.chain.from_iterable(c.members for c in clusters))
    if members != list(range(output.N)):
        covered = len(set(members).intersection(range(output.N)))
        raise ValueError(f"clustering covers {covered} reads, expected {output.N}, in "
                         f"{len(members)} members; clusters must partition the reads")
    return int((_clean_strands(clusters, output) < 0).sum())


def oracle_index_decode(clusters, output, params, r_ix):
    """Decode cluster indices with a genie standing in for the index code.

    A cluster whose size cannot carry rate r_ix (gated capacity zero) is
    discarded silently. Among the rest, a cluster decodes to its strand index
    iff it is clean, i.e. exactly one strand's full read set; corrupted
    clusters count as wrong index decodings and are discarded. Should two
    clusters ever claim the same index, all its claimants are dropped.
    """
    m = output.pool_size
    sizes = [c.size for c in clusters]
    gtab = gated_capacity_table(params.p, max(sizes, default=1), r_ix)
    sizes = np.array(sizes, dtype=np.int64)
    strands = _clean_strands(clusters, output)
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
    draws, top = _clip_draws(draws, params.p)
    gtab = gated_capacity_table(params.p, top, scheme.r_ix)
    decoded = _type_means(gtab, draws.reshape(blocks, K), K) > scheme.r_in
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


def _suggest_m(params, budget, K):
    m = 2
    best = None
    while True:
        try:
            dims = InstanceDims.from_channel(params, m, 1)
        except ValueError:
            break
        if dims.N**2 * dims.L > budget:
            break
        if m % K == 0:
            best = m
        m *= 2
    return best


def _pipeline_setup(params, scheme, M, trials, clustering, budget, threads):
    """run_pipeline's checks, before any draw: the instance dimensions and
    the clustering config resolved for params.p."""
    _check_count(trials, "trials", positive=True)
    _check_threads(threads)
    dims = InstanceDims.from_channel(params, M, scheme.K)
    work = dims.N**2 * dims.L
    if work > budget:
        hint = _suggest_m(params, budget, scheme.K)
        hint_msg = f"; try M <= {hint}" if hint else ""
        raise BudgetError(
            f"N^2*L = {work:.3g} exceeds the distance budget {budget:.3g}{hint_msg}"
        )
    verdict = validate_scheme(params, scheme)
    if not verdict.ok:
        warnings.warn(
            "scheme violates decoding-analysis conditions: "
            + "; ".join(verdict.violations),
            stacklevel=3,
        )
    return dims, (clustering or ClusteringConfig()).resolved(params.p)


def run_pipeline(
    params,
    scheme,
    M,
    trials,
    seed=0,
    clustering=None,
    budget=DEFAULT_DISTANCE_BUDGET,
    threads=1,
):
    """Run the full decode pipeline end to end for several trials.

    Each trial draws a fresh pool and channel output (deterministically from
    the master seed and the trial index) and runs decode on it. Schemes
    failing validate_scheme produce a warning but still run.
    """
    dims, config = _pipeline_setup(params, scheme, M, trials, clustering, budget, threads)

    def one_trial(t):
        return decode(_trial_output(params, dims, seed, t), params, scheme, config)

    reports = tuple(_map_chunks(one_trial, trials, threads))
    rate = sum(r.outer_success for r in reports) / trials
    return PipelineResult(reports=reports, success_rate=rate)
