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
from .multidraw import _check_count, gated_capacity_table
from .rates import validate_scheme
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

# Pairwise-distance work cap for run_pipeline, in units of N^2 * L.
DEFAULT_DISTANCE_BUDGET = 1e11


class BudgetError(RuntimeError):
    """Requested simulation exceeds the pairwise-distance work budget."""


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
        rho = self.rho if self.rho is not None else 2.0 * p + self.epsilon_prime
        if not 0.0 < rho < 1.0:
            raise ValueError(f"clustering diameter fraction out of (0, 1): {rho}")
        return rho

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


def greedy_cluster(output, config):
    """Group reads into maximal clusters of diameter at most rho*L.

    Processing is in read-index order: the first unassigned read seeds a
    cluster, and every later unassigned read joins iff its distance to every
    current member is within the diameter. Because members only accumulate, a
    read rejected once can never join later, so a single ordered pass per
    cluster reaches the fixpoint. Every read ends up in exactly one cluster.
    """
    if config.rho is None:
        raise ValueError(
            "ClusteringConfig.rho is unset; pin it with resolved(p) or pass rho"
        )
    threshold = config.rho * output.length
    if threshold < 1.0:
        raise ValueError(f"clustering diameter rho*L = {threshold} is below one bit")
    # Widen the packed rows to whole 64-bit words; popcounting words instead
    # of bytes, and reusing scratch buffers across iterations, is what makes
    # the O(N^2) distance pass affordable.
    n, width = output.reads.shape
    padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = output.reads
    mat = padded.view(np.uint64)  # rows [0:size] aligned with pending
    alt = np.empty_like(mat)
    xbuf = np.empty_like(mat)
    cbuf = np.empty(mat.shape, dtype=np.uint8)
    clusters = []
    pending = np.arange(n)  # read indices still unassigned, ascending
    size = n
    while size:
        seed = int(pending[0])
        if size > 1:
            x = np.bitwise_xor(mat[1:size], mat[0], out=xbuf[: size - 1])
            dist = np.bitwise_count(x, out=cbuf[: size - 1]).sum(
                axis=1, dtype=np.int64
            )
            cand_pos = np.flatnonzero(dist <= threshold) + 1  # pending positions
        else:
            cand_pos = np.empty(0, dtype=np.int64)
        members = [seed]
        ok = np.ones(cand_pos.size, dtype=bool)
        for i in range(cand_pos.size):
            if not ok[i]:
                continue
            members.append(int(pending[cand_pos[i]]))
            if i + 1 < cand_pos.size:
                later = cand_pos[i + 1 :]
                dd = np.bitwise_count(mat[later] ^ mat[cand_pos[i]]).sum(
                    axis=1, dtype=np.int64
                )
                ok[i + 1 :] &= dd <= threshold
        keep = np.ones(size, dtype=bool)
        keep[0] = False
        keep[cand_pos[ok]] = False
        keep_idx = np.flatnonzero(keep)
        np.take(mat[:size], keep_idx, axis=0, out=alt[: keep_idx.size])
        mat, alt = alt, mat
        pending = pending[keep_idx]
        size = keep_idx.size
        clusters.append(Cluster(members=tuple(members)))
    return clusters


def _clean_strand(cluster, output, fiber_size):
    """The strand whose full read set the cluster is, or None if it is not
    clean (mixed origins, or some of its strand's reads missing)."""
    origins = output.origins[np.asarray(cluster.members)]
    first = int(origins[0])
    if (origins == first).all() and origins.size == fiber_size[first]:
        return first
    return None


def count_wrong_clusters(clusters, output):
    """Count clusters that are not exactly the full read set of one strand."""
    fiber_size = np.bincount(output.origins, minlength=output.pool_size)
    covered = sum(c.size for c in clusters)
    if covered != output.N:
        raise ValueError(
            f"clustering covers {covered} reads, expected {output.N}"
        )
    return sum(_clean_strand(c, output, fiber_size) is None for c in clusters)


def oracle_index_decode(clusters, output, params, r_ix):
    """Decode cluster indices with a genie standing in for the index code.

    A cluster whose size cannot carry rate r_ix (gated capacity zero) is
    discarded silently. Among the rest, a cluster decodes to its strand index
    iff it is clean, i.e. exactly one strand's full read set; corrupted
    clusters count as wrong index decodings and are discarded. Should two
    clusters ever claim the same index, all its claimants are dropped.
    """
    m = output.pool_size
    fiber_size = np.bincount(output.origins, minlength=m)
    sizes = [c.size for c in clusters]
    gtab = gated_capacity_table(params.p, max(sizes, default=1), r_ix)
    draws = np.zeros(m, dtype=np.int64)
    claims = {}
    m_wrong = 0
    for pos, cluster in enumerate(clusters):
        if gtab[cluster.size] <= 0.0:
            continue
        strand = _clean_strand(cluster, output, fiber_size)
        if strand is None:
            m_wrong += 1
            continue
        claims.setdefault(strand, []).append(pos)
    assignments = {}
    for strand, holders in claims.items():
        if len(holders) != 1:
            continue  # duplicate index: drop every claimant
        pos = holders[0]
        assignments[pos] = strand
        draws[strand] = clusters[pos].size
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
    draws = np.asarray(draws, dtype=np.int64)
    m = draws.size
    K = scheme.K
    if m % K != 0:
        raise ValueError(f"K ({K}) must divide the number of strands ({m})")
    blocks = m // K
    gtab = gated_capacity_table(params.p, int(draws.max(initial=0)), scheme.r_ix)
    block_caps = gtab[draws.reshape(blocks, K)].mean(axis=1)
    decoded = block_caps > scheme.r_in
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
    if M % scheme.K != 0:
        raise ValueError(f"K ({scheme.K}) must divide the pool size ({M})")
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
            stacklevel=2,
        )
    config = (clustering or ClusteringConfig()).resolved(params.p)

    def one_trial(t):
        return decode(_trial_output(params, dims, seed, t), params, scheme, config)

    reports = tuple(_map_chunks(one_trial, trials, threads))
    rate = sum(r.outer_success for r in reports) / trials
    return PipelineResult(reports=reports, success_rate=rate)
