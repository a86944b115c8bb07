"""greedy_cluster against a plain per-cluster scan of the same rule.

`reference_greedy_cluster` is the one-seed-at-a-time implementation the
blocked pass replaced, kept here as a test oracle: for every input both must
return the same clusters, in the same order, with the same members. The scan
sees every read, duplicates included, so it also checks that clustering the
distinct reads once gives the rule's clusters.
"""

import dataclasses

import numpy as np
import pytest

from dnarate import ChannelParams, ClusteringConfig, InstanceDims, random_pool, simulate_channel
from dnarate.channel import ChannelOutput, pack_bits
from dnarate.decoder import _SEED_BLOCK, Cluster, greedy_cluster

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference_greedy_cluster(output, config):
    """One pass per cluster: the seed's distance row, then one numpy call per
    accepted member to drop the candidates it rules out."""
    threshold = config.rho * output.length
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


def bits_output(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    return ChannelOutput(
        reads=pack_bits(bits),
        origins=np.zeros(bits.shape[0], dtype=np.int64),
        flip_counts=None,
        length=bits.shape[1],
        pool_size=1,
    )


def assert_same(output, rho):
    config = ClusteringConfig(rho=rho)
    got = greedy_cluster(output, config)
    assert got == reference_greedy_cluster(output, config)
    for cluster in got:
        assert all(type(m) is int for m in cluster.members)
        assert list(cluster.members) == sorted(cluster.members)
    return got


def with_copies(output, rng, copies):
    """The output with `copies` random rows overwritten by an earlier row;
    returns it and the (source, copy) pairs."""
    reads = output.reads.copy()
    pairs = []
    for dst in np.sort(rng.choice(np.arange(1, output.N), copies, replace=False)).tolist():
        src = int(rng.integers(0, dst))
        reads[dst] = reads[src]
        pairs.append((src, dst))
    return dataclasses.replace(output, reads=reads), pairs


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(
    c=st.floats(0.5, 4.0),
    p=st.sampled_from([0.0, 0.01, 0.1, 0.3]),
    rho_frac=st.floats(0.0, 1.0),
    M=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_reference_scan(c, p, rho_frac, M, seed):
    params = ChannelParams(c, 0.05, p)
    dims = InstanceDims.from_channel(params, M)
    out = simulate_channel(random_pool(dims, seed), params, seed + 1)
    # From one bit up to 0.6; above 1/2 almost every pair is a candidate.
    rho = 1.0 / dims.L + rho_frac * (0.6 - 1.0 / dims.L)
    assert_same(out, rho)


@pytest.mark.parametrize(
    "point",
    [dict(c=2, p=0.1, rho=0.30), dict(c=3, p=0.0, rho=0.05)],
    ids=["noisy", "clean"],
)
def test_matches_reference_at_bench_points(point):
    params = ChannelParams(point["c"], 0.05, point["p"])
    dims = InstanceDims.from_channel(params, 4096)
    out = simulate_channel(random_pool(dims, 7), params, 8)
    assert_same(out, point["rho"])


@pytest.mark.parametrize(
    "p, rho", [(0.3, None), (0.4, None), (0.1, 0.7)], ids=["p0.3", "p0.4", "rho0.7"]
)
def test_matches_reference_at_wide_diameters(p, rho):
    # rho*L above the mean distance of unrelated reads (L/2): nearly every
    # pair is within the diameter and a few clusters take almost every read.
    params = ChannelParams(2, 0.05, p)
    dims = InstanceDims.from_channel(params, 512)
    out = simulate_channel(random_pool(dims, 9), params, 10)
    clusters = assert_same(out, ClusteringConfig(rho=rho).resolve(p))
    assert max(c.size for c in clusters) > out.N // 2


class TestDuplicateReads:
    @pytest.mark.parametrize("c", [0.5, 3, 8])
    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.55])
    def test_noiseless_reads(self, c, rho):
        # At p = 0 every read is an exact copy of its strand.
        params = ChannelParams(c, 0.05, 0.0)
        dims = InstanceDims.from_channel(params, 256)
        out = simulate_channel(random_pool(dims, 11), params, 12)
        assert len(np.unique(out.reads, axis=0)) < out.N
        assert_same(out, rho)

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_reads_with_copies_of_earlier_reads(self, seed):
        params = ChannelParams(2, 0.05, 0.1)
        dims = InstanceDims.from_channel(params, 256)
        out = simulate_channel(random_pool(dims, seed), params, seed + 100)
        out, pairs = with_copies(out, np.random.default_rng(seed), 120)
        clusters = assert_same(out, 0.3)
        seeds = {c.members[0] for c in clusters}
        # Some copied reads were absorbed by an earlier seed's cluster, and
        # some seeded a cluster of their own past the first block.
        assert any(src not in seeds for src, _ in pairs)
        assert any(src in seeds and src >= _SEED_BLOCK for src, _ in pairs)
        label = {m: k for k, c in enumerate(clusters) for m in c.members}
        assert all(label[src] == label[dst] for src, dst in pairs)

    @pytest.mark.parametrize("length", [70, 200])
    def test_every_read_identical(self, length):
        row = np.random.default_rng(length).integers(0, 2, length)
        clusters = assert_same(bits_output(np.tile(row, (3 * _SEED_BLOCK, 1))), 0.05)
        assert clusters == [Cluster(tuple(range(3 * _SEED_BLOCK)))]


class TestFixedCases:
    def test_no_reads(self):
        assert assert_same(bits_output(np.zeros((0, 10))), 0.3) == []

    def test_one_read(self):
        assert assert_same(bits_output([[1, 0, 1]]), 0.4) == [Cluster((0,))]

    def test_identical_reads_form_one_cluster(self):
        clusters = assert_same(bits_output(np.ones((150, 70))), 0.1)
        assert clusters == [Cluster(tuple(range(150)))]

    @pytest.mark.parametrize("length", [1, 63, 65, 127, 130, 200])
    def test_length_not_a_multiple_of_64(self, length):
        rng = np.random.default_rng(length)
        base = rng.integers(0, 2, size=(40, length))
        noisy = base[rng.integers(0, 40, size=300)] ^ (rng.random((300, length)) < 0.05)
        assert_same(bits_output(noisy), max(1.0 / length, 0.2))

    @pytest.mark.parametrize("length", [1, 63, 65, 127, 130, 200])
    def test_length_not_a_multiple_of_64_with_copies(self, length):
        # Half the reads are exact copies of one of 40 strands.
        rng = np.random.default_rng(length)
        base = rng.integers(0, 2, size=(40, length))
        noise = (rng.random((300, length)) < 0.05) & (np.arange(300) % 2 == 0)[:, None]
        reads = base[rng.integers(0, 40, size=300)] ^ noise
        assert len(np.unique(reads, axis=0)) < 300
        assert_same(bits_output(reads), max(1.0 / length, 0.2))

    def test_long_reads_need_a_wide_accumulator(self):
        # Complementary reads sit L = 2^16 + 1000 bits apart; a 16-bit count
        # would wrap that to 1000 and pull them into one cluster.
        length = (1 << 16) + 1000
        rng = np.random.default_rng(3)
        zero = np.zeros(length, dtype=np.uint8)
        near = zero.copy()
        near[rng.choice(length, 500, replace=False)] = 1
        rows = [zero, 1 - zero, near, 1 - near, rng.integers(0, 2, length)]
        clusters = assert_same(bits_output(rows), 0.3)
        assert clusters[:2] == [Cluster((0, 2)), Cluster((1, 3))]

    def test_first_seed_takes_the_whole_block(self):
        # The first 2 * _SEED_BLOCK reads lie within a few bits of each other,
        # so the first seed's cluster takes every other seed of its block.
        rng = np.random.default_rng(5)
        length = 120
        base = rng.integers(0, 2, length)
        close = np.tile(base, (2 * _SEED_BLOCK, 1))
        close[np.arange(close.shape[0]), rng.integers(0, length, close.shape[0])] ^= 1
        far = rng.integers(0, 2, size=(100, length))
        clusters = assert_same(bits_output(np.vstack([close, far])), 0.05)
        assert clusters[0] == Cluster(tuple(range(2 * _SEED_BLOCK)))
