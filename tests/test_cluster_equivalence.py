"""greedy_cluster against a plain per-cluster scan of the same rule.

`reference_greedy_cluster` is the one-seed-at-a-time implementation the
blocked pass replaced, kept here as a test oracle: for every input both must
return the same clusters, in the same order, with the same members. The scan
sees every read, duplicates included, so it also checks that clustering the
distinct reads once gives the rule's clusters. Both of greedy_cluster's pair
sources are checked: `sources` records which one each call took, and
`forced_index` prices a field collision at zero, so the pigeonhole index
also runs where its cost rule would take the scan.
"""

import contextlib
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dnarate import (ChannelParams, ClusteringConfig, InstanceDims, decoder, random_pool,
                     simulate_channel)
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


def packed_output(reads, length):
    """A channel output whose reads are given packed, as greedy_cluster sees
    them: the bytes of 64-bit words, first word first."""
    reads = np.ascontiguousarray(reads)
    return ChannelOutput(
        reads=reads.view(np.uint8)[:, : -(-length // 8)],
        origins=np.zeros(reads.shape[0], dtype=np.int64),
        flip_counts=None,
        length=length,
        pool_size=1,
    )


@contextlib.contextmanager
def sources():
    """Records, per greedy_cluster call, whether the pigeonhole index listed
    the pairs, and counts the calls that cut the bits into fields to sort."""
    seen = {"index": [], "fields": 0}
    listed, scanned, fields = decoder._listed_seeds, decoder._scanned_seeds, decoder._fields

    def spy_listed(*args):
        seen["index"].append(True)
        return listed(*args)

    def spy_scanned(*args):
        seen["index"].append(False)
        return scanned(*args)

    def spy_fields(*args):
        seen["fields"] += 1
        return fields(*args)

    with mock.patch.object(decoder, "_listed_seeds", spy_listed), \
            mock.patch.object(decoder, "_scanned_seeds", spy_scanned), \
            mock.patch.object(decoder, "_fields", spy_fields):
        yield seen


def forced_index():
    """Prices each field collision at zero scan words, so the index runs
    whenever t + 1 fields fit in the read, and the scan, where it runs,
    keeps its word prefix."""
    return mock.patch.object(decoder, "_COLLISION_COST", (0, 0, 0))


def forced_scan():
    """Prices the pigeonhole index at infinity, so every greedy_cluster call
    takes the scan without sorting a field."""
    return mock.patch.object(decoder, "_index_work", lambda *args: (math.inf, None))


def assert_same(output, rho):
    """greedy_cluster's clusters, as a list, once they match the reference's."""
    config = ClusteringConfig(rho=rho)
    got = list(greedy_cluster(output, config))
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
    "point, took",
    [
        # The clean point (t = 12 of 240 bits) takes the index. The noisy one
        # (t = 72) takes the scan without sorting a field.
        (dict(c=2, p=0.1, rho=0.30), {"index": [False], "fields": 0}),
        (dict(c=3, p=0.0, rho=0.05), {"index": [True], "fields": 1}),
        # Near pairs collide in more fields than random reads: the counted
        # collisions price the index above the scan, which is faster there
        # at c = 3 and 4 and within 1.2x at c = 2.
        (dict(c=4, p=0.01, M=2048, rho=14.5 / 220), {"index": [False], "fields": 1}),
        (dict(c=4, p=0.01, M=2048, rho=16.5 / 220), {"index": [False], "fields": 1}),
        (dict(c=3, p=0.01, rho=16.5 / 240), {"index": [False], "fields": 1}),
        (dict(c=2, p=0.01, rho=16.5 / 240), {"index": [False], "fields": 1}),
    ],
    ids=["noisy", "clean", "c4-t14", "c4-t16", "c3-t16", "c2-t16"],
)
def test_matches_reference_at_bench_points(point, took):
    params = ChannelParams(point["c"], 0.05, point["p"])
    dims = InstanceDims.from_channel(params, point.get("M", 4096))
    out = simulate_channel(random_pool(dims, 7), params, 8)
    with sources() as seen:
        assert_same(out, point["rho"])
    assert seen == took


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


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(
    # Lengths that are not a multiple of 64, and whole words, where the last
    # field of each word ends at the word's edge.
    length=st.one_of(st.integers(1, 320), st.sampled_from([64, 128, 192, 256])),
    p=st.sampled_from([0.0, 0.005, 0.01]),
    t_frac=st.floats(0.0, 1.0),
    strands=st.integers(1, 120),
    c=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_index_path_matches_reference_scan(length, p, t_frac, strands, c, seed):
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2, size=(strands, length))
    n = round(c * strands)
    reads = pool[rng.integers(0, strands, n)] ^ (rng.random((n, length)) < p)
    # Small diameters: t from one bit to L/8, so the fields keep 8 bits or more.
    t = 1 + int(t_frac * max(0, length // 8 - 1))
    rho = min(1.0, (t + 0.5) / length)
    with forced_index(), sources() as seen:
        assert_same(bits_output(reads), rho)
    assert seen["index"] == [int(rho * length) + 1 <= length]


def valid_words(length):
    """The valid bits of an L-bit read as 64-bit words; padding bits zero."""
    packed = np.zeros(-(-length // 64) * 8, dtype=np.uint8)
    packed[: -(-length // 8)] = np.packbits(np.ones(length, dtype=np.uint8))
    return packed.view(np.uint64)


def field_bits(field):
    """Positions, 64 per word, of the bits a (word, shift, mask) field reads."""
    word, shift, mask = field
    return {64 * word + shift + j for j in range(mask.bit_length()) if mask >> j & 1}


@pytest.mark.parametrize("length", [1, 7, 8, 9, 63, 64, 65, 120, 127, 240, 241, 255, 320, 481])
def test_fields_are_an_even_cut_of_the_valid_bits(length):
    words = valid_words(length).tolist()
    valid = {bit for bit in range(64 * len(words)) if words[bit // 64] >> bit % 64 & 1}
    for fields in range(1, length + 1):
        q = length // fields
        cut = decoder._fields(length, fields)
        assert len(cut) == fields
        seen = set()
        for field in cut:
            bits = field_bits(field)
            assert not bits & seen and bits <= valid
            assert len(bits) in {min(q, 57), min(q + 1, 57)}
            assert field[2] & 1 and field[2].bit_length() <= 64  # its span
            seen |= bits
        assert len(seen) == min(length, 57 * fields)


@pytest.mark.parametrize("t", [*range(1, 20), 24, 31, 32, 72, 239])
def test_cost_rule_at_240_bits_takes_the_index_up_to_17(t):
    # Random reads, whose collisions stay near chance: the rule alone decides.
    rng = np.random.default_rng(t)
    reads = rng.integers(0, 2**63, size=(300, 4)).astype(np.uint64)
    with sources() as seen:
        assert_same(packed_output(reads, 240), (t + 0.5) / 240)
    assert seen == ({"index": [True], "fields": 1} if t <= 17 else {"index": [False], "fields": 0})


class TestPigeonholeIndex:
    # 400 random reads of L = 240 bits, four words, no padding; t = 12, so
    # the index cuts 13 fields of 18 or 19 bits, three across word edges.
    length, rho = 240, 12.5 / 240

    def reads(self):
        rng = np.random.default_rng(11)
        reads = rng.integers(0, 2**63, size=(400, 4)).astype(np.uint64)
        return reads[:, : -(-self.length // 64)] & valid_words(self.length)

    def fields(self):
        return decoder._fields(self.length, 13)

    def flipped(self, row, bits):
        """row with the given bit positions flipped."""
        row = row.copy()
        for bit in bits:
            row[bit // 64] ^= np.uint64(1 << bit % 64)
        return row

    def cluster(self, reads):
        with sources() as seen:
            clusters = assert_same(packed_output(reads, self.length), self.rho)
        assert seen["index"] == [True]
        return {m: c.members for c in clusters for m in c.members}

    def test_fields_cross_word_edges_and_the_padding_gap(self):
        cut = self.fields()
        assert sum(shift + mask.bit_length() > 64 for _, shift, mask in cut) == 3
        gapped = [mask.bit_length() - mask.bit_count() for _, _, mask in cut]
        assert gapped == [0] * 12 + [-self.length % 8]

    def test_pair_at_exactly_t_bits_joins(self):
        # One difference in each field but one, for each field in turn: the
        # pair agrees on that field only.
        cut = self.fields()
        for keep in range(len(cut)):
            reads = self.reads()
            lowest = [min(field_bits(f)) for k, f in enumerate(cut) if k != keep]
            reads[250] = self.flipped(reads[100], lowest)
            assert self.cluster(reads)[100] == (100, 250)

    def test_pair_at_t_plus_one_bits_stays_apart(self):
        # One difference in each of the t + 1 fields: no field is shared.
        reads = self.reads()
        reads[250] = self.flipped(reads[100], [min(field_bits(f)) for f in self.fields()])
        label = self.cluster(reads)
        assert label[100] == (100,) and label[250] == (250,)

    def test_shared_field_beyond_t_bits_stays_apart(self):
        # The pair collides in the first field but differs in every bit of
        # the others; the distance check drops it.
        reads = self.reads()
        reads[250] = self.flipped(reads[100], set().union(*map(field_bits, self.fields()[1:])))
        label = self.cluster(reads)
        assert label[100] == (100,) and label[250] == (250,)

    def test_copies_of_earlier_reads(self):
        reads = self.reads()
        reads[250] = self.flipped(reads[100], [min(field_bits(f)) for f in self.fields()[:5]])
        reads[[260, 300, 399]] = reads[[100, 250, 3]]
        label = self.cluster(reads)
        assert label[100] == (100, 250, 260, 300) and label[3] == (3, 399)

    def test_clean_reads_with_copies(self):
        # At p = 0 each strand's reads are exact copies; the index runs on
        # one read per strand.
        params = ChannelParams(3, 0.05, 0.0)
        out = simulate_channel(random_pool(InstanceDims.from_channel(params, 256), 5), params, 6)
        with sources() as seen:
            clusters = assert_same(out, 0.05)
        assert seen["index"] == [True]
        assert count_fibers(out) == sorted(c.size for c in clusters)

    @pytest.mark.parametrize("length", [1, 3, 10])
    def test_too_few_bits_for_the_fields_take_the_scan(self, length):
        # At rho = 1, t = L: t + 1 fields of one bit or more need more bits
        # than the read has, whatever the cost.
        rng = np.random.default_rng(length)
        with forced_index(), sources() as seen:
            assert_same(bits_output(rng.integers(0, 2, size=(50, length))), 1.0)
        assert seen == {"index": [False], "fields": 0}

    def test_colliding_fields_take_the_scan_in_its_memory(self):
        # Reads equal outside the first field: every pair collides in the
        # other 12. The counted collisions price the index above the scan in
        # the second field sorted, before any pair is built, and the scan
        # runs. Its 64-row buffers (about 1.4 MB here) bound the peak.
        rng = np.random.default_rng(12)
        reads = np.tile(self.reads()[0], (2000, 1))
        for bit in field_bits(self.fields()[0]):
            reads[:, bit // 64] ^= rng.integers(0, 2, 2000).astype(np.uint64) << np.uint64(bit % 64)
        out = packed_output(reads, self.length)
        config = ClusteringConfig(rho=self.rho)
        with sources() as seen:
            peak, clusters = traced_peak(greedy_cluster, out, config)
        assert seen == {"index": [False], "fields": 1}
        assert list(clusters) == reference_greedy_cluster(out, config)
        with forced_scan():
            scan_peak, _ = traced_peak(greedy_cluster, out, config)
        assert peak <= scan_peak + 64 * 1024


class TestPigeonholeIndexAcrossThePaddingGap(TestPigeonholeIndex):
    # L = 241: the last byte holds one valid bit above a 7-bit padding gap,
    # and the last of the 13 fields (18 bits) reads across it.
    length, rho = 241, 12.5 / 241


def count_fibers(output):
    """Sorted read counts of the strands that were read."""
    counts = np.bincount(output.origins, minlength=output.pool_size)
    return sorted(counts[counts > 0].tolist())


def traced_peak(fn, *args):
    """Peak traced allocation while fn(*args) runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def finishes():
    """Records how the blocked scan finished each block cut at a word
    prefix: the hits `_finished` completed from their columns, and the
    suffix words `_sum_words` added densely. The index is turned off, so
    every greedy_cluster call takes the scan."""
    seen = {"listed": [], "dense": []}
    finished, sum_words = decoder._finished, decoder._sum_words

    def spy_finished(mat, prefix, hits, *args):
        seen["listed"].append(hits.size)
        return finished(mat, prefix, hits, *args)

    def spy_sum_words(mat, words, *args):
        if words.start:
            seen["dense"].append(words)
        return sum_words(mat, words, *args)

    with forced_scan(), \
            mock.patch.object(decoder, "_finished", spy_finished), \
            mock.patch.object(decoder, "_sum_words", spy_sum_words):
        yield seen


def prefix_words(t, length):
    """Words of a read the scan sums for every cell at diameter t."""
    return decoder._scan_words(t, -(-length // 64))


def test_scan_prefix_puts_unrelated_reads_2_5_sigma_past_t():
    # Over w words two unrelated reads differ in 32w bits on average, with
    # standard deviation 4 sqrt(w): the prefix is the fewest w < W with
    # 32w - t >= 10 sqrt(w), else all W.
    assert decoder._scan_words(72, 4) == 3  # the noisy bench point
    assert decoder._scan_words(12, 4) == 1  # the clean bench point
    assert [decoder._scan_words(t, 15) for t in range(60, 64)] == [3] * 4
    assert [decoder._scan_words(t, 2) for t in (1, 22, 23, 31)] == [1, 1, 2, 2]
    assert [decoder._scan_words(t, 8) for t in (31, 32, 49, 50)] == [2, 2, 2, 3]
    assert decoder._scan_words(239, 4) == 4


def test_wide_reads_with_t_just_below_a_word_boundary_skip_the_dense_finish():
    # L = 960 (W = 15), t = 62: over two words, 128 bits, unrelated reads
    # differ by 64 bits on average, and about 40% of them stay within t, far
    # more cells than pending reads. Three words put them 4.9 standard
    # deviations past t, so each block lists its few survivors.
    length = 960
    rng = np.random.default_rng(62)
    pool = rng.integers(0, 2, size=(150, length))
    reads = pool[rng.integers(0, 150, 300)] ^ (rng.random((300, length)) < 0.02)
    with finishes() as seen:
        clusters = assert_same(bits_output(reads), 62.5 / length)
    assert prefix_words(62, length) == 3
    assert seen["listed"] and not seen["dense"]
    assert len(clusters) < 300


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(
    length=st.one_of(st.integers(1, 320),
                     st.sampled_from([63, 65, 127, 129, 191, 193, 240, 255, 257, 319])),
    p=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    t_frac=st.floats(0.0, 1.0),
    strands=st.integers(1, 80),
    c=st.floats(0.5, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_word_prefix_cut_matches_reference_scan(length, p, t_frac, strands, c, seed):
    words = -(-length // 64)
    # With two words or more, t stays 2.5 standard deviations, 10 sqrt(W - 1)
    # bits, below the 32 (W - 1) bits unrelated reads differ by on average
    # over W - 1 words, so the scan sums fewer than W words first; a one-word
    # read has no suffix to cut.
    top = 32 * (words - 1) - 10 * math.sqrt(words - 1) if words > 1 else length
    t = 1 + int(t_frac * (int(top) - 1))
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2, size=(strands, length))
    n = max(1, round(c * strands))
    reads = pool[rng.integers(0, strands, n)] ^ (rng.random((n, length)) < p)
    # Read 1 lies one bit, in the last word, from read 0: a near pair in the
    # first block.
    reads = np.vstack([reads[:1], reads[:1], reads[1:]])
    reads[1, -1] ^= 1
    with finishes() as seen:
        assert_same(bits_output(reads), min(1.0, (t + 0.5) / length))
    cut = prefix_words(t, length) < words
    assert cut == (words > 1)
    assert bool(seen["listed"] or seen["dense"]) == cut


class TestWordPrefixCut:
    # 300 random reads of L = 240 bits at t = 72: the scan sums words 0-2
    # (192 bits) for every cell and word 3 (48 bits) for the listed ones.
    length, rho = 240, 72.5 / 240

    def reads(self):
        rng = np.random.default_rng(21)
        return rng.integers(0, 2**63, size=(300, 4)).astype(np.uint64)

    def flipped(self, row, prefix_bits, suffix_bits):
        """row with its lowest bits flipped: `prefix_bits` of word 0 and
        `suffix_bits` of word 3, the suffix word."""
        row = row.copy()
        row[0] ^= np.uint64((1 << prefix_bits) - 1)
        row[3] ^= np.uint64((1 << suffix_bits) - 1)
        return row

    def cluster(self, reads):
        with finishes() as seen:
            clusters = assert_same(packed_output(reads, self.length), self.rho)
        assert prefix_words(72, self.length) == 3
        return {m: c.members for c in clusters for m in c.members}, seen

    def test_pair_at_exactly_t_bits_joins(self):
        # 48 of the 72 differences lie in the suffix word.
        reads = self.reads()
        reads[250] = self.flipped(reads[100], 24, 48)
        label, seen = self.cluster(reads)
        assert label[100] == (100, 250)
        assert seen["listed"] and not seen["dense"]

    def test_pair_within_t_on_the_prefix_but_t_plus_one_apart_stays_apart(self):
        # 25 bits apart on the prefix, 73 in full.
        reads = self.reads()
        reads[250] = self.flipped(reads[100], 25, 48)
        label, seen = self.cluster(reads)
        assert label[100] == (100,) and label[250] == (250,)
        assert seen["listed"] and not seen["dense"]

    def test_prefix_survivors_beyond_the_pending_reads_take_the_dense_finish(self):
        # L = 320, t = 72: reads share their first three words up to a few
        # flips and differ at random in the last two (128 bits), so every
        # cell survives the prefix and the full distances straddle t.
        length = 320
        rng = np.random.default_rng(22)
        reads = rng.integers(0, 2**63, size=(150, 5)).astype(np.uint64)
        reads[:, :3] = reads[0, :3]
        for i in range(150):
            for bit in rng.choice(192, 4, replace=False).tolist():
                reads[i, bit // 64] ^= np.uint64(1 << bit % 64)
        with finishes() as seen:
            clusters = assert_same(packed_output(reads, length), 72.5 / length)
        assert seen["dense"] and seen["dense"][0] == range(3, 5)
        assert 1 < len(clusters) < 150

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_reads_and_one_read(self, n):
        with finishes() as seen:
            clusters = assert_same(packed_output(self.reads()[:n], self.length), self.rho)
        assert clusters == [Cluster((0,))] * n
        assert seen == {"listed": [], "dense": []}
