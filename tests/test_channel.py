import hashlib
import math
import re
import time

import numpy as np
import pytest
from scipy.stats import poisson

from dnarate import (
    ChannelOutput,
    ChannelParams,
    InstanceDims,
    draw_histogram,
    dump_channel,
    hamming_to_row,
    load_channel,
    pack_bits,
    poisson_deviation,
    random_pool,
    simulate_channel,
    unpack_bits,
)
from dnarate import channel as channel_module
from dnarate.seeding import substream

PARAMS = ChannelParams(c=2, beta=0.05, p=0.1)


def make_output(bit_rows, origins, pool_size):
    bits = np.array(bit_rows, dtype=np.uint8)
    return ChannelOutput(
        reads=pack_bits(bits),
        origins=np.asarray(origins, dtype=np.int64),
        flip_counts=None,
        length=bits.shape[1],
        pool_size=pool_size,
    )


class TestInstanceDims:
    def test_derived_sizes(self):
        dims = InstanceDims.from_channel(PARAMS, 1024)
        assert dims.L == 200  # ceil(10 / 0.05)
        assert dims.N == 2048

    def test_block_tiling_enforced(self):
        with pytest.raises(ValueError):
            InstanceDims.from_channel(PARAMS, 1000, K=3)
        assert InstanceDims.from_channel(PARAMS, 1024, K=4).M == 1024

    @pytest.mark.parametrize("K", [2.0, True, 0, -2])
    def test_block_size_is_a_positive_integer(self, K):
        message = re.escape(f"K out of range: must be a positive integer, got {K!r}")
        with pytest.raises(ValueError, match=message):
            InstanceDims.from_channel(PARAMS, 64, K)

    @pytest.mark.parametrize("M, L, N", [(0, 1, 1), (1, 0, 1), (1, 1, -1)])
    def test_rejects_empty_pool_or_strands_and_negative_reads(self, M, L, N):
        with pytest.raises(ValueError, match="invalid dimensions"):
            InstanceDims(M, L, N)

    def test_one_tiling_message(self):
        # the library's four tiling checks share one message
        message = re.escape("K (3) must divide the number of strands M (64)")
        with pytest.raises(ValueError, match=message):
            InstanceDims.from_channel(PARAMS, 64, 3)
        with pytest.raises(ValueError, match=message):
            draw_histogram(make_output(np.zeros((1, 8)), [0], pool_size=64), 3)

    def test_payload_length(self):
        dims = InstanceDims.from_channel(PARAMS, 1024)
        payload = dims.payload_length(0.05, 0.5304)
        assert payload == pytest.approx(200 * (1 - 0.05 / 0.5304))
        with pytest.raises(ValueError):
            dims.payload_length(0.5, 0.4)


class TestRandomPool:
    def test_deterministic(self):
        dims = InstanceDims(M=2, L=8, N=0)
        a = random_pool(dims, 77)
        b = random_pool(dims, 77)
        assert np.array_equal(a.bits, b.bits)
        assert not np.array_equal(a.bits, random_pool(dims, 78).bits)

    def test_bits_are_balanced(self):
        dims = InstanceDims(M=1024, L=200, N=0)
        pool = random_pool(dims, 0)
        mean = unpack_bits(pool.bits, 200).mean()
        assert 0.49 <= mean <= 0.51

    def test_pools_are_well_separated(self):
        # distinct uniform strands collide in few positions: with L = 200 the
        # chance any of the ~5e5 pairs comes within 0.3 L is about 2e-9
        dims = InstanceDims(M=1024, L=200, N=0)
        for seed in range(10):
            pool = random_pool(dims, seed)
            min_dist = min(
                int(hamming_to_row(pool.bits[i + 1 :], pool.bits[i]).min())
                for i in range(pool.M - 1)
            )
            assert min_dist > 0.3 * 200


class TestSimulateChannel:
    def test_noiseless_reads_equal_origins(self):
        dims = InstanceDims.from_channel(ChannelParams(2, 0.05, 0.0), 256)
        pool = random_pool(dims, 1)
        out = simulate_channel(pool, ChannelParams(2, 0.05, 0.0), 2)
        assert (out.flip_counts == 0).all()
        assert np.array_equal(out.reads, pool.bits[out.origins])

    def test_flip_counts_concentrate(self):
        dims = InstanceDims(M=512, L=200, N=1024)
        pool = random_pool(dims, 3)
        out = simulate_channel(pool, PARAMS, 4)
        mean = out.flip_counts.mean()
        assert 0.09 * 200 <= mean <= 0.11 * 200

    def test_flip_counts_match_reads(self):
        dims = InstanceDims(M=64, L=50, N=128)
        pool = random_pool(dims, 5)
        out = simulate_channel(pool, PARAMS, 6)
        dist = np.array(
            [hamming_to_row(out.reads[j : j + 1], pool.bits[out.origins[j]])[0]
             for j in range(out.N)]
        )
        assert np.array_equal(dist, out.flip_counts)

    def test_read_count_identity(self):
        dims = InstanceDims.from_channel(PARAMS, 1024)
        out = simulate_channel(random_pool(dims, 7), PARAMS, 8)
        hist = draw_histogram(out, 1)
        assert hist.per_strand.sum() == out.N == 2048

    def test_reproducible_bytes(self):
        dims = InstanceDims.from_channel(PARAMS, 256)
        a = simulate_channel(random_pool(dims, 11), PARAMS, 12)
        b = simulate_channel(random_pool(dims, 11), PARAMS, 12)
        assert np.array_equal(a.reads, b.reads)
        assert np.array_equal(a.origins, b.origins)
        assert np.array_equal(a.flip_counts, b.flip_counts)

    # sha256 prefixes of reads + origins + flip_counts, pool seed 11, channel
    # seed 12, M=512; recorded when noise came in 2^24-bit batches.
    @pytest.mark.parametrize(
        "c,p,digest",
        [
            (2, 0.1, "db55edfe4e1345d4"),
            (3, 0.0, "ad484d15f53408a0"),
            (1.5, 0.3, "2f191dac57f33672"),
        ],
    )
    @pytest.mark.parametrize("batch_bits", [1 << 12, 1 << 20])
    def test_output_pinned_across_noise_batch_sizes(self, monkeypatch, c, p, digest, batch_bits):
        monkeypatch.setattr(channel_module, "_NOISE_BATCH_BITS", batch_bits)
        params = ChannelParams(c, 0.05, p)
        out = simulate_channel(random_pool(InstanceDims.from_channel(params, 512), 11), params, 12)
        raw = out.reads.tobytes() + out.origins.tobytes() + out.flip_counts.tobytes()
        assert hashlib.sha256(raw).hexdigest()[:16] == digest

    @staticmethod
    def reference_channel(pool, params, seed):
        """simulate_channel as it drew the noise before the flips were
        packed straight from the comparison: a uint8 copy of each batch,
        summed per read, then packed."""
        rng = substream(seed, "channel")
        M, L = pool.M, pool.length
        N = round(params.c * M)
        origins = rng.integers(0, M, size=N, dtype=np.int64)
        reads = pool.bits[origins].copy()
        flip_counts = np.zeros(N, dtype=np.int64)
        batch = max(1, channel_module._NOISE_BATCH_BITS // L)
        if params.p > 0:
            for start in range(0, N, batch):
                stop = min(N, start + batch)
                flips = (rng.random((stop - start, L)) < params.p).astype(np.uint8)
                flip_counts[start:stop] = flips.sum(axis=1)
                reads[start:stop] ^= pack_bits(flips)
        return reads, origins, flip_counts

    @pytest.mark.parametrize("p", [0.0, 0.001, 0.1, 0.5])
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 240, 241])
    def test_same_bytes_as_the_unpacked_noise(self, monkeypatch, p, length):
        # 2^10-bit batches: N = 1200 reads span two batches at L = 1 and
        # hundreds at L = 241.
        monkeypatch.setattr(channel_module, "_NOISE_BATCH_BITS", 1 << 10)
        assert 1200 > (1 << 10) // length
        params = ChannelParams(2, 0.05, p)
        pool = random_pool(InstanceDims(M=600, L=length, N=1200), 31)
        out = simulate_channel(pool, params, 32)
        reads, origins, flip_counts = self.reference_channel(pool, params, 32)
        assert out.N == 1200
        assert np.array_equal(out.reads, reads)
        assert np.array_equal(out.origins, origins)
        assert out.flip_counts.dtype == np.int64
        assert np.array_equal(out.flip_counts, flip_counts)
        assert (flip_counts.sum() > 0) == (p > 0)

    def test_noiseless_draws_the_same_origins(self):
        # p only drives the flips, which are drawn after the origins.
        dims = InstanceDims.from_channel(PARAMS, 256)
        pool = random_pool(dims, 13)
        clean = simulate_channel(pool, ChannelParams(2, 0.05, 0.0), 14)
        noisy = simulate_channel(pool, PARAMS, 14)
        assert np.array_equal(clean.origins, noisy.origins)
        assert np.array_equal(clean.reads, pool.bits[clean.origins])


class TestDrawHistogram:
    def test_no_reads(self):
        out = make_output(np.zeros((0, 8)), [], pool_size=8)
        hist = draw_histogram(out, 2)
        assert (hist.per_strand == 0).all()
        assert hist.per_block == {(0, 0): 4}

    def test_hand_counts(self):
        out = make_output(np.zeros((3, 8)), [0, 0, 2], pool_size=4)
        hist = draw_histogram(out, 2)
        assert hist.per_strand.tolist() == [2, 0, 1, 0]
        assert hist.per_block == {(2, 0): 1, (1, 0): 1}

    def test_blocks_partition_the_pool(self):
        dims = InstanceDims.from_channel(PARAMS, 512)
        out = simulate_channel(random_pool(dims, 13), PARAMS, 14)
        for K in (1, 2, 4):
            hist = draw_histogram(out, K)
            assert sum(hist.per_block.values()) == 512 // K
            assert hist.per_strand.sum() == out.N

    def test_block_size_must_divide(self):
        out = make_output(np.zeros((1, 8)), [0], pool_size=4)
        with pytest.raises(ValueError):
            draw_histogram(out, 3)

    @pytest.mark.parametrize("K", [4.7, 2.0, True, 0])
    def test_block_size_must_be_a_positive_integer(self, K):
        # K = 4.7 used to be floored to 4
        out = make_output(np.zeros((1, 8)), [0], pool_size=4)
        with pytest.raises(ValueError, match="K out of range: must be a positive integer"):
            draw_histogram(out, K)


class TestPoissonDeviation:
    def test_small_at_scale(self):
        dims = InstanceDims.from_channel(PARAMS, 10**5, K=2)
        out = simulate_channel(random_pool(dims, 0), PARAMS, 1)
        dev = poisson_deviation(draw_histogram(out, 2), PARAMS)
        assert dev < 0.02

    def test_degenerate_tiny_reading_rate(self):
        params = ChannelParams(c=1e-9, beta=0.05, p=0.1)
        out = make_output(np.zeros((0, 8)), [], pool_size=1024)
        hist = draw_histogram(out, 2)
        assert poisson_deviation(hist, params) < 1e-6

    def test_marginal_distribution_close_to_poisson(self):
        # pooled per-strand draw counts vs the predicted distribution
        dims = InstanceDims.from_channel(PARAMS, 10**5)
        out = simulate_channel(random_pool(dims, 21), PARAMS, 22)
        hist = draw_histogram(out, 1)
        counts = np.bincount(hist.per_strand, minlength=40)[:40]
        empirical = counts / hist.per_strand.size
        d = np.arange(40)
        predicted = np.exp(-2.0 + d * math.log(2.0) -
                           np.array([math.lgamma(x + 1) for x in d]))
        tv = 0.5 * np.abs(empirical - predicted).sum()
        assert tv < 0.01

    def test_blocks_nearly_independent(self):
        dims = InstanceDims.from_channel(PARAMS, 10**5, K=2)
        out = simulate_channel(random_pool(dims, 31), PARAMS, 32)
        per_strand = draw_histogram(out, 2).per_strand
        halves = per_strand.reshape(-1, 2)
        corr = np.corrcoef(halves[:, 0], halves[:, 1])[0, 1]
        assert abs(corr) < 0.02


def box_deviation(hist, c, D):
    """poisson_deviation recomputed by brute force: every vector of the box
    [0, D]^K, plus the observed vectors that fall outside it."""
    K, M = hist.block_size, hist.per_strand.size
    blocks = M // K
    pmf = poisson.pmf(np.arange(D + 1), c)
    grids = np.meshgrid(*[np.arange(D + 1)] * K, indexing="ij")
    expected = blocks * np.prod([pmf[g] for g in grids], axis=0)
    observed = np.zeros_like(expected)
    outside = []
    for vec, n in hist.per_block.items():
        if max(vec) <= D:
            observed[vec] = n
        else:
            outside.append(abs(n - blocks * np.prod(poisson.pmf(vec, c))))
    return (math.fsum(np.abs(observed - expected).ravel()) + math.fsum(outside)) / M


def histogram_at(M, K):
    dims = InstanceDims.from_channel(PARAMS, M, K=K)
    return draw_histogram(simulate_channel(random_pool(dims, 0), PARAMS, 1), K)


class TestPoissonDeviationEveryVector:
    @pytest.mark.parametrize("M, K, D", [(1000, 2, 30), (10**5, 2, 30), (4096, 4, 25)])
    def test_matches_box_oracle(self, M, K, D):
        hist = histogram_at(M, K)
        assert poisson_deviation(hist, PARAMS) == pytest.approx(
            box_deviation(hist, PARAMS.c, D), abs=1e-15
        )

    @pytest.mark.parametrize("M, K", [(3072, 6), (4096, 8)])
    def test_bounded_time_at_large_block_size(self, M, K):
        hist = histogram_at(M, K)
        start = time.perf_counter()
        dev = poisson_deviation(hist, PARAMS)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(dev) and 0.0 <= dev <= 2.0 / K


class TestReplayDump:
    def test_round_trip(self, tmp_path):
        dims = InstanceDims.from_channel(PARAMS, 128)
        out = simulate_channel(random_pool(dims, 41), PARAMS, 42)
        path = tmp_path / "chan.bin"
        dump_channel(out, path)
        back = load_channel(path)
        assert back.pool_size == out.pool_size
        assert back.length == out.length
        assert np.array_equal(back.reads, out.reads)
        assert np.array_equal(back.origins, out.origins)
        assert back.flip_counts is None

    def test_header_layout(self, tmp_path):
        out = make_output([[1, 0, 1, 0, 1, 0, 1, 0]], [3], pool_size=4)
        path = tmp_path / "chan.bin"
        dump_channel(out, path)
        raw = path.read_bytes()
        assert raw[:4] == b"DNAC"
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:14], "little") == 4  # M
        assert int.from_bytes(raw[14:22], "little") == 8  # L
        assert int.from_bytes(raw[22:30], "little") == 1  # N
        assert len(raw) == 30 + 1 * 1 + 8

    def test_rejects_set_padding_bits(self, tmp_path):
        # two reads with the same 100 data bits; read 1 also sets the 4
        # padding bits of its last byte, which clustered them apart at rho = 0.03
        out = make_output(np.zeros((2, 100), dtype=np.uint8), [0, 1], pool_size=2)
        out.reads[1, -1] = 0x0F
        path = tmp_path / "padded.bin"
        dump_channel(out, path)
        with pytest.raises(ValueError, match="padding bits"):
            load_channel(path)

    def test_rejects_corruption(self, tmp_path):
        dims = InstanceDims.from_channel(PARAMS, 64)
        out = simulate_channel(random_pool(dims, 51), PARAMS, 52)
        path = tmp_path / "chan.bin"
        dump_channel(out, path)
        raw = path.read_bytes()
        at = 30 + out.reads.size  # the first origin, after the header and the reads
        cases = {
            r"has \d+ bytes, expected": raw[:-4],
            "truncated channel dump": raw[:29],
            "bad magic": b"X" + raw[1:],
            "unsupported channel dump version 2": raw[:4] + (2).to_bytes(2, "little") + raw[6:],
            "origin out of range": raw[:at] + (64).to_bytes(8, "little") + raw[at + 8:],
        }
        for match, corrupt in cases.items():
            path.write_bytes(corrupt)
            with pytest.raises(ValueError, match=match):
                load_channel(path)
