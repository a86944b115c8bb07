"""Generative model of the pooled-strand channel.

Strand pools are matrices of uniform random bits, reads are drawn uniformly
with replacement and perturbed by independent bit flips, and draw-count
histograms summarise how often each strand (and each block of K strands) was
seen. Bit vectors are stored packed, eight per byte, because Hamming
distances over the whole read set dominate the decoder's runtime.
"""

import math
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .multidraw import _check_block_size, _check_count, _check_index_overhead, poisson_pmf_vec
from .seeding import substream

__all__ = [
    "InstanceDims",
    "StrandPool",
    "ChannelOutput",
    "DrawHistogram",
    "random_pool",
    "simulate_channel",
    "draw_histogram",
    "poisson_deviation",
    "hamming_to_row",
    "pack_bits",
    "unpack_bits",
    "dump_channel",
    "load_channel",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"DNAC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQQQ")

# Unpacked bits of channel noise drawn per batch (1 MB of float64 uniforms).
_NOISE_BATCH_BITS = 1 << 17


def pack_bits(bits):
    """Pack a (rows, L) 0/1 matrix into bytes, zero-padded to whole bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), axis=1)


def unpack_bits(packed, length):
    """Inverse of pack_bits, trimming the padding back to `length` columns."""
    return np.unpackbits(packed, axis=1, count=length)


def hamming_to_row(packed, row):
    """Hamming distances from one packed bit vector to many."""
    return np.bitwise_count(packed ^ row).sum(axis=1, dtype=np.int64)


@dataclass(frozen=True)
class InstanceDims:
    """Concrete instance sizes: M strands of L bits, N reads."""

    M: int
    L: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.L < 1 or self.N < 0:
            raise ValueError(f"invalid dimensions M={self.M}, L={self.L}, N={self.N}")

    @classmethod
    def from_channel(cls, params, M, K=1):
        """Derive L and N from channel parameters: L = ceil(log2(M)/beta),
        N = round(c*M). Blocks of K strands must tile the pool exactly."""
        M = _check_count(M, "M", positive=True)
        _check_block_size(K, M)
        L = math.ceil(math.log2(M) / params.beta) if M > 1 else math.ceil(1 / params.beta)
        return cls(M=M, L=L, N=round(params.c * M))

    def payload_length(self, beta, r_ix):
        """Bits per strand left for data once the coded index is carved out."""
        r_ix = _check_index_overhead(beta, r_ix)
        return self.L * (1.0 - beta / r_ix)


@dataclass(frozen=True)
class StrandPool:
    """M stored strands of L bits each, packed row-wise."""

    bits: np.ndarray  # (M, ceil(L/8)) uint8
    length: int

    @property
    def M(self):
        return self.bits.shape[0]


@dataclass(frozen=True)
class ChannelOutput:
    """Reads produced by one channel use, with the hidden ground truth.

    `origins` records which strand each read came from (0-based) and
    `flip_counts` the Hamming weight of each read's error pattern.
    flip_counts is None for outputs restored from a replay dump, where the
    originating pool is not stored.
    """

    reads: np.ndarray  # (N, ceil(L/8)) uint8
    origins: np.ndarray  # (N,) int64
    flip_counts: np.ndarray | None
    length: int
    pool_size: int

    @property
    def N(self):
        return self.reads.shape[0]


@dataclass(frozen=True)
class DrawHistogram:
    """Draw statistics of one channel use.

    per_strand[i] counts reads of strand i; per_block maps each block's draw
    vector (kept in strand order, not sorted) to the number of blocks showing
    exactly that vector.
    """

    per_strand: np.ndarray
    per_block: dict = field(repr=False)
    block_size: int


def random_pool(dims, seed):
    """Pool of M i.i.d. uniform bit strands; deterministic per seed.

    Uniform strands stand in for coded payloads: symbols of the outer code
    are marginally uniform, so the decoder-facing statistics match.
    """
    rng = substream(seed, "pool")
    bits = rng.integers(0, 2, size=(dims.M, dims.L), dtype=np.uint8)
    return StrandPool(bits=pack_bits(bits), length=dims.L)


def simulate_channel(pool, params, seed):
    """Draw N = round(c*M) reads uniformly with replacement and flip bits.

    Every read is its origin strand XOR an i.i.d. Ber(p) error pattern.
    Deterministic per seed; noise is generated in batches to bound memory,
    and the batch size does not change the output. At p = 0 no read can flip,
    so no flip is drawn.
    """
    rng = substream(seed, "channel")
    M, L = pool.M, pool.length
    N = round(params.c * M)
    origins = rng.integers(0, M, size=N, dtype=np.int64)
    reads = pool.bits[origins].copy()
    flip_counts = np.zeros(N, dtype=np.int64)
    batch = max(1, _NOISE_BATCH_BITS // L)
    if params.p > 0:
        for start in range(0, N, batch):
            stop = min(N, start + batch)
            flips = np.packbits(rng.random((stop - start, L)) < params.p, axis=1)
            flip_counts[start:stop] = np.bitwise_count(flips).sum(axis=1, dtype=np.int64)
            reads[start:stop] ^= flips
    return ChannelOutput(
        reads=reads,
        origins=origins,
        flip_counts=flip_counts,
        length=L,
        pool_size=M,
    )


def draw_histogram(output, K):
    """Count per-strand draws and group them into per-block draw vectors."""
    M = output.pool_size
    K = _check_block_size(K, M)
    per_strand = np.bincount(output.origins, minlength=M).astype(np.int64)
    blocks = per_strand.reshape(M // K, K)
    per_block = dict(Counter(map(tuple, blocks.tolist())))
    return DrawHistogram(per_strand=per_strand, per_block=per_block, block_size=K)


def poisson_deviation(hist, params):
    """Total-variation style distance between observed block draw vectors and
    the product-Poisson prediction, scaled by 1/M.

    The sum sum_v |n_v - e_v| / M ranges over every draw vector v, where n_v
    counts the blocks showing v and e_v = (M/K) * prod_i p_c(v_i) is its
    predicted count. The unobserved vectors contribute their predicted counts,
    which total M/K minus the observed vectors' e_v, so the sum is taken in
    closed form over the observed vectors alone, whatever K is. The value is
    (2/K) times the total-variation distance between the empirical law of a
    block's draw vector and the product-Poisson law.
    """
    M = int(hist.per_strand.size)
    blocks = M // hist.block_size
    pairs = [(n, blocks * poisson_pmf_vec(params.c, v)) for v, n in hist.per_block.items()]
    unobserved = max(0.0, blocks - math.fsum(e for _, e in pairs))
    return (math.fsum(abs(n - e) for n, e in pairs) + unobserved) / M


def dump_channel(output, path):
    """Write a channel output for later replay.

    Little-endian layout: magic 'DNAC', version u16, M u64, L u64, N u64,
    then the packed reads row-major, then the 0-based origins as u64.
    """
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, output.pool_size, output.length, output.N
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(output.reads).tobytes())
        fh.write(output.origins.astype("<u8").tobytes())


def load_channel(path):
    """Read back a channel dump written by dump_channel."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"truncated channel dump: {path}")
    magic, version, M, L, N = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"not a channel dump (bad magic): {path}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported channel dump version {version}: {path}")
    if M < 1 or L < 1:
        raise ValueError(f"channel dump has M={M}, L={L}; both must be >= 1: {path}")
    width = (L + 7) // 8
    need = _HEADER.size + N * width + N * 8
    if len(raw) != need:
        raise ValueError(f"channel dump has {len(raw)} bytes, expected {need}: {path}")
    reads = np.frombuffer(
        raw, dtype=np.uint8, count=N * width, offset=_HEADER.size
    ).reshape(N, width)
    origins = np.frombuffer(
        raw, dtype="<u8", count=N, offset=_HEADER.size + N * width
    ).astype(np.int64)
    if N and origins.max(initial=0) >= M:
        raise ValueError(f"channel dump origin out of range: {path}")
    # dump_channel pads each read with zero bits; clustering distances would
    # count any that are set
    if L % 8 and (reads[:, -1] & ((1 << (8 - L % 8)) - 1)).any():
        raise ValueError(f"channel dump has nonzero padding bits past L={L}: {path}")
    return ChannelOutput(
        reads=reads.copy(),
        origins=origins,
        flip_counts=None,
        length=int(L),
        pool_size=int(M),
    )
