"""Deterministic RNG substream derivation.

Every stochastic component draws its generator from (master seed, subsystem
tag, stream index). Chunked consumers own one substream per chunk and combine
partial results in chunk order, so outputs never depend on scheduling or on
the number of worker threads.
"""

import zlib
from concurrent import futures

import numpy as np

_MASK64 = (1 << 64) - 1


def stream_seed(seed, tag, index=0):
    """Entropy tuple identifying one substream of a master seed."""
    return (int(seed) & _MASK64, zlib.crc32(tag.encode("utf-8")), int(index))


def substream(seed, tag, index=0):
    """Generator for the (tag, index) substream of an integer master seed."""
    ss = np.random.SeedSequence(stream_seed(seed, tag, index))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed, tag, index=0):
    """Collapse a substream identity back into a single 64-bit integer seed.

    Used when a sub-component exposes only an integer seed argument.
    """
    ss = np.random.SeedSequence(stream_seed(seed, tag, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _check_threads(threads):
    if not threads >= 1:
        raise ValueError(f"threads out of range: must be >= 1, got {threads!r}")


def _map_chunks(fn, n_chunks, threads):
    """[fn(0), ..., fn(n_chunks - 1)], computed on up to `threads` threads."""
    if threads > 1 and n_chunks > 1:
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n_chunks)))
    return [fn(i) for i in range(n_chunks)]
