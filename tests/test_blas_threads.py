"""Every mixture gives the same bits for any OpenBLAS thread count.

The mixtures in `channel_capacity` and `mean_gated_capacity` pass 10,000
terms from c of about 9,300, and a capacity level's binomial sum from
d = 10,000. At that length OpenBLAS runs a 1-D dot on its own threads, in an
order set by their number. `multidraw._mixture` is numpy's pairwise sum
instead, on the calling thread, so the package makes no BLAS call and the
order of each sum depends only on its length. Each thread count needs a fresh
interpreter: OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads it.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnarate
from dnarate import multidraw

SCRIPT = """
from dnarate import ChannelParams, channel_capacity, mean_gated_capacity, multi_draw_capacity
for c in (1e4, 3e4):
    params = ChannelParams(c, 0.05, 0.1)
    print(repr(channel_capacity(params)), repr(mean_gated_capacity(params, 0.5)))
print(repr(multi_draw_capacity(10_001, 0.49)))  # 10,002 binomial terms
"""


def mixtures(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(dnarate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_same_bits_under_one_and_two_openblas_threads():
    one = mixtures(1)
    assert one == mixtures(2)
    assert one[0].split()[0] == "0.9499999999990015"  # c = 10^4, 10,712 terms


@pytest.mark.parametrize("size", [10_001, 100_000])
def test_long_mixtures_are_within_a_few_ulps_of_fsum(size):
    rng = np.random.default_rng(size)
    pmf, values = rng.random(size), rng.random(size)
    pmf /= pmf.sum()
    exact = math.fsum((pmf * values).tolist())
    assert abs(multidraw._mixture(pmf, values) - exact) <= 4 * math.ulp(exact)
