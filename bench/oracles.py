"""Reference values the benchmark checks dnarate's outputs against.

Everything here is computed from scipy and numpy alone, never from dnarate,
so a defect in the package cannot hide in its own reference.
"""

import math

import numpy as np

BETA, P = 0.05, 0.1

# Acceptance targets and tolerances (tests/test_acceptance.py, criteria 1-3).
CAPACITY_TARGETS = {1: 0.370762, 2: 0.590899, 4: 0.807848, 6: 0.892294, 8: 0.926173, 10: 0.940040}
CAPACITY_TOL = 1e-4
LIMIT_TARGETS = {  # c -> (threshold draw count d*, large-K rate at r_ix = 0.999 C_d*)
    1: (1, 0.364443),
    2: (1, 0.574362),
    4: (1, 0.776161),
    6: (2, 0.871261),
    8: (2, 0.908990),
    10: (3, 0.930767),
}
LIMIT_TOL = 5e-4
FINITE_K_TARGETS = {(2, 100): 0.509697, (10, 10_000): 0.928672}
FINITE_K_TOL = 0.01
# Exact against Monte-Carlo: 5 binomial standard errors plus the truncation mass.
MC_SIGMAS = 5.0


def multi_draw_capacity(d, p):
    """Capacity of one bit seen through d independent BSC(p) copies."""
    if d == 0:
        return 0.0
    if p == 0.0:
        return 1.0
    from scipy.stats import binom

    b = binom.pmf(np.arange(d + 1), d, p)
    ratio = np.where(b > 0.0, b / (b + b[::-1]), 1.0)
    return min(max(1.0 + float(np.dot(b, np.log2(ratio))), 0.0), 1.0)


def zero_noise_capacity(c, beta):
    """Closed form of the p = 0 capacity, (1 - e^-c)(1 - beta).

    Shomorony & Heckel, "DNA-Based Storage: Models and Fundamental Limits",
    IEEE T-IT 2021.
    """
    return -math.expm1(-c) * (1.0 - beta)


def gated_pmf(c, p, r_ix, tail=1e-16):
    """Poisson(c) masses and index-gated capacities of one strand's draw count,
    for d = 0 .. D with the upper tail beyond D below `tail`."""
    from scipy.stats import poisson

    d_top = int(poisson.isf(tail, c)) + 1
    pmf = poisson.pmf(np.arange(d_top + 1), c)
    caps = np.array([multi_draw_capacity(d, p) for d in range(d_top + 1)])
    return pmf, np.where(caps > r_ix, caps, 0.0)


def outer_rate_bracket(pmf, g, K, r_in, max_cells=1 << 22):
    """Certified [lo, hi] around P(mean of K i.i.d. gated capacities > r_in).

    The gated capacities are rounded down and up onto a lattice, the K-fold
    convolution is taken by FFT on a window that Bernstein's inequality
    says holds all but 1e-12 of the sum's mass, and the two rounded sums
    bracket the true one. `pmf` may be a sub-probability vector; its missing
    mass is added to the upper end.
    """
    mean = float(pmf @ g)
    var = float(pmf @ (g - mean) ** 2)
    # Bernstein for summands in [0, 1]: P(|S - K mean| > t) <= 2 exp(-t^2 / (2(K var + t/3))).
    log_term = math.log(2e12)
    t = log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * log_term * K * var)
    s_lo = max(0.0, K * mean - t)
    s_hi = min(K * float(g.max()), K * mean + t)
    n = 1 << 12
    while n < max_cells and K * 10.0 / n > 1e-3:
        n <<= 1
    delta = max(s_hi - s_lo, 1e-9) / (n - 2 * K - 2)
    base = math.floor(s_lo / delta) - K
    lattice = base + (np.arange(n) - base) % n  # true sum index of each bin
    above = lattice * delta > K * r_in
    bounds = []
    for rounding in (np.floor, np.ceil):
        cells = np.zeros(n)
        np.add.at(cells, rounding(g / delta).astype(np.int64) % n, pmf)
        dist = np.fft.irfft(np.fft.rfft(cells) ** K, n)
        bounds.append(float(dist[above].sum()))
    slack = 1e-8 + 4e-12
    missing = K * max(0.0, 1.0 - float(pmf.sum()))
    return max(0.0, bounds[0] - slack), min(1.0, bounds[1] + missing + slack)


def within_mc(exact, truncation, mc_value, samples):
    """Exact against Monte-Carlo: within 5 binomial stderr plus truncation."""
    var = max(exact * (1.0 - exact), 1.0 / samples)
    return abs(mc_value - exact) <= MC_SIGMAS * math.sqrt(var / samples) + truncation


def within_bracket(lo, hi, mc_value, samples):
    """Monte-Carlo value inside a certified bracket, widened by 5 stderr."""
    q = 0.5 * (lo + hi)
    sigma = math.sqrt(max(q * (1.0 - q), 1.0 / samples) / samples)
    return lo - MC_SIGMAS * sigma <= mc_value <= hi + MC_SIGMAS * sigma
