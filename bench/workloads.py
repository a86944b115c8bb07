"""The benchmark's workloads: op cycles drawn from a seed, and output checks.

A workload is a fixed cycle of ops that the client runs in a closed loop,
one op at a time. `build` only draws the inputs and needs nothing but
dnarate; `prepare` computes the reference values the checks use and runs
after the set-up timer has stopped. A check returns a list of problems;
an empty list means the op's output passed. No check compares Monte-Carlo
values or random streams bit for bit.
"""

import contextlib
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import dnarate
from dnarate import ChannelParams, SchemeParams, cli, decoder, rates
from oracles import (
    CAPACITY_TARGETS,
    CAPACITY_TOL,
    FINITE_K_TARGETS,
    FINITE_K_TOL,
    LIMIT_TARGETS,
    LIMIT_TOL,
    gated_pmf,
    outer_rate_bracket,
    within_bracket,
    within_mc,
    zero_noise_capacity,
)

BETA, P = 0.05, 0.1
MC_SAMPLES = 1 << 17  # two MC_CHUNK chunks, so both library threads work
OPT_SAMPLES = 10_000
REF_SAMPLES = 1 << 16
# Monte-Carlo part: (c, K) of the MC points and (c, K, samples) of the
# optimiser points. Every op stays within a few seconds, so each repeats
# several times in a run: the MC point c = 10, K = 1000 and 10^4 optimiser
# samples at K = 10^4 (3 and 5 s a call) are left out for that.
MC_POINTS = ((2, 10), (10, 10), (2, 100), (10, 100), (2, 1000))
OPT_POINTS = ((2, 100, OPT_SAMPLES), (2, 1000, OPT_SAMPLES), (10, 10_000, 2_000))
TAIL_EPS = 1e-12


@dataclass
class Op:
    kind: str
    name: str
    params: dict
    run: Callable  # run(exec_seed) -> result
    check: Callable  # check(result) -> list of problems


@dataclass
class Workload:
    name: str
    threads: int
    cycle: list
    prepare: Callable = lambda: None
    summary: Callable = lambda: []  # problems over the whole run
    notes: dict = field(default_factory=dict)
    warmup: list = None  # ops run once during set-up; None: warmup_ops picks them

    def warmup_ops(self):
        """The first op of each kind; each kind's cheapest op comes first."""
        if self.warmup is not None:
            return self.warmup
        seen = {}
        for op in self.cycle:
            seen.setdefault(op.kind, op)
        return list(seen.values())


def exec_seed(seed, index):
    """Seed of the index-th op execution, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 0xB3, index]).generate_state(1, np.uint64)[0] >> 1)


def run_cli(argv):
    """dnarate.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _kv(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            out[key.strip()] = val.strip()
    return out


def _near(label, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{label}: {got!r} vs {want!r} (tol {tol:g})"]
    return []


def _rate_consistent(label, overall, r_out, r_in, r_ix, tol=1e-12):
    return _near(f"{label} overall = r_out r_in (1 - beta/r_ix)", overall,
                 r_out * r_in * (1.0 - BETA / r_ix), tol)


def _optimize_problems(label, res, method):
    problems = []
    if res.rate.method != method:
        problems.append(f"{label}: method {res.rate.method}, expected {method}")
    s = res.scheme
    problems += _near(f"{label} r_out", s.r_out, res.rate.value, 0.0)
    problems += _rate_consistent(label, res.overall, s.r_out, s.r_in, s.r_ix)
    if not 0.0 < res.overall < 1.0:
        problems.append(f"{label}: overall {res.overall} outside (0, 1)")
    return problems


# ---------------------------------------------------------------------------
# analysis: the exact part, then the Monte-Carlo part


def analysis_exact(seed, threads):
    """Exact-enumeration part of the analysis workload (single-threaded)."""
    rng = np.random.default_rng([seed, 1])
    refs = {}
    cycle = []

    # Criterion-6 style points, stratified: every (K, c) pair once, so each
    # seed carries the same enumeration work and only the rates differ.
    for K in (1, 2, 3, 4):
        for c in (1, 2):
            r_ix = float(rng.uniform(0.15, 0.9))
            r_in = float(rng.uniform(0.05, 0.9))
            params = ChannelParams(c, BETA, P)
            scheme = SchemeParams(K=K, r_ix=r_ix, r_in=r_in, r_out=1.0)
            key = ("exact", len(cycle))

            def run(_seed, params=params, scheme=scheme):
                return rates.achievable_outer_rate_exact(params, scheme)

            def check(est, key=key):
                problems = []
                if est.method != "exact" or not 0.0 <= est.value <= 1.0:
                    problems.append(f"exact: bad estimate {est}")
                if not 0.0 <= est.truncation_mass <= 1e-9:
                    problems.append(f"exact: truncation mass {est.truncation_mass}")
                mc = refs[key]
                if not within_mc(est.value, est.truncation_mass, mc.value, mc.samples):
                    problems.append(f"exact {est.value} vs MC {mc.value} beyond 5 stderr")
                return problems

            cycle.append(Op("exact", f"exact K={K} c={c}",
                            {"K": K, "c": c, "r_ix": r_ix, "r_in": r_in}, run, check))
    exact_points = list(cycle)

    for K in (1, 3, 4):
        params = ChannelParams(2, BETA, P)

        def run(_seed, params=params, K=K):
            return rates.optimize_scheme(params, K, method="exact")

        def check(res, K=K):
            problems = _optimize_problems(f"optimize exact K={K}", res, "exact")
            problems += _near(f"optimize exact K={K} vs MC optimiser", res.overall,
                              refs[("optimize", K)].overall, 0.01)
            if res.overall > CAPACITY_TARGETS[2] + CAPACITY_TOL:
                problems.append(f"optimize exact K={K}: {res.overall} above capacity")
            return problems

        cycle.append(Op("optimize", f"optimize exact c=2 K={K}", {"c": 2, "K": K}, run, check))

    def run_capacity(_seed):
        out = {"p=0.1": {}, "c=4": {}, "p=0": {}, "limit": {}}
        for c in range(1, 11):
            prm = ChannelParams(c, BETA, P)
            out["p=0.1"][c] = (rates.channel_capacity(prm), rates.gap_to_capacity(prm))
        for p in (0.1, 0.05, 0.01, 0.001):
            prm = ChannelParams(4, BETA, p)
            out["c=4"][p] = (rates.channel_capacity(prm), rates.gap_to_capacity(prm))
        for c in range(1, 11):
            prm = ChannelParams(c, BETA, 0.0)
            out["p=0"][c] = (rates.channel_capacity(prm), rates.gap_to_capacity(prm))
        for c, (d_star, _) in LIMIT_TARGETS.items():
            r_ix = 0.999 * dnarate.multi_draw_capacity(d_star, P)
            out["limit"][c] = rates.asymptotic_rate(ChannelParams(c, BETA, P), r_ix)
        return out

    def check_capacity(out):
        problems = []
        for c, target in CAPACITY_TARGETS.items():  # criterion 1
            problems += _near(f"capacity c={c}", out["p=0.1"][c][0], target, CAPACITY_TOL)
        for c, (_, target) in LIMIT_TARGETS.items():  # criterion 2
            problems += _near(f"large-K rate c={c}", out["limit"][c], target, LIMIT_TOL)
            cap, gap = out["p=0.1"][c]
            if cap - gap < target - LIMIT_TOL:
                problems.append(f"r_max c={c}: {cap - gap} below the large-K rate {target}")
        gaps = [out["c=4"][p][1] for p in (0.1, 0.05, 0.01, 0.001)]  # criterion 5a
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"gap not decreasing in p at c=4: {gaps}")
        for c, (cap, _) in out["p=0"].items():  # independent p = 0 oracle
            problems += _near(f"p=0 capacity c={c}", cap, zero_noise_capacity(c, BETA),
                              TAIL_EPS + 64 * np.finfo(float).eps)
        for group in ("p=0.1", "c=4", "p=0"):
            for key, (cap, gap) in out[group].items():
                if not (0.0 < cap < 1.0 and gap > -1e-9 and math.isfinite(gap)):
                    problems.append(f"{group} {key}: capacity {cap}, gap {gap}")
        return problems

    cycle.append(Op("capacity", "capacity curve",
                    {"c": "1..10", "p": [0.1, 0.05, 0.01, 0.001, 0.0]},
                    run_capacity, check_capacity))

    capacity_argv = ["capacity", "--c", "1", "--beta", "0.05", "--p", "0.1", "--threads", "1"]
    rate_argv = ["rate", "--c", "1", "--beta", "0.05", "--p", "0.1", "--K", "1",
                 "--rix", "0.530473", "--rin", "0.53", "--threads", "1"]

    def check_cli_capacity(res):
        code, text = res
        if code != 0:
            return [f"cli capacity exit {code}"]
        return _near("cli capacity", float(text.strip()), CAPACITY_TARGETS[1], CAPACITY_TOL)

    def check_cli_rate(res):
        code, text = res
        if code != 0:
            return [f"cli rate exit {code}"]
        kv = _kv(text)
        # K = 1 and C_1 > r_ix > r_in: a block decodes iff its strand was read
        # at least once, so R_out = 1 - e^-1 in closed form.
        r_out = -math.expm1(-1.0)
        problems = _near("cli rate R_out", float(kv["R_out"]), r_out, 1e-6)
        problems += _near("cli rate R", float(kv["R"]), r_out * 0.53 * (1 - BETA / 0.530473), 1e-6)
        if kv.get("method") != "exact":
            problems.append(f"cli rate method {kv.get('method')}")
        return problems

    cycle.append(Op("cli", "cli capacity", {"argv": capacity_argv},
                    lambda _s: run_cli(capacity_argv), check_cli_capacity))
    cycle.append(Op("cli", "cli rate", {"argv": rate_argv},
                    lambda _s: run_cli(rate_argv), check_cli_rate))

    def prepare():
        for i, op in enumerate(exact_points):
            prm = ChannelParams(op.params["c"], BETA, P)
            sch = SchemeParams(op.params["K"], op.params["r_ix"], op.params["r_in"], 1.0)
            refs[("exact", i)] = rates.achievable_outer_rate_mc(
                prm, sch, REF_SAMPLES, seed=exec_seed(seed, 10_000 + i), threads=1)
        for K in (1, 3, 4):
            refs[("optimize", K)] = rates.optimize_scheme(
                ChannelParams(2, BETA, P), K, samples=OPT_SAMPLES,
                seed=exec_seed(seed, 20_000 + K), method="mc")

    return Workload("analysis_exact", 1, cycle, prepare,
                    notes={"mc_reference_samples": REF_SAMPLES})


def _gated_moments(c, r_ix):
    """Mean and standard deviation of one strand's gated capacity."""
    d = np.arange(int(c + 40 * math.sqrt(c) + 40))
    pmf = np.exp(-c + d * math.log(c) - np.array([math.lgamma(x + 1) for x in d]))
    g = dnarate.gated_capacity_table(P, int(d[-1]), r_ix)
    mean = dnarate.mean_gated_capacity(ChannelParams(c, BETA, P), r_ix)
    return mean, math.sqrt(float(pmf @ (g - mean) ** 2))


def analysis_mc(seed, threads):
    """Monte-Carlo and optimiser part of the analysis workload."""
    rng = np.random.default_rng([seed, 2])
    r_ix = 0.999 * dnarate.multi_draw_capacity(1, P)
    refs = {}
    cycle = []

    moments = {c: _gated_moments(c, r_ix) for c in (2, 10)}
    for c, K in MC_POINTS:
        mean, sd = moments[c]
        # Just below the mean gated capacity, scaled to the block mean's
        # spread, so R_out lies strictly inside (0, 1) even at K = 1000.
        r_in = mean - float(rng.uniform(0.25, 1.5)) * sd / math.sqrt(K)
        params = ChannelParams(c, BETA, P)
        scheme = SchemeParams(K=K, r_ix=r_ix, r_in=r_in, r_out=1.0)

        def run(s, params=params, scheme=scheme):
            return rates.achievable_outer_rate_mc(params, scheme, MC_SAMPLES, s, threads)

        def check(est, c=c, K=K):
            problems = []
            if est.method != "monte_carlo" or est.samples != MC_SAMPLES:
                problems.append(f"mc c={c} K={K}: {est.method}, {est.samples} samples")
            v = est.value
            problems += _near(f"mc c={c} K={K} stderr", est.stderr,
                              math.sqrt(v * (1 - v) / MC_SAMPLES), 1e-9 * est.stderr)
            if K >= 100 and not 0.0 < v < 1.0:
                problems.append(f"mc c={c} K={K}: R_out {v} not inside (0, 1)")
            lo, hi = refs[("mc", c, K)]
            if not within_bracket(lo, hi, v, MC_SAMPLES):
                problems.append(f"mc c={c} K={K}: {v} outside [{lo}, {hi}] + 5 stderr")
            return problems

        cycle.append(Op("mc", f"mc c={c} K={K}",
                        {"c": c, "K": K, "r_ix": r_ix, "r_in": r_in, "samples": MC_SAMPLES},
                        run, check))

    for c, K, samples in OPT_POINTS:
        params = ChannelParams(c, BETA, P)

        def run(s, params=params, K=K, samples=samples):
            return rates.optimize_scheme(params, K, samples=samples, seed=s, method="mc",
                                         threads=threads)

        def check(res, c=c, K=K):
            label = f"optimize mc c={c} K={K}"
            problems = _optimize_problems(label, res, "monte_carlo")
            if (c, K) in FINITE_K_TARGETS:  # criterion 3
                problems += _near(label, res.overall, FINITE_K_TARGETS[(c, K)], FINITE_K_TOL)
            else:  # no target: above the K = 100 rate, below capacity
                lo = FINITE_K_TARGETS[(2, 100)] - FINITE_K_TOL
                if not lo <= res.overall <= CAPACITY_TARGETS[c] + CAPACITY_TOL:
                    problems.append(f"{label}: {res.overall} outside [{lo}, capacity]")
            return problems

        cycle.append(Op("optimize", f"optimize mc c={c} K={K}",
                        {"c": c, "K": K, "samples": samples}, run, check))

    optimize_argv = ["optimize", "--c", "10", "--beta", "0.05", "--p", "0.1", "--K", "100",
                     "--threads", str(threads)]
    curve_argv = ["curve", "--sweep", "K", "--values", "1,3,10,31,100", "--c", "2",
                  "--beta", "0.05", "--p", "0.1", "--threads", str(threads)]

    def check_cli_optimize(res):
        code, text = res
        if code != 0:
            return [f"cli optimize exit {code}"]
        kv = _kv(text)
        r = float(kv["R"])
        # The printed figures carry six decimals, hence the looser tolerance.
        problems = _rate_consistent("cli optimize", r, float(kv["R_out"]), float(kv["R_in"]),
                                    float(kv["R_ix"]), 2e-6)
        problems += _near("cli optimize c=10 K=100 vs reseeded optimiser", r,
                          refs["cli_optimize"].overall, FINITE_K_TOL)
        if kv.get("method") != "monte_carlo" or r > CAPACITY_TARGETS[10] + CAPACITY_TOL:
            problems.append(f"cli optimize: method {kv.get('method')}, R {r}")
        return problems

    def check_cli_curve(res):
        code, text = res
        if code != 0:
            return [f"cli curve exit {code}"]
        lines = text.strip().splitlines()
        if lines[0] != "sweep_var,R_ix,R_in,R_out,R,stderr,method" or len(lines) != 6:
            return [f"cli curve: bad table {lines[:2]}"]
        problems = []
        for line in lines[1:]:
            k, r_ix_s, r_in_s, r_out_s, r_s, _, method = line.split(",")
            k, r = int(k), float(r_s)
            want = "exact" if k <= 3 else "monte_carlo"
            if method != want:
                problems.append(f"cli curve K={k}: method {method}, expected {want}")
            problems += _rate_consistent(f"cli curve K={k}", r, float(r_out_s), float(r_in_s),
                                         float(r_ix_s), 1e-12)
            if not 0.0 < r <= CAPACITY_TARGETS[2] + CAPACITY_TOL:
                problems.append(f"cli curve K={k}: R {r} outside (0, capacity]")
            if k in (1, 3):
                problems += _near(f"cli curve K={k} vs MC optimiser", r, refs[("curve", k)].overall,
                                  FINITE_K_TOL)
            if k == 100:  # criterion 3 point
                problems += _near("cli curve K=100", r, FINITE_K_TARGETS[(2, 100)], FINITE_K_TOL)
        return problems

    cycle.append(Op("cli", "cli optimize c=10 K=100", {"argv": optimize_argv},
                    lambda _s: run_cli(optimize_argv), check_cli_optimize))
    cycle.append(Op("cli", "cli curve K", {"argv": curve_argv},
                    lambda _s: run_cli(curve_argv), check_cli_curve))

    def prepare():
        for op in cycle:
            if op.kind == "mc":
                c, K = op.params["c"], op.params["K"]
                pmf, g = gated_pmf(c, P, r_ix)
                refs[("mc", c, K)] = outer_rate_bracket(pmf, g, K, op.params["r_in"])
        refs["cli_optimize"] = rates.optimize_scheme(
            ChannelParams(10, BETA, P), 100, samples=OPT_SAMPLES, seed=exec_seed(seed, 30_000),
            method="mc", threads=threads)
        for k in (1, 3):
            refs[("curve", k)] = rates.optimize_scheme(
                ChannelParams(2, BETA, P), k, samples=OPT_SAMPLES, seed=exec_seed(seed, 30_000 + k),
                method="mc")

    notes = {"left_out_c": [8, 20, 25, 50, 64],
             "why": "the Poisson table overruns to 100,001 entries at these c (ROADMAP item 1)"}
    return Workload("analysis_mc", threads, cycle, prepare, notes=notes)


def analysis(seed, threads):
    """The rate-analysis jobs in one cycle: exact points, Monte-Carlo points,
    both optimiser paths, the capacity curve and four README commands.

    One workload rather than two: the exact part is interpreter-bound, and
    on its own its throughput swung with the host's speed by more than the
    benchmark's bound; mixed with the numpy-bound Monte-Carlo part it takes
    about a fifth of the cycle's time.
    """
    exact, mc = analysis_exact(seed, threads), analysis_mc(seed, threads)

    def prepare():
        exact.prepare()
        mc.prepare()

    return Workload("analysis", threads, exact.cycle + mc.cycle, prepare,
                    notes={**exact.notes, **mc.notes},
                    warmup=exact.warmup_ops() + mc.warmup_ops())


# ---------------------------------------------------------------------------
# decode_sim

SIM_M = 4096
SIM_TRIALS = 2


def decode_sim(seed, threads):
    captured = []
    outcomes = {"sim_noisy": [], "sim_clean": []}
    original = decoder.greedy_cluster

    def capture(output, config):
        clusters = original(output, config)
        captured.append((output.N, clusters))
        return clusters

    # Keeps each trial's clusters for the partition check; the wrapper only
    # appends a reference, so the op's timing is unaffected.
    decoder.greedy_cluster = capture

    points = {
        "sim_noisy": dict(c=2, beta=BETA, p=0.1, K=4, r_ix=0.5304, r_in=0.45, r_out=0.76,
                          M=SIM_M, rho=0.30),
        "sim_clean": dict(c=3, beta=BETA, p=0.0, K=4, r_ix=0.9, r_in=0.9, r_out=0.7,
                          M=SIM_M, rho=None),
    }
    cycle = []
    for kind, pt in points.items():
        params = ChannelParams(pt["c"], pt["beta"], pt["p"])
        scheme = SchemeParams(pt["K"], pt["r_ix"], pt["r_in"], pt["r_out"])
        clustering = decoder.ClusteringConfig(rho=pt["rho"]) if pt["rho"] is not None else None

        def run(s, params=params, scheme=scheme, clustering=clustering):
            captured.clear()
            result = decoder.run_pipeline(params, scheme, SIM_M, SIM_TRIALS, seed=s,
                                          clustering=clustering, threads=threads)
            return result, list(captured)

        def check(res, kind=kind):
            result, clusterings = res
            problems = []
            if len(result.reports) != SIM_TRIALS or len(clusterings) != SIM_TRIALS:
                problems.append(f"{kind}: {len(result.reports)} reports, "
                                f"{len(clusterings)} clusterings")
            for n, clusters in clusterings:
                members = np.fromiter(itertools.chain.from_iterable(c.members for c in clusters),
                                      dtype=np.int64)
                if members.size != n or not np.array_equal(np.sort(members), np.arange(n)):
                    problems.append(f"{kind}: clusters do not partition the {n} reads")
            for rep in result.reports:
                if not rep.m_wrong_clusters / SIM_M < 0.05:
                    problems.append(f"{kind}: M_C/M = {rep.m_wrong_clusters / SIM_M}")
                if min(rep.erasures, rep.errors, rep.m_wrong_index) < 0:
                    problems.append(f"{kind}: negative counter in {rep}")
                outcomes[kind].append(rep.outer_success)
            return problems

        cycle.append(Op(kind, kind, pt, run, check))

    def summary():
        # Both points sit below their outer-rate bound (0.84x and 0.86x):
        # success over the run's trials must reach 0.95 at each.
        problems = []
        for kind, seen in outcomes.items():
            if seen and sum(seen) / len(seen) < 0.95:
                problems.append(f"{kind}: success {sum(seen) / len(seen):.3f} below 0.95")
        return problems

    return Workload("decode_sim", threads, cycle, summary=summary,
                    notes={"trials_per_op": SIM_TRIALS, "M": SIM_M})


WORKLOADS = {"analysis": analysis, "decode_sim": decode_sim}
