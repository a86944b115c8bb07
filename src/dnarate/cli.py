"""Command-line front end.

Subcommands: capacity, rate, curve, optimize, simulate, replay. Every
stochastic subsystem derives its randomness from the single --seed flag, so
reruns with identical flags produce byte-identical output files regardless of
--threads. Scalars are printed with six decimals; CSV and JSON bodies carry
full-precision values so rows can be re-evaluated exactly.

Exit codes: 0 success, 2 validation, 3 requested method infeasible, 4 I/O,
5 simulation budget exceeded.
"""

import argparse
import json
import math
import os
import sys

from .channel import InstanceDims, dump_channel, load_channel
from .decoder import BudgetError, ClusteringConfig, _trial_output, decode, run_pipeline
from .rates import (
    ChannelParams,
    EnumerationCapError,
    SchemeParams,
    achievable_outer_rate_exact,
    achievable_outer_rate_mc,
    asymptotic_rate,
    channel_capacity,
    mean_gated_capacity,
    optimize_scheme,
    overall_rate,
    _check_tail_eps,
    _exact_feasible,
    AUTO_EXACT_VECTORS,
)

__all__ = ["main"]

CURVE_HEADER = "sweep_var,R_ix,R_in,R_out,R,stderr,method"
SIM_HEADER = "trial,M_C,M_Ix,M_In,s,t,success"

# Config files may set exactly the shared flags.
CONFIG_KEYS = {
    "c": float,
    "beta": float,
    "p": float,
    "K": int,
    "rix": float,
    "rin": float,
    "rout": float,
    "samples": int,
    "seed": int,
    "tail_eps": float,
    "threads": int,
    "out": str,
    "format": str,
}

DEFAULTS = {
    "samples": 10_000,
    "seed": 0,
    "tail_eps": 1e-12,
    "format": "csv",
    "method": "auto",
    "trials": 1,
}


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _default_threads():
    env = os.environ.get("DNARATE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise CliError(2, f"DNARATE_THREADS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(4, f"cannot read config {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(2, f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise CliError(2, f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError:
            raise CliError(2, f"{path}:{lineno}: bad value for {key}: {val!r}")
    return values


def _merge(args):
    """Apply config-file values under explicit flags, then built-in defaults."""
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, value in config.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    for key, value in DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    if getattr(args, "threads", None) is None:
        args.threads = _default_threads()
    return args


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(2, f"--{name} is required")


# Range checks live in ChannelParams, SchemeParams and the library entry
# points; their ValueErrors leave main() with exit code 2.

def _channel(args):
    _need(args, "c", "beta", "p")
    params = ChannelParams(c=args.c, beta=args.beta, p=args.p)
    _check_tail_eps(args.tail_eps)
    return params


def _scheme(args, need_rout=False):
    _need(args, "K", "rix", "rin", *(["rout"] if need_rout else []))
    rout = 1.0 if args.rout is None else args.rout
    return SchemeParams(K=args.K, r_ix=args.rix, r_in=args.rin, r_out=rout)


def _fmt6(x):
    return f"{x:.6f}"


def _open_out(path):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CliError(4, f"cannot write {path}: {exc}")


def _emit(args, text_lines, json_obj):
    """Write the optional file row for a scalar-style command."""
    if args.out is None:
        return
    with _open_out(args.out) as fh:
        if args.format == "json":
            json.dump(json_obj, fh, indent=2)
            fh.write("\n")
        else:
            fh.write(text_lines)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_capacity(args):
    params = _channel(args)
    cap = channel_capacity(params, args.tail_eps)
    print(_fmt6(cap))
    _emit(
        args,
        f"c,beta,p,capacity\n{args.c!r},{args.beta!r},{args.p!r},{cap!r}\n",
        {"c": args.c, "beta": args.beta, "p": args.p, "capacity": cap},
    )
    return 0


def _estimate(params, scheme, args):
    # Checked before any estimate, so an infeasible exact request never
    # hides the invalid scheme behind exit code 3.
    if scheme.r_ix <= params.beta:
        raise CliError(2, f"rix must exceed beta ({params.beta}), got {scheme.r_ix}")
    if args.method == "exact":
        return achievable_outer_rate_exact(params, scheme, args.tail_eps)
    if args.method == "mc":
        return achievable_outer_rate_mc(
            params, scheme, args.samples, args.seed, args.threads
        )
    if _exact_feasible(params, scheme.K, args.tail_eps, AUTO_EXACT_VECTORS):
        return achievable_outer_rate_exact(params, scheme, args.tail_eps)
    return achievable_outer_rate_mc(params, scheme, args.samples, args.seed, args.threads)


def cmd_rate(args):
    params = _channel(args)
    scheme = _scheme(args)
    est = _estimate(params, scheme, args)
    overall = overall_rate(scheme.r_in, est.value, scheme.r_ix, params.beta)
    print(f"R_out = {_fmt6(est.value)}")
    print(f"R = {_fmt6(overall)}")
    print(f"stderr = {_fmt6(est.stderr)}")
    print(f"method = {est.method}")
    print(f"truncation_mass = {_fmt6(est.truncation_mass)}")
    _emit(
        args,
        "R_ix,R_in,R_out,R,stderr,method,truncation_mass\n"
        f"{scheme.r_ix!r},{scheme.r_in!r},{est.value!r},{overall!r},"
        f"{est.stderr!r},{est.method},{est.truncation_mass!r}\n",
        {
            "r_ix": scheme.r_ix,
            "r_in": scheme.r_in,
            "r_out": est.value,
            "r": overall,
            "stderr": est.stderr,
            "method": est.method,
            "samples": est.samples,
            "truncation_mass": est.truncation_mass,
        },
    )
    return 0


def _parse_values(args):
    _need(args, "values")
    cast = int if args.sweep == "K" else float
    try:
        values = [cast(v) for v in str(args.values).split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(2, f"values must be comma-separated numbers, got {args.values!r}")
    if not values:
        raise CliError(2, "values must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise CliError(2, "values must be strictly increasing")
    return values


def _curve_rows(args):
    values = _parse_values(args)
    rows = []
    if args.sweep == "K":
        params = _channel(args)
        for k in values:
            res = optimize_scheme(
                params,
                k,
                samples=args.samples,
                seed=args.seed,
                method=args.method,
                tail_eps=args.tail_eps,
                threads=args.threads,
            )
            rows.append(
                (k, res.scheme.r_ix, res.scheme.r_in, res.rate.value, res.overall,
                 res.rate.stderr, res.rate.method)
            )
        return rows
    if args.sweep == "rin":
        params = _channel(args)
        _need(args, "K", "rix")
        if args.K == 0:
            # Infinite-block-size limit: the outer rate is a step function of
            # the inner rate at the mean gated capacity.
            mean = mean_gated_capacity(params, args.rix, args.tail_eps)
            for rin in values:
                r_out = 1.0 if rin < mean else 0.0
                rows.append((rin, args.rix, rin, r_out,
                             overall_rate(rin, r_out, args.rix, params.beta),
                             0.0, "asymptotic"))
            return rows
        for rin in values:
            ns = argparse.Namespace(**vars(args))
            ns.rin = rin
            scheme = _scheme(ns)
            est = _estimate(params, scheme, args)
            rows.append(
                (rin, scheme.r_ix, rin, est.value,
                 overall_rate(rin, est.value, scheme.r_ix, params.beta),
                 est.stderr, est.method)
            )
        return rows
    # sweep c or p with a fixed scheme
    for val in values:
        ns = argparse.Namespace(**vars(args))
        setattr(ns, args.sweep, val)
        params = _channel(ns)
        scheme = _scheme(ns)
        est = _estimate(params, scheme, ns)
        rows.append(
            (val, scheme.r_ix, scheme.r_in, est.value,
             overall_rate(scheme.r_in, est.value, scheme.r_ix, params.beta),
             est.stderr, est.method)
        )
    return rows


def cmd_curve(args):
    rows = _curve_rows(args)
    if args.format == "json":
        keys = ("sweep_var", "R_ix", "R_in", "R_out", "R", "stderr", "method")
        body = json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    else:
        lines = [CURVE_HEADER]
        for row in rows:
            lines.append(
                ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
            )
        body = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(body)
    else:
        with _open_out(args.out) as fh:
            fh.write(body)
    return 0


def cmd_optimize(args):
    params = _channel(args)
    _need(args, "K")
    res = optimize_scheme(
        params,
        args.K,
        samples=args.samples,
        seed=args.seed,
        method=args.method,
        tail_eps=args.tail_eps,
        threads=args.threads,
    )
    obj = {
        "K": args.K,
        "d_candidate": res.d_candidate,
        "r_ix": res.scheme.r_ix,
        "r_in": res.scheme.r_in,
        "r_out": res.rate.value,
        "r": res.overall,
        "stderr": res.rate.stderr,
        "method": res.rate.method,
        "samples": res.rate.samples,
    }
    if args.format == "json" and args.out is None:
        print(json.dumps(obj, indent=2))
    else:
        print(f"d_candidate = {res.d_candidate}")
        print(f"R_ix = {_fmt6(res.scheme.r_ix)}")
        print(f"R_in = {_fmt6(res.scheme.r_in)}")
        print(f"R_out = {_fmt6(res.rate.value)}")
        print(f"R = {_fmt6(res.overall)}")
        print(f"stderr = {_fmt6(res.rate.stderr)}")
        print(f"method = {res.rate.method}")
    _emit(
        args,
        "K,d_candidate,R_ix,R_in,R_out,R,stderr,method\n"
        f"{args.K},{res.d_candidate},{res.scheme.r_ix!r},{res.scheme.r_in!r},"
        f"{res.rate.value!r},{res.overall!r},{res.rate.stderr!r},{res.rate.method}\n",
        obj,
    )
    return 0


def _report_rows(reports):
    lines = [SIM_HEADER]
    for i, rep in enumerate(reports):
        lines.append(
            f"{i},{rep.m_wrong_clusters},{rep.m_wrong_index},{rep.m_wrong_inner},"
            f"{rep.erasures},{rep.errors},{int(rep.outer_success)}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args):
    params = _channel(args)
    scheme = _scheme(args, need_rout=True)
    _need(args, "M")
    if args.dump is not None and args.trials != 1:
        raise CliError(2, "--dump records a single channel use; requires --trials 1")
    result = run_pipeline(
        params,
        scheme,
        args.M,
        args.trials,
        seed=args.seed,
        clustering=ClusteringConfig(rho=args.rho),
        threads=args.threads,
    )
    if args.dump is not None:
        dims = InstanceDims.from_channel(params, args.M, scheme.K)
        output = _trial_output(params, dims, args.seed, 0)
        try:
            dump_channel(output, args.dump)
        except OSError as exc:
            raise CliError(4, f"cannot write {args.dump}: {exc}")
    if args.format == "json":
        body = json.dumps(
            [
                {
                    "trial": i,
                    "M_C": r.m_wrong_clusters,
                    "M_Ix": r.m_wrong_index,
                    "M_In": r.m_wrong_inner,
                    "s": r.erasures,
                    "t": r.errors,
                    "success": r.outer_success,
                }
                for i, r in enumerate(result.reports)
            ],
            indent=2,
        ) + "\n"
    else:
        body = _report_rows(result.reports)
    if args.out is None:
        sys.stdout.write(body)
    else:
        with _open_out(args.out) as fh:
            fh.write(body)
    print(f"success_rate = {_fmt6(result.success_rate)}")
    return 0


def cmd_replay(args):
    _need(args, "infile")
    try:
        output = load_channel(args.infile)
    except OSError as exc:
        raise CliError(4, f"cannot read {args.infile}: {exc}")
    except ValueError as exc:
        raise CliError(4, str(exc))
    # beta is implied by the recorded dimensions, c by the read count; a
    # one-strand pool or an empty read set implies nothing (0), so the
    # flags stand.
    m = output.pool_size
    args.beta = math.log2(m) / output.length or args.beta
    args.c = output.N / m or args.c
    params = _channel(args)
    scheme = _scheme(args, need_rout=True)
    report = decode(output, params, scheme, ClusteringConfig(rho=args.rho))
    print(f"M_C = {report.m_wrong_clusters}")
    print(f"M_Ix = {report.m_wrong_index}")
    print(f"M_In = {report.m_wrong_inner}")
    print(f"s = {report.erasures}")
    print(f"t = {report.errors}")
    print(f"success = {int(report.outer_success)}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_shared(sub):
    sub.add_argument("--c", type=float, default=None, help="reading rate (reads per strand)")
    sub.add_argument("--beta", type=float, default=None, help="strand density log2(M)/L")
    sub.add_argument("--p", type=float, default=None, help="per-bit flip probability")
    sub.add_argument("--K", type=int, default=None, help="strands per inner block")
    sub.add_argument("--rix", type=float, default=None, help="index code rate")
    sub.add_argument("--rin", type=float, default=None, help="inner code rate")
    sub.add_argument("--rout", type=float, default=None, help="outer code rate")
    sub.add_argument("--samples", type=int, default=None, help="Monte-Carlo sample budget")
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--tail-eps", dest="tail_eps", type=float, default=None,
                     help="Poisson tail mass allowed outside truncated sums")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: DNARATE_THREADS or all cores)")
    sub.add_argument("--out", type=str, default=None, help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--config", type=str, default=None,
                     help="key = value config file; flags override it")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dnarate",
        description="Rate analysis and decoding simulation for pooled-strand storage",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("capacity", help="channel capacity")
    _add_shared(p)
    p.set_defaults(func=cmd_capacity)

    p = subs.add_parser("rate", help="achievable outer and overall rate")
    _add_shared(p)
    p.add_argument("--method", choices=("exact", "mc", "auto"), default=None)
    p.set_defaults(func=cmd_rate)

    p = subs.add_parser("curve", help="sweep one variable, emit CSV")
    _add_shared(p)
    p.add_argument("--sweep", choices=("K", "rin", "c", "p"), required=True)
    p.add_argument("--values", type=str, default=None,
                   help="comma-separated, strictly increasing sweep values")
    p.add_argument("--method", choices=("exact", "mc", "auto"), default=None)
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("optimize", help="best scheme parameters for a block size")
    _add_shared(p)
    p.add_argument("--method", choices=("exact", "mc", "auto"), default=None)
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("simulate", help="end-to-end decode pipeline trials")
    _add_shared(p)
    p.add_argument("--M", type=int, default=None, help="number of stored strands")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--rho", type=float, default=None, help="clustering diameter fraction")
    p.add_argument("--dump", type=str, default=None,
                   help="record the channel output for replay (needs --trials 1)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("replay", help="rerun the decoder on a recorded channel output")
    _add_shared(p)
    p.add_argument("--in", dest="infile", type=str, default=None, help="channel dump path")
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _merge(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EnumerationCapError as exc:
        print(f"error: {exc} (try --method mc)", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
