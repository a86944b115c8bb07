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

from .channel import dump_channel, load_channel
from .decoder import (
    BudgetError,
    ClusteringConfig,
    _pipeline_setup,
    _trial_output,
    decode,
    run_pipeline,
)
from .multidraw import _check_count, _check_index_overhead, _check_unit
from .rates import (
    ChannelParams,
    EnumerationCapError,
    RateEstimate,
    SchemeParams,
    achievable_outer_rate_exact,
    achievable_outer_rate_mc,
    channel_capacity,
    mean_gated_capacity,
    optimize_scheme,
    overall_rate,
    _use_exact,
)
from .seeding import _check_threads

__all__ = ["main"]

CURVE_HEADER = "sweep_var,R_ix,R_in,R_out,R,stderr,method"
SIM_HEADER = "trial,M_C,M_Ix,M_In,s,t,success"

# The flags every subcommand shares, as dest: (type, default, help); a tuple
# type lists the allowed values. A flag is spelt --dest with "_" as "-". A
# config file may set exactly these, converted and checked as the flag would
# be; the default fills in what neither sets.
SHARED_FLAGS = {
    "c": (float, None, "reading rate (reads per strand)"),
    "beta": (float, None, "strand density log2(M)/L"),
    "p": (float, None, "per-bit flip probability"),
    "K": (int, None, "strands per inner block"),
    "rix": (float, None, "index code rate"),
    "rin": (float, None, "inner code rate"),
    "rout": (float, None, "outer code rate"),
    "samples": (int, 10_000, "Monte-Carlo sample budget"),
    "seed": (int, 0, "master seed"),
    "tail_eps": (float, 1e-12, "Poisson tail mass allowed outside truncated sums"),
    "threads": (int, None, "worker threads (default: DNARATE_THREADS or all cores)"),
    "out": (str, None, "output file path"),
    "format": (("csv", "json"), "csv", None),
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
        if key not in SHARED_FLAGS:
            raise CliError(2, f"{path}:{lineno}: unknown config key {key!r}")
        kind = SHARED_FLAGS[key][0]
        try:
            if isinstance(kind, tuple) and val not in kind:
                raise ValueError(val)
            values[key] = val if isinstance(kind, tuple) else kind(val)
        except ValueError:
            raise CliError(2, f"{path}:{lineno}: bad value for {key}: {val!r}")
    return values


def _merge(args):
    """Fill shared flags left unset from the config file, then the defaults."""
    config = _read_config(args.config) if args.config else {}
    for key, (_, default, _) in SHARED_FLAGS.items():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, default))
    if args.threads is None:
        args.threads = _default_threads()
    _check_count(args.samples, "samples", positive=True)
    _check_threads(args.threads)
    return args


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(2, f"--{name} is required")


# Range checks live in ChannelParams, SchemeParams and the rule helpers every
# library entry point calls; their ValueErrors leave main() with exit code 2.

def _channel(args):
    _need(args, "c", "beta", "p")
    params = ChannelParams(c=args.c, beta=args.beta, p=args.p)
    _check_unit(args.tail_eps, "tail_eps")
    return params


def _scheme(args, need_rout=False):
    _need(args, "K", "rix", "rin", *(["rout"] if need_rout else []))
    rout = 1.0 if args.rout is None else args.rout
    return SchemeParams(K=args.K, r_ix=args.rix, r_in=args.rin, r_out=rout)


def _write(path, body):
    """Write body to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(body)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
    except OSError as exc:
        raise CliError(4, f"cannot write {path}: {exc}")


def _json(obj):
    """Every JSON body: two-space indent, keys in insertion order."""
    return json.dumps(obj, indent=2) + "\n"


def _text(value, float_text):
    """A value as CSV or stdout text: a bool as 0/1, a float by float_text."""
    if isinstance(value, bool):
        return str(int(value))
    return float_text(float(value)) if isinstance(value, float) else str(value)


def _table(header, rows, fmt):
    """CSV or JSON body of rows under a comma-separated header. Floats keep
    full precision in both."""
    if fmt == "json":
        return _json([dict(zip(header.split(","), row)) for row in rows])
    lines = (",".join(_text(v, repr) for v in row) for row in rows)
    return "\n".join([header, *lines]) + "\n"


def _record(fields, fmt):
    """A scalar command's record as a file body: a one-row CSV table without
    the sample count, or one JSON object that spells the rate names (R_...)
    in lower case."""
    if fmt == "json":
        return _json({k.lower() if k.startswith("R") else k: v for k, v in fields.items()})
    row = {k: v for k, v in fields.items() if k != "samples"}
    return _table(",".join(row), [row.values()], "csv")


def _emit(args, body):
    """Write body to the --out file, if one is given."""
    if args.out is not None:
        _write(args.out, body)


def _print_fields(fields, *names):
    """Print `name = value` for each name: a float to six decimals, a bool as
    0/1."""
    for name in names:
        print(f"{name} = {_text(fields[name], '{:.6f}'.format)}")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_capacity(args):
    cap = channel_capacity(_channel(args), args.tail_eps)
    print(f"{cap:.6f}")
    record = {"c": args.c, "beta": args.beta, "p": args.p, "capacity": cap}
    _emit(args, _record(record, args.format))
    return 0


def _rate_row(r_ix, r_in, est, overall):
    """The one rate row: a scheme's index and inner rates with its outer and
    overall rates, the estimate's stderr, method and sample count."""
    return {"R_ix": r_ix, "R_in": r_in, "R_out": est.value, "R": overall,
            "stderr": est.stderr, "method": est.method, "samples": est.samples}


def _rate_record(params, scheme, args):
    """rate's record: the rate row and the truncation mass."""
    # Checked before any estimate, so an infeasible exact request never
    # hides the invalid scheme behind exit code 3.
    _check_index_overhead(params.beta, scheme.r_ix)
    if _use_exact(params, scheme.K, args.method, args.tail_eps):
        est = achievable_outer_rate_exact(params, scheme, args.tail_eps)
    else:
        est = achievable_outer_rate_mc(params, scheme, args.samples, args.seed, args.threads)
    overall = overall_rate(scheme.r_in, est.value, scheme.r_ix, params.beta)
    return {**_rate_row(scheme.r_ix, scheme.r_in, est, overall),
            "truncation_mass": est.truncation_mass}


def _optimizer_record(params, K, args):
    """The one optimiser row: K, the index candidate and the rate row of the
    scheme optimize_scheme finds."""
    res = optimize_scheme(params, K, samples=args.samples, seed=args.seed,
                          method=args.method, tail_eps=args.tail_eps,
                          threads=args.threads)
    return {"K": K, "d_candidate": res.d_candidate,
            **_rate_row(res.scheme.r_ix, res.scheme.r_in, res.rate, res.overall)}


def cmd_rate(args):
    record = _rate_record(_channel(args), _scheme(args), args)
    _print_fields(record, "R_out", "R", "stderr", "method", "truncation_mass")
    _emit(args, _record(record, args.format))
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


def cmd_curve(args):
    values = _parse_values(args)
    if args.sweep == "K":
        params = _channel(args)
        records = (_optimizer_record(params, k, args) for k in values)
    elif args.sweep == "rin" and args.K == 0:
        # Infinite-block-size limit: the outer rate is a step function of
        # the inner rate at the mean gated capacity.
        params = _channel(args)
        _need(args, "rix")
        mean = mean_gated_capacity(params, args.rix, args.tail_eps)

        def asymptotic(rin):
            est = RateEstimate(1.0 if rin < mean else 0.0, 0.0, "asymptotic", 0, 0.0)
            overall = overall_rate(rin, est.value, args.rix, params.beta)
            return _rate_row(args.rix, rin, est, overall)

        records = map(asymptotic, values)
    else:
        # sweep rin, c or p with the rest of the scheme fixed
        def swept(val):
            ns = argparse.Namespace(**vars(args))
            setattr(ns, args.sweep, val)
            return _rate_record(_channel(ns), _scheme(ns), ns)

        records = map(swept, values)
    columns = CURVE_HEADER.split(",")[1:]
    rows = [(val, *(record[k] for k in columns)) for val, record in zip(values, records)]
    _write(args.out, _table(CURVE_HEADER, rows, args.format))
    return 0


def cmd_optimize(args):
    params = _channel(args)
    _need(args, "K")
    record = _optimizer_record(params, args.K, args)
    if args.format == "json" and args.out is None:
        _write(None, _record(record, "json"))
    else:
        _print_fields(record, "d_candidate", "R_ix", "R_in", "R_out", "R", "stderr", "method")
    _emit(args, _record(record, args.format))
    return 0


def _sim_rows(reports):
    """simulate's rows under SIM_HEADER: decoder counters, one row per trial."""
    return [
        (i, r.m_wrong_clusters, r.m_wrong_index, r.m_wrong_inner, r.erasures, r.errors,
         r.outer_success)
        for i, r in enumerate(reports)
    ]


def cmd_simulate(args):
    params = _channel(args)
    scheme = _scheme(args, need_rout=True)
    _need(args, "M")
    if args.dump is not None and args.trials != 1:
        raise CliError(2, "--dump records a single channel use; requires --trials 1")
    clustering = ClusteringConfig(rho=args.rho)
    if args.dump is None:
        reports = run_pipeline(
            params,
            scheme,
            args.M,
            args.trials,
            seed=args.seed,
            clustering=clustering,
            threads=args.threads,
        ).reports
    else:
        # The one trial, drawn once: decoded as run_pipeline would, then dumped.
        dims, config = _pipeline_setup(params, scheme, args.M, 1, clustering, args.threads)
        output = _trial_output(params, dims, args.seed, 0)
        reports = (decode(output, params, scheme, config),)
        try:
            dump_channel(output, args.dump)
        except OSError as exc:
            raise CliError(4, f"cannot write {args.dump}: {exc}")
    _write(args.out, _table(SIM_HEADER, _sim_rows(reports), args.format))
    rate = sum(r.outer_success for r in reports) / len(reports)
    _print_fields({"success_rate": rate}, "success_rate")
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
    rows = _sim_rows([decode(output, params, scheme, ClusteringConfig(rho=args.rho))])
    _emit(args, _table(SIM_HEADER, rows, args.format))
    keys = SIM_HEADER.split(",")
    _print_fields(dict(zip(keys, rows[0])), *keys[1:])
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_shared(sub):
    # Left unset (None) here, so that _merge can tell a config value apart.
    for key, (kind, _, help_) in SHARED_FLAGS.items():
        check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        sub.add_argument("--" + key.replace("_", "-"), dest=key, help=help_, **check)
    sub.add_argument("--config", type=str, default=None,
                     help="key = value config file; flags override it")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dnarate",
        description="Rate analysis and decoding simulation for pooled-strand storage",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help_, func):
        p = subs.add_parser(name, help=help_)
        _add_shared(p)
        p.set_defaults(func=func)
        return p

    methods = ("exact", "mc", "auto")
    command("capacity", "channel capacity", cmd_capacity)

    p = command("rate", "achievable outer and overall rate", cmd_rate)
    p.add_argument("--method", choices=methods, default="auto")

    p = command("curve", "sweep one variable, emit CSV", cmd_curve)
    p.add_argument("--sweep", choices=("K", "rin", "c", "p"), required=True)
    p.add_argument("--values", type=str, default=None,
                   help="comma-separated, strictly increasing sweep values")
    p.add_argument("--method", choices=methods, default="auto")

    p = command("optimize", "best scheme parameters for a block size", cmd_optimize)
    p.add_argument("--method", choices=methods, default="auto")

    p = command("simulate", "end-to-end decode pipeline trials", cmd_simulate)
    p.add_argument("--M", type=int, default=None, help="number of stored strands")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--rho", type=float, default=None, help="clustering diameter fraction")
    p.add_argument("--dump", type=str, default=None,
                   help="record the channel output for replay (needs --trials 1)")

    p = command("replay", "rerun the decoder on a recorded channel output", cmd_replay)
    p.add_argument("--in", dest="infile", type=str, default=None, help="channel dump path")
    p.add_argument("--rho", type=float, default=None)

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
