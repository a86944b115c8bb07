"""dnarate benchmark: one workload, one closed-loop client, every output checked.

    python3 bench/run.py --workload analysis --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py and README.md): analysis, decode_sim. The
client runs the workload's op cycle, one op at a time, in cycles until the
ops have taken `--seconds` of measured time. Inputs derive from `--seed`
only.

With `--trace 0` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, taken
from spans recorded on every second cycle (the other cycles run untraced, so
the tracing overhead is measured in the same process). A run record with
the machine facts, versions, parameters and sample counts goes to
bench/out/. Exit status is 0 whenever a result was printed; `correct` says
whether every check passed.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("analysis", "decode_sim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    return ap.parse_args(argv)


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts():
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "l2": caches.get("L2"),
            "l3": caches.get("L3"), "ram_mb": mem_kb // 1024, "platform": platform.platform()}


def source_facts():
    digest = hashlib.sha256()
    for path in sorted((SRC / "dnarate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def setup_sample(args):
    """Set-up time of a fresh process running this script with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def run_loop(wl, seed, seconds, tracer, exec_seed):
    """Closed loop over the op cycle until the ops have run for `seconds`.

    Untraced, the loop runs at least one whole cycle and then stops at the
    first op that reaches `seconds`. With a tracer, odd cycles run traced
    and even ones untraced, the loop runs at least one of each, and it
    stops only at the end of a cycle, so both halves see the same op mix.
    """
    ops = []  # (cycle, name, seconds, traced)
    problems = []
    failed = 0
    traced_ops = {}
    busy = {False: 0.0, True: 0.0}
    index = 0
    cycle_no = 0
    while True:
        traced = tracer is not None and cycle_no % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in wl.cycle:
                index += 1
                s = exec_seed(seed, index)
                if tracer is not None:
                    tracer.op_id, tracer.op_kind = index, op.kind
                start = time.perf_counter()
                try:
                    result = op.run(s)
                    issues = None
                except Exception as exc:  # an op that raises is a failed op
                    issues = [f"{op.name}: raised {type(exc).__name__}: {exc}"]
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.op_id = tracer.op_kind = None
                if issues is None:
                    try:
                        issues = op.check(result)
                    except Exception as exc:
                        issues = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
                    del result
                if issues:
                    failed += 1
                    problems.extend(issues)
                ops.append((cycle_no, op.name, elapsed, traced))
                busy[traced] += elapsed
                if traced:
                    traced_ops[index] = (op.kind, elapsed)
                if tracer is None and cycle_no > 0 and busy[False] >= seconds:
                    return ops, failed, problems, traced_ops, busy, cycle_no + 1
        finally:
            if traced:
                tracer.uninstall()
        cycle_no += 1
        both = tracer is None or (busy[True] > 0 and busy[False] > 0)
        if busy[True] + busy[False] >= seconds and both:
            return ops, failed, problems, traced_ops, busy, cycle_no


def timing_summary(ops):
    """Latency figures of the measured ops.

    Throughput comes from each op's median latency over its repeats: every
    op of the cycle counts once, whatever share of the run it took, and a
    stray slow or fast repeat does not move it. The pooled median and tail
    over the whole run are recorded next to it.
    """
    lat = sorted(t for _, _, t, _ in ops)
    n = len(lat)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    per_name = {}
    for _, name, t, _ in ops:
        per_name.setdefault(name, []).append(t)
    typical = [statistics.median(v) for v in per_name.values()]
    return {
        "ops": n,
        "busy_s": sum(lat),
        "ops_per_s": len(typical) / sum(typical),
        "p50_s": statistics.median(lat),
        "tail_s": lat[tail_index],
        "tail_percentile": 100.0 * tail_index / n if n > TAIL_BEYOND else 100.0,
        "ops_beyond_tail": n - 1 - tail_index,
        "per_op_s": {k: {"n": len(v), "median_s": statistics.median(v), "min_s": min(v)}
                     for k, v in per_name.items()},
        "latencies_s": [[name, t] for _, name, t, _ in ops],
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dnarate" / "__init__.py").is_file():
        print(f"error: dnarate sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dnarate

    if Path(dnarate.__file__).resolve().parent != (SRC / "dnarate").resolve():
        print(f"error: imported dnarate from {dnarate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    threads = min(2, os.cpu_count() or 1)
    wl = workloads.WORKLOADS[args.workload](args.seed, threads)
    problems = []
    for i, op in enumerate(wl.warmup_ops()):
        try:
            op.run(workloads.exec_seed(args.seed, 1 << 40 | i))
        except Exception as exc:
            problems.append(f"warm-up {op.name}: raised {type(exc).__name__}: {exc}")
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_samples = [setup_s]
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            try:
                setup_samples.append(setup_sample(args))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                problems.append(f"set-up sample: {exc}")

    try:
        wl.prepare()
    except Exception as exc:  # the checks that need these references fail
        problems.append(f"references: raised {type(exc).__name__}: {exc}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(dnarate)
    ops, failed, loop_problems, traced_ops, busy, cycles = run_loop(
        wl, args.seed, args.seconds, tracer, workloads.exec_seed)
    problems += loop_problems + wl.summary()
    timing = timing_summary(ops)
    attempted = len(ops)

    if args.trace:
        from tracer import layer_metrics

        n_untraced = sum(1 for op in ops if not op[3])
        values = layer_metrics(tracer, traced_ops, busy[True], n_untraced, busy[False], threads)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": timing["ops_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": wl.threads,
        "machine": machine_facts(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "dnarate": dnarate.__version__},
        "source": source_facts(),
        "params": {"notes": wl.notes, "cycle": [{"kind": op.kind, "name": op.name, **op.params}
                                                 for op in wl.cycle]},
        "setup_samples_s": setup_samples,
        "cycles": cycles,
        "timing": timing,
        "metrics": metrics,
        "problems": problems[:100],
    }
    if tracer is not None:
        record["tracing"] = {"spans": len(tracer.spans), "trials": len(tracer.trials),
                             "missing_bindings": tracer.missing,
                             "traced_ops": len(traced_ops)}
        for name, value in sorted(values.items()):
            if name.startswith("baseline.") and value:
                print(f"baseline {name[9:]:<22} median {value:.4f} s", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"run record: {path}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
