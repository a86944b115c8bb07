"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads analysis decode_sim --seeds 1 2 3 4 5

For every workload and metric this prints the median over the seeds and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to a third of the metric's bound from
BENCHMARK.json. Runs go one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            line = json.loads(res.stdout.strip().splitlines()[-1])
            ok = ok and line["correct"] and res.returncode == 0
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}", flush=True)
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"  {name:<32} median {med:<14.6g} spread {spread:.4f}  bound/3 {limit}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
