"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steady.py --workload NAME [--workload NAME ...] \
        --seeds 1-10 [--trace 0|1] [--out FILE.json]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the bound in BENCHMARK.json. A
bounded metric is steady when its spread stays below a third of its bound.
Runs are made one after another, never in parallel, so they do not
compete for the cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in seeds_from(args.seeds):
            report, result, wall = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "wall_s": wall, "report": report,
                         "result": result})
            print(f"{workload} seed {seed}: wall {wall:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, share = spread(values) if len(values) > 1 else (values[0], 0.0)
            bound = bounds.get(name)
            summary[name] = {"median": med, "iqr_share": share, "bound": bound,
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
            if args.trace == 0:
                steady = bound is None or (share is not None and share < bound / 3)
                flag = "" if steady else "  <-- unsteady"
                shown = "n/a" if share is None else f"{share:.4f}"
                print(f"  {name:>18}: median {med:.6g}  iqr/median {shown}"
                      f"  bound {bound}{flag}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
