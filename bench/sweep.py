"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/sweep.py --seeds 1-10
    python3 bench/sweep.py --workloads certify --seeds 1-5 --trace 1
    python3 bench/sweep.py --seeds 1-10 --record bench/trajectory.json \\
        --label "<commit>"

Runs bench/run.py once per workload and seed, one run at a time, with
the run length from BENCHMARK.json.  For each metric it prints the
median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound.  --record appends the medians, with the environment,
as one point of the trajectory file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def environment():
    import numpy
    import scipy

    n = len(os.sched_getaffinity(0))
    return {"nproc": n, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "threads": {var: n for var in ("OMP_NUM_THREADS",
                                           "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=parse_seeds,
                        default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    summary = {}
    for workload in names:
        lines = [run_once(spec, workload, seed, args.trace)
                 for seed in args.seeds]
        failed = sum(line["failed"] for line in lines)
        attempted = sum(line["attempted"] for line in lines)
        print(f"{workload}: {len(lines)} runs, seeds {args.seeds[0]}-"
              f"{args.seeds[-1]}, failed checks {failed}/{attempted}")
        rows = {}
        for metric, first in lines[0]["metrics"].items():
            values = [line["metrics"][metric]["value"] for line in lines]
            rows[metric] = {"unit": first["unit"], **summarise(values)}
            row = rows[metric]
            bound = bounds.get(metric)
            print(f"  {metric:<48} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""))
        summary[workload] = {"failed": failed, "attempted": attempted,
                             "metrics": rows}

    if args.record:
        trajectory = (json.loads(args.record.read_text())
                      if args.record.exists() else {"points": []})
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        trajectory["points"].append({
            "label": args.label, "trace": args.trace,
            "run_seconds": spec["run_seconds"],
            "seeds": [args.seeds[0], args.seeds[-1]],
            "environment": environment(),
            "workloads": {name: {"why": why[name], **row}
                          for name, row in summary.items()}})
        args.record.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
