"""Run one benchmark workload on this checkout and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a kepreg checkout: it imports the package
from the checkout's src/ directory, never from an installed copy, and
writes only under .bench_out/ at the checkout root.

The load is closed: one process runs passes of the workload back to
back, each operation waiting for the previous one, until --seconds have
passed (at least one pass).  Outputs are checked after each timed
operation.  With --trace 0 the end-to-end metrics are printed (medians
over the passes); with --trace 1 one more pass runs with every layer
boundary wrapped, and its per-layer metrics are printed.  Times are in
reference seconds (see clock.Clock); raw_wall_s in the table is
plain wall time.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("continuation", "reconstruct", "certify")
SETUP_REPEATS = 5

# Every workload reports every metric.  planar_s and spatial_s are the
# 2D and 3D operations of a pass: theorem-demo 2D / 3D (continuation);
# the planar orbits' generalized solutions, Sundman lifts and collision
# removal / the 3D orbit's generalized solution (reconstruct); certify
# 2D / 3D (certify).  wall_s is the whole pass, which for certify also
# runs kepreg average.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "planar_s": "s",
    "spatial_s": "s",
}

# <boundary>.<field>: calls, nfev and failed are exact counts; s is the
# inclusive and self_s the exclusive time summed over the traced pass.
PER_LAYER = {
    "model.reg_field_jacobian.calls": "count",
    "model.reg_field_jacobian.us_per_call": "us",
    "model.reg_field.calls": "count",
    "model.reg_field.us_per_call": "us",
    "flow.integrate.calls": "count",
    "flow.integrate.nfev": "count",
    "flow.integrate.self_s": "s",
    "flow.integrate_with_variational.calls": "count",
    "flow.integrate_with_variational.nfev": "count",
    "flow.integrate_with_variational.self_s": "s",
    "flow.monodromy.s": "s",
    "flow.detect_events.s": "s",
    "manifolds.nondegeneracy_certificate.calls": "count",
    "manifolds.nondegeneracy_certificate.ms_per_call": "ms",
    "reconstruct.to_generalized.s": "s",
    "reconstruct.TimeMap.__init__.s": "s",
    "reconstruct.ode_residual.self_s": "s",
    "reconstruct.sundman_lift.self_s": "s",
    "reconstruct.TimeMap.s_of.calls": "count",
    "reconstruct.TimeMap.s_of.self_s": "s",
    "reconstruct.remove_collisions.s": "s",
    "reconstruct.RemovalResult.forcing_l1.s": "s",
    "reconstruct.RemovalResult.residual.s": "s",
    "shooting.solve.calls": "count",
    "shooting.solve.failed": "count",
    "shooting.residual.calls": "count",
    "shooting.residual.s": "s",
    "shooting.residual_and_jacobian.calls": "count",
    "shooting.residual_and_jacobian.s": "s",
    "shooting.energy_band.s": "s",
    "averaging.bifurcation_from_infinity.s": "s",
    "averaging.solve_scaled_periodic.calls": "count",
    "cli.main.self_s": "s",
    "flow.trajectory_to_csv.s": "s",
    "reconstruct.generalized_to_csv.s": "s",
    "averaging.family_to_csv.s": "s",
    "shooting.save_orbits.s": "s",
    "trace.overhead_frac": "ratio",
}

SETUP_PROBE = """
import sys, tempfile
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import clock


def setup():
    import workloads
    with tempfile.TemporaryDirectory(dir={out!r}) as workdir:
        workloads.WORKLOADS[{name!r}]({seed!r}, Path(workdir))


with clock.Clock() as timer:
    print(timer.time(setup)[1])
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads():
    """Cap BLAS/OpenMP threads at the cores this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def measure_setup(name, seed):
    """Median over fresh interpreters of importing kepreg and building the
    workload's inputs, in reference seconds.  numpy, which the clock
    needs, is imported before the clock starts."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), out=str(OUT),
                              name=name, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=os.environ,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_passes(workload, gate, timer, seconds):
    """Passes back to back while the next one is expected to fit."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(gate, timer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end_metrics(passes, setup_s):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"wall_s": median_of(passes, "wall_s"), "setup_s": setup_s,
              "peak_rss_mb": peak_kb / 1024.0,
              "planar_s": median_of(passes, "planar_s"),
              "spatial_s": median_of(passes, "spatial_s")}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def layer_metrics(stats, overhead_frac, scale=1.0):
    """Per-layer metrics of a traced pass; times are multiplied by the
    pass's scale to reference seconds."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "nfev": 0}
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = overhead_frac
        else:
            boundary, _, field = name.rpartition(".")
            row = {**empty, **stats.get(boundary, {})}
            if field in ("us_per_call", "ms_per_call"):
                per = 1e6 if field == "us_per_call" else 1e3
                value = per * scale * row["s"] / row["calls"] \
                    if row["calls"] else 0.0
            elif field in ("s", "self_s"):
                value = scale * row[field]
            else:
                value = row[field]
        out[name] = {"value": value, "unit": unit}
    return out


def measure(workload, timer, seconds, trace, setup_s=None, spans_path=None,
            run_id=""):
    """Run the passes, then the traced pass if asked; returns
    (passes, metrics, gate)."""
    # these import kepreg, which main() first puts on the path
    import tracing
    import workloads

    gate = workloads.Gate()
    passes = run_passes(workload, gate, timer, seconds)
    if not trace:
        return passes, end_to_end_metrics(passes, setup_s), gate
    with tracing.Tracer(run_id, paused=lambda: timer.sampled_s) as tracer:
        traced = workload.run_pass(gate, timer)
    if spans_path is not None:
        tracer.write_spans(spans_path)
    overhead = traced["wall_s"] / median_of(passes, "wall_s") - 1.0
    scale = traced["wall_s"] / traced["raw_wall_s"]
    return passes, layer_metrics(tracer.stats(), overhead, scale), gate


def report(passes, metrics, gate):
    """Print the pass times and metrics, then the JSON result line."""
    print(f"passes: {len(passes)}")
    for key in passes[0]:
        values = [p[key] for p in passes]
        print(f"  {key:<48} median {statistics.median(values):.6g} s "
              f"(min {min(values):.6g}, max {max(values):.6g})")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<48} {gate.failed}/{gate.attempted}")
    for failure in gate.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kepreg" / "__init__.py").is_file():
        print(f"error: no kepreg sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import kepreg
    if not Path(kepreg.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported kepreg from {kepreg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import clock
    import workloads

    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{run_id}-", dir=OUT))
    try:
        setup_s = None if args.trace else measure_setup(args.workload,
                                                        args.seed)
        with clock.Clock() as timer:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            result = measure(workload, timer, args.seconds, args.trace,
                             setup_s, OUT / f"spans-{run_id}.jsonl", run_id)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
