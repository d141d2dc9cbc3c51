"""Self-test of the benchmark on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import clock
import run
import tracing
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

COUNT_FIELDS = (".calls", ".nfev", ".failed")


def tiny(name, seed, workdir):
    """The workload at the smallest size that still runs every layer it
    runs at full size."""
    if name == "continuation":
        return workloads.Continuation(seed, workdir, eps=1e-7, dims=(2,))
    if name == "reconstruct":
        return workloads.Reconstruct(seed, workdir, cases=((2, 1),),
                                     mus=(0.1,), n_sample=50)
    return workloads.Certify(seed, workdir, n_seeds=1, k_list="1")


def declared():
    spec = json.loads(BENCHMARK_JSON.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_benchmark_json_matches_runner():
    end_to_end, per_layer, names = declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def result_line(capsys, result):
    run.report(*result)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def counts(metrics):
    return {k: m["value"] for k, m in metrics.items()
            if k.endswith(COUNT_FIELDS)}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_printed_and_counts_repeat(name, tmp_path, capsys):
    end_to_end, per_layer, _ = declared()
    spans = tmp_path / "spans.jsonl"
    with clock.Clock() as timer:
        passes, metrics, gate = run.measure(tiny(name, 3, tmp_path), timer,
                                            0.0, trace=1, spans_path=spans,
                                            run_id="first")
    line = result_line(capsys, (passes, metrics, gate))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == per_layer
    assert spans.stat().st_size > 0
    untraced = result_line(capsys, (
        passes, run.end_to_end_metrics(passes, setup_s=0.5), gate))
    assert {k: m["unit"] for k, m in untraced["metrics"].items()} == \
        end_to_end

    # a second traced run from the same seed does exactly the same work
    with clock.Clock() as timer, \
            tracing.Tracer("second", paused=lambda: timer.sampled_s) as tracer:
        tiny(name, 3, tmp_path).run_pass(workloads.Gate(), timer)
    again = run.layer_metrics(tracer.stats(), 0.0)
    assert counts(line["metrics"]) == counts(again)
    assert any(counts(again).values())


def test_self_time_excludes_children_leaves_and_pauses():
    from kepreg import flow, model

    paused = [0.0]

    def field(X):
        paused[0] += 1e-3           # as if the clock sampled for 1 ms
        return model.reg_field(X, 0.0)

    with tracing.Tracer("self-time", paused=lambda: paused[0]) as tracer:
        X0 = np.array([0.8, 0.0, 0.0, 1.0, 0.0, 0.8])
        flow.integrate(field, X0, 1.0)
    stats = tracer.stats()
    row, leaf = stats["flow.integrate"], stats["model.reg_field"]
    assert row["calls"] == 1 and leaf["calls"] == row["nfev"] > 0
    assert row["self_s"] == pytest.approx(row["s"] - leaf["s"])
    span = tracer.spans[0]
    assert span.end - span.start - span.s == pytest.approx(paused[0])
    assert flow.integrate.__name__ == "integrate"      # restored


def test_clock_excludes_its_samples_from_the_time():
    with clock.Clock(period=0.05) as timer:
        start = time.perf_counter()
        _, raw, scale = timer.run(time.sleep, 0.3)
        wall = time.perf_counter() - start
    # about six samples were taken during the sleep and not counted
    assert raw < wall - 0.02
    assert scale > 0.0


def test_gate_counts_out_of_tolerance_results(tmp_path):
    gate = workloads.Gate()
    good = {"X0": [0.0] * 6, "residual_norm": 1e-12, "eta": 1}
    bad = dict(good, residual_norm=1e-6)
    path = tmp_path / "orbits.json"
    path.write_text(json.dumps({"orbits": [good, bad]}))
    workloads.check_orbits(gate, "test", path, 2, 2)
    assert (gate.attempted, gate.failed) == (5, 1)
    assert "residual_norm" in gate.failures[0]

    class Removal:
        min_u = 0.1

    gate = workloads.Gate()
    workloads.Reconstruct.check_removal(
        gate, [(0.1, Removal, 1e-9, 0.5), (0.05, Removal, 1e-9, 0.5)])
    assert gate.failed == 1 and "shrinks" in gate.failures[0]
