"""Tests of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3] and c [4, 9]; c holds d [5, 8].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 8, 9, 10]))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    assert tracer.parents == [-1, 0, 0, 2]
    assert tracer.durations() == [10, 2, 5, 3]
    assert tracer.self_times() == [3, 2, 2, 3]
    totals = tracer.totals()
    assert totals["a"] == {"calls": 1, "total_s": 10, "self_s": 3}
    assert totals["c"] == {"calls": 1, "total_s": 5, "self_s": 2}


def test_self_times_sum_to_root_duration():
    rng = random.Random(3)
    tracer = spans.Tracer(clock=iter(range(10_000)).__next__)

    def nest(depth):
        idx = tracer.open(f"d{depth}")
        for _ in range(rng.randint(0, 3) if depth < 4 else 0):
            nest(depth + 1)
        tracer.close(idx)

    nest(0)
    assert sum(tracer.self_times()) == tracer.durations()[0]
    assert min(tracer.self_times()) >= 1


def test_wrappers_record_spans_and_are_restored():
    seen = []
    module = types.SimpleNamespace(outer=None, inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    original_outer, original_inner = module.outer, module.inner
    tracer = spans.Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner", on_result=seen.append)
    assert module.outer(1) == 4
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    assert seen == [2]
    assert tracer.restore() == []
    assert module.outer is original_outer and module.inner is original_inner


def test_close_out_of_order_is_an_error():
    tracer = spans.Tracer()
    a = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(a)


def test_tail_percentile_keeps_ten_samples_beyond():
    rng = random.Random(7)
    for n in range(1, 400):
        values = rng.sample(range(100_000), n)
        tail = spans.tail_percentile(values)
        if n <= 10:
            assert tail is None
            continue
        pct, value = tail
        assert sum(v > value for v in values) == 10
        assert 0.0 < pct < 100.0
        assert pct == pytest.approx(100.0 * sum(v <= value for v in values) / n)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_byte_deterministic_per_seed(tmp_path, name):
    first = _files(workloads.generate(name, 5, tmp_path / "a").parent)
    again = _files(workloads.generate(name, 5, tmp_path / "b").parent)
    other = _files(workloads.generate(name, 6, tmp_path / "c").parent)
    assert first == again
    assert first.keys() == other.keys()
    assert first["scenario.json"] != other["scenario.json"]


def test_feeder_step_is_certified(tmp_path):
    from gridloop import cli, harness

    cfg = cli.load_scenario(workloads.generate("feeder_4k", 0, tmp_path))
    cert = harness.prepare(cfg).certificate
    assert cfg.iterations == workloads.FEEDER_ITERATIONS
    assert cert.certified and cert.eps_configured < 0.8 * cert.eps_max


def test_summary_tolerance():
    want = run.numeric_leaves({"a": [1.0, 2.0], "b": {"c": True, "d": "text"}})
    assert want == {"/a/0": 1.0, "/a/1": 2.0, "/b/c": 1.0}
    assert run.summaries_agree({**want, "/a/1": 2.0 + 1e-12}, want)
    assert not run.summaries_agree({**want, "/a/1": 2.0 + 1e-9}, want)
    assert not run.summaries_agree({"/a/0": 1.0}, want)


def test_check_outputs_flags_nonfinite_and_short_traces(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"status": "done"}))
    (tmp_path / "summary.json").write_text("{}")
    (tmp_path / "trace.csv").write_text("iter,x,dist_to_saddle\n0,1.0,nan\n1,2.0,nan\n")
    hashes, problems = run.check_outputs(tmp_path, iterations=2, trials=1)
    assert problems == [] and set(hashes) == {"trace.csv"}
    _, problems = run.check_outputs(tmp_path, iterations=3, trials=1)
    assert problems and "shape" in problems[0]
    (tmp_path / "trace.csv").write_text("iter,x,dist_to_saddle\n0,inf,nan\n1,2.0,nan\n")
    _, problems = run.check_outputs(tmp_path, iterations=2, trials=1)
    assert problems == ["trace.csv has non-finite values"]


def test_every_per_layer_metric_is_produced(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer(clock=iter(range(100)).__next__)
    for _ in range(3):
        tracer.close(tracer.open("plant.truth"))
    counters = dict.fromkeys(
        ["plant_sweeps", "plant_unconverged", "recon_sweeps", "recon_calls", "recon_fallbacks"], 0
    )
    metrics = child.layer_metrics(tracer, counters, user_iterations=3, out=tmp_path)
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace_overhead"}
    assert wanted <= metrics.keys()
    assert metrics["harness.plant_solves_per_iter"] == 1.0
