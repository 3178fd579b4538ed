"""Self-tests of the benchmark harness: span arithmetic, the tail-percentile
rule and the metric names it emits.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

from spans import (  # noqa: E402
    NAME_RE,
    Span,
    Tracer,
    percentile,
    self_times,
    tail_percentile,
)
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "test")


def test_self_time_subtracts_children():
    spans = [
        span("unit", 0.0, 10.0),
        span("pde.truth", 1.0, 4.0, 0),
        span("wls.solve", 5.0, 6.5, 0),
    ]
    selfs = self_times(spans)
    assert selfs["unit"] == pytest.approx((10.0 - 3.0 - 1.5, 1))
    assert selfs["pde.truth"] == pytest.approx((3.0, 1))
    assert selfs["wls.solve"] == pytest.approx((1.5, 1))


def test_self_time_counts_grandchildren_once():
    spans = [
        span("unit", 0.0, 10.0),
        span("fit", 2.0, 8.0, 0),
        span("wls.solve", 3.0, 5.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs["unit"][0] == pytest.approx(4.0)
    assert selfs["fit"][0] == pytest.approx(4.0)
    assert selfs["wls.solve"][0] == pytest.approx(2.0)
    # self times of all spans add up to the root's duration
    assert sum(v for v, _ in selfs.values()) == pytest.approx(10.0)


def test_self_time_sums_calls_of_one_name():
    spans = [span("a", 0.0, 1.0), span("a", 2.0, 2.5), span("b", 3.0, 3.25)]
    assert self_times(spans)["a"] == pytest.approx((1.5, 2))


def test_tracer_nests_spans_and_is_inert_when_off():
    on = Tracer(True, "r")
    with on.span("outer"):
        with on.span("inner"):
            pass
    assert [s.parent for s in on.spans] == [None, 0]
    assert all(s.end >= s.start for s in on.spans)
    off = Tracer(False, "r")
    with off.span("outer"):
        pass
    assert off.spans == []


def test_tracer_closes_span_on_error():
    tracer = Tracer(True, "r")
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_recorder_counts_failure_against_module():
    rec = workloads.Recorder(Tracer(True, "r"))
    with pytest.raises(RuntimeError):
        with rec.call("pde.truth"):
            raise RuntimeError
    assert rec.failed["pde"] == 1


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 50) == 3.0


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (50, 80.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    pct = tail_percentile(values)
    assert pct == expected
    if pct is not None:
        cut = percentile(values, pct)
        assert sum(v > cut for v in values) >= 10


def test_benchmark_json_names_are_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.NAMES)


def test_emitted_per_layer_names_match_benchmark_json():
    tracer = Tracer(True, "r")
    rec = workloads.Recorder(tracer)
    with tracer.span("harness.unit"):
        with rec.call("wls.solve"):
            pass
    done = run.Run(0.4, [0.01], 0.2, lib=None, units=[1.0],
                   unit_ops=[[workloads.Op(1.0, True, 1e-12, {"sampler": "optimal"})]])
    figures = run.workload_figures("poly-fit", done, rec)
    metrics = run.layer_metrics(tracer, rec, figures, 1e-6)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == declared


def test_end_to_end_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(declared) == set(run.END_TO_END_UNITS)
    assert declared == run.END_TO_END_UNITS
    for m in SPEC["end_to_end"]:
        assert re.match(r"^[A-Za-z0-9_/%.\-]{1,16}$", m["unit"])
        assert 0.0 < m["bound"] <= 0.25
