"""Smoke test of the benchmark: one tiny pass per workload, untraced and
traced, must pass its output checks and report every metric that
BENCHMARK.json lists, under the listed unit."""

import json
from pathlib import Path

import pytest

import harness
import tracer
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_metric(workload, trace, tmp_path):
    summary, lines = harness.measure(workload, 0, 0.0, trace, tmp_path,
                                     size="tiny", setup_repeats=1,
                                     warmup=False)
    assert summary["correct"], "\n".join(lines)
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in summary["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    assert (tmp_path / "result.json").is_file()
    assert (tmp_path / "spans.json").is_file() == trace


def test_self_times_share_overlapping_threads():
    # a sweep root with children on two worker threads; `a` has a child `c`
    span = tracer.Span
    spans = [span(1, "cli.sweep", "cli", 0.0, 10.0, None, 1, 0),
             span(2, "a", "bounds", 1.0, 5.0, 1, 1, 1),
             span(3, "b", "bounds", 3.0, 7.0, 1, 1, 2),
             span(4, "c", "eigensolve1d", 1.5, 2.5, 2, 1, 1)]
    got = tracer.self_times(spans)
    assert got == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})
    assert sum(got.values()) == pytest.approx(10.0)
