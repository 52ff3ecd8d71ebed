"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import pytest

import spans
import workloads
from spans import Span, Tracer


def test_self_time_subtracts_the_union_of_child_spans():
    spans_ = [
        Span("item", 0, 100, None),
        Span("a", 10, 50, 0),
        Span("b", 20, 30, 1),
        Span("c", 60, 90, 0),
        Span("d", 80, 95, 0),          # overlaps its sibling c
    ]
    assert spans.self_times(spans_) == [25, 30, 10, 30, 15]
    assert spans.roots(spans_) == [0, 0, 0, 0, 0]
    # b is nested in a, so it is not counted twice
    assert spans.covered_time(spans_, {"a", "b"}, within={0}) == 40
    assert spans.covered_time(spans_, {"c", "d"}, within={0}) == 45
    assert spans.covered_time(spans_, {"a"}, within=set()) == 0


def test_layer_metrics_group_by_item_and_setup_roots():
    label, euler, vel = "idm.label_video", "flow.euler_sample", "idm.IdmModel.velocity"
    spans_ = [
        Span("setup", 0, 10, None),
        Span("checkpoint.save_checkpoint", 1, 5, 0, amount=100.0),
        Span("item", 10, 110, None),
        Span(label, 10, 100, 2),
        Span(euler, 10, 90, 3),
        Span(vel, 20, 40, 4, amount=3.0),
        Span(vel, 50, 70, 4, amount=3.0),
        Span("item", 110, 210, None),
        Span(vel, 120, 160, 7, amount=5.0),    # outside any label
    ]
    m = spans.layer_metrics(spans_)
    assert m[f"{vel}.calls"] == 1.5
    assert m[f"{vel}.self_ms"] == pytest.approx(80 / 2 / 1e6)
    assert m[f"{euler}.self_ms"] == pytest.approx(40 / 2 / 1e6)
    assert m[f"{vel}.ms_per_call_p50"] == pytest.approx(20 / 1e6)
    assert m["idm.velocity_calls_per_label"] == 2.0
    assert m["idm.rows_per_velocity_call"] == pytest.approx(11 / 3)
    assert m["share.idm_velocity"] == pytest.approx(80 / 200)
    assert m["checkpoint.bytes"] == 100.0
    assert m["checkpoint.save_checkpoint.setup_self_ms"] == pytest.approx(4 / 1e6)
    assert m["checkpoint.save_checkpoint.calls"] == 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail([float(x) for x in range(1, 41)]) == (75, 30.0)
    assert workloads.tail([float(x) for x in range(1, 20)]) == (100, 19.0)
    assert workloads.auroc([0.9, 0.8], [0.1, 0.8]) == pytest.approx(0.875)


def test_wrappers_cover_every_lookup_site_and_are_removed():
    from trajcurate import encoder, idm, probe, sim, synthgen

    tracer = Tracer()
    with tracer.installed():
        for holder, name in ((sim, "render"), (encoder, "remap_frames"),
                             (synthgen, "scripted_expert"), (encoder, "save_checkpoint"),
                             (probe, "load_checkpoint"), (idm.IdmModel, "velocity")):
            assert getattr(getattr(holder, name), "__bench_traced__", False), name
    assert spans.traced_leftovers() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_completes_and_restores(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.0, trace=True, work_dir=tmp_path)
    assert result.problems == []
    assert result.failed == 0
    assert result.attempted == workloads.WORKLOADS[name].min_items
    assert spans.traced_leftovers() == []
    calls = {k: v for k, v in result.metrics.items() if k.endswith(".calls")}
    if name == "datagen":
        assert calls["idm.IdmModel.velocity.calls"] == 0
    if name == "curate":
        assert calls["synthgen.remap_frames.calls"] == 0
        assert calls["idm.IdmModel.velocity.calls"] > 0
