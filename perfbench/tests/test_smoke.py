"""Tiny runs of every workload: they pass the correctness check and report
exactly the metrics ``BENCHMARK.json`` declares."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.runner import measure
from perfbench.workloads import WORKLOADS, make_inputs

DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _tiny(name):
    workload = WORKLOADS[name]
    return replace(
        workload,
        profiles=min(workload.profiles, 300),
        count_window=max(40, 4000 // workload.batch),
        setups=2,
    )


@pytest.fixture(autouse=True)
def _short_tails(monkeypatch):
    """Tiny runs take tens of samples, so their tails keep one sample beyond."""
    monkeypatch.setattr(stats, "TAIL_BEYOND", 1)


def test_declared_workloads_exist():
    assert [entry["name"] for entry in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_the_check(name, tmp_path):
    workload = _tiny(name)
    report = measure(workload, make_inputs(workload, seed=3), tmp_path, 0.0, trace=False)
    assert report["errors"] == []
    assert report["failed"] == 0
    assert report["attempted"] > report["batches"] >= 16
    assert set(report["metrics"]) == {metric["name"] for metric in DECLARED["end_to_end"]}
    assert all(value > 0 for value, _ in report["metrics"].values())


def test_same_seed_same_inputs():
    workload = WORKLOADS["fanout-ranges"]
    first, second = make_inputs(workload, 5), make_inputs(workload, 5)
    assert [e.values for e in first.batches[0]] == [e.values for e in second.batches[0]]
    other = make_inputs(workload, 6)
    assert [e.values for e in first.batches[0]] != [e.values for e in other.batches[0]]


def _traced(name, tmp_path):
    workload = _tiny(name)
    report = measure(workload, make_inputs(workload, seed=3), tmp_path, 0.0, trace=True)
    assert report["errors"] == []
    assert set(report["metrics"]) == {metric["name"] for metric in DECLARED["per_layer"]}
    metrics = {name: value for name, (value, _) in report["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    return metrics


def test_traced_replanning_run_reports_its_layers(tmp_path):
    metrics = _traced("replan-wal", tmp_path)
    assert metrics["core.events.validate_per_event"] == pytest.approx(2.0)
    assert metrics["service.adaptive.checks"] > 0
    assert metrics["service.adaptive.replan_s"] > 0
    assert metrics["matching.maintenance_s"] > 0
    assert metrics["service.durability.appends"] > 0
    assert metrics["service.durability.append_s"] > 0
    assert metrics["service.delivery.dispatch_s"] == 0


def test_traced_delivery_run_reports_its_layers(tmp_path):
    metrics = _traced("fanout-ranges", tmp_path)
    assert metrics["matching.match_batch_s"] > 0
    assert metrics["service.notifications.log_s"] > 0
    assert metrics["service.delivery.dispatch_s"] > 0
    assert metrics["service.delivery.lost"] == 0
    assert metrics["service.adaptive.checks"] == 0
    assert metrics["service.durability.appends"] == 0
