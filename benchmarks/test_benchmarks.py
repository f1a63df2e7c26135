"""The benchmark's own tests.

    python3 -m pytest benchmarks/test_benchmarks.py -q

These are not part of the package's test suite. They check the E_F
reference against the published values, run every workload for one pass
at a second seed with every answer check enabled, check the tracer, and
run the two jobs the timed workloads shorten at their full settings: the
census over five-node DAGs and squashed entanglement at its defaults.
Together they take about two minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from wootters import entanglement_of_formation  # noqa: E402

SECOND_SEED = 7

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize(
    "name, expected",
    [
        ("bell_p0.5", 0.0815),
        ("bell_p0.7", 0.2846),
        ("bell_p0.9", 0.5471),
        ("random0", 0.0071),
        ("random1", 0.0259),
        ("random2", 0.0237),
    ],
)
def test_wootters_matches_published_values(name, expected):
    states = dict(workloads.esq_states())
    assert entanglement_of_formation(states[name]) == pytest.approx(expected, abs=1e-4)


def test_census_at_acceptance_settings():
    report = workloads.qbnets.dsep_forward_census(max_nodes=5, trials=50, seed=404)
    assert workloads.check_census(report) is None
    # criterion 4 fails by design; the count is the one the package reports
    assert not report.passed
    assert report.violations == 1227


def test_esq_at_default_settings_reproduces_the_table():
    table = {
        "bell_p0.5": 0.0956, "bell_p0.7": 0.2949, "bell_p0.9": 0.5188,
        "random0": 0.0162, "random1": 0.0339, "random2": 0.0393,
    }
    excess = 0.0
    for name, matrix in workloads.esq_states():
        rho = workloads.qbnets.DensityMatrix(workloads.LABELS, matrix)
        result = workloads.qbnets.squashed_entanglement(rho)
        assert result.value == pytest.approx(table[name], abs=1e-4), name
        half_mi = 0.5 * workloads.qbnets.quantum_mutual_information(rho, "x", "y")
        excess += result.value - min(half_mi, entanglement_of_formation(matrix))
    assert excess == pytest.approx(0.0571, abs=1e-4)


def test_wootters_anchors():
    bell = workloads.bell_with_noise(1.0)
    assert entanglement_of_formation(bell) == pytest.approx(np.log(2.0), abs=1e-12)
    assert entanglement_of_formation(np.eye(4) / 4) == 0.0
    # Werner states are separable up to p = 1/3
    assert entanglement_of_formation(workloads.bell_with_noise(1 / 3 - 1e-9)) == 0.0


def _run(workload: str, trace: int = 0, seconds: float = 0.0):
    args = argparse.Namespace(workload=workload, seed=SECOND_SEED, seconds=seconds, trace=trace)
    return run.run(args)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_answer_checks_at_a_second_seed(workload):
    record, result = _run(workload)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_lists_the_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    units = dict(tracer.metric_names())
    for m in SPEC["per_layer"]:
        assert m["unit"] == units.get(m["name"], m["unit"])


@pytest.mark.parametrize(
    "workload, counts",
    [
        ("census", ("verify.separated_classes", "verify.models")),
        ("inference", ("qbp.messages", "bipartite.sweeps", "amplitudes.multiply_calls", "qbp.max_message_entries")),
        ("esq", ("squashed.evaluations",)),
    ],
)
def test_traced_counts_repeat_exactly(workload, counts):
    runs = [_run(workload, trace=1, seconds=1.0)[1]["metrics"] for _ in range(2)]
    for name in counts:
        assert runs[0][name]["value"] == runs[1][name]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    record, result = _run("reduced_states", trace=1, seconds=1.0)
    assert set(result["metrics"]) == PER_LAYER
    assert record["absent"] == []
    metrics = result["metrics"]
    assert metrics["verify.trials_run"]["value"] > 0
    assert metrics["qinfo.partial_trace_calls"]["value"] > 0
    assert metrics["network.max_tensor_entries"]["value"] == 2**20


def test_missing_function_is_reported_absent(monkeypatch):
    import qbnets.qbp

    monkeypatch.delattr(qbnets.qbp, "compute_pi")
    with tracer.Tracer() as t:
        pass
    absent = t.absent_metrics()
    assert "qbp.compute_pi_s" in absent and "qbp.compute_pi_self_s" in absent
    assert "qbp.compute_lambda_s" not in absent


def test_tracer_patches_every_importing_module_and_restores_them():
    import qbnets

    sites = [
        ("amplitudes", "multiply"), ("qbp", "multiply"), ("bipartite", "multiply"),
        ("qinfo", "amplitude_tensor"), ("verify", "net_to_density"), ("verify", "quantum_cmi"),
        ("verify", "random_qbnet"), ("qbp", "is_polytree"),
    ]
    modules = {name: sys.modules[f"qbnets.{name}"] for name, _ in sites}
    before = {site: getattr(modules[site[0]], site[1]) for site in sites}
    with tracer.Tracer() as t:
        for (name, attr), original in before.items():
            assert getattr(modules[name], attr) is not original, (name, attr)
        t.enabled = True
        qbnets.propagate_polytree(workloads._binary_net(np.random.default_rng(0), 3, [(0, 1), (1, 2)]), {2: 0})
        t.enabled = False
    assert {site: getattr(modules[site[0]], site[1]) for site in sites} == before
    metrics = t.metrics(1)
    assert metrics["qbp.messages"] == 4
    assert metrics["graph.is_polytree_s"] > 0
    assert metrics["amplitudes.multiply_calls"] > 0
