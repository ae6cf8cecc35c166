"""The benchmark's bindings to the package.

``perfbench/tracing.py`` wraps package functions by module attribute,
and ``perfbench/workloads.py`` reads defaults by signature at import.
A renamed, deleted or re-signatured name would otherwise show only as a
failed benchmark run.  The modules are loaded by path, unchanged.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nsdpkit import caratheodory, cq, fixtures, kkt, linalg, model, solvers

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
MODULES = {"linalg": linalg, "model": model, "caratheodory": caratheodory,
           "kkt": kkt, "solvers": solvers, "cq": cq}


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def registry():
    return fixtures.default_registry()


def test_tracer_wraps_and_restores_every_target(registry, monkeypatch):
    tracing = load("tracing", monkeypatch)
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _, _ in tracing._targets(MODULES)]
    fix = registry.get("ex-3.1")
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        assert all(getattr(owner, attr).__wrapped__ is original
                   for owner, attr, original in saved)
        cq.check_nondegeneracy(fix.problem, fix.x_bar)
    assert len(tracer) > 0
    calls = tracing.Summary(tracer, 0, len(tracer)).calls
    assert calls["cq.check.nondegeneracy"] == 1
    assert calls["linalg.spectral_decompose"] >= 1
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)


def test_workloads_bind_the_package(registry, tmp_path, monkeypatch):
    workloads = load("workloads", monkeypatch)
    assert (workloads.MSR_GROWTH, workloads.MSR_CAP) == (cq.MSR_GROWTH, cq.MSR_CAP)
    for name, workload in workloads.WORKLOADS.items():
        assert workload.build(registry, 0, tmp_path), name


def test_per_layer_reads_a_traced_msr_ball_round(registry, tmp_path, monkeypatch):
    # per_layer indexes the m = 2 decompositions and divides by the calls of
    # each timed layer; msr-ball's m = 2 work runs in moreau_split and
    # proj_psd, leaving spectral_decompose only the feasibility gates
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them at import
    run, tracing, workloads = (load(name, monkeypatch)
                               for name in ("run", "tracing", "workloads"))
    workload = workloads.WORKLOADS["msr-ball"]
    runner = run.Runner(workload, workload.build(registry, 0, tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        runner.round(tracer)
    assert runner.failed == 0, runner.failures
    metrics, _ = run.per_layer(tracing.Summary(tracer, 0, len(tracer)), 0.0, 0.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {layer["name"] for layer in bench["per_layer"]} <= set(metrics)
    assert metrics["linalg.spectral_decompose.calls.m2"][0] > 0


def test_per_layer_reads_a_traced_scale_m_round(registry, tmp_path, monkeypatch):
    # the m >= 3 AL solves split through the warm entry of moreau_split and
    # call al_value and al_gradient with their solve's state; per_layer
    # divides by the calls of each timed layer, so each must still be seen
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them at import
    run, tracing, workloads = (load(name, monkeypatch)
                               for name in ("run", "tracing", "workloads"))
    workload = workloads.WORKLOADS["scale-m"]
    runner = run.Runner(workload, workload.build(registry, 0, tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        runner.round(tracer)
    assert runner.failed == 0, runner.failures
    metrics, _ = run.per_layer(tracing.Summary(tracer, 0, len(tracer)), 0.0, 0.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {layer["name"] for layer in bench["per_layer"]} <= set(metrics)
    assert metrics["linalg.moreau_split.calls"][0] > 0


def test_diagnose_replays_nlp_verdicts_from_files(registry, tmp_path, monkeypatch):
    # a diagnose replays each VIOLATED nlp verdict from its written file
    # against the fixture's embedding, which only a benchmark run reaches
    workloads = load("workloads", monkeypatch)
    violated = set()
    for fix in registry:
        if fix.embedding is None:
            continue
        op = workloads.DiagnoseOp(fix, cq.CqBudget(), tmp_path)
        results = op.run()
        assert op.check(results) == [], fix.fixture_id
        for name, status, _, replayed in results:
            if name in workloads.NLP_CHECKS and status == cq.VIOLATED:
                assert replayed is True, (fix.fixture_id, name)
                violated.add((fix.fixture_id, name))
    assert violated == {("nlp-zero-grad", "nlp-crcq"), ("nlp-zero-grad", "nlp-cpld"),
                        ("nlp-curve", "nlp-crcq")}
