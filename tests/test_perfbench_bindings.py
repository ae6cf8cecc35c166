"""The benchmark's bindings to the package.

``perfbench/tracing.py`` wraps package functions by module attribute,
and ``perfbench/workloads.py`` reads defaults by signature at import.
A renamed, deleted or re-signatured name would otherwise show only as a
failed benchmark run.  The modules are loaded by path, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nsdpkit import caratheodory, cq, fixtures, kkt, linalg, model, solvers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
