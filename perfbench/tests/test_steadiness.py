"""Steadiness self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs every workload twice traced and once untraced at the smallest size
the runner allows (`--seconds 1`: the minimum number of rounds) and
checks that per-layer counts and fingerprints repeat exactly, that no
operation failed, and that every metric BENCHMARK.json names is printed
with its unit.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    report = dict(line.split(" ", 1) for line in lines[:-1] if " " in line)
    return report, json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    name = request.param
    return name, [run(name, 1), run(name, 1), run(name, 0)]


def test_counts_and_fingerprints_repeat(runs):
    _, [(rep_a, res_a), (rep_b, res_b), (rep_c, _)] = runs
    assert rep_a["fingerprint"] == rep_b["fingerprint"] == rep_c["fingerprint"]
    assert rep_a["counts"] == rep_b["counts"]
    counts_a = {k: v for k, v in res_a["metrics"].items() if v["unit"] == "count"}
    counts_b = {k: v for k, v in res_b["metrics"].items() if v["unit"] == "count"}
    assert counts_a and counts_a == counts_b


def test_nothing_failed(runs):
    _, results = runs
    for report, result in results:
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert report["rounds"].split()[-1] == "0.000000"   # failed_frac


@pytest.mark.parametrize("trace, section", [(1, "per_layer"), (0, "end_to_end")])
def test_every_metric_printed_with_its_unit(runs, trace, section):
    _, results = runs
    _, result = results[0] if trace else results[2]
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        value = printed[metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
