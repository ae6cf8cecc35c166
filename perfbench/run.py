"""nsdpkit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fixtures --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
The run sets up (import, fixture registry, problem generation/loading),
then repeats the workload's round of operations, one at a time from a
single client, until `--seconds` have passed.  Every operation's output
is checked.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).  The lines
before it are a human-readable report: machine record, per-kind
latencies, the result fingerprint and, when traced, the per-layer table.
Operation and set-up times in the JSON are corrected for the shared
host's speed at the moment they were taken (see hostspeed.py).  Outputs
the operations write go to `.perfbench-out/<workload>/seed-<n>/`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Matrices here are at most 16 x 16; extra BLAS threads only add
# scheduling noise on a shared machine.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
KERNEL_M = (1, 2, 3, 4, 8, 16)   # matrix sizes the workloads decompose
TAIL_BEYOND = 10            # samples a reported tail percentile must leave beyond it
ROADMAP_BASELINE_US = {     # re-anchor figures, shown for comparison only
    "spectral_decompose m=2": 79.0, "spectral_decompose m=4": 384.0,
    "spectral_decompose m=8": 2900.0, "spectral_decompose m=16": 17900.0,
    "moreau_split m=2": 94.0, "al_value m=2": 82.0, "al_gradient m=2": 99.0,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentile(values, pct):
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1]) \
        if len(values) > 1 else float(values[0])


# ---------------------------------------------------------------------------
# machine record


def blas_record(np) -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                get_threads = getattr(handle, sym)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                threads = get_threads()
                break
    return {"blas": f"{info.get('name')} {info.get('version')}",
            "blas_threads": threads if threads is not None
            else f"{BLAS_THREADS} (requested)"}


def machine_record(np) -> dict:
    rec = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "machine": platform.machine()}
    rec.update(blas_record(np))
    return rec


# ---------------------------------------------------------------------------
# rounds


class Runner:
    """Runs rounds of a workload's operations and checks what they return."""

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.op_spans: list[tuple[str, float, float]] = []   # kind, start, end
        self.round_seconds: list[float] = []
        self.fingerprints: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def round(self, tracer=None) -> float:
        outcomes, problems = [], {}
        digest = hashlib.sha256()
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.current_op = len(self.op_spans)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:   # an operation that raises counts as failed
                out = None
                problems[i] = [traceback.format_exc(limit=3)]
            self.op_spans.append((op.kind, t0, time.perf_counter()))
            outcomes.append(out)
            if out is not None:   # untimed: fingerprint the files just written
                digest.update(f"{op.label}|{op.digest(out)}\n".encode())
        wall = time.perf_counter() - start
        for i, (op, out) in enumerate(zip(self.ops, outcomes)):
            if out is not None:
                problems.setdefault(i, []).extend(op.check(out))
        if self.workload.round_check is not None and None not in outcomes:
            for i, msg in self.workload.round_check(self.ops, outcomes):
                problems.setdefault(i, []).append(msg)
        bad = {i: p for i, p in problems.items() if p}
        self.attempted += len(self.ops)
        self.failed += len(bad)
        self.failures += [f"{self.ops[i].label}: {'; '.join(p)}" for i, p in bad.items()]
        self.fingerprints.append(digest.hexdigest())
        self.round_seconds.append(wall)
        return wall


def min_rounds(workload, ops_per_round: int) -> int:
    """Rounds needed to leave TAIL_BEYOND samples beyond the tail percentile."""
    beyond = ops_per_round * (1.0 - workload.tail_pct / 100.0)
    return max(2, math.ceil(TAIL_BEYOND / beyond))


def keep_going(elapsed: float, done: int, seconds: float) -> bool:
    """Start another round only if it should end within half a round of `seconds`."""
    return done == 0 or elapsed + 0.5 * elapsed / done < seconds


# ---------------------------------------------------------------------------
# metrics


def latency(samples, tail_pct) -> dict:
    ms = [s * 1e3 for s in samples]
    tail = percentile(ms, tail_pct)
    return {"p50": percentile(ms, 50), "tail": tail, "n": len(ms),
            "beyond": sum(1 for v in ms if v > tail)}


def op_times(runner, sampler) -> list:
    """(kind, measured s, corrected s) per operation; see hostspeed."""
    return [(kind, *sampler.correct(t0, t1)) for kind, t0, t1 in runner.op_spans]


def centre_and_tail(seconds, tail_pct) -> dict:
    lat = latency(seconds, tail_pct)
    lat["geomean"] = math.exp(statistics.fmean(math.log(s * 1e3) for s in seconds))
    lat["ops_per_s"] = len(seconds) / sum(seconds)
    return lat


def end_to_end(times, workload, setup_s) -> tuple[dict, dict, dict]:
    """The bounded metrics, from host-speed-corrected times.  The centre
    of the run is `ops_per_s`, which weighs every second of the timed
    rounds equally.  The median and the geometric mean of the operation
    latencies are in the report, not the JSON: a workload mixes kinds
    whose latencies differ by orders of magnitude, so the median can
    jump between clusters, and the geometric mean weighs the many
    sub-millisecond operations, the noisiest to time, like the rest."""
    measured = centre_and_tail([m for _, m, _ in times], workload.tail_pct)
    corrected = centre_and_tail([c for _, _, c in times], workload.tail_pct)
    return measured, corrected, {
        "op_ms.tail": (corrected["tail"], "ms"),
        "ops_per_s": (corrected["ops_per_s"], "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_kind_lines(times) -> list:
    """Corrected latency per operation kind; the tail is the highest of
    p99/p95/p90/p75 with TAIL_BEYOND samples beyond it in this run."""
    lines = []
    for kind in sorted({k for k, _, _ in times}):
        samples = [c for k, _, c in times if k == kind]
        pct = next((p for p in (99, 95, 90, 75)
                    if len(samples) * (1 - p / 100) >= TAIL_BEYOND), None)
        lat = latency(samples, pct or 50)
        tail = f"{kind}_ms.tail p{pct} {lat['tail']:.3f} ms" if pct \
            else f"{kind}_ms.tail n/a (too few samples)"
        lines.append(f"{kind}_ms.p50 {lat['p50']:.3f} ms   {tail}   "
                     f"(n={lat['n']}, {lat['beyond'] if pct else 0} beyond)")
    return lines


def us_per_call(acc) -> float:
    calls, seconds = acc
    return 1e6 * seconds / calls


def per_layer(summary, trace_overhead, registry_s) -> tuple[dict, list]:
    """Per-layer JSON metrics plus report lines for the ones left out of it.

    The JSON holds every count, the ratios, and the times of layers that
    every workload calls; times of layers some workload never calls
    would read a constant 0 there, so they go to the report only.
    """
    calls, self_s, total_s = summary.calls, summary.self_s, summary.total_s
    out = {}

    def count(name, value):
        out[name] = (int(value), "count")

    def timed(layer, us=True):
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        if us:
            out[f"{layer}.us_per_call"] = (1e6 * total_s[layer] / calls[layer], "us")

    spectral = summary.by_m["linalg.spectral_decompose"]
    count("linalg.spectral_decompose.calls", calls.get("linalg.spectral_decompose", 0))
    for m in KERNEL_M:
        count(f"linalg.spectral_decompose.calls.m{m}", spectral.get(m, [0])[0])
    count("linalg.spectral_decompose.calls.m_other",
          sum(n for m, (n, _) in spectral.items() if m not in KERNEL_M))
    timed("linalg.spectral_decompose", us=False)
    out["linalg.spectral_decompose.us_per_call.m2"] = (us_per_call(spectral[2]), "us")
    for layer in ("linalg.moreau_split", "linalg.proj_psd",
                  "solvers.al_value", "solvers.al_gradient"):
        count(f"{layer}.calls", calls.get(layer, 0))
        timed(layer)
    for layer in ("linalg.lin_dependent", "linalg.pos_lin_dependent",
                  "kkt.akkt_check", "kkt.recover_multiplier",
                  "caratheodory.reduce", "cq.replay_witness"):
        count(f"{layer}.calls", calls.get(layer, 0))
    for layer in ("model.NsdpProblem.g", "model.NsdpProblem.dg",
                  "kkt.kkt_residual", "solvers.inner_minimize"):
        count(f"{layer}.calls", calls.get(layer, 0))
        timed(layer, us=False)
    iterations = summary.value.get("solvers.inner_minimize", 0)
    count("solvers.inner_minimize.iterations", iterations)
    for reason, n in summary.stops.items():
        count(f"solvers.inner_minimize.stop.{reason}", n)
    out["solvers.inner_minimize.stagnant_share"] = (
        summary.stagnant_iterations / iterations if iterations else 0.0, "ratio")
    count("solvers.outer_iterations", sum(
        summary.value.get(f"solvers.{s}", 0) for s in
        ("solve_external_penalty", "solve_augmented_lagrangian", "solve_sqp")))
    count("kkt.write_trace.bytes", summary.value.get("kkt.write_trace", 0))
    count("cq.write_verdict.bytes", summary.value.get("cq.write_verdict", 0))
    count("cq.msr.projection_solves", summary.msr_projection_solves)
    count("cq.msr.samples_infeasible", summary.msr_infeasible)
    out["cq.msr.projection_ok_ratio"] = (
        (summary.msr_infeasible - summary.msr_failed) / summary.msr_infeasible
        if summary.msr_infeasible else 0.0, "ratio")
    out["fixtures.default_registry.s"] = (registry_s, "s")
    out["trace_overhead"] = (trace_overhead, "ratio")

    lines = ["per-layer times for one traced round (calls, inclusive s, self s, us/call);",
             "times marked * are not in the JSON because some workload never calls the layer:"]
    for layer in sorted(calls):
        mark = " " if f"{layer}.self_s" in out else "*"
        lines.append(f" {mark}{layer:<40s} {calls[layer]:8d} {total_s[layer]:10.6f} "
                     f"{self_s[layer]:10.6f} {1e6 * total_s[layer] / calls[layer]:12.1f}")
    lines.append("kernel table (us per call, inclusive, traced; "
                 "baseline from the ROADMAP re-anchor, for comparison only):")
    for layer, m in [("linalg.spectral_decompose", m) for m in (2, 4, 8, 16)] + [
            ("linalg.moreau_split", 2), ("solvers.al_value", 2), ("solvers.al_gradient", 2)]:
        key = f"{layer.split('.')[1]} m={m}"
        acc = summary.by_m[layer].get(m)
        got = f"{us_per_call(acc):10.1f}" if acc else "       n/a"
        lines.append(f"  {key:<24s} {got}   baseline {ROADMAP_BASELINE_US[key]:8.1f}"
                     f"   ({acc[0] if acc else 0} calls)")
    return out, lines


# ---------------------------------------------------------------------------
# set-up


def timed_setup(name: str, seed: int, out_dir: Path):
    """Import nsdpkit, build the fixture registry and the workload's operations.

    Returns (operations, set-up seconds, registry-build seconds, host
    factor measured right after the set-up).  Only the first call in a
    process pays for the imports.
    """
    t0 = time.perf_counter()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from nsdpkit import fixtures
    if name not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    t1 = time.perf_counter()
    registry = fixtures.FixtureRegistry()
    t2 = time.perf_counter()
    ops = workloads.WORKLOADS[name].build(registry, seed, out_dir)
    t3 = time.perf_counter()
    import hostspeed
    return ops, t3 - t0, t2 - t1, hostspeed.host_factor()


def fresh_setup(name: str, seed: int, out_dir: Path) -> tuple[float, float, float]:
    """`timed_setup` in a new interpreter, so the imports are paid again."""
    code = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import run; print(*run.timed_setup(sys.argv[2], int(sys.argv[3]), "
            "Path(sys.argv[4]))[1:])")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), name, str(seed),
                           str(out_dir)], capture_output=True, text=True,
                          check=True, timeout=120)
    setup_s, registry_s, factor = proc.stdout.split()
    return float(setup_s), float(registry_s), float(factor)


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nsdpkit").is_dir():
        print(f"error: no nsdpkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out" / args.workload / f"seed-{args.seed}"
    try:
        ops, *first = timed_setup(args.workload, args.seed, out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    setups = [first] + [fresh_setup(args.workload, args.seed, out_dir)
                        for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(s / f for s, _, f in setups)
    registry_s = statistics.median(r for _, r, _ in setups)

    import hostspeed
    import numpy as np
    import workloads
    from nsdpkit import caratheodory, cq, kkt, linalg, model, solvers
    workload = workloads.WORKLOADS[args.workload]

    runner = Runner(workload, ops)
    report = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
              f"ops/round {len(ops)}",
              "machine " + json.dumps(machine_record(np), sort_keys=True)]
    phase = time.perf_counter()
    metrics_out = {}
    if args.trace == 0:
        need = min_rounds(workload, len(ops))
        with hostspeed.Sampler() as sampler:
            while len(runner.round_seconds) < need or keep_going(
                    time.perf_counter() - phase, len(runner.round_seconds), args.seconds):
                runner.round()
        times = op_times(runner, sampler)
        measured, lat, metrics_out = end_to_end(times, workload, setup_s)
        report.append(f"host factor: median {statistics.median(sampler.warm) / hostspeed.REF_S:.3f} "
                      f"over {len(sampler.warm)} samples (per-kind lines are corrected)")
        for name, d in (("measured", measured), ("corrected", lat)):
            report.append(f"{name}: op_ms.p50 {d['p50']:.3f}  op_ms.geomean {d['geomean']:.3f}  "
                          f"op_ms.tail {d['tail']:.3f}  ops_per_s {d['ops_per_s']:.4f}")
        report.append(f"op_ms.tail is p{workload.tail_pct} over {lat['n']} operations, "
                      f"{lat['beyond']} beyond it")
        report += per_kind_lines(times)
    else:
        from tracing import Summary, Tracer
        tracer = Tracer()
        mods = {"linalg": linalg, "model": model, "caratheodory": caratheodory,
                "kkt": kkt, "solvers": solvers, "cq": cq}
        # Untraced rounds on both sides of every traced one, so neither
        # kind is favoured by when it runs (the first round is colder).
        plain, traced, ranges = [runner.round()], [], []
        while keep_going(time.perf_counter() - phase, len(traced), args.seconds):
            lo = len(tracer)
            with tracer.installed(mods):
                traced.append(runner.round(tracer))
            ranges.append((lo, len(tracer)))
            plain.append(runner.round())
        summaries = [Summary(tracer, lo, hi) for lo, hi in ranges]
        first = summaries[0]
        if any(s.counts() != first.counts() for s in summaries[1:]):
            runner.failures.append("per-layer counts differ between traced rounds")
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics_out, lines = per_layer(first, overhead, registry_s)
        report.append(f"traced rounds {len(traced)}, spans {len(tracer)}, "
                      f"trace_overhead {overhead:.4f}")
        report += lines
        report.append("counts sha256 " + hashlib.sha256(json.dumps(
            first.counts(), sort_keys=True).encode()).hexdigest())

    consistent = len(set(runner.fingerprints)) == 1
    if not consistent:
        runner.failures.append("round fingerprints differ: "
                               + ", ".join(runner.fingerprints))
    report.append("setup seconds measured " + " ".join(f"{s:.3f}" for s, _, _ in setups)
                  + "   host factor " + " ".join(f"{f:.3f}" for _, _, f in setups))
    report.append("round seconds " + " ".join(f"{t:.3f}" for t in runner.round_seconds))
    report.append(f"rounds {len(runner.round_seconds)}  attempted {runner.attempted}  "
                  f"failed {runner.failed}  "
                  f"failed_frac {runner.failed / runner.attempted:.6f}")
    report.append(f"fingerprint {runner.fingerprints[0]}")
    for line in runner.failures:
        report.append("FAIL " + line)
    print("\n".join(report))
    result = {
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
