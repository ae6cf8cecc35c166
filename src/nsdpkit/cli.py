"""Command-line entry point.

Three subcommands: ``solve`` runs a solver on a fixture or problem file
and writes a trace plus a summary, ``diagnose`` runs the constraint
qualification checks and writes one verdict document per check, and
``regress`` executes the fixture-by-check-by-solver matrix together
with the implication ordering and the randomized property suites.
Each parses only the options it reads:

- solve: --fixture, --problem, --point, --x0, --config, --solver, --out-dir
- diagnose: --fixture, --problem, --point, --checks, --seed, --budget,
  --expected, --msr-samples, --out-dir
- regress: --suite, --prop-cases, --seed, --budget, --expected,
  --msr-samples, --out-dir

Outputs land in --out-dir, the NSDPKIT_OUT_DIR environment variable, or
``./nsdpkit-out``.  Identical commands with identical seeds produce
byte-identical files except for the generated-at header line, which the
content hashes exclude.

Exit codes: solve 0 converged / 2 iteration cap or rounding floor / 3
error; diagnose 0 match or no comparison / 1 mismatch / 3 error; regress
0 clean / 1 any failed entry / 3 error.  An --expected table that breaks
the implication order exits 1 in diagnose and regress.  A usage error
(an unknown option, an option of another subcommand, a bad choice or
number, an --msr-samples or --prop-cases below 1) exits 3, never
argparse's 2, and --help exits 0.  After parsing, any other error exits
3 with one ``error:`` line, an unusable output directory and a failed
write included; malformed input (an unknown check, budget field or
config key, a config or budget value of the wrong type, a config cap
below 1 or a negative target_tol, --point or --x0 with --fixture, a
config, problem or expected-table file of the wrong shape or JSON type,
an expected table naming an unknown fixture, check or status, a missing
file, a missing reference point, a non-finite number) does so before any
check runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields as dataclass_fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import caratheodory, cq, fixtures, kkt, linalg, model, selftest, solvers

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CAP = 2
EXIT_ERROR = 3

DEFAULT_CHECKS = tuple(name for name, spec in cq.CHECKS.items()
                       if spec.scope == "default")
#: --config keys and their types: the AlConfig fields plus tolerance,
#: schedule and caps
AL_KEYS = {f.name for f in dataclass_fields(solvers.AlConfig)}
CONFIG_TYPES = {**get_type_hints(solvers.AlConfig), "target_tol": float,
                "rho_growth": float, "max_outer": int, "max_iter": int}
#: the least --config value of the solver caps and of the tolerance
CONFIG_FLOORS = {"target_tol": 0.0, "max_outer": 1, "max_iter": 1}
BUDGET_TYPES = get_type_hints(cq.CqBudget)


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get("NSDPKIT_OUT_DIR") or "nsdpkit-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_vector(text: str, n: int, label: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"cannot parse {label} {text!r}: {exc}") from exc
    if vec.shape != (n,):
        raise ValueError(f"{label} has {vec.shape[0]} entries, expected {n}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{label} {text!r} has a non-finite entry")
    return vec


def _typed(value, kind: type, label: str):
    """``value`` as an ``int`` or ``float`` field, or ValueError naming ``label``.

    int fields take integers only, float fields any finite number;
    booleans are neither.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and (isinstance(value, int) if kind is int
                   else abs(value) <= sys.float_info.max):
        return kind(value)
    raise ValueError(f"{label} must be "
                     + ("an integer" if kind is int else "a finite number"))


def _number(raw: str):
    """An int where ``raw`` spells one, else a float, else ``raw`` itself."""
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return raw


def _load_source(args) -> fixtures.Fixture:
    if args.fixture and args.problem:
        raise ValueError("give --fixture or --problem, not both")
    if args.fixture:
        if args.point or getattr(args, "x0", None):
            raise ValueError("--point and --x0 apply only to --problem; "
                             "a fixture brings its own point and start")
        expected = getattr(args, "expected", None)
        registry = fixtures.FixtureRegistry(expected) if expected \
            else fixtures.default_registry()
        return registry.get(args.fixture)
    if args.problem:
        poly = model.load_problem(args.problem)
        problem = poly.problem()
        # built on the file's own table, so that table is checked even
        # where --point then drops it
        source = fixtures.Fixture(fixture_id=problem.name or Path(args.problem).stem,
                                  problem=problem, x_bar=poly.x_bar,
                                  x0=np.zeros(problem.n), expected=poly.expected or {})
        if args.point:
            # the file's expected verdicts refer to the file's own point
            source = replace(source, expected={},
                             x_bar=_parse_vector(args.point, problem.n, "--point"))
        x0 = source.x_bar if source.x_bar is not None else source.x0
        if getattr(args, "x0", None):
            x0 = _parse_vector(args.x0, problem.n, "--x0")
        return replace(source, x0=x0)
    raise ValueError("need --fixture or --problem")


def _parse_budget(args) -> cq.CqBudget:
    overrides = {}
    for pair in args.budget.split(",") if args.budget else ():
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in BUDGET_TYPES:
            raise ValueError(f"unknown budget field {key!r}; "
                             f"known: {', '.join(sorted(BUDGET_TYPES))}")
        overrides[key] = _typed(_number(raw), BUDGET_TYPES[key],
                                f"budget field {key!r}")
    if args.seed is not None:
        overrides["seed"] = args.seed
    return cq.CqBudget(**overrides)


def _load_config(args) -> dict:
    """The --config object; ValueError for a key, type or value it cannot use."""
    if not args.config:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("--config must hold a JSON object")
    unknown = sorted(set(config) - set(CONFIG_TYPES))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(sorted(CONFIG_TYPES))}")
    config = {key: _typed(value, CONFIG_TYPES[key], f"config key {key!r}")
              for key, value in config.items()}
    for key, floor in CONFIG_FLOORS.items():
        if config.get(key, floor) < floor:
            raise ValueError(f"config key {key!r} must be at least {floor}")
    if config.get("rho_growth", 10.0) <= 1.0:  # as AlConfig's gamma > 1
        raise ValueError("config key 'rho_growth' must exceed 1")
    return config


# ---------------------------------------------------------------------------
# solve


def _run_solver(problem, x0, solver: str, config: dict) -> solvers.SolverTrace:
    cfg = solvers.AlConfig(**{k: v for k, v in config.items() if k in AL_KEYS})
    target_tol = config.get("target_tol", 1e-6)
    if solver == "penalty":
        rho1 = config.get("rho1", 10.0)
        growth = config.get("rho_growth", 10.0)
        max_outer = config.get("max_outer", 12)
        return solvers.solve_external_penalty(
            problem, x0,
            rho_schedule=lambda k: rho1 * growth ** (k - 1),
            inner_tol_schedule=lambda k: max(0.1 * 0.5 ** (k - 1),
                                             min(0.1, target_tol)),
            max_outer=max_outer, target_tol=target_tol, config=cfg)
    if solver == "al":
        max_outer = config.get("max_outer", 30)
        return solvers.solve_augmented_lagrangian(
            problem, x0, config=cfg, target_tol=target_tol,
            max_outer=max_outer)
    if solver == "sqp":
        max_iter = config.get("max_iter", 40)
        return solvers.solve_sqp(problem, x0, target_tol=target_tol,
                                 max_iter=max_iter)
    raise ValueError(f"unknown solver {solver!r}; choose penalty, al, or sqp")


def _summary_text(source: fixtures.Fixture, solver: str,
                  trace: solvers.SolverTrace) -> str:
    problem = source.problem
    final = trace.final
    res = final.residual
    first_y = linalg.frob(trace.records[0].y)
    final_y = linalg.frob(final.y)
    lines = [
        f"problem: {source.fixture_id}",
        f"solver: {solver}",
        f"termination: {trace.termination}",
        f"outer iterations: {len(trace)}",
        f"final rho: {final.rho:.6e}",
        f"final x: {np.array2string(final.x, precision=8)}",
        f"objective: {problem.f(final.x):.10e}",
        f"stationarity: {res.stationarity:.6e}",
        f"feasibility: {res.feasibility:.6e}",
        f"complementarity: {res.complementarity:.6e}",
        f"dual-feasibility: {res.dual_feasibility:.6e}",
        f"multiplier norm: {final_y:.6e}",
    ]
    if final_y >= 1e3 and final_y >= 10.0 * max(first_y, 1e-12):
        lines.append("note: multiplier estimates diverged "
                     f"({first_y:.3e} -> {final_y:.3e}); the limit point "
                     "may admit no Lagrange multiplier")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    source = _load_source(args)
    config = _load_config(args)
    out = _out_dir(args)
    trace = _run_solver(source.problem, source.x0, args.solver, config)
    if not trace.records:
        raise ValueError(f"the {args.solver} solver recorded no iteration "
                         f"(termination: {trace.termination})")
    trace_path = out / f"{source.fixture_id}-{args.solver}.trace"
    kkt.write_trace(trace.certificate(), trace_path)
    summary = _summary_text(source, args.solver, trace)
    model._atomic_write(out / f"{source.fixture_id}-{args.solver}-summary.txt", summary)
    print(summary, end="")
    print(f"trace written to {trace_path}")
    if trace.termination == "converged":
        return EXIT_OK
    if trace.termination in ("iteration_cap", "rounding_floor"):
        return EXIT_CAP
    raise ValueError(f"the {args.solver} solver did not converge "
                     f"(termination: {trace.termination})")


# ---------------------------------------------------------------------------
# diagnose


def _check_names(text: str | None, source: fixtures.Fixture) -> list:
    """The requested checks, validated against the registry before any runs."""
    if source.x_bar is None:
        raise ValueError("no reference point: give --point or a file x_bar")
    names = [c.strip() for c in text.split(",")] if text else list(DEFAULT_CHECKS)
    for name in names:
        if cq.check_spec(name).scope == "embedding" and source.embedding is None:
            raise ValueError(f"{name} needs a diagonal-embedding fixture")
    return names


def _context(source: fixtures.Fixture, budget: cq.CqBudget,
             msr_samples: int) -> cq.PointContext:
    """Point work shared by every check run at the source's reference point."""
    return cq.PointContext.at(source.problem, source.x_bar, budget,
                              curves=source.curves, embedding=source.embedding,
                              msr_samples=msr_samples)


def cmd_diagnose(args) -> int:
    source = _load_source(args)
    budget = _parse_budget(args)
    checks = _check_names(args.checks, source)
    out = _out_dir(args)
    ctx = _context(source, budget, args.msr_samples)
    mismatches = []
    compared = 0
    for name in checks:
        verdict = cq.CHECKS[name].run(ctx)
        cq.write_verdict(verdict, out / f"{source.fixture_id}-{name}.verdict")
        allowed = source.allowed(name)
        note = ""
        if allowed is not None:
            compared += 1
            if verdict.status not in allowed:
                mismatches.append(name)
                note = f"  MISMATCH (expected {' or '.join(allowed)})"
            else:
                note = "  (matches expected)"
        print(f"{name}: {verdict.status}{note}")
    if mismatches:
        print(f"{len(mismatches)} mismatch(es): {', '.join(mismatches)}")
        return EXIT_MISMATCH
    if compared == 0:
        print("no expected table; verdicts recorded without comparison")
    return EXIT_OK


# ---------------------------------------------------------------------------
# regress


def _entry(section, fixture, item, status, expected, ok, **details):
    return {
        "section": section,
        "fixture": fixture,
        "item": item,
        "status": status,
        "expected": list(expected) if expected is not None else None,
        "ok": bool(ok),
        "details": details,
    }


def _regress_cq(registry, budget, msr_samples, run_msr):
    entries = []
    recorded = {}
    for fix in registry:
        ctx = _context(fix, budget, msr_samples)
        runs = {"default": True, "embedding": fix.embedding is not None,
                "full": run_msr}
        for name, spec in cq.CHECKS.items():
            if not runs[spec.scope]:
                continue
            verdict = spec.run(ctx)
            recorded[(fix.fixture_id, name)] = verdict.status
            allowed = fix.allowed(name)
            ok = allowed is None or verdict.status in allowed
            entries.append(_entry("cq", fix.fixture_id, name, verdict.status,
                                  allowed, ok))
    return entries, recorded


def _residual_rows(fixture_id, solver, trace):
    return [(fixture_id, solver, rec.k, rec.rho, rec.residual.stationarity,
             rec.residual.feasibility, rec.residual.complementarity,
             rec.residual.dual_feasibility, linalg.frob(rec.y))
            for rec in trace.records]


def _regress_solvers(registry, csv_rows):
    entries = []
    for fix in registry:
        problem = fix.problem
        for solver in ("penalty", "al", "sqp"):
            config = {"max_outer": 8} if solver == "penalty" else \
                     {"max_outer": 12} if solver == "al" else {"max_iter": 25}
            try:
                trace = _run_solver(problem, fix.x0, solver, config)
            except ValueError as exc:
                entries.append(_entry("solvers", fix.fixture_id, solver,
                                      "error", None, False, error=str(exc)))
                continue
            csv_rows.extend(_residual_rows(fix.fixture_id, solver, trace))
            detail = {"termination": trace.termination,
                      "outer_iterations": len(trace)}
            ok = True
            if solver in ("al", "sqp") and \
                    trace.termination in ("converged", "rounding_floor"):
                passed, failure = kkt.akkt_check(problem, trace.certificate(),
                                                 tol=1e-4)
                detail["akkt"] = bool(passed)
                if not passed:
                    ok = False
                    detail["akkt_failure"] = str(failure)
            entries.append(_entry("solvers", fix.fixture_id, solver,
                                  trace.termination, None, ok, **detail))
        # multiplier recovery from a fresh penalty trace at the reference point
        expected_rec = fix.expected.get("recovery")
        trace = solvers.solve_external_penalty(
            problem, fix.x0, rho_schedule=lambda k: 10.0 ** k,
            inner_tol_schedule=lambda k: 1e-10, max_outer=8)
        try:
            rec = kkt.recover_multiplier(problem, trace.certificate(), fix.x_bar)
            status = rec.status
            detail = {}
            if status == "recovered":
                res = kkt.kkt_residual(problem, fix.x_bar, rec.multiplier)
                detail["kkt_residual"] = res.max_entry
                if res.max_entry > 1e-4:
                    status = "recovered-but-inaccurate"
        except kkt.TraceTooShortError as exc:
            status, detail = "trace-too-short", {"error": str(exc)}
        ok = expected_rec is None or status == expected_rec
        entries.append(_entry("solvers", fix.fixture_id, "recovery", status,
                              (expected_rec,) if expected_rec else None,
                              ok, **detail))
    return entries


def _regress_safeguard_parity(registry):
    """Zero-radius safeguard must reproduce the external penalty bitwise."""
    fix = registry.get("ex-4.2")
    cfg = solvers.AlConfig(safeguard_radius=0.0)
    al = solvers.solve_augmented_lagrangian(fix.problem, fix.x0, config=cfg,
                                            target_tol=0.0, max_outer=6)
    rhos = [rec.rho for rec in al.records]
    pen = solvers.solve_external_penalty(
        fix.problem, fix.x0,
        rho_schedule=lambda k: rhos[k - 1],
        inner_tol_schedule=lambda k: max(0.1 * 0.5 ** (k - 1), 1e-8),
        max_outer=len(rhos))
    gap = max(linalg.frob(a.x - b.x) + linalg.frob(a.y - b.y)
              for a, b in zip(al.records, pen.records))
    return [_entry("solvers", fix.fixture_id, "zero-safeguard-parity",
                   "match" if gap <= 1e-12 else "diverged", ("match",),
                   gap <= 1e-12, max_gap=gap)]


def _regress_msr_curve(registry, seed):
    fix = registry.get("ex-4.3")
    est = cq.estimate_msr_modulus(fix.problem, fix.x_bar, radius=0.1,
                                  samples=200, seed=seed)
    ok = 0.99 <= est.gamma_hat <= 1.01 and not est.unreliable
    rows = [("ex-4.3", est.radius, i, r) for i, r in enumerate(est.ratios)]
    entry = _entry("msr", fix.fixture_id, "ratio-curve",
                   f"gamma={est.gamma_hat:.6f}", ("0.99..1.01",), ok,
                   gamma_hat=est.gamma_hat, samples=est.samples,
                   failed_projections=est.n_failed)
    return [entry], rows


def _regress_props(registry, cases, seed):
    problems = [fix.problem for fix in registry]
    entries = []
    for res in selftest.run_all(problems, cases=cases, seed=seed):
        entries.append(_entry("props", "-", res.name,
                              "ok" if res.ok else "failed", ("ok",), res.ok,
                              cases=res.cases, failures=list(res.failures)))
    return entries


def _regress_meta(recorded):
    entries = []
    by_fixture = {}
    for (fid, check), status in recorded.items():
        by_fixture.setdefault(fid, {})[check] = (status,)
    for fid, table in sorted(by_fixture.items()):
        for strong, weak in cq.broken_implications(table):
            entries.append(_entry("meta", fid, f"{strong}->{weak}",
                                  f"{table[strong][0]} vs {table[weak][0]}",
                                  None, False))
    entries.append(_entry("meta", "-", "implication-order",
                          "violated" if any(not e["ok"] for e in entries)
                          else "consistent", ("consistent",),
                          all(e["ok"] for e in entries)))
    return entries


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    model._atomic_write(path, "\n".join(lines) + "\n")


def cmd_regress(args) -> int:
    budget = _parse_budget(args)
    registry = fixtures.FixtureRegistry(args.expected) if args.expected \
        else fixtures.default_registry()
    out = _out_dir(args)
    suite = args.suite
    entries = []
    recorded = {}
    residual_rows = []
    if suite in ("full", "cq"):
        cq_entries, recorded = _regress_cq(registry, budget, args.msr_samples,
                                           run_msr=(suite == "full"))
        entries += cq_entries
    if suite in ("full", "solvers"):
        entries += _regress_solvers(registry, residual_rows)
        entries += _regress_safeguard_parity(registry)
    msr_rows = []
    if suite in ("full", "msr"):
        msr_entries, msr_rows = _regress_msr_curve(registry, budget.seed)
        entries += msr_entries
    if suite in ("full", "props"):
        entries += _regress_props(registry, args.prop_cases, budget.seed)
    if recorded:
        entries += _regress_meta(recorded)

    if residual_rows:
        _write_csv(out / "residuals.csv",
                   ("fixture", "solver", "k", "rho", "stationarity",
                    "feasibility", "complementarity", "dual_feasibility",
                    "multiplier_norm"), residual_rows)
    if msr_rows:
        _write_csv(out / "msr-ratio.csv",
                   ("fixture", "radius", "sample", "ratio"), msr_rows)

    failed = [e for e in entries if not e["ok"]]
    body = {
        "format": "nsdpkit-regress/1",
        "suite": suite,
        "seed": budget.seed,
        "entries": entries,
        "summary": {"total": len(entries), "failed": len(failed)},
    }
    canonical = json.dumps(body, sort_keys=True)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    report = dict(body)
    report["content_sha256"] = digest
    report["generated-at"] = datetime.now(timezone.utc).isoformat()
    model._atomic_write(out / "report.json",
                        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"suite {suite}: {len(entries)} entries, {len(failed)} failed")
    for e in failed:
        print(f"  FAIL {e['section']}/{e['fixture']}/{e['item']}: "
              f"{e['status']} (expected {e['expected']})")
    print(f"report content hash: {digest}")
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_source_args(sub):
    """The problem and point options of solve and diagnose."""
    sub.add_argument("--fixture",
                     help="built-in fixture id (see the fixtures subcommand)")
    sub.add_argument("--problem", help="path to a problem file")
    sub.add_argument("--point", help="reference point as comma-separated floats")


def _count(text: str) -> int:
    """A number of samples or cases: an integer of at least 1."""
    value = _number(text)
    if not isinstance(value, int) or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_sampling_args(sub):
    """The check-sampling and expected-table options of diagnose and regress."""
    sub.add_argument("--seed", type=int, default=None, help="sampling seed")
    sub.add_argument("--budget", help="comma-separated budget overrides, "
                     "e.g. n_directions=8,shrink_levels=10")
    sub.add_argument("--expected", help="alternate expected-verdict table file")
    sub.add_argument("--msr-samples", type=_count, default=40,
                     help="samples per radius for the msr check")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nsdpkit",
        description="solvers and constraint-qualification diagnostics for "
                    "nonlinear semidefinite programming")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run a solver, write trace + summary")
    _add_source_args(solve)
    solve.add_argument("--x0", help="solver start as comma-separated floats")
    solve.add_argument("--config", help="JSON file with solver overrides")
    solve.add_argument("--solver", choices=("penalty", "al", "sqp"),
                       default="al")
    solve.set_defaults(func=cmd_solve)

    diag = subs.add_parser("diagnose", help="run CQ checks, write verdicts")
    _add_source_args(diag)
    _add_sampling_args(diag)
    extra = [name for name in cq.CHECKS if name not in DEFAULT_CHECKS]
    diag.add_argument("--checks", help="comma-separated check names "
                      f"(default {','.join(DEFAULT_CHECKS)}; also "
                      f"{', '.join(extra)})")
    diag.set_defaults(func=cmd_diagnose)

    reg = subs.add_parser("regress", help="run the regression matrix")
    _add_sampling_args(reg)
    reg.add_argument("--suite", choices=("full", "cq", "solvers", "msr",
                                         "props"), default="full")
    reg.add_argument("--prop-cases", type=_count, default=500,
                     help="cases per property suite")
    reg.set_defaults(func=cmd_regress)

    for sub in (solve, diag, reg):
        sub.add_argument("--out-dir", help="output directory "
                         "(default $NSDPKIT_OUT_DIR or ./nsdpkit-out)")

    lst = subs.add_parser("fixtures", help="list built-in fixtures")
    lst.set_defaults(func=cmd_fixtures)
    return parser


def cmd_fixtures(args) -> int:
    for fix in sorted(fixtures.default_registry(), key=lambda f: f.fixture_id):
        print(f"{fix.fixture_id:18s} n={fix.problem.n} m={fix.problem.m}  "
              f"{fix.description.splitlines()[0]}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one subcommand; its exit code, --help and usage errors included.

    The subcommands raise and this is the only place where an exception
    becomes an exit code (see the module docstring); any exception not
    named here is a bug and keeps its traceback.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except fixtures.ImplicationOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except cq.InfeasiblePointError as exc:
        print(f"error: point is infeasible, measured violation "
              f"{exc.infeasibility:.3e}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError, linalg.JacobiConvergenceError,
            caratheodory.ReductionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
