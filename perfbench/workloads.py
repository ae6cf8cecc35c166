"""The benchmark's workloads, their operations and the checks on them.

An operation is one user-visible unit of work, timed on its own:

* `diagnose`: one point through every check in `cli.DEFAULT_CHECKS` (plus
  `nlp-crcq` and `nlp-cpld` for diagonal embeddings); every verdict is
  written with `cq.write_verdict` and every VIOLATED witness is replayed
  from the written file with `cq.replay_witness`.
* `solve`: one solver run with the CLI's defaults, `kkt.write_trace`, and
  `kkt.akkt_check` when the run converged.  The penalty run uses the
  schedule `regress` uses for multiplier recovery and is followed by
  `kkt.recover_multiplier`.
* `msr`: one `cq.estimate_msr_modulus` call at one (fixture, radius).

A workload is a fixed list of operations built from the seed (one
round).  The runner repeats the round, so every round does the same work
and per-round counts and fingerprints must agree exactly.
"""

from __future__ import annotations

import hashlib
import inspect
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nsdpkit import cq, fixtures, kkt, model, solvers
from nsdpkit.cli import DEFAULT_CHECKS

NLP_CHECKS = ("nlp-crcq", "nlp-cpld")
SOLVERS = ("penalty", "al", "sqp")
AKKT_TOL = 1e-4              # the tolerance `regress` certifies traces at

# msr-ball: check_msr's two radii, regress's ratio band for ex-4.3, and
# the estimator's own rule for calling a two-radius modulus unbounded.
MSR_FIXTURES = ("ex-4.3", "ex-3.1", "ex-3.2", "nlp-curve")
MSR_RADII = (0.1, 0.025)
MSR_POSITIONS = 4            # one-sample estimator calls per (fixture, radius)
RATIO_BAND = (0.99, 1.01)
_TREND = inspect.signature(cq.estimate_msr_trend).parameters
MSR_GROWTH = _TREND["growth_factor"].default
MSR_CAP = _TREND["bound_cap"].default

# scale-m: solves per m in one round (each copy a fresh random frame);
# diagnoses run on the first copy of each m <= 4.  The copies make a
# round of 16 operations whose median falls among the m = 4 solves and
# whose p75 falls among the m = 8 solves, so neither sits on the gap
# between two groups of operations.
SCALE_M_COPIES = {3: 5, 4: 4, 8: 4, 16: 1}
SCALE_M_DIAGNOSE = (3, 4)
SCALE_M_N = 3


def run_check(name, fix: fixtures.Fixture, budget: cq.CqBudget) -> cq.CqVerdict:
    """Dispatch one named check the way the CLI does."""
    if name == "nondegeneracy":
        return cq.check_nondegeneracy(fix.problem, fix.x_bar, budget)
    if name == "robinson":
        return cq.check_robinson(fix.problem, fix.x_bar, budget)
    if name in cq.WEAK_KINDS:
        return cq.check_weak_cq(fix.problem, fix.x_bar, name, budget,
                                curves=fix.curves)
    if name in cq.SEQ_KINDS:
        return cq.check_seq_cq(fix.problem, fix.x_bar, name, budget,
                               curves=fix.curves)
    return cq.nlp_constant_rank_check(fix.embedding, fix.x_bar,
                                      name.split("-")[1], budget)


class DiagnoseOp:
    kind = "diagnose"

    def __init__(self, fix: fixtures.Fixture, budget: cq.CqBudget, out: Path):
        self.fix, self.budget, self.out = fix, budget, out
        self.label = f"{fix.fixture_id}/diagnose"
        self.checks = DEFAULT_CHECKS + (NLP_CHECKS if fix.embedding else ())

    def run(self):
        results = []
        for name in self.checks:
            verdict = run_check(name, self.fix, self.budget)
            path = self.out / f"{self.fix.fixture_id}-{name}.verdict"
            text = cq.write_verdict(verdict, path)
            replayed = None
            if verdict.status == cq.VIOLATED:
                target = self.fix.embedding if name in NLP_CHECKS \
                    else self.fix.problem
                replayed = cq.replay_witness(target, cq.read_verdict(path))
            results.append((name, verdict.status, text, replayed))
        return results

    def check(self, results) -> list:
        problems = []
        for name, status, _, replayed in results:
            allowed = self.fix.allowed(name)
            if allowed is not None and status not in allowed:
                problems.append(f"{name}: {status}, expected {'/'.join(allowed)}")
            if replayed is False:
                problems.append(f"{name}: VIOLATED witness does not replay")
        return problems

    def digest(self, results) -> str:
        return ";".join(f"{name}={status}:{cq.content_digest(text)}"
                        for name, status, text, _ in results)


@dataclass(frozen=True)
class SolveOutcome:
    termination: str
    akkt_ok: bool | None
    recovery: str | None
    trace_path: Path


class SolveOp:
    kind = "solve"

    def __init__(self, fix: fixtures.Fixture, solver: str, out: Path,
                 must_certify: bool = False):
        self.fix, self.solver, self.out = fix, solver, out
        self.must_certify = must_certify
        self.label = f"{fix.fixture_id}/{solver}"

    def run(self) -> SolveOutcome:
        problem, x0 = self.fix.problem, self.fix.x0
        if self.solver == "penalty":
            trace = solvers.solve_external_penalty(
                problem, x0, rho_schedule=lambda k: 10.0 ** k,
                inner_tol_schedule=lambda k: 1e-10, max_outer=8)
        elif self.solver == "al":
            trace = solvers.solve_augmented_lagrangian(
                problem, x0, config=solvers.AlConfig(), target_tol=1e-6,
                max_outer=30)
        else:
            trace = solvers.solve_sqp(problem, x0, target_tol=1e-6,
                                      max_iter=40)
        cert = trace.certificate()
        path = self.out / f"{self.fix.fixture_id}-{self.solver}.trace"
        kkt.write_trace(cert, path)
        akkt_ok = None
        if trace.termination == "converged":
            akkt_ok = bool(kkt.akkt_check(problem, cert, tol=AKKT_TOL)[0])
        recovery = None
        if self.solver == "penalty":
            recovery = kkt.recover_multiplier(problem, cert, self.fix.x_bar).status
        return SolveOutcome(trace.termination, akkt_ok, recovery, path)

    def check(self, res: SolveOutcome) -> list:
        problems = []
        if res.akkt_ok is False and self.solver in ("al", "sqp"):
            problems.append(f"converged trace fails akkt_check at {AKKT_TOL}")
        if self.must_certify and res.akkt_ok is not True:
            problems.append(f"{res.termination}: no certified trace")
        expected = self.fix.expected.get("recovery")
        if res.recovery is not None and expected and res.recovery != expected:
            problems.append(f"recovery {res.recovery}, expected {expected}")
        return problems

    def digest(self, res: SolveOutcome) -> str:
        text = res.trace_path.read_bytes()
        return f"{res.termination}:{res.recovery}:{hashlib.sha256(text).hexdigest()}"


class MsrOp:
    kind = "msr"

    def __init__(self, fix: fixtures.Fixture, radius: float, seed: int):
        self.fix, self.radius, self.seed = fix, radius, seed
        self.label = f"{fix.fixture_id}/msr@{radius}#{seed}"

    def run(self) -> cq.MsrEstimate:
        return cq.estimate_msr_modulus(self.fix.problem, self.fix.x_bar,
                                       radius=self.radius, samples=1,
                                       seed=self.seed)

    def check(self, est: cq.MsrEstimate) -> list:
        if self.fix.fixture_id != "ex-4.3" or self.radius != MSR_RADII[0]:
            return []
        problems = []
        if not RATIO_BAND[0] <= est.gamma_hat <= RATIO_BAND[1]:
            problems.append(f"gamma_hat {est.gamma_hat!r} outside {RATIO_BAND}")
        if est.unreliable:
            problems.append("estimate marked unreliable")
        return problems

    def digest(self, est: cq.MsrEstimate) -> str:
        return repr(est.gamma_hat)


def msr_outcomes(ops, outcomes) -> list:
    """Two-radius verdict per fixture, judged as `estimate_msr_trend` does.

    Returns (op index, message) for every operation of a fixture whose
    outcome disagrees with its `msr` expectation.
    """
    gamma = {}
    for op, est in zip(ops, outcomes):
        key = (op.fix.fixture_id, op.radius)
        gamma[key] = max(gamma.get(key, 0.0), est.gamma_hat)
    problems = []
    for fid in MSR_FIXTURES:
        big, small = gamma[fid, MSR_RADII[0]], gamma[fid, MSR_RADII[1]]
        growing = small > MSR_GROWTH * max(big, 1e-12) and small > 10.0
        unbounded = max(big, small) > MSR_CAP or growing
        status = cq.VIOLATED if unbounded else cq.NO_VIOLATION_FOUND
        fix = next(op.fix for op in ops if op.fix.fixture_id == fid)
        if status not in fix.allowed("msr"):
            msg = f"{fid}: two-radius msr outcome {status} (gamma {big:.4g}, {small:.4g})"
            problems += [(i, msg) for i, op in enumerate(ops)
                         if op.fix.fixture_id == fid]
    return problems


# ---------------------------------------------------------------------------
# scale-m problem generation


def _upper(M: np.ndarray) -> list:
    m = M.shape[0]
    return [float(M[i, j]) for i in range(m) for j in range(i, m)]


def scale_m_document(seed: int, m: int, copy: int) -> dict:
    """One `nsdp-problem/1` document with kernel dimension 2 at x_bar = 0.

    G(x) = Q diag(g(x)) Q^T for a Haar-random orthogonal Q: the
    constraint matrices share one random eigenframe, so every matrix the
    kernel decomposes is dense.  Two eigenvalues, x1 + x2 and x1 - x2,
    vanish at x_bar = 0; the other m - 2 are lam_j + d_j.x with lam_j in
    [1, 2] and small random d_j, and stay positive near x_bar.  With
    f(x) = (1, 0.2, 0.3).x + |x|^2 / 2 the minimizer is (0, 0, -0.3),
    where both kernel constraints are active with positive multipliers.
    The seed (with m and the copy number) draws Q, lam and d; the active
    structure is fixed, so the solver takes the same path in every frame
    and a run's cost does not depend on the seed.
    """
    n = SCALE_M_N
    rng = np.random.default_rng([seed, m, copy])
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    Q = Q * np.sign(np.diag(R))
    values = np.zeros((n + 1, m))          # row 0: g(0); row i: dg/dx_i
    values[0, :m - 2] = rng.uniform(1.0, 2.0, m - 2)
    values[1:, :m - 2] = 0.3 * rng.standard_normal((n, m - 2)) / np.sqrt(n)
    values[1:, m - 2] = (1.0, 1.0, 0.0)
    values[1:, m - 1] = (1.0, -1.0, 0.0)

    def frame(v):
        return _upper((Q * v) @ Q.T)

    return {
        "format": "nsdp-problem/1",
        "name": f"scale-m{m}-{copy}",
        "n": n,
        "m": m,
        "objective": {"constant": 0.0, "linear": [1.0, 0.2, 0.3],
                      "quadratic": _upper(np.eye(n))},
        "constraint": {"constant": frame(values[0]),
                       "linear": [frame(v) for v in values[1:]]},
        "x_bar": [0.0] * n,
    }


def _scale_m_point(doc: dict) -> fixtures.Fixture:
    poly = model.problem_from_dict(doc)
    return fixtures.Fixture(fixture_id=poly.name, problem=poly.problem(),
                            x_bar=poly.x_bar, x0=poly.x_bar.copy(),
                            description="generated scale-m instance")


# ---------------------------------------------------------------------------
# workloads


def fixtures_ops(registry, seed: int, out: Path) -> list:
    budget = cq.CqBudget(seed=seed)
    ops = []
    for fix in registry:
        ops.append(DiagnoseOp(fix, budget, out))
        ops.extend(SolveOp(fix, solver, out) for solver in SOLVERS)
    return ops


def msr_ball_ops(registry, seed: int, out: Path) -> list:
    # The sample positions are a fixed set (estimator seeds 0..7): the
    # cost of a projection solve depends on where the sample lands and a
    # few stagnating ones cost 30-60x the rest, so positions drawn per
    # run would make the run's cost depend on the seed.  The seed orders
    # the operations.
    ops = [MsrOp(registry.get(fid), radius, k * MSR_POSITIONS + j)
           for fid in MSR_FIXTURES
           for k, radius in enumerate(MSR_RADII)
           for j in range(MSR_POSITIONS)]
    random.Random(seed).shuffle(ops)
    return ops


def scale_m_ops(registry, seed: int, out: Path) -> list:
    budget = cq.CqBudget(seed=seed)
    ops = []
    for m, copies in SCALE_M_COPIES.items():
        for copy in range(copies):
            point = _scale_m_point(scale_m_document(seed, m, copy))
            if copy == 0 and m in SCALE_M_DIAGNOSE:
                ops.append(DiagnoseOp(point, budget, out))
            ops.append(SolveOp(point, "al", out, must_certify=True))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: object             # (registry, seed, out_dir) -> list of ops
    tail_pct: int             # percentile reported as the tail (README.md)
    round_check: object = None  # (ops, outcomes) -> [(op index, message)]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("fixtures", fixtures_ops, tail_pct=90),
    Workload("msr-ball", msr_ball_ops, tail_pct=80, round_check=msr_outcomes),
    Workload("scale-m", scale_m_ops, tail_pct=75),
)}
