"""Release gate: one test per numbered acceptance criterion.

Each test prints a single "criterion N: PASS/FAIL" line so the gate can
be read off a plain pytest -s run.  Tolerances are stated inline; they
are contractual, not tunable.
"""

import functools
import time

import numpy as np
import pytest

from nsdpkit import cq, fixtures, kkt, model, selftest, solvers

import regen_lock

HOLDS = (cq.CERTIFIED_HOLDS, cq.NO_VIOLATION_FOUND)
# weak-crcq and weak-cpld: the weak checks that compare premise and tail
WEAK_RANK = tuple(k for k in cq.WEAK_KINDS if not cq.CHECKS[k].limit_only)

NLP_IDS = ("nlp-opposite-sign", "nlp-coords", "nlp-zero-grad",
           "nlp-parallel", "nlp-curve")


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(**kwargs):
            try:
                fn(**kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def registry():
    return fixtures.default_registry()


@pytest.fixture(scope="module")
def matrix(registry, lock):
    return regen_lock.verdict_matrix(registry, lock["msr_samples"])


@pytest.fixture(scope="module")
def recoveries(registry):
    return regen_lock.penalty_recoveries(registry)


@criterion("criterion 1")
def test_criterion_01_no_kkt_point_but_akkt(registry):
    fix = registry.get("ex-3.1")
    problem, x_bar = fix.problem, fix.x_bar

    # (a) no sampled PSD multiplier brings the stationarity residual
    # below 0.99 (the infimum over the whole cone is 1)
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(10_000):
        a = rng.normal(size=(2, 2))
        y = a @ a.T * 10.0 ** rng.uniform(-3.0, 3.0)
        worst = min(worst, kkt.kkt_residual(problem, x_bar, y).stationarity)
    assert worst >= 0.99, f"sampled stationarity dipped to {worst}"

    # (b) both solvers drive x to 0 within 1e-4 while the multiplier
    # estimates blow past 1e3
    pen = solvers.solve_external_penalty(
        problem, fix.x0,
        rho_schedule=lambda k: 10.0 ** k,
        inner_tol_schedule=lambda k: max(0.1 * 0.5 ** (k - 1), 1e-6),
        max_outer=12, target_tol=1e-6)
    assert abs(pen.final.x[0]) <= 1e-4
    assert np.linalg.norm(pen.final.y) >= 1e3
    al = solvers.solve_augmented_lagrangian(problem, fix.x0,
                                            target_tol=1e-6, max_outer=30)
    assert abs(al.final.x[0]) <= 1e-4
    assert np.linalg.norm(al.final.y) >= 1e3

    # (c) the weak-cpld check refutes with a witness on the x < 0 ray
    verdict = cq.check_weak_cq(problem, x_bar, "weak-cpld", curves=fix.curves)
    assert verdict.status == cq.VIOLATED
    w = verdict.witness
    assert w["sequence"] == "curve:neg-ray"
    for cand in w["candidates"]:
        assert all(level["x"][0] < 0.0 for level in cand["levels"])


@criterion("criterion 2")
def test_criterion_02_fold_breaks_constant_rank(registry):
    fix = registry.get("ex-3.2")
    assert cq.check_robinson(fix.problem, fix.x_bar).status in HOLDS
    assert cq.check_weak_cq(fix.problem, fix.x_bar, "weak-cpld",
                            curves=fix.curves).status == cq.NO_VIOLATION_FOUND
    verdict = cq.check_weak_cq(fix.problem, fix.x_bar, "weak-crcq",
                               curves=fix.curves)
    assert verdict.status == cq.VIOLATED
    cand = verdict.witness["candidates"][0]
    assert cand["premise_dependent"] is True
    for level in cand["levels"]:
        x2 = level["x"][1]
        got = np.array(sorted(np.asarray(level["vectors"]).tolist()))
        want = np.array(sorted([[2.0, 0.0], [2.0, 4.0 * x2]]))
        assert np.allclose(got, want, atol=1e-8), (x2, got)


@criterion("criterion 3")
def test_criterion_03_constant_rank_without_robinson(registry):
    fix = registry.get("ex-3.3")
    for kind in WEAK_RANK:
        status = cq.check_weak_cq(fix.problem, fix.x_bar, kind,
                                  curves=fix.curves).status
        assert status == cq.NO_VIOLATION_FOUND, kind
    assert cq.check_robinson(fix.problem, fix.x_bar).status == cq.VIOLATED


@criterion("criterion 4")
def test_criterion_04_perturbation_breaks_seq_conditions(registry):
    fix = registry.get("ex-4.1")
    for kind in WEAK_RANK:
        status = cq.check_weak_cq(fix.problem, fix.x_bar, kind,
                                  curves=fix.curves).status
        assert status == cq.NO_VIOLATION_FOUND, kind
    seen_levels = 0
    for kind in cq.SEQ_KINDS:
        verdict = cq.check_seq_cq(fix.problem, fix.x_bar, kind,
                                  curves=fix.curves)
        assert verdict.status == cq.VIOLATED, kind
        for level in verdict.witness["levels"]:
            x = level["x"][0]
            v11 = np.asarray(level["vectors"])[0][0]
            # the witness basis is orthonormal, so the closed form
            # 1 - (x+1)^2 appears scaled by the squared column norm
            norm_sq = 1.0 + (1.0 + x) ** 2
            assert abs(v11 - (1.0 - (1.0 + x) ** 2) / norm_sq) <= 1e-10
            assert abs(v11 * norm_sq - (1.0 - (1.0 + x) ** 2)) <= 1e-10
            seen_levels += 1
    assert seen_levels >= 6


@criterion("criterion 5")
def test_criterion_05_msr_holds_where_robinson_fails(registry):
    fix = registry.get("ex-4.3")
    assert cq.check_robinson(fix.problem, fix.x_bar).status == cq.VIOLATED
    assert cq.check_seq_cq(fix.problem, fix.x_bar, "seq-crcq",
                           curves=fix.curves).status == cq.NO_VIOLATION_FOUND

    # the diagonal family collapses for every basis: v11 = -v22 exactly
    rng = np.random.default_rng(5)
    for _ in range(64):
        x = rng.normal(size=2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        E = np.array([[c, -s], [s, c]]) if rng.integers(0, 2) == 0 \
            else np.array([[c, s], [s, -c]])
        v11, v22 = model.diag_vectors(fix.problem, x, E)
        assert np.array_equal(v11, -v22)

    # error-bound ratio curve: 200 samples in B(0, 0.1), modulus 1
    t0 = time.monotonic()
    est = cq.estimate_msr_modulus(fix.problem, fix.x_bar, radius=0.1,
                                  samples=200, seed=0)
    elapsed = time.monotonic() - t0
    assert est.n_failed == 0 and not est.unreliable
    assert 0.99 <= max(est.ratios) <= 1.01, max(est.ratios)
    assert 0.99 <= est.gamma_hat <= 1.01
    assert elapsed <= 60.0, f"ratio curve took {elapsed:.1f}s"


@criterion("criterion 6")
def test_criterion_06_diagonal_embedding_equivalence(registry):
    agreed = 0
    for fid in NLP_IDS:
        fix = registry.get(fid)
        ok = True
        for weak in WEAK_RANK:
            sdp = cq.check_weak_cq(fix.problem, fix.x_bar, weak,
                                   curves=fix.curves).status
            nlp = cq.nlp_constant_rank_check(
                fix.embedding, fix.x_bar, weak.removeprefix("weak-")).status
            if sdp != nlp:
                ok = False
        agreed += ok
    assert agreed == 5, f"only {agreed}/5 fixtures agree"


@criterion("criterion 7")
def test_criterion_07_property_suites(registry):
    results = selftest.run_all([fix.problem for fix in registry],
                               cases=500, seed=0)
    names = {res.name for res in results}
    assert names == {"moreau-identities", "projection-optimality",
                     "caratheodory-postconditions", "dependence-oracles",
                     "al-gradient-fd"}
    for res in results:
        assert res.cases >= 500, res.name
        assert res.ok, (res.name, res.failures[:3])


@criterion("criterion 8")
def test_criterion_08_traces_certify_akkt(registry):
    convergent = 0
    for fix in registry:
        for solve in (
                lambda: solvers.solve_augmented_lagrangian(
                    fix.problem, fix.x0, target_tol=1e-6, max_outer=30),
                lambda: solvers.solve_sqp(fix.problem, fix.x0,
                                          target_tol=1e-6, max_iter=40)):
            trace = solve()
            if trace.termination != "converged":
                continue
            convergent += 1
            ok, failure = kkt.akkt_check(fix.problem, trace.certificate(),
                                         tol=1e-4)
            assert ok, (fix.fixture_id, failure)
    assert convergent >= 10, f"only {convergent} convergent traces"

    # with the multiplier safeguard switched off, the method reproduces
    # the external penalty iterates to 1e-12
    for fid in ("ex-4.2", "ex-3.3"):
        fix = registry.get(fid)
        cfg = solvers.AlConfig(safeguard_radius=0.0)
        al = solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                                config=cfg, target_tol=0.0,
                                                max_outer=6)
        rhos = [rec.rho for rec in al.records]
        pen = solvers.solve_external_penalty(
            fix.problem, fix.x0,
            rho_schedule=lambda k: rhos[k - 1],
            inner_tol_schedule=lambda k: max(0.1 * 0.5 ** (k - 1), 1e-8),
            max_outer=len(rhos))
        gap = max(float(np.linalg.norm(a.x - b.x))
                  + float(np.linalg.norm(a.y - b.y))
                  for a, b in zip(al.records, pen.records))
        assert gap <= 1e-12, (fid, gap)


@criterion("criterion 9")
def test_criterion_09_recovery_under_seq_cpld(registry, matrix, recoveries):
    for fid, (feasibility, rec) in recoveries.items():
        if matrix[fid, "seq-cpld"].status == cq.NO_VIOLATION_FOUND \
                and feasibility <= 1e-4:
            assert rec.status == "recovered", (fid, rec.message)
            assert rec.residual.max_entry <= 1e-4, (fid, rec.residual)

    feasibility, rec = recoveries["ex-3.1"]
    assert feasibility <= 1e-4
    assert rec.status == "diverged"
    assert rec.coefficient_growth > 10.0


@criterion("criterion 10")
def test_criterion_10_implication_diagram(registry, matrix):
    broken = []
    for fix in registry:
        fid = fix.fixture_id
        for strong, weak in cq.IMPLICATIONS:
            if matrix[fid, strong].status in HOLDS \
                    and matrix[fid, weak].status == cq.VIOLATED:
                broken.append((fid, strong, weak))
    assert not broken, broken


def test_behaviour_lock(registry, matrix, recoveries, regress_cq, regress_solvers,
                        lock):
    """Every verdict, its digest, every recovery status and the regress
    cq and solvers hashes match the lock, as ``regen_lock`` computes them.

    A refactor that moves any of them changed behaviour.  Every VIOLATED
    witness must also replay from its verdict alone.
    """
    reports = {"cq": regress_cq[2], "solvers": regress_solvers[2]}
    got = regen_lock.lock_entries(matrix, recoveries, reports, lock["msr_samples"])
    for key in ("verdicts", "recovery", "regress_cq_sha256",
                "regress_solvers_sha256"):
        assert got[key] == lock[key], key
    for (fid, check), verdict in matrix.items():
        if verdict.status != cq.VIOLATED:
            continue
        fix = registry.get(fid)
        target = fix.embedding if cq.CHECKS[check].scope == "embedding" \
            else fix.problem
        assert cq.replay_witness(target, verdict), (fid, check)
