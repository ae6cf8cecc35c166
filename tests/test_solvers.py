import numpy as np
import pytest

from nsdpkit import fixtures, kkt, linalg, model, selftest, solvers


@pytest.fixture(scope="module")
def registry():
    return fixtures.default_registry()


# ---------------------------------------------------------------------------
# inner minimizer


def test_inner_quadratic_converges():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -2.0])
    fun = lambda x: 0.5 * x @ A @ x - b @ x
    grad = lambda x: A @ x - b
    x, stats = solvers.inner_minimize(fun, grad, np.zeros(2), grad_tol=1e-10)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)
    assert stats.reason == "converged"


def test_inner_returns_start_when_already_flat():
    fun = lambda x: float(x[0] ** 2)
    grad = lambda x: 2.0 * x
    x0 = np.array([1e-9])
    x, stats = solvers.inner_minimize(fun, grad, x0, grad_tol=1e-6)
    assert np.array_equal(x, x0)
    assert stats.iterations == 0


def test_inner_descent_property():
    gen = np.random.default_rng(0)
    for _ in range(20):
        A = gen.normal(size=(3, 3))
        A = A @ A.T + 0.5 * np.eye(3)
        b = gen.normal(size=3)
        fun = lambda x: 0.5 * x @ A @ x - b @ x
        grad = lambda x: A @ x - b
        x0 = gen.normal(size=3)
        x, _ = solvers.inner_minimize(fun, grad, x0, grad_tol=1e-8)
        assert fun(x) <= fun(x0) + 1e-12


# ---------------------------------------------------------------------------
# augmented Lagrangian function


def test_al_gradient_matches_finite_differences(registry):
    problems = [registry.get(fid).problem
                for fid in ("ex-3.1", "ex-3.2", "ex-4.2", "ex-4.3")]
    res = selftest.al_gradient_fd(problems, cases=200)
    assert res.ok, res.failures


@pytest.mark.parametrize("fid", ["ex-3.3", "nlp-coords"])
def test_al_decomposes_each_point_once(registry, monkeypatch, fid):
    """The value, the gradient and the outer record at a point share one split."""
    split, evaluated = [], set()
    moreau_split = linalg.moreau_split

    def counting_split(M):
        split.append(M.tobytes())
        return moreau_split(M)

    def recording(al_fn):
        def wrapped(problem, x, rho, Ytilde):
            evaluated.add((problem.g(x) - Ytilde / rho).tobytes())
            return al_fn(problem, x, rho, Ytilde)
        return wrapped

    monkeypatch.setattr(linalg, "moreau_split", counting_split)
    monkeypatch.setattr(solvers, "al_value", recording(solvers.al_value))
    monkeypatch.setattr(solvers, "al_gradient", recording(solvers.al_gradient))
    fix = registry.get(fid)
    trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0)
    assert len(trace) > 1
    assert len(split) == len(set(split)) == len(evaluated)


def test_shared_split_is_read_only():
    Z = np.array([[1.0, 2.0], [2.0, -3.0]])
    minus = solvers._shifted_projection(Z)
    with pytest.raises(ValueError):
        minus[0, 0] = 5.0
    assert np.array_equal(solvers._shifted_projection(Z.copy()), linalg.moreau_split(Z)[1])


def test_al_multiplier_at_zero_estimate_is_the_penalty_multiplier(registry):
    # rho * proj_psd(-G(x)) as the minus part of G's Moreau split, bit for bit
    gen = np.random.default_rng(5)
    for fix in registry:
        problem = fix.problem
        for _ in range(10):
            x = gen.normal(size=problem.n)
            rho = float(10.0 ** gen.uniform(-1.0, 4.0))
            Y = solvers.al_multiplier(problem, x, rho, np.zeros((problem.m, problem.m)))
            assert np.array_equal(Y, rho * linalg.moreau_split(problem.g(x))[1])


def test_trace_records_are_the_certificate_records(registry):
    fix = registry.get("ex-4.2")
    for trace in (solvers.solve_augmented_lagrangian(fix.problem, fix.x0),
                  solvers.solve_sqp(fix.problem, fix.x0)):
        cert = trace.certificate()
        assert len(cert) == len(trace) > 0 and cert.final is trace.final
        assert all(cert.records[k] is trace.records[k] for k in range(len(trace)))


def test_al_value_reduces_to_penalty_at_zero_safeguard(registry):
    problem = registry.get("ex-3.3").problem
    gen = np.random.default_rng(1)
    for _ in range(20):
        x = gen.normal(size=1)
        rho = float(10.0 ** gen.integers(0, 4))
        val = solvers.al_value(problem, x, rho, np.zeros((2, 2)))
        pen = problem.f(x) + 0.5 * rho * linalg.frob(
            linalg.proj_psd(-problem.g(x))) ** 2
        assert abs(val - pen) <= 1e-12 * (1.0 + abs(pen))


def test_line_search_backs_off_where_g_overflows():
    # f = 1e77 x and G = (1 + 10 x^2) I: the first full step lands at
    # x = -1e77, where G is finite but its Frobenius norm overflows (the
    # kernel rejects such a matrix); at x = -1e154 G itself is inf
    problem = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([1e77]), c_quad=np.zeros((1, 1)),
        a0=np.eye(2), a_lin=(np.zeros((2, 2)),), b_quad={(0, 0): 10.0 * np.eye(2)},
        name="overflow").problem()
    Y = np.zeros((2, 2))
    with np.errstate(over="ignore"):
        assert solvers.al_value(problem, np.array([-1e154]), 1.0, Y) == np.inf
        assert solvers.al_value(problem, np.array([-1e77]), 1.0, Y) == np.inf
        x, stats = solvers.inner_minimize(
            lambda z: solvers.al_value(problem, z, 1.0, Y),
            lambda z: solvers.al_gradient(problem, z, 1.0, Y),
            np.array([0.0]), grad_tol=1e-8, max_iter=1)
    assert stats.reason == "max_iter"
    assert x[0] == -0.25e77  # two halvings: at t = 0.5 the norm still overflows
    assert np.isfinite(linalg.frob(problem.g(x)))


# ---------------------------------------------------------------------------
# external penalty


def test_penalty_stops_at_interior_stationary_point():
    problem = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([0.0]), c_quad=np.array([[2.0]]),
        a0=np.eye(2), a_lin=(np.zeros((2, 2)),), b_quad={},
        name="interior").problem()
    trace = solvers.solve_external_penalty(
        problem, np.array([0.0]), rho_schedule=lambda k: 10.0 ** k,
        inner_tol_schedule=lambda k: 1e-8, max_outer=8, target_tol=1e-6)
    assert trace.termination == "converged"
    assert len(trace) == 1
    assert np.allclose(trace.final.x, [0.0])


def test_penalty_drives_identity_fixture_to_zero(registry):
    fix = registry.get("ex-4.2")
    trace = solvers.solve_external_penalty(
        fix.problem, fix.x0, rho_schedule=lambda k: 10.0 ** k,
        inner_tol_schedule=lambda k: 1e-10, max_outer=8)
    assert abs(trace.final.x[0]) <= 1e-4
    norms = [linalg.frob(r.y) for r in trace.records]
    assert max(norms) <= 2.0


def test_penalty_multiplier_norm_blows_up_on_single_point(registry):
    fix = registry.get("ex-3.1")
    trace = solvers.solve_external_penalty(
        fix.problem, fix.x0, rho_schedule=lambda k: 10.0 ** k,
        inner_tol_schedule=lambda k: 1e-10, max_outer=10)
    assert abs(trace.final.x[0]) <= 1e-3
    assert linalg.frob(trace.final.y) >= 1e2
    assert trace.termination == "iteration_cap"


# ---------------------------------------------------------------------------
# augmented Lagrangian solver


def test_al_identity_fixture_exact_trace(registry):
    fix = registry.get("ex-4.2")
    trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0)
    assert trace.termination == "converged"
    assert len(trace) == 2
    first, last = trace.records
    assert np.allclose(first.x, [-0.5], atol=1e-12)
    assert np.allclose(first.y, 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(last.x, [0.0], atol=1e-12)
    assert last.residual.max_entry <= 1e-6
    assert first.rho == last.rho == 1.0


def test_al_converges_within_thirty_outers(registry):
    for fid in ("ex-3.2", "ex-3.3", "ex-4.1", "ex-4.3"):
        fix = registry.get(fid)
        trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                                   max_outer=30)
        assert trace.termination == "converged", fid
        assert trace.final.residual.max_entry <= 1e-6


def test_al_single_point_fixture_feasible_but_divergent(registry):
    fix = registry.get("ex-3.1")
    trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                               max_outer=30)
    x_lim = trace.final.x
    assert abs(x_lim[0]) <= 1e-4
    assert linalg.frob(trace.final.y) >= 1e3
    # the limit is stationary for the infeasibility measure
    # 0.5 * ||proj_psd(-G(x))||^2, whose gradient is -DG(x)*[proj_psd(-G)]
    infeas_grad = -model.adjoint_dg(fix.problem, x_lim,
                                    linalg.proj_psd(-fix.problem.g(x_lim)))
    assert np.linalg.norm(infeas_grad) <= 1e-5


def test_al_rho_monotone_and_freeze_rule_replayable(registry):
    # rho_{k+1} stays put iff k == 1 or ||V^k|| <= theta ||V^{k-1}||
    cfg = solvers.AlConfig()
    for fid in ("ex-3.1", "ex-3.3", "ex-4.3"):
        fix = registry.get(fid)
        recs = solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                                  max_outer=15).records
        for i in range(1, len(recs)):
            assert recs[i].rho >= recs[i - 1].rho
            frozen = recs[i].rho == recs[i - 1].rho
            should_freeze = recs[i - 1].k == 1 or \
                recs[i - 1].v_norm <= cfg.theta * recs[i - 2].v_norm
            assert frozen == should_freeze, fid


def test_al_zero_safeguard_matches_penalty_bitwise(registry):
    fix = registry.get("ex-3.3")
    cfg = solvers.AlConfig(safeguard_radius=0.0)
    al = solvers.solve_augmented_lagrangian(fix.problem, fix.x0, config=cfg,
                                            target_tol=0.0, max_outer=8)
    rhos = [r.rho for r in al.records]
    target_tol = 0.0
    pen = solvers.solve_external_penalty(
        fix.problem, fix.x0,
        rho_schedule=lambda k: rhos[k - 1],
        inner_tol_schedule=lambda k: max(0.1 * 0.5 ** (k - 1),
                                         min(0.1, target_tol)),
        max_outer=len(rhos))
    assert len(pen) == len(al)
    for a, b in zip(al.records, pen.records):
        assert np.linalg.norm(a.x - b.x) <= 1e-12
        assert linalg.frob(a.y - b.y) <= 1e-12


def test_al_trace_deterministic(registry):
    fix = registry.get("ex-4.3")
    a = solvers.solve_augmented_lagrangian(fix.problem, fix.x0, max_outer=10)
    b = solvers.solve_augmented_lagrangian(fix.problem, fix.x0, max_outer=10)
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.x, rb.x)
        assert np.array_equal(ra.y, rb.y)
        assert ra.rho == rb.rho


def test_al_safeguard_policies(registry):
    fix = registry.get("ex-3.1")
    for radius in (1e3, 0.0):
        cfg = solvers.AlConfig(safeguard_radius=radius)
        trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                                   config=cfg, max_outer=6)
        for rec in trace.records:
            assert linalg.frob(rec.y_safe) <= radius + 1e-9


def test_al_certificate_passes_akkt(registry):
    for fid in ("ex-3.2", "ex-4.2", "ex-4.3", "nlp-coords"):
        fix = registry.get(fid)
        trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                                   max_outer=30)
        assert trace.termination == "converged"
        ok, failure = kkt.akkt_check(fix.problem, trace.certificate(), tol=1e-4)
        assert ok, (fid, failure)


# ---------------------------------------------------------------------------
# SQP


def test_sqp_identity_fixture(registry):
    fix = registry.get("ex-4.2")
    trace = solvers.solve_sqp(fix.problem, fix.x0)
    assert trace.termination == "converged"
    assert abs(trace.final.x[0]) <= 1e-6
    assert trace.records[-1].d_norm <= 1e-6
    ok, failure = kkt.akkt_check(fix.problem, trace.certificate(), tol=1e-4)
    assert ok, failure


def test_sqp_affine_constraint_one_step():
    # affine G and quadratic f: the subproblem is the problem itself
    problem = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([1.0]), c_quad=np.array([[1.0]]),
        a0=np.diag([0.0, 1.0]), a_lin=(np.eye(2),), b_quad={},
        name="affine").problem()
    trace = solvers.solve_sqp(problem, np.array([0.5]), target_tol=1e-6)
    assert trace.termination == "converged"
    res = kkt.kkt_residual(problem, trace.final.x, trace.final.y)
    assert res.max_entry <= 1e-5


def test_sqp_immediate_stop_at_kkt_point():
    problem = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([0.0]), c_quad=np.array([[2.0]]),
        a0=np.eye(2), a_lin=(np.zeros((2, 2)),), b_quad={},
        name="interior").problem()
    trace = solvers.solve_sqp(problem, np.array([0.0]))
    assert trace.termination == "converged"
    assert len(trace) == 1


def test_sqp_converges_on_regular_fixtures(registry):
    for fid in ("ex-3.2", "nlp-coords", "nlp-parallel"):
        fix = registry.get(fid)
        trace = solvers.solve_sqp(fix.problem, fix.x0)
        assert trace.termination == "converged", fid
        ok, _ = kkt.akkt_check(fix.problem, trace.certificate(), tol=1e-4)
        assert ok, fid


# ---------------------------------------------------------------------------
# trace bookkeeping


def test_termination_labels_are_known(registry):
    known = {"converged", "iteration_cap", "unbounded", "stagnation",
             "line_search_failure", "subproblem_infeasible",
             "subproblem_failure"}
    for fix in registry:
        for run in (
            solvers.solve_external_penalty(
                fix.problem, fix.x0, rho_schedule=lambda k: 10.0 ** k,
                inner_tol_schedule=lambda k: 1e-8, max_outer=4),
            solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                               max_outer=6),
        ):
            assert run.termination in known
            assert len(run) >= 1


def test_unbounded_objective_detected():
    # min x with G always PSD: the iterate runs off and trips the radius
    problem = model.MatrixPolyProblem(
        n=1, m=1, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=np.eye(1), a_lin=(np.zeros((1, 1)),), b_quad={},
        name="unbounded").problem()
    cfg = solvers.AlConfig(trust_radius=100.0)
    trace = solvers.solve_augmented_lagrangian(problem, np.array([0.0]),
                                               config=cfg, max_outer=5)
    assert trace.termination == "unbounded"
