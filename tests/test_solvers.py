import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _recorded(fun):
    """fun, and the list of points it is called at."""
    points = []
    return (lambda x: points.append(float(x[0])) or fun(x)), points


def test_armijo_steps_to_the_quadratic_minimizer():
    # f = x^2 from x = 1 along d = -4 (slope -8): t = 1 lands at 9, and the
    # quadratic through f(1), the slope and f(-3) is f itself, minimized
    # at t = 0.25, x = 0; halving would try t = 0.5 (f = 1, no decrease)
    fun, points = _recorded(lambda x: float(x[0] ** 2))
    x_new, f_new = solvers._armijo(fun, np.array([1.0]), 1.0, np.array([-4.0]),
                                   -8.0, 60)
    assert points == [-3.0, 0.0]
    assert x_new[0] == 0.0 and f_new == 0.0


def test_armijo_step_shrinks_at_most_tenfold():
    # along d = -100 the quadratic's minimizer is t = 0.01 < 0.1 t
    fun, points = _recorded(lambda x: float(x[0] ** 2))
    solvers._armijo(fun, np.array([1.0]), 1.0, np.array([-100.0]), -200.0, 60)
    assert points[:2] == [-99.0, 1.0 + 0.1 * -100.0]


def test_armijo_halves_along_an_ascent_direction():
    # f linear with slope +1: no quadratic minimizer, and no step has decrease
    fun, points = _recorded(lambda x: float(x[0]))
    assert solvers._armijo(fun, np.array([0.0]), 0.0, np.array([1.0]), 1.0, 4) is None
    assert points == [1.0, 0.5, 0.25, 0.125]


@pytest.mark.parametrize("value", [1.0, np.inf, np.nan])
@pytest.mark.parametrize("trials", [1, 7, 60])
def test_armijo_evaluates_at_most_trials_times(value, trials):
    # from f = 0 along a descent direction, no trial has sufficient decrease
    fun, points = _recorded(lambda x: value)
    assert solvers._armijo(fun, np.array([0.0]), 0.0, np.array([-1.0]),
                           -1.0, trials) is None
    assert len(points) == trials


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


def test_al_decomposes_each_multiplier_once(monkeypatch):
    """kkt_residual's spectrum of an outer multiplier is its only one."""
    # min x_0 + 0.2 x_1 + |x|^2 / 2 s.t. Q diag(x_0 + x_1, x_0 - x_1, 1) Q' PSD,
    # both kernel constraints active at the solution 0; the random frame
    # Q keeps the matrices decomposed during the solve distinct
    Q = linalg.haar_orthogonal(3, np.random.default_rng(3))

    def frame(v):
        return linalg.sym_part((Q * v) @ Q.T)

    problem = model.MatrixPolyProblem(
        n=2, m=3, c0=0.0, c_lin=np.array([1.0, 0.2]), c_quad=np.eye(2),
        a0=frame([0.0, 0.0, 1.0]), a_lin=(frame([1.0, 1.0, 0.0]), frame([1.0, -1.0, 0.0])),
        b_quad={}).problem()
    seen = []

    def counting(kernel):
        def counted(M):
            seen.append(np.asarray(M, dtype=float).tobytes())
            return kernel(M)
        return counted

    # both kernel entries: the full decomposition and the values alone
    for name in ("spectral_decompose", "eigenvalues"):
        monkeypatch.setattr(linalg, name, counting(getattr(linalg, name)))
    trace = solvers.solve_augmented_lagrangian(problem, np.array([1.0, 1.0]))
    assert trace.termination == "converged" and len(trace) > 2
    assert [seen.count(rec.y.tobytes()) for rec in trace.records] == [1] * len(trace)


@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3),
       st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
@settings(max_examples=200, deadline=None)
def test_project_ball_scales_a_psd_multiplier(m, seed, rho, radius):
    # Y = rho * proj_psd(M), as in the outer loop: scaling it into the ball
    # is projecting it onto the PSD cone and then scaling.  Radii keep
    # radius / ||Y|| a normal float, so the scaling rounds relatively
    gen = np.random.default_rng(seed)
    M = gen.normal(size=(m, m)) * 10.0 ** gen.uniform(-3.0, 3.0)
    Y = rho * linalg.proj_psd((M + M.T) / 2.0)
    got = solvers._project_ball(Y, radius)
    assert linalg.frob(got) <= radius * (1.0 + 1e-15)  # the scaling rounds
    want = linalg.proj_psd(Y)
    nrm = linalg.frob(want)
    if nrm > radius:
        want = want * (radius / nrm)
    # proj_psd(Y) differs from Y by the reconstruction's rounding, up to
    # about 45 eps (1 + ||Y||) at m = 4
    assert linalg.frob(got - want) <= 1e-13 * (1.0 + linalg.frob(Y))


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


def test_al_value_where_the_estimate_norm_squared_overflows():
    # ||Ytilde|| = 1.4e200 is finite, its square is not; Z = G - Ytilde/rho
    # is about -1e100 I, so only the estimate's term overflows
    problem = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=np.eye(2), a_lin=(np.zeros((2, 2)),), b_quad={},
        name="big-estimate").problem()
    assert solvers.al_value(problem, np.array([0.0]), 1e100, 1e200 * np.eye(2)) == -np.inf


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


def test_al_single_point_fixture_stops_at_rounding_floor(registry):
    """ex-3.1's default AL stops where the next rho's rounding floor
    exceeds target_tol, and its trace certifies AKKT (criterion 1)."""
    fix = registry.get("ex-3.1")
    problem, tol, cfg = fix.problem, 1e-6, solvers.AlConfig()
    trace = solvers.solve_augmented_lagrangian(problem, fix.x0, target_tol=tol)
    assert trace.termination == "rounding_floor"
    assert abs(trace.final.x[0]) <= 1e-4
    assert linalg.frob(trace.final.y) >= 1e3
    assert kkt.akkt_check(problem, trace.certificate(), tol=1e-4) == (True, None)
    recs = trace.records
    # the rho each record hands on, under the freeze rule, and its floor
    next_rho = [r.rho * (cfg.gamma if i > 0 and r.v_norm > cfg.theta * recs[i - 1].v_norm
                         else 1.0) for i, r in enumerate(recs)]
    floors = [solvers.ROUNDING_UNIT * rho * (linalg.frob(problem.g(r.x))
                                             * max(linalg.frob(D) for D in problem.dg(r.x)))
              for rho, r in zip(next_rho, recs)]
    assert [f > tol for f in floors] == [False] * (len(recs) - 1) + [True]


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
    assert len(al) == 8  # a zero tolerance has no rounding floor
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


def test_sqp_line_search_skips_minus_infinity():
    # f drops to -inf past x = 1: the step must stop short of it, as
    # the inner minimizer's search does, not carry on from -inf
    problem = model.NsdpProblem(
        n=1, m=1, f_eval=lambda x: -np.inf if x[0] > 1.0 else -x[0],
        grad_f=lambda x: np.array([-1.0]), g_eval=lambda x: np.array([[x[0] + 10.0]]),
        dg_eval=lambda x: [np.eye(1)], name="cliff")
    trace = solvers.solve_sqp(problem, np.array([0.9]), max_iter=3)
    xs = [float(rec.x[0]) for rec in trace.records]
    assert len(xs) == 3 and 0.9 == xs[0] < xs[1] < xs[2] <= 1.0
    assert all(np.isfinite(problem.f(rec.x)) for rec in trace.records)


def test_sqp_infeasible_subproblem_stops_at_rounding_floor(registry, monkeypatch):
    """ex-3.3's first linearization is infeasible; its AL stops at the
    rounding floor before stagnation stops at ever larger rho."""
    fix = registry.get("ex-3.3")
    inner = solvers.inner_minimize
    iterations = []

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        iterations.append(out[1].iterations)
        return out
    monkeypatch.setattr(solvers, "inner_minimize", counted)
    trace = solvers.solve_sqp(fix.problem, fix.x0)
    assert trace.termination == "subproblem_infeasible" and len(trace) == 0
    assert trace.diagnostics["subproblem_termination"] == "rounding_floor"
    assert sum(iterations) < 100


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
    known = {"converged", "iteration_cap", "rounding_floor", "unbounded",
             "stagnation", "line_search_failure", "subproblem_infeasible",
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
