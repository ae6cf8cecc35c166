"""First-order solvers for matrix-inequality constrained minimization.

Three outer algorithms share one smooth inner loop:

* ``solve_augmented_lagrangian``: the safeguarded method.  A carried
  estimate Ytilde enters through the shifted projection
  S(x) = proj_psd(-G(x) + Ytilde / rho); the penalty parameter is
  frozen whenever the measure V = S - Ytilde / rho shrinks by a fixed
  factor, and the next safeguard is the current multiplier scaled
  into a norm ball.  Given a target tolerance, the loop stops
  ("rounding_floor") before rho grows so large that rounding error in
  the multiplier alone would fail the stationarity test.
* ``solve_external_penalty``: the same loop with a zero-radius ball, so
  the carried estimate stays zero, driven by prescribed penalty and
  tolerance schedules: it minimizes f + (rho_k / 2) ||neg part of
  G||_F^2, and its multiplier estimates are rho_k times the projected
  negative part.
* ``solve_sqp``: sequential linearization.  Each step solves
  min d'Hd + grad f . d subject to G(x) + DG(x)[d] PSD (itself a
  matrix-constrained problem, handled by the augmented Lagrangian), with
  H a damped BFGS approximation of the Lagrangian Hessian, and an Armijo
  backtracking line search on f accepts the step.

The inner minimizer is gradient descent with a limited-memory
quasi-Newton direction (two-loop recursion, memory 5) and an Armijo
line search, ``_armijo``, the one SQP's step uses too, which backtracks
by safeguarded quadratic interpolation and halves the step after a
non-finite value or along a direction that does not descend.
Objectives here are once differentiable but not twice (the squared
projection introduces kinks in the second derivative), which is why no
Newton variant is attempted.

Every outer iterate is recorded with its multiplier estimate, shift,
stationarity defect, and residuals, so traces can be replayed through
the sequential-certificate checks without recomputation.  The value,
the gradient and the outer record at one point share one decomposition
of the shifted matrix G(x) - Ytilde / rho, one of the solve's last 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kkt, linalg, model


@dataclass(frozen=True)
class AlConfig:
    """Parameters of the safeguarded augmented Lagrangian loop."""

    rho1: float = 1.0
    gamma: float = 10.0
    theta: float = 0.5
    safeguard_radius: float = 1e3
    eps0: float = 1e-1
    eps_decay: float = 0.5
    inner_max_iter: int = 4000
    inner_memory: int = 5
    stagnation_window: int = 200
    trust_radius: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if self.rho1 <= 0.0:
            raise ValueError("rho1 must be positive")
        if self.safeguard_radius < 0.0:
            raise ValueError("safeguard radius must be nonnegative")
        if not 0.0 < self.eps_decay < 1.0:
            raise ValueError("eps_decay must lie in (0, 1)")
        if self.eps0 <= 0.0:
            raise ValueError("eps0 must be positive")
        for name, floor in (("inner_max_iter", 1), ("stagnation_window", 1),
                            ("inner_memory", 0)):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be at least {floor}")
        if self.trust_radius <= 0.0:
            raise ValueError("trust_radius must be positive")


@dataclass(frozen=True)
class InnerStats:
    reason: str          # "converged", "max_iter", "stagnation",
    #                      "line_search", "radius_exceeded"
    iterations: int
    grad_norm: float
    f_value: float


def inner_minimize(fun, grad, x0, grad_tol: float, max_iter: int = 4000,
                   memory: int = 5, stagnation_window: int = 200,
                   trust_radius: float | None = None):
    """Limited-memory descent to a gradient-norm tolerance.

    Returns (x, InnerStats).  Monotone: the returned point never has a
    larger objective value than x0.  Stops on the tolerance, the
    iteration cap, a gradient-norm plateau over ``stagnation_window``
    iterations, a failed line search, or the iterates leaving the ball
    of radius ``trust_radius`` (divergence guard).  ``fun`` and ``grad``
    must be deterministic: a step that rounds away (x + t d has the bytes
    of x) would repeat until a stop, so that stop is returned at once,
    and ``iterations`` counts the repeats as run.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = float(fun(x))
    g = np.asarray(grad(x), dtype=float)
    gn = linalg.frob(g)
    best_gn = gn
    since_best = 0
    s_mem: list = []
    y_mem: list = []
    for it in range(max_iter):
        if gn <= grad_tol:
            return x, InnerStats("converged", it, gn, f)
        if trust_radius is not None and linalg.frob(x) > trust_radius:
            return x, InnerStats("radius_exceeded", it, gn, f)
        if since_best >= stagnation_window:
            return x, InnerStats("stagnation", it, gn, f)
        # two-loop recursion for the quasi-Newton direction
        q = g.copy()
        pairs = [(s, y, 1.0 / max(float(s @ y), 1e-300))
                 for s, y in zip(s_mem, y_mem)]
        alphas = []
        for s, y, rho_i in reversed(pairs):
            a = rho_i * float(s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s_last, y_last = s_mem[-1], y_mem[-1]
            gamma = float(s_last @ y_last) / max(float(y_last @ y_last), 1e-300)
            q *= max(gamma, 1e-12)
        for (s, y, rho_i), a in zip(pairs, reversed(alphas)):
            b = rho_i * float(y @ q)
            q += (a - b) * s
        d = -q
        slope = float(g @ d)
        if not np.isfinite(slope) or slope >= -1e-14 * gn * linalg.frob(d):
            d = -g
            slope = -gn * gn
        step = _armijo(fun, x, f, d, slope, 60)
        if step is None:
            return x, InnerStats("line_search", it, gn, f)
        x_new, f_new = step
        if x_new.tobytes() == x.tobytes():  # since_best < stagnation_window
            stop = min(it + stagnation_window - since_best, max_iter)
            return x, InnerStats("stagnation" if stop < max_iter else "max_iter", stop, gn, f)
        g_new = np.asarray(grad(x_new), dtype=float)
        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-12 * linalg.frob(s_vec) * linalg.frob(y_vec):
            s_mem.append(s_vec)
            y_mem.append(y_vec)
            if len(s_mem) > memory:
                s_mem.pop(0)
                y_mem.pop(0)
        x, f, g = x_new, f_new, g_new
        gn = linalg.frob(g)
        if gn < best_gn * (1.0 - 1e-3):
            best_gn = gn
            since_best = 0
        else:
            since_best += 1
    return x, InnerStats("max_iter", max_iter, gn, f)


def _armijo(fun, x, f, d, slope, trials):
    """Interpolating backtracking search along d from x, where fun(x) = f.

    Makes at most ``trials`` evaluations from t = 1 and returns
    (x + t d, fun(x + t d)) for the first finite value with sufficient
    decrease, f + 1e-4 t slope, or None when none has it.  After a
    failed finite trial along a descent direction the next t minimizes
    the quadratic through f, the slope and the trial value (Nocedal and
    Wright, Numerical Optimization, 2nd ed., sec. 3.5); otherwise t
    halves.  Either way it is clamped to [0.1 t, 0.5 t].
    """
    t = 1.0
    for _ in range(trials):
        x_new = x + t * d
        f_new = float(fun(x_new))
        if math.isfinite(f_new) and f_new <= f + 1e-4 * t * slope:
            return x_new, f_new
        t_q = 0.5 * t
        if math.isfinite(f_new) and slope < 0.0:
            # f_new > f + 1e-4 t slope > f + t slope: the quadratic is convex
            t_q = -slope * t * t / (2.0 * (f_new - f - slope * t))
        t = min(max(t_q, 0.1 * t), 0.5 * t)
    return None


# Machine epsilon, the rounding unit of the stationarity floor in _al_engine.
ROUNDING_UNIT = 2.0 ** -52

_SPLIT_MEMO, _RESTART = 16, 64


class _SolveSplits:
    """The state of one ``_al_engine`` solve: ``minus(Z)`` is proj_psd(-Z), read-only."""

    def __init__(self, m: int):
        self.m, self.count, self.memo, self.basis = m, 0, {}, None

    def minus(self, Z: np.ndarray) -> np.ndarray:
        key = Z.tobytes()
        minus = self.memo.get(key)
        if minus is None:
            if self.m < 3:
                _, minus = linalg.moreau_split(Z)
            else:
                start = self.basis if self.count % _RESTART else np.eye(self.m)
                _, minus, self.basis = linalg.moreau_split(Z, start)
                self.count += 1
            minus.flags.writeable = False
            if len(self.memo) == _SPLIT_MEMO:
                del self.memo[next(iter(self.memo))]
            self.memo[key] = minus
        return minus


def al_multiplier(problem: model.NsdpProblem, x, rho: float, Ytilde: np.ndarray,
                  splits: _SolveSplits | None = None) -> np.ndarray:
    """First-order multiplier estimate rho * proj_psd(-G(x) + Ytilde/rho)."""
    Z = problem.g(np.asarray(x, dtype=float)) - Ytilde / rho
    return rho * (splits.minus(Z) if splits else linalg.moreau_split(Z)[1])


def al_value(problem: model.NsdpProblem, x, rho: float, Ytilde: np.ndarray,
             splits: _SolveSplits | None = None) -> float:
    """Augmented Lagrangian value at x for carried estimate Ytilde.

    inf where the shifted constraint value or its squared Frobenius norm
    overflows, the kernel's reject rule, so that a line search backs off
    from the trial point instead of failing in the kernel.  In a solve,
    ``splits`` shares the projection with ``al_gradient`` and the outer
    record at the same point; without it the split is cold.
    """
    x = np.asarray(x, dtype=float)
    Z = problem.g(x) - Ytilde / rho
    nrm = linalg.frob(Z)
    if not math.isfinite(nrm * nrm):
        return float("inf")
    s = linalg.frob(splits.minus(Z) if splits else linalg.moreau_split(Z)[1])
    y = linalg.frob(Ytilde)
    return problem.f(x) + 0.5 * rho * (s * s) - y * y / (2.0 * rho)


def al_gradient(problem: model.NsdpProblem, x, rho: float, Ytilde: np.ndarray,
                splits: _SolveSplits | None = None) -> np.ndarray:
    """Gradient of the augmented Lagrangian in x.

    Equals the Lagrangian gradient at the first-order multiplier
    estimate; kept separate from ``al_value`` so the two can be
    cross-checked by finite differences, though at one point both read
    the same decomposition.
    """
    x = np.asarray(x, dtype=float)
    Yhat = al_multiplier(problem, x, rho, Ytilde, splits)
    return model.lagrangian_grad(problem, x, Yhat)


@dataclass(frozen=True)
class IterRecord:
    k: int
    x: np.ndarray
    y: np.ndarray
    rho: float
    delta: np.ndarray
    delta_vec: np.ndarray
    residual: kkt.KktResidual
    v_norm: float | None = None
    y_safe: np.ndarray | None = None
    inner: InnerStats | None = None
    d_norm: float | None = None


@dataclass(frozen=True)
class SolverTrace(kkt.AkktCertificate):
    """Outer-iteration history plus the reason the loop stopped.

    termination is one of "converged", "iteration_cap", "rounding_floor",
    "unbounded", "stagnation", "line_search_failure",
    "subproblem_infeasible", "subproblem_failure".  "rounding_floor"
    means the next rho would put the stationarity test below rounding
    error (see ``_al_engine``); like "iteration_cap" it ends a run that
    did not converge but whose records may still certify AKKT.
    """

    termination: str
    solver: str
    diagnostics: dict = field(default_factory=dict)

    def certificate(self) -> kkt.AkktCertificate:
        return self


def _al_engine(problem: model.NsdpProblem, x0, config: AlConfig,
               target_tol: float | None, max_outer: int,
               rho_schedule=None, eps_schedule=None,
               Ytilde0: np.ndarray | None = None,
               solver_name: str = "augmented_lagrangian") -> SolverTrace:
    """Shared outer loop for the penalty and augmented Lagrangian methods.

    ``rho_schedule`` and ``eps_schedule`` are callables indexed from 1;
    without them rho grows adaptively and the tolerance decays
    geometrically.  The next carried estimate is the multiplier scaled
    into the ball of radius ``config.safeguard_radius``.  Each outer
    record reads the projection the inner loop's last evaluation made,
    and evaluates G(x), the derivative list and the Lagrangian gradient
    once for the multiplier, the residuals and the stop rules.

    The solve's one state, a ``_SolveSplits``, keeps its last 16 splits of
    G(x) - Ytilde/rho by bytes.  For m >= 3, splits and records'
    ``residual_from`` start Jacobi from the eigenbasis of the split before,
    and every 64th split from the identity: restarts bound its rounding.

    With a positive ``target_tol``, the loop stops with "rounding_floor"
    before an inner solve that cannot meet the convergence test.  (A
    zero tolerance is how a caller asks for all ``max_outer`` iterations;
    any floor would exceed it, so it has none.)  The computed
    shift Z = G(x) - Ytilde/rho carries an absolute rounding error of
    about u ||G(x)||_F, u = 2^-52, since every entry of G is rounded.
    The projection onto the PSD cone is nonexpansive, so it passes that
    error on at most unchanged, and Yhat = rho proj_psd(-Z) carries rho
    times it.  DG(x)* maps an error E in Yhat to (<D_i(x), E>)_i, whose
    norm is about ||E||_F max_i ||D_i(x)||_F for an E not orthogonal to
    every D_i.  The stationarity residual grad f - DG(x)*[Yhat] at rho
    is therefore only known to within the floor

        u * rho * ||G(x)||_F * max_i ||D_i(x)||_F,

    and once the floor exceeds ``target_tol`` a record passes the test
    only by a lucky rounding.  x moves little between the late outer
    iterations, so the floor at the next rho is taken at the last
    record's x, from the evaluations that record already made.
    """
    x = np.asarray(x0, dtype=float).copy()
    m = problem.m
    splits = _SolveSplits(m)
    Ytilde = np.zeros((m, m)) if Ytilde0 is None else np.asarray(Ytilde0, dtype=float).copy()
    rho = config.rho1
    records = []
    termination = "iteration_cap"
    v_prev = None
    x_prev = None
    stalled = 0
    floor_scale = None  # ||G(x)|| max_i ||D_i(x)|| at the last record's x
    for k in range(1, max_outer + 1):
        if rho_schedule is not None:
            rho = rho_schedule(k)
        if floor_scale is not None and ROUNDING_UNIT * rho * floor_scale > target_tol:
            termination = "rounding_floor"
            break
        if eps_schedule is not None:
            eps_k = eps_schedule(k)
        else:
            eps_k = config.eps0 * config.eps_decay ** (k - 1)
            if target_tol is not None:
                eps_k = max(eps_k, min(config.eps0, target_tol))
        rho_k = rho
        Yt = Ytilde

        x, stats = inner_minimize(
            lambda z: al_value(problem, z, rho_k, Yt, splits),
            lambda z: al_gradient(problem, z, rho_k, Yt, splits),
            x, grad_tol=eps_k,
            max_iter=config.inner_max_iter,
            memory=config.inner_memory,
            stagnation_window=config.stagnation_window,
            trust_radius=config.trust_radius,
        )
        G = problem.g(x)
        Ds = problem.dg(x)
        # S = proj_psd(-G + Yt/rho), the displacement is V = S - Yt/rho.
        S = splits.minus(G - Yt / rho_k)
        Y = rho_k * S
        V = S - Yt / rho_k
        v_now = linalg.frob(V)
        delta_vec = model.lagrangian_grad(problem, x, Y, Ds)
        residual = kkt.residual_from(G, delta_vec, Y, splits.basis)
        records.append(IterRecord(
            k=k, x=x.copy(), y=Y, rho=rho_k, delta=V,
            delta_vec=delta_vec, residual=residual,
            v_norm=v_now, y_safe=Yt.copy(), inner=stats,
        ))
        if stats.reason == "radius_exceeded":
            termination = "unbounded"
            break
        if target_tol is not None and residual.max_entry <= target_tol:
            termination = "converged"
            break
        move = np.inf if x_prev is None else linalg.frob(x - x_prev)
        if stats.reason == "stagnation" and move <= 1e-14 * (1.0 + linalg.frob(x)):
            stalled += 1
        else:
            stalled = 0
        if stalled >= 2:
            termination = "stagnation"
            break
        x_prev = x.copy()
        if rho_schedule is None and k > 1 and v_prev is not None \
                and v_now > config.theta * v_prev:
            rho = rho * config.gamma
        v_prev = v_now
        Ytilde = _project_ball(Y, config.safeguard_radius)
        if target_tol:
            floor_scale = linalg.frob(G) * max((linalg.frob(D) for D in Ds), default=0.0)
    return SolverTrace(records=tuple(records), termination=termination,
                       solver=solver_name)


def _project_ball(Y: np.ndarray, radius: float) -> np.ndarray:
    """Scale a PSD matrix into the Frobenius-norm ball of ``radius``.

    Y must be PSD, as every caller's is: rho times a ``_SolveSplits.minus``
    output, or zero.  For such Y the scaling is the exact projection onto
    the PSD part of the ball, so Y is not decomposed again.
    """
    nrm = linalg.frob(Y)
    return Y * (radius / nrm) if nrm > radius else Y.copy()


def solve_external_penalty(problem: model.NsdpProblem, x0, rho_schedule,
                           inner_tol_schedule, max_outer: int,
                           target_tol: float | None = None,
                           config: AlConfig | None = None) -> SolverTrace:
    """Quadratic external penalty method with a prescribed schedule.

    ``rho_schedule`` and ``inner_tol_schedule`` are callables indexed
    from 1.  Each outer iterate minimizes f + (rho_k/2) ||proj_psd(-G)||^2
    to the scheduled gradient tolerance, warm-started from the previous
    iterate: the augmented Lagrangian loop with a zero-radius safeguard
    ball, whose carried estimate is always zero.
    """
    cfg = replace(config or AlConfig(), safeguard_radius=0.0)
    return _al_engine(problem, x0, cfg, target_tol, max_outer,
                      rho_schedule=rho_schedule, eps_schedule=inner_tol_schedule,
                      solver_name="external_penalty")


def solve_augmented_lagrangian(problem: model.NsdpProblem, x0,
                               config: AlConfig | None = None,
                               target_tol: float = 1e-6,
                               max_outer: int = 30) -> SolverTrace:
    """Safeguarded augmented Lagrangian loop (see the module docstring)."""
    cfg = config or AlConfig()
    return _al_engine(problem, x0, cfg, target_tol, max_outer,
                      solver_name="augmented_lagrangian")


def _bfgs_update(B: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Damped BFGS update keeping B symmetric positive definite, ||B|| <= 1e6."""
    sBs = float(s @ B @ s)
    if sBs <= 1e-16:
        return B
    sy = float(s @ y)
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * (B @ s)
        sy = float(s @ y)
    if sy <= 1e-16:
        return B
    Bs = B @ s
    B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    B = linalg.sym_part(B)
    nrm = linalg.frob(B)
    if nrm > 1e6:
        B = B * (1e6 / nrm)
    lam_min = float(linalg.eigenvalues(B)[-1])
    if lam_min < 1e-10:
        B = B + (1e-10 - lam_min) * np.eye(B.shape[0])
    return B


def solve_sqp(problem: model.NsdpProblem, x0, target_tol: float = 1e-6,
              max_iter: int = 40) -> SolverTrace:
    """Sequential linearization with quasi-Newton curvature.

    The direction subproblem min d'Hd + grad f(x).d subject to
    G(x) + DG(x)[d] PSD is solved by the augmented Lagrangian to
    min(1e-8, 1e-2 * target_tol); its multiplier is adopted as the next
    dual estimate and warm-starts the next subproblem.  The recorded
    constraint shift is DG(x)[d] plus the subproblem's own residual
    shift, so the shifted constraint is PSD and exactly complementary
    with the adopted multiplier and the trace passes the sequential
    certificate checks as the subproblem tolerance tightens.  H starts
    at the identity and takes a damped BFGS update on Lagrangian
    gradient differences, its norm capped at 1e6; the interpolating
    Armijo search (sigma 1e-4) accepts the step.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = problem.n
    B = np.eye(n)
    cfg = AlConfig(trust_radius=1e8)
    stol = min(1e-8, 1e-2 * target_tol)
    Y = np.zeros((problem.m, problem.m))
    records = []
    termination = "iteration_cap"
    diag = {}
    for k in range(1, max_iter + 1):
        gf = problem.grad(x)
        G = problem.g(x)
        Ds = problem.dg(x)
        sub = model.MatrixPolyProblem(
            n=n, m=problem.m, c0=0.0, c_lin=gf, c_quad=2.0 * B, a0=G,
            a_lin=Ds, b_quad={}, name=f"{problem.name}:linearized@{k}").problem()
        sub_trace = _al_engine(sub, np.zeros(n), cfg, stol, 40,
                               Ytilde0=_project_ball(Y, cfg.safeguard_radius),
                               solver_name="augmented_lagrangian")
        d = sub_trace.final.x
        if sub_trace.termination != "converged":
            feas = sub_trace.final.residual.feasibility
            if feas > 1e-4 and sub_trace.final.rho >= 1e6:
                termination = "subproblem_infeasible"
                diag = {"subproblem_point": [float(v) for v in d],
                        "subproblem_infeasibility": feas,
                        "subproblem_termination": sub_trace.termination}
                break
            if sub_trace.final.residual.max_entry > min(1e-6, 1e2 * stol):
                termination = "subproblem_failure"
                diag = {"subproblem_termination": sub_trace.termination,
                        "subproblem_residual": sub_trace.final.residual.max_entry}
                break
        Y = sub_trace.final.y
        lin_shift = model.linearize(np.zeros((problem.m, problem.m)), Ds, d)
        delta = linalg.sym_part(lin_shift + sub_trace.final.delta)
        delta_vec = model.lagrangian_grad(problem, x, Y, Ds)
        residual = kkt.residual_from(G, delta_vec, Y)
        d_norm = linalg.frob(d)
        rec = IterRecord(k=k, x=x.copy(), y=Y, rho=sub_trace.final.rho,
                         delta=delta, delta_vec=delta_vec, residual=residual,
                         d_norm=d_norm)
        records.append(rec)
        if d_norm <= target_tol:
            termination = "converged"
            break
        step = _armijo(problem.f, x, problem.f(x), d, float(gf @ d), 50)
        if step is None:
            termination = "line_search_failure"
            break
        x_new = step[0]
        y_vec = model.lagrangian_grad(problem, x_new, Y) - delta_vec
        B = _bfgs_update(B, x_new - x, y_vec)
        x = x_new
    return SolverTrace(records=tuple(records), termination=termination,
                       solver="sqp", diagnostics=diag)
