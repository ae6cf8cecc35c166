import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from nsdpkit import fixtures, kkt, linalg, model, solvers
from test_solvers import haar_frame_problem


@pytest.fixture(scope="module")
def registry():
    return fixtures.default_registry()


def penalty_trace(problem, x0, outers=8):
    return solvers.solve_external_penalty(
        problem, x0, rho_schedule=lambda k: 10.0 ** k,
        inner_tol_schedule=lambda k: 1e-10, max_outer=outers)


# ---------------------------------------------------------------------------
# kkt_residual


def test_residual_zero_at_kkt_pair(registry):
    problem = registry.get("ex-4.2").problem
    res = kkt.kkt_residual(problem, np.array([0.0]), np.diag([1.0, 0.0]))
    assert res.max_entry == 0.0


def test_residual_feasible_zero_multiplier(registry):
    problem = registry.get("ex-3.2").problem
    x = np.array([0.4, 0.1])
    res = kkt.kkt_residual(problem, x, np.zeros((2, 2)))
    assert res.feasibility == 0.0
    assert res.complementarity == 0.0
    assert res.dual_feasibility == 0.0
    assert np.isclose(res.stationarity, np.linalg.norm(problem.grad(x)))


def test_residual_stationarity_floor(registry):
    # min -x with an adjoint term that is nonnegative for every PSD Y
    problem = registry.get("ex-3.1").problem
    gen = np.random.default_rng(0)
    for _ in range(500):
        A = gen.normal(size=(2, 2))
        res = kkt.kkt_residual(problem, np.array([0.0]), A @ A.T)
        assert res.stationarity >= 1.0 - 1e-12


def test_residual_dual_feasibility_flags_indefinite(registry):
    problem = registry.get("ex-4.2").problem
    res = kkt.kkt_residual(problem, np.array([0.0]), np.diag([1.0, -0.3]))
    assert np.isclose(res.dual_feasibility, 0.3)


def test_residual_matches_nlp_formulas(registry):
    # diagonal embedding with diagonal Y: compare against the scalar KKT system
    fix = registry.get("nlp-coords")
    problem, emb = fix.problem, fix.embedding
    gen = np.random.default_rng(1)
    for _ in range(50):
        x = gen.normal(size=2)
        y = np.abs(gen.normal(size=2))
        res = kkt.kkt_residual(problem, x, np.diag(y))
        grads = emb.constraint_gradients(x)
        vals = emb.constraint_values(x)
        stat = np.linalg.norm(problem.grad(x) - sum(yi * gi for yi, gi in zip(y, grads)))
        feas = np.linalg.norm(np.minimum(vals, 0.0))
        comp = abs(float(np.dot(vals, y)))
        assert abs(res.stationarity - stat) <= 1e-10 * (1.0 + stat)
        assert abs(res.feasibility - feas) <= 1e-10 * (1.0 + feas)
        assert abs(res.complementarity - comp) <= 1e-10 * (1.0 + comp)
        assert res.dual_feasibility == 0.0


# ---------------------------------------------------------------------------
# the penalty multiplier rho * proj_psd(-G(x)): the AL estimate at Ytilde = 0


def penalty_multiplier(problem, x, rho):
    return solvers.al_multiplier(problem, x, rho, np.zeros((problem.m, problem.m)))


def test_penalty_multiplier_zero_when_feasible(registry):
    problem = registry.get("ex-3.2").problem
    assert np.allclose(penalty_multiplier(problem, np.array([0.5, 0.0]), 10.0), 0.0)


def test_penalty_multiplier_closed_form(registry):
    # G(-0.1) is negative definite, so the projection of -G is -G itself
    problem = registry.get("ex-3.1").problem
    Y = penalty_multiplier(problem, np.array([-0.1]), 10.0)
    assert np.allclose(Y, [[1.0, 0.9], [0.9, 1.0]], atol=1e-12)


def test_penalty_multiplier_linear_in_rho(registry):
    problem = registry.get("ex-3.3").problem
    x = np.array([-0.2])
    a = penalty_multiplier(problem, x, 5.0)
    b = penalty_multiplier(problem, x, 10.0)
    assert np.allclose(2.0 * a, b)


def test_penalty_multiplier_shift_identities(registry):
    # with the shift Delta = proj_psd(-G), G + Delta is the PSD part of G
    # and is complementary with Y, which lives on the other eigenspace
    gen = np.random.default_rng(2)
    for fix in registry:
        problem = fix.problem
        for _ in range(20):
            x = gen.normal(size=problem.n)
            Y = penalty_multiplier(problem, x, 10.0)
            shifted = problem.g(x) + linalg.proj_psd(-problem.g(x))
            y_norm = linalg.frob(Y)
            assert abs(float(np.tensordot(shifted, Y))) <= 1e-8 * (1.0 + y_norm)
            assert np.min(np.linalg.eigvalsh(shifted)) >= -1e-9 * (1.0 + linalg.frob(shifted))
            assert np.min(np.linalg.eigvalsh(Y)) >= -1e-12 * (1.0 + y_norm)


# ---------------------------------------------------------------------------
# akkt_check


def exact_pair_certificate(problem, x, Y, reps=6):
    recs = tuple(kkt.AkktRecord(x=x, y=Y, delta=np.zeros((problem.m, problem.m)),
                                delta_vec=model.lagrangian_grad(problem, x, Y))
                 for _ in range(reps))
    return kkt.AkktCertificate(records=recs)


def test_akkt_accepts_exact_pair(registry):
    problem = registry.get("ex-4.2").problem
    cert = exact_pair_certificate(problem, np.array([0.0]), np.diag([1.0, 0.0]))
    ok, failure = kkt.akkt_check(problem, cert, tol=1e-8)
    assert ok and failure is None


def test_akkt_accepts_penalty_trace(registry):
    fix = registry.get("ex-4.2")
    trace = penalty_trace(fix.problem, fix.x0, outers=6)
    ok, _ = kkt.akkt_check(fix.problem, trace.certificate(), tol=1e-4)
    assert ok


def test_akkt_rejects_constant_shift(registry):
    problem = registry.get("ex-4.2").problem
    x = np.array([0.1])
    Y = np.diag([1.0, 0.0])
    delta = 0.05 * np.eye(2)
    recs = tuple(kkt.AkktRecord(x=x, y=Y, delta=delta,
                                delta_vec=model.lagrangian_grad(problem, x, Y))
                 for _ in range(6))
    ok, failure = kkt.akkt_check(problem, kkt.AkktCertificate(records=recs),
                                 tol=1e-4)
    assert not ok
    assert failure is not None


def test_akkt_rejects_inconsistent_defect(registry):
    problem = registry.get("ex-4.2").problem
    x = np.array([0.0])
    Y = np.diag([1.0, 0.0])
    recs = (kkt.AkktRecord(x=x, y=Y, delta=np.zeros((2, 2)),
                           delta_vec=np.array([0.5])),)
    ok, failure = kkt.akkt_check(problem, kkt.AkktCertificate(records=recs),
                                 tol=1e-4)
    assert not ok and failure == 0


@pytest.fixture(scope="module")
def al_trace(registry):
    """ex-4.2's AL trace as ``regress`` runs it: two records that certify AKKT."""
    fix = registry.get("ex-4.2")
    trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0,
                                               target_tol=1e-6, max_outer=12)
    assert len(trace) == 2
    assert kkt.akkt_check(fix.problem, trace, tol=1e-4) == (True, None)
    return fix.problem, trace.records


def edited(problem, rec, **changes):
    """``rec`` with ``changes``, its defect recomputed as grad_x L(x, y)."""
    rec = replace(rec, **changes)
    return replace(rec, delta_vec=model.lagrangian_grad(problem, rec.x, rec.y))


# each edit breaks one rule: the per-record PSD tests fail at the edited
# first record, the window tests at the last one.  With y = Diag(0, 1)
# the last record stays complementary to a shift Diag(d, 0), whose size d
# is then its measure.
@pytest.mark.parametrize("first,last,index", [
    pytest.param({"y": np.diag([1.5, -0.5])}, {}, 0, id="y-not-psd"),
    pytest.param({"delta": np.diag([0.5, 0.5 - 1e-8])}, {}, 0, id="shift-not-psd"),
    pytest.param({}, {"y": np.diag([0.0, 1.0]), "delta": np.diag([1e-3, 0.0])}, 1,
                 id="final-above-tol"),
    pytest.param(None, {"y": np.diag([0.0, 1.0]), "delta": np.diag([1e-6, 0.0])}, 1,
                 id="no-decay"),
])
def test_akkt_rejection_rules(al_trace, first, last, index):
    problem, (rec0, rec1) = al_trace
    rec1 = edited(problem, rec1, **last)
    # no-decay: the window's first record is its last, so no decay at all
    rec0 = rec1 if first is None else edited(problem, rec0, **first)
    cert = kkt.AkktCertificate(records=(rec0, rec1))
    assert kkt.akkt_check(problem, cert, tol=1e-4) == (False, index)


def reference_akkt_check(problem, cert, tol):
    """The per-record loop that ``akkt_check`` stacks: one ``eigenvalues`` call
    per matrix, each record's tests in order, the window tests last."""
    measures = []
    for idx, rec in enumerate(cert.records):
        grad_l = model.lagrangian_grad(problem, rec.x, rec.y)
        if linalg.frob(grad_l - rec.delta_vec) > 1e-10:
            return False, idx
        lam_y = linalg.eigenvalues(rec.y)
        if lam_y.size and float(lam_y[-1]) < -linalg.EPS_PSD_FACTOR * (1.0 + linalg.frob(rec.y)):
            return False, idx
        shifted = problem.g(rec.x) + rec.delta
        lam_s = linalg.eigenvalues(shifted)
        if float(lam_s[-1]) < -linalg.EPS_PSD_FACTOR * (1.0 + linalg.frob(shifted)):
            return False, idx
        if abs(linalg.inner(shifted, rec.y)) > kkt.EPS_COMP_FACTOR * (1.0 + linalg.frob(rec.y)):
            return False, idx
        measures.append(max(linalg.frob(rec.delta_vec), linalg.frob(rec.delta)))
    last = measures[-1]
    if last > tol:
        return False, len(cert) - 1
    if len(measures) >= 2:
        window = measures[-min(5, len(measures)):]
        if last > max(0.9 * window[0], 1e-12 * (1.0 + linalg.frob(cert.final.y))):
            return False, len(cert) - 1
    return True, None


@pytest.fixture(scope="module", params=[3, 8])
def frame_trace(request):
    """An AL trace of the m = 3 or m = 8 Haar-frame problem that certifies."""
    problem = haar_frame_problem(request.param, request.param)
    trace = solvers.solve_augmented_lagrangian(problem, np.array([1.0, 1.0]))
    assert trace.termination == "converged" and len(trace) >= 4
    return problem, trace.certificate()


def tampered(problem, cert, k, how):
    """``cert`` with record k broken one way; the defect stays consistent
    unless it is what breaks."""
    rec = cert.records[k]
    m = problem.m
    if how == "y-not-psd":
        rec = edited(problem, rec, y=rec.y - (1.0 + linalg.frob(rec.y)) * np.eye(m))
    elif how == "shift-not-psd":
        rec = replace(rec, delta=rec.delta - np.eye(m))
    elif how == "delta-vec":
        rec = replace(rec, delta_vec=rec.delta_vec + 1e-6)
    elif how == "complementarity":
        rec = replace(rec, delta=rec.delta + np.eye(m))
    elif how == "nan-y":
        rec = replace(rec, y=np.full((m, m), np.nan))
    records = list(cert.records)
    records[k] = rec
    return kkt.AkktCertificate(records=tuple(records))


@pytest.mark.parametrize("how", ["y-not-psd", "shift-not-psd", "delta-vec",
                                 "complementarity"])
def test_stacked_akkt_check_keeps_the_per_record_semantics(frame_trace, how):
    problem, cert = frame_trace
    assert kkt.akkt_check(problem, cert, tol=1e-4) == reference_akkt_check(
        problem, cert, 1e-4) == (True, None)
    for k in (0, len(cert) // 2, len(cert) - 1):
        bad = tampered(problem, cert, k, how)
        assert kkt.akkt_check(problem, bad, tol=1e-4) == reference_akkt_check(
            problem, bad, 1e-4) == (False, k)
        # a failing record before a NaN record decides; a NaN one raises
        if k + 1 < len(cert):
            worse = tampered(problem, bad, k + 1, "nan-y")
            assert kkt.akkt_check(problem, worse, tol=1e-4) == (False, k)
    worst = tampered(problem, tampered(problem, cert, 0, "nan-y"), 1, how)
    with pytest.raises(ValueError) as want:
        reference_akkt_check(problem, worst, 1e-4)
    with pytest.raises(ValueError, match="^matrix has non-finite entries$") as got:
        kkt.akkt_check(problem, worst, tol=1e-4)
    assert str(got.value) == str(want.value)


def test_akkt_empty_certificate_raises(registry):
    problem = registry.get("ex-4.2").problem
    with pytest.raises(kkt.TraceTooShortError):
        kkt.akkt_check(problem, kkt.AkktCertificate(records=()), tol=1e-4)


# ---------------------------------------------------------------------------
# trace files


def test_trace_round_trip(tmp_path, registry):
    fix = registry.get("ex-3.3")
    cert = penalty_trace(fix.problem, fix.x0, outers=6).certificate()
    path = tmp_path / "t.trace"
    kkt.write_trace(cert, path)
    back = kkt.read_trace(path, fix.problem.n, fix.problem.m)
    assert len(back) == len(cert)
    for a, b in zip(cert.records, back.records):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.delta_vec, b.delta_vec)
        assert a.rho == b.rho


def test_write_trace_keeps_old_file_when_a_record_fails(tmp_path, registry):
    fix = registry.get("ex-3.3")
    cert = penalty_trace(fix.problem, fix.x0, outers=2).certificate()
    path = tmp_path / "t.trace"
    kkt.write_trace(cert, path)
    before = path.read_bytes()
    bad = kkt.AkktCertificate(records=(cert.records[0],
                                       replace(cert.records[1], rho="n/a")))
    with pytest.raises(ValueError):
        kkt.write_trace(bad, path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["t.trace"]


def write_tampered_trace(path, registry, tamper):
    """An ex-4.3 trace (n = m = 2) whose second record is ``tamper(record)``."""
    fix = registry.get("ex-4.3")
    kkt.write_trace(penalty_trace(fix.problem, fix.x0, outers=3).certificate(), path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps(tamper(json.loads(lines[1])))
    path.write_text("\n".join(lines) + "\n")
    return fix.problem


@pytest.mark.parametrize("key", ["y", "delta"])
def test_read_trace_rejects_short_matrix(tmp_path, registry, key):
    problem = write_tampered_trace(tmp_path / "t.trace", registry,
                                   lambda rec: {**rec, key: [1.0, 0.0]})
    with pytest.raises(ValueError, match=f"trace line 2: {key}: expected 3 "
                                         "upper-triangle entries, got 2"):
        kkt.read_trace(tmp_path / "t.trace", problem.n, problem.m)


@pytest.mark.parametrize("key", ["y", "delta"])
def test_read_trace_rejects_long_matrix(tmp_path, registry, key):
    # the first three entries alone would load as a valid 2 x 2 matrix
    problem = write_tampered_trace(tmp_path / "t.trace", registry,
                                   lambda rec: {**rec, key: [1.0, 0.0, 0.0, 5.0]})
    with pytest.raises(ValueError, match=f"trace line 2: {key}: expected 3 "
                                         "upper-triangle entries, got 4"):
        kkt.read_trace(tmp_path / "t.trace", problem.n, problem.m)


@pytest.mark.parametrize("tamper,message", [
    (lambda rec: [1, 2], "record must be a JSON object"),
    (lambda rec: {k: v for k, v in rec.items() if k != "x"}, "record is missing x"),
    (lambda rec: {**rec, "x": None}, "x must hold numbers"),
    (lambda rec: {**rec, "delta_vec": rec["delta_vec"] + [0.0]},
     "delta_vec must be a list of 2 numbers"),
], ids=["not-an-object", "missing-x", "null-x", "long-delta-vec"])
def test_read_trace_names_line_and_field(tmp_path, registry, tamper, message):
    problem = write_tampered_trace(tmp_path / "t.trace", registry, tamper)
    with pytest.raises(ValueError, match=f"^trace line 2: {message}$"):
        kkt.read_trace(tmp_path / "t.trace", problem.n, problem.m)


# ---------------------------------------------------------------------------
# recover_multiplier


def test_recover_identity_constraint(registry):
    fix = registry.get("ex-4.2")
    cert = penalty_trace(fix.problem, fix.x0).certificate()
    rec = kkt.recover_multiplier(fix.problem, cert, fix.x_bar)
    assert rec.status == "recovered"
    assert rec.residual.max_entry <= 1e-5
    Y = rec.multiplier
    # stationarity needs trace(Y) = 1; the kernel split leaves rank one
    assert abs(np.trace(Y) - 1.0) <= 1e-6
    assert np.min(np.linalg.eigvalsh(Y)) >= -1e-10


def test_recover_divergence_single_point(registry):
    fix = registry.get("ex-3.1")
    cert = penalty_trace(fix.problem, fix.x0).certificate()
    rec = kkt.recover_multiplier(fix.problem, cert, fix.x_bar)
    assert rec.status == "diverged"
    assert rec.coefficient_growth > 10.0
    # the blow-up mechanism: the limiting diagonal family admits a
    # vanishing nonnegative combination
    assert rec.witness_pos_dependent is True


def test_recover_interior_point():
    problem = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([0.0]), c_quad=np.array([[2.0]]),
        a0=np.eye(2), a_lin=(np.zeros((2, 2)),), b_quad={},
        name="interior").problem()
    cert = penalty_trace(problem, np.array([1.0])).certificate()
    rec = kkt.recover_multiplier(problem, cert, np.array([0.0]))
    assert rec.status == "recovered"
    assert np.allclose(rec.multiplier, 0.0)


def test_recover_requires_five_records(registry):
    fix = registry.get("ex-4.2")
    cert = penalty_trace(fix.problem, fix.x0, outers=3).certificate()
    with pytest.raises(kkt.TraceTooShortError):
        kkt.recover_multiplier(fix.problem, cert, fix.x_bar)


def one_at_a_time(mats):
    return [linalg.spectral_decompose(M) for M in mats]


def assert_same_recovery(a, b):
    for field in dataclasses.fields(kkt.RecoveryResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "witness_family":
            assert len(x) == len(y) and all(map(np.array_equal, x, y))
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        else:
            assert x == y, field.name


@pytest.mark.parametrize("point", ["frame-m8", "ex-4.1"])
def test_recovery_same_through_the_stack(registry, monkeypatch, point):
    if point == "frame-m8":
        problem, x0, x_bar = haar_frame_problem(8, 8), np.array([1.0, 1.0]), np.zeros(2)
    else:
        fix = registry.get(point)
        problem, x0, x_bar = fix.problem, fix.x0, fix.x_bar
    cert = penalty_trace(problem, x0).certificate()
    stacked = kkt.recover_multiplier(problem, cert, x_bar)
    monkeypatch.setattr(linalg, "spectral_decompose_many", one_at_a_time)
    assert_same_recovery(kkt.recover_multiplier(problem, cert, x_bar), stacked)
    assert stacked.support  # the window's kernel bases carried a support


def test_recovery_matches_expected_tables(registry):
    for fix in registry:
        want = fix.expected.get("recovery")
        if want is None:
            continue
        cert = penalty_trace(fix.problem, fix.x0).certificate()
        rec = kkt.recover_multiplier(fix.problem, cert, fix.x_bar)
        assert rec.status == want, fix.fixture_id
        if want == "recovered":
            assert rec.residual.max_entry <= 1e-4
