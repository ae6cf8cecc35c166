import ast
import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from nsdpkit import cq, fixtures, linalg, model, solvers

import regen_lock

RT2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def registry():
    return fixtures.default_registry()


def quick_budget(**overrides):
    defaults = dict(n_directions=8, n_q=16, shrink_levels=10)
    defaults.update(overrides)
    return cq.CqBudget(**defaults)


# ---------------------------------------------------------------------------
# the v_ij family: model.curvature_vectors and model.diag_vectors


def pair_vectors(problem, x, E, *pairs):
    return model.curvature_vectors(problem, x, E, pairs)


def test_v_family_identity_basis(registry):
    problem = registry.get("ex-3.1").problem
    for x in (0.0, 0.3, -0.7):
        v11, v22, v12 = pair_vectors(problem, [x], np.eye(2), (0, 0), (1, 1), (0, 1))
        assert np.allclose(v11, [1.0])
        assert np.allclose(v22, [1.0])
        assert np.allclose(v12, [1.0 + 2.0 * x])


def test_v_family_rotated_basis(registry):
    # with a = -1/sqrt(2) and b = c = d = 1/sqrt(2) the off-diagonal
    # contribution cancels: v11 = -2x, v22 = 2(1+x), v12 = 0
    problem = registry.get("ex-3.1").problem
    E = np.array([[-RT2, RT2], [RT2, RT2]])
    for x in (0.0, 0.25, -0.4):
        v11, v22, v12 = pair_vectors(problem, [x], E, (0, 0), (1, 1), (0, 1))
        assert np.allclose(v11, [-2.0 * x], atol=1e-14)
        assert np.allclose(v22, [2.0 * (1.0 + x)], atol=1e-14)
        assert np.allclose(v12, [0.0], atol=1e-14)


def test_v_family_identity_constraint_any_basis(registry):
    problem = registry.get("ex-4.2").problem
    gen = np.random.default_rng(0)
    for _ in range(20):
        E = linalg.haar_orthogonal(2, gen)
        v11, v22 = model.diag_vectors(problem, np.array([0.1]), E)
        assert np.allclose(v11, [1.0], atol=1e-14)
        assert np.allclose(v22, [1.0], atol=1e-14)


def test_v_family_diagonal_sign_invariant(registry):
    # flipping column signs leaves every v_ii exactly unchanged
    gen = np.random.default_rng(1)
    for fid in ("ex-3.1", "ex-3.2", "ex-4.3"):
        problem = registry.get(fid).problem
        for _ in range(25):
            x = gen.normal(size=problem.n)
            E = linalg.haar_orthogonal(problem.m, gen)
            signs = np.where(gen.integers(0, 2, size=problem.m) == 0, -1.0, 1.0)
            a = model.diag_vectors(problem, x, E)
            b = model.diag_vectors(problem, x, E * signs)
            assert np.array_equal(a, b)


def test_v_family_full_rank_basis_covariant(registry):
    # span of the full {v_ij} family is invariant under E -> EQ
    gen = np.random.default_rng(2)
    for fid in ("ex-3.1", "ex-3.2", "ex-4.1", "ex-4.3"):
        problem = registry.get(fid).problem
        x = gen.normal(size=problem.n)
        E = linalg.haar_orthogonal(problem.m, gen)
        pairs = [(i, j) for i in range(problem.m) for j in range(i, problem.m)]

        def family_rank(vectors):
            stacked = np.array(vectors)
            svals = np.linalg.svd(stacked, compute_uv=False)
            scale = max(float(svals[0]), 1.0)
            return int(np.sum(svals > 1e-7 * scale))

        want = family_rank(model.curvature_vectors(problem, x, E, pairs))
        for _ in range(100):
            Q = linalg.haar_orthogonal(problem.m, gen)
            got = family_rank(model.curvature_vectors(problem, x, E @ Q, pairs))
            assert got == want, fid


# ---------------------------------------------------------------------------
# nondegeneracy


def test_nondegeneracy_violated_scalar_family(registry):
    fix = registry.get("ex-3.1")
    verdict = cq.check_nondegeneracy(fix.problem, fix.x_bar)
    assert verdict.status == cq.VIOLATED
    assert verdict.witness is not None


def test_nondegeneracy_certified_single_active_eigenvalue():
    problem = model.MatrixPolyProblem(
        n=2, m=2, c0=0.0, c_lin=np.array([1.0, 0.0]),
        c_quad=np.zeros((2, 2)), a0=np.zeros((2, 2)),
        a_lin=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), b_quad={},
        name="coords").problem()
    verdict = cq.check_nondegeneracy(problem, np.array([0.7, 0.0]))
    assert verdict.status == cq.CERTIFIED_HOLDS
    assert verdict.rank == 1


def test_nondegeneracy_interior_point(registry):
    problem = registry.get("ex-4.2").problem
    verdict = cq.check_nondegeneracy(problem, np.array([1.0]))
    assert verdict.status == cq.CERTIFIED_HOLDS
    assert verdict.rank == 2


def test_nondegeneracy_is_two_valued(registry):
    # decidable up to eps_rank: never NO_VIOLATION_FOUND
    for fix in registry:
        verdict = cq.check_nondegeneracy(fix.problem, fix.x_bar)
        assert verdict.status in (cq.CERTIFIED_HOLDS, cq.VIOLATED)


def test_nondegeneracy_decomposes_one_gram(registry, monkeypatch):
    # the witness's singular values and its dependence flag read the
    # same decomposition of the pair family's Gram matrix
    spec = cq.CHECKS["nondegeneracy"]
    decompose = linalg.spectral_decompose
    sizes = []
    checked = 0
    for fix in registry:
        ctx = cq.PointContext.at(fix.problem, fix.x_bar)
        if ctx.r == fix.problem.m:
            continue
        sizes.clear()
        monkeypatch.setattr(linalg, "spectral_decompose",
                            lambda M: sizes.append(len(M)) or decompose(M))
        verdict = spec.run(ctx)
        monkeypatch.undo()
        q = fix.problem.m - ctx.r
        assert sizes == [q * (q + 1) // 2], fix.fixture_id
        assert len(verdict.witness["singular_values"]) == sizes[0]
        checked += 1
    assert checked >= 5


def test_infeasible_point_rejected(registry):
    fix = registry.get("ex-4.2")
    with pytest.raises(cq.InfeasiblePointError) as err:
        cq.check_nondegeneracy(fix.problem, np.array([-0.5]))
    assert err.value.infeasibility > 0.0


# ---------------------------------------------------------------------------
# robinson


def test_robinson_certificate_on_halfplane(registry):
    fix = registry.get("ex-3.2")
    verdict = cq.check_robinson(fix.problem, fix.x_bar)
    assert verdict.status in fix.allowed("robinson")


def test_robinson_violated_rotation_pair(registry):
    fix = registry.get("ex-4.3")
    verdict = cq.check_robinson(fix.problem, fix.x_bar)
    assert verdict.status == cq.VIOLATED
    assert cq.replay_witness(fix.problem, verdict)


def robinson_point(registry, point):
    if point == "frame-m4":
        return frame_m4_point()[:2]
    fix = registry.get(point)
    return fix.problem, fix.x_bar


def ascent_evaluations(monkeypatch, ctx):
    """The robinson verdict at ``ctx`` and the sizes of the matrices its
    certificate search decomposed; one restart is 200 ascent steps and a
    closing evaluation."""
    decompose, certificate = linalg.spectral_decompose, cq._robinson_certificate
    inside, calls = [False], []

    def searching(*args, **kwargs):
        inside[0] = True
        try:
            return certificate(*args, **kwargs)
        finally:
            inside[0] = False

    def counting(M):
        if inside[0]:
            calls.append(len(M))
        return decompose(M)

    monkeypatch.setattr(cq, "_robinson_certificate", searching)
    monkeypatch.setattr(linalg, "spectral_decompose", counting)
    return cq.CHECKS["robinson"].run(ctx), calls


@pytest.mark.parametrize("point, phi_calls", [("ex-3.2", 4), ("frame-m4", 201)])
def test_robinson_search_stops_after_the_certifying_restart(registry, monkeypatch,
                                                            point, phi_calls):
    # the ascent from d = 0 certifies, so the free bases are never built;
    # at ex-3.2 it settles on a fixed d after 3 steps and reuses that evaluation
    ctx = cq.PointContext.at(*robinson_point(registry, point))
    verdict, calls = ascent_evaluations(monkeypatch, ctx)
    assert len(calls) == phi_calls
    assert verdict.status == cq.CERTIFIED_HOLDS
    assert "_rotated_bases" not in vars(ctx)


def test_robinson_screen_witness_ends_the_search(registry, monkeypatch):
    # ex-4.3 fails robinson: after the first ascent the positive-dependence
    # screen returns its witness, and the random restarts never run
    fix = registry.get("ex-4.3")
    verdict, calls = ascent_evaluations(monkeypatch, cq.PointContext.at(fix.problem, fix.x_bar))
    assert len(calls) == 201
    assert verdict.status == cq.VIOLATED


def test_robinson_failed_screen_keeps_the_full_search(registry, monkeypatch):
    fix = registry.get("ex-4.3")
    monkeypatch.setattr(cq, "_limit_failure", lambda ctx, spec, E: None)
    verdict, calls = ascent_evaluations(monkeypatch, cq.PointContext.at(fix.problem, fix.x_bar))
    assert len(calls) == 2010
    assert verdict.status == cq.NO_VIOLATION_FOUND


@pytest.mark.parametrize("point", ["ex-4.3", "frame-m4"])
@pytest.mark.parametrize("stop", ["check-threshold", "no-threshold"])
def test_robinson_split_search_returns_the_bits_of_one_pass(registry, point, stop):
    # without a threshold to stop at, every start runs on both sides and
    # the best (value, d) is carried from starts[:1] into starts[1:]
    problem, x_bar = robinson_point(registry, point)
    ctx = cq.PointContext.at(problem, x_bar)
    threshold = cq._robinson_threshold(ctx) if stop == "check-threshold" else np.inf
    starts = cq._robinson_starts(problem.n, ctx.budget)
    assert len(starts) == ctx.budget.robinson_restarts
    search = functools.partial(cq._robinson_certificate, ctx.G, problem.dg(ctx.x),
                               iters=ctx.budget.robinson_iters, threshold=threshold)
    one_val, one_d = search(starts, best=(-np.inf, np.zeros(problem.n)))
    split_val, split_d = search(starts[:1], best=(-np.inf, np.zeros(problem.n)))
    if split_val <= threshold:
        split_val, split_d = search(starts[1:], best=(split_val, split_d))
    assert split_val == one_val
    assert np.array_equal(split_d, one_d)


def test_robinson_interior_certified(registry):
    problem = registry.get("ex-4.2").problem
    verdict = cq.check_robinson(problem, np.array([2.0]))
    assert verdict.status == cq.CERTIFIED_HOLDS


# ---------------------------------------------------------------------------
# weak and sequential conditions against the expected tables


# msr samples projections on a ball and is pinned in the acceptance matrix
TABLE_CHECKS = [name for name in cq.CHECKS if name not in cq.checks_in(("full",))]


@pytest.mark.parametrize("check", TABLE_CHECKS)
def test_verdicts_match_expected_tables(registry, check, lock):
    # each check on a context of its own, as the public check_* entry
    # points run it; the shared-context run in diagnose must agree
    spec = cq.CHECKS[check]
    for fix in registry:
        if check not in cq.checks_in(regen_lock.ALL_SCOPES, fix.embedding):
            continue
        ctx = cq.PointContext.at(fix.problem, fix.x_bar, curves=fix.curves,
                                 embedding=fix.embedding)
        verdict = spec.run(ctx)
        allowed = fix.allowed(check)
        assert allowed is None or verdict.status in allowed, \
            (fix.fixture_id, check, verdict.status)
        locked = lock["verdicts"][fix.fixture_id][check]
        text = cq.verdict_to_text(verdict, generated_at="-")
        assert cq.content_digest(text) == locked["digest"], (fix.fixture_id, check)
        if verdict.status == cq.VIOLATED:
            target = regen_lock.replay_target(fix, check)
            assert cq.replay_witness(target, verdict), (fix.fixture_id, check)


def test_witness_kinds_documented():
    doc = (Path(__file__).parents[1] / "docs" / "verdict-format.md").read_text()
    section = doc[doc.index("## Witness kinds"):]
    for spec in cq.CHECKS.values():
        for kind in spec.replay:
            assert f"`{kind}`" in section, (spec.name, kind)


def test_weak_cpld_witness_on_negative_ray(registry):
    fix = registry.get("ex-3.1")
    verdict = cq.check_weak_cq(fix.problem, fix.x_bar, "weak-cpld",
                               curves=fix.curves)
    assert verdict.status == cq.VIOLATED
    w = verdict.witness
    assert w["sequence"] == "curve:neg-ray"
    for cand in w["candidates"]:
        for level in cand["levels"]:
            assert level["x"][0] < 0.0


def test_weak_crcq_fold_witness_vectors(registry):
    # along the fold the premise pair (2, 0), (2, 0) is dependent while
    # the perturbed pair gains the second coordinate 4 x2
    fix = registry.get("ex-3.2")
    verdict = cq.check_weak_cq(fix.problem, fix.x_bar, "weak-crcq")
    assert verdict.status == cq.VIOLATED
    cand = verdict.witness["candidates"][0]
    assert cand["premise_dependent"] is True
    for level in cand["levels"]:
        x2 = level["x"][1]
        got = np.array(sorted(np.asarray(level["vectors"]).tolist()))
        want = np.array(sorted([[2.0, 0.0], [2.0, 4.0 * x2]]))
        assert np.allclose(got, want, atol=1e-8)
        assert not level["dependent"]


# ---------------------------------------------------------------------------
# the registry's one entry: cq.run_checks and cq.checks_in


def _counted_runners(monkeypatch):
    """Wrap every registered runner; the list of check names run, in order."""
    ran = []
    for name, spec in cq.CHECKS.items():
        def runner(ctx, spec, inner=spec.runner):
            ran.append(spec.name)
            return inner(ctx, spec)
        monkeypatch.setitem(cq.CHECKS, name, dataclasses.replace(spec, runner=runner))
    return ran


@pytest.mark.parametrize("names, message", [
    (["nondegeneracy", "robinson", "bogus"], "unknown check 'bogus'"),
    (["nondegeneracy", "nlp-crcq"], "nlp-crcq needs a diagonal-embedding fixture"),
])
def test_run_checks_rejects_a_name_before_any_check_runs(registry, monkeypatch,
                                                         names, message):
    ran = _counted_runners(monkeypatch)
    fix = registry.get("ex-4.3")
    ctx = cq.PointContext.at(fix.problem, fix.x_bar)
    with pytest.raises(ValueError, match=message):
        list(cq.run_checks(ctx, names))
    assert ran == []


def test_run_checks_keeps_the_given_order(registry, monkeypatch):
    ran = _counted_runners(monkeypatch)
    fix = registry.get("nlp-curve")
    ctx = cq.PointContext.at(fix.problem, fix.x_bar, embedding=fix.embedding)
    names = ["nlp-cpld", "robinson", "nondegeneracy", "robinson"]
    pairs = cq.run_checks(ctx, names)
    assert ran == []  # each check runs when its pair is read
    pairs = [next(pairs)] + list(pairs)
    assert [name for name, _ in pairs] == [v.condition for _, v in pairs] == names
    assert ran == names
    texts = [cq.verdict_to_text(v, generated_at="-") for _, v in pairs]
    assert texts[1] == texts[3]


def test_checks_in_keeps_registry_order(registry):
    emb = registry.get("nlp-curve").embedding
    assert cq.checks_in(("full", "embedding", "default"), emb) == tuple(cq.CHECKS)
    matrix_only = tuple(name for name in cq.CHECKS if not name.startswith("nlp-"))
    assert cq.checks_in(("full", "embedding", "default")) == matrix_only
    assert cq.checks_in(("full", "default"), emb) == matrix_only
    assert cq.checks_in(("embedding",), emb) == ("nlp-crcq", "nlp-cpld")
    assert cq.checks_in(("embedding",)) == ()


def test_public_nlp_check_is_the_registry_path(registry, lock):
    checked = 0
    for fix in registry:
        if fix.embedding is None:
            continue
        ctx = cq.PointContext.at(fix.problem, fix.x_bar, curves=fix.curves,
                                 embedding=fix.embedding)
        for name, verdict in cq.run_checks(ctx, ("nlp-crcq", "nlp-cpld")):
            public = cq.nlp_constant_rank_check(fix.embedding, fix.x_bar,
                                                name.removeprefix("nlp-"),
                                                curves=fix.curves)
            digests = {cq.content_digest(cq.verdict_to_text(v, generated_at="-"))
                       for v in (verdict, public)}
            assert digests == {lock["verdicts"][fix.fixture_id][name]["digest"]}, \
                (fix.fixture_id, name)
        checked += 1
    assert checked == 5


# ---------------------------------------------------------------------------
# the weak checks' stacked decompositions at m >= 3


def padded(problem, g_eval=None):
    """``problem`` with G padded to m + 1 by a constant 1 block."""
    def pad(M, corner):
        out = np.zeros((problem.m + 1, problem.m + 1))
        out[:-1, :-1] = M
        out[-1, -1] = corner
        return out
    g_eval = g_eval or problem.g_eval
    return model.NsdpProblem(
        n=problem.n, m=problem.m + 1, f_eval=problem.f_eval, grad_f=problem.grad_f,
        g_eval=lambda x: pad(g_eval(x), 1.0),
        dg_eval=lambda x: [pad(D, 0.0) for D in problem.dg_eval(x)])


def upper(M):
    return [float(M[i, j]) for i in range(M.shape[0]) for j in range(i, M.shape[0])]


def frame_m4_point(big=1.0):
    """n = 3, m = 4: G(x) = Q diag(x1 + x2, x1 - x2, 1.5 + big x3, 1.2 - x1) Q'
    in a random frame Q, so every matrix decomposed is dense; kernel 2 at 0."""
    Q = linalg.haar_orthogonal(4, np.random.default_rng(7))
    def frame(*v):
        return upper((Q * np.array(v)) @ Q.T)
    poly = model.problem_from_dict({
        "format": "nsdp-problem/1", "name": "frame-m4", "n": 3, "m": 4,
        "objective": {"constant": 0.0, "linear": [1.0, 0.2, 0.3],
                      "quadratic": upper(np.eye(3))},
        "constraint": {"constant": frame(0.0, 0.0, 1.5, 1.2),
                       "linear": [frame(1.0, 1.0, 0.0, -1.0), frame(1.0, -1.0, 0.0, 0.0),
                                  frame(0.0, 0.0, big, 0.0)]},
        "x_bar": [0.0, 0.0, 0.0]})
    return poly.problem(), poly.x_bar, ()


def weak_texts(problem, x_bar, curves):
    ctx = cq.PointContext.at(problem, x_bar, curves=curves)
    return [cq.verdict_to_text(cq.CHECKS[name].run(ctx), "2000-01-01T00:00:00+00:00")
            for name in cq.WEAK_KINDS]


def one_at_a_time(mats, vectors):
    """The per-matrix loop the stack replaces."""
    return [(linalg.spectral_decompose if vectors else linalg.eigenvalues)(M) for M in mats]


@pytest.mark.parametrize("point", ["ex-3.1", "ex-4.1", "ex-3.2", "frame-m4"])
def test_weak_checks_same_through_the_stack(registry, monkeypatch, point):
    if point == "frame-m4":
        problem, x_bar, curves = frame_m4_point()
    else:
        fix = registry.get(point)
        problem, x_bar, curves = padded(fix.problem), fix.x_bar, fix.curves
    stacked = weak_texts(problem, x_bar, curves)
    monkeypatch.setattr(linalg, "_decompose_many", one_at_a_time)
    assert weak_texts(problem, x_bar, curves) == stacked
    if point == "ex-3.1":  # every check stops early, before its last sequence
        assert all('"status": "VIOLATED"' in text for text in stacked)


def test_weak_checks_build_and_stack_only_what_they_read(registry, monkeypatch):
    """ex-3.1 (m = 2) decides every weak check along its first sequence, so
    G is evaluated at that sequence's 12 points only, one at a time;
    frame-m4 (m = 4) reads all 38 sequences, so each weak check makes one
    stack of their 456 points."""
    fix = registry.get("ex-3.1")
    ctx = cq.PointContext.at(fix.problem, fix.x_bar, curves=fix.curves)
    evaluations = []
    g = model.NsdpProblem.g

    def counted(self, x):
        evaluations[-1] += 1
        return g(self, x)
    monkeypatch.setattr(model.NsdpProblem, "g", counted)
    for name in cq.WEAK_KINDS:
        evaluations.append(0)
        cq.CHECKS[name].run(ctx)
    assert evaluations == [0, 12, 12, 12]
    monkeypatch.undo()
    problem, x_bar, curves = frame_m4_point()
    ctx = cq.PointContext.at(problem, x_bar, curves=curves)
    stacks = []
    stack = linalg._decompose_many

    def spy(mats, vectors):
        stacks[-1].append(len(mats))
        return stack(mats, vectors)
    monkeypatch.setattr(linalg, "_decompose_many", spy)
    for name in cq.WEAK_KINDS:
        stacks.append([])
        cq.CHECKS[name].run(ctx)
    assert stacks == [[456]] * 4


def failing_where(condition, how, failed):
    """ex-3.1's G, failing (NaN or raising) at the points ``condition`` picks,
    each of which is appended to ``failed``."""
    base = fixtures.default_registry().get("ex-3.1").problem.g_eval

    def g_eval(x):
        if not condition(x[0]):
            return base(x)
        failed.append(x[0])
        if how == "nan":
            return np.full((2, 2), np.nan)
        raise ArithmeticError("G undefined here")
    return g_eval


@pytest.mark.parametrize("how", ["nan", "raise"])
def test_weak_failure_raised_only_where_the_loop_reaches_it(registry, how):
    # ex-3.1 violates along its first sequence, curve:neg-ray (x < 0); the
    # rays share its stack, so G failing at x > 0 is in a lane never read
    fix = registry.get("ex-3.1")
    clean = weak_texts(padded(fix.problem), fix.x_bar, fix.curves)
    failed = []
    later = padded(fix.problem, failing_where(lambda x: x > 0.0, how, failed))
    assert weak_texts(later, fix.x_bar, fix.curves) == clean
    assert failed  # the failing lanes were in the stack
    first = padded(fix.problem, failing_where(lambda x: x < 0.0, how, []))
    error, message = {"nan": (ValueError, "matrix has non-finite entries"),
                      "raise": (ArithmeticError, "G undefined here")}[how]
    ctx = cq.PointContext.at(first, fix.x_bar, curves=fix.curves)
    with pytest.raises(error, match=message):
        cq.CHECKS["weak-crcq"].run(ctx)


@pytest.mark.parametrize("how", ["nan", "raise"])
def test_weak_failure_in_the_second_stack_surfaces_where_reached(monkeypatch, how):
    # frame-m4 (m = 4) reads all its 38 sequences in every weak check, in
    # one stack; G fails along ray:-e3 alone, well past the first sequences
    problem, x_bar, curves = frame_m4_point()
    ctx = cq.PointContext.at(problem, x_bar, curves=curves)
    seqs = cq._sequences(x_bar, ctx.curves, cq._levels(ctx.budget), ctx.budget)
    ray = [label for label, _, _ in seqs].index("ray:-e3")
    assert ray >= 4
    error, message = {"nan": (ValueError, "matrix has non-finite entries"),
                      "raise": (ArithmeticError, "G undefined here")}[how]

    def outcomes():
        out = []
        for name in cq.WEAK_KINDS:
            failed = []

            def g_eval(x):
                if not (x[0] == 0.0 and x[1] == 0.0 and x[2] < 0.0):
                    return problem.g_eval(x)
                failed.append(x.copy())
                if how == "nan":
                    return np.full((4, 4), np.nan)
                raise ArithmeticError("G undefined here")
            bad = model.NsdpProblem(n=3, m=4, f_eval=problem.f_eval, grad_f=problem.grad_f,
                                    g_eval=g_eval, dg_eval=problem.dg_eval)
            with pytest.raises(error, match=message) as info:
                cq.CHECKS[name].run(cq.PointContext.at(bad, x_bar, curves=curves))
            # the last failing point is the ray's first, where a loop over the
            # sequences, one matrix at a time, meets the failure
            assert np.array_equal(failed[-1], seqs[ray][2][0])
            out.append((name, type(info.value), str(info.value), failed[-1].tolist()))
        return out

    stacked = outcomes()
    monkeypatch.setattr(linalg, "_decompose_many", one_at_a_time)
    assert outcomes() == stacked


def seq_texts(problem, x_bar, curves):
    ctx = cq.PointContext.at(problem, x_bar, curves=curves)
    return [cq.verdict_to_text(cq.CHECKS[name].run(ctx), "2000-01-01T00:00:00+00:00")
            for name in cq.SEQ_KINDS]


def stack_refused(*args):
    """``_seq_tail_violation`` then tries the pairs one at a time."""
    raise RuntimeError("no stacked rank decision")


@pytest.mark.parametrize("point", ["ex-3.2", "ex-4.2", "ex-4.3", "nlp-coords",
                                   "nlp-opposite-sign", "frame-m4"])
def test_seq_checks_same_through_the_stack(registry, monkeypatch, point):
    if point == "frame-m4":
        problem, x_bar, curves = frame_m4_point()
    else:
        fix = registry.get(point)
        problem, x_bar, curves = fix.problem, fix.x_bar, fix.curves
    stacked = seq_texts(problem, x_bar, curves)
    monkeypatch.setattr(linalg, "lin_dependent_many", stack_refused)
    assert seq_texts(problem, x_bar, curves) == stacked


def test_curve_candidate_same_through_the_stack(registry, monkeypatch):
    # ex-4.1's aligned-shift curve, padded to m = 3 with its shift, so its
    # levels' decompositions are one stack
    fix = registry.get("ex-4.1")

    def pad_shift(curve):
        def func(t):
            x_t, delta_t = curve.func(t)
            return x_t, np.pad(delta_t, ((0, 1), (0, 1)))
        return dataclasses.replace(curve, func=func)

    problem, curves = padded(fix.problem), tuple(map(pad_shift, fix.curves))
    ctx = cq.PointContext.at(problem, fix.x_bar, curves=curves)

    def run():
        entry = cq._curve_candidate(problem, curves[0], ctx.r, cq._levels(ctx.budget))
        return [entry["E_bar"]] + [lv["E"] for lv in entry["levels"]], \
            seq_texts(problem, fix.x_bar, curves)

    stacked, texts = run()
    monkeypatch.setattr(linalg, "_decompose_many", one_at_a_time)
    looped, looped_texts = run()
    assert len(stacked) == len(looped) == len(cq._levels(ctx.budget)) + 1
    assert all(map(np.array_equal, stacked, looped)) and texts == looped_texts


def dg_failing_where(problem, condition, how, failed):
    """``problem`` with DG failing (NaN or raising) at the points ``condition``
    picks, each of which is appended to ``failed``."""
    def dg_eval(x):
        if not condition(x):
            return problem.dg(x)
        failed.append(x.copy())
        if how == "nan":
            return [np.full((problem.m, problem.m), np.nan)] * problem.n
        raise ArithmeticError("DG undefined here")
    return model.NsdpProblem(n=problem.n, m=problem.m, f_eval=problem.f_eval,
                             grad_f=problem.grad_f, g_eval=problem.g_eval,
                             dg_eval=dg_eval, name=problem.name)


@pytest.mark.parametrize("how", ["nan", "raise"])
def test_seq_failure_raised_only_where_the_loop_reaches_it(registry, how):
    # ex-3.2's seq-crcq tail runs along +e2, after +-e1 and before -e2: the
    # first level's stack reads -e2 too, in lanes that decide nothing
    fix = registry.get("ex-3.2")
    clean = seq_texts(fix.problem, fix.x_bar, fix.curves)
    failed = []
    later = dg_failing_where(fix.problem, lambda x: x[1] < 0.0, how, failed)
    assert seq_texts(later, fix.x_bar, fix.curves) == clean
    assert failed
    first = dg_failing_where(fix.problem, lambda x: x[0] < 0.0, how, [])
    error, message = {"nan": (ValueError, "matrix has non-finite entries"),
                      "raise": (ArithmeticError, "DG undefined here")}[how]
    with pytest.raises(error, match=message):
        seq_texts(first, fix.x_bar, fix.curves)


def test_haar_bases_are_the_draw_sequence(registry):
    # the stacked draw gives the bases of one E0 @ haar_orthogonal per draw
    points = [(fix.problem, fix.x_bar) for fix in registry] + [frame_m4_point()[:2]]
    shapes = set()
    for problem, x_bar in points:
        ctx = cq.PointContext.at(problem, x_bar)
        if ctx.E0 is None:
            continue
        got = [E for label, E in ctx._rotated_bases if label.startswith("haar-")]
        gen, q = cq._rng(ctx.budget.seed, 1), ctx.E0.shape[1]
        want = [ctx.E0 @ linalg.haar_orthogonal(q, gen) for _ in range(ctx.budget.n_q)]
        assert len(got) == len(want) == ctx.budget.n_q
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        shapes.add(ctx.E0.shape)
    assert {(1, 1), (2, 2), (4, 2)} <= shapes


# ---------------------------------------------------------------------------
# the rotation sweep over a two-column kernel


def tilted_m4_point():
    """frame-m4 with D_3 (no kernel part) at 100x and every D_l tilted by
    t (E0 J E0'), J the quarter turn: asymmetric within EPS_SYM, with
    v01 - v10 = 2t, about 4e-11 for D_3, far above the 1e-12 tolerance."""
    problem, x_bar, _ = frame_m4_point(big=100.0)
    E0 = cq.PointContext.at(problem, x_bar).E0
    turn = E0 @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ E0.T
    def dg_eval(x):
        return [D + 0.4e-12 * (1.0 + np.abs(D).max()) * turn for D in problem.dg(x)]
    tilted = model.NsdpProblem(n=problem.n, m=problem.m, f_eval=problem.f_eval,
                               grad_f=problem.grad_f, g_eval=problem.g_eval,
                               dg_eval=dg_eval, name="tilted-m4")
    for D in tilted.dg(x_bar):
        linalg.check_symmetric(D)
    return tilted, x_bar


def sweep_points(registry):
    points = [(fix.fixture_id, fix.problem, fix.x_bar) for fix in registry]
    points.append(("frame-m4",) + frame_m4_point()[:2])
    points.append(("tilted-m4",) + tilted_m4_point())
    return points


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def test_rotated_diagonals_match_the_contraction(registry):
    # the closed form from E0's v_ij equals contracting at E0 R(theta)
    thetas = np.random.default_rng(18).uniform(0.0, math.pi, 32).tolist()
    checked = []
    for name, problem, x_bar in sweep_points(registry):
        E0 = cq.PointContext.at(problem, x_bar).E0
        if E0 is None or E0.shape[1] != 2:
            continue
        rotated = cq._rotated_diagonals(problem, x_bar, E0)
        for theta in thetas:
            want = model.diag_vectors(problem, x_bar, E0 @ rotation(theta), (0, 1))
            tol = 1e-12 * (1.0 + max(np.abs(v).max() for v in want))
            for got, v in zip(rotated(theta), want):
                assert np.abs(np.array(got) - v).max() <= tol, (name, theta)
        checked.append(name)
    assert len(checked) >= 10 and {"frame-m4", "tilted-m4"} <= set(checked)


def sweep_angles(problem, x_bar):
    ctx = cq.PointContext.at(problem, x_bar)
    hits = cq._sweep_candidates(problem, ctx.x, ctx.E0, ctx.scale_v, ctx.budget)
    angles = []
    for label, E in hits:
        R = ctx.E0.T @ E
        angles.append(math.atan2(R[1, 0], R[0, 0]) % math.pi)
        assert label == f"sweep@{angles[-1]:.8f}"
    return angles


def test_sweep_locates_the_ex31_double_zeros(registry):
    # v2 = 1 - sin 2 theta and v1 = 1 + sin 2 theta: double zeros
    fix = registry.get("ex-3.1")
    got = sweep_angles(fix.problem, fix.x_bar)
    assert len(got) == 2
    for theta, want in zip(got, (math.pi / 4, 3 * math.pi / 4)):
        assert abs(theta - want) <= 1e-8


def test_sweep_contracts_once(registry):
    fix = registry.get("nlp-coords")
    calls = []
    def dg_eval(x):
        calls.append(1)
        return fix.problem.dg_eval(x)
    problem = dataclasses.replace(fix.problem, dg_eval=dg_eval)
    ctx = cq.PointContext.at(problem, fix.x_bar)
    calls.clear()
    hits = cq._sweep_candidates(problem, ctx.x, ctx.E0, ctx.scale_v, ctx.budget)
    assert len(hits) == 2 and len(calls) == 1


def test_sweep_measures_run_on_floats():
    # per angle: no numpy, no BLAS product, no linalg or model call
    tree = ast.parse(Path(cq.__file__).read_text(encoding="utf-8"))
    for name in ("measures", "rotated"):
        body = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        for node in ast.walk(body):
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            assert not (isinstance(node, ast.Name) and node.id in ("np", "linalg", "model"))


def test_seq_crcq_aligned_shift_witness(registry):
    # the registered curve prescribes eigenvalues (t, 2t) on the tilted
    # basis; the leading diagonal vector follows the closed form
    fix = registry.get("ex-4.1")
    verdict = cq.check_seq_cq(fix.problem, fix.x_bar, "seq-crcq",
                              curves=fix.curves)
    assert verdict.status == cq.VIOLATED
    w = verdict.witness
    assert len(w["levels"]) >= 3
    for level in w["levels"]:
        t = level["x"][0]
        v11 = np.asarray(level["vectors"])[0]
        closed = (1.0 - (1.0 + t) ** 2) / (1.0 + (1.0 + t) ** 2)
        assert abs(v11[0] - closed) <= 1e-10
    assert cq.replay_witness(fix.problem, verdict)


def test_seq_crcq_pair_sequence_replays_at_rank_two():
    # frame-m4 has r = 2: the sequences complete E_bar from a non-empty
    # P_bar, and each level's shift keeps the P'GP core
    problem, x_bar, curves = frame_m4_point()
    verdict = cq.CHECKS["seq-crcq"].run(cq.PointContext.at(problem, x_bar,
                                                           curves=curves))
    assert verdict.status == cq.VIOLATED
    payload = verdict.to_payload()
    witness = payload["witness"]
    assert witness["kind"] == "pair-sequence"
    assert np.shape(witness["E_bar"]) == (4, 2)
    assert cq.replay_witness(problem, payload)
    witness["levels"][0]["delta"][0][0] += 1e-3
    assert not cq.replay_witness(problem, payload)


def test_seq_tail_orthonormalizes_each_stiefel_basis_once(registry, monkeypatch):
    # ex-4.2's seq-crcq search finds no tail, so every probe direction
    # runs every Stiefel variant; a (variant, level) basis depends on the
    # variant and the level only, so its input must not repeat in a call
    fix = registry.get("ex-4.2")
    ortho, tail, completion = (linalg.orthonormal_columns,
                               cq._seq_tail_violation, cq._completion_basis)
    active, per_call = [], []

    def counting_ortho(B):
        if active and active[-1] is not None:  # each matrix of a stack on its own
            active[-1].extend(M.tobytes() for M in B.reshape((-1,) + B.shape[-2:]))
        return ortho(B)

    def counting_tail(*args):
        per_call.append([])
        active.append(per_call[-1])
        try:
            return tail(*args)
        finally:
            active.pop()

    def uncounted_completion(*args):  # the witness's completion, not a basis
        active.append(None)
        try:
            return completion(*args)
        finally:
            active.pop()

    monkeypatch.setattr(linalg, "orthonormal_columns", counting_ortho)
    monkeypatch.setattr(cq, "_seq_tail_violation", counting_tail)
    monkeypatch.setattr(cq, "_completion_basis", uncounted_completion)
    verdict = cq.check_seq_cq(fix.problem, fix.x_bar, "seq-crcq",
                              curves=fix.curves)
    assert verdict.status == cq.NO_VIOLATION_FOUND
    assert per_call and all(per_call)
    for inputs in per_call:
        assert len(inputs) == len(set(inputs))
    # the first level's stack holds every Stiefel variant, one matrix each
    budget = cq.CqBudget()
    assert all(len(inputs) >= 2 * budget.n_stiefel for inputs in per_call)


def test_combinatorial_cap():
    m = 13
    problem = model.MatrixPolyProblem(
        n=1, m=m, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=np.zeros((m, m)), a_lin=(np.eye(m),), b_quad={},
        name="wide").problem()
    with pytest.raises(cq.CombinatorialCapError):
        cq.check_weak_cq(problem, np.array([0.0]), "weak-crcq",
                         quick_budget())


def test_verdict_deterministic_for_fixed_seed(registry):
    fix = registry.get("ex-3.2")
    a = cq.check_weak_cq(fix.problem, fix.x_bar, "weak-crcq")
    b = cq.check_weak_cq(fix.problem, fix.x_bar, "weak-crcq")
    ta = cq.verdict_to_text(a, generated_at="x")
    tb = cq.verdict_to_text(b, generated_at="x")
    assert ta == tb
    assert cq.content_digest(ta) == cq.content_digest(tb)


def test_digest_ignores_timestamp(registry):
    fix = registry.get("ex-3.3")
    v = cq.check_robinson(fix.problem, fix.x_bar)
    t1 = cq.verdict_to_text(v, generated_at="2026-01-01T00:00:00+00:00")
    t2 = cq.verdict_to_text(v, generated_at="2026-06-30T23:59:59+00:00")
    assert t1 != t2
    assert cq.content_digest(t1) == cq.content_digest(t2)


# ---------------------------------------------------------------------------
# separating perturbation


def test_separating_perturbation_prescribed_eigenvalues(registry):
    problem = registry.get("ex-3.1").problem
    x_bar = np.array([0.0])
    x = np.array([0.1])
    E = np.eye(2)
    P = np.zeros((2, 0))
    delta = cq.separating_perturbation(problem, x, x_bar, E, P)
    lam = linalg.spectral_decompose(problem.g(x) + delta).eigenvalues
    assert np.allclose(sorted(lam), [0.1, 0.2], atol=1e-9)


def test_separating_perturbation_rejects_base_point(registry):
    problem = registry.get("ex-3.1").problem
    with pytest.raises(ValueError):
        cq.separating_perturbation(problem, np.array([0.0]), np.array([0.0]),
                                   np.eye(2), np.zeros((2, 0)))


def test_separating_perturbation_vanishes_at_limit(registry):
    problem = registry.get("ex-4.3").problem
    x_bar = np.zeros(2)
    E = np.eye(2)
    P = np.zeros((2, 0))
    prev = np.inf
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        x = np.array([t, 0.5 * t])
        delta = cq.separating_perturbation(problem, x, x_bar, E, P)
        now = linalg.frob(delta)
        assert now < prev
        prev = now
    assert prev <= 1e-3


def test_separating_perturbation_makes_basis_exact(registry):
    # E becomes an exact eigenbasis of the shifted matrix
    problem = registry.get("ex-4.3").problem
    gen = np.random.default_rng(3)
    for _ in range(20):
        x = 0.1 * gen.normal(size=2)
        if np.linalg.norm(x) < 1e-3:
            continue
        E = linalg.haar_orthogonal(2, gen)
        delta = cq.separating_perturbation(problem, x, np.zeros(2), E,
                                           np.zeros((2, 0)))
        M = problem.g(x) + delta
        s = np.linalg.norm(x)
        for j in range(2):
            lam = (j + 1) * s
            assert np.linalg.norm(M @ E[:, j] - lam * E[:, j]) <= 1e-9 * (1 + s)


# ---------------------------------------------------------------------------
# NLP comparison and metric subregularity


def test_nlp_checks_match_embedded_weak_checks(registry):
    hits = 0
    for fix in registry:
        if fix.embedding is None:
            continue
        for weak in (k for k in cq.WEAK_KINDS if not cq.CHECKS[k].limit_only):
            sdp = cq.check_weak_cq(fix.problem, fix.x_bar, weak,
                                   curves=fix.curves)
            nlp = cq.nlp_constant_rank_check(fix.embedding, fix.x_bar,
                                             weak.removeprefix("weak-"))
            assert sdp.status == nlp.status, (fix.fixture_id, weak)
            hits += 1
    assert hits == 10


def test_msr_ratio_one_on_rotation_pair(registry):
    fix = registry.get("ex-4.3")
    est = cq.estimate_msr_modulus(fix.problem, fix.x_bar, radius=0.1,
                                  samples=25, seed=0)
    assert not est.unreliable
    assert est.n_failed == 0
    assert 0.99 <= est.gamma_hat <= 1.01
    assert all(r <= 1.01 for r in est.ratios)


def test_msr_all_feasible_flagged(registry):
    problem = registry.get("ex-4.2").problem
    est = cq.estimate_msr_modulus(problem, np.array([1.0]), radius=0.05,
                                  samples=15, seed=0)
    assert est.gamma_hat == 0.0
    assert est.n_infeasible == 0
    assert any("no infeasible samples" in note for note in est.notes)


def test_msr_verdict_statuses(registry):
    bad = registry.get("ex-3.1").problem
    v_bad = cq.check_msr(bad, np.array([0.0]), samples=30)
    assert v_bad.status == cq.VIOLATED
    assert cq.replay_witness(bad, v_bad)
    good = registry.get("ex-4.3").problem
    v_good = cq.check_msr(good, np.zeros(2), samples=30)
    assert v_good.status == cq.NO_VIOLATION_FOUND
    # a table supports the status the trend rule gives its gammas, and no other
    assert cq.replay_witness(good, v_good)
    for target, verdict in ((bad, v_bad), (good, v_good)):
        for status in set(cq.STATUSES) - {verdict.status}:
            relabelled = {**verdict.to_payload(), "status": status}
            assert cq.replay_witness(target, relabelled) is False, status


@pytest.mark.parametrize("estimate", [cq.estimate_msr_modulus,
                                      cq.estimate_msr_trend])
def test_msr_estimators_gate_the_point(registry, estimate):
    problem = registry.get("ex-4.2").problem
    with pytest.raises(cq.InfeasiblePointError):
        estimate(problem, np.array([-0.5]), samples=1)


@pytest.mark.parametrize("call", [
    lambda reg: cq.check_nondegeneracy(reg.get("ex-4.2").problem, [1.0, 7.0]),
    lambda reg: cq.nlp_constant_rank_check(reg.get("nlp-curve").embedding, [0.0]),
    lambda reg: cq.estimate_msr_modulus(reg.get("ex-4.2").problem, [1.0, 7.0],
                                        samples=1),
], ids=["nondegeneracy", "nlp", "msr"])
def test_checks_gate_the_point_length(registry, call):
    # the fixtures' closures index x: a longer point passes them, a shorter one
    # raises IndexError
    with pytest.raises(ValueError, match="finite numbers"):
        call(registry)


def test_check_msr_gates_once(registry, monkeypatch):
    fix = registry.get("ex-4.3")
    gates = []
    gate = cq._feasibility_gate
    monkeypatch.setattr(cq, "_feasibility_gate",
                        lambda *args: gates.append(args) or gate(*args))
    cq.check_msr(fix.problem, fix.x_bar, samples=1)
    assert len(gates) == 1


# the stop that cuts each projection's plateau: an inner solve's window-20
# stagnation, or the outer loop's rounding floor
PLATEAU_STOPS = {("ex-3.2", 1): "rounding_floor", ("ex-3.2", 3): "stagnation",
                 ("ex-4.3", 0): "stagnation", ("ex-4.3", 1): "stagnation"}


@pytest.mark.parametrize("fid,seed", list(PLATEAU_STOPS))
def test_projection_short_window_keeps_distance(registry, monkeypatch, fid, seed):
    """The window-20 stop gives the window-200 distance where a stop cuts a plateau.

    Each case is the one sample of a radius-0.025 estimate whose projection
    makes the stop ``PLATEAU_STOPS`` names; on ex-3.2 seed 3 and ex-4.3
    seed 1 the distances differ in the last digits.
    """
    fix = registry.get(fid)
    project = cq._projection_distance
    samples = []
    monkeypatch.setattr(cq, "_projection_distance",
                        lambda *args: samples.append(args) or project(*args))
    cq.estimate_msr_modulus(fix.problem, fix.x_bar, radius=0.025, samples=1,
                            seed=seed)
    (sample,) = samples
    inner = solvers.inner_minimize
    solve = solvers.solve_augmented_lagrangian
    stops = []  # inner stop reasons and outer terminations

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        stops.append(out[1].reason)
        return out

    def ended(*args, **kwargs):
        trace = solve(*args, **kwargs)
        stops.append(trace.termination)
        return trace
    monkeypatch.setattr(solvers, "inner_minimize", counted)
    monkeypatch.setattr(solvers, "solve_augmented_lagrangian", ended)
    dist, ok = project(*sample)
    assert PLATEAU_STOPS[fid, seed] in stops
    monkeypatch.setattr(cq, "PROJECTION_CONFIG", solvers.AlConfig())
    ref, ref_ok = project(*sample)
    assert ok and ref_ok
    assert abs(dist - ref) <= 1e-10 * ref


def _scale_worst(payload, i, factor):
    """Shrink or grow radius i's worst distance, keeping the table consistent."""
    w = payload["witness"]
    worst = w["worst"][i]
    worst["distance"] *= factor
    worst["ratio"] = worst["distance"] / worst["residual"]
    w["gamma_hat"][i] = worst["ratio"]


@pytest.mark.parametrize("tamper", [
    "residual", "ratio", "gamma", "distance-above-span", "bounded-gammas", "status"])
def test_msr_ratio_table_replay_rejects_tampering(registry, tmp_path, tamper):
    fix = registry.get("ex-3.1")
    path = tmp_path / "msr.verdict"
    cq.write_verdict(cq.check_msr(fix.problem, fix.x_bar, samples=4), path)
    payload = cq.read_verdict(path)
    assert payload["status"] == cq.VIOLATED
    assert cq.replay_witness(fix.problem, payload)
    w = payload["witness"]
    worst = w["worst"][0]
    if tamper == "residual":
        worst["residual"] *= 1.0 + 1e-6
    elif tamper == "ratio":
        worst["ratio"] = np.nextafter(worst["ratio"], np.inf)
    elif tamper == "gamma":
        w["gamma_hat"][0] *= 2.0
    elif tamper == "distance-above-span":
        span = float(np.linalg.norm(np.asarray(worst["x"]) - fix.x_bar))
        _scale_worst(payload, 0, 2.0 * span / worst["distance"])
    elif tamper == "status":  # a ratio table never supports a certificate
        payload["status"] = cq.CERTIFIED_HOLDS
    else:
        _scale_worst(payload, 0, 1e-3)
        _scale_worst(payload, 1, 1e-3)
    assert not cq.replay_witness(fix.problem, payload)


def _levels_at_limit(payload):
    for cand in payload["witness"]["candidates"]:
        for level in cand["levels"]:
            level.update(x=payload["x_bar"], E=cand["E_bar"], dependent=True)


def relabel(status):
    """A forgery that changes the verdict's status alone."""
    return lambda payload: payload.update(status=status)


FORGERIES = {
    # every level moved onto the limit pair, where J is dependent: the
    # flags agree, but the falsifier's trailing levels are not independent
    "levels-at-limit": ("ex-3.2", "weak-crcq", _levels_at_limit, False),
    # no constraint of nlp-curve is active at (5, 5), so J is no premise
    "gradient-point-moved": ("nlp-curve", "nlp-crcq",
                             lambda p: p.update(x_bar=[5.0, 5.0]), False),
    "infeasible-point": ("ex-3.2", "weak-crcq",
                         lambda p: p.update(x_bar=[-1.0, 0.0]),
                         cq.InfeasiblePointError),
    # a scale of 1e-300 makes every nonzero family independent
    "scale_v": ("ex-3.2", "nondegeneracy",
                lambda p: p["epsilons"].update(scale_v=1e-300), False),
    "matrix-witness-on-embedding": ("ex-3.2", "weak-crcq", None, TypeError),
    # the pair family is only defined on a basis with m rows and a column
    "pair-family-rows": ("ex-3.1", "nondegeneracy",
                         lambda p: p["witness"].update(E=p["witness"]["E"][:-1]),
                         ValueError),
    "pair-family-no-column": ("ex-3.1", "nondegeneracy", lambda p: p["witness"].update(
        E=[[] for _ in p["witness"]["E"]]), ValueError),
    # a zero column makes the family zero, so dependent, but spans no kernel
    "pair-family-not-kernel": ("ex-3.1", "nondegeneracy", lambda p: p["witness"].update(
        E=[[0.0] * len(row) for row in p["witness"]["E"]]), False),
    # G(x_bar) itself has smallest eigenvalue 0: it matches, but certifies nothing
    "robinson-zero-direction": ("ex-3.2", "robinson", lambda p: p["witness"].update(
        direction=[0.0] * len(p["witness"]["direction"]), lambda_min=0.0), False),
    # a status the witness does not support: each witness supports one
    "sequence-as-holds": ("ex-3.1", "weak-crcq", relabel(cq.CERTIFIED_HOLDS), False),
    "interior-direction-as-violated": ("ex-3.2", "robinson", relabel(cq.VIOLATED), False),
    "dependent-pair-family-as-holds": ("ex-3.1", "nondegeneracy",
                                       relabel(cq.CERTIFIED_HOLDS), False),
    # no witness: a spent budget (rank 0 < m at ex-4.3) certifies and
    # violates nothing, and nlp-coords has active constraints
    "no-witness-as-violated": ("ex-4.3", "weak-crcq", relabel(cq.VIOLATED), False),
    "no-witness-as-holds": ("ex-4.3", "weak-crcq", relabel(cq.CERTIFIED_HOLDS), False),
    "no-witness-nlp-as-holds": ("nlp-coords", "nlp-crcq", relabel(cq.CERTIFIED_HOLDS),
                                False),
}


@pytest.mark.parametrize("forgery", FORGERIES)
def test_replay_rejects_forged_witness(registry, forgery):
    fid, check, forge, outcome = FORGERIES[forgery]
    fix = registry.get(fid)
    spec = cq.CHECKS[check]
    verdict = spec.run(cq.PointContext.at(fix.problem, fix.x_bar, curves=fix.curves,
                                          embedding=fix.embedding))
    target = regen_lock.replay_target(fix, check)
    payload = verdict.to_payload()
    assert cq.replay_witness(target, payload)
    if forge is None:
        target = registry.get("nlp-curve").embedding
    else:
        forge(payload)
    if outcome is False:
        assert cq.replay_witness(target, payload) is False
    else:
        with pytest.raises(outcome):
            cq.replay_witness(target, payload)


def test_certificate_without_witness_replays_by_the_gate(registry):
    # ex-4.2's G has full rank at x = 1 but not at x_bar = 0; no constraint
    # of nlp-curve is active at (5, 5), but one is at its x_bar
    for fid, check, x in (("ex-4.2", "nondegeneracy", [1.0]),
                          ("nlp-curve", "nlp-crcq", [5.0, 5.0])):
        fix = registry.get(fid)
        spec = cq.CHECKS[check]
        target = regen_lock.replay_target(fix, check)
        verdict = spec.run(cq.PointContext.at(fix.problem, np.array(x),
                                              embedding=fix.embedding))
        payload = verdict.to_payload()
        assert verdict.status == cq.CERTIFIED_HOLDS and verdict.witness is None
        assert cq.replay_witness(target, payload)
        # at x_bar, with the gate's own scale there, only the rank rule fails
        gate = cq.PointContext.at(fix.problem, fix.x_bar, embedding=fix.embedding)
        payload["x_bar"] = fix.x_bar.tolist()
        payload["epsilons"]["scale_v"] = (
            gate.scalar() if target is fix.embedding else gate).scale_v
        assert cq.replay_witness(target, payload) is False
        # a certificate at a point of no numbers is no certificate
        payload["x_bar"] = [math.nan] * fix.problem.n
        payload["epsilons"]["scale_v"] = 1.0
        with pytest.raises(ValueError, match="finite numbers"):
            cq.replay_witness(target, payload)


@pytest.mark.parametrize("budget", [
    {"n_q_typo": 1}, {"n_q": "64"}, [("n_q", 64)]], ids=["field", "value", "list"])
def test_replay_malformed_budget_raises_value_error(registry, budget):
    fix = registry.get("ex-3.1")
    payload = cq.check_nondegeneracy(fix.problem, fix.x_bar).to_payload()
    recorded = {**payload["budget"], **budget} if isinstance(budget, dict) else budget
    with pytest.raises(ValueError, match="budget"):
        cq.replay_witness(fix.problem, {**payload, "budget": recorded})
