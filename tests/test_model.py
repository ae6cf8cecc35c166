import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsdpkit import fixtures, model


@pytest.fixture(scope="module")
def registry():
    return fixtures.default_registry()


def sample_psd(gen, m):
    A = gen.normal(size=(m, m))
    return A @ A.T


# ---------------------------------------------------------------------------
# derivatives


def test_fd_audit_all_fixtures(registry):
    gen = np.random.default_rng(0)
    for fix in registry:
        points = [gen.normal(size=fix.problem.n) for _ in range(20)]
        worst = model.audit_derivatives(fix.problem, points, rel_tol=1e-4)
        # polynomial-backed problems carry exact derivatives
        assert worst <= 1e-9


def test_adjoint_identity_all_fixtures(registry):
    gen = np.random.default_rng(1)
    for fix in registry:
        problem = fix.problem
        for _ in range(100):
            x = gen.normal(size=problem.n)
            d = gen.normal(size=problem.n)
            Y = sample_psd(gen, problem.m)
            derivs = problem.dg(x)
            dG_d = sum(di * D for di, D in zip(d, derivs))
            lhs = float(np.tensordot(dG_d, Y))
            rhs = float(d @ model.adjoint_dg(problem, x, Y))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_adjoint_coupled_constraint_at_origin(registry):
    # G = [[x, x+x^2], [x+x^2, x]]: DG(0) is the all-ones matrix
    problem = registry.get("ex-3.1").problem
    gen = np.random.default_rng(2)
    for _ in range(20):
        Y = sample_psd(gen, 2)
        got = model.adjoint_dg(problem, np.array([0.0]), Y)
        want = Y[0, 0] + 2.0 * Y[0, 1] + Y[1, 1]
        assert abs(got[0] - want) <= 1e-12 * (1.0 + abs(want))


def test_lagrangian_grad_bounded_away_from_zero(registry):
    # f = -x and the adjoint term is >= 0 for PSD Y, so the gradient <= -1
    problem = registry.get("ex-3.1").problem
    gen = np.random.default_rng(3)
    for _ in range(100):
        Y = sample_psd(gen, 2)
        g = model.lagrangian_grad(problem, np.array([0.0]), Y)
        assert g[0] <= -1.0 + 1e-12


def test_lagrangian_grad_zero_multiplier(registry):
    problem = registry.get("ex-3.2").problem
    x = np.array([0.3, -0.2])
    assert np.allclose(model.lagrangian_grad(problem, x, np.zeros((2, 2))),
                       problem.grad(x))


def test_lagrangian_grad_identity_constraint(registry):
    # G = x I, f = x: Y = Diag(1, 0) closes the gradient at the origin
    problem = registry.get("ex-4.2").problem
    g = model.lagrangian_grad(problem, np.array([0.0]), np.diag([1.0, 0.0]))
    assert abs(g[0]) <= 1e-12


# ---------------------------------------------------------------------------
# diagonal embedding


def test_embed_single_coordinate():
    emb = model.embed_diagonal_nlp(
        1, lambda x: float(x[0]), lambda x: np.array([1.0]),
        [(lambda x: float(x[0]), lambda x: np.array([1.0]))])
    assert np.allclose(emb.problem.g(np.array([0.7])), [[0.7]])
    assert np.allclose(emb.problem.dg(np.array([0.7]))[0], [[1.0]])


def test_embed_opposite_signs(registry):
    fix = registry.get("nlp-opposite-sign")
    x = np.array([0.4])
    G = fix.problem.g(x)
    assert np.allclose(G, np.diag([0.4, -0.4]))


def test_embed_offdiagonals_exactly_zero(registry):
    for fid in ("nlp-coords", "nlp-curve", "nlp-parallel"):
        fix = registry.get(fid)
        gen = np.random.default_rng(5)
        for _ in range(10):
            x = gen.normal(size=fix.problem.n)
            G = fix.problem.g(x)
            off = G - np.diag(np.diag(G))
            assert np.all(off == 0.0)


def test_embed_diagonal_reproduces_constraints(registry):
    fix = registry.get("nlp-curve")
    emb = fix.embedding
    gen = np.random.default_rng(6)
    for _ in range(20):
        x = gen.normal(size=2)
        diag = np.diag(emb.problem.g(x))
        vals = emb.constraint_values(x)
        assert np.array_equal(diag, vals)


def test_embed_active_set_matches_rank(registry):
    from nsdpkit import linalg
    fix = registry.get("nlp-coords")
    emb = fix.embedding
    for x in (np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([2.0, 3.0])):
        G = fix.problem.g(x)
        dec = linalg.spectral_decompose(G)
        r = linalg.numerical_rank(dec.eigenvalues, max(1.0, float(np.max(np.abs(G)))))
        assert len(emb.active_set(x)) == fix.problem.m - r


# ---------------------------------------------------------------------------
# problem files


def _sample_poly():
    return model.MatrixPolyProblem(
        n=2, m=2, c0=0.5, c_lin=np.array([1.0, -2.0]),
        c_quad=np.array([[2.0, 0.5], [0.5, 1.0]]),
        a0=np.array([[1.0, 0.0], [0.0, -1.0]]),
        a_lin=(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)),
        b_quad={(0, 1): np.array([[0.0, 2.0], [2.0, 0.0]]),
                (1, 1): np.diag([1.0, 3.0])},
        name="round-trip", x_bar=np.array([0.25, -0.5]),
        expected={"checks": {"weak-cpld": "NO_VIOLATION_FOUND"}})


def test_file_round_trip(tmp_path):
    poly = _sample_poly()
    path = tmp_path / "p.json"
    model.save_problem(poly, path)
    back = model.load_problem(path)
    assert back.n == poly.n and back.m == poly.m
    assert back.name == "round-trip"
    assert np.array_equal(back.c_lin, poly.c_lin)
    assert np.array_equal(back.c_quad, poly.c_quad)
    assert np.array_equal(back.a0, poly.a0)
    for A, B in zip(back.a_lin, poly.a_lin):
        assert np.array_equal(A, B)
    assert set(back.b_quad) == set(poly.b_quad)
    for key in poly.b_quad:
        assert np.array_equal(back.b_quad[key], poly.b_quad[key])
    assert np.array_equal(back.x_bar, poly.x_bar)
    assert back.expected == poly.expected


def test_round_trip_evaluations_identical(tmp_path):
    poly = _sample_poly()
    path = tmp_path / "p.json"
    model.save_problem(poly, path)
    back = model.load_problem(path)
    gen = np.random.default_rng(7)
    for _ in range(20):
        x = gen.normal(size=2)
        assert poly.f(x) == back.f(x)
        assert np.array_equal(poly.g(x), back.g(x))
        for A, B in zip(poly.dg(x), back.dg(x)):
            assert np.array_equal(A, B)


def test_dg_matches_a_sum_per_entry():
    poly = _sample_poly()
    gen = np.random.default_rng(8)
    for _ in range(20):
        x = gen.normal(size=2)
        want = []
        for l in range(poly.n):
            D = poly.a_lin[l].copy()
            for (i, j), B in poly.b_quad.items():
                if i == j == l:
                    D = D + 2.0 * x[l] * B
                elif i == l:
                    D = D + x[j] * B
                elif j == l:
                    D = D + x[i] * B
            want.append(D)
        for A, B in zip(poly.dg(x), want):
            assert np.array_equal(A, B)


def test_dg_hands_out_read_only_copies():
    A = np.eye(2)
    poly = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=np.zeros((2, 2)), a_lin=(A,), b_quad={})
    A[0, 0] = 7.0
    assert poly.a_lin[0][0, 0] == 1.0 and A.flags.writeable
    # with no quadratic term dg returns the stored matrix itself
    D = poly.dg(np.array([0.5]))[0]
    assert D is poly.a_lin[0]
    with pytest.raises(ValueError, match="read-only"):
        D[0, 0] = 5.0


def test_dict_round_trip_without_optionals():
    poly = model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=np.zeros((2, 2)), a_lin=(np.eye(2),), b_quad={})
    d = model.problem_to_dict(poly)
    assert "x_bar" not in d and "expected" not in d
    back = model.problem_from_dict(d)
    assert back.x_bar is None and back.expected is None


def test_loader_rejects_wrong_format_tag(tmp_path):
    d = model.problem_to_dict(_sample_poly())
    d["format"] = "something-else"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError):
        model.load_problem(path)


def test_loader_rejects_wrong_triangle_length(tmp_path):
    d = model.problem_to_dict(_sample_poly())
    d["constraint"]["constant"] = d["constraint"]["constant"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError):
        model.load_problem(path)


DELETE = object()   # mutation: drop the key or list element
MUTATIONS = st.one_of(
    st.sampled_from([DELETE, None, True, "1.5", {}, [], [[]], float("nan"),
                     float("inf"), -float("inf"), 10 ** 400,
                     [[0.0, 1.0], [2.0, 0.0]], [[[0.0, 1.0], [2.0, 0.0]]]]),
    st.integers(-2, 4),
    st.floats(),
    st.lists(st.floats(), max_size=7),
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    if not path:
        return None if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_problem_from_dict_loads_or_raises_value_error(data):
    # wrong JSON types, non-finite numbers, wrong lengths, asymmetric
    # matrices and empty lists, up to three at a time
    doc = model.problem_to_dict(_sample_poly())
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        doc = _mutated(doc, path, data.draw(MUTATIONS))
    try:
        poly = model.problem_from_dict(doc)
    except ValueError:
        return
    poly.problem().g(np.zeros(poly.n))


def test_constructor_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        model.MatrixPolyProblem(
            n=1, m=2, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
            a0=np.array([[0.0, 1.0], [0.0, 0.0]]), a_lin=(np.eye(2),),
            b_quad={})


def test_constructor_rejects_bad_reference_point():
    with pytest.raises(ValueError):
        model.MatrixPolyProblem(
            n=1, m=2, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
            a0=np.zeros((2, 2)), a_lin=(np.eye(2),), b_quad={},
            x_bar=np.array([0.0, 1.0]))


def test_fixture_problems_match_matrix_data(registry):
    # the closed forms the checks rely on, spot-checked at a generic point
    p31 = registry.get("ex-3.1").problem
    x = np.array([0.3])
    assert np.allclose(p31.g(x), [[0.3, 0.39], [0.39, 0.3]])
    p32 = registry.get("ex-3.2").problem
    x = np.array([0.2, 0.5])
    assert np.allclose(p32.g(x), [[0.65, -0.25], [-0.25, 0.65]])
    p43 = registry.get("ex-4.3").problem
    x = np.array([0.3, 0.2])
    assert np.allclose(p43.g(x), [[0.3, 0.2], [0.2, -0.3]])
