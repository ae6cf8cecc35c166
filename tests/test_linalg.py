import ast
import itertools
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nsdpkit import cli, cq, fixtures, linalg, selftest, solvers

RT2 = 1.0 / np.sqrt(2.0)


def rng(seed):
    return np.random.default_rng(seed)


def random_sym(gen, m, scale=1.0):
    A = gen.normal(size=(m, m)) * scale
    return (A + A.T) / 2.0


# ---------------------------------------------------------------------------
# spectral_decompose


def test_decompose_diagonal():
    dec = linalg.spectral_decompose(np.diag([3.0, -2.0]))
    assert np.allclose(dec.eigenvalues, [3.0, -2.0])
    # columns of a diagonal input are coordinate vectors up to sign
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_decompose_coupled_2x2():
    # closed form for [[a, b], [b, a]]: eigenvalues a +- b
    M = np.array([[-0.1, -0.09], [-0.09, -0.1]])
    dec = linalg.spectral_decompose(M)
    assert np.allclose(dec.eigenvalues, [-0.01, -0.19], atol=1e-12)
    u0, u1 = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]
    assert np.allclose(np.abs(u0), [RT2, RT2], atol=1e-12)
    assert np.allclose(np.abs(u1), [RT2, RT2], atol=1e-12)
    assert abs(np.dot(u0, u1)) < 1e-12


def test_decompose_round_trip_known_spectrum():
    gen = rng(3)
    Q = linalg.haar_orthogonal(3, gen)
    M = Q @ np.diag([5.0, 1.0, 0.0]) @ Q.T
    dec = linalg.spectral_decompose(M)
    assert np.allclose(dec.eigenvalues, [5.0, 1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_decompose_invariants(m):
    gen = rng(m)
    for _ in range(20):
        M = random_sym(gen, m, scale=3.0)
        dec = linalg.spectral_decompose(M)
        lam, U = dec.eigenvalues, dec.eigenvectors
        assert all(lam[i] >= lam[i + 1] - 1e-12 for i in range(m - 1))
        assert linalg.frob(U.T @ U - np.eye(m)) <= 1e-10 * m
        recon = U @ np.diag(lam) @ U.T
        assert linalg.frob(recon - M) <= 1e-9 * (1.0 + linalg.frob(M))


def test_decompose_deterministic():
    M = random_sym(rng(7), 4)
    a = linalg.spectral_decompose(M)
    b = linalg.spectral_decompose(M.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


# ---------------------------------------------------------------------------
# parity with the reference kernel
#
# The numpy-scalar cyclic Jacobi and the canonical sign and sort that
# spectral_decompose replaced.  The kernel does the same IEEE operations in
# the same order on Python floats, so every bit must agree, signed zeros
# included.


def _reference_off_norm(A):
    """sqrt(2 * sum of squared upper entries), the sum by math.fsum."""
    return math.sqrt(2.0 * math.fsum((np.triu(A, 1) ** 2).ravel().tolist()))


def _reference_jacobi(M, max_sweeps=100):
    A = np.array(M, dtype=float)
    m = A.shape[0]
    V = np.eye(m)
    if m <= 1:
        return np.diag(A).copy(), V
    scale = 1.0 + linalg.frob(A)
    off_tol = 1e-14 * scale
    for sweep in range(max_sweeps):
        off = _reference_off_norm(A)
        if off <= off_tol:
            return np.diag(A).copy(), V
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = A[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0.0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
                for i in range(m):
                    if i == p or i == q:
                        continue
                    aip, aiq = A[i, p], A[i, q]
                    A[i, p] = c * aip - s * aiq
                    A[p, i] = A[i, p]
                    A[i, q] = s * aip + c * aiq
                    A[q, i] = A[i, q]
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    off = _reference_off_norm(A)
    if off <= off_tol:
        return np.diag(A).copy(), V
    raise linalg.JacobiConvergenceError(off, max_sweeps)


def _reference_canonical_sign(col):
    idx = int(np.argmax(np.abs(col)))
    if col[idx] < -1e-300:
        return -col
    return col


def reference_decompose(M):
    M = linalg.check_symmetric(M)
    vals, V = _reference_jacobi(M)
    cols = [_reference_canonical_sign(V[:, i].copy()) for i in range(M.shape[0])]
    order = sorted(range(M.shape[0]), key=lambda i: (-vals[i], tuple(cols[i])))
    lam = np.array([vals[i] for i in order])
    U = np.column_stack([cols[i] for i in order]) if order else np.eye(0)
    return lam, U


def assert_same_bits(M):
    """Reference bits, or ValueError where the kernel's squared norm overflows.

    Both kernel entries: ``spectral_decompose`` and the values-only
    ``eigenvalues``, whose bits include the sign of a tied zero.
    """
    nrm = linalg.frob(M)
    if M.shape[0] >= 2 and math.isinf(nrm * nrm):
        for kernel in (linalg.spectral_decompose, linalg.eigenvalues):
            with pytest.raises(ValueError, match="norm overflows"):
                kernel(M)
        return
    lam_ref, U_ref = reference_decompose(M)
    dec = linalg.spectral_decompose(M)
    assert_arrays_same_bits((dec.eigenvalues, lam_ref), (dec.eigenvectors, U_ref),
                            (linalg.eigenvalues(M), lam_ref))


def assert_arrays_same_bits(*pairs):
    """Values, signs of zero, dtype, shape and C-contiguity of each (got, want)."""
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def each(mats, vectors=True):
    """``decompose_each`` over matrices already built."""
    return list(linalg.decompose_each(lambda M: M, mats, vectors))


def assert_outputs_same_bits(got, want, vectors):
    """A ``SpectralDecomp`` against ``want``'s, or values alone against its values."""
    if vectors:
        assert_arrays_same_bits((got.eigenvalues, want.eigenvalues),
                                (got.eigenvectors, want.eigenvectors))
    else:
        assert_arrays_same_bits((got, want.eigenvalues))


def assert_stack_same_bits(mats):
    """Each lane of one stack, with and without its rotated identities, of
    the matrices the kernel accepts has the reference bits: through
    ``_decompose_many`` above 2x2 and through ``decompose_each``.  Where one
    matrix's squared norm overflows, ``_decompose_many`` raises the
    per-matrix ValueError and ``decompose_each`` raises it at that matrix."""
    def accepted(M):
        nrm = linalg.frob(M)
        return M.shape[0] < 2 or not math.isinf(nrm * nrm)

    good = [M for M in mats if accepted(M)]
    stacked = bool(mats) and mats[0].shape[0] > 2
    want = [linalg.SpectralDecomp(*reference_decompose(M)) for M in good]
    for vectors in (True, False):
        for got in [each(good, vectors)] + ([linalg._decompose_many(good, vectors)]
                                            if stacked and good else []):
            assert len(got) == len(good)
            for out, ref in zip(got, want):
                assert_outputs_same_bits(out, ref, vectors)
        if len(good) == len(mats):
            continue
        if stacked:
            with pytest.raises(ValueError, match="norm overflows"):
                linalg._decompose_many(mats, vectors)
        lanes = linalg.decompose_each(lambda M: M, mats, vectors)
        for _ in itertools.takewhile(accepted, mats):
            next(lanes)
        with pytest.raises(ValueError, match="norm overflows"):
            next(lanes)


EDGE_VALUES = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300,
               1.0, -1.0, 0.5, 3.0)


# off-diagonal norms within a relative 1e-13 of the stop test's tolerance
BAND_K = (1 - 1e-13, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-13)


def near_tolerance(m, gen, ks):
    """Off-diagonal norms k times the convergence test 1e-14 * (1 + ||M||_F)."""
    D = np.diag(gen.choice([1.0, 2.0], size=m))
    W = np.triu(gen.normal(size=(m, m)), 1)
    W = (W + W.T) / max(linalg.frob(W + W.T), 1e-300)
    return [D + W * (k * 1e-14 * (1.0 + linalg.frob(D))) for k in ks]


def parity_matrices(m, seed):
    """Random, edge-valued, diagonal, zero, tied and rank-deficient inputs."""
    gen = rng(seed)
    out = [np.zeros((m, m)), np.eye(m), np.diag(np.arange(m, 0.0, -1.0))]
    for _ in range(3):
        out.append(random_sym(gen, m, scale=10.0 ** gen.integers(-12, 13)))
        E = gen.choice(EDGE_VALUES, size=(m, m))
        out.append(np.triu(E) + np.triu(E, 1).T)
        out.append(np.diag(gen.choice(EDGE_VALUES, size=m)))
        Q = linalg.haar_orthogonal(m, gen)
        # ties and rank deficiency: eigenvalues drawn from a small set
        out.append(Q @ np.diag(gen.choice([0.0, 1.0, -2.0], size=m)) @ Q.T)
        A = gen.integers(-2, 3, size=(m, m)).astype(float)
        out.append(A + A.T)
    out += near_tolerance(m, gen, (0.3, 0.6, 0.8, 0.95) + BAND_K + (1.05, 1.5))
    # asymmetric within check_symmetric's tolerance: the lower triangle is
    # read until a rotation overwrites it
    S = random_sym(gen, m)
    out.append(S + np.tril(gen.normal(size=(m, m)), -1) * 1e-14)
    return out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 8, 16])
def test_kernel_matches_reference_bits(m):
    seeds = {0: 1, 1: 20, 2: 60, 3: 20, 4: 10, 8: 3, 16: 1}[m]
    for seed in range(seeds):
        mats = parity_matrices(m, seed)
        for M in mats:
            assert_same_bits(M)
        # one stack: lanes that stop after different sweep counts, skip
        # rotations, hold +-0, subnormals or +-1e300, sit in the stop-test
        # band or read an asymmetric lower triangle
        assert_stack_same_bits(mats)


@pytest.mark.parametrize("m", [3, 4, 8, 16])
def test_stop_test_near_tolerance_needs_no_numpy_sum(monkeypatch, m):
    """math.fsum alone decides a stop within 1e-13 of the tolerance."""
    def no_sum(*args, **kwargs):
        raise AssertionError("np.sum called")

    monkeypatch.setattr(np, "sum", no_sum)
    mats = near_tolerance(m, rng(m), BAND_K)
    for M in mats:
        assert_same_bits(M)
    assert_stack_same_bits(mats)


def test_eigenvalues_break_a_signed_zero_tie_by_the_eigenvectors():
    # 0.0 and -0.0 tie; the eigenvectors put -0.0 first, not the index order
    M = np.diag([0.0, -0.0, 1.0])
    assert np.array_equal(np.signbit(linalg.eigenvalues(M)), [False, True, False])
    assert_same_bits(M)


@pytest.mark.parametrize("m", [3, 4, 8])
def test_stacks_with_exact_ties_match_the_per_matrix_path(m):
    """Lanes whose values tie exactly take the per-matrix finish: a repeated
    diagonal, +-0.0 pairs and the zero matrix, beside lanes without a tie."""
    gen = rng(m)
    Q = linalg.haar_orthogonal(m, gen)
    signed_zeros = np.zeros(m)
    signed_zeros[1::2] = -0.0
    mats = [np.diag(np.r_[[2.0, 2.0], np.arange(m - 2.0)]), random_sym(gen, m),
            np.diag(signed_zeros), np.diag(signed_zeros[::-1]), np.zeros((m, m)),
            np.diag(np.r_[[0.0, -0.0], np.arange(1.0, m - 1.0)]), np.eye(m),
            (Q * np.r_[[1.0, 1.0], np.arange(2.0, m)]) @ Q.T, random_sym(gen, m)]
    decs, vals = linalg._decompose_many(mats, True), linalg._decompose_many(mats, False)
    assert sum(len(set(lam.tolist())) < m for lam in vals) >= 6
    for M, dec, lam in zip(mats, decs, vals):
        want = linalg.spectral_decompose(M)
        assert_arrays_same_bits((dec.eigenvalues, want.eigenvalues),
                                (dec.eigenvectors, want.eigenvectors),
                                (lam, linalg.eigenvalues(M)))
    assert_stack_same_bits(mats)


@pytest.mark.parametrize("kind", ["nan", "asymmetric", "overflow", "sweep-cap"])
def test_stack_raises_the_per_matrix_error(monkeypatch, kind):
    """A rejected matrix beside good lanes makes either stack raise the error
    type and message ``spectral_decompose`` and ``eigenvalues`` raise on it
    alone, and ``decompose_each`` raise it once it reaches that matrix."""
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 2)
    gen = rng(5)
    good = [np.diag([3.0, 1.0, 2.0]),                      # stops at sweep 0
            np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]),
            near_tolerance(3, gen, (0.5,))[0],
            np.diag([1.0, 2.0, 3.0]) + 0.01 * (1.0 - np.eye(3))]  # stops at the cap, 2
    non_finite = np.eye(3)
    non_finite[2, 0] = non_finite[0, 2] = np.nan
    asymmetric = np.eye(3)
    asymmetric[2, 0] = 1e-6
    error, message, bad = {
        "nan": (ValueError, "matrix has non-finite entries", non_finite),
        "asymmetric": (ValueError, "matrix is not symmetric", asymmetric),
        "overflow": (ValueError, "matrix Frobenius norm overflows",
                     np.diag([1e200, 1.0, 1.0])),
        "sweep-cap": (linalg.JacobiConvergenceError, "did not converge after 2 sweeps",
                      random_sym(gen, 3)),                 # needs more sweeps
    }[kind]
    mats = [good[0], good[1], good[3], bad, good[2]]
    for vectors, kernel in ((True, linalg.spectral_decompose), (False, linalg.eigenvalues)):
        with pytest.raises(error, match=message) as single:
            kernel(bad)
        with pytest.raises(error) as stacked:
            linalg._decompose_many(mats, vectors)
        lanes = linalg.decompose_each(lambda M: M, mats, vectors)
        for M in mats[:3]:
            assert_outputs_same_bits(next(lanes), linalg.spectral_decompose(M), vectors)
        with pytest.raises(error) as reached:
            next(lanes)
        assert type(stacked.value) is type(reached.value) is type(single.value) is error
        assert str(stacked.value) == str(reached.value) == str(single.value)
        for M, out in zip(good, linalg._decompose_many(good, vectors)):
            assert_outputs_same_bits(out, linalg.spectral_decompose(M), vectors)


@pytest.mark.parametrize("m", [2, 3])
def test_decompose_each_builds_and_stacks_where_reached(monkeypatch, m):
    """Above 2x2 the first ``next`` builds every item and makes one stack; at
    2x2 an item is built when it is reached.  A build that raises makes the
    rest one at a time, so the error surfaces at its own item."""
    mats = [random_sym(rng(k), m) for k in range(5)]
    stacks, built = [], []
    stack = linalg._decompose_many
    monkeypatch.setattr(linalg, "_decompose_many",
                        lambda ms, vectors: stacks.append(len(ms)) or stack(ms, vectors))

    def build(k):
        built.append(k)
        if k == 3 and failing:
            raise ArithmeticError("no matrix at item 3")
        return mats[k]

    for failing in (False, True):
        built.clear()
        stacks.clear()
        lanes = linalg.decompose_each(build, range(5))
        assert built == []
        for k in range(3):
            assert_outputs_same_bits(next(lanes), linalg.spectral_decompose(mats[k]), True)
        assert (built, stacks) == {(2, False): ([0, 1, 2], []),
                                   (2, True): ([0, 1, 2], []),
                                   (3, False): ([0, 1, 2, 3, 4], [5]),
                                   (3, True): ([0, 1, 2, 3, 1, 2], [])}[m, failing]
        if failing:
            with pytest.raises(ArithmeticError, match="no matrix at item 3"):
                next(lanes)
        else:
            assert len(list(lanes)) == 2


def test_stack_kernel_has_no_product_or_reduction():
    # the stacked sweep and its numpy finish add no BLAS-dependent site:
    # elementwise numpy, comparisons, argmax and argsort only
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    banned = {"sum", "dot", "matmul", "einsum", "inner", "tensordot", "vdot", "prod",
              "mean", "cumsum", "linalg"}
    for name in ("_jacobi_many", "_decompose_many", "decompose_each"):
        body = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    and node.name == name)
        for node in ast.walk(body):
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            assert not (isinstance(node, ast.Attribute) and node.attr in banned), node.attr


finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@given(st.lists(finite, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_kernel_2x2_matches_reference_property(upper):
    a, b, c = upper
    assert_same_bits(np.array([[a, b], [b, c]]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@given(st.lists(finite, min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_kernel_3x3_matches_reference_property(upper):
    a, b, c, d, e, f = upper
    assert_same_bits(np.array([[a, b, c], [b, d, e], [c, e, f]]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@given(st.lists(st.lists(finite, min_size=6, max_size=6), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_stack_3x3_matches_reference_property(uppers):
    assert_stack_same_bits([np.array([[a, b, c], [b, d, e], [c, e, f]])
                            for a, b, c, d, e, f in uppers])


def assert_same_check(M):
    """check_symmetric's ValueError message, or the reference bits."""
    try:
        linalg.check_symmetric(M)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            linalg.spectral_decompose(M)
        assert str(info.value) == str(exc)
        return str(exc)
    assert_same_bits(np.asarray(M, dtype=float))
    return None


@st.composite
def general_2x2(draw):
    """Four floats, NaN and inf included: asymmetric, symmetric, or near."""
    a, b, c = draw(st.lists(st.floats(), min_size=3, max_size=3))
    kind = draw(st.sampled_from(["any", "symmetric", "near"]))
    if kind == "any":
        low = draw(st.floats())
    elif kind == "symmetric":
        low = b
    else:  # around check_symmetric's tolerance 1e-12 * (1 + max|a_ij|)
        low = b + draw(st.floats(-2.0, 2.0)) * 1e-12 * (
            1.0 + max(abs(a), abs(b), abs(c)))
    return np.array([[a, b], [low, c]])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(general_2x2())
@settings(max_examples=400, deadline=None)
def test_kernel_2x2_input_check_property(M):
    assert_same_check(M)


TOL_2 = 1e-12 * 2.0  # the asymmetry tolerance when max|a_ij| = 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("M,error", [
    ([[1.0, 0.5], [np.nan, 1.0]], "matrix has non-finite entries"),
    ([[1.0, 0.5], [np.inf, 1.0]], "matrix has non-finite entries"),
    ([[1.0, 0.5], [-np.inf, 1.0]], "matrix has non-finite entries"),
    ([[1.0, 0.0], [TOL_2, 1.0]], None),
    ([[1.0, 0.0], [np.nextafter(TOL_2, 0.0), 1.0]], None),
    ([[1.0, 0.0], [np.nextafter(TOL_2, 1.0), 1.0]], "matrix is not symmetric"),
    ([[1.0, 0.0], [-np.nextafter(TOL_2, 1.0), 1.0]], "matrix is not symmetric"),
    ([[0.0, 1e308], [-1e308, 0.0]], "matrix is not symmetric"),
    ([[2, 1], [1, -3]], None),
    (np.array([[2, 1], [1, -3]]), None),
    ([[0.5, 1e-3], [1e-3, 0.25]], None),
], ids=["nan-low", "inf-low", "-inf-low", "at-tol", "ulp-below-tol",
        "ulp-above-tol", "ulp-above-tol-neg", "difference-overflows",
        "int-list", "int-array", "float-list"])
def test_kernel_2x2_input_check_edges(M, error):
    assert assert_same_check(M) == error


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_rejects_non_finite(bad, m):
    M = np.eye(m)
    M[m - 1, 0] = M[0, m - 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.spectral_decompose(M)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_kernel_rejects_overflowing_norm():
    # 1 + ||M||_F is inf, so without the check the convergence test passes
    # at once and the eigenvalues come back as [0, 0]
    with pytest.raises(ValueError, match="norm overflows"):
        linalg.spectral_decompose(np.array([[0.0, 1e200], [1e200, 0.0]]))


def test_norm_of_huge_entries_is_finite_but_rejected():
    # the true norm 8.84e307 is finite; the Jacobi squares are not
    M = np.diag([6.25e307, 6.25e307])
    assert linalg.frob(M) == math.sqrt(2.0) * 6.25e307
    with pytest.raises(ValueError, match="norm overflows"):
        linalg.spectral_decompose(M)


# ---------------------------------------------------------------------------
# frob and inner on floats


def correctly_rounded_norm(values):
    """sqrt of the exact sum of squares, rounded once to the nearest float."""
    total = sum(Fraction(v) ** 2 for v in values)
    if total == 0:
        return 0.0
    # scale so the integer root has at least 54 bits; a sticky half-unit
    # then stands for an inexact root without moving the rounding
    k = (120 - total.numerator.bit_length() + total.denominator.bit_length()) // 2
    scaled = total * Fraction(4) ** k
    root = math.isqrt(scaled.numerator // scaled.denominator)
    inexact = root * root != scaled
    try:
        return float(Fraction(2 * root + inexact) / Fraction(2) ** (k + 1))
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("shape", [(1,), (3,), (8,), (2, 2), (3, 3), (16, 16)])
def test_frob_within_an_ulp_of_exact(shape):
    # math.hypot promises an error below one ulp, not correct rounding
    gen = rng(len(shape) * 100 + shape[0])
    for _ in range(200):
        M = gen.choice([-1.0, 1.0], size=shape) * 10.0 ** gen.uniform(-300, 300, size=shape)
        if gen.random() < 0.5:  # entries of one magnitude, where sums round most
            M = gen.normal(size=shape) * 10.0 ** gen.integers(-300, 300)
        want = correctly_rounded_norm(M.ravel().tolist())
        assert abs(linalg.frob(M) - want) <= math.ulp(want)


def test_correctly_rounded_norm_reference():
    assert correctly_rounded_norm([3.0, 4.0]) == 5.0
    assert correctly_rounded_norm([1.0, 1.0]) == math.sqrt(2.0)
    assert correctly_rounded_norm([1e308, 1e308]) == math.sqrt(2.0) * 1e308
    assert correctly_rounded_norm([1.7e308, 1.7e308]) == math.inf
    assert correctly_rounded_norm([5e-324]) == 5e-324


def float_bits(x):
    return struct.pack("<d", x)


@st.composite
def float_pairs(draw):
    """Equal-shaped 1x1 or 2x2 arrays, signed zeros, infinities and NaN included."""
    k = draw(st.sampled_from([1, 2]))
    entry = st.one_of(st.floats(), st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -5e-324]))
    M, N = (np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
            for _ in range(2))
    return M, N


@given(float_pairs())
@settings(max_examples=500, deadline=None)
def test_inner_on_floats_matches_numpy_bits(pair):
    M, N = pair
    with np.errstate(all="ignore"):
        want = float(np.sum(M * N))
    got = linalg.inner(M, N)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert float_bits(got) == float_bits(want)


@pytest.mark.parametrize("k", [1, 2])
def test_inner_on_floats_matches_numpy_bits_on_random_pairs(k):
    # rounding in a sum of four normal products shows a changed order
    gen = rng(k)
    for _ in range(5000):
        M, N = gen.normal(size=(2, k, k)) * 10.0 ** gen.integers(-5, 6, size=(2, 1, 1))
        assert float_bits(linalg.inner(M, N)) == float_bits(float(np.sum(M * N)))


@given(st.lists(finite, min_size=3, max_size=3))
@settings(max_examples=400, deadline=None)
def test_psd_part_2x2_on_floats(upper):
    a, b, c = upper
    M = np.array([[a, b], [b, c]])
    nrm = linalg.frob(M)
    assume(not math.isinf(nrm * nrm))
    dec = linalg.spectral_decompose(M)
    U, lam = dec.eigenvectors, dec.eigenvalues
    P = linalg._psd_part(U, lam)
    assert P.shape == (2, 2) and P[0, 1] == P[1, 0]
    assert P[0, 0] >= 0.0 and P[1, 1] >= 0.0
    low = linalg.spectral_decompose(P).eigenvalues[-1]
    assert low >= -linalg.EPS_PSD_FACTOR * (1.0 + linalg.frob(P))
    numpy_product = linalg.sym_part((U * np.maximum(lam, 0.0)) @ U.T)
    assert np.abs(P - numpy_product).max() <= 1e-15 * (1.0 + nrm)


# ---------------------------------------------------------------------------
# proj_psd / moreau_split


def test_proj_diagonal_clips():
    assert np.allclose(linalg.proj_psd(np.diag([3.0, -2.0])), np.diag([3.0, 0.0]))


def test_proj_fixed_on_cone():
    gen = rng(11)
    A = gen.normal(size=(3, 3))
    M = A @ A.T
    assert linalg.frob(linalg.proj_psd(M) - M) <= 1e-9 * (1.0 + linalg.frob(M))


def test_proj_offdiag_pair():
    P = linalg.proj_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_moreau_diagonal():
    plus, minus = linalg.moreau_split(np.diag([3.0, -2.0]))
    assert np.allclose(plus, np.diag([3.0, 0.0]))
    assert np.allclose(minus, np.diag([0.0, 2.0]))


def test_moreau_offdiag_rank_one_parts():
    plus, minus = linalg.moreau_split(np.array([[0.0, 1.0], [1.0, 0.0]]))
    v_plus = np.array([RT2, RT2])
    v_minus = np.array([RT2, -RT2])
    assert np.allclose(plus, np.outer(v_plus, v_plus), atol=1e-12)
    assert np.allclose(minus, np.outer(v_minus, v_minus), atol=1e-12)


@given(st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_moreau_identity_property(m, seed):
    M = random_sym(rng(seed), m, scale=2.0)
    plus, minus = linalg.moreau_split(M)
    tol = 1e-9 * (1.0 + linalg.frob(M))
    assert linalg.frob(M - (plus - minus)) <= tol
    assert abs(np.tensordot(plus, minus)) <= tol
    assert np.min(np.linalg.eigvalsh(plus)) >= -tol
    assert np.min(np.linalg.eigvalsh(minus)) >= -tol


def reference_psd_part(U, lam):
    """The 2x2 PSD reconstruction that ``proj_psd`` and ``moreau_split`` ran
    on a ``spectral_decompose`` before they read ``_decompose_2x2``'s floats."""
    (u00, u01), (u10, u11) = U.tolist()
    l0, l1 = lam.tolist()
    w0 = l0 if l0 > 0.0 else 0.0
    w1 = l1 if l1 > 0.0 else 0.0
    a, b, c, d = u00 * w0, u01 * w1, u10 * w0, u11 * w1
    off = 0.5 * ((a * u10 + b * u11) + (c * u00 + d * u01))
    return np.array([[a * u00 + b * u01, off], [off, c * u10 + d * u11]])


def fused_2x2_inputs():
    """Diagonal (no rotation), signed zeros, exact ties and rotated inputs
    at scales from 1e-300 to 1e150."""
    gen = rng(41)
    out = [np.zeros((2, 2)), -np.zeros((2, 2)), np.eye(2), -np.eye(2),
           np.diag([0.0, -0.0]), np.diag([-0.0, 0.0]), np.diag([3.0, -2.0]),
           np.diag([-2.0, 3.0]), np.array([[0.0, 1.0], [1.0, 0.0]]),
           np.array([[1.0, -0.0], [-0.0, 1.0]]), np.array([[-0.0, 1.0], [1.0, -0.0]])]
    for scale in 10.0 ** np.arange(-300, 151, 15):
        a, b, c = gen.normal(size=3)
        out += [np.array([[a, b], [b, c]]) * scale, np.diag([a, c]) * scale,
                np.diag([a, a]) * scale, np.array([[a, b], [b, a]]) * scale,
                np.array([[a, b], [b, -a]]) * scale]
        E = gen.choice(EDGE_VALUES, size=3)
        out.append(np.array([[E[0], E[1]], [E[1], E[2]]]))
    return out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_fused_2x2_entries_match_the_decompose_composition():
    for M in fused_2x2_inputs():
        nrm = linalg.frob(M)
        if math.isinf(nrm * nrm):
            continue
        lam, U = reference_decompose(M)
        plus, minus = linalg.moreau_split(M)
        assert_arrays_same_bits((linalg.eigenvalues(M), lam),
                                (linalg.proj_psd(M), reference_psd_part(U, lam)),
                                (plus, reference_psd_part(U, lam)),
                                (minus, reference_psd_part(U, -lam)),
                                (linalg._psd_part(U, lam), reference_psd_part(U, lam)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("M", [
    [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, 0.5], [-np.inf, 1.0]], [[1.0, 0.0], [1e-6, 1.0]],
    [[0.0, 1e200], [1e200, 0.0]], [[6.25e307, 0.0], [0.0, 6.25e307]],
], ids=["nan", "inf", "-inf-low", "asymmetric", "overflow", "huge-diagonal"])
def test_fused_2x2_entries_raise_the_decompose_error(M):
    with pytest.raises(ValueError) as want:
        linalg.spectral_decompose(M)
    for entry in (linalg.eigenvalues, linalg.proj_psd, linalg.moreau_split):
        with pytest.raises(ValueError) as got:
            entry(M)
        assert str(got.value) == str(want.value)


@given(st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_proj_nonexpansive(m, seed):
    gen = rng(seed)
    A, B = random_sym(gen, m), random_sym(gen, m)
    lhs = linalg.frob(linalg.proj_psd(A) - linalg.proj_psd(B))
    assert lhs <= linalg.frob(A - B) + 1e-9


def test_proj_in_distance_against_random_psd():
    gen = rng(23)
    for _ in range(30):
        m = int(gen.integers(1, 6))
        M = random_sym(gen, m, scale=2.0)
        P = linalg.proj_psd(M)
        d0 = linalg.frob(M - P)
        for _ in range(50):
            A = gen.normal(size=(m, m))
            assert d0 <= linalg.frob(M - A @ A.T) + 1e-9


# ---------------------------------------------------------------------------
# SpectralDecomp.kernel_basis


def kernel_basis(M, r):
    return linalg.spectral_decompose(M).kernel_basis(r)


def test_basis_diagonal_spans_small_eigenvectors():
    E = kernel_basis(np.diag([2.0, 0.0, 0.0]), 1)
    assert E.shape == (3, 2)
    assert linalg.frob(E.T @ E - np.eye(2)) <= 3e-10
    # span of e2, e3: the first coordinate row must vanish
    assert np.max(np.abs(E[0, :])) <= 1e-12


def test_basis_zero_matrix_full_orthogonal():
    E = kernel_basis(np.zeros((2, 2)), 0)
    assert E.shape == (2, 2)
    assert linalg.frob(E.T @ E - np.eye(2)) <= 2e-10


def test_basis_full_rank_is_empty():
    assert kernel_basis(np.eye(2), 2).shape == (2, 0)


def test_basis_columns_are_eigenvectors_ascending():
    M = np.diag([5.0, 1.0, 3.0])
    E = kernel_basis(M, 1)
    # smallest eigenvalue leads: first column pairs with 1, second with 3
    assert np.allclose(M @ E[:, 0], 1.0 * E[:, 0], atol=1e-9)
    assert np.allclose(M @ E[:, 1], 3.0 * E[:, 1], atol=1e-9)


# ---------------------------------------------------------------------------
# numerical_rank / dependence predicates


def test_rank_tiny_tail():
    assert linalg.numerical_rank(np.array([3.0, 2e-12, 0.0]), 3.0) == 1


def test_rank_full():
    assert linalg.numerical_rank(np.array([1.0, 1.0, 1.0]), 1.0) == 3


def test_rank_zero_matrix():
    assert linalg.numerical_rank(np.zeros(2), 1.0) == 0


def reference_numerical_rank(values, scale):
    """The numpy rule ``numerical_rank`` had before it moved to Python floats."""
    values = np.asarray(values, dtype=float)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if values.size > 1 and np.any(np.diff(values) > 1e-12 * (1.0 + scale)):
        raise ValueError("values must be sorted non-increasingly")
    return int(np.sum(values > linalg.EPS_RANK * scale))


RANK_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf,
                 math.nan, 1e-7, 1.0, 3.0]
rank_value = st.one_of(st.sampled_from(RANK_SPECIALS), st.floats())


@st.composite
def rank_inputs(draw):
    """0-6 values, mostly descending, with adjacent pairs that rise by a
    fraction or a multiple of the 1e-12 band, or one value as a 0-d array,
    and a scale."""
    scale = draw(st.one_of(st.sampled_from([1.0, 3.0, 1e-300, 0.0, -0.0, -1.0, math.inf,
                                            math.nan]), st.floats(min_value=0.0)))
    values = sorted(draw(st.lists(rank_value, max_size=6)), reverse=True)
    band = 1e-12 * (1.0 + scale)
    for i in range(1, len(values)):
        rise = draw(st.sampled_from([None, 0.0, 0.5, 1.0, 1.5, 4.0, "any"]))
        if rise == "any":
            values[i] = draw(rank_value)
        elif rise is not None and math.isfinite(values[i - 1] + band):
            values[i] = values[i - 1] + rise * band
    if len(values) == 1 and draw(st.booleans()):
        return values[0], scale
    return values, scale


def rank_outcome(rule, values, scale):
    try:
        return rule(np.array(values, dtype=float), scale)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@given(rank_inputs())
@settings(max_examples=400, deadline=None)
def test_numerical_rank_matches_numpy_rule(case):
    values, scale = case
    got = rank_outcome(linalg.numerical_rank, values, scale)
    assert got == rank_outcome(reference_numerical_rank, values, scale)
    assert type(got) in (int, tuple)


def test_lin_dependent_examples():
    assert not linalg.lin_dependent([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert linalg.lin_dependent([np.array([2.0, 0.0]), np.array([2.0, 0.0])])
    assert linalg.lin_dependent(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])])
    assert linalg.lin_dependent([np.zeros(2), np.zeros(2)])
    # a lone tiny vector is independent of itself, dependent at scale 1
    assert not linalg.lin_dependent([np.array([1e-16, 0.0])])
    assert linalg.lin_dependent([np.array([1e-16, 0.0])], 1.0)


def test_pos_lin_dependent_examples():
    assert linalg.pos_lin_dependent([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    assert not linalg.pos_lin_dependent([np.array([2.0, 0.0]), np.array([2.0, 0.0])])
    assert linalg.pos_lin_dependent([np.array([1.0]), np.array([-1.0])])


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_dependence_matches_exact_rank(seed):
    gen = rng(seed)
    d = int(gen.integers(1, 5))
    count = int(gen.integers(1, 5))
    vectors = [gen.integers(-3, 4, size=d).astype(float) for _ in range(count)]
    exact = selftest._fraction_rank(vectors) < count
    assert linalg.lin_dependent(vectors) == exact


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_pos_dependence_matches_exact_cone(seed):
    gen = rng(seed)
    d = int(gen.integers(1, 4))
    count = int(gen.integers(1, 4))
    vectors = [gen.integers(-3, 4, size=d).astype(float) for _ in range(count)]
    assert linalg.pos_lin_dependent(vectors) == selftest._exact_pos_dep(vectors)


# ---------------------------------------------------------------------------
# sampling helpers


def test_haar_deterministic_and_orthogonal():
    A = linalg.haar_orthogonal(4, rng(5))
    B = linalg.haar_orthogonal(4, rng(5))
    assert np.array_equal(A, B)
    assert linalg.frob(A.T @ A - np.eye(4)) <= 1e-10


def reference_haar(k, gen):
    """The QR-and-sign-fix formula ``haar_orthogonal`` had of its own."""
    if k == 0:
        return np.zeros((0, 0))
    Q, R = np.linalg.qr(gen.standard_normal((k, k)))
    d = np.sign(np.diag(R))
    d[d == 0.0] = 1.0
    return Q * d


@pytest.mark.parametrize("k", range(5))
def test_haar_matches_reference_formula(k):
    got, want = rng(13), rng(13)
    for _ in range(3):
        A, B = linalg.haar_orthogonal(k, got), reference_haar(k, want)
        assert A.shape == B.shape == (k, k)
        assert np.array_equal(A, B)
    # the draws leave the generator in the same state, k = 0 included
    assert got.bit_generator.state == want.bit_generator.state


def test_orthonormal_columns_preserves_span():
    gen = rng(9)
    B = gen.normal(size=(4, 2))
    Q = linalg.orthonormal_columns(B)
    assert linalg.frob(Q.T @ Q - np.eye(2)) <= 1e-10
    # same span: projecting B onto Q's column space reproduces B
    assert linalg.frob(Q @ (Q.T @ B) - B) <= 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
def test_orthonormal_columns_stack_matches_each_matrix(m):
    gen = rng(21)
    for q in sorted({1, 2, m}):
        B = gen.standard_normal((40, m, q))
        B[0, :, 0] = 0.0  # a zero column: R's zero diagonal entry keeps sign +
        Q = linalg.orthonormal_columns(B)
        assert Q.shape == B.shape
        assert all(np.array_equal(Q[k], linalg.orthonormal_columns(B[k]))
                   for k in range(len(B)))


@pytest.mark.parametrize("k", range(5))
def test_haar_stack_is_the_sequence_of_draws(k):
    got, want = rng(17), rng(17)
    stack = linalg.haar_orthogonal(k, got, 6)
    assert stack.shape == (6, k, k)
    assert all(np.array_equal(H, reference_haar(k, want)) for H in stack)
    assert got.bit_generator.state == want.bit_generator.state


def dependence_families(p, n=3):
    """Random and edge (p, n) families: (v, -v), zero vectors, and then
    families whose smallest singular value is a few ulps either side of
    EPS_RANK * scale for scale 1 and 3.7: diagonal, rotated, and (p >= 2)
    coupled by 1e-12, inside the band where the 2x2 rotation decides,
    with the small vector last and first."""
    gen = rng(30 + p)
    fams = [gen.standard_normal((p, n)) for _ in range(20)]
    fams += [gen.standard_normal((p, n)) * 10.0 ** float(gen.integers(-12, 5))
             for _ in range(20)]
    fams.append(np.zeros((p, n)))
    for _ in range(3):
        F = gen.standard_normal((p, n))
        F[-1] = 0.0
        fams.append(F)
        if p >= 2:
            F = gen.standard_normal((p, n))
            F[1] = -F[0]
            fams.append(F)
    for scale in (1.0, 3.7):
        c = linalg.EPS_RANK * scale
        for ulps in range(-4, 5):
            s_min = c + ulps * math.ulp(c)
            D = np.eye(p, n)
            D[-1, p - 1] = s_min
            fams.append(D)  # the Gram matrix is diagonal: no rotation
            fams.append(D @ linalg.haar_orthogonal(n, gen))  # a rotated copy
            if p >= 2:
                D = D.copy()
                D[-1, 0] = 1e-12
                fams += [D, D[::-1]]  # the small vector last, then first
    return np.array(fams)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lin_dependent_many_matches_each_family(p):
    fams = dependence_families(p)
    near = 2 * 9 * (2 if p == 1 else 4)
    for scale in (1.0, 3.7):
        got = linalg.lin_dependent_many(fams, scale)
        want = [linalg.lin_dependent(list(F), scale) for F in fams]
        assert got.tolist() == want
        assert len(set(want[-near:])) == 2  # the near-threshold families split


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e153])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lin_dependent_many_raises_the_family_error(p, bad):
    # 1e153 leaves the Gram matrix finite; its norm check rejects it at p >= 2
    fams = rng(5).standard_normal((4, p, 3))
    fams[2, 0, 1] = bad

    def outcome(run):
        try:
            return run()
        except Exception as exc:
            return type(exc), str(exc)

    want = outcome(lambda: [linalg.lin_dependent(list(F), 1.0) for F in fams])
    assert isinstance(want, tuple) == (p > 1 or bad != 1e153)
    assert outcome(lambda: linalg.lin_dependent_many(fams, 1.0).tolist()) == want


def test_align_columns_fixes_signs():
    E = np.eye(3)
    flipped = E * np.array([1.0, -1.0, -1.0])
    aligned = linalg.align_columns(E, flipped)
    assert np.allclose(aligned, E)


def test_check_symmetric_rejects():
    with pytest.raises(ValueError):
        linalg.check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# one home for numpy's linear algebra


def test_numpy_linalg_is_named_only_in_linalg():
    # every norm, rank and decomposition behind a verdict goes through
    # nsdpkit.linalg; elsewhere only numpy's LinAlgError may be named
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                parent = parents[node]
                assert isinstance(parent, ast.Attribute) \
                    and parent.attr == "LinAlgError", where
            if isinstance(node, ast.Import):
                assert all(not a.name.startswith("numpy.linalg")
                           for a in node.names), where
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                assert not (node.module or "").startswith("numpy.linalg"), where
                assert node.module != "numpy" or all(
                    a.name != "linalg" for a in node.names), where


def test_transposed_products_only_in_named_helpers():
    # the PSD reconstruction, the Gram product and the basis alignment are
    # the only matrix products with a transposed operand (.T, or swapaxes
    # on a stack), so a portable rewrite of each changes one function body
    allowed = {"_psd_part", "gram_matrices", "align_columns"}
    root = Path(linalg.__file__).parent

    def transposed(side):
        return (isinstance(side, ast.Attribute) and side.attr == "T"
                or isinstance(side, ast.Call)
                and getattr(side.func, "attr", None) == "swapaxes")

    for name in ("linalg.py", "caratheodory.py", "kkt.py"):
        tree = ast.parse((root / name).read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                sides = (node.left, node.right)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matmul":
                sides = node.args
            else:
                continue
            if not any(transposed(side) for side in sides):
                continue
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            assert getattr(scope, "name", None) in allowed, f"{name}:{node.lineno}"


def test_verdict_path_runs_without_numpy_norm(monkeypatch, tmp_path):
    # every norm is linalg.frob on floats, so of numpy's linear algebra
    # only LAPACK QR is left on the way to a verdict
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    fix = fixtures.default_registry().get("ex-3.1")
    trace = solvers.solve_augmented_lagrangian(fix.problem, fix.x0)
    assert len(trace) > 1 and math.isfinite(trace.final.residual.max_entry)
    est = cq.estimate_msr_modulus(fix.problem, fix.x_bar, radius=0.1,
                                  samples=4, seed=0)
    assert est.n_failed == 0 and est.ratios
    assert cli.main(["diagnose", "--fixture", "ex-3.1",
                     "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert not calls
