"""Symmetric-matrix kernels used throughout the package.

Everything here operates on dense symmetric matrices at desk scale
(dimension up to a few dozen).  The eigensolver is a cyclic Jacobi
iteration rather than a LAPACK call: Jacobi is more accurate than QR
for small eigenvalues (Demmel & Veselic 1992), its fixed rotation
order makes equal inputs give equal bits, and the off-diagonal residual
is available as an explicit diagnostic.  Eigenvalues are always
reported in non-increasing order; ties are broken by a lexicographic
comparison of the sign-canonicalized eigenvectors so that equal inputs
produce identical output arrays.

The kernel has two paths.  A 2x2 matrix stays on Python floats, input
check, sign rule and ordering included, around the one rotation that
``_jacobi_2x2`` replays; larger matrices run ``_jacobi`` on nested lists
of Python floats.  Both do the IEEE operations of the numpy-scalar loop
they replaced, in the same order, and return its bits;
``tests/test_linalg.py`` keeps that loop as the reference and compares
with ``np.array_equal``.  The bits depend on numpy (the Frobenius norm,
which the 2x2 path reads too, goes through BLAS), so they are
reproducible on one platform with one numpy, not across platforms.
Each sweep's stop test compares the off-diagonal norm with its
tolerance.  A correctly rounded ``math.fsum`` of the squares decides it;
numpy's pairwise sum, which the reference loop uses, decides only where
the float norm lies within a relative 1e-12 of the tolerance, a band far
wider than the two sums ever differ, so every stop, and so every bit,
is the one the numpy sum alone gives.  Non-finite input, and input whose
Frobenius norm overflows, is rejected with ValueError.  The other BLAS
steps, the PSD reconstruction and the Gram product, have one site each:
``_psd_part`` and ``gram_decompose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances: constants, not parameters, since verdicts, their replays and
# the behaviour lock read them.  Scale-dependent ones are documented at use.
EPS_ORTH_FACTOR = 1e-10     # orthogonality: eps * m
EPS_PSD_FACTOR = 1e-9       # cone membership: eps * (1 + ||M||_F)
EPS_RANK = 1e-7             # relative rank threshold
EPS_PLD = 1e-8              # positive-linear-dependence residual
EPS_SYM = 1e-12             # symmetry: eps * (1 + max |M_ij|)

_JACOBI_MAX_SWEEPS = 100
_SIGN_TINY = 1e-300


class JacobiConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep cap is hit before convergence.

    Carries the remaining off-diagonal Frobenius norm so callers can
    report how far from diagonal the iteration stalled.
    """

    def __init__(self, offdiag_residual: float, sweeps: int):
        self.offdiag_residual = float(offdiag_residual)
        self.sweeps = int(sweeps)
        super().__init__(
            f"Jacobi iteration did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {offdiag_residual:.3e})"
        )


def sym_part(M: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def check_symmetric(M: np.ndarray) -> np.ndarray:
    """Return M as a float array; ValueError if not finite and symmetric."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = 1.0 + float(np.abs(M).max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if float(np.abs(M - M.T).max(initial=0.0)) > EPS_SYM * scale:
        raise ValueError("matrix is not symmetric")
    return M


def frob(M: np.ndarray) -> float:
    """Frobenius norm of a matrix, Euclidean norm of a vector."""
    return float(np.linalg.norm(np.asarray(M, dtype=float)))


def inner(M: np.ndarray, N: np.ndarray) -> float:
    """Trace inner product of two symmetric matrices."""
    return float(np.sum(np.asarray(M, dtype=float) * np.asarray(N, dtype=float)))


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues (non-increasing) and matching orthonormal eigenvectors.

    Arrays are not copied on access; treat instances as immutable.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def m(self) -> int:
        return self.eigenvalues.shape[0]

    def psd_rank(self) -> int:
        """Numerical rank of the (nearly) PSD matrix decomposed."""
        lam = self.eigenvalues
        scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
        return numerical_rank(np.maximum(lam, 0.0), scale)

    def kernel_basis(self, r: int) -> np.ndarray:
        """Eigenvectors of the m - r smallest eigenvalues, smallest first.

        The column order matches how synthetic shifts assign eigenvalues
        (r+1)s, ..., ms to columns 1..m-r.  r == m yields an empty basis,
        the legitimate full-rank outcome rather than an error.
        """
        if not 0 <= r <= self.m:
            raise ValueError(f"rank split r={r} out of range for m={self.m}")
        return self.eigenvectors[:, r:][:, ::-1].copy()


def _jacobi(M: np.ndarray):
    """Cyclic Jacobi iteration on lists of Python floats.

    Returns (diagonal values, rotation columns) as lists.  Rotations run
    row by row in a fixed (p, q) order.  The matrix is held by columns,
    ``C[j][i] = A[i][j]``, so a rotation maps whole columns.  The
    per-sweep stop test is ``_off_converged``.
    """
    A = np.array(M, dtype=float)
    m = A.shape[0]
    C = A.T.tolist()
    V = np.eye(m).tolist()  # V[j] is column j of the rotation matrix
    if m <= 1:
        return [col[j] for j, col in enumerate(C)], V
    scale = 1.0 + frob(A)
    if math.isinf(scale):  # the convergence test would pass at once
        raise ValueError("matrix Frobenius norm overflows")
    off_tol = 1e-14 * scale
    skip_tol = 1e-18 * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _off_converged(C, off_tol):
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                Cp, Cq = C[p], C[q]
                apq = Cq[p]
                if not abs(apq) > skip_tol:  # a NaN scale skips them all
                    continue
                # 2x2 rotation zeroing A[p][q]; the smaller-angle root is
                # chosen for stability.
                theta = (Cq[q] - Cp[p]) / (2.0 * apq)
                t = -1.0 if theta < 0.0 else 1.0
                t = t / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # Columns p and q rotate; entries p and q of each are then
                # overwritten, and rows p and q mirror the new columns.
                # Each entry sees the same operations as a scalar loop.
                Np = [c * a - s * b for a, b in zip(Cp, Cq)]
                Nq = [s * a + c * b for a, b in zip(Cp, Cq)]
                Np[p] = Cp[p] - t * apq
                Nq[q] = Cq[q] + t * apq
                Np[q] = Nq[p] = 0.0
                C[p], C[q] = Np, Nq
                for Ci, x, y in zip(C, Np, Nq):
                    Ci[p] = x
                    Ci[q] = y
                Vp, Vq = V[p], V[q]
                V[p] = [c * a - s * b for a, b in zip(Vp, Vq)]
                V[q] = [s * a + c * b for a, b in zip(Vp, Vq)]
    else:
        if not _off_converged(C, off_tol):
            # With a NaN entry the test fails whatever the off-diagonal
            # holds; report the residual as NaN, not as that norm.
            residual = _off_norm(C) if np.isfinite(C).all() else float("nan")
            raise JacobiConvergenceError(residual, _JACOBI_MAX_SWEEPS)
    return [col[j] for j, col in enumerate(C)], V


def _off_norm(C: list) -> float:
    """Off-diagonal norm sqrt(2 * sum of squared upper entries), by numpy.

    ``C`` holds the matrix by columns.  The sum is numpy's pairwise
    summation, as in the reference loop the kernel's bits follow.
    """
    A = np.array(C).T
    return np.sqrt(max(np.sum(np.triu(A, 1) ** 2) * 2.0, 0.0))


def _off_converged(C: list, off_tol: float) -> bool:
    """``_off_norm(C) <= off_tol``, decided on floats outside a band.

    A correctly rounded ``math.fsum`` of the same squares is within a few
    dozen ulps of numpy's pairwise sum at any desk-scale m, so outside
    off_tol * (1 +- 1e-12) both decide alike; inside that band, on NaN
    or on an overflowing sum, numpy's norm decides.
    """
    try:
        off = math.sqrt(2.0 * math.fsum([x * x for j, col in enumerate(C)
                                         for x in col[:j]]))
    except OverflowError:
        off = math.nan
    if off < off_tol * (1.0 - 1e-12):
        return True
    if off > off_tol * (1.0 + 1e-12):
        return False
    return bool(_off_norm(C) <= off_tol)


def _jacobi_2x2(M: np.ndarray):
    """``_jacobi`` of a 2x2 matrix: its single rotation, on floats.

    Same tests and expressions as the cyclic loop.  The off-diagonal norm
    of a 2x2 sums one square, so it needs no numpy reduction; passing the
    off test implies |a01| > 1e-18 * scale, so the rotation is never
    skipped, and it zeroes a01, so the next sweep's test passes.
    """
    (a00, a01), (_, a11) = M.tolist()
    scale = 1.0 + frob(M)
    if math.isinf(scale):
        raise ValueError("matrix Frobenius norm overflows")
    if math.sqrt(a01 * a01 * 2.0) <= 1e-14 * scale:
        return [a00, a11], [[1.0, 0.0], [0.0, 1.0]]
    theta = (a11 - a00) / (2.0 * a01)
    t = -1.0 if theta < 0.0 else 1.0
    t = t / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    # the rotation applied to the identity's columns (1, 0) and (0, 1)
    return ([a00 - t * a01, a11 + t * a01],
            [[c * 1.0 - s * 0.0, c * 0.0 - s * 1.0],
             [s * 1.0 + c * 0.0, s * 0.0 + c * 1.0]])


def _canonical_sign(col: list) -> list:
    """Flip a vector so its first largest-magnitude entry is positive."""
    if max(col, key=abs) < -_SIGN_TINY:
        return [-v for v in col]
    return col


def _decompose_2x2(M: np.ndarray) -> SpectralDecomp:
    """``spectral_decompose``'s steps on the floats of a 2x2: same bits."""
    (a00, a01), (a10, a11) = M.tolist()
    # entry by entry: Python's max, unlike numpy's, skips over a NaN
    if not (math.isfinite(a00) and math.isfinite(a01) and math.isfinite(a10)
            and math.isfinite(a11)):
        raise ValueError("matrix has non-finite entries")
    if abs(a01 - a10) > EPS_SYM * (1.0 + max(abs(a00), abs(a01), abs(a10), abs(a11))):
        raise ValueError("matrix is not symmetric")
    (v0, v1), ((x0, y0), (x1, y1)) = _jacobi_2x2(M)
    if (y0 if abs(y0) > abs(x0) else x0) < -_SIGN_TINY:
        x0, y0 = -x0, -y0
    if (y1 if abs(y1) > abs(x1) else x1) < -_SIGN_TINY:
        x1, y1 = -x1, -y1
    if (-v1, [x1, y1]) < (-v0, [x0, y0]):
        v0, x0, y0, v1, x1, y1 = v1, x1, y1, v0, x0, y0
    return SpectralDecomp(eigenvalues=np.array([v0, v1]),
                          eigenvectors=np.array([[x0, x1], [y0, y1]]))


def spectral_decompose(M: np.ndarray) -> SpectralDecomp:
    """Spectral decomposition with eigenvalues sorted non-increasingly.

    Deterministic: a fixed sweep order and a lexicographic tie-break on
    the sign-canonicalized eigenvectors make repeated calls on equal
    inputs return identical arrays.
    """
    M = np.asarray(M, dtype=float)
    if M.shape == (2, 2):
        return _decompose_2x2(M)
    M = check_symmetric(M)
    vals, V = _jacobi(M)
    cols = [_canonical_sign(col) for col in V]
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], cols[i]))
    lam = np.array([vals[i] for i in order])
    U = np.array([cols[i] for i in order]).T.copy() if order else np.eye(0)
    return SpectralDecomp(eigenvalues=lam, eigenvectors=U)


def _psd_part(U: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The PSD matrix sym_part(U diag(max(lam, 0)) U'): the one reconstruction."""
    return sym_part((U * np.maximum(lam, 0.0)) @ U.T)


def proj_psd(M: np.ndarray) -> np.ndarray:
    """Frobenius projection onto the positive semidefinite cone."""
    dec = spectral_decompose(M)
    return _psd_part(dec.eigenvectors, dec.eigenvalues)


def moreau_split(M: np.ndarray):
    """Split M into its PSD part and the PSD part of -M.

    Returns (plus, minus) with plus = proj_psd(M), minus = proj_psd(-M),
    M = plus - minus and <plus, minus> = 0 up to reconstruction error.
    Both pieces come from a single decomposition so the identities hold
    to machine precision.
    """
    dec = spectral_decompose(M)
    U = dec.eigenvectors
    return _psd_part(U, dec.eigenvalues), _psd_part(U, -dec.eigenvalues)


def aligned_kernel_bases(decs, r: int) -> list:
    """Kernel basis of each decomposition, aligned to the one before.

    The eigenbasis chain followed along a sequence x_k -> x_bar; each
    basis after the first is matched to its predecessor by ``align_columns``.
    """
    chain = []
    for dec in decs:
        E = dec.kernel_basis(r)
        chain.append(align_columns(chain[-1], E) if chain else E)
    return chain


def numerical_rank(values: np.ndarray, scale: float) -> int:
    """Count entries strictly above EPS_RANK * scale.

    ``values`` must be sorted non-increasingly; ``scale`` must be
    positive (pass the spectral norm or 1.0 for an absolute floor).
    """
    values = np.asarray(values, dtype=float)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if values.size > 1 and np.any(np.diff(values) > 1e-12 * (1.0 + scale)):
        raise ValueError("values must be sorted non-increasingly")
    return int(np.sum(values > EPS_RANK * scale))


def gram_decompose(vectors) -> SpectralDecomp:
    """Decomposition of the Gram matrix A'A of A = [z_1 ... z_p], p >= 1."""
    A = np.column_stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    return spectral_decompose(sym_part(A.T @ A))


def _singular_values(gram: SpectralDecomp) -> np.ndarray:
    return np.sqrt(np.maximum(gram.eigenvalues, 0.0))


def family_singular_values(vectors) -> np.ndarray:
    """Singular values of the matrix whose columns are the given vectors.

    Computed through the Gram matrix with the in-house eigensolver so the
    whole dependence pipeline shares one deterministic kernel.
    """
    vecs = list(vectors)
    return _singular_values(gram_decompose(vecs)) if vecs else np.zeros(0)


def lin_dependent(vectors, scale: float | None = None) -> bool:
    """True iff the family has numerical rank below its cardinality.

    Singular values at or below the constant EPS_RANK times ``scale``
    count as zero.  ``scale`` None measures against the family's largest
    singular value, so an all-zero family (a single zero vector included)
    is dependent.  That family-relative test declares a lone vector of
    norm 1e-16 independent, so the CQ checks pass the problem's
    derivative scale instead: premise detection at limit bases needs
    near-zero vectors of the problem's own scale to count as dependent.
    """
    vecs = list(vectors)
    return bool(vecs) and gram_dependent(gram_decompose(vecs), scale)


def gram_dependent(gram: SpectralDecomp, scale: float | None = None) -> bool:
    """``lin_dependent``'s rule on the family's ``gram_decompose``."""
    sig = _singular_values(gram)
    if scale is None:
        scale = float(sig.max(initial=0.0))
        if scale <= 0.0:
            return True
    return numerical_rank(sig, scale) < sig.size


def _phase1_simplex(A: np.ndarray, b: np.ndarray) -> float:
    """Minimal l1 infeasibility of {A x = b, x >= 0} via a phase-1 simplex.

    Dense tableau with Bland's rule, so termination is guaranteed.
    Returns the optimal artificial sum (0 means feasible).
    """
    rows, cols = A.shape
    A = A.copy()
    b = b.copy()
    for i in range(rows):
        if b[i] < 0.0:
            A[i, :] *= -1.0
            b[i] *= -1.0
    scale = 1.0 + float(np.abs(A).max(initial=0.0))
    tol = 1e-11 * scale
    # tableau columns: original vars, artificials, rhs
    T = np.zeros((rows, cols + rows + 1))
    T[:, :cols] = A
    T[:, cols:cols + rows] = np.eye(rows)
    T[:, -1] = b
    basis = list(range(cols, cols + rows))
    # phase-1 objective row: minimize the artificial sum
    obj = np.zeros(cols + rows + 1)
    obj[cols:cols + rows] = 1.0
    for bi, row in zip(basis, range(rows)):
        obj -= T[row, :]
    for _ in range(50000):
        entering = -1
        for j in range(cols + rows):
            if j in basis:
                continue
            if obj[j] < -tol:
                entering = j
                break  # Bland: smallest eligible index
        if entering < 0:
            break
        leaving_row = -1
        best_ratio = np.inf
        for i in range(rows):
            a = T[i, entering]
            if a > tol:
                ratio = T[i, -1] / a
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and (leaving_row < 0 or basis[i] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = i
        if leaving_row < 0:
            break  # unbounded direction cannot happen in phase 1
        piv = T[leaving_row, entering]
        T[leaving_row, :] /= piv
        for i in range(rows):
            if i != leaving_row and T[i, entering] != 0.0:
                T[i, :] -= T[i, entering] * T[leaving_row, :]
        obj -= obj[entering] * T[leaving_row, :]
        basis[leaving_row] = entering
    value = 0.0
    for bi, row in zip(basis, range(rows)):
        if bi >= cols:
            value += max(T[row, -1], 0.0)
    return float(value)


def pos_lin_dependent(vectors) -> bool:
    """True iff some nonzero nonnegative combination of the family vanishes.

    Feasibility of {sum_i a_i z_i = 0, a >= 0, sum_i a_i = 1} is decided
    with an exact phase-1 simplex; the family is positively dependent
    when the minimal infeasibility is at most EPS_PLD.
    """
    vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    p = len(vecs)
    if p == 0:
        return False
    n = vecs[0].shape[0]
    A = np.zeros((n + 1, p))
    for j, v in enumerate(vecs):
        if v.shape[0] != n:
            raise ValueError("vectors must share a common dimension")
        A[:n, j] = v
    A[n, :] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    return _phase1_simplex(A, b) <= EPS_PLD


def haar_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix: the sign-fixed QR of a Gaussian draw."""
    return orthonormal_columns(rng.standard_normal((k, k)))


def orthonormal_columns(B: np.ndarray) -> np.ndarray:
    """Thin QR orthonormalization with signs matched to the input columns."""
    if B.shape[1] == 0:
        return B.copy()
    Q, R = np.linalg.qr(B)
    # fix the QR sign ambiguity (R gets a positive diagonal), which is
    # also what makes the QR of a Gaussian draw exactly Haar
    d = np.sign(np.diag(R))
    d[d == 0.0] = 1.0
    return Q * d


def align_columns(E_ref: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Permute and sign-flip columns of E to best match E_ref.

    Greedy assignment on absolute column inner products.  Used to keep
    eigenbases coherent across nearby matrices, where column order and
    sign are otherwise arbitrary.
    """
    q = E.shape[1]
    if q == 0 or E_ref.shape != E.shape:
        return E.copy()
    dots = E_ref.T @ E  # dots[i, j] = <ref_i, e_j>
    taken_ref = [False] * q
    taken_col = [False] * q
    perm = [0] * q
    signs = [1.0] * q
    flat = sorted(
        ((abs(dots[i, j]), i, j) for i in range(q) for j in range(q)),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    for _, i, j in flat:
        if taken_ref[i] or taken_col[j]:
            continue
        taken_ref[i] = True
        taken_col[j] = True
        perm[i] = j
        signs[i] = 1.0 if dots[i, j] >= 0.0 else -1.0
    out = np.column_stack([signs[i] * E[:, perm[i]] for i in range(q)])
    return out
