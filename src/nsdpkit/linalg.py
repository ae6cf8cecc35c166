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

The kernel has three paths with the same bits per matrix.  A 2x2
matrix stays on Python floats, input check, single rotation, sign rule
and ordering included, in ``_decompose_2x2``, the float core of four
entries: ``spectral_decompose`` wraps its floats in a ``SpectralDecomp``,
``eigenvalues`` returns the two values, and ``proj_psd`` and
``moreau_split`` build only their PSD parts, by ``_psd_2x2``, the 2x2
reconstruction of ``_psd_part`` too.  Larger matrices run ``_jacobi`` on
nested lists of Python floats.  ``_jacobi`` rotates the matrix alone and
logs each rotation; ``spectral_decompose`` replays the log on the
identity for the eigenvectors, and ``eigenvalues``, the entry for
callers that read no eigenvectors, skips the replay unless two values
tie exactly.  With an orthogonal ``basis`` U, ``moreau_split``, ``proj_psd``
and ``eigenvalues`` take the warm entry, ``_jacobi`` on U'MU, with bits of
its own and few rotations where U nearly diagonalizes M (Henrici 1958);
``moreau_split`` returns U rotated by the log, the next basis.
``_jacobi_many`` runs that sweep on a stack of same-size matrices in numpy
elementwise +, -, *, /, sqrt, abs and comparisons, no BLAS and no numpy
sum, and ``_decompose_many`` signs and orders the lanes in numpy, a tied
lane by the per-matrix path: ``spectral_decompose_many`` for ``cq``'s weak
checks and curves and ``kkt.recover_multiplier``, and ``eigenvalues_many``,
without the rotated identities, for ``kkt.akkt_check`` and ranks.  A stack
raises as one call would on one of its matrices.
Each path does the IEEE operations of the numpy-scalar loop it
replaced, in the same order; ``tests/test_linalg.py`` keeps that loop
as the reference and compares with ``np.array_equal``.  ``frob`` is
``math.hypot`` over the entries, and the stop test sums its squares by
a correctly rounded ``math.fsum``: no BLAS norm and no numpy reduction
decides a stop.  Non-finite input, and input whose squared Frobenius
norm overflows, is rejected with ValueError: the rotations and the stop
test square entries, though ``frob`` itself is finite up to about
1.8e308.  The BLAS steps left, the PSD reconstruction above 2x2 (warm
too) and the Gram product, have one site each: ``_psd_part`` and ``gram_matrices``.
With them, LAPACK QR in ``orthonormal_columns`` and the matvecs of
``model.contract``, bits are reproducible on one platform with one
Python minor version and one numpy, not across platforms.
Three of those sites take stacks, for ``cq``'s sequential tail test and
its Haar draws: ``orthonormal_columns`` (and so ``haar_orthogonal``) a
(..., m, q) stack in one LAPACK call, ``gram_matrices`` a (..., p, n)
stack of families, and ``model.contract`` a stack of derivative lists
and bases.  ``lin_dependent_many`` decides rank on a stack of families
with ``_decompose_2x2``'s expressions or ``eigenvalues_many``.
Each gives a matrix of a stack the bits of a call on that matrix alone;
``_psd_part`` takes one matrix.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    """Frobenius norm of a matrix, Euclidean norm of a vector.

    ``math.hypot`` over the entries: no BLAS, and finite wherever the
    norm is below about 1.8e308, though the squares overflow.
    """
    return math.hypot(*np.asarray(M, dtype=float).ravel().tolist())


def inner(M: np.ndarray, N: np.ndarray) -> float:
    """Trace inner product of two symmetric matrices.

    Up to four entries the products are summed on floats one after
    another in C order from 0.0, which is numpy's own order below eight
    entries: the bits of ``np.sum(M * N)``.
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    if M.size <= 4 and M.shape == N.shape:
        total = 0.0
        for a, b in zip(M.ravel().tolist(), N.ravel().tolist()):
            total += a * b
        return total
    return float(np.sum(M * N))


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

    Returns the diagonal values and the log of the rotations ``(p, q, c,
    s)`` in the order they were applied; the eigenvectors never feed
    back into the matrix, so ``_rotate_identity`` replays them from the
    log for the callers that read them.  Rotations run row by row in a
    fixed (p, q) order.  The matrix is held by columns,
    ``C[j][i] = A[i][j]``, so a rotation maps whole columns.  Each sweep
    starts with the stop test: the off-diagonal norm sqrt(2 * sum of the
    squared upper entries), summed by ``math.fsum``, is at most
    1e-14 * (1 + ||A||_F).  ``JacobiConvergenceError`` reports that norm.
    The input is finite (``spectral_decompose`` checks it) and its squared
    norm is finite (checked here), so the sum never overflows.
    """
    A = np.array(M, dtype=float)
    m = A.shape[0]
    C = A.T.tolist()
    log = []
    if m <= 1:
        return [col[j] for j, col in enumerate(C)], log
    nrm = frob(A)
    if math.isinf(nrm * nrm):  # the rotations and the stop test square entries
        raise ValueError("matrix Frobenius norm overflows")
    scale = 1.0 + nrm
    off_tol = 1e-14 * scale
    skip_tol = 1e-18 * scale
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        off = math.sqrt(2.0 * math.fsum([x * x for j, col in enumerate(C)
                                         for x in col[:j]]))
        if off <= off_tol:
            return [col[j] for j, col in enumerate(C)], log
        if sweep == _JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(off, _JACOBI_MAX_SWEEPS)
        for p in range(m - 1):
            for q in range(p + 1, m):
                Cp, Cq = C[p], C[q]
                apq = Cq[p]
                if abs(apq) <= skip_tol:
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
                log.append((p, q, c, s))


def _rotate_basis(V: list, log: list) -> list:
    """The rotations of a ``_jacobi`` log applied in order to the basis V.

    V[j] is column j, as in the result; V itself is left as it is.
    """
    V = list(V)
    for p, q, c, s in log:
        Vp, Vq = V[p], V[q]
        V[p] = [c * a - s * b for a, b in zip(Vp, Vq)]
        V[q] = [s * a + c * b for a, b in zip(Vp, Vq)]
    return V


def _warm_decompose(M: np.ndarray, basis: np.ndarray):
    """The warm entry: U, the ``basis``, rotated by ``_jacobi``'s log on U'MU,
    and the values, unsorted; U'MU's entries are ``math.fsum``s of products."""
    rows = check_symmetric(M).tolist()
    U = np.asarray(basis, dtype=float).T.tolist()
    MU = [[math.fsum(map(operator.mul, row, u)) for row in rows] for u in U]
    B = [[0.0] * len(U) for _ in U]
    for i, j in itertools.combinations_with_replacement(range(len(U)), 2):
        B[i][j] = B[j][i] = math.fsum(map(operator.mul, U[i], MU[j]))
    vals, log = _jacobi(B)
    return np.array(_rotate_basis(U, log)).T, np.array(vals)


def _decompose_2x2(M: np.ndarray) -> tuple:
    """``spectral_decompose``'s steps on the floats of a 2x2: same bits.

    Returns ``(v0, v1, x0, y0, x1, y1)``: the eigenvalues, non-increasing,
    and their eigenvectors (x0, y0) and (x1, y1).  ``_jacobi``'s tests and
    expressions around its single rotation.  The off-diagonal norm of a
    2x2 sums one square, so it needs no ``math.fsum``; passing the off
    test implies |a01| > 1e-18 * scale, so the rotation is never skipped,
    and it zeroes a01, so the next sweep's test passes.
    """
    (a00, a01), (a10, a11) = M.tolist()
    # entry by entry: Python's max, unlike numpy's, skips over a NaN
    if not (math.isfinite(a00) and math.isfinite(a01) and math.isfinite(a10)
            and math.isfinite(a11)):
        raise ValueError("matrix has non-finite entries")
    if abs(a01 - a10) > EPS_SYM * (1.0 + max(abs(a00), abs(a01), abs(a10), abs(a11))):
        raise ValueError("matrix is not symmetric")
    nrm = math.hypot(a00, a01, a10, a11)  # frob(M)
    if math.isinf(nrm * nrm):
        raise ValueError("matrix Frobenius norm overflows")
    if math.sqrt(a01 * a01 * 2.0) <= 1e-14 * (1.0 + nrm):
        v0, v1, x0, y0, x1, y1 = a00, a11, 1.0, 0.0, 0.0, 1.0
    else:
        theta = (a11 - a00) / (2.0 * a01)
        t = -1.0 if theta < 0.0 else 1.0
        t = t / (abs(theta) + math.sqrt(theta * theta + 1.0))
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        v0, v1 = a00 - t * a01, a11 + t * a01
        # the rotation applied to the identity's columns (1, 0) and (0, 1)
        x0, y0 = c * 1.0 - s * 0.0, c * 0.0 - s * 1.0
        x1, y1 = s * 1.0 + c * 0.0, s * 0.0 + c * 1.0
    if (y0 if abs(y0) > abs(x0) else x0) < -_SIGN_TINY:
        x0, y0 = -x0, -y0
    if (y1 if abs(y1) > abs(x1) else x1) < -_SIGN_TINY:
        x1, y1 = -x1, -y1
    if (-v1, [x1, y1]) < (-v0, [x0, y0]):
        return v1, v0, x1, y1, x0, y0
    return v0, v1, x0, y0, x1, y1


def _ordered(vals: list, V: list):
    """Values non-increasing and their columns ``V[j]`` sign-canonicalized,
    each flipped so its first largest-magnitude entry is positive, ties
    broken by those columns."""
    cols = [[-v for v in col] if max(col, key=abs) < -_SIGN_TINY else col for col in V]
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], cols[i]))
    return (np.array([vals[i] for i in order]),
            np.array([cols[i] for i in order]).T.copy() if order else np.eye(0))


def spectral_decompose(M: np.ndarray) -> SpectralDecomp:
    """Spectral decomposition with eigenvalues sorted non-increasingly.

    Deterministic: a fixed sweep order and a lexicographic tie-break on
    the sign-canonicalized eigenvectors make repeated calls on equal
    inputs return identical arrays.
    """
    M = np.asarray(M, dtype=float)
    if M.shape == (2, 2):
        v0, v1, x0, y0, x1, y1 = _decompose_2x2(M)
        return SpectralDecomp(np.array([v0, v1]), np.array([[x0, x1], [y0, y1]]))
    vals, log = _jacobi(check_symmetric(M))
    return SpectralDecomp(*_ordered(vals, _rotate_basis(np.eye(len(vals)).tolist(), log)))


def eigenvalues(M: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """``spectral_decompose(M).eigenvalues``, bit for bit, without the vectors.

    The rotation log is replayed only where two values tie exactly (0.0
    and -0.0 included), since the eigenvectors break the tie.  With a
    ``basis``, the warm entry's values, sorted.
    """
    M = np.asarray(M, dtype=float)
    if basis is not None:
        return np.sort(_warm_decompose(M, basis)[1])[::-1]
    if M.shape == (2, 2):
        return np.array(_decompose_2x2(M)[:2])
    vals, log = _jacobi(check_symmetric(M))
    if len(set(vals)) < len(vals):
        return _ordered(vals, _rotate_basis(np.eye(len(vals)).tolist(), log))[0]
    return np.array(sorted(vals, key=lambda v: -v))


def _jacobi_many(mats, vectors: bool):
    """``_jacobi``'s sweeps on a stack of same-size matrices above 2x2: their
    (K, m) values, unsorted, and with ``vectors`` the rotated identities,
    V[k, j] column j of lane k.  Raises what ``spectral_decompose`` raises on
    the first matrix that it rejects, before any sweep, or at the sweep cap.
    Row j of a lane holds column j of the matrix, then of the rotations: one
    update rotates both.  ``np.where`` holds a lane that skips a rotation."""
    K, m = len(mats), mats[0].shape[0]
    S = np.array(mats).reshape(K, m, m)
    with np.errstate(invalid="ignore", over="ignore"):  # check_symmetric per lane
        big = 1.0 + np.abs(S).max(axis=(1, 2))
        asym = np.abs(S - S.transpose(0, 2, 1)).max(axis=(1, 2))
        nrm = np.array([frob(A) for A in S])
        rejected = np.flatnonzero(~(np.isfinite(big) & (asym <= EPS_SYM * big)
                                    & ~np.isinf(nrm * nrm)))
    if rejected.size:
        spectral_decompose(S[rejected[0]])  # raises that matrix's own error
    eye = [np.broadcast_to(np.eye(m), (K, m, m))] if vectors else []
    W = np.concatenate([S.transpose(0, 2, 1)] + eye, axis=2)
    done, idx = np.empty_like(W), np.arange(K)
    off_tol, skip_tol = 1e-14 * (1.0 + nrm), 1e-18 * (1.0 + nrm)
    low = np.tril_indices(m, -1)  # W[k, j, i] with i < j: the upper triangle
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        U = W[:, low[0], low[1]]
        off = [math.sqrt(2.0 * math.fsum(row)) for row in (U * U).tolist()]
        stop = np.array([a <= tol for a, tol in zip(off, off_tol.tolist())], dtype=bool)
        done[idx[stop]] = W[stop]
        if stop.all():
            return done[:, range(m), range(m)], done[:, :, m:] if vectors else None
        if sweep == _JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(off[int(np.argmin(stop))], _JACOBI_MAX_SWEEPS)
        W, idx, off_tol, skip_tol = W[~stop], idx[~stop], off_tol[~stop], skip_tol[~stop]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for p, q in itertools.combinations(range(m), 2):
                Wp, Wq, apq = W[:, p], W[:, q], W[:, q, p]
                theta = (Wq[:, q] - Wp[:, p]) / (2.0 * apq)
                t = np.where(theta < 0.0, -1.0, 1.0)
                t = t / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s, c = (t * c)[:, None], c[:, None]
                Np, Nq = c * Wp - s * Wq, s * Wp + c * Wq
                Np[:, p], Nq[:, q] = Wp[:, p] - t * apq, Wq[:, q] + t * apq
                Np[:, q] = Nq[:, p] = 0.0
                Cp, Cq = Np[:, :m], Nq[:, :m]  # the rows mirror the new columns
                hold = np.abs(apq) <= skip_tol
                if hold.any():  # a held lane keeps its rows and columns
                    hold = hold[:, None]
                    Np, Nq = np.where(hold, Wp, Np), np.where(hold, Wq, Nq)
                    Cp, Cq = np.where(hold, W[:, :, p], Cp), np.where(hold, W[:, :, q], Cq)
                W[:, p], W[:, q], W[:, :, p], W[:, :, q] = Np, Nq, Cp, Cq


def _decompose_many(mats, vectors: bool) -> list:
    """``spectral_decompose``, or without ``vectors`` ``eigenvalues``, of each
    matrix: a stable argsort of -lam orders a lane, the sign rule reads the
    first largest |entry| as ``argmax`` and ``max`` do, and a lane whose
    values tie exactly (0.0 and -0.0 too) takes the per-matrix finish."""
    mats = [np.asarray(M, dtype=float) for M in mats]
    if not mats or mats[0].shape[0] <= 2:
        return [(spectral_decompose if vectors else eigenvalues)(M) for M in mats]
    lam, V = _jacobi_many(mats, vectors)
    order = np.argsort(-lam, axis=1, kind="stable")
    vals = np.take_along_axis(lam, order, axis=1)
    tie = (vals[:, 1:] == vals[:, :-1]).any(axis=1).tolist()
    if not vectors:
        return [eigenvalues(M) if t else v for M, v, t in zip(mats, vals, tie)]
    lead = np.take_along_axis(V, np.abs(V).argmax(axis=2)[..., None], axis=2)
    vecs = np.take_along_axis(np.where(lead < -_SIGN_TINY, -V, V), order[..., None], axis=1)
    vecs = vecs.transpose(0, 2, 1).copy()
    return [SpectralDecomp(*_ordered(lam[k].tolist(), V[k].tolist())) if tie[k]
            else SpectralDecomp(vals[k], vecs[k]) for k in range(len(tie))]


def spectral_decompose_many(mats) -> list:
    """``spectral_decompose`` of each same-size matrix, bit for bit, in one
    stack; raises as ``_jacobi_many`` does."""
    return _decompose_many(mats, vectors=True)


def eigenvalues_many(mats) -> list:
    """``eigenvalues`` of each same-size matrix, bit for bit: the stack of
    ``spectral_decompose_many`` without its rotated identities."""
    return _decompose_many(mats, vectors=False)


def _psd_2x2(l0, l1, x0, y0, x1, y1) -> np.ndarray:
    """The PSD part of the 2x2 with eigenvalues l0, l1 and eigenvectors
    (x0, y0), (x1, y1), built on floats with one off-diagonal entry for
    both places: exactly symmetric, and its bits do not depend on numpy."""
    w0 = l0 if l0 > 0.0 else 0.0
    w1 = l1 if l1 > 0.0 else 0.0
    a, b, c, d = x0 * w0, x1 * w1, y0 * w0, y1 * w1  # U diag(w)
    off = 0.5 * ((a * y0 + b * y1) + (c * x0 + d * x1))
    return np.array([[a * x0 + b * x1, off], [off, c * y0 + d * y1]])


def _psd_part(U: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The PSD matrix sym_part(U diag(max(lam, 0)) U'): the one reconstruction.

    A 2x2 is ``_psd_2x2``'s.
    """
    if U.shape == (2, 2):
        (x0, x1), (y0, y1) = U.tolist()
        return _psd_2x2(*lam.tolist(), x0, y0, x1, y1)
    return sym_part((U * np.maximum(lam, 0.0)) @ U.T)


def proj_psd(M: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Frobenius projection onto the positive semidefinite cone.

    A 2x2 goes from ``_decompose_2x2``'s floats to ``_psd_2x2``; with a
    ``basis``, the warm entry's decomposition goes to ``_psd_part``."""
    M = np.asarray(M, dtype=float)
    if basis is not None:
        return _psd_part(*_warm_decompose(M, basis))
    if M.shape == (2, 2):
        return _psd_2x2(*_decompose_2x2(M))
    dec = spectral_decompose(M)
    return _psd_part(dec.eigenvectors, dec.eigenvalues)


def moreau_split(M: np.ndarray, basis: np.ndarray | None = None):
    """Split M into its PSD part and the PSD part of -M.

    Returns (plus, minus) with plus = proj_psd(M), minus = proj_psd(-M),
    M = plus - minus and <plus, minus> = 0 up to reconstruction error.
    Both pieces come from a single decomposition so the identities hold
    to machine precision.  A 2x2 builds both as ``proj_psd`` does.  With
    a ``basis``, both are the warm entry's, and its eigenvectors come third.
    """
    M = np.asarray(M, dtype=float)
    if basis is not None:
        V, lam = _warm_decompose(M, basis)
        return _psd_part(V, lam), _psd_part(V, -lam), V
    if M.shape == (2, 2):
        v0, v1, x0, y0, x1, y1 = _decompose_2x2(M)
        return _psd_2x2(v0, v1, x0, y0, x1, y1), _psd_2x2(-v0, -v1, x0, y0, x1, y1)
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

    ``values`` (scalar or 1-D) must be sorted non-increasingly; ``scale``
    must be positive (pass the spectral norm or 1.0 for an absolute floor).
    Python floats: ``np.diff``'s and ``np.sum``'s IEEE steps, no call cost.
    """
    values = np.asarray(values, dtype=float).ravel().tolist()
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    band = 1e-12 * (1.0 + scale)
    if any(b - a > band for a, b in zip(values, values[1:])):
        raise ValueError("values must be sorted non-increasingly")
    return int(sum(x > EPS_RANK * scale for x in values))


def gram_matrices(V: np.ndarray) -> np.ndarray:
    """Gram matrix of each (p, n) family of rows in a (..., p, n) stack.

    The one Gram product: per family the BLAS call and the bits of
    ``A.T @ A`` for A = [z_1 ... z_p], then symmetrized.
    """
    G = np.matmul(V, np.swapaxes(V, -1, -2))
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def gram_decompose(vectors) -> SpectralDecomp:
    """Decomposition of the Gram matrix A'A of A = [z_1 ... z_p], p >= 1."""
    return spectral_decompose(gram_matrices(np.array(
        [np.asarray(v, dtype=float).ravel() for v in vectors])))


def singular_values(gram: SpectralDecomp) -> np.ndarray:
    """Singular values of A, non-increasing, from A's ``gram_decompose``.

    The in-house eigensolver gives them, so the whole dependence
    pipeline shares one deterministic kernel.
    """
    return np.sqrt(np.maximum(gram.eigenvalues, 0.0))


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
    sig = singular_values(gram)
    if scale is None:
        scale = float(sig.max(initial=0.0))
        if scale <= 0.0:
            return True
    return numerical_rank(sig, scale) < sig.size


def lin_dependent_many(V: np.ndarray, scale: float) -> np.ndarray:
    """``lin_dependent(family, scale)`` of each family in a (K, p, n) stack.

    Row i of ``V[k]`` is vector i of family k.  Each family's smallest
    Gram eigenvalue gets the bits of ``gram_dependent``'s: at p = 1 the
    Gram entry itself, at p = 2 ``_decompose_2x2``'s value expressions
    applied elementwise, from p = 3 an ``eigenvalues_many`` lane.
    The family is dependent when the square root of that eigenvalue,
    clipped at 0, is not above EPS_RANK * scale.  Raises what
    ``lin_dependent`` raises on the first family that it rejects.
    """
    G = gram_matrices(V)
    p = G.shape[1]
    if p >= 3:
        lam = np.array([v[-1] for v in eigenvalues_many(G)])
    else:
        rejected = ~np.isfinite(G).all(axis=(1, 2))
        if p == 2:  # _decompose_2x2 also rejects a norm whose square overflows
            nrm = np.array([math.hypot(*row) for row in G.reshape(len(G), 4).tolist()])
            with np.errstate(over="ignore"):
                rejected |= np.isinf(nrm * nrm)
        if rejected.any():
            spectral_decompose(G[np.argmax(rejected)])  # raises that matrix's own error
        lam = G[:, 0, 0]
        if p == 2:
            a00, a01, a11 = lam, G[:, 0, 1], G[:, 1, 1]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = (a11 - a00) / (2.0 * a01)
                t = np.where(theta < 0.0, -1.0, 1.0)
                t = t / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            turn = ~(np.sqrt(a01 * a01 * 2.0) <= 1e-14 * (1.0 + nrm))
            lam = np.minimum(np.where(turn, a00 - t * a01, a00),
                             np.where(turn, a11 + t * a01, a11))
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return ~(np.sqrt(np.maximum(lam, 0.0)) > EPS_RANK * scale)


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


def haar_orthogonal(k: int, rng: np.random.Generator,
                    count: int | None = None) -> np.ndarray:
    """Haar-distributed orthogonal matrix: the sign-fixed QR of a Gaussian draw.

    With ``count``, a (count, k, k) stack of them: one draw of the stream
    that ``count`` calls would draw one after another, and the same bits.
    """
    shape = (k, k) if count is None else (count, k, k)
    return orthonormal_columns(rng.standard_normal(shape))


def orthonormal_columns(B: np.ndarray) -> np.ndarray:
    """Thin QR orthonormalization with signs matched to the input columns.

    ``B`` is an (m, q) matrix or a (..., m, q) stack of them; a stack is
    one call into LAPACK with the bits of one call per matrix.
    """
    if B.shape[-1] == 0:
        return B.copy()
    Q, R = np.linalg.qr(B)
    # fix the QR sign ambiguity (R gets a positive diagonal), which is
    # also what makes the QR of a Gaussian draw exactly Haar
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0.0] = 1.0
    return Q * d[..., None, :]


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
