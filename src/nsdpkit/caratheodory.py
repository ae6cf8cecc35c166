"""Constructive reduction of conic combinations.

Given a finite combination sum_i a_i z_i, repeatedly remove vectors
until the surviving family is linearly independent while the combined
sum and the sign of every surviving coefficient are preserved.  This is
the classical exchange argument: pick a null-space direction of the
active family, travel along it until the first coefficient hits zero,
drop that index, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

_SNAP = 1e-14
_MAX_ROUNDS_PER_VECTOR = 4


class ReductionError(RuntimeError):
    """Raised when the exchange steps fail to reach an independent support."""


@dataclass(frozen=True)
class ConicCombination:
    """A reduced combination: surviving indices, their coefficients, vectors.

    ``indices`` refers back to the caller's original ordering.  The
    represented sum is sum_k coeffs[k] * vectors[k].
    """

    indices: tuple
    coeffs: np.ndarray
    vectors: tuple

    def combined(self) -> np.ndarray:
        if not self.vectors:
            return np.zeros(0)
        out = np.zeros_like(np.asarray(self.vectors[0], dtype=float))
        for c, v in zip(self.coeffs, self.vectors):
            out = out + c * np.asarray(v, dtype=float)
        return out


def _null_direction(vectors) -> np.ndarray:
    """Unit vector b with sum_i b_i z_i ~ 0, from the Gram matrix."""
    A = np.column_stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    gram = linalg.sym_part(A.T @ A)
    dec = linalg.spectral_decompose(gram)
    return dec.eigenvectors[:, -1].copy()


def reduce(vectors, coeffs) -> ConicCombination:
    """Reduce a combination to a linearly independent support.

    Zero coefficients are dropped up front and never re-enter.  Each
    exchange step picks the smallest step magnitude (ties prefer the
    positive direction) and drops the smallest index reaching zero, so
    the reduction is deterministic.  Coefficients below 1e-14 in
    magnitude after a step are snapped to zero.  Surviving coefficients
    keep the sign they started with.
    """
    vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    alpha = np.asarray(coeffs, dtype=float).copy()
    if len(vecs) != alpha.shape[0]:
        raise ValueError("coefficient count does not match vector count")
    active = [i for i in range(len(vecs)) if alpha[i] != 0.0]
    rounds = 0
    max_rounds = _MAX_ROUNDS_PER_VECTOR * max(1, len(vecs))
    while len(active) > 0 and linalg.lin_dependent([vecs[i] for i in active]):
        rounds += 1
        if rounds > max_rounds:
            raise ReductionError("reduction failed to terminate")
        beta = _null_direction([vecs[i] for i in active])
        a = alpha[active]
        # candidate steps a_i / b_i; positive-direction candidates have
        # matching signs, negative-direction candidates opposite signs
        t_pos = np.inf
        pos_drop = -1
        t_neg = -np.inf
        neg_drop = -1
        for k in range(len(active)):
            if beta[k] == 0.0:
                continue
            ratio = a[k] / beta[k]
            if ratio > 0.0:
                if ratio < t_pos - 1e-18:
                    t_pos, pos_drop = ratio, k
            elif ratio < 0.0:
                if ratio > t_neg + 1e-18:
                    t_neg, neg_drop = ratio, k
            else:
                # coefficient already exactly zero: drop without a step
                t_pos, pos_drop = 0.0, k
                break
        if pos_drop < 0 and neg_drop < 0:
            raise ReductionError("null direction produced no usable step")
        if pos_drop >= 0 and (neg_drop < 0 or t_pos <= -t_neg):
            t, drop = t_pos, pos_drop
        else:
            t, drop = t_neg, neg_drop
        snap = _SNAP * max(1.0, float(np.abs(a).max(initial=0.0)))
        a = a - t * beta
        a[drop] = 0.0
        for k in range(len(active)):
            if abs(a[k]) < snap:
                a[k] = 0.0
        alpha[active] = a
        active = [i for i in active if alpha[i] != 0.0]
    idx = tuple(active)
    return ConicCombination(
        indices=idx,
        coeffs=alpha[list(idx)].copy() if idx else np.zeros(0),
        vectors=tuple(vecs[i] for i in idx),
    )
