"""KKT residuals, sequential (AKKT) certificates, and multiplier recovery.

A KKT pair for min f(x) s.t. G(x) PSD is (x, Y) with Y PSD,
grad f(x) = DG(x)*[Y], and <G(x), Y> = 0.  Sequential certificates
relax this along iterates: x^k with PSD Y^k, a stationarity defect
delta^k -> 0, and a constraint shift Delta^k -> 0 such that
G(x^k) + Delta^k is PSD and exactly complementary with Y^k.  A solver
trace is one, with Y^k from ``solvers.al_multiplier``.

``recover_multiplier`` condenses an iterate trace with possibly
unbounded multipliers into a fixed candidate: each Y^k is rewritten as
a conic combination over the near-null eigenbasis of the shifted
constraint, reduced to an independent support, and the surviving
coefficients are tracked to a limit or flagged as divergent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import caratheodory, linalg, model

EPS_COMP_FACTOR = 1e-8   # complementarity: eps * (1 + ||Y||_F)
DIVERGENCE_GROWTH = 10.0


class TraceTooShortError(ValueError):
    """Raised when an iterate trace has too few records to analyze."""


@dataclass(frozen=True)
class KktResidual:
    """The four first-order residuals at a primal-dual pair."""

    stationarity: float
    feasibility: float
    complementarity: float
    dual_feasibility: float

    @property
    def max_entry(self) -> float:
        return max(self.stationarity, self.feasibility,
                   self.complementarity, self.dual_feasibility)


def kkt_residual(problem: model.NsdpProblem, x, Y) -> KktResidual:
    """Residuals of the KKT system at (x, Y).

    stationarity: euclidean norm of grad f(x) - DG(x)*[Y]
    feasibility:  Frobenius norm of the negative part of G(x)
    complementarity: |<G(x), Y>|
    dual feasibility: how far Y is from PSD, max(0, -lambda_min(Y))
    """
    x = np.asarray(x, dtype=float)
    Y = linalg.check_symmetric(Y)
    return residual_from(problem.g(x), model.lagrangian_grad(problem, x, Y), Y)


def residual_from(G: np.ndarray, grad_l: np.ndarray, Y: np.ndarray) -> KktResidual:
    """``kkt_residual`` from G(x) and grad_x L(x, Y), already evaluated.

    A solver's outer record has both at hand, so it pays for neither twice.
    """
    lam_y = linalg.eigenvalues(Y)
    return KktResidual(
        stationarity=linalg.frob(grad_l),
        feasibility=linalg.frob(linalg.proj_psd(-G)),
        complementarity=abs(linalg.inner(G, Y)),
        dual_feasibility=max(0.0, -float(lam_y[-1])) if lam_y.size else 0.0,
    )


@dataclass(frozen=True)
class AkktRecord:
    x: np.ndarray
    y: np.ndarray
    delta: np.ndarray         # constraint shift Delta^k (m x m symmetric)
    delta_vec: np.ndarray     # stationarity defect delta^k (length n)
    rho: float = 0.0


@dataclass(frozen=True)
class AkktCertificate:
    """Records with AkktRecord's fields; a SolverTrace holds IterRecords."""

    records: tuple

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> AkktRecord:
        return self.records[-1]


def akkt_check(problem: model.NsdpProblem, cert: AkktCertificate, tol: float):
    """Validate a sequential certificate; returns (ok, first_failure).

    Per-record checks: the stored defect matches grad_x L(x, Y) to
    1e-10, Y and G(x) + Delta are PSD within the cone tolerance, and
    the shifted pair is complementary within 1e-8 * (1 + ||Y||).  The
    trailing window (last 5 records) must then bring
    max(||delta||, ||Delta||) below tol with overall decay: the last
    value no larger than 0.9 times the window's first, unless it is
    already at roundoff level.

    ``first_failure`` is the index of the offending record, or None.
    """
    if len(cert) == 0:
        raise TraceTooShortError("empty certificate")
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
        comp = abs(linalg.inner(shifted, rec.y))
        if comp > EPS_COMP_FACTOR * (1.0 + linalg.frob(rec.y)):
            return False, idx
        measures.append(max(linalg.frob(rec.delta_vec), linalg.frob(rec.delta)))
    last = measures[-1]
    if last > tol:
        return False, len(cert) - 1
    if len(measures) >= 2:
        window = measures[-min(5, len(measures)):]
        floor = 1e-12 * (1.0 + linalg.frob(cert.final.y))
        if last > max(0.9 * window[0], floor):
            return False, len(cert) - 1
    return True, None


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of condensing a multiplier trace to a limit candidate.

    status is one of "recovered", "diverged", "inconclusive".  On
    recovery, ``multiplier`` and ``residual`` are set.  On divergence,
    ``witness_family`` holds the diagonal derivative vectors at the
    limit basis over the surviving support, and
    ``witness_pos_dependent`` reports whether that family admits a
    vanishing nonnegative combination, which is the mechanism that lets
    the multiplier norms blow up.
    """

    status: str
    support: tuple
    coefficients: np.ndarray
    multiplier: np.ndarray | None = None
    residual: KktResidual | None = None
    coefficient_growth: float = 1.0
    witness_family: tuple = ()
    witness_pos_dependent: bool | None = None
    message: str = ""


def recover_multiplier(problem: model.NsdpProblem, cert: AkktCertificate,
                       x_bar, tol: float = 1e-4) -> RecoveryResult:
    """Estimate a limit multiplier from a sequential certificate.

    Each trace record contributes the near-null eigenbasis E^k of
    G(x^k) + Delta^k (split at the rank of G at the limit point), the
    eigenweights of Y^k on those columns, and the reduced independent
    support from the conic reduction.  The most frequent support over
    the trailing half is kept; its coefficients either stabilize
    (median of the last three is the estimate) or grow by more than
    10x, which is reported as divergence together with the limiting
    dependent family.
    """
    if len(cert) < 5:
        raise TraceTooShortError(f"need at least 5 records, got {len(cert)}")
    x_bar = np.asarray(x_bar, dtype=float)
    G_bar = problem.g(x_bar)
    r = linalg.spectral_decompose(G_bar).psd_rank()
    if r == problem.m:
        res = kkt_residual(problem, x_bar, np.zeros((problem.m, problem.m)))
        status = "recovered" if res.max_entry <= tol else "inconclusive"
        return RecoveryResult(status=status, support=(), coefficients=np.zeros(0),
                              multiplier=np.zeros((problem.m, problem.m)),
                              residual=res,
                              message="constraint has full rank at the limit")
    window = cert.records[-max(5, len(cert) // 2):]
    chain = linalg.aligned_kernel_bases(
        [linalg.spectral_decompose(problem.g(rec.x) + rec.delta)
         for rec in window], r)
    per_record = []
    for rec, E in zip(window, chain):
        weights = np.array([float(E[:, i] @ rec.y @ E[:, i]) for i in range(E.shape[1])])
        weights = np.maximum(weights, 0.0)
        fam = model.diag_vectors(problem, rec.x, E)
        red = caratheodory.reduce(fam, weights)
        per_record.append((red.indices, red.coeffs, E))
    counts = {}
    for idx, _, _ in per_record:
        counts[idx] = counts.get(idx, 0) + 1
    support = sorted(counts, key=lambda k: (-counts[k], k))[0]
    matched = [(c, E) for idx, c, E in per_record if idx == support]
    if len(matched) < 3:
        return RecoveryResult(status="inconclusive", support=support,
                              coefficients=np.zeros(len(support)),
                              message="support did not stabilize over the trailing window")
    peaks = [float(np.abs(c).max(initial=0.0)) for c, _ in matched]
    growth = peaks[-1] / max(peaks[0], 1e-300)
    E_last = matched[-1][1]
    if growth > DIVERGENCE_GROWTH:
        fam_bar = model.diag_vectors(problem, x_bar, E_last)
        witness = tuple(fam_bar[i] for i in support)
        return RecoveryResult(
            status="diverged", support=support,
            coefficients=matched[-1][0],
            coefficient_growth=growth,
            witness_family=witness,
            witness_pos_dependent=linalg.pos_lin_dependent(witness),
            message=f"reduced coefficients grew by {growth:.2e} over the trailing window",
        )
    tail = np.vstack([c for c, _ in matched[-3:]])
    coeffs = np.median(tail, axis=0)
    Y = np.zeros((problem.m, problem.m))
    for c, i in zip(coeffs, support):
        e = E_last[:, i]
        Y += c * np.outer(e, e)
    Y = linalg.sym_part(Y)
    res = kkt_residual(problem, x_bar, Y)
    status = "recovered" if res.max_entry <= tol else "inconclusive"
    msg = "" if status == "recovered" else f"candidate residual {res.max_entry:.3e} above tol"
    return RecoveryResult(status=status, support=support, coefficients=coeffs,
                          multiplier=Y, residual=res,
                          coefficient_growth=growth, message=msg)


# ---------------------------------------------------------------------------
# trace files (see docs/trace-format.md)

def write_trace(cert: AkktCertificate, path) -> None:
    """Write a certificate as JSON Lines; a failed record leaves the file as it was."""
    model._atomic_write(path, "".join(json.dumps({
        "k": k,
        "x": [float(v) for v in rec.x],
        "y": model._upper_entries(rec.y),
        "delta": model._upper_entries(rec.delta),
        "delta_vec": [float(v) for v in rec.delta_vec],
        "rho": float(rec.rho),
    }, sort_keys=True) + "\n" for k, rec in enumerate(cert.records)))


def read_trace(path, n: int, m: int) -> AkktCertificate:
    """The certificate a trace file holds; ValueError names a bad line and field."""
    records = []
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_trace_record(line, n, m))
            except ValueError as exc:
                raise ValueError(f"trace line {line_no}: {exc}") from None
    return AkktCertificate(records=tuple(records))


def _trace_record(line: str, n: int, m: int) -> AkktRecord:
    try:
        d = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    d = model._object(d, "record", "x", "y", "delta", "delta_vec")
    fields = {}
    for key in ("x", "delta_vec"):
        fields[key] = model._numbers(d[key], key)
        if fields[key].shape != (n,):
            raise ValueError(f"{key} must be a list of {n} numbers")
    for key in ("y", "delta"):
        entries = model._numbers(d[key], key)
        if entries.ndim != 1:
            raise ValueError(f"{key} must be a list of numbers")
        try:
            fields[key] = model._from_upper(entries.tolist(), m)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    rho = model._numbers(d.get("rho", 0.0), "rho")
    if rho.ndim != 0:
        raise ValueError("rho must be a number")
    return AkktRecord(x=fields["x"], y=fields["y"], delta=fields["delta"],
                      delta_vec=fields["delta_vec"], rho=float(rho))
