"""Problem containers: objectives with one symmetric-matrix constraint.

A problem is min f(x) subject to G(x) being positive semidefinite,
with f: R^n -> R and G mapping into m x m symmetric matrices.  Problems
carry callbacks for f, its gradient, G, and the partial derivative
matrices of G.  ``MatrixPolyProblem`` is the serializable subclass with
quadratic f and degree-two polynomial G; arbitrary callbacks are
accepted through ``NsdpProblem`` directly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg


@dataclass(frozen=True)
class NsdpProblem:
    """Callback-backed problem data.

    dg_eval(x) must return a list of n symmetric m x m matrices, the
    partial derivatives of G at x.  Callbacks are assumed cheap and
    pure; nothing here caches.
    """

    n: int
    m: int
    f_eval: object
    grad_f: object
    g_eval: object
    dg_eval: object
    name: str = ""

    def f(self, x) -> float:
        return float(self.f_eval(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        g = np.asarray(self.grad_f(np.asarray(x, dtype=float)), dtype=float).ravel()
        if g.shape[0] != self.n:
            raise ValueError(f"gradient has dimension {g.shape[0]}, expected {self.n}")
        return g

    def g(self, x) -> np.ndarray:
        G = np.asarray(self.g_eval(np.asarray(x, dtype=float)), dtype=float)
        if G.shape != (self.m, self.m):
            raise ValueError(f"constraint value has shape {G.shape}, expected {(self.m, self.m)}")
        return G

    def dg(self, x) -> list:
        mats = self.dg_eval(np.asarray(x, dtype=float))
        if len(mats) != self.n:
            raise ValueError(f"derivative list has length {len(mats)}, expected {self.n}")
        return [np.asarray(D, dtype=float) for D in mats]


def adjoint_dg(problem: NsdpProblem, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Adjoint of the constraint derivative applied to a symmetric Y.

    Component i is the trace inner product of the i-th partial
    derivative of G at x with Y.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (problem.m, problem.m):
        raise ValueError(f"multiplier has shape {Y.shape}, expected {(problem.m, problem.m)}")
    return np.array([linalg.inner(D, Y) for D in problem.dg(x)])


def lagrangian_grad(problem: NsdpProblem, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient in x of f(x) - <G(x), Y>."""
    return problem.grad(x) - adjoint_dg(problem, x, Y)


def curvature_vectors(problem: NsdpProblem, x, E, pairs) -> list:
    """Curvature vectors v_ij of the constraint at (x, E), one per pair.

    Entry l of v_ij is e_i' D_l G(x) e_j for columns e_i, e_j of the
    basis E.  Each entry is the fsum of e_i[t] (D_l e_j)[t] over t, with
    D_l e_j formed once per column j; fsum keeps the contraction
    sign-symmetric (no FMA asymmetry), so identities like v_ii = -v_jj
    for trace-free derivatives hold exactly.
    """
    cols = np.asarray(E, dtype=float)
    Ds = problem.dg(np.asarray(x, dtype=float))
    m = cols.shape[0]
    images = {}
    out = []
    for i, j in pairs:
        c = cols[:, i]
        if j not in images:
            e = c if j == i else cols[:, j]
            images[j] = [D @ e for D in Ds]
        out.append(np.array([math.fsum(c[t] * w[t] for t in range(m))
                             for w in images[j]]))
    return out


def diag_vectors(problem: NsdpProblem, x, E, indices=None) -> list:
    """Diagonal curvature vectors v_ii at (x, E), one per requested column.

    The (i, i) pairs of ``curvature_vectors``; all columns by default.
    """
    if indices is None:
        indices = range(np.shape(E)[1])
    return curvature_vectors(problem, x, E, [(i, i) for i in indices])


def linearize(G: np.ndarray, Ds, d) -> np.ndarray:
    """G + sum_l d_l Ds[l]: the constraint linearized along d.

    Summed in coordinate order, one term at a time, so every caller
    gets the same bits.
    """
    out = np.array(G, dtype=float)
    for d_l, D in zip(d, Ds):
        out = out + d_l * D
    return out


@dataclass(frozen=True)
class MatrixPolyProblem:
    """Quadratic objective with a degree-two matrix polynomial constraint.

    G(x) = A0 + sum_i x_i A[i] + sum_{i<=j} x_i x_j B[(i, j)]
    f(x) = c0 + c_lin . x + 0.5 x . C_quad x

    All coefficient matrices are symmetric.  This is the class the
    problem-file loader produces; see docs/problem-format.md.
    """

    n: int
    m: int
    c0: float
    c_lin: np.ndarray
    c_quad: np.ndarray
    a0: np.ndarray
    a_lin: tuple
    b_quad: dict
    name: str = ""
    x_bar: np.ndarray | None = None
    expected: dict | None = None

    def __post_init__(self):
        if self.x_bar is not None and self.x_bar.shape != (self.n,):
            raise ValueError("reference point has wrong dimension")
        if self.c_lin.shape != (self.n,):
            raise ValueError("objective linear term has wrong dimension")
        if self.c_quad.shape != (self.n, self.n):
            raise ValueError("objective quadratic term has wrong shape")
        linalg.check_symmetric(self.c_quad)
        linalg.check_symmetric(self.a0)
        if self.a0.shape != (self.m, self.m):
            raise ValueError("constant constraint term has wrong shape")
        if len(self.a_lin) != self.n:
            raise ValueError("need one linear constraint term per variable")
        for A in self.a_lin:
            linalg.check_symmetric(A)
            if A.shape != (self.m, self.m):
                raise ValueError("linear constraint term has wrong shape")
        for (i, j), B in self.b_quad.items():
            if not (0 <= i <= j < self.n):
                raise ValueError(f"quadratic key {(i, j)} out of range")
            linalg.check_symmetric(B)
            if B.shape != (self.m, self.m):
                raise ValueError("quadratic constraint term has wrong shape")
        # dg returns these matrices themselves, so no caller may write into them
        a_lin = tuple(np.array(A, dtype=float) for A in self.a_lin)
        for A in a_lin:
            A.flags.writeable = False
        object.__setattr__(self, "a_lin", a_lin)

    def f(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.c0 + self.c_lin @ x + 0.5 * x @ self.c_quad @ x)

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.c_lin + self.c_quad @ x

    def g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        G = linearize(self.a0, self.a_lin, x)
        for (i, j), B in self.b_quad.items():
            G = G + x[i] * x[j] * B
        return G

    def dg(self, x) -> list:
        """The read-only ``a_lin`` matrices, each b_quad term added once.

        Each entry gets its terms in b_quad order, as a sum per entry
        would add them, so the bits do not depend on the loop's shape.
        """
        x = np.asarray(x, dtype=float)
        out = list(self.a_lin)
        for (i, j), B in self.b_quad.items():
            if i == j:
                out[i] = out[i] + 2.0 * x[i] * B
            else:
                out[i] = out[i] + x[j] * B
                out[j] = out[j] + x[i] * B
        return out

    def problem(self) -> NsdpProblem:
        return NsdpProblem(
            n=self.n, m=self.m,
            f_eval=self.f, grad_f=self.grad,
            g_eval=self.g, dg_eval=self.dg,
            name=self.name,
        )


@dataclass(frozen=True)
class DiagonalEmbedding:
    """A scalar-inequality problem viewed as a diagonal matrix constraint.

    Keeps the scalar constraint callbacks alongside the embedded matrix
    problem so both sides of the correspondence stay available.
    """

    problem: NsdpProblem
    constraint_funcs: tuple
    constraint_grads: tuple

    @property
    def m(self) -> int:
        return self.problem.m

    def constraint_values(self, x) -> np.ndarray:
        return np.array([float(g(np.asarray(x, dtype=float))) for g in self.constraint_funcs])

    def constraint_gradients(self, x) -> list:
        return [np.asarray(gr(np.asarray(x, dtype=float)), dtype=float).ravel()
                for gr in self.constraint_grads]

    def active_set(self, x) -> list:
        vals = self.constraint_values(x)
        scale = 1.0 + float(np.abs(vals).max(initial=0.0))
        return [i for i, v in enumerate(vals) if abs(v) <= 1e-9 * scale]


def embed_diagonal_nlp(n: int, f_eval, grad_f, constraints, name: str = "") -> DiagonalEmbedding:
    """Embed scalar inequalities g_i(x) >= 0 as a diagonal matrix constraint.

    ``constraints`` is a sequence of (g_i, grad_g_i) callback pairs.  The
    embedded constraint is Diag(g_1(x), ..., g_m(x)); its derivative in
    x_l is Diag of the l-th gradient components.
    """
    funcs = tuple(c[0] for c in constraints)
    grads = tuple(c[1] for c in constraints)
    m = len(funcs)
    if m == 0:
        raise ValueError("need at least one scalar constraint")

    def g_eval(x):
        return np.diag([float(g(x)) for g in funcs])

    def dg_eval(x):
        J = np.column_stack([np.asarray(gr(x), dtype=float).ravel() for gr in grads])
        if J.shape != (n, m):
            raise ValueError("constraint gradient has wrong dimension")
        return [np.diag(J[l, :]) for l in range(n)]

    prob = NsdpProblem(n=n, m=m, f_eval=f_eval, grad_f=grad_f,
                       g_eval=g_eval, dg_eval=dg_eval, name=name)
    return DiagonalEmbedding(problem=prob, constraint_funcs=funcs, constraint_grads=grads)


def audit_derivatives(problem: NsdpProblem, points, rel_tol: float = 1e-4) -> float:
    """Central-difference audit of grad_f and dg against f and G.

    Returns the worst relative deviation over the given points; raises
    ValueError when it exceeds rel_tol.  Step size is 1e-6 * (1 + |x_i|)
    per coordinate.
    """
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        gf = problem.grad(x)
        dG = problem.dg(x)
        for i in range(problem.n):
            h = 1e-6 * (1.0 + abs(float(x[i])))
            e = np.zeros(problem.n)
            e[i] = h
            fd_f = (problem.f(x + e) - problem.f(x - e)) / (2.0 * h)
            scale_f = 1.0 + abs(gf[i])
            worst = max(worst, abs(fd_f - gf[i]) / scale_f)
            fd_G = (problem.g(x + e) - problem.g(x - e)) / (2.0 * h)
            scale_G = 1.0 + linalg.frob(dG[i])
            worst = max(worst, linalg.frob(fd_G - dG[i]) / scale_G)
    if worst > rel_tol:
        raise ValueError(f"derivative audit failed: relative deviation {worst:.3e}")
    return worst


# ---------------------------------------------------------------------------
# problem files (see docs/problem-format.md)

def _upper_entries(M: np.ndarray) -> list:
    m = M.shape[0]
    return [float(M[i, j]) for i in range(m) for j in range(i, m)]


def _from_upper(entries, m: int) -> np.ndarray:
    """Symmetric m x m matrix from its row-major upper-triangle entries."""
    want = m * (m + 1) // 2
    if len(entries) != want:
        raise ValueError(f"expected {want} upper-triangle entries, got {len(entries)}")
    M = np.zeros((m, m))
    it = iter(entries)
    for i in range(m):
        for j in range(i, m):
            v = float(next(it))
            M[i, j] = v
            M[j, i] = v
    return M


def _object(value, label: str, *required) -> dict:
    """A JSON object holding the ``required`` keys; ValueError otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{label} must be a JSON object")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{label} is missing {', '.join(missing)}")
    return value


def _count(value, label: str) -> int:
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{label} must be an integer")
    return int(value)


def _numbers(value, label: str) -> np.ndarray:
    """A JSON number or nested list of numbers as a finite float array."""
    def numeric(v):
        if isinstance(v, list):
            return all(numeric(u) for u in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if not numeric(value):
        raise ValueError(f"{label} must hold numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{label} is malformed: {exc}") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{label} has a non-finite entry")
    return arr


def _matrix_from_field(value, m: int, label: str) -> np.ndarray:
    """Accept an upper-triangle list or a full nested list (must be symmetric)."""
    arr = _numbers(value, label)
    if arr.ndim == 1:
        return _from_upper(arr.tolist(), m)
    if arr.shape == (m, m):
        return linalg.check_symmetric(arr)
    raise ValueError(f"{label} has shape {arr.shape}, expected ({m},{m}) or upper triangle")


def expected_table(value, label: str) -> dict:
    """An expected-verdict table: ``checks`` maps check names to statuses.

    Each status is a string or a list of strings; ValueError naming
    ``label`` otherwise.
    """
    checks = _object(_object(value, label).get("checks", {}), f"{label}.checks")
    for val in checks.values():
        if not all(isinstance(v, str) for v in (val if isinstance(val, list) else [val])):
            raise ValueError(f"{label}.checks entries must be status strings")
    return value


def problem_to_dict(p: MatrixPolyProblem) -> dict:
    d = {
        "format": "nsdp-problem/1",
        "name": p.name,
        "n": p.n,
        "m": p.m,
        "objective": {
            "constant": float(p.c0),
            "linear": [float(v) for v in p.c_lin],
            "quadratic": _upper_entries(p.c_quad),
        },
        "constraint": {
            "constant": _upper_entries(p.a0),
            "linear": [_upper_entries(A) for A in p.a_lin],
            "quadratic": [
                {"vars": [int(i), int(j)], "matrix": _upper_entries(B)}
                for (i, j), B in sorted(p.b_quad.items())
            ],
        },
    }
    if p.x_bar is not None:
        d["x_bar"] = [float(v) for v in p.x_bar]
    if p.expected:
        d["expected"] = p.expected
    return d


def problem_from_dict(d: dict) -> MatrixPolyProblem:
    """The problem a file document describes; ValueError naming a bad field."""
    if _object(d, "problem document").get("format") != "nsdp-problem/1":
        raise ValueError("unrecognized problem format tag")
    _object(d, "problem document", "n", "m", "objective", "constraint")
    n, m = _count(d["n"], "n"), _count(d["m"], "m")
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    obj = _object(d["objective"], "objective")
    con = _object(d["constraint"], "constraint", "constant", "linear")
    a_lin = con["linear"]
    if not isinstance(a_lin, list) or len(a_lin) != n:
        raise ValueError(f"constraint.linear must be a list of {n} matrices")
    quadratic = con.get("quadratic", [])
    if not isinstance(quadratic, list):
        raise ValueError("constraint.quadratic must be a list")
    b_quad = {}
    for item in quadratic:
        item = _object(item, "constraint.quadratic term", "vars", "matrix")
        pair = item["vars"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("constraint.quadratic vars must be a pair of indices")
        i, j = (_count(v, "constraint.quadratic vars") for v in pair)
        if i > j:
            raise ValueError(f"quadratic term vars must satisfy i <= j, got {(i, j)}")
        key = (i, j)
        if key in b_quad:
            raise ValueError(f"duplicate quadratic term for vars {key}")
        b_quad[key] = _matrix_from_field(item["matrix"], m,
                                         "constraint.quadratic matrix")
    c0 = _numbers(obj.get("constant", 0.0), "objective.constant")
    if c0.ndim != 0:
        raise ValueError("objective.constant must be a number")
    name = d.get("name", "")
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    expected = d.get("expected")
    if expected is not None:
        expected_table(expected, "expected")
    return MatrixPolyProblem(
        n=n, m=m, c0=float(c0),
        c_lin=_numbers(obj["linear"], "objective.linear") if "linear" in obj
        else np.zeros(n),
        c_quad=_matrix_from_field(obj["quadratic"], n, "objective.quadratic")
        if "quadratic" in obj else np.zeros((n, n)),
        a0=_matrix_from_field(con["constant"], m, "constraint.constant"),
        a_lin=tuple(_matrix_from_field(A, m, "constraint.linear matrix") for A in a_lin),
        b_quad=b_quad,
        name=name,
        x_bar=(_numbers(d["x_bar"], "x_bar") if d.get("x_bar") is not None else None),
        expected=expected,
    )


def load_problem(path) -> MatrixPolyProblem:
    with open(path, "r") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"problem file is not valid JSON: {exc}") from exc
    return problem_from_dict(d)


def save_problem(p: MatrixPolyProblem, path) -> None:
    _atomic_write(path, json.dumps(problem_to_dict(p), indent=2, sort_keys=True) + "\n")


def _atomic_write(path, text: str) -> None:
    """Write text to path through a sibling .tmp file and one rename.

    A reader sees the old file or the whole new one, never a part.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
