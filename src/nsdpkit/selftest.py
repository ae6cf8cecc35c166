"""Randomized property suites runnable from the CLI and the tests.

Each suite draws its cases from a seeded generator, checks an exact or
independent oracle, and reports the failures verbatim, so a regression
run can re-execute the same evidence the test suite relies on.  Exact
oracles use rational arithmetic (fractions) on small integer inputs;
the numeric kernels must agree with them bit for bit on the dependence
question itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import caratheodory, linalg, solvers


@dataclass(frozen=True)
class PropResult:
    name: str
    cases: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(90, tag)))


def _random_sym(rng, m: int) -> np.ndarray:
    A = rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-2.0, 2.0)
    return linalg.sym_part(A)


def moreau_identities(cases: int = 500, seed: int = 0) -> PropResult:
    """plus - minus = M, orthogonal parts, both positive semidefinite."""
    rng = _rng(seed, 1)
    failures = []
    for k in range(cases):
        m = int(rng.integers(1, 7))
        M = _random_sym(rng, m)
        plus, minus = linalg.moreau_split(M)
        tol = 1e-9 * (1.0 + linalg.frob(M))
        if linalg.frob(plus - minus - M) > tol:
            failures.append(f"case {k}: decomposition residual")
        if abs(linalg.inner(plus, minus)) > 1e-9 * (1.0 + linalg.frob(plus) * linalg.frob(minus)):
            failures.append(f"case {k}: parts not orthogonal")
        for part, label in ((plus, "plus"), (minus, "minus")):
            lam = linalg.eigenvalues(part)
            if lam.size and float(lam[-1]) < -tol:
                failures.append(f"case {k}: {label} part not PSD")
    return PropResult("moreau-identities", cases, tuple(failures[:10]))


def projection_optimality(cases: int = 500, candidates: int = 50, seed: int = 0) -> PropResult:
    """The PSD projection is at least as close as sampled PSD matrices."""
    rng = _rng(seed, 2)
    failures = []
    for k in range(cases):
        m = int(rng.integers(1, 6))
        M = _random_sym(rng, m)
        P = linalg.proj_psd(M)
        base = linalg.frob(M - P)
        tol = 1e-9 * (1.0 + linalg.frob(M))
        for _ in range(candidates):
            A = rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-2.0, 2.0)
            Z = A @ A.T
            if linalg.frob(M - Z) < base - tol:
                failures.append(f"case {k}: sampled PSD point beats the projection")
                break
    return PropResult("projection-optimality", cases, tuple(failures[:10]))


# ---------------------------------------------------------------------------
# exact rational oracles


def _fraction_rank(vectors) -> int:
    """Exact rank of integer-valued vectors by fraction elimination."""
    rows = [[Fraction(int(round(v))) for v in vec] for vec in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_col = 0
    while rank < len(rows) and pivot_col < cols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][pivot_col] != 0), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][pivot_col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][pivot_col] != 0:
                factor = rows[r][pivot_col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank


def _fraction_solve(A, b):
    """Solve the exact square system A x = b; None when singular."""
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        lead = M[col][col]
        M[col] = [v / lead for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [a - factor * b2 for a, b2 in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def _exact_pos_dep(vectors) -> bool:
    """Existence of a nonnegative unit-sum vanishing combination.

    The feasible set is a polytope; when nonempty it has a vertex
    supported on at most dim+1 vectors whose lifted columns are
    independent, so enumerating exact solves over small supports
    decides the question.
    """
    k = len(vectors)
    d = len(vectors[0])
    lifted = [[Fraction(int(round(v))) for v in vec] + [Fraction(1)] for vec in vectors]
    target = [Fraction(0)] * d + [Fraction(1)]
    for size in range(1, min(k, d + 1) + 1):
        for S in itertools.combinations(range(k), size):
            cols = [lifted[i] for i in S]
            if _fraction_rank(cols) != size:
                continue
            # pick `size` independent rows of the lifted system
            rows_idx = []
            for r in range(d + 1):
                trial = rows_idx + [r]
                probe = [[cols[j][i] for j in range(size)] for i in trial]
                if _fraction_rank([list(row) for row in zip(*probe)]) == len(trial):
                    rows_idx = trial
                if len(rows_idx) == size:
                    break
            square = [[cols[j][r] for j in range(size)] for r in rows_idx]
            rhs = [target[r] for r in rows_idx]
            lam = _fraction_solve(square, rhs)
            if lam is None or any(v < 0 for v in lam):
                continue
            full = all(
                sum(cols[j][r] * lam[j] for j in range(size)) == target[r]
                for r in range(d + 1))
            if full:
                return True
    return False


def dependence_oracles(cases: int = 500, seed: int = 0) -> PropResult:
    """Numeric dependence tests versus exact rational oracles."""
    rng = _rng(seed, 3)
    failures = []
    for k in range(cases):
        d = int(rng.integers(1, 5))
        count = int(rng.integers(1, 5))
        fam = [rng.integers(-3, 4, size=d).astype(float) for _ in range(count)]
        exact_dep = _fraction_rank(fam) < count
        got_dep = linalg.lin_dependent(fam)
        if got_dep != exact_dep:
            failures.append(f"case {k}: lin_dependent={got_dep}, exact={exact_dep}")
        exact_pos = _exact_pos_dep(fam)
        got_pos = linalg.pos_lin_dependent(fam)
        if got_pos != exact_pos:
            failures.append(f"case {k}: pos_lin_dependent={got_pos}, exact={exact_pos}")
    return PropResult("dependence-oracles", cases, tuple(failures[:10]))


def caratheodory_postconditions(cases: int = 500, seed: int = 0) -> PropResult:
    """Reduction keeps the sum, an independent support, and signs."""
    rng = _rng(seed, 4)
    failures = []
    for k in range(cases):
        d = int(rng.integers(1, 5))
        count = int(rng.integers(1, 7))
        fam = [rng.integers(-3, 4, size=d).astype(float) for _ in range(count)]
        weights = rng.integers(0, 4, size=count).astype(float)
        total = sum(w * v for w, v in zip(weights, fam))
        red = caratheodory.reduce(fam, weights)
        scale = 1.0 + linalg.frob(total)
        combined = red.combined() if red.vectors else np.zeros(d)
        if linalg.frob(combined - total) > 1e-9 * scale:
            failures.append(f"case {k}: combination changed")
        if red.vectors and _fraction_rank([np.asarray(v) for v in red.vectors]) < len(red.vectors):
            failures.append(f"case {k}: support still dependent")
        if any(c < 0 for c in red.coeffs):
            failures.append(f"case {k}: sign flipped")
        if len(red.indices) > d:
            failures.append(f"case {k}: support larger than the dimension")
    return PropResult("caratheodory-postconditions", cases, tuple(failures[:10]))


def al_gradient_fd(problems, cases: int = 500, seed: int = 0) -> PropResult:
    """Augmented Lagrangian gradient versus central finite differences."""
    rng = _rng(seed, 5)
    problems = list(problems)
    failures = []
    for k in range(cases):
        problem = problems[k % len(problems)]
        x = rng.normal(size=problem.n)
        rho = float(10.0 ** rng.integers(0, 3))
        A = rng.normal(size=(problem.m, problem.m))
        Yt = A @ A.T
        grad = solvers.al_gradient(problem, x, rho, Yt)
        fd = np.zeros(problem.n)
        for i in range(problem.n):
            h = 1e-6 * (1.0 + abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (solvers.al_value(problem, xp, rho, Yt)
                     - solvers.al_value(problem, xm, rho, Yt)) / (2.0 * h)
        err = linalg.frob(grad - fd)
        if err > 1e-5 * (1.0 + linalg.frob(grad)):
            failures.append(f"case {k} ({problem.name}): gradient error {err:.2e}")
    return PropResult("al-gradient-fd", cases, tuple(failures[:10]))


def run_all(problems, cases: int = 500, seed: int = 0):
    """Every suite at the given size; returns the list of results."""
    return [
        moreau_identities(cases, seed),
        projection_optimality(cases, 50, seed),
        dependence_oracles(cases, seed),
        caratheodory_postconditions(cases, seed),
        al_gradient_fd(problems, cases, seed),
    ]
