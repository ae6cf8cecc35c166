"""Built-in reference problems with expected diagnostic outcomes.

Each fixture bundles a small matrix-constrained problem, the reference
point the diagnostics target, a starting point for the solvers, and any
witness curves the samplers should try before their generic dictionary.
Expected verdicts ship as data in ``data/expected_verdicts.json`` so the
regression oracle stays auditable in one file; the registry checks that
every table respects the implication ordering among the conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import model
from .cq import CHECKS, WitnessCurve, broken_implications


@dataclass(frozen=True)
class Fixture:
    """A problem plus everything the tooling needs to run it.

    Built-in fixtures come from the registry; the CLI wraps a problem
    file in one too, with the file's point and expected table.  ``x_bar``
    is None when a problem file names no reference point.
    """

    fixture_id: str
    problem: model.NsdpProblem
    x_bar: np.ndarray | None
    x0: np.ndarray
    description: str = ""
    curves: tuple = ()
    embedding: model.DiagonalEmbedding | None = None
    expected: dict = field(default_factory=dict)

    def allowed(self, check: str):
        """Expected statuses for a check as a tuple, or None if untracked."""
        val = self.expected.get("checks", {}).get(check)
        if val is None:
            return None
        return tuple(val) if isinstance(val, list) else (val,)


def _expected_tables(tables_path=None) -> dict:
    if tables_path is not None:
        with open(tables_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    path = resources.files("nsdpkit").joinpath("data/expected_verdicts.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# matrix fixtures


def _only_feasible_point():
    """Coupled constraint whose feasible set is the single point 0.

    The eigenvalues of G are 2x + x^2 and -x^2, so feasibility forces
    x = 0, where no Lagrange multiplier exists: the adjoint of the
    derivative maps PSD matrices to nonnegative numbers while the
    objective gradient demands -1.  Multiplier estimates from penalty
    runs diverge.  The x < 0 ray is the registered witness sequence for
    the limiting conditions.
    """

    def g(x):
        return np.array([[x[0], x[0] + x[0] ** 2],
                         [x[0] + x[0] ** 2, x[0]]])

    def dg(x):
        return [np.array([[1.0, 1.0 + 2.0 * x[0]],
                          [1.0 + 2.0 * x[0], 1.0]])]

    problem = model.NsdpProblem(
        n=1, m=2,
        f_eval=lambda x: -float(x[0]),
        grad_f=lambda x: np.array([-1.0]),
        g_eval=g, dg_eval=dg, name="ex-3.1")
    curves = (WitnessCurve(name="neg-ray", kind="x",
                           func=lambda t: np.array([-t])),)
    return problem, np.array([0.0]), np.array([0.5]), curves


def _halfplane_with_fold():
    """Feasible half-plane x1 >= 0 reached through a quadratic fold.

    The kernel eigenvector of G rotates with x2, so the diagonal
    v-family changes rank along the x2 axis while Robinson's condition
    holds via the strictly feasible direction e1.
    """

    def g(x):
        return np.array([[2.0 * x[0] + x[1] ** 2, -x[1] ** 2],
                         [-x[1] ** 2, 2.0 * x[0] + x[1] ** 2]])

    def dg(x):
        return [np.array([[2.0, 0.0], [0.0, 2.0]]),
                np.array([[2.0 * x[1], -2.0 * x[1]],
                          [-2.0 * x[1], 2.0 * x[1]]])]

    problem = model.NsdpProblem(
        n=2, m=2,
        f_eval=lambda x: float(x[0]),
        grad_f=lambda x: np.array([1.0, 0.0]),
        g_eval=g, dg_eval=dg, name="ex-3.2")
    return problem, np.array([0.0, 0.0]), np.array([0.5, 0.0]), ()


def _sign_split_quadratic():
    """Opposite signs on the diagonal coupled by a quadratic off-diagonal.

    Feasibility again pins x = 0.  The limiting constant-rank conditions
    hold there even though Robinson's condition fails, so this instance
    separates the two families.
    """

    def g(x):
        return np.array([[x[0], x[0] ** 2], [x[0] ** 2, -x[0]]])

    def dg(x):
        return [np.array([[1.0, 2.0 * x[0]], [2.0 * x[0], -1.0]])]

    problem = model.NsdpProblem(
        n=1, m=2,
        f_eval=lambda x: float(x[0]),
        grad_f=lambda x: np.array([1.0]),
        g_eval=g, dg_eval=dg, name="ex-3.3")
    return problem, np.array([0.0]), np.array([0.5]), ()


def _opposed_diagonal():
    """Diag(x, -x): limiting conditions hold, robust counterparts fail.

    The registered curve supplies the perturbation that rotates the
    kernel basis while keeping it an exact eigenbasis: along x(t) = t
    the shift places eigenvalues (t, 2t) on the rotated columns, whose
    leading column carries v11(t) = (1 - (1+t)^2) / (1 + (1+t)^2), a
    zero limit that the unperturbed problem cannot produce.
    """

    def g(x):
        return np.array([[x[0], 0.0], [0.0, -x[0]]])

    def dg(x):
        return [np.array([[1.0, 0.0], [0.0, -1.0]])]

    problem = model.NsdpProblem(
        n=1, m=2,
        f_eval=lambda x: float(x[0]),
        grad_f=lambda x: np.array([1.0]),
        g_eval=g, dg_eval=dg, name="ex-4.1")

    def shifted_curve(t):
        h = np.sqrt(1.0 + (t + 1.0) ** 2)
        U = np.array([[-1.0, t + 1.0], [t + 1.0, 1.0]]) / h
        x = np.array([t])
        M = U @ np.diag([t, 2.0 * t]) @ U.T
        return x, M - g(x)

    curves = (WitnessCurve(name="aligned-shift", kind="x-delta",
                           func=shifted_curve),)
    return problem, np.array([0.0]), np.array([0.5]), curves


def _scaled_identity():
    """x times the identity: the benign fully-degenerate instance.

    Both sequential conditions hold; the augmented Lagrangian converges
    in two outer iterations with an exact multiplier.
    """

    def g(x):
        return np.array([[x[0], 0.0], [0.0, x[0]]])

    def dg(x):
        return [np.eye(2)]

    problem = model.NsdpProblem(
        n=1, m=2,
        f_eval=lambda x: float(x[0]),
        grad_f=lambda x: np.array([1.0]),
        g_eval=g, dg_eval=dg, name="ex-4.2")
    return problem, np.array([0.0]), np.array([1.0]), ()


def _rotation_pair():
    """Constraint spanning a two-dimensional rotation of Diag(1, -1).

    v11 = -v22 exactly at every point and basis, so Robinson's condition
    fails instantly, yet the sequential conditions hold and the metric
    subregularity modulus is exactly one on a ball around the origin.
    """

    def g(x):
        return np.array([[x[0], x[1]], [x[1], -x[0]]])

    def dg(x):
        return [np.array([[1.0, 0.0], [0.0, -1.0]]),
                np.array([[0.0, 1.0], [1.0, 0.0]])]

    problem = model.NsdpProblem(
        n=2, m=2,
        f_eval=lambda x: float(x[0]),
        grad_f=lambda x: np.array([1.0, 0.0]),
        g_eval=g, dg_eval=dg, name="ex-4.3")
    return problem, np.array([0.0, 0.0]), np.array([0.3, 0.2]), ()


# ---------------------------------------------------------------------------
# scalar-constraint fixtures embedded as diagonal matrix problems


def _nlp_opposite_sign():
    """The equality x = 0 written as two opposing inequalities.

    x >= 0 and -x >= 0 give opposite gradients at every point."""
    emb = model.embed_diagonal_nlp(
        1,
        lambda x: float(x[0]),
        lambda x: np.array([1.0]),
        [(lambda x: x[0], lambda x: np.array([1.0])),
         (lambda x: -x[0], lambda x: np.array([-1.0]))],
        name="nlp-opposite-sign")
    return emb, np.array([0.0]), np.array([0.7])


def _nlp_coords():
    """Independent bound constraints x1 >= 0, x2 >= 0."""
    emb = model.embed_diagonal_nlp(
        2,
        lambda x: float(x[0] + x[1]),
        lambda x: np.array([1.0, 1.0]),
        [(lambda x: x[0], lambda x: np.array([1.0, 0.0])),
         (lambda x: x[1], lambda x: np.array([0.0, 1.0]))],
        name="nlp-coords")
    return emb, np.array([0.0, 0.0]), np.array([0.5, 0.8])


def _nlp_zero_grad():
    """Always-satisfied x^2 >= 0 with a vanishing gradient at 0.

    The gradient rank jumps from zero to one along every ray."""
    emb = model.embed_diagonal_nlp(
        1,
        lambda x: float(x[0] ** 2),
        lambda x: np.array([2.0 * x[0]]),
        [(lambda x: x[0] ** 2, lambda x: np.array([2.0 * x[0]]))],
        name="nlp-zero-grad")
    return emb, np.array([0.0]), np.array([0.5])


def _nlp_parallel():
    """Redundant parallel constraints x >= 0 and 2x >= 0.

    The gradients are dependent of constant rank but never positively
    dependent."""
    emb = model.embed_diagonal_nlp(
        1,
        lambda x: float(x[0]),
        lambda x: np.array([1.0]),
        [(lambda x: x[0], lambda x: np.array([1.0])),
         (lambda x: 2.0 * x[0], lambda x: np.array([2.0]))],
        name="nlp-parallel")
    return emb, np.array([0.0]), np.array([0.5])


def _nlp_redundant_curve():
    """x1 >= 0 beside the redundant x1 + x2^2 >= 0.

    The two gradients coincide at the origin but split along the x2
    axis, breaking constant rank."""
    emb = model.embed_diagonal_nlp(
        2,
        lambda x: float(x[0] + x[1] ** 2),
        lambda x: np.array([1.0, 2.0 * x[1]]),
        [(lambda x: x[0], lambda x: np.array([1.0, 0.0])),
         (lambda x: x[0] + x[1] ** 2, lambda x: np.array([1.0, 2.0 * x[1]]))],
        name="nlp-curve")
    return emb, np.array([0.0, 0.0]), np.array([0.4, 0.3])


_MATRIX_BUILDERS = {
    "ex-3.1": _only_feasible_point,
    "ex-3.2": _halfplane_with_fold,
    "ex-3.3": _sign_split_quadratic,
    "ex-4.1": _opposed_diagonal,
    "ex-4.2": _scaled_identity,
    "ex-4.3": _rotation_pair,
}

_NLP_BUILDERS = {
    "nlp-opposite-sign": _nlp_opposite_sign,
    "nlp-coords": _nlp_coords,
    "nlp-zero-grad": _nlp_zero_grad,
    "nlp-parallel": _nlp_parallel,
    "nlp-curve": _nlp_redundant_curve,
}


class FixtureRegistry:
    """All built-in fixtures, keyed by id.

    Raises ValueError at construction when any expected-verdict table
    breaks the implication ordering, so a corrupted data file cannot be
    loaded silently.
    """

    def __init__(self, tables_path=None):
        tables = _expected_tables(tables_path)
        self._fixtures = {}
        for fid, builder in _MATRIX_BUILDERS.items():
            problem, x_bar, x0, curves = builder()
            self._fixtures[fid] = Fixture(
                fixture_id=fid, problem=problem, x_bar=x_bar, x0=x0,
                description=builder.__doc__.strip().splitlines()[0],
                curves=curves, expected=tables.get(fid, {}))
        for fid, builder in _NLP_BUILDERS.items():
            emb, x_bar, x0 = builder()
            self._fixtures[fid] = Fixture(
                fixture_id=fid, problem=emb.problem, x_bar=x_bar, x0=x0,
                description=builder.__doc__.strip().splitlines()[0],
                embedding=emb, expected=tables.get(fid, {}))
        problems = self._check_tables()
        if problems:
            raise ValueError("expected-verdict tables break the implication "
                             "ordering: " + "; ".join(problems))

    def _check_tables(self):
        """Tables that break an arrow (see ``cq.broken_implications``)."""
        return [f"{fix.fixture_id}: {strong} holds but {weak} violated"
                for fix in self._fixtures.values()
                for strong, weak in broken_implications(
                    {name: fix.allowed(name) for name in CHECKS})]

    def names(self):
        return sorted(self._fixtures)

    def get(self, fixture_id: str) -> Fixture:
        try:
            return self._fixtures[fixture_id]
        except KeyError:
            raise KeyError(f"unknown fixture {fixture_id!r}; available: "
                           + ", ".join(self.names())) from None

    def __iter__(self):
        return iter(self._fixtures.values())

    def __len__(self) -> int:
        return len(self._fixtures)


_default_registry = None


def default_registry() -> FixtureRegistry:
    """The shared registry instance (fixtures are immutable)."""
    global _default_registry
    if _default_registry is None:
        _default_registry = FixtureRegistry()
    return _default_registry
