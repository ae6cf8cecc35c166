"""Constraint qualification diagnostics for matrix-inequality problems.

Every check works on eigenvector families of the constraint matrix.  At a
feasible point with rank r, the vectors v_ij(x, E) collect the curvature of
G against pairs of columns of an orthonormal basis E for the small
eigenspace; linear or positive dependence inside those families is what
separates nondegeneracy, Robinson's condition, and the weaker sequential
and limiting constant-rank conditions from each other.

The samplers here can certify a condition, exhibit a concrete violation
witness, or report that no violation was found within the budget.  Witness
payloads carry enough data (points, bases, shifts) to be replayed
bit for bit by ``replay_witness``.

``CHECKS`` registers every check once: its runner, the replay of each
witness kind it emits, its dependence test and its implication arrows.
Runners take a ``PointContext``, so checks at the same point share the
feasibility gate, the kernel basis and the free-basis dictionary.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import linalg, model, solvers

CERTIFIED_HOLDS = "CERTIFIED_HOLDS"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"
VIOLATED = "VIOLATED"
STATUSES = (CERTIFIED_HOLDS, NO_VIOLATION_FOUND, VIOLATED)

#: subset enumeration over the small eigenspace is exponential in m - r
COMBINATORIAL_CAP = 12
#: the msr projection solves' stop rule: 20 non-improving inner iterations,
#: not the default 200, whose plateaus were most of check_msr's time and
#: moved no measured distance by more than ~1e-12 relative
PROJECTION_CONFIG = solvers.AlConfig(stagnation_window=20)
#: the msr trend rule: a sampled ratio above MSR_CAP, or growth by more
#: than MSR_GROWTH as the ball shrinks, calls the modulus unbounded
MSR_GROWTH = 3.0
MSR_CAP = 100.0


class InfeasiblePointError(ValueError):
    """Raised when a diagnostic is requested at an infeasible point."""

    def __init__(self, infeasibility: float, name: str = ""):
        self.infeasibility = float(infeasibility)
        where = f" of problem {name}" if name else ""
        super().__init__(
            f"point{where} is infeasible: ||proj_psd(-G)|| = {infeasibility:.3e}")


class CombinatorialCapError(ValueError):
    """Raised when m - r exceeds the subset-enumeration cap."""


@dataclass(frozen=True)
class CqBudget:
    """Sampling effort shared by all constraint qualification checks.

    ``shrink_levels`` sequences use step sizes t0 * 2^-j, j = 0..L-1; a
    violation needs the trailing ``consecutive`` levels to agree.  ``n_q``
    bounds the Haar draws over kernel bases, ``angle_grid`` the grid of
    the rotation sweep over a two-dimensional kernel, whose angles cost
    float arithmetic on one contraction of the derivatives per point.
    robinson ascends ``robinson_iters`` steps from d = 0, then from the
    other ``robinson_restarts - 1`` random starts only if no free basis
    gives a replaying positive-dependence witness, which ends the check.
    """

    n_directions: int = 32
    n_q: int = 64
    shrink_levels: int = 12
    t0: float = 0.1
    n_basis_samples: int = 6
    n_stiefel: int = 4
    consecutive: int = 3
    angle_grid: int = 256
    robinson_iters: int = 200
    robinson_restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 8 <= self.shrink_levels <= 20:
            raise ValueError("shrink_levels must lie in [8, 20]")
        if self.t0 <= 0.0:
            raise ValueError("t0 must be positive")
        if not 1 <= self.consecutive <= self.shrink_levels:
            raise ValueError("consecutive must lie in [1, shrink_levels]")
        if self.n_directions < 0 or self.n_q < 0 or self.n_stiefel < 0 \
                or self.n_basis_samples < 0:
            raise ValueError("sample counts must be nonnegative")
        if self.angle_grid < 16:
            raise ValueError("angle_grid must be at least 16")
        if self.robinson_iters < 1 or self.robinson_restarts < 1:
            raise ValueError("robinson search needs at least one iteration")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class WitnessCurve:
    """A registered curve feeding extra sequences into the samplers.

    ``kind`` is "x" for plain point curves t -> x(t), or "x-delta" for
    point/shift curves t -> (x(t), Delta(t)) whose shifted constraint
    G(x(t)) + Delta(t) carries the eigenvector sequence.
    """

    name: str
    kind: str
    func: object

    def __post_init__(self):
        if self.kind not in ("x", "x-delta"):
            raise ValueError("curve kind must be 'x' or 'x-delta'")


@dataclass(frozen=True)
class CqVerdict:
    """Outcome of one constraint qualification check at one point."""

    condition: str
    status: str
    problem_name: str
    m: int
    n: int
    rank: int
    x_bar: tuple
    seed: int
    budget: dict
    epsilons: dict
    notes: tuple = ()
    witness: dict | None = None

    def to_payload(self) -> dict:
        """The fields as JSON values, ``problem_name`` under "problem"."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["problem"] = payload.pop("problem_name")
        return _jsonify(payload)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def verdict_to_text(verdict: CqVerdict, generated_at: str | None = None) -> str:
    """Serialized verdict with a timestamp header excluded from hashing."""
    stamp = generated_at or datetime.now(timezone.utc).isoformat()
    body = json.dumps(verdict.to_payload(), indent=2, sort_keys=True)
    return f"# generated-at: {stamp}\n{body}\n"


def write_verdict(verdict: CqVerdict, path) -> str:
    text = verdict_to_text(verdict)
    model._atomic_write(path, text)
    return text


def read_verdict(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return json.loads("\n".join(lines))


def content_digest(text: str) -> str:
    """SHA-256 over all lines except the generated-at header."""
    kept = [ln for ln in text.splitlines() if not ln.startswith("# generated-at:")]
    return hashlib.sha256(("\n".join(kept) + "\n").encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# shared plumbing


def _rng(seed: int, *key) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _feasibility_gate(problem: model.NsdpProblem, x_bar):
    """The one gate a point passes: n finite numbers, then G(x) PSD."""
    x = np.asarray(x_bar, dtype=float)
    if x.shape != (problem.n,) or not np.isfinite(x).all():
        raise ValueError(f"point of {problem.name} must be {problem.n} finite "
                         f"numbers, got {np.array2string(x, threshold=6)}")
    G = problem.g(x)
    dec = linalg.spectral_decompose(G)
    tol = linalg.EPS_PSD_FACTOR * (1.0 + linalg.frob(G))
    if float(dec.eigenvalues[-1]) < -tol:
        raise InfeasiblePointError(linalg.frob(linalg.proj_psd(-G)), problem.name)
    return x, G, dec, dec.psd_rank()


def _unit_directions(n: int, extra: int, rng: np.random.Generator) -> list:
    dirs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    for _ in range(extra):
        g = rng.standard_normal(n)
        nrm = linalg.frob(g)
        if nrm > 1e-12:
            dirs.append(g / nrm)
    seen = set()
    out = []
    for d in dirs:
        key = tuple(round(float(v), 9) for v in d)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


def _levels(budget: CqBudget) -> list:
    return [budget.t0 * 2.0 ** (-j) for j in range(budget.shrink_levels)]


def _subsets(q: int) -> list:
    """Every nonempty subset of range(q); CombinatorialCapError past the cap."""
    if q > COMBINATORIAL_CAP:
        raise CombinatorialCapError(f"subset enumeration over {q} columns "
                                    f"exceeds the cap {COMBINATORIAL_CAP}")
    out = []
    for size in range(1, q + 1):
        out.extend(itertools.combinations(range(q), size))
    return out


def _cluster_pattern(values_desc: np.ndarray, tol: float) -> tuple:
    """Block sizes of consecutive numerically equal eigenvalues."""
    vals = np.asarray(values_desc, dtype=float)
    if vals.size == 0:
        return ()
    sizes = []
    cur = 1
    for a, b in zip(vals[:-1], vals[1:]):
        if (a - b) <= tol:
            cur += 1
        else:
            sizes.append(cur)
            cur = 1
    sizes.append(cur)
    return tuple(sizes)


def _block_rotation(pattern: tuple, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix rotating only inside equal-eigenvalue blocks."""
    q = sum(pattern)
    Q = np.zeros((q, q))
    at = 0
    for b in pattern:
        Q[at:at + b, at:at + b] = linalg.haar_orthogonal(b, rng) if b > 1 \
            else np.ones((1, 1))
        at += b
    return Q


def _extrapolated_limit(chain: list) -> np.ndarray | None:
    """Limit basis of an aligned chain via one Richardson step.

    With eigenvector error O(t) per level and a halving step, the
    combination 2 E_L - E_{L-1} cancels the first-order term, which is
    what lets exact-zero premise values at the limit pass the rank
    threshold.  Chains that fail to settle are rejected.
    """
    E_last, E_prev = chain[-1], chain[-2]
    E_bar = linalg.orthonormal_columns(2.0 * E_last - E_prev)
    if linalg.frob(E_bar - E_last) > 0.2 * max(1.0, math.sqrt(E_last.shape[1])):
        return None
    return E_bar


def _golden_min(fun, a: float, b: float):
    """Golden-section minimization on [a, b], 70 steps; returns (argmin, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(70):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    if fc <= fd:
        return c, fc
    return d, fd


def _rotated_diagonals(problem: model.NsdpProblem, x_bar, E0: np.ndarray):
    """theta -> (v1, v2) of E0 R(theta) on floats: with c, s = cos, sin theta,
    v1 = c^2 v00 + cs (v01 + v10) + s^2 v11 and v2 = s^2 v00 - cs (v01 + v10)
    + c^2 v11, exact also for D_l asymmetric within EPS_SYM.  Evaluated as
    h +- (q cos 2theta + p sin 2theta), h, q, p = (v00 + v11, v00 - v11,
    v01 + v10) / 2: near a zero the last subtraction is exact (Sterbenz)."""
    v00, v01, v10, v11 = (v.tolist() for v in model.curvature_vectors(
        problem, x_bar, E0, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    hs = [0.5 * (a + b) for a, b in zip(v00, v11)]
    qs = [0.5 * (a - b) for a, b in zip(v00, v11)]
    ps = [0.5 * (a + b) for a, b in zip(v01, v10)]

    def rotated(theta: float) -> tuple:
        c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
        r = [q * c + p * s for q, p in zip(qs, ps)]
        return [h + t for h, t in zip(hs, r)], [h - t for h, t in zip(hs, r)]

    return rotated


def _sweep_candidates(problem: model.NsdpProblem, x_bar, E0: np.ndarray,
                      scale_v: float, budget: CqBudget) -> list:
    """Deterministic rotation sweep over a two-column kernel basis.

    Haar draws almost surely miss the measure-zero rotations where a
    diagonal family member vanishes or the pair becomes positively
    dependent, so those angles are located by a grid plus golden-section
    refinement of four dependence measures of ``_rotated_diagonals``'s
    (v1, v2), on Python floats: |v1| and |v2| by ``math.hypot``, the
    distance from 0 to [v2, v1] from ``math.fsum`` dots, and sigma_min
    as |v1 ^ v2| / sigma_max, the wedge over the 2x2 minors (Lagrange's
    identity, no cancellation).  The measures only screen angles: the
    callers re-test each returned basis before using it.
    """
    if E0.shape[1] != 2:
        return []
    rotated = _rotated_diagonals(problem, x_bar, E0)
    minors = list(itertools.combinations(range(problem.n), 2))

    def basis(theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        return E0 @ np.array([[c, -s], [s, c]])

    def segment_distance(v1, v2) -> float:
        d = [a - b for a, b in zip(v1, v2)]
        dd = math.fsum(t * t for t in d)
        alpha = 0.5 if dd <= 0.0 else min(
            1.0, max(0.0, -math.fsum(b * t for b, t in zip(v2, d)) / dd))
        return math.hypot(*(b + alpha * t for b, t in zip(v2, d)))

    def sigma_min(v1, v2, m1, m2) -> float:
        half = 0.5 * (m1 * m1 + m2 * m2)
        smax2 = half + math.hypot(half - m2 * m2, math.fsum(a * b for a, b in zip(v1, v2)))
        wedge = math.hypot(*(v1[i] * v2[j] - v1[j] * v2[i] for i, j in minors))
        return wedge / math.sqrt(smax2) if smax2 > 0.0 else 0.0

    def measures(theta: float) -> tuple:
        v1, v2 = rotated(theta)
        m1, m2 = math.hypot(*v1), math.hypot(*v2)
        return m1, m2, segment_distance(v1, v2), sigma_min(v1, v2, m1, m2)

    def measure(theta: float, obj: int) -> float:
        """``measures(theta)[obj]`` from the same expressions, computing it alone."""
        v1, v2 = rotated(theta)
        if obj == 0:
            return math.hypot(*v1)
        if obj == 1:
            return math.hypot(*v2)
        if obj == 2:
            return segment_distance(v1, v2)
        return sigma_min(v1, v2, math.hypot(*v1), math.hypot(*v2))

    grid = budget.angle_grid
    h = math.pi / grid
    thetas = [k * h for k in range(grid)]
    table = [measures(t) for t in thetas]
    accept = 1e-5 * scale_v
    screen = 1e-2 * scale_v  # a zero this close to a grid point is worth refining
    found = []
    for obj in range(4):
        series = [row[obj] for row in table]
        if max(series) <= accept:
            continue  # flat-zero measure: the canonical basis already has it
        coarse = []
        for k in range(grid):
            prev_v = series[(k - 1) % grid]
            next_v = series[(k + 1) % grid]
            if series[k] <= min(prev_v, next_v) and series[k] <= screen:
                coarse.append((series[k], k))
        coarse.sort()
        hits = []
        for _, k in coarse[:8]:
            theta_star, val = _golden_min(lambda th, o=obj: measure(th, o),
                                          thetas[k] - h, thetas[k] + h)
            if val <= accept:
                hits.append((val, theta_star % math.pi))
        hits.sort(key=lambda t: (t[0], t[1]))
        found.extend(th for _, th in hits)
    deduped = []
    for th in sorted(found):
        if all(min(abs(th - u), math.pi - abs(th - u)) > 1e-6 for u in deduped):
            deduped.append(th)
    return [(f"sweep@{th:.8f}", basis(th)) for th in deduped]


@dataclass(frozen=True, eq=False)
class PointContext:
    """The point work every check at one (problem, x_bar, budget) shares.

    ``at`` runs the feasibility gate once and keeps the decomposition of
    G(x_bar), its rank r, the derivative scale ``scale_v`` and the kernel
    basis ``E0`` (None at full rank).  The rotation sweep and the Haar
    draws over kernel bases are built on first use and then reused, so
    checks that never probe free bases (nondegeneracy, msr) do not pay
    for them.  ``curves``, ``embedding`` and ``msr_samples`` are the rest
    of what the registered checks read: the problem's witness curves, its
    scalar form when it is a diagonal embedding, and the msr sample count.
    ``active`` and ``grads`` are set on the ``scalar`` view alone.
    """

    problem: model.NsdpProblem
    x: np.ndarray
    G: np.ndarray
    dec: linalg.SpectralDecomp
    r: int
    scale_v: float
    E0: np.ndarray | None
    budget: CqBudget
    curves: tuple = ()
    embedding: model.DiagonalEmbedding | None = None
    msr_samples: int = 200
    active: tuple = ()
    grads: tuple = ()

    @classmethod
    def at(cls, problem: model.NsdpProblem, x_bar,
           budget: CqBudget | None = None, curves=(), embedding=None,
           msr_samples: int = 200) -> "PointContext":
        x, G, dec, r = _feasibility_gate(problem, x_bar)
        Ds = problem.dg(x)
        # the derivative magnitude is the floor for every rank test
        scale_v = max(1.0, max((linalg.frob(D) for D in Ds), default=0.0))
        E0 = dec.kernel_basis(r) if r < problem.m else None
        return cls(problem=problem, x=x, G=G, dec=dec, r=r, scale_v=scale_v,
                   E0=E0, budget=budget or CqBudget(), curves=tuple(curves),
                   embedding=embedding, msr_samples=msr_samples)

    def scalar(self) -> "PointContext":
        """The nlp checks' view: the scalar gate on the embedding's
        constraints, then its active set and gradients, with rank
        m - |active| and the gradient scale in place of the matrix ones."""
        emb, x = self.embedding, self.x
        vals = emb.constraint_values(x)
        if float(vals.min(initial=0.0)) \
                < -linalg.EPS_PSD_FACTOR * (1.0 + float(np.abs(vals).max(initial=0.0))):
            raise InfeasiblePointError(linalg.frob(np.minimum(vals, 0.0)), emb.problem.name)
        active, grads = tuple(emb.active_set(x)), tuple(emb.constraint_gradients(x))
        return replace(self, r=self.problem.m - len(active), active=active, grads=grads,
                       scale_v=max(1.0, max((linalg.frob(g) for g in grads), default=0.0)))

    @functools.cached_property
    def _rotated_bases(self) -> list:
        """Sweep hits, then Haar draws: the costly part of the dictionary."""
        out = _sweep_candidates(self.problem, self.x, self.E0, self.scale_v,
                                self.budget)
        haar = self.E0 @ linalg.haar_orthogonal(self.E0.shape[1], _rng(self.budget.seed, 1),
                                                self.budget.n_q)
        return out + [(f"haar-{j}", E) for j, E in enumerate(haar)]

    def free_candidates(self, curve_entries=()) -> list:
        """Kernel bases probed when every basis at x_bar is in play.

        Order is canonical, curve limits, sweep hits, Haar draws; the
        first violating candidate becomes the witness, so the
        deterministic entries lead.  Entries are (label, basis, curve
        entry or None).
        """
        return ([("canonical", self.E0, None)]
                + [(e["label"], e["E_bar"], e) for e in curve_entries]
                + [(label, E, None) for label, E in self._rotated_bases])

    def verdict(self, condition: str, status: str, witness=None,
                notes=()) -> CqVerdict:
        return CqVerdict(
            condition=condition, status=status, problem_name=self.problem.name,
            m=self.problem.m, n=self.problem.n, rank=int(self.r),
            x_bar=tuple(float(v) for v in self.x),
            seed=self.budget.seed, budget=asdict(self.budget),
            epsilons={"eps_rank": linalg.EPS_RANK, "eps_pld": linalg.EPS_PLD,
                      "eps_psd_factor": linalg.EPS_PSD_FACTOR, "scale_v": self.scale_v},
            notes=tuple(notes), witness=_jsonify(witness) if witness else None)


@dataclass(frozen=True)
class CheckSpec:
    """One constraint qualification check as the registry knows it.

    ``runner(ctx, spec)`` computes the verdict at a ``PointContext``;
    ``replay`` maps each witness kind the check emits to the function
    that re-evaluates it.  ``positive`` picks the dependence test on the
    premise family (positive linear dependence, or linear dependence
    measured against scale_v; None when the check has no premise).
    ``implies`` lists the checks that hold wherever this one holds, the
    arrows of the implication diagram.  ``scope`` says where the check
    runs unasked: "default" in every diagnose and regress pass,
    "embedding" in regress on diagonal embeddings only, "full" in the full
    regression suite only; the embedding guard ``_runs_at`` and the
    selector ``checks_in`` alone read it.
    ``limit_only`` marks the weak variants of the pointwise conditions,
    which test the limit family alone.
    """

    name: str
    runner: object
    replay: dict
    positive: bool | None = None
    implies: tuple = ()
    scope: str = "default"
    limit_only: bool = False

    def run(self, ctx: PointContext) -> CqVerdict:
        return next(run_checks(ctx, (self.name,)))[1]

    def dependent(self, scale_v: float):
        """The premise dependence test as a predicate on a vector list."""
        if self.positive:
            return linalg.pos_lin_dependent
        return lambda vectors: linalg.lin_dependent(vectors, scale_v)


def check_spec(name: str) -> CheckSpec:
    """The registered check called ``name``."""
    try:
        return CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}; known: "
                         + ", ".join(CHECKS)) from None


def _runs_at(spec: CheckSpec, embedding) -> bool:
    """The embedding guard: the scalar checks need a diagonal embedding."""
    return spec.scope != "embedding" or embedding is not None


def checks_in(scopes, embedding=None) -> tuple:
    """Names of the checks whose scope is in ``scopes``, in registry
    order, less those that need an embedding when ``embedding`` is None."""
    return tuple(name for name, spec in CHECKS.items()
                 if spec.scope in scopes and _runs_at(spec, embedding))


def run_checks(ctx: PointContext, names):
    """(name, verdict) of each named check at ``ctx``, in the order given;
    ValueError for an unknown or inapplicable name before any check runs."""
    specs = [check_spec(name) for name in names]
    for spec in specs:
        if not _runs_at(spec, ctx.embedding):
            raise ValueError(f"{spec.name} needs a diagonal-embedding fixture")
    return ((spec.name, spec.runner(ctx, spec)) for spec in specs)


# ---------------------------------------------------------------------------
# nondegeneracy and Robinson


def check_nondegeneracy(problem: model.NsdpProblem, x_bar,
                        budget: CqBudget | None = None) -> CqVerdict:
    """Decide nondegeneracy at a feasible point.

    The full pair family {v_ij} at one kernel basis has basis-invariant
    rank, so a single representative decides: the verdict is always
    CERTIFIED_HOLDS or VIOLATED.
    """
    return CHECKS["nondegeneracy"].run(PointContext.at(problem, x_bar, budget))


def _nondegeneracy(ctx: PointContext, spec: CheckSpec) -> CqVerdict:
    if ctx.r == ctx.problem.m:
        return ctx.verdict(spec.name, CERTIFIED_HOLDS,
                           notes=("constraint has full rank at the point",))
    witness = _pair_family(ctx, ctx.E0)
    if witness["dependent"]:
        return ctx.verdict(
            spec.name, VIOLATED, witness=witness,
            notes=("pair family is linearly dependent at a kernel basis",))
    return ctx.verdict(
        spec.name, CERTIFIED_HOLDS, witness=witness,
        notes=("pair family is linearly independent; rank is basis-invariant",))


def _pair_family(ctx: PointContext, E) -> dict:
    """The full family {v_ij : i <= j} at basis E, as a witness.

    One Gram decomposition gives both the singular values and the
    linear dependence test against the problem's derivative scale.
    """
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.shape[0] != ctx.problem.m or E.shape[1] < 1:
        raise ValueError(f"basis must have {ctx.problem.m} rows and a column")
    q = E.shape[1]
    pairs = [(i, j) for i in range(q) for j in range(i, q)]
    vectors = model.curvature_vectors(ctx.problem, ctx.x, E, pairs)
    gram = linalg.gram_decompose(vectors)
    return {"kind": "pair-family", "E": E,
            "pairs": [[i + 1, j + 1] for i, j in pairs], "vectors": vectors,
            "singular_values": linalg.singular_values(gram),
            "dependent": linalg.gram_dependent(gram, ctx.scale_v)}


def _robinson_starts(n: int, budget: CqBudget) -> list:
    """d = 0, then unit Gaussian directions, all drawn before any ascent."""
    rng = _rng(budget.seed, 5)
    starts = [np.zeros(n)]
    for _ in range(budget.robinson_restarts - 1):
        g = rng.standard_normal(n)
        nrm = linalg.frob(g)
        starts.append(g / nrm if nrm > 1e-12 else np.zeros(n))
    return starts


def _robinson_certificate(G, Ds, starts, iters: int, threshold: float, best):
    """Search for d with G(x) + DG(x)[d] positive definite on ||d|| <= 1.

    The smallest eigenvalue of the affine matrix map is concave in d, so
    projected supergradient ascent with a diminishing step converges;
    restarts guard against flat starts.  After each restart, its closing
    evaluation included, it stops once the best eigenvalue exceeds
    ``threshold``.  ``best`` is the (value, d) carried over from starts
    already run and is replaced only by a strictly larger value, so a
    search over ``starts[:k]`` then ``starts[k:]`` returns the bits of one
    pass.  ``_robinson`` ascends from d = 0, screens for positive
    dependence, then runs the random starts: a replaying
    positive-dependence witness ends the check before the restarts.
    """
    best_val, best_d = best
    last = [None, None]  # an ascent that settles repeats d: reuse its evaluation

    def phi(d):
        key = d.tobytes()
        if key != last[0]:
            dec = linalg.spectral_decompose(linalg.sym_part(model.linearize(G, Ds, d)))
            last[:] = key, (float(dec.eigenvalues[-1]), dec.eigenvectors[:, -1])
        return last[1]

    for d0 in starts:
        d = d0.copy()
        for it in range(iters):
            val, u = phi(d)
            if val > best_val:
                best_val, best_d = val, d.copy()
            grad = np.array([float(u @ (D @ u)) for D in Ds])
            gn = linalg.frob(grad)
            if gn <= 1e-14:
                break
            d = d + (0.5 / math.sqrt(it + 1.0)) * grad / gn
            nrm = linalg.frob(d)
            if nrm > 1.0:
                d = d / nrm
        val, _ = phi(d)
        if val > best_val:
            best_val, best_d = val, d.copy()
        if best_val > threshold:
            break
    return best_val, best_d


def check_robinson(problem: model.NsdpProblem, x_bar,
                   budget: CqBudget | None = None) -> CqVerdict:
    """Robinson's condition: one ascent, then falsification, then restarts.

    A strictly feasible direction for the linearized constraint certifies
    the condition; the ascent from d = 0 looks for one first.  Robinson
    fails exactly when the diagonal family is positively dependent at
    some kernel basis, so canonical, swept, and Haar bases are screened
    next, and a replaying witness ends the check before the random
    restarts.  If neither side lands, the verdict stays open.
    """
    return CHECKS["robinson"].run(PointContext.at(problem, x_bar, budget))


def _robinson(ctx: PointContext, spec: CheckSpec) -> CqVerdict:
    problem, budget = ctx.problem, ctx.budget
    if ctx.r == problem.m:
        return ctx.verdict(
            spec.name, CERTIFIED_HOLDS,
            witness={"kind": "interior-direction", "direction": np.zeros(problem.n),
                     "lambda_min": float(ctx.dec.eigenvalues[-1])},
            notes=("constraint has full rank at the point",))
    threshold = _robinson_threshold(ctx)
    starts = _robinson_starts(problem.n, budget)
    search = functools.partial(_robinson_certificate, ctx.G, problem.dg(ctx.x),
                               iters=budget.robinson_iters, threshold=threshold)
    cert_val, cert_d = search(starts[:1], best=(-np.inf, starts[0]))
    if cert_val <= threshold:
        for label, E, _ in ctx.free_candidates():
            fail = _limit_failure(ctx, spec, E)
            if fail is not None:
                witness = {"kind": "diagonal-positive-dependence", "label": label,
                           "E": E, "vectors": fail["family_vectors"], "dependent": True}
                return ctx.verdict(
                    spec.name, VIOLATED, witness=witness,
                    notes=("diagonal family positively dependent at a kernel basis",))
        cert_val, cert_d = search(starts[1:], best=(cert_val, cert_d))
    if cert_val > threshold:
        return ctx.verdict(
            spec.name, CERTIFIED_HOLDS,
            witness={"kind": "interior-direction", "direction": cert_d,
                     "lambda_min": cert_val},
            notes=("strictly feasible direction for the linearization found",))
    return ctx.verdict(
        spec.name, NO_VIOLATION_FOUND,
        notes=(f"best linearized eigenvalue {cert_val:.3e} below the "
               f"certificate threshold; no positive dependence sampled",))


# ---------------------------------------------------------------------------
# weak constant-rank style conditions


def _robinson_threshold(ctx: PointContext) -> float:
    """Smallest linearized eigenvalue a robinson certificate must exceed."""
    return linalg.EPS_RANK * (1.0 + linalg.frob(ctx.G) + ctx.scale_v)


def _limit_failure(ctx: PointContext, spec: CheckSpec, E_bar) -> dict | None:
    """Failure record when the diagonal family at (x_bar, E_bar) is dependent."""
    vecs = model.diag_vectors(ctx.problem, ctx.x, E_bar)
    if spec.dependent(ctx.scale_v)(vecs):
        return {"E_bar": E_bar, "family_vectors": vecs, "dependent": True}
    return None


# The constant-rank falsification rule, shared by the weak, sequential
# and scalar samplers: a premise subfamily J is dependent at the limit,
# and the trailing ``consecutive`` levels stay linearly independent on J.


def _dependent_premises(limit_vectors, subsets, dependent):
    """Yield (J, premise family) for each subset J dependent at the limit."""
    for J in subsets:
        prem = [limit_vectors[i] for i in J]
        if dependent(prem):
            yield J, prem


def _falsifying_levels(levels, consecutive: int, family, scale: float,
                       key: str = "vectors") -> list | None:
    """Records of every level, or None when a trailing level is dependent.

    ``levels`` are dicts of level data; each record adds the family under
    ``key`` and its linear-dependence flag.  The trailing levels are
    tested before any record is built.
    """
    if any(linalg.lin_dependent(family(lv), scale) for lv in levels[-consecutive:]):
        return None
    records = []
    for lv in levels:
        vecs = family(lv)
        records.append({**lv, key: vecs, "dependent": bool(linalg.lin_dependent(vecs, scale))})
    return records


def _subfamily(problem, J):
    """Level -> the diagonal subfamily J at the level's (x, E)."""
    return lambda lv: model.diag_vectors(problem, lv["x"], lv["E"], J)


def _gradient_family(embedding, J):
    """Level -> the constraint gradients indexed by J at the level's x."""
    def family(lv):
        gj = embedding.constraint_gradients(lv["x"])
        return [gj[i] for i in J]
    return family


def _rank_failure(ctx: PointContext, spec: CheckSpec, E_bar, levels,
                  subsets) -> dict | None:
    """Constant-rank failure record of one (limit, chain) candidate, or None."""
    problem = ctx.problem
    diag_lim = model.diag_vectors(problem, ctx.x, E_bar)
    for J, prem in _dependent_premises(diag_lim, subsets,
                                       spec.dependent(ctx.scale_v)):
        records = _falsifying_levels(levels, ctx.budget.consecutive,
                                     _subfamily(problem, J), ctx.scale_v)
        if records is not None:
            return {"E_bar": E_bar, "J": [i + 1 for i in J],
                    "premise_vectors": prem, "premise_dependent": True,
                    "levels": records}
    return None


def check_weak_cq(problem: model.NsdpProblem, x_bar, kind: str,
                  budget: CqBudget | None = None, curves=()) -> CqVerdict:
    """Limiting conditions quantified over eigenvector limits of sequences.

    For each sampled sequence x_k -> x_bar the reachable eigenbasis
    limits are enumerated: the aligned eigenvector chain, plus rotations
    inside numerically equal eigenvalue clusters when the cluster
    pattern persists across levels (a rotated chain is only a valid
    eigenbasis sequence in that case).  A sequence falsifies the
    condition only if every reachable candidate fails its defining
    implication; for the constant-rank kinds the implication compares
    dependence at the limit with dependence along the trailing levels.

    The constant sequence, whose limit set is every kernel basis, is
    probed for the limit-only kinds (weak-nondegeneracy, weak-robinson);
    for the constant-rank kinds it can never falsify because the chain
    can sit at the limit basis itself.
    """
    if kind not in WEAK_KINDS:
        raise ValueError(f"unknown weak condition {kind!r}")
    ctx = PointContext.at(problem, x_bar, budget, curves=curves)
    return CHECKS[kind].run(ctx)


def _weak(ctx: PointContext, spec: CheckSpec) -> CqVerdict:
    problem, x, r, budget = ctx.problem, ctx.x, ctx.r, ctx.budget
    m = problem.m
    if r == m:
        return ctx.verdict(spec.name, CERTIFIED_HOLDS,
                           notes=("constraint has full rank at the point",))
    subsets = [] if spec.limit_only else _subsets(m - r)
    ts = _levels(budget)

    if spec.limit_only:
        failures = []
        for label, E, _ in ctx.free_candidates():
            fail = _limit_failure(ctx, spec, E)
            if fail is None:
                break
            fail["label"] = label
            failures.append(fail)
        else:
            witness = {"kind": "constant-sequence", "candidates": failures}
            return ctx.verdict(
                spec.name, VIOLATED, witness=witness,
                notes=("every sampled kernel basis fails at the point itself",))

    seqs = _sequences(x, ctx.curves, ts, budget)
    stack = linalg.decompose_each(problem.g, [p for _, _, xs in seqs for p in xs])
    for seq_idx, (label, d, xs) in enumerate(seqs):
        decs = [next(stack) for _ in xs]
        chain_E = linalg.aligned_kernel_bases(decs, r)
        patterns = []
        for dc in decs:
            lam = dc.eigenvalues
            tol = 1e-12 * (1.0 + float(np.abs(lam).max(initial=0.0)))
            patterns.append(_cluster_pattern(lam[r:], tol))
        rotations = [("canonical", None)]
        if len(set(patterns)) == 1 and any(b > 1 for b in patterns[0]):
            for b_idx in range(budget.n_basis_samples):
                rot_rng = _rng(budget.seed, 2, seq_idx, b_idx)
                rotations.append((f"rotation-{b_idx}",
                                  _block_rotation(patterns[0], rot_rng)))
        candidate_failures = []
        any_saved = False
        for rot_label, Q in rotations:
            chain = [E if Q is None else E @ Q for E in chain_E]
            E_bar = _extrapolated_limit(chain)
            if E_bar is None:
                continue
            if spec.limit_only:
                fail = _limit_failure(ctx, spec, E_bar)
            else:
                levels = [{"t": t, "x": x_j, "E": E_j}
                          for t, x_j, E_j in zip(ts, xs, chain)]
                fail = _rank_failure(ctx, spec, E_bar, levels, subsets)
            if fail is None:
                any_saved = True
                break
            fail["label"] = rot_label
            candidate_failures.append(fail)
        if not any_saved and candidate_failures:
            witness = {
                "kind": "sequence",
                "sequence": label,
                "direction": d,
                "t_levels": ts,
                "candidates": candidate_failures,
            }
            return ctx.verdict(
                spec.name, VIOLATED, witness=witness,
                notes=("every reachable eigenbasis limit fails along this sequence",))
    return ctx.verdict(spec.name, NO_VIOLATION_FOUND)


def _sequences(x, curves, ts, budget: CqBudget) -> list:
    """Sequences x_k -> x as (label, direction or None, points at ``ts``).

    Registered point curves lead, then the signed unit rays and the
    seeded random rays.
    """
    out = [(f"curve:{c.name}", None,
            [np.asarray(c.func(t), dtype=float) for t in ts])
           for c in curves if c.kind == "x"]
    for d in _unit_directions(x.size, budget.n_directions, _rng(budget.seed, 4)):
        out.append((f"ray:{_dir_label(d)}", d, [x + t * d for t in ts]))
    return out


def _dir_label(d: np.ndarray) -> str:
    nz = np.nonzero(np.abs(d) > 1e-12)[0]
    if nz.size == 1 and abs(abs(d[nz[0]]) - 1.0) < 1e-12:
        sign = "+" if d[nz[0]] > 0 else "-"
        return f"{sign}e{nz[0] + 1}"
    return "rand(" + ",".join(f"{v:.4f}" for v in d) + ")"


# ---------------------------------------------------------------------------
# sequential constant-rank style conditions


def _completion_basis(P_bar: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Orthonormal completion of E built from the reference range basis."""
    if P_bar.shape[1] == 0:
        return np.zeros((E.shape[0], 0))
    raw = P_bar - E @ (E.T @ P_bar)
    return linalg.orthonormal_columns(raw)


def _seq_tail_violation(problem, x_bar, E_bar, J, budget, scale_v, rng,
                        P_bar):
    """Look for tails (x_j, E_j) -> (x_bar, E_bar) staying independent on J.

    Basis perturbations decay like t and like t^(1/4); the slow decay
    matters because an independence margin of order t times the basis
    offset would otherwise sink below the rank threshold before the
    trailing levels are reached.

    The (direction, basis variant) pairs run level-major: at each
    trailing level in turn, the J-families of the pairs still live are
    one stack (one QR of the Stiefel bases, one contraction, one rank
    decision), and the pairs that test dependent drop out.  The first
    survivor in (direction, variant) order is the tail a loop over the
    pairs would find first; only its records are built, through
    ``_falsifying_levels``.  A stack raises what the one-pair path raises;
    on any error the pairs are tried one at a time in that order, so an
    error surfaces where such a loop reaches it.
    """
    levels = [{"t": t} for t in _levels(budget)]
    dirs = _unit_directions(problem.n, min(4, budget.n_directions), rng)
    Ws = [rng.standard_normal(E_bar.shape) for _ in range(budget.n_stiefel)]
    variants = [("fixed-basis", None, 1.0)]
    for i, W in enumerate(Ws):
        for expo in (1.0, 0.25):
            variants.append((f"stiefel-{i}@t^{expo}", W, expo))
    bases = {}  # (variant, t) -> basis; the direction d does not enter

    def orthonormalize(vs, t):
        """The Stiefel bases of variants ``vs`` at level t not yet built, as one stack."""
        vs = [v for v in vs if variants[v][1] is not None and (v, t) not in bases]
        if vs:
            stack = linalg.orthonormal_columns(np.array(
                [E_bar + (t ** variants[v][2]) * variants[v][1] for v in vs]))
            bases.update(((v, t), B) for v, B in zip(vs, stack))

    def basis_at(v, t):
        orthonormalize([v], t)
        return bases.get((v, t), E_bar)

    pairs = list(itertools.product(range(len(dirs)), range(len(variants))))
    live = pairs
    try:
        for lv in levels[-budget.consecutive:]:
            if not live:
                return None
            t = lv["t"]
            orthonormalize(sorted({v for _, v in live}), t)
            ds = sorted({d for d, _ in live})
            Ds = np.array([problem.dg(x_bar + t * dirs[d]) for d in ds])
            fams = model.contract(Ds[[ds.index(d) for d, _ in live]],
                                  np.array([bases.get((v, t), E_bar) for _, v in live]),
                                  [(i, i) for i in J])
            live = [pr for pr, dep in zip(live, linalg.lin_dependent_many(fams, scale_v))
                    if not dep]
    except Exception:  # each pair alone, in order: an error surfaces where reached
        live = pairs
    for d, v in live:
        records = _falsifying_levels(
            levels, budget.consecutive,
            lambda lv: model.diag_vectors(problem, x_bar + lv["t"] * dirs[d],
                                          basis_at(v, lv["t"]), J),
            scale_v)
        if records is None:
            continue
        for rec in records:
            x_j, E_j = x_bar + rec["t"] * dirs[d], basis_at(v, rec["t"])
            rec.update(x=x_j, E=E_j, delta=separating_perturbation(
                problem, x_j, x_bar, E_j, _completion_basis(P_bar, E_j)))
        return {"direction": dirs[d], "variant": variants[v][0], "levels": records}
    return None


def check_seq_cq(problem: model.NsdpProblem, x_bar, kind: str,
                 budget: CqBudget | None = None, curves=()) -> CqVerdict:
    """Sequential constant-rank conditions in their neighborhood form.

    The condition holds iff around every pair (x_bar, E_bar) with E_bar
    a kernel basis, dependence of a diagonal subfamily at the pair
    forces dependence at nearby pairs.  A violation therefore needs one
    basis E_bar with a dependent (resp. positively dependent) premise
    subfamily and one sequence of nearby pairs staying independent; the
    basis dictionary mixes canonical, registered-curve, swept, and Haar
    bases, and each witness level carries the shift Delta that turns
    its basis into an exact small-eigenvalue eigenbasis.
    """
    if kind not in SEQ_KINDS:
        raise ValueError(f"unknown sequential condition {kind!r}")
    ctx = PointContext.at(problem, x_bar, budget, curves=curves)
    return CHECKS[kind].run(ctx)


def _seq(ctx: PointContext, spec: CheckSpec) -> CqVerdict:
    problem, x, r, budget = ctx.problem, ctx.x, ctx.r, ctx.budget
    m = problem.m
    scale = ctx.scale_v
    if r == m:
        return ctx.verdict(spec.name, CERTIFIED_HOLDS,
                           notes=("constraint has full rank at the point",))
    subsets = _subsets(m - r)
    P_bar = ctx.dec.eigenvectors[:, :r].copy()
    ts = _levels(budget)
    curve_entries = []
    for curve in ctx.curves:
        if curve.kind != "x-delta":
            continue
        entry = _curve_candidate(problem, curve, r, ts)
        if entry is not None:
            curve_entries.append(entry)
    for cand_idx, (label, E_bar, curve_entry) in enumerate(
            ctx.free_candidates(curve_entries)):
        diag_lim = model.diag_vectors(problem, x, E_bar)
        for J, prem in _dependent_premises(diag_lim, subsets,
                                           spec.dependent(scale)):
            if curve_entry is not None:
                records = _falsifying_levels(
                    curve_entry["levels"], budget.consecutive,
                    _subfamily(problem, J), scale)
                viol = None if records is None else {
                    "direction": None, "variant": "registered-curve",
                    "levels": records}
            else:
                rng = _rng(budget.seed, 3, cand_idx)
                viol = _seq_tail_violation(problem, x, E_bar, J, budget,
                                           scale, rng, P_bar)
            if viol is not None:
                witness = {
                    "kind": "pair-sequence",
                    "candidate": label,
                    "E_bar": E_bar,
                    "J": [i + 1 for i in J],
                    "premise_vectors": prem,
                    "premise_positive": spec.positive,
                    "t_levels": ts,
                }
                witness.update(viol)
                return ctx.verdict(
                    spec.name, VIOLATED, witness=witness,
                    notes=("dependent premise at the limit pair with an "
                           "independent nearby tail",))
    return ctx.verdict(spec.name, NO_VIOLATION_FOUND)


def _curve_candidate(problem, curve: WitnessCurve, r: int, ts: list):
    points = []
    for t in ts:
        x_t, delta_t = curve.func(t)
        points.append((float(t), np.asarray(x_t, dtype=float),
                       linalg.sym_part(np.asarray(delta_t, dtype=float))))
    levels = [{"t": t, "x": x_t, "E": E, "delta": delta_t}
              for (t, x_t, delta_t), E in zip(points, linalg.aligned_kernel_bases(
                  linalg.decompose_each(lambda pt: linalg.sym_part(problem.g(pt[1]) + pt[2]),
                                        points), r))]
    E_bar = _extrapolated_limit([lv["E"] for lv in levels])
    if E_bar is None:
        return None
    return {"label": f"curve:{curve.name}", "E_bar": E_bar, "levels": levels}


# ---------------------------------------------------------------------------
# separating perturbation


def separating_perturbation(problem: model.NsdpProblem, x, x_bar, E, P) -> np.ndarray:
    """Shift Delta making E an exact small-eigenvalue eigenbasis at x.

    Builds M = U blkdiag(P' G(x) P, Diag((r+1)s, ..., m s)) U' with
    U = [P, E] orthonormal and s = ||x - x_bar||, then Delta = M - G(x).
    The synthetic eigenvalues grow in the column order of E and vanish
    with s, so along x -> x_bar the shift vanishes while E stays the
    (sign-unique) basis for the m - r smallest eigenvalues of G + Delta.
    P must be the eigen-block completion spanning the large eigenspace.
    """
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    s = linalg.frob(x - x_bar)
    if s <= 0.0:
        raise ValueError("separating perturbation needs x distinct from x_bar")
    E = np.asarray(E, dtype=float)
    P = np.asarray(P, dtype=float) if P is not None \
        else np.zeros((E.shape[0], 0))
    m = problem.m
    U = np.hstack([P, E])
    if U.shape != (m, m):
        raise ValueError("[P, E] must form a square basis")
    ortho_err = linalg.frob(U.T @ U - np.eye(m))
    if ortho_err > linalg.EPS_ORTH_FACTOR * m * 10.0:
        raise ValueError(f"[P, E] not orthonormal: error {ortho_err:.3e}")
    G = problem.g(x)
    r = P.shape[1]
    synth = np.array([(r + 1 + i) * s for i in range(m - r)])
    M = E @ (synth[:, None] * E.T)
    if r > 0:
        core = linalg.sym_part(P.T @ G @ P)
        M = M + P @ core @ P.T
    return linalg.sym_part(M - G)


# ---------------------------------------------------------------------------
# metric subregularity


@dataclass(frozen=True)
class MsrEstimate:
    """Empirical modulus of metric subregularity over a sampled ball."""

    gamma_hat: float
    radius: float
    samples: int
    n_infeasible: int
    n_feasible: int
    n_failed: int
    unreliable: bool
    seed: int
    worst: dict | None = None
    notes: tuple = ()
    ratios: tuple = ()


def estimate_msr_modulus(problem: model.NsdpProblem, x_bar, radius: float = 0.1,
                         samples: int = 200, seed: int = 0) -> MsrEstimate:
    """Largest sampled ratio dist(x, F) / ||proj_psd(-G(x))|| on a ball.

    Distances to the feasible set are computed by solving the projection
    problem min ||z - x||^2 s.t. G(z) PSD with the augmented Lagrangian
    (``PROJECTION_CONFIG``: the inner loop stops after 20 non-improving
    iterations; tolerance 1e-8) from both x and x_bar; the trivial bound
    ||x - x_bar|| caps the result since x_bar is feasible.  Samples whose
    projection runs all end infeasible fall back on that bound and are
    counted as failures; more than ten percent of failures marks the
    estimate unreliable.
    """
    return _msr_modulus(problem, _feasibility_gate(problem, x_bar)[0],
                        radius, samples, seed)


def _msr_modulus(problem, x_ref, radius, samples, seed) -> MsrEstimate:
    """``estimate_msr_modulus`` at an already gated point x_ref."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = _rng(seed, 6)
    n = problem.n
    ratios = []
    n_failed = 0
    worst = None
    for _ in range(samples):
        g = rng.standard_normal(n)
        nrm = linalg.frob(g)
        u = g / nrm if nrm > 1e-12 else np.zeros(n)
        rad = radius * rng.uniform() ** (1.0 / n)
        x_i = x_ref + rad * u
        G_i = problem.g(x_i)
        residual = linalg.frob(linalg.proj_psd(-G_i))
        if residual <= linalg.EPS_RANK * (1.0 + linalg.frob(G_i)):
            continue
        dist, ok = _projection_distance(problem, x_i, x_ref)
        if not ok:
            n_failed += 1
        ratio = dist / residual
        ratios.append(ratio)
        if worst is None or ratio > worst["ratio"]:
            worst = {"x": x_i, "distance": dist, "residual": residual,
                     "ratio": ratio, "projection_ok": bool(ok)}
    notes = []
    if not ratios:
        notes.append("no infeasible samples in the ball")
    n_infeasible = len(ratios)
    unreliable = n_failed > 0.1 * max(1, n_infeasible)
    if unreliable:
        notes.append("more than 10% of projection subproblems failed")
    return MsrEstimate(
        gamma_hat=float(max(ratios, default=0.0)), radius=float(radius),
        samples=samples, n_infeasible=n_infeasible,
        n_feasible=samples - n_infeasible, n_failed=n_failed,
        unreliable=bool(unreliable), seed=seed,
        worst=_jsonify(worst) if worst else None, notes=tuple(notes),
        ratios=tuple(float(rt) for rt in ratios))


def _projection_distance(problem, x_i, x_ref):
    """Distance from x_i to the feasible set, with a feasibility fallback."""
    proj = model.NsdpProblem(n=problem.n, m=problem.m,
                             f_eval=lambda z: float((z - x_i) @ (z - x_i)),
                             grad_f=lambda z: 2.0 * (z - x_i),
                             g_eval=problem.g_eval, dg_eval=problem.dg_eval,
                             name=f"{problem.name}:projection")
    best = linalg.frob(x_i - x_ref)
    ok = False
    for start in (x_i, x_ref):
        trace = solvers.solve_augmented_lagrangian(
            proj, start, config=PROJECTION_CONFIG, target_tol=1e-8, max_outer=25)
        z = trace.final.x
        if trace.final.residual.feasibility \
                <= 1e-6 * (1.0 + linalg.frob(problem.g(z))):
            ok = True
            best = min(best, linalg.frob(z - x_i))
    return best, ok


def estimate_msr_trend(problem: model.NsdpProblem, x_bar, radius: float = 0.1,
                       samples: int = 200, seed: int = 0,
                       growth_factor: float = MSR_GROWTH,
                       bound_cap: float = MSR_CAP) -> dict:
    """Compare modulus estimates at two radii to flag an unbounded modulus.

    An unbounded modulus shows up either as a very large sampled ratio
    or as strong growth when the ball shrinks; bounded moduli on the
    reference problems sit well below the cap at both radii.
    """
    x = _feasibility_gate(problem, x_bar)[0]
    est_big, est_small = _msr_pair(problem, x, radius, samples, seed)
    return {
        "estimates": (est_big, est_small),
        "unbounded": _msr_unbounded(est_big.gamma_hat, est_small.gamma_hat,
                                    growth_factor, bound_cap),
        "unreliable": bool(est_big.unreliable or est_small.unreliable),
    }


def _msr_pair(problem, x, radius, samples, seed) -> tuple:
    """The estimates at radius and radius / 4 around an already gated x."""
    return (_msr_modulus(problem, x, radius, samples, seed),
            _msr_modulus(problem, x, radius / 4.0, samples, seed + 1))


def _msr_unbounded(gamma_big: float, gamma_small: float,
                   growth_factor: float = MSR_GROWTH,
                   bound_cap: float = MSR_CAP) -> bool:
    """The trend rule: a ratio above the cap, or strong growth as the ball shrinks."""
    growing = gamma_small > growth_factor * max(gamma_big, 1e-12) \
        and gamma_small > 10.0
    return bool(max(gamma_big, gamma_small) > bound_cap or growing)


def check_msr(problem: model.NsdpProblem, x_bar, budget: CqBudget | None = None,
              samples: int = 200) -> CqVerdict:
    """VIOLATED when ``estimate_msr_trend`` at radius 0.1 finds the modulus unbounded."""
    return CHECKS["msr"].run(PointContext.at(problem, x_bar, budget, msr_samples=samples))


def _msr(ctx: PointContext, spec: CheckSpec) -> CqVerdict:
    est_big, est_small = _msr_pair(ctx.problem, ctx.x, 0.1, ctx.msr_samples,
                                   ctx.budget.seed)
    witness = {
        "kind": "ratio-table",
        "radius": [est_big.radius, est_small.radius],
        "gamma_hat": [est_big.gamma_hat, est_small.gamma_hat],
        "n_infeasible": [est_big.n_infeasible, est_small.n_infeasible],
        "n_failed": [est_big.n_failed, est_small.n_failed],
        "worst": [est_big.worst, est_small.worst],
    }
    notes = []
    if est_big.unreliable or est_small.unreliable:
        notes.append("projection failures above 10%; estimate unreliable")
    status = NO_VIOLATION_FOUND
    if _msr_unbounded(est_big.gamma_hat, est_small.gamma_hat):
        status = VIOLATED
        notes.append("sampled subregularity ratios grow without bound")
    return ctx.verdict(spec.name, status, witness=witness, notes=notes)


# ---------------------------------------------------------------------------
# scalar-constraint samplers


def nlp_constant_rank_check(embedding: model.DiagonalEmbedding, x_bar,
                            kind: str = "crcq",
                            budget: CqBudget | None = None,
                            curves=()) -> CqVerdict:
    """Constant-rank sampling directly on scalar constraint gradients.

    For diagonal constraints the weak matrix conditions reduce to: every
    active subfamily of gradients that is dependent (resp. positively
    dependent) at the point stays linearly dependent nearby.  This
    sampler tests exactly that statement, giving an independent oracle
    for the embedded matrix checks.
    """
    spec = CHECKS.get(f"nlp-{kind}")
    if spec is None:
        raise ValueError("kind must be 'crcq' or 'cpld'")
    return spec.run(PointContext.at(embedding.problem, x_bar, budget,
                                    curves=curves, embedding=embedding))


def _nlp(ctx: PointContext, spec: CheckSpec) -> CqVerdict:
    # the verdict records the scalar gate's rank and gradient scale
    ctx = ctx.scalar()
    active, scale, budget = ctx.active, ctx.scale_v, ctx.budget
    if not active:
        return ctx.verdict(spec.name, CERTIFIED_HOLDS,
                           notes=("no active constraints at the point",))
    subsets = [tuple(active[i] for i in S) for S in _subsets(len(active))]
    ts = _levels(budget)
    sequences = _sequences(ctx.x, ctx.curves, ts, budget)
    for J, prem in _dependent_premises(ctx.grads, subsets, spec.dependent(scale)):
        family = _gradient_family(ctx.embedding, J)
        for label, d, xs in sequences:
            levels = _falsifying_levels(
                [{"t": t, "x": x_j} for t, x_j in zip(ts, xs)],
                budget.consecutive, family, scale, key="gradients")
            if levels is None:
                continue
            witness = {
                "kind": "gradient-sequence",
                "J": [i + 1 for i in J],
                "sequence": label,
                "direction": d,
                "premise_gradients": prem,
                "levels": levels,
            }
            return ctx.verdict(spec.name, VIOLATED, witness=witness,
                               notes=("dependent active gradients become "
                                      "independent along the sequence",))
    return ctx.verdict(spec.name, NO_VIOLATION_FOUND)


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(problem, verdict) -> bool:
    """Re-evaluate a verdict at its point with the predicates of its check.

    The point is built first, as the check built it: ``PointContext.at``
    gates the recorded ``x_bar`` under the recorded budget (ValueError
    unless n finite numbers or if the budget is malformed,
    InfeasiblePointError if infeasible), then the nlp checks' scalar
    view gates it again.  nlp verdicts replay against the
    ``DiagonalEmbedding``, all others against the matrix problem;
    TypeError otherwise.  Every status is a rule on that point
    (``_supported_status``), and a recorded ``scale_v`` other than the
    gate's, which every rank threshold reads, replays False.  Each kind
    then re-runs its check's functions on the recorded bases and levels,
    the constant-rank falsifier included, and compares the flags;
    serialized floats round-trip exactly, so genuine witnesses replay
    bit for bit.
    """
    payload = verdict.to_payload() if isinstance(verdict, CqVerdict) else dict(verdict)
    spec = check_spec(payload["condition"])
    scalar = not _runs_at(spec, None)
    if scalar != isinstance(problem, model.DiagonalEmbedding):
        raise TypeError(f"{spec.name} verdicts replay against a "
                        + ("DiagonalEmbedding" if scalar else "matrix problem"))
    try:
        budget = CqBudget(**payload["budget"])
    except TypeError as exc:
        raise ValueError(f"malformed budget {payload['budget']!r}: {exc}") from None
    ctx = PointContext.at(problem.problem, payload["x_bar"], budget,
                          embedding=problem).scalar() if scalar \
        else PointContext.at(problem, payload["x_bar"], budget)
    witness = payload.get("witness")
    if witness is not None and witness["kind"] not in spec.replay:
        raise ValueError(f"unknown witness kind {witness['kind']!r} "
                         f"for {spec.name}")
    if payload["status"] != _supported_status(witness, ctx) \
            or ctx.scale_v != float(payload["epsilons"]["scale_v"]):
        return False
    return witness is None or bool(spec.replay[witness["kind"]](ctx, witness, spec))


def _supported_status(witness, ctx: PointContext) -> str:
    """The one status a verdict can have at its gated point: without a
    witness CERTIFIED_HOLDS at full rank and NO_VIOLATION_FOUND
    elsewhere, a pair family's by its flag, a ratio table's by the trend
    rule on its moduli, an interior direction's CERTIFIED_HOLDS, every
    other kind's VIOLATED."""
    if witness is None:
        return CERTIFIED_HOLDS if ctx.r == ctx.problem.m else NO_VIOLATION_FOUND
    if witness["kind"] == "pair-family":
        return VIOLATED if witness["dependent"] else CERTIFIED_HOLDS
    if witness["kind"] == "ratio-table":
        return VIOLATED if _msr_unbounded(*witness["gamma_hat"]) else NO_VIOLATION_FOUND
    return CERTIFIED_HOLDS if witness["kind"] == "interior-direction" else VIOLATED


def _same_flags(recorded, records) -> bool:
    """True when a re-run falsifier kept every level, with its recorded flag."""
    return records is not None and [rec["dependent"] for rec in records] \
        == [bool(lv["dependent"]) for lv in recorded]


def _limit_replays(ctx, entry, spec, key="E") -> bool:
    """``_limit_failure`` at the entry's basis, as its ``dependent`` flag says."""
    failed = _limit_failure(ctx, spec, np.asarray(entry[key], dtype=float))
    return (failed is not None) == bool(entry["dependent"])


def _falsifier_replays(ctx, entry, spec) -> bool:
    """``_rank_failure`` on the entry's limit basis, subset J and levels."""
    levels = [{"t": lv["t"], "x": np.asarray(lv["x"], dtype=float),
               "E": np.asarray(lv["E"], dtype=float)} for lv in entry["levels"]]
    fail = _rank_failure(ctx, spec, np.asarray(entry["E_bar"], dtype=float),
                         levels, [tuple(i - 1 for i in entry["J"])])
    return fail is not None and _same_flags(entry["levels"], fail["levels"])


def _replay_pair_family(ctx, witness, spec) -> bool:
    """The recorded flag, at a basis that is orthonormal and spans ker G."""
    family = _pair_family(ctx, witness["E"])
    E, E0 = family["E"], ctx.E0
    return E0 is not None and family["dependent"] == bool(witness["dependent"]) \
        and linalg.frob(E.T @ E - np.eye(E.shape[1])) <= 1e-6 \
        and linalg.frob(E @ E.T - E0 @ E0.T) <= 1e-6


def _replay_interior_direction(ctx, witness, spec) -> bool:
    """The recorded eigenvalue along the direction, and the claim it makes.

    At a full-rank point the witness is direction 0 with the point's own
    positive smallest eigenvalue; elsewhere ||direction|| <= 1 and the
    eigenvalue exceeds ``_robinson_threshold``, as the search required.
    """
    d = np.asarray(witness["direction"], dtype=float)
    claimed = float(witness["lambda_min"])
    M = model.linearize(ctx.G, ctx.problem.dg(ctx.x), d)
    lam_min = float(linalg.eigenvalues(linalg.sym_part(M))[-1])
    if abs(lam_min - claimed) > 1e-9 * (1.0 + abs(lam_min)):
        return False
    if ctx.r == ctx.problem.m:
        return not d.any() and claimed > 0.0
    return linalg.frob(d) <= 1.0 + 1e-12 and claimed > _robinson_threshold(ctx)


def _replay_sequence(ctx, witness, spec) -> bool:
    """Replays ``sequence`` and ``constant-sequence`` witnesses."""
    if spec.limit_only:
        return all(_limit_replays(ctx, entry, spec, "E_bar")
                   for entry in witness["candidates"])
    return all(entry["premise_dependent"] and _falsifier_replays(ctx, entry, spec)
               for entry in witness["candidates"])


def _replay_pair_sequence(ctx, witness, spec) -> bool:
    if not _falsifier_replays(ctx, witness, spec):
        return False
    for lv in witness["levels"]:
        # the recorded shift must make the level's basis an exact
        # small-eigenvalue eigenbasis of the shifted constraint
        E_j = np.asarray(lv["E"], dtype=float)
        delta = np.asarray(lv["delta"], dtype=float)
        shifted = linalg.sym_part(ctx.problem.g(np.asarray(lv["x"], dtype=float)) + delta)
        E_check = linalg.spectral_decompose(shifted).kernel_basis(ctx.problem.m - E_j.shape[1])
        if linalg.frob(E_j @ E_j.T - E_check @ E_check.T) > 1e-6:
            return False
    return True


def _replay_gradient_sequence(ctx, witness, spec) -> bool:
    J = [i - 1 for i in witness["J"]]
    if not set(J) <= set(ctx.active) \
            or not spec.dependent(ctx.scale_v)([ctx.grads[i] for i in J]):
        return False
    levels = [{"t": lv["t"], "x": np.asarray(lv["x"], dtype=float)}
              for lv in witness["levels"]]
    return _same_flags(witness["levels"], _falsifying_levels(
        levels, ctx.budget.consecutive, _gradient_family(ctx.embedding, J),
        ctx.scale_v, key="gradients"))


def _replay_ratio_table(ctx, witness, spec) -> bool:
    """Recompute each radius's worst sample; the status was checked
    against the trend rule by ``_supported_status``.

    The distance came from projection solves and is only checked against
    its bounds: at most ||x - x_bar||, since x_bar is feasible.
    """
    for radius, gamma, worst in zip(witness["radius"], witness["gamma_hat"],
                                    witness["worst"]):
        if worst is None:
            if gamma != 0.0:
                return False
            continue
        x = np.asarray(worst["x"], dtype=float)
        residual = linalg.frob(linalg.proj_psd(-ctx.problem.g(x)))
        span = linalg.frob(x - ctx.x)
        if not (abs(residual - worst["residual"]) <= 1e-9 * abs(worst["residual"])
                and worst["ratio"] == worst["distance"] / worst["residual"]
                and gamma == worst["ratio"]
                # x = x_bar + rad u with rad <= radius, up to rounding
                and span <= radius + 1e-12 * (radius + linalg.frob(ctx.x))
                and worst["distance"] <= span):
            return False
    return True


# ---------------------------------------------------------------------------
# the check registry


_WEAK_LIMIT_REPLAY = {"constant-sequence": _replay_sequence,
                      "sequence": _replay_sequence}

#: Every check, in the order diagnose and regress run them.
CHECKS = {spec.name: spec for spec in (
    CheckSpec("nondegeneracy", _nondegeneracy,
              {"pair-family": _replay_pair_family},
              positive=False, implies=("seq-crcq",)),
    CheckSpec("robinson", _robinson,
              {"interior-direction": _replay_interior_direction,
               "diagonal-positive-dependence": _limit_replays},
              positive=True, implies=("seq-cpld",)),
    CheckSpec("weak-nondegeneracy", _weak, _WEAK_LIMIT_REPLAY,
              positive=False, limit_only=True),
    CheckSpec("weak-robinson", _weak, _WEAK_LIMIT_REPLAY,
              positive=True, limit_only=True),
    CheckSpec("weak-crcq", _weak, {"sequence": _replay_sequence},
              positive=False, implies=("weak-cpld",)),
    CheckSpec("weak-cpld", _weak, {"sequence": _replay_sequence},
              positive=True),
    CheckSpec("seq-crcq", _seq, {"pair-sequence": _replay_pair_sequence},
              positive=False, implies=("seq-cpld", "weak-crcq")),
    CheckSpec("seq-cpld", _seq, {"pair-sequence": _replay_pair_sequence},
              positive=True, implies=("weak-cpld", "msr")),
    CheckSpec("nlp-crcq", _nlp, {"gradient-sequence": _replay_gradient_sequence},
              positive=False, scope="embedding"),
    CheckSpec("nlp-cpld", _nlp, {"gradient-sequence": _replay_gradient_sequence},
              positive=True, scope="embedding"),
    CheckSpec("msr", _msr, {"ratio-table": _replay_ratio_table}, scope="full"),
)}

WEAK_KINDS = tuple(name for name, spec in CHECKS.items() if spec.runner is _weak)
SEQ_KINDS = tuple(name for name, spec in CHECKS.items() if spec.runner is _seq)

#: Arrows of the implication diagram: where the left check holds, so
#: does the right one.
IMPLICATIONS = tuple((name, weaker) for name, spec in CHECKS.items()
                     for weaker in spec.implies)


def broken_implications(table: dict) -> list:
    """The arrows of ``IMPLICATIONS`` that a table of statuses breaks.

    ``table`` maps check names to tuples of statuses; an arrow is broken
    when every status on its left holds (CERTIFIED_HOLDS or
    NO_VIOLATION_FOUND) and every status on its right is VIOLATED.
    Arrows with a side missing from the table, or None, are skipped.
    """
    holds = (CERTIFIED_HOLDS, NO_VIOLATION_FOUND)
    return [(strong, weak) for strong, weak in IMPLICATIONS
            if table.get(strong) is not None and table.get(weak) is not None
            and all(s in holds for s in table[strong])
            and all(s == VIOLATED for s in table[weak])]
