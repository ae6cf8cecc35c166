"""Nonlinear semidefinite programming toolkit.

Modeling, first-order solvers, and constraint qualification diagnostics
for problems min f(x) subject to G(x) positive semidefinite.
"""

from .linalg import (
    EPS_ORTH_FACTOR, EPS_PSD_FACTOR, EPS_RANK, EPS_PLD,
    JacobiConvergenceError, SpectralDecomp,
    spectral_decompose, proj_psd, moreau_split,
    numerical_rank, lin_dependent, pos_lin_dependent,
)
from .model import (
    NsdpProblem, MatrixPolyProblem, DiagonalEmbedding,
    embed_diagonal_nlp, audit_derivatives, adjoint_dg, lagrangian_grad,
    load_problem, save_problem,
)
from .caratheodory import ConicCombination, ReductionError, reduce
from .kkt import (
    KktResidual, AkktRecord, AkktCertificate,
    RecoveryResult, TraceTooShortError,
    kkt_residual, akkt_check, recover_multiplier,
    write_trace, read_trace,
)
from .solvers import (
    AlConfig, SolverTrace, IterRecord, InnerStats,
    al_value, al_gradient, al_multiplier,
    solve_external_penalty, solve_augmented_lagrangian, solve_sqp,
)
from .cq import (
    CERTIFIED_HOLDS, NO_VIOLATION_FOUND, VIOLATED,
    CqBudget, CqVerdict, WitnessCurve, MsrEstimate,
    InfeasiblePointError, CombinatorialCapError,
    check_nondegeneracy, check_robinson, check_weak_cq,
    check_seq_cq, check_msr, separating_perturbation,
    estimate_msr_modulus, estimate_msr_trend, nlp_constant_rank_check,
    replay_witness,
    verdict_to_text, write_verdict, read_verdict, content_digest,
)

__version__ = "0.1.0"
