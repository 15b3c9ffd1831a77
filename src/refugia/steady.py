"""The one Newton for the steady system, bordered by a linear constraint on
(state, mu), and the kernel-function solve that yields the bifurcation tangent.

At the bifurcation point the linearization at the predator-free state has the
one-dimensional kernel spanned by (-alpha, 1), where alpha solves the
zero-flux Helmholtz problem  -lap alpha + alpha = b(x) / (1 + m*lam)  on the
habitat. That direction is the first-order shape of the emerging coexistence
branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import LinearSolveFailure, NoConvergence, SingularJacobian
from .fields import Region, ScalarField, SystemState
from .geometry import DomainGeometry
from .operators import (
    ModelParams,
    assemble_jacobian,
    factor,
    residual_mu_derivative,
    residual_steady,
)

#: direct sparse solves must meet this normwise backward error
LINSOLVE_RTOL = 1e-12

#: the bordered Newton meets its linear constraint to this, relative to max(1, |target|)
CONSTRAINT_TOL = 1e-12

#: the chord iteration refactors J when the residual inf-norm shrinks by less than this
CHORD_CONTRACTION = 0.1


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-10  # inf-norm of the steady residual
    max_iter: int = 50

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SteadyResult:
    state: SystemState
    iterations: int
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)


def _keller_solver(J, f_mu: np.ndarray, row_x: np.ndarray, row_mu: float):
    """solve(res, con) -> (dx, dmu) for [[J, f_mu], [row_x, row_mu]] (dx, dmu) = -(res, con).

    Keller's block elimination over one LU of J: J b = f_mu, J a = -res,
    dmu = (-con - row_x.a) / (row_mu - row_x.b), dx = a - b*dmu. Raises
    SingularJacobian when J cannot be factored and NoConvergence when the
    Schur scalar row_mu - row_x.b is zero or non-finite.
    """
    lu = factor(J, SingularJacobian, "bordered Newton: LU of J failed")
    b = lu.solve(f_mu)
    schur = row_mu - float(row_x @ b)
    if not (np.isfinite(schur) and schur != 0.0):
        raise NoConvergence(f"bordered Newton: Schur scalar {schur:.3e} is singular")

    def solve(res: np.ndarray, con: float) -> tuple[np.ndarray, float]:
        a = lu.solve(-res)
        dmu = (-con - float(row_x @ a)) / schur
        return a - b * dmu, dmu

    return solve


def bordered_newton(
    x: np.ndarray,
    mu: float,
    row_x: np.ndarray,
    row_mu: float,
    target: float,
    params: ModelParams,
    geom: DomainGeometry,
    cfg: NewtonConfig,
) -> tuple[SystemState, float, list[float]]:
    """Chord Newton on [steady residual; row_x.x + row_mu*mu - target] over (x, mu).

    The one Newton for every (state, mu) solve (Keller 1977; Govaerts 2000):
    fixed-mu solves, pseudo-arclength steps and amplitude-pinned solves differ
    only in the constraint row. Updates come from _keller_solver over an LU
    of J, which is kept across iterations and refactored at the current
    iterate only when the residual inf-norm shrinks by less than
    CHORD_CONTRACTION. Iterates, the start included, are clamped to x >= 0.
    Returns the state, mu and the residual inf-norm of every iterate, the
    last at the returned point. At most cfg.max_iter residuals are evaluated.
    Raises SingularJacobian when J cannot be factored or an update is
    non-finite or blows up, and NoConvergence when a mu iterate leaves
    mu >= 0, the Schur scalar is singular, or the budget runs out.
    """
    x = np.maximum(x, 0.0)
    con_tol = CONSTRAINT_TOL * max(1.0, abs(target))
    history: list[float] = []
    solve = None
    for _ in range(cfg.max_iter):
        if not mu >= 0.0:
            raise NoConvergence(f"bordered Newton: mu iterate {mu:.6g} is negative")
        st = SystemState.from_vector(x, geom.n_omega)
        p_mu = params.with_mu(mu)
        res = residual_steady(p_mu, st.u, st.v, geom)
        rnorm = float(np.max(np.abs(res)))
        con = float(row_x @ x) + row_mu * mu - target
        if rnorm <= cfg.tol_residual and abs(con) <= con_tol:
            return st, mu, history + [rnorm]
        if solve is None or rnorm > CHORD_CONTRACTION * history[-1]:
            J = assemble_jacobian(p_mu, st.u, st.v, geom)
            solve = _keller_solver(J, residual_mu_derivative(st.v, geom), row_x, row_mu)
        history.append(rnorm)
        dx, dmu = solve(res, con)
        if not (np.isfinite(dmu) and np.max(np.abs(dx)) <= 1e12 * (1.0 + np.max(np.abs(x)))):
            raise SingularJacobian("bordered Newton: update non-finite or blew up")
        x = np.maximum(x + dx, 0.0)
        mu = mu + dmu
    raise NoConvergence(
        f"bordered Newton: residual {history[-1]:.3e} after {cfg.max_iter} iterations"
    )


def newton_solve(
    state0: SystemState,
    params: ModelParams,
    cfg: NewtonConfig,
    geom: DomainGeometry,
) -> SteadyResult:
    """Solve the steady system at params.mu: bordered_newton with mu pinned.

    The constraint row (0, 1) with target params.mu makes the Schur scalar
    exactly 1 and every mu update exactly 0, so this is the chord Newton at
    fixed mu. A failing LU raises SingularJacobian, which callers near the
    bifurcation point treat as a proximity signal.
    """
    x0 = state0.as_vector()
    state, _, history = bordered_newton(
        x0, params.mu, np.zeros_like(x0), 1.0, params.mu, params, geom, cfg
    )
    return SteadyResult(state, len(history) - 1, history[-1], history)


def _backward_error(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||) in the inf-norm.

    Unlike the relative residual ||A x - b|| / ||b||, which grows with
    cond(A) ~ h^-2 under rounding alone, this stays at machine precision for
    a backward-stable solve on every grid.
    """
    norm_a = float(np.max(np.asarray(abs(A).sum(axis=1)).ravel()))
    scale = norm_a * np.max(np.abs(x)) + np.max(np.abs(b))
    return float(np.max(np.abs(A @ x - b)) / max(scale, 1e-300))


@dataclass
class KernelTangent:
    """Null direction of the bifurcation-point linearization: alpha on the
    habitat paired with the constant 1 on the predator domain; the branch
    tangent in (u, v) coordinates is (-alpha, 1)."""

    alpha: ScalarField

    def direction(self, geom: DomainGeometry) -> np.ndarray:
        """Concatenated (-alpha, 1) over [u cells; v cells]."""
        return np.concatenate([-self.alpha.values, np.ones(geom.n_omega1)])


def solve_kernel_function(params: ModelParams, geom: DomainGeometry) -> KernelTangent:
    """Solve -lap alpha + alpha = b(x)/(1 + m*lam) with zero flux on the habitat.

    The right-hand side vanishes inside the refuge, so alpha dips there and
    peaks on the predator domain; with no refuge alpha is the constant
    b/(1 + m*lam). The solve is independent of mu.
    """
    n = geom.n_omega
    A = (sp.identity(n, format="csr") - geom.lap_omega).tocsc()
    rhs = np.where(geom.omega1_flat, params.b, 0.0) / (1.0 + params.m * params.lam)
    lu = factor(A, LinearSolveFailure, "kernel-function solve failed")
    alpha = lu.solve(rhs)
    # one pass of iterative refinement to push the residual to the floor
    alpha += lu.solve(rhs - A @ alpha)
    err = _backward_error(A, alpha, rhs)
    if not np.all(np.isfinite(alpha)) or err > LINSOLVE_RTOL:
        raise LinearSolveFailure(f"kernel-function solve met only {err:.3e} backward error")
    return KernelTangent(ScalarField(alpha, Region.OMEGA))
