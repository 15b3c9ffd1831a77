"""Damped Newton solver for the steady system and the kernel-function solve
that yields the bifurcation tangent.

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
from .operators import ModelParams, assemble_jacobian, factor, residual_steady

#: direct sparse solves must meet this normwise backward error
LINSOLVE_RTOL = 1e-12

#: the line search scales a rejected Newton step by this factor
BACKTRACK_FACTOR = 0.5

#: the line search gives up once the step fraction falls below this
MIN_STEP = 2.0**-10


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-10  # inf-norm of the steady residual
    max_iter: int = 50

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")


@dataclass
class SteadyResult:
    state: SystemState
    iterations: int
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)


def _residual_of(x: np.ndarray, params: ModelParams, geom: DomainGeometry) -> np.ndarray:
    st = SystemState.from_vector(x, geom.n_omega)
    return residual_steady(params, st.u, st.v, geom)


def newton_solve(
    state0: SystemState,
    params: ModelParams,
    cfg: NewtonConfig,
    geom: DomainGeometry,
) -> SteadyResult:
    """Solve the steady system by damped Newton with nonnegativity clamping.

    Iterates (including line-search trial points) are clamped to the
    nonnegative orthant before the residual is evaluated. Raises
    SingularJacobian when the linear solve fails, which callers near the
    bifurcation point treat as a proximity signal, and NoConvergence when the
    iteration or line-search budget runs out.
    """
    x = np.maximum(state0.as_vector(), 0.0)
    res = _residual_of(x, params, geom)
    rnorm = float(np.max(np.abs(res)))
    history = [rnorm]

    for it in range(cfg.max_iter):
        if rnorm <= cfg.tol_residual:
            return SteadyResult(SystemState.from_vector(x, geom.n_omega), it, rnorm, history)
        st = SystemState.from_vector(x, geom.n_omega)
        J = assemble_jacobian(params, st.u, st.v, geom)
        delta = factor(J, SingularJacobian, "Newton linear solve failed").solve(-res)
        if not np.all(np.isfinite(delta)) or np.max(np.abs(delta)) > 1e12 * (
            1.0 + np.max(np.abs(x))
        ):
            raise SingularJacobian("Newton update blew up; Jacobian numerically singular")

        step = 1.0
        while True:
            x_trial = np.maximum(x + step * delta, 0.0)
            res_trial = _residual_of(x_trial, params, geom)
            rnorm_trial = float(np.max(np.abs(res_trial)))
            if rnorm_trial < rnorm:
                break
            step *= BACKTRACK_FACTOR
            if step < MIN_STEP:
                raise NoConvergence(
                    f"line search stalled at residual {rnorm:.3e} (iteration {it})"
                )
        x, res, rnorm = x_trial, res_trial, rnorm_trial
        history.append(rnorm)

    if rnorm <= cfg.tol_residual:
        return SteadyResult(SystemState.from_vector(x, geom.n_omega), cfg.max_iter, rnorm, history)
    raise NoConvergence(f"residual {rnorm:.3e} after {cfg.max_iter} iterations")


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
