"""Transient integration: first-order IMEX stepping toward attractors.

Diffusion is treated implicitly (for prey with face coefficients frozen at
the step start, for predators with the constant-coefficient Laplacian),
reactions explicitly. Time accuracy is deliberately first order: only the
attractor is consumed, as independent evidence for the stability assignments
made by the eigenvalue machinery.

The predator matrix I - dt*d_v*L is constant, so it is factored once and
solved directly. The prey matrix I - dt*d_u*A(u) is symmetric positive
definite and drifts slowly with u; it is solved by CG preconditioned with
the LU of an earlier step's matrix, refactored once a solve needs more than
REFACTOR_ITERS iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveFailure, StepRejected
from .fields import Region, ScalarField, SystemState
from .geometry import DomainGeometry
from .operators import PERMC_SPEC, ModelParams, _kinetics, frozen_diffusion_matrix, rhs_transient

#: post-solve values below this reject the step (dt too large)
REJECT_BELOW = -1e-8

#: prey CG solves target this relative residual (of the unpreconditioned system)
CG_RTOL = 1e-12

#: a prey solve needing more CG iterations than this refactors the preconditioner
REFACTOR_ITERS = 12


@dataclass(frozen=True)
class TransientConfig:
    dt: float = 0.1
    t_end: float = 400.0
    steady_tol: float = 1e-7  # inf-norm of (du/dt, dv/dt) declaring convergence
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("dt", "t_end", "steady_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")


@dataclass
class TransientResult:
    state: SystemState
    converged: bool
    history: np.ndarray  # rows: t, |u|_inf, |v|_inf, |du/dt|_inf, |dv/dt|_inf
    t_final: float
    steps: int


def _factor(M: sp.spmatrix, what: str):
    try:
        return spla.splu(M.tocsc(), permc_spec=PERMC_SPEC)
    except RuntimeError as exc:
        raise LinearSolveFailure(f"LU of the {what} matrix failed: {exc}") from exc


class _ImplicitSolver:
    """Implicit solves of IMEX steps with one (geom, params, dt): the predator
    LU, and the prey solve with its lagged-LU preconditioner."""

    def __init__(self, geom: DomainGeometry, params: ModelParams, dt: float):
        self.geom = geom
        self.prey_scale = dt * params.d_u
        eye = sp.identity(geom.n_omega1, format="csc")
        self.lu_v = _factor(eye - (dt * params.d_v) * geom.lap_omega1, "predator")
        self.precond_u = None  # solve with the LU of a lagged prey matrix, built on first use

    def prey(self, u_old: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dt*d_u*A(u_old)) u = rhs by preconditioned CG from u_old."""
        n = u_old.size
        M_u = sp.identity(n, format="csr") - self.prey_scale * frozen_diffusion_matrix(
            u_old, self.geom
        )
        if self.precond_u is None:
            lu = _factor(M_u, "prey")
            self.precond_u = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        u_new, info = spla.cg(M_u, rhs, x0=u_old, rtol=CG_RTOL, atol=0.0, maxiter=20 * n,
                              M=self.precond_u, callback=count)
        if info != 0:
            raise LinearSolveFailure(f"CG for prey update returned info={info}")
        if iters > REFACTOR_ITERS:
            self.precond_u = None
        return u_new


def _clamp_step(values: np.ndarray, what: str) -> np.ndarray:
    lo = float(values.min()) if values.size else 0.0
    if lo < REJECT_BELOW:
        raise StepRejected(f"{what} reached {lo:.3e} < {REJECT_BELOW}; reduce dt")
    if lo < 0.0:
        values = np.where(values < 0.0, 0.0, values)
    return values


def imex_step(
    state: SystemState,
    params: ModelParams,
    dt: float,
    geom: DomainGeometry,
    _solver: _ImplicitSolver | None = None,
) -> SystemState:
    """One IMEX step: implicit frozen-coefficient diffusion, explicit reaction.

    _solver carries the factorizations between steps with the same geom,
    params and dt; without one the step factors its own matrices.
    """
    u_old = state.u.values
    v_old = state.v.values
    react_u, react_v = _kinetics(params, u_old, v_old, geom, params.r)
    if _solver is None:
        _solver = _ImplicitSolver(geom, params, dt)
    u_new = _solver.prey(u_old, u_old + dt * react_u)
    v_new = _solver.lu_v.solve(v_old + dt * react_v)

    return SystemState(
        ScalarField(_clamp_step(u_new, "prey"), Region.OMEGA),
        ScalarField(_clamp_step(v_new, "predator"), Region.OMEGA1),
    )


def run_to_steady(
    state0: SystemState,
    params: ModelParams,
    cfg: TransientConfig,
    geom: DomainGeometry,
) -> TransientResult:
    """Step until the instantaneous rates drop below steady_tol.

    Non-convergence within the horizon is a flag, not an error; callers
    inspect the rate history.
    """
    state = state0.copy()
    solver = _ImplicitSolver(geom, params, cfg.dt)

    def rates(st):
        du, dv = rhs_transient(params, st.u, st.v, geom)
        return du.inf_norm, dv.inf_norm

    du_n, dv_n = rates(state)
    rows = [(0.0, state.u.inf_norm, state.v.inf_norm, du_n, dv_n)]
    t = 0.0
    steps = 0
    converged = max(du_n, dv_n) <= cfg.steady_tol
    while not converged and steps < cfg.max_steps and t < cfg.t_end - 1e-12:
        state = imex_step(state, params, cfg.dt, geom, _solver=solver)
        t += cfg.dt
        steps += 1
        du_n, dv_n = rates(state)
        rows.append((t, state.u.inf_norm, state.v.inf_norm, du_n, dv_n))
        converged = max(du_n, dv_n) <= cfg.steady_tol
    return TransientResult(state, converged, np.array(rows), t, steps)
