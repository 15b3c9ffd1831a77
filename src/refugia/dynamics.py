"""Transient integration: first-order IMEX stepping toward attractors.

Diffusion is treated implicitly (for prey with face coefficients frozen at
the step start, for predators with the constant-coefficient Laplacian),
reactions explicitly. Time accuracy is deliberately first order: only the
attractor is consumed, as independent evidence for the stability assignments
made by the eigenvalue machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveFailure, StepRejected
from .fields import Region, ScalarField, SystemState
from .geometry import DomainGeometry
from .operators import ModelParams, _kinetics, frozen_diffusion_matrix, rhs_transient

#: post-solve values below this reject the step (dt too large)
REJECT_BELOW = -1e-8

#: inner CG solves target this relative residual
CG_RTOL = 1e-12


@dataclass(frozen=True)
class TransientConfig:
    dt: float = 0.1
    t_end: float = 400.0
    steady_tol: float = 1e-7  # inf-norm of (du/dt, dv/dt) declaring convergence
    max_steps: int = 100_000

    def __post_init__(self):
        if self.dt <= 0 or self.steady_tol <= 0:
            raise ValueError("dt and steady_tol must be positive")


@dataclass
class TransientResult:
    state: SystemState
    converged: bool
    history: np.ndarray  # rows: t, |u|_inf, |v|_inf, |du/dt|_inf, |dv/dt|_inf
    t_final: float
    steps: int


def _cg(M, rhs, x0, what):
    x, info = spla.cg(M, rhs, x0=x0, rtol=CG_RTOL, atol=0.0, maxiter=20 * rhs.size)
    if info != 0:
        raise LinearSolveFailure(f"CG for {what} update returned info={info}")
    return x


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
    _mat_v: sp.spmatrix | None = None,
) -> SystemState:
    """One IMEX step: implicit frozen-coefficient diffusion, explicit reaction."""
    u_old = state.u.values
    v_old = state.v.values
    react_u, react_v = _kinetics(params, u_old, v_old, geom, params.r)

    n = geom.n_omega
    A = frozen_diffusion_matrix(u_old, geom)
    M_u = sp.identity(n, format="csr") - (dt * params.d_u) * A
    u_new = _cg(M_u, u_old + dt * react_u, u_old, "prey")

    if _mat_v is None:
        _mat_v = sp.identity(geom.n_omega1, format="csr") - (dt * params.d_v) * geom.lap_omega1
    v_new = _cg(_mat_v, v_old + dt * react_v, v_old, "predator")

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
    mat_v = sp.identity(geom.n_omega1, format="csr") - (cfg.dt * params.d_v) * geom.lap_omega1

    def rates(st):
        du, dv = rhs_transient(params, st.u, st.v, geom)
        return du.inf_norm, dv.inf_norm

    du_n, dv_n = rates(state)
    rows = [(0.0, state.u.inf_norm, state.v.inf_norm, du_n, dv_n)]
    t = 0.0
    steps = 0
    converged = max(du_n, dv_n) <= cfg.steady_tol
    while not converged and steps < cfg.max_steps and t < cfg.t_end - 1e-12:
        state = imex_step(state, params, cfg.dt, geom, _mat_v=mat_v)
        t += cfg.dt
        steps += 1
        du_n, dv_n = rates(state)
        rows.append((t, state.u.inf_norm, state.v.inf_norm, du_n, dv_n))
        converged = max(du_n, dv_n) <= cfg.steady_tol
    return TransientResult(state, converged, np.array(rows), t, steps)
