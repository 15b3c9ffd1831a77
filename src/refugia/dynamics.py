"""Transient integration: first-order IMEX stepping toward attractors.

Diffusion is treated implicitly (for prey with face coefficients frozen at
the step start, for predators with the constant-coefficient Laplacian),
reactions explicitly. Time accuracy is deliberately first order: only the
attractor is consumed, as independent evidence for the stability assignments
made by the eigenvalue machinery.

Steps are taken in increment (delta) form over the one right-hand side
F = rhs_transient(x) per state x = [u; v], which also gives the rate history:
u_new = u + (I - dt*d_u*A(u))^-1 (dt*F_u), v_new = v + (I - dt*d_v*L)^-1 (dt*F_v).
As A(u)*u = div(u grad u) on the grid, this is the frozen-coefficient step.
The predator matrix is constant, so it is factored once. The prey operator
is symmetric positive definite and drifts slowly with u; CG applies it in
difference form, preconditioned with the LU of an earlier step's assembled
matrix, refactored once a solve needs more than REFACTOR_ITERS iterations.
Successive prey increments along an approach to an attractor are nearly
linearly dependent, so CG starts from the combination of the last HISTORY
increments whose right-hand sides best fit the new one in least squares
(projection onto previous solutions: P. F. Fischer, CMAME 163, 1998).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveFailure, StepRejected
from .fields import SystemState
from .geometry import DomainGeometry
from .operators import (ModelParams, factor, frozen_diffusion, frozen_diffusion_matrix,
                        rhs_transient, split)

#: post-solve values below this reject the step (dt too large)
REJECT_BELOW = -1e-8

#: prey CG solves stop at an unpreconditioned residual of CG_RTOL * ||u_old||_2
CG_RTOL = 1e-12

#: a prey solve needing more CG iterations than this refactors the preconditioner
REFACTOR_ITERS = 12

#: earlier prey solves whose increments span the next solve's CG start
HISTORY = 3


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


class _ImplicitSolver:
    """Implicit solves of IMEX steps with one (geom, params, dt): the predator
    LU, and the prey solve with its lagged-LU preconditioner."""

    def __init__(self, geom: DomainGeometry, params: ModelParams, dt: float):
        self.geom = geom
        self.dt = dt
        self.prey_scale = dt * params.d_u
        eye = sp.identity(geom.n_omega1, format="csc")
        self.lu_v = factor(eye - (dt * params.d_v) * geom.lap_omega1, LinearSolveFailure,
                           "LU of the predator matrix failed")
        self.precond_u = None  # solve with the LU of a lagged prey matrix, built on first use
        self.history = deque(maxlen=HISTORY)  # (du, dt*rate_u) of the latest prey solves

    def advance(self, x: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """The step from x = [u; v] driven by its rates [rate_u; rate_v] = rhs_transient(x).

        The prey increment solves (I - dt*d_u*A(u)) du = b = dt*rate_u by CG to an
        unpreconditioned residual of CG_RTOL*||u||_2, started from X c: the
        columns of X and B are the increments and right-hand sides of the last
        HISTORY solves, and c minimises ||B c - b||_2 (zero before the first
        solve). A start that already meets the tolerance takes no iteration.
        """
        (u, v), (rate_u, rate_v) = split(x, self.geom), split(rate, self.geom)
        n, s = u.size, self.prey_scale
        if self.precond_u is None:
            lagged = sp.identity(n, format="csr") - s * frozen_diffusion_matrix(u, self.geom)
            lu = factor(lagged, LinearSolveFailure, "LU of the prey matrix failed")
            self.precond_u = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        A_u = frozen_diffusion(u, self.geom)
        M_u = spla.LinearOperator((n, n), matvec=lambda x: x - s * A_u(x), dtype=float)
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        b = self.dt * rate_u
        x0 = None
        if self.history:
            X, B = (np.column_stack(cols) for cols in zip(*self.history))
            x0 = X @ np.linalg.lstsq(B, b, rcond=None)[0]
        du, info = spla.cg(M_u, b, x0=x0, rtol=0.0,
                           atol=CG_RTOL * np.linalg.norm(u), maxiter=20 * n,
                           M=self.precond_u, callback=count)
        if info != 0:
            raise LinearSolveFailure(f"CG for prey update returned info={info}")
        self.history.append((du, b))
        if iters > REFACTOR_ITERS:
            self.precond_u = None
        dv = self.lu_v.solve(self.dt * rate_v)
        return np.concatenate([_clamp_step(u + du, "prey"), _clamp_step(v + dv, "predator")])


def _clamp_step(values: np.ndarray, what: str) -> np.ndarray:
    lo = float(values.min()) if values.size else 0.0
    if lo < REJECT_BELOW:
        raise StepRejected(f"{what} reached {lo:.3e} < {REJECT_BELOW}; reduce dt")
    if lo < 0.0:
        values = np.where(values < 0.0, 0.0, values)
    return values


def imex_step(
    x: np.ndarray,
    params: ModelParams,
    dt: float,
    geom: DomainGeometry,
    _solver: _ImplicitSolver | None = None,
) -> np.ndarray:
    """One IMEX step: implicit frozen-coefficient diffusion, explicit reaction.

    _solver carries the factorizations between steps with the same geom,
    params and dt; without one the step factors its own matrices.
    """
    if _solver is None:
        _solver = _ImplicitSolver(geom, params, dt)
    return _solver.advance(x, rhs_transient(params, x, geom))


def run_to_steady(
    state0: SystemState,
    params: ModelParams,
    cfg: TransientConfig,
    geom: DomainGeometry,
) -> TransientResult:
    """Step until the instantaneous rates drop below steady_tol.

    Each state's right-hand side is evaluated once: it is the history row's
    rates, the convergence test and the drive of the next step.
    Non-convergence within the horizon is a flag, not an error; callers
    inspect the rate history.
    """
    x = state0.as_vector()
    solver = _ImplicitSolver(geom, params, cfg.dt)
    rows = []
    t = 0.0
    steps = 0
    while True:
        rate = rhs_transient(params, x, geom)
        norms = [float(np.max(np.abs(f))) for f in (*split(x, geom), *split(rate, geom))]
        rows.append((t, *norms))
        converged = max(norms[2:]) <= cfg.steady_tol
        if converged or steps >= cfg.max_steps or t >= cfg.t_end - 1e-12:
            state = SystemState.from_vector(x, geom.n_omega)
            return TransientResult(state, converged, np.array(rows), t, steps)
        x = solver.advance(x, rate)
        steps += 1
        t = steps * cfg.dt
