"""Transient integration: first-order IMEX stepping toward attractors.

Diffusion is treated implicitly (for prey with face coefficients frozen at
the step start, for predators with the constant-coefficient Laplacian),
reactions explicitly. Time accuracy is deliberately first order: only the
attractor is consumed, as independent evidence for the stability assignments
made by the eigenvalue machinery.

The transient system is x' = F(x) with F = residual_steady, the steady
residual, so a converged run ends on a steady state. Steps are taken in
increment (delta) form over the one rate F(x) per state x = [u; v], which also
gives the rate history:
u_new = u + (I - dt*A(u))^-1 (dt*F_u), v_new = v + (I - dt*L)^-1 (dt*F_v).
As A(u)*u = div(u grad u) on the grid, this is the frozen-coefficient step.
Its fixed points are the steady states for every dt, so a run grows its step
toward the attractor (pseudo-transient continuation, after the switched
evolution relaxation of Mulder & van Leer, 1985) on the ladder dt_k = dt*2**k,
starting at k = 0. After a step at level k, with F before and F' after it,
mu = <F', F>/<F, F> is the rate's signed multiplier over the step. For one
mode damped by a factor mu at level k, level k+1 damps it by 2*mu - 1 and
level k-1 by (1 + mu)/2 (explicit reaction), which gives:
- 1/3 < mu < 1: the rate decays without overshoot; go one level up,
  unless the ladder is capped there;
- mu < -1/3: the step overshot (the explicit reactions oscillate); go one
  level down;
- otherwise hold: |mu| <= 1/3 damps at least threefold per step, and
  mu >= 1 is physical growth, such as the predator invading.
A level above the base that takes STALL_STEPS steps without a new low of the
rate inf-norm (counted from the last base step) is not converging: it caps
the ladder below itself and drops one level. A StepRejected at level k > 0
caps the ladder below k and retries the step at k - 1; at level 0 it ends
the run.
Each level has its own solver, made on first use and kept. Its predator
matrix is constant, so it is factored once. The prey operator
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
from .geometry import DomainGeometry
from .operators import (ModelParams, clamp_nonnegative, factor, frozen_diffusion,
                        frozen_diffusion_matrix, residual_steady, split)

#: post-solve values below this reject the step (dt too large)
REJECT_BELOW = -1e-8

#: prey CG solves stop at an unpreconditioned residual of CG_RTOL * ||u_old||_2
CG_RTOL = 1e-12

#: a prey solve needing more CG iterations than this refactors the preconditioner
REFACTOR_ITERS = 12

#: earlier prey solves whose increments span the next solve's CG start
HISTORY = 3

#: steps above the base level without a new low of the rate inf-norm that cap the ladder
STALL_STEPS = 16


@dataclass(frozen=True)
class TransientConfig:
    dt: float = 0.1
    t_end: float = 400.0
    steady_tol: float = 1e-7  # inf-norm of (du/dt, dv/dt) declaring convergence

    def __post_init__(self):
        for name in ("dt", "t_end", "steady_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class TransientResult:
    x: np.ndarray  # the last state [u; v] (see operators.split)
    converged: bool
    history: np.ndarray  # rows: t, |u|_inf, |v|_inf, |du/dt|_inf, |dv/dt|_inf
    t_final: float
    steps: int


class _ImplicitSolver:
    """Implicit solves of IMEX steps with one (geom, dt): the predator LU, and
    the prey solve with its lagged-LU preconditioner."""

    def __init__(self, geom: DomainGeometry, dt: float):
        self.geom = geom
        self.dt = dt
        eye = sp.identity(geom.n_omega1, format="csc")
        self.lu_v = factor(eye - dt * geom.lap_omega1, LinearSolveFailure,
                           "LU of the predator matrix failed")
        self.precond_u = None  # solve with the LU of a lagged prey matrix, built on first use
        self.history = deque(maxlen=HISTORY)  # (du, dt*rate_u) of the latest prey solves

    def advance(self, x: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """The step from x = [u; v] driven by the rates [rate_u; rate_v], residual_steady(x)
        in a run.

        The prey increment solves (I - dt*A(u)) du = b = dt*rate_u by CG to an
        unpreconditioned residual of CG_RTOL*||u||_2, started from X c: the
        columns of X and B are the increments and right-hand sides of the last
        HISTORY solves, and c minimises ||B c - b||_2 (zero before the first
        solve). A start that already meets the tolerance takes no iteration.
        """
        (u, v), (rate_u, rate_v) = split(x, self.geom), split(rate, self.geom)
        n, dt = u.size, self.dt
        if self.precond_u is None:
            lagged = sp.identity(n, format="csr") - dt * frozen_diffusion_matrix(u, self.geom)
            lu = factor(lagged, LinearSolveFailure, "LU of the prey matrix failed")
            self.precond_u = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        A_u = frozen_diffusion(u, self.geom)
        M_u = spla.LinearOperator((n, n), matvec=lambda x: x - dt * A_u(x), dtype=float)
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        b = dt * rate_u
        x0 = None
        if self.history:
            X, B = (np.column_stack(cols) for cols in zip(*self.history))
            x0 = X @ np.linalg.lstsq(B, b, rcond=None)[0]
        du, info = spla.cg(M_u, b, x0=x0, rtol=0.0, atol=CG_RTOL * np.linalg.norm(u),
                           M=self.precond_u, callback=count)
        if info != 0:
            raise LinearSolveFailure(f"CG for prey update returned info={info}")
        self.history.append((du, b))
        if iters > REFACTOR_ITERS:
            self.precond_u = None
        dv = self.lu_v.solve(dt * rate_v)
        return np.concatenate([clamp_nonnegative(u + du, "prey", REJECT_BELOW, StepRejected),
                               clamp_nonnegative(v + dv, "predator", REJECT_BELOW, StepRejected)])


def run_to_steady(
    x: np.ndarray,
    params: ModelParams,
    cfg: TransientConfig,
    geom: DomainGeometry,
) -> TransientResult:
    """Step from x = [u; v] until the instantaneous rates drop below
    steady_tol, on the ladder of steps dt * 2**k (see the module docstring).

    Each state's rate F(x) is evaluated once: it is the history row's rates,
    the convergence test and the drive of the next step and of its retries.
    t counts base steps dt, so it is exact, and no step carries it past
    t_end; at the horizon t reads t_end, not a product rounded past it.
    Non-convergence within the horizon is a flag, not an error; callers
    inspect the rate history.
    """
    solvers: dict[int, _ImplicitSolver] = {}  # level -> its solver, made on first use
    horizon = math.floor(cfg.t_end / cfg.dt + 1e-9)  # base steps that fit in t_end
    rows = []
    units = 0  # t = units * dt
    level, top = 0, math.inf  # the ladder's level and its cap
    k, last = 0, None  # the last step's level and the rate before it
    low, stalled = math.inf, 0  # lowest rate norm since the last base step, steps since
    while True:
        rate = residual_steady(params, x, geom)
        norms = [float(np.max(np.abs(f))) for f in (*split(x, geom), *split(rate, geom))]
        t = min(units * cfg.dt, cfg.t_end)
        rows.append((t, *norms))
        rate_norm = max(norms[2:])
        converged = rate_norm <= cfg.steady_tol
        if converged or units >= horizon:
            return TransientResult(x, converged, np.array(rows), t, len(rows) - 1)
        if k == 0 or rate_norm < low:
            low, stalled = rate_norm, 0
        else:
            stalled += 1
        if stalled >= STALL_STEPS:
            top = level = k - 1
            stalled = 0
        elif last is not None:
            mu = float(rate @ last) / float(last @ last)
            if mu < -1 / 3:
                level = max(k - 1, 0)
            elif 1 / 3 < mu < 1:
                level = min(k + 1, top)
        while True:
            step_k = min(level, (horizon - units).bit_length() - 1)  # 2**step_k fits
            if step_k not in solvers:
                solvers[step_k] = _ImplicitSolver(geom, cfg.dt * 2**step_k)
            try:
                x = solvers[step_k].advance(x, rate)
                break
            except StepRejected:
                if step_k == 0:
                    raise
                top = level = step_k - 1
        k, last = step_k, rate
        units += 2**k
