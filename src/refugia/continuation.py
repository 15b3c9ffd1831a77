"""Branch tracing and the bifurcation audit.

The predator-free line is traced directly (its states are known), the leading
eigenvalue crossing on it is located in closed form from its block pairs, the
coexistence branch is entered along the kernel tangent and continued by
pseudo-arclength, and the stability exchange, eigenvalue sign relation, and
branch tangency are audited into a report.

The arclength metric over (state, mu) pairs is sqrt(mean(dx^2) + dmu^2),
which keeps step sizes grid-independent and comparable to the predator
amplitude. The amplitude itself (spatial mean of v over the predator domain)
is the measurable proxy for the branch parameter: the v-tangent at the
bifurcation is the constant 1, so amplitude = s to first order.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationStalled, NoConvergence, NoCrossing
from .fields import SystemState, constant_state
from .geometry import DomainGeometry
from .operators import ModelParams, assemble_jacobian, coupled_order, split
from .spectral import EigenPair, StabilityFlag, classify_value, leading_eigenvalue
from .steady import NewtonConfig, bordered_newton, newton_solve, solve_kernel_function

#: |mu - mu*| band inside which the sign relation is not audited
MU_BAND = 1e-4

#: mu offset of the branch-switch corrector below mu*, as a fraction of mu*
DELTA_SWITCH_FRACTION = 1e-2

#: continuation halves a failing step down to ds/MIN_DS_FACTOR before it gives up
MIN_DS_FACTOR = 64

#: a corrected point farther than MAX_STEP_RATIO*ds from the last one left the branch
MAX_STEP_RATIO = 2.0


class RegionOfApplicabilityWarning(UserWarning):
    """The sign-relation audit was fed a branch it is not meant for."""


class BranchLabel(enum.Enum):
    SEMITRIVIAL = "semitrivial"
    NONTRIVIAL = "nontrivial"


@dataclass
class BranchPoint:
    mu: float
    state: SystemState
    s: float  # accumulated arclength from the bifurcation point (nontrivial branch)
    amplitude: float  # spatial mean of v over the predator domain
    gamma: float  # leading eigenvalue of the linearization
    flag: StabilityFlag
    residual_norm: float
    eigen_residual: float = float("nan")
    complex_pair: bool = False
    corrector_iters: int = 0  # chord iterations of the solve that produced the point


@dataclass
class Branch:
    label: BranchLabel
    points: list[BranchPoint]
    #: predator-free branch only: leading pairs of the u-block and of the
    #: v-block at mu = 0 (see trace_semitrivial)
    blocks: tuple[EigenPair, EigenPair] | None = None

    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.points])

    def gammas(self) -> np.ndarray:
        return np.array([p.gamma for p in self.points])

    def amplitudes(self) -> np.ndarray:
        return np.array([p.amplitude for p in self.points])


def amplitude_of(state: SystemState) -> float:
    """Spatial mean of the predator field over the predator domain."""
    return float(state.v.values.mean()) if state.v.values.size else 0.0


def _semitrivial_blocks(
    params: ModelParams, geom: DomainGeometry
) -> tuple[EigenPair, EigenPair]:
    """Leading pairs of the two diagonal blocks of the linearization at (lam, 0).

    There the Jacobian is block upper-triangular (the v-equation's u-derivative
    carries a factor v = 0). The u-block does not involve mu, and the v-block
    at mu is the v-block at mu = 0 minus mu*I, so the two pairs give the
    leading eigenvalue max(g_u, g_v0 - mu) for every mu.
    """
    x = constant_state(geom, params.lam, 0.0).as_vector()
    J = assemble_jacobian(params.with_mu(0.0), x, geom).tocsr()
    n = geom.n_omega
    return leading_eigenvalue(J[:n, :n]), leading_eigenvalue(J[n:, n:])


def _semitrivial_leading(
    blocks: tuple[EigenPair, EigenPair], mu: float
) -> tuple[float, EigenPair]:
    """Leading eigenvalue at mu on the predator-free line and the block pair
    it comes from."""
    g_u, g_v0 = blocks
    if g_u.value >= g_v0.value - mu:
        return g_u.value, g_u
    return g_v0.value - mu, g_v0


def trace_semitrivial(
    params_base: ModelParams,
    mu_range: tuple[float, float],
    n_points: int,
    geom: DomainGeometry,
) -> Branch:
    """The predator-free branch: states are exactly (lam, 0), no solve needed.

    The leading eigenvalue needs two block eigen solves per branch, not one
    full solve per point: gamma(mu) = max(g_u, g_v0 - mu), with g_u the
    leading eigenvalue of the mu-independent u-block and g_v0 that of the
    v-block at mu = 0. Both pairs stay on the branch for
    detect_transcritical. The s field is not meaningful on this branch and is
    recorded as 0.
    """
    lo, hi = mu_range
    if lo <= 0 or hi < lo or (n_points > 1 and hi == lo):
        raise ValueError("mu_range must satisfy 0 < lo <= hi (lo < hi for several points)")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    blocks = _semitrivial_blocks(params_base, geom)
    pts = []
    for mu in np.linspace(lo, hi, n_points):
        gamma, ep = _semitrivial_leading(blocks, float(mu))
        st = constant_state(geom, params_base.lam, 0.0)
        pts.append(
            BranchPoint(
                mu=float(mu),
                state=st,
                s=0.0,
                amplitude=0.0,
                gamma=gamma,
                flag=classify_value(gamma),
                residual_norm=0.0,
                eigen_residual=ep.residual,
                complex_pair=ep.complex_pair,
            )
        )
    return Branch(BranchLabel.SEMITRIVIAL, pts, blocks)


def detect_transcritical(branch: Branch) -> float:
    """Locate the eigenvalue crossing on the predator-free branch.

    On this line gamma(mu) = max(g_u, g_v0 - mu) (see trace_semitrivial), which
    decreases in mu. So once the sampled gamma changes sign, the crossing is
    exactly mu = g_v0, and no eigenproblem is solved here. Raises NoCrossing
    when gamma has constant sign over the branch.
    """
    if branch.label is not BranchLabel.SEMITRIVIAL or branch.blocks is None:
        raise ValueError("crossing detection runs on a branch from trace_semitrivial")
    gam = branch.gammas()
    if np.all(gam > 0) or np.all(gam < 0):
        mus = branch.mus()
        raise NoCrossing(
            f"leading eigenvalue keeps sign {np.sign(gam[0]):+.0f} over mu in "
            f"[{mus[0]:g}, {mus[-1]:g}]"
        )
    return float(branch.blocks[1].value)


def _point_from_state(
    x: np.ndarray,
    mu: float,
    s: float,
    params: ModelParams,
    geom: DomainGeometry,
    history: list[float],
) -> BranchPoint:
    """Branch point at a converged state x = [u; v]; history is the residual
    inf-norm of every iterate of the solve that reached it, the last at x."""
    J = assemble_jacobian(params.with_mu(mu), x, geom)
    ep = leading_eigenvalue(J, coupled_order(geom))
    state = SystemState.from_vector(x, geom.n_omega)
    return BranchPoint(
        mu=mu,
        state=state,
        s=s,
        amplitude=amplitude_of(state),
        gamma=ep.value,
        flag=classify_value(ep.value),
        residual_norm=history[-1],
        eigen_residual=ep.residual,
        complex_pair=ep.complex_pair,
        corrector_iters=len(history) - 1,
    )


def branch_switch(
    mu_star: float,
    params: ModelParams,
    geom: DomainGeometry,
    s0: float,
    newton_cfg: NewtonConfig | None = None,
) -> BranchPoint:
    """Step off the predator-free line onto the coexistence branch.

    Predictor: (lam, 0) + s0 * (-alpha, 1) at mu = mu* - DELTA_SWITCH_FRACTION*mu*,
    alpha from solve_kernel_function; corrector: newton_solve at that fixed
    mu. When that Newton collapses onto the predator-free state (amplitude
    below s0/10: s0 is small or the branch is flat in mu), the point is the
    amplitude-pinned solve at s0 from mu*, started from the same predictor.
    """
    if not 0.0 < s0 <= 0.1 * params.lam:
        raise ValueError(f"s0 must lie in (0, 0.1*lam], got {s0}")
    cfg = newton_cfg or NewtonConfig()
    mu_sw = mu_star - DELTA_SWITCH_FRACTION * mu_star
    direction = solve_kernel_function(params, geom).direction(geom)
    base = constant_state(geom, params.lam, 0.0).as_vector()
    predictor = SystemState.from_vector(base + s0 * direction, geom.n_omega)
    result = newton_solve(predictor, params.with_mu(mu_sw), cfg, geom)
    if amplitude_of(result.state) < s0 / 10.0:
        return solve_at_amplitude(params, geom, s0, mu_star, predictor, newton_cfg=cfg)
    x = result.state.as_vector()
    s_init = _metric_norm(x - base, mu_sw - mu_star)
    return _point_from_state(x, mu_sw, s_init, params, geom, result.residual_history)


def _metric_norm(dx: np.ndarray, dmu: float) -> float:
    return float(np.sqrt(np.mean(dx**2) + dmu**2))


def continue_branch(
    start: BranchPoint,
    direction,
    n_steps: int,
    ds: float,
    params: ModelParams,
    geom: DomainGeometry,
    newton_cfg: NewtonConfig | None = None,
    amplitude_cap: float | None = None,
) -> Branch:
    """Pseudo-arclength predictor-corrector continuation from a converged point.

    direction is the initial tangent guess, a pair (dx, dmu) with dx an array
    over the unknowns (zeros for a pure-mu direction). Subsequent tangents are
    secants through the last two points. The corrector meets
    newton_cfg.tol_residual within newton_cfg.max_iter iterations, and each
    accepted step hands its LU of J to the next step's corrector as the
    chord matrix (see bordered_newton), so J is refactored only where the
    chord stops contracting. The step halves on corrector failure, and when
    the corrected point lies farther than MAX_STEP_RATIO*ds from the last
    one (the arclength hyperplane can cross another branch), down to
    ds/MIN_DS_FACTOR, after which ContinuationStalled is raised; it carries
    the branch of the points accepted so far. A halved retry starts from a
    fresh LU.
    """
    cfg = newton_cfg or NewtonConfig()
    n = geom.n_unknowns
    dx0, dmu0 = direction
    nrm = _metric_norm(dx0, dmu0)
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    t_x, t_mu = dx0 / nrm, dmu0 / nrm

    points = [start]
    y_x = start.state.as_vector()
    y_mu = start.mu
    s_accum = start.s
    lu = None  # the corrector's LU of J, carried from step to step
    for _ in range(n_steps):
        if amplitude_cap is not None and points[-1].amplitude >= amplitude_cap:
            break
        ds_cur = ds
        # arclength constraint (t_x/n).(x - y_x) + t_mu*(mu - y_mu) = ds
        row_x = t_x / n
        at_y = float(row_x @ y_x) + t_mu * y_mu
        while True:
            try:
                x_new, mu_new, history, lu = bordered_newton(
                    y_x + ds_cur * t_x, y_mu + ds_cur * t_mu, row_x, t_mu, at_y + ds_cur,
                    params, geom, cfg, lu=lu,
                )
                jump = _metric_norm(x_new - y_x, mu_new - y_mu)
                if jump > MAX_STEP_RATIO * ds_cur:
                    raise NoConvergence(f"corrected point lies {jump / ds_cur:.3g} steps away")
                break
            except NoConvergence as exc:
                lu = None  # the retry starts from a fresh LU
                ds_cur *= 0.5
                if ds_cur < ds / MIN_DS_FACTOR:
                    raise ContinuationStalled(
                        f"corrector kept failing down to ds = {ds_cur:.3e} "
                        f"after {len(points) - 1} accepted steps, the last at mu = {y_mu:.6g}",
                        Branch(BranchLabel.NONTRIVIAL, points),
                    ) from exc
        s_accum += ds_cur
        points.append(_point_from_state(x_new, mu_new, s_accum, params, geom, history))

        sec_x, sec_mu = x_new - y_x, mu_new - y_mu
        sec_nrm = _metric_norm(sec_x, sec_mu)
        if sec_nrm > 0:
            sec_x, sec_mu = sec_x / sec_nrm, sec_mu / sec_nrm
            if np.mean(sec_x * t_x) + sec_mu * t_mu < 0:
                sec_x, sec_mu = -sec_x, -sec_mu
            t_x, t_mu = sec_x, sec_mu
        y_x, y_mu = x_new, mu_new
    return Branch(BranchLabel.NONTRIVIAL, points)


def solve_at_amplitude(
    params: ModelParams,
    geom: DomainGeometry,
    amplitude: float,
    mu_guess: float,
    state_guess: SystemState | None = None,
    newton_cfg: NewtonConfig | None = None,
) -> BranchPoint:
    """Coexistence point with the predator amplitude pinned and mu free.

    Newton on [steady residual; mean(v) - amplitude = 0] over (state, mu),
    from state_guess or else (lam, 0) + amplitude * (-alpha, 1). Used to sample
    the branch at prescribed amplitudes when auditing the tangent structure,
    and by branch_switch when its fixed-mu Newton collapses.
    """
    cfg = newton_cfg or NewtonConfig()
    if state_guess is None:
        direction = solve_kernel_function(params, geom).direction(geom)
        x = constant_state(geom, params.lam, 0.0).as_vector() + amplitude * direction
    else:
        x = state_guess.as_vector()
    row_x = np.zeros(geom.n_unknowns)
    split(row_x, geom)[1][:] = 1.0 / geom.n_omega1
    x, mu, history, _ = bordered_newton(x, mu_guess, row_x, 0.0, amplitude, params, geom, cfg)
    return _point_from_state(x, mu, amplitude, params, geom, history)


@dataclass
class AuditRow:
    mu: float
    gamma: float
    passed: bool


@dataclass
class SignRelationAudit:
    rows: list[AuditRow]
    n_pass: int
    n_fail: int
    n_excluded: int
    applicable: bool = True
    note: str = ""

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0 and self.n_pass > 0


def verify_sign_relation(branch: Branch, mu_star: float) -> SignRelationAudit:
    """Audit sign(mu - mu*) == sign(gamma) pointwise along the branch.

    Points within MU_BAND of mu* and points flagged MARGINAL are excluded
    (the relation is asymptotic and meaningless there). On the nontrivial branch
    the relation holds on both sides of mu*; on the semitrivial line it is
    reversed (gamma = mu* - mu), so feeding that branch in draws a
    RegionOfApplicabilityWarning and an inapplicable audit.
    """
    if len(branch.points) < 5:
        raise ValueError("sign-relation audit needs at least 5 branch points")
    applicable = branch.label is BranchLabel.NONTRIVIAL
    note = ""
    if not applicable:
        note = (
            "audit fed the semitrivial branch: there the relation reads "
            "sign(mu - mu*) = -sign(gamma)"
        )
        warnings.warn(note, RegionOfApplicabilityWarning, stacklevel=2)
    rows = []
    n_excluded = 0
    for p in branch.points:
        if abs(p.mu - mu_star) <= MU_BAND or p.flag is StabilityFlag.MARGINAL:
            n_excluded += 1
            continue
        rows.append(
            AuditRow(p.mu, p.gamma, np.sign(p.mu - mu_star) == np.sign(p.gamma))
        )
    n_pass = sum(r.passed for r in rows)
    return SignRelationAudit(
        rows, n_pass, len(rows) - n_pass, n_excluded, applicable, note
    )
