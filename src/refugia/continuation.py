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
from types import SimpleNamespace

import numpy as np

from .errors import ContinuationStalled, NoConvergence, NoCrossing, SingularJacobian
from .fields import SystemState, constant_state
from .geometry import DomainGeometry
from .operators import (ModelParams, OrderedLU, assemble_jacobian, cell_graph, coupled_order,
                        factor, jacobian_blocks, split)
from .spectral import EigenPair, StabilityFlag, classify_value, leading_eigenvalue
from .steady import (CONSTRAINT_TOL, NewtonConfig, bordered_newton, newton_solve,
                     solve_kernel_function)

#: |mu - mu*| band inside which the sign relation is not audited
MU_BAND = 1e-4

#: mu offset of the branch-switch corrector below mu*, as a fraction of mu*
DELTA_SWITCH_FRACTION = 1e-2

#: continuation halves a failing step down to ds/MIN_DS_FACTOR before it gives up
MIN_DS_FACTOR = 64

#: a corrected point farther than MAX_STEP_RATIO*ds from the last one left the branch
MAX_STEP_RATIO = 2.0

#: the sign-relation audit needs a branch of at least this many points
MIN_AUDIT_POINTS = 5


class RegionOfApplicabilityWarning(UserWarning):
    """The sign-relation audit was fed a branch it is not meant for."""


class BranchLabel(enum.Enum):
    SEMITRIVIAL = "semitrivial"
    NONTRIVIAL = "nontrivial"


@dataclass
class BranchPoint:
    mu: float
    x: np.ndarray  # the state [u; v] (see operators.split)
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
    #: coexistence branch only: why continue_branch stopped, "n_steps" or
    #: "amplitude_cap" (see continue_branch)
    end: str | None = None

    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.points])

    def gammas(self) -> np.ndarray:
        return np.array([p.gamma for p in self.points])

    def amplitudes(self) -> np.ndarray:
        return np.array([p.amplitude for p in self.points])


def amplitude_of(x: np.ndarray, geom: DomainGeometry) -> float:
    """Spatial mean of the predator field of x = [u; v] over the predator domain."""
    return float(split(x, geom)[1].mean())


def trace_semitrivial(
    params_base: ModelParams,
    mu_range: tuple[float, float],
    n_points: int,
    geom: DomainGeometry,
) -> Branch:
    """The predator-free branch: states are exactly (lam, 0), no solve needed.

    There the Jacobian is block upper-triangular (J_vu carries a factor v = 0),
    so gamma(mu) = max(g_u, g_v0 - mu) takes two block eigen solves per branch,
    with g_u the leading eigenvalue of the mu-independent u-block and g_v0 that
    of the v-block at mu = 0 (operators.jacobian_blocks). The u-block,
    -lam*(I - lap_omega), is symmetric negative definite, so sigma = 0 finds its
    rightmost value -lam, on the geometry's cell-graph LU scaled by -1/lam; the
    v-block takes the Gershgorin shift (see spectral.leading_eigenvalue). Both
    pairs stay on the branch for detect_transcritical. The s field is not
    meaningful on this branch and is recorded as 0.
    """
    lo, hi = mu_range
    if lo <= 0 or hi < lo or (n_points > 1 and hi == lo):
        raise ValueError("mu_range must satisfy 0 < lo <= hi (lo < hi for several points)")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    lam = params_base.lam
    x = constant_state(geom, lam, 0.0).as_vector()  # every point shares it
    J_uu, _, _, J_vv = jacobian_blocks(params_base.with_mu(0.0), x, geom)
    cells = cell_graph(geom).lu
    g_u = leading_eigenvalue(J_uu, lu=SimpleNamespace(solve=lambda r: cells.solve(r) / -lam))
    g_v0 = leading_eigenvalue(J_vv)
    pts = []
    for mu in np.linspace(lo, hi, n_points).tolist():
        gamma = max(g_u.value, g_v0.value - mu)
        ep = g_u if gamma == g_u.value else g_v0
        pts.append(BranchPoint(mu=mu, x=x, s=0.0, amplitude=0.0, gamma=gamma,
                               flag=classify_value(gamma), residual_norm=0.0,
                               eigen_residual=ep.residual, complex_pair=ep.complex_pair))
    return Branch(BranchLabel.SEMITRIVIAL, pts, (g_u, g_v0))


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
    previous: BranchPoint | None = None,
) -> tuple[BranchPoint, OrderedLU]:
    """Branch point at a converged state x = [u; v], and the LU of J there;
    history is the residual inf-norm of every iterate of the solve that
    reached it, the last at x. The one LU of J serves the eigen solve at
    sigma = 0 and, in continue_branch, the next corrector as its chord.
    previous is the point before this one on a branch. When its leading
    pair was complex and sigma = 0 finds a real value here, the eigen solve
    is redone at the Gershgorin shift (see spectral.N_PAIRS)."""
    J = assemble_jacobian(params.with_mu(mu), x, geom)
    order = coupled_order(geom)
    lu = factor(J, SingularJacobian, "LU of J at the branch point failed", order)
    ep = leading_eigenvalue(J, lu=lu)
    if previous is not None and previous.complex_pair and not ep.complex_pair:
        ep = leading_eigenvalue(J, order)
    point = BranchPoint(
        mu=mu,
        x=x,
        s=s,
        amplitude=amplitude_of(x, geom),
        gamma=ep.value,
        flag=classify_value(ep.value),
        residual_norm=history[-1],
        eigen_residual=ep.residual,
        complex_pair=ep.complex_pair,
        corrector_iters=len(history) - 1,
    )
    return point, lu


def branch_switch(
    mu_star: float,
    params: ModelParams,
    geom: DomainGeometry,
    s0: float,
    newton_cfg: NewtonConfig = NewtonConfig(),
) -> tuple[BranchPoint, OrderedLU]:
    """Step off the predator-free line onto the coexistence branch.

    Predictor: (lam, 0) + s0 * (-alpha, 1) at mu = mu* - DELTA_SWITCH_FRACTION*mu*,
    alpha from solve_kernel_function; corrector: newton_solve at that fixed
    mu. If that Newton collapses onto the predator-free state (amplitude
    below s0/10: s0 is small or the branch is flat in mu), the corrector is
    solve_at_amplitude at s0 from mu*, from the same predictor. Either way
    it returns the point and its LU of J, continue_branch's first chord.
    """
    if not 0.0 < s0 <= 0.1 * params.lam:
        raise ValueError(f"s0 must lie in (0, 0.1*lam], got {s0}")
    mu_sw = mu_star - DELTA_SWITCH_FRACTION * mu_star
    direction = solve_kernel_function(params, geom).direction(geom)
    base = constant_state(geom, params.lam, 0.0).as_vector()
    predictor = base + s0 * direction
    result = newton_solve(SystemState.from_vector(predictor, geom.n_omega),
                          params.with_mu(mu_sw), newton_cfg, geom)
    x = result.state.as_vector()
    if amplitude_of(x, geom) < s0 / 10.0:
        return solve_at_amplitude(params, geom, s0, mu_star, predictor, newton_cfg)
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
    newton_cfg: NewtonConfig = NewtonConfig(),
    amplitude_cap: float | None = None,
    lu: OrderedLU | None = None,
) -> Branch:
    """Pseudo-arclength predictor-corrector continuation from a converged point.

    direction is the initial tangent guess, a pair (dx, dmu) with dx an array
    over the unknowns (zeros for a pure-mu direction). Subsequent tangents are
    the unit secants through the last two points. The arclength constraint
    fixes a secant's metric dot with the tangent at ds_cur, up to the
    constraint tolerance, and its length is at most MAX_STEP_RATIO*ds_cur, so
    it keeps the tangent's orientation while ds_cur (>= ds/MIN_DS_FACTOR)
    exceeds that tolerance; a smaller ds stalls at once. The corrector meets
    newton_cfg.tol_residual within newton_cfg.max_iter iterations. Each
    accepted point costs one LU of J: its eigen solve runs on it at sigma = 0,
    and the next step's corrector, a halved retry too, takes it as the chord
    matrix (see bordered_newton), refactoring only where the chord stops
    contracting; lu, start's LU (from branch_switch), serves the first step.
    The step halves on corrector failure, and when the corrected point lies
    farther than MAX_STEP_RATIO*ds from the last one (the arclength hyperplane
    can cross another branch), down to ds/MIN_DS_FACTOR, after which
    ContinuationStalled is raised; it carries the branch of the points accepted
    so far. A corrected point at the predator-only state (mu <= CONSTRAINT_TOL
    and max u <= newton_cfg.tol_residual), where no eigen solve converges,
    counts as a failed corrector. The branch ends after n_steps steps or at a
    point whose amplitude reaches amplitude_cap; Branch.end says which.
    """
    n = geom.n_unknowns
    dx0, dmu0 = direction
    nrm = _metric_norm(dx0, dmu0)
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    if not ds / MIN_DS_FACTOR > CONSTRAINT_TOL:
        raise ContinuationStalled(f"ds = {ds!r} is not above the corrector's constraint "
                                  "tolerance", Branch(BranchLabel.NONTRIVIAL, [start]))
    t_x, t_mu = dx0 / nrm, dmu0 / nrm

    points, end = [start], "n_steps"
    for _ in range(n_steps):
        last = points[-1]
        if amplitude_cap is not None and last.amplitude >= amplitude_cap:
            end = "amplitude_cap"
            break
        ds_cur = ds
        # arclength constraint (t_x/n).(x - last.x) + t_mu*(mu - last.mu) = ds
        row_x = t_x / n
        at_last = float(row_x @ last.x) + t_mu * last.mu
        while True:
            try:
                x_new, mu_new, history = bordered_newton(
                    last.x + ds_cur * t_x, last.mu + ds_cur * t_mu, row_x, t_mu,
                    at_last + ds_cur, params, geom, newton_cfg, lu=lu,
                )
                sec_x, sec_mu = x_new - last.x, mu_new - last.mu
                sec_nrm = _metric_norm(sec_x, sec_mu)
                if sec_nrm > MAX_STEP_RATIO * ds_cur:
                    raise NoConvergence(f"corrected point lies {sec_nrm / ds_cur:.3g} steps away")
                at_end = (mu_new <= CONSTRAINT_TOL  # u = 0 at mu = 0, the predator-only state
                          and split(x_new, geom)[0].max() <= newton_cfg.tol_residual)
                if at_end:
                    raise NoConvergence("corrected point at the predator-only state")
                break
            except NoConvergence as exc:
                ds_cur *= 0.5
                if ds_cur < ds / MIN_DS_FACTOR:
                    raise ContinuationStalled(
                        f"corrector kept failing down to ds = {ds_cur:.3e} "
                        f"after {len(points) - 1} accepted steps, the last at mu = {last.mu:.6g}",
                        Branch(BranchLabel.NONTRIVIAL, points),
                    ) from exc
        point, lu = _point_from_state(x_new, mu_new, last.s + ds_cur, params, geom, history, last)
        points.append(point)
        t_x, t_mu = sec_x / sec_nrm, sec_mu / sec_nrm
    return Branch(BranchLabel.NONTRIVIAL, points, end=end)


def solve_at_amplitude(
    params: ModelParams,
    geom: DomainGeometry,
    amplitude: float,
    mu_guess: float,
    x_guess: np.ndarray | None = None,
    newton_cfg: NewtonConfig = NewtonConfig(),
) -> tuple[BranchPoint, OrderedLU]:
    """Coexistence point with the predator amplitude pinned and mu free.

    Newton on [steady residual; mean(v) - amplitude = 0] over (state, mu),
    from x_guess or else (lam, 0) + amplitude * (-alpha, 1); returns the
    point and its LU of J. branch_switch calls it when its fixed-mu Newton
    collapses; it also samples the branch at prescribed amplitudes.
    """
    x = x_guess
    if x is None:
        direction = solve_kernel_function(params, geom).direction(geom)
        x = constant_state(geom, params.lam, 0.0).as_vector() + amplitude * direction
    row_x = np.zeros(geom.n_unknowns)
    split(row_x, geom)[1][:] = 1.0 / geom.n_omega1
    x, mu, history = bordered_newton(x, mu_guess, row_x, 0.0, amplitude, params, geom, newton_cfg)
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
    if len(branch.points) < MIN_AUDIT_POINTS:
        raise ValueError(f"sign-relation audit needs at least {MIN_AUDIT_POINTS} branch points")
    applicable = branch.label is BranchLabel.NONTRIVIAL
    if not applicable:
        warnings.warn("audit fed the semitrivial branch: there the relation reads "
                      "sign(mu - mu*) = -sign(gamma)", RegionOfApplicabilityWarning, stacklevel=2)
    rows = []
    for p in branch.points:
        if abs(p.mu - mu_star) <= MU_BAND or p.flag is StabilityFlag.MARGINAL:
            continue
        rows.append(AuditRow(p.mu, p.gamma, np.sign(p.mu - mu_star) == np.sign(p.gamma)))
    n_pass = sum(r.passed for r in rows)
    return SignRelationAudit(rows, n_pass, len(rows) - n_pass, len(branch.points) - len(rows),
                             applicable)
