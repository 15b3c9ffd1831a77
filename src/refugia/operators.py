"""Discrete spatial operators and residuals for the steady and transient systems.

Steady system (dimensionless), discretized with zero-flux conditions:

    0 = div(u grad u) + lam*u - u^2 - b(x)*u*v/(1 + m*u)   on OMEGA
    0 = lap v - mu*v + c*u*v/(1 + m*u)                     on OMEGA1

The density-dependent diffusion div(u grad u) is discretized in conservative
flux form with arithmetic face averages, so constants are annihilated and the
discrete integral over the habitat telescopes to zero. The transient system
carries coefficients d_u, d_v and logistic rate r in front of the same terms,
with the prey growth written as (r/lam)*(lam*u - u^2).

Both diffusion operators act through the geometry's face tables, which no
module outside this one and geometry reads: the difference form of
_face_divergence for residuals, right-hand sides and the implicit step's prey
operator (frozen_diffusion), the matrix form of geometry._face_matrix for
Jacobians and preconditioners. The pointwise kinetics are written once, in
reaction_terms, and every sparse LU of these operators is made by factor. Every
face table holds each neighbour pair both ways and the Jacobian's coupling
blocks have transposed patterns, so every matrix factored here is
structurally symmetric, which is what factor's SuperLU settings rely on.
Single-field matrices are factored in SuperLU's own minimum-degree order;
the coupled Jacobians in coupled_order(geom), which eliminates each cell's
u and v next to each other. The cell graph I - lap_omega has one LU per
geometry, cell_graph(geom): the kernel-function solve runs on it, and its
column order is coupled_order's cell order. States are flat vectors
x = [u on OMEGA; v on OMEGA1], a layout that split(x, geom) alone knows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveFailure, NegativePrey, RefugiaError, RegionMismatch
from .geometry import DomainGeometry, _face_matrix

#: fields dipping below this are an error; values in [TOL_NEGATIVE, 0] clamp to 0
TOL_NEGATIVE = -1e-12

#: fill-reducing column ordering of every sparse LU made without an explicit order
PERMC_SPEC = "MMD_AT_PLUS_A"


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: lam (carrying capacity), m (handling time),
    c (conversion), b (attack rate), mu (predator mortality); the transient
    form also uses diffusivities d_u, d_v and logistic rate r.

    Validation is permissive enough for degenerate test configurations
    (e.g. pure-diffusion checks set r = b = mu = c = 0); the run-config layer
    enforces the stricter biological ranges.
    """

    lam: float
    m: float
    c: float
    b: float
    mu: float
    d_u: float = 1.0
    d_v: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        for name in ("m", "c", "b", "mu", "r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.d_u <= 0 or self.d_v <= 0:
            raise ValueError("diffusivities must be positive")

    def with_mu(self, mu: float) -> "ModelParams":
        return ModelParams(self.lam, self.m, self.c, self.b, mu, self.d_u, self.d_v, self.r)


def clamp_nonnegative(values: np.ndarray, what: str, floor: float = TOL_NEGATIVE,
                      error: type[RefugiaError] = NegativePrey) -> np.ndarray:
    """Zero out negatives down to floor (rounding level by default); a value
    below floor raises error, which names what was clamped."""
    lo = float(values.min()) if values.size else 0.0
    if lo < floor:
        raise error(f"{what} has value {lo:.3e} below {floor}")
    if lo < 0.0:
        values = np.where(values < 0.0, 0.0, values)
    return values


@dataclass(frozen=True)
class OrderedLU:
    """SuperLU factors of M[order][:, order] that solve with M itself."""

    lu: spla.SuperLU
    order: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self.lu.solve(rhs[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x


def factor(M: sp.spmatrix, error: type[Exception], what: str, order: np.ndarray | None = None):
    """Sparse LU of M; a failed factorization raises error(f"{what}: {reason}").

    Without order, SuperLU orders the columns by PERMC_SPEC. With order, a
    permutation of M's rows and columns chosen by the caller (coupled_order
    for a coupled Jacobian), M[order][:, order] is factored in its NATURAL
    order and the returned OrderedLU solves with M.

    M must be structurally symmetric (pattern of M equal to that of M.T).
    SuperLU then runs in SymmetricMode (Demmel et al., SIMAX 1999): it keeps
    the minimum-degree order of M + M.T instead of re-postordering it by the
    column elimination tree of M.T M, so the supernodes follow the true
    structure; on the coupled Jacobians that makes the factorization and
    its solves markedly cheaper. Partial pivoting stays at the default
    diag_pivot_thresh = 1.0.
    """
    permc_spec = PERMC_SPEC
    if order is not None:
        M, permc_spec = M.tocsr()[order][:, order], "NATURAL"
    try:
        lu = spla.splu(M.tocsc(), permc_spec=permc_spec, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise error(f"{what}: {exc}") from exc
    return lu if order is None else OrderedLU(lu, order)


@dataclass(frozen=True)
class CellGraph:
    """The cell graph I - lap_omega of a geometry, its one LU and the coupled
    order drawn from that LU."""

    matrix: sp.csc_matrix
    lu: spla.SuperLU
    order: np.ndarray


#: cell_graph's cache, one entry per live geometry
_CELL_GRAPHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cell_graph(geom: DomainGeometry) -> CellGraph:
    """I - lap_omega on the habitat, factored once per geometry by factor.

    The LU solves the kernel-function problem (steady.solve_kernel_function)
    and its column order gives coupled_order's cell order. Built at the first
    call for a geometry and cached with it; a failed LU raises
    LinearSolveFailure.
    """
    graph = _CELL_GRAPHS.get(geom)
    if graph is None:
        n = geom.n_omega
        A = (sp.identity(n, format="csr") - geom.lap_omega).tocsc()
        lu = factor(A, LinearSolveFailure, "LU of the cell graph I - lap_omega failed")
        cells = np.argsort(lu.perm_c)
        v_of = np.full(n, -1)
        v_of[geom.omega1_flat] = n + np.arange(geom.n_omega1)
        pairs = np.column_stack([cells, v_of[cells]]).ravel()
        graph = _CELL_GRAPHS[geom] = CellGraph(A, lu, pairs[pairs >= 0])
    return graph


def coupled_order(geom: DomainGeometry) -> np.ndarray:
    """Fill-reducing elimination order of the coupled unknowns [u on OMEGA; v on OMEGA1].

    The cells follow the column order of the geometry's one LU of the cell
    graph (cell_graph: SuperLU's MMD_AT_PLUS_A order of I - lap_omega), and
    each OMEGA1 cell's v comes right after its u, so a coupled Jacobian's 2x2
    cell blocks are eliminated together (George & Liu, SIAM Review 1989).
    """
    return cell_graph(geom).order


def _face_average(table, x: np.ndarray) -> np.ndarray:
    """Arithmetic face averages (x_a + x_b)/2 over a face table."""
    a, b, _ = table
    return 0.5 * (x[a] + x[b])


def _face_divergence(table, x: np.ndarray, coef=1.0) -> np.ndarray:
    """Difference-form flux divergence over a face table.

    Each face (a, b, w) carries the flux w*(x_b - x_a) times its coefficient
    (1 for the Laplacian, a face average for density-dependent diffusion);
    the flux enters cell a with a plus sign and cell b with a minus sign.
    Constants give zero fluxes, hence exact zeros.
    """
    a, b, w = table
    flux = w * (x[b] - x[a]) * coef
    return np.bincount(np.concatenate([a, b]), np.concatenate([flux, -flux]), minlength=x.size)


def split(x: np.ndarray, geom: DomainGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Views (u on OMEGA, v on OMEGA1) of x = [u; v]; a wrong length raises RegionMismatch."""
    if x.shape != (geom.n_unknowns,):
        raise RegionMismatch(f"state vector has shape {x.shape}, expected ({geom.n_unknowns},)")
    return x[: geom.n_omega], x[geom.n_omega :]


def laplacian_neumann(f: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """Zero-flux 5-point Laplacian of a field on OMEGA or OMEGA1 (told apart by length;
    without a refuge they coincide), in difference form so constants map to exact
    zeros; faces leaving the region contribute nothing (ghost reflection)."""
    if f.shape not in ((geom.n_omega,), (geom.n_omega1,)):
        raise RegionMismatch(f"field has shape {f.shape}, a length of neither omega nor omega1")
    return _face_divergence(geom.faces_u if f.size == geom.n_omega else geom.faces_v, f)


def nonlinear_diffusion(u: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """div(u grad u) in conservative flux form with arithmetic face averages."""
    if u.shape != (geom.n_omega,):
        raise RegionMismatch(f"nonlinear diffusion acts on prey fields (omega), not {u.shape}")
    vals = clamp_nonnegative(u, "prey density")
    return frozen_diffusion(vals, geom)(vals)


def frozen_diffusion(u_values: np.ndarray, geom: DomainGeometry):
    """The matvec x -> div(ubar grad x), face coefficients ubar frozen at u;
    applied to u itself it is div(u grad u)."""
    faces = geom.faces_u
    coef = _face_average(faces, u_values)
    return lambda x: _face_divergence(faces, x, coef)


def reaction_terms(
    params: ModelParams, u: np.ndarray, v: np.ndarray, geom: DomainGeometry, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise kinetics (f_u, f_v), flat over OMEGA and OMEGA1.

        f_u = (r/lam)*(lam*u - u^2) - b(x)*u*v/(1 + m*u)
        f_v = -mu*v + c*u*v/(1 + m*u)

    The steady system passes r = lam (then r/lam is exactly 1), the transient
    one its logistic rate. Inside the refuge the attack rate is zero, so the
    prey equation has no predation term there.
    """
    o1 = geom.omega1_flat
    u1 = u[o1]
    holling = u1 / (1.0 + params.m * u1)
    f_u = (r / params.lam) * (params.lam * u - u**2)
    f_u[o1] -= params.b * holling * v
    f_v = -params.mu * v + params.c * holling * v
    return f_u, f_v


def _rates(params: ModelParams, x: np.ndarray, geom: DomainGeometry, d_u, d_v, r) -> np.ndarray:
    """[d_u*div(u grad u) + f_u; d_v*lap v + f_v] at x, (f_u, f_v) = reaction_terms at
    rate r; the diffusion sees u clamped to u >= 0, the kinetics the raw u."""
    u, v = split(x, geom)
    diff_u = nonlinear_diffusion(u, geom)
    lap_v = laplacian_neumann(v, geom)
    f_u, f_v = reaction_terms(params, u, v, geom, r)
    return np.concatenate([d_u * diff_u + f_u, d_v * lap_v + f_v])


def residual_steady(params: ModelParams, x: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """Steady residual [prey equation on OMEGA; predator on OMEGA1] at x = [u; v]: the
    transient right-hand side at d_u = d_v = 1 and r = lam, where 1.0*a is exact."""
    return _rates(params, x, geom, 1.0, 1.0, params.lam)


def rhs_transient(params: ModelParams, x: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """Right-hand side [du/dt; dv/dt] of the transient system at x = [u; v].

        du/dt = d_u * div(u grad u) + (r/lam)*(lam*u - u^2) - b(x)*u*v/(1 + m*u)
        dv/dt = d_v * lap v - mu*v + c*u*v/(1 + m*u)

    With d_u = d_v = 1 and r = lam (prey reaction lam*u - u^2) it is the steady residual.
    """
    return _rates(params, x, geom, params.d_u, params.d_v, params.r)


def diffusion_linearization(u_values: np.ndarray, geom: DomainGeometry) -> sp.csr_matrix:
    """Exact derivative of the flux-form div(u grad u) with respect to u.

    A perturbation a contributes div(a grad u) + div(u grad a); per face
    (p, q) the flux derivative is w*(u_q*a_q - u_p*a_p), i.e. side values
    (u_p, u_q) in the face-matrix convention.
    """
    a, b, _ = geom.faces_u
    return _face_matrix(geom.n_omega, geom.faces_u, u_values[a], u_values[b])


def frozen_diffusion_matrix(u_values: np.ndarray, geom: DomainGeometry) -> sp.csr_matrix:
    """Matrix of a -> div(ubar grad a) with face coefficients frozen at u."""
    avg = _face_average(geom.faces_u, u_values)
    return _face_matrix(geom.n_omega, geom.faces_u, avg, avg)


def assemble_jacobian(params: ModelParams, x: np.ndarray, geom: DomainGeometry) -> sp.csr_matrix:
    """Analytic Jacobian of the steady residual at x, ordered like x = [u; v].

    At the semitrivial state (lam, 0) the v-rows lose their u-dependence
    (block-triangular structure); the u-block reduces to lam*(lap - I) and the
    v-block to lap - mu + c*lam/(1 + m*lam).
    """
    uv, vv = split(x, geom)
    n, n1 = geom.n_omega, geom.n_omega1
    # the v-unknowns are the OMEGA1 cells in flat order: cell o1[k] is unknown n + k
    o1 = np.flatnonzero(geom.omega1_flat)
    vcols = n + np.arange(n1)
    denom = 1.0 + params.m * uv
    d1 = denom[o1]

    duu = diffusion_linearization(uv, geom).tocoo()
    rows = [duu.row]
    cols = [duu.col]
    data = [duu.data]

    # prey reaction diagonal: lam - 2u - b(x)*v / (1 + m*u)^2, b = 0 in the refuge
    diag_u = params.lam - 2.0 * uv
    diag_u[o1] -= params.b * vv / d1**2
    cells = np.arange(n)
    rows.append(cells), cols.append(cells), data.append(diag_u)

    # d(prey)/dv: -b * u/(1 + m*u) on predator-domain cells
    rows.append(o1)
    cols.append(vcols)
    data.append(-params.b * uv[o1] / d1)
    # d(predator)/du: c * v / (1 + m*u)^2
    rows.append(vcols)
    cols.append(o1)
    data.append(params.c * vv / d1**2)
    # d(predator)/dv: lap - mu + c*u/(1 + m*u)
    lv = geom.lap_omega1.tocoo()
    rows.append(lv.row + n), cols.append(lv.col + n), data.append(lv.data)
    diag_v = -params.mu + params.c * uv[o1] / d1
    rows.append(vcols), cols.append(vcols), data.append(diag_v)

    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n + n1, n + n1),
    ).tocsr()


def residual_mu_derivative(x: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """d(residual)/d(mu) at x = [u; v]: zero on prey rows, -v on predator rows."""
    return np.concatenate([np.zeros(geom.n_omega), -split(x, geom)[1]])
