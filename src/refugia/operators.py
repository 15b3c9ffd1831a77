"""Discrete spatial operators and residuals for the steady and transient systems.

Steady system (dimensionless), discretized with zero-flux conditions:

    0 = div(u grad u) + lam*u - u^2 - b(x)*u*v/(1 + m*u)   on OMEGA
    0 = lap v - mu*v + c*u*v/(1 + m*u)                     on OMEGA1

The density-dependent diffusion div(u grad u) is discretized in conservative
flux form with arithmetic face averages, so constants are annihilated and the
discrete integral over the habitat telescopes to zero. The transient system
is x' = F(x) with F the steady residual, so its fixed points are exactly the
steady states.

Both diffusion operators act through the geometry's face tables, which no
module outside this one and geometry reads: the difference form of
_face_divergence for the residual and the implicit step's prey operator
(frozen_diffusion), the matrix form of geometry._face_matrix for the
Laplacians and the prey preconditioner. The Jacobian's diffusion blocks are
copies of the cached Laplacians, the prey one with its columns scaled by u
(the exact derivative of the flux form). The pointwise kinetics are written once, in
reaction_terms, and every sparse LU of these operators is made by factor. Every
face matrix holds each neighbour pair both ways and the Jacobian's coupling
blocks have transposed patterns, so every matrix factored here is
structurally symmetric, which is what factor's SuperLU settings rely on.
Single-field matrices are factored in SuperLU's own minimum-degree order;
the coupled Jacobians in coupled_order(geom), which eliminates each cell's
u and v next to each other. The cell graph I - lap_omega has one LU per
geometry, cell_graph(geom): the kernel-function solve and the predator-free
u-block's eigen solve run on it, and its column order is coupled_order's
cell order. States are flat vectors x = [u on OMEGA; v on OMEGA1].
split(x, geom) is the one reader of that layout; the states made here and in
fields, steady, dynamics and runner concatenate u and v in that order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

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
    c (conversion), b (attack rate), mu (predator mortality).

    Validation is permissive enough for degenerate test configurations
    (e.g. logistic-prey checks set b = 0); the run-config layer enforces the
    stricter biological ranges.
    """

    lam: float
    m: float
    c: float
    b: float
    mu: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        for name in ("m", "c", "b", "mu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def with_mu(self, mu: float) -> "ModelParams":
        return replace(self, mu=mu)


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
    and, scaled by -1/lam, the shift-invert steps of the predator-free
    u-block (continuation.trace_semitrivial); its column order gives
    coupled_order's cell order. Built at the first call for a geometry and
    cached with it; a failed LU raises LinearSolveFailure.
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
    params: ModelParams, u: np.ndarray, v: np.ndarray, geom: DomainGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise kinetics (f_u, f_v), flat over OMEGA and OMEGA1.

        f_u = lam*u - u^2 - b(x)*u*v/(1 + m*u)
        f_v = -mu*v + c*u*v/(1 + m*u)

    Inside the refuge the attack rate is zero, so the prey equation has no
    predation term there.
    """
    o1 = geom.omega1_flat
    u1 = u[o1]
    holling = u1 / (1.0 + params.m * u1)
    f_u = params.lam * u - u**2
    f_u[o1] -= params.b * holling * v
    f_v = -params.mu * v + params.c * holling * v
    return f_u, f_v


def residual_steady(params: ModelParams, x: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """Steady residual [div(u grad u) + f_u; lap v + f_v] at x = [u; v], (f_u, f_v) =
    reaction_terms; it is also the transient rate [du/dt; dv/dt]. The diffusion sees
    u clamped to u >= 0, the kinetics the raw u."""
    u, v = split(x, geom)
    f_u, f_v = reaction_terms(params, u, v, geom)
    return np.concatenate([nonlinear_diffusion(u, geom) + f_u, laplacian_neumann(v, geom) + f_v])


def frozen_diffusion_matrix(u_values: np.ndarray, geom: DomainGeometry) -> sp.csr_matrix:
    """Matrix of a -> div(ubar grad a) with face coefficients frozen at u."""
    return _face_matrix(geom.n_omega, geom.faces_u, _face_average(geom.faces_u, u_values))


def jacobian_blocks(
    params: ModelParams, x: np.ndarray, geom: DomainGeometry
) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """The four blocks (J_uu, J_uv, J_vu, J_vv) of the steady residual's
    analytic Jacobian at x. The diagonal ones are copies of the geometry's
    cached Laplacians plus their reaction terms, the prey one with its
    columns scaled by u: a face's flux w*(u_b^2 - u_a^2)/2 in div(u grad u)
    has the derivatives -w*u_a and w*u_b. At the semitrivial state (lam, 0)
    J_vu vanishes (block-triangular structure); J_uu reduces to
    lam*(lap - I), J_vv to lap - mu + c*lam/(1 + m*lam).

    The columns are scaled in place and the reaction terms go in by setdiag,
    not by a product or sum with sp.diags: those drop the entries they
    compute as 0, as the corrector's x >= 0 clamp makes them, and the pattern
    would lose the symmetry factor's SymmetricMode relies on. Both diagonal
    blocks already store every diagonal entry.
    """
    u, v = split(x, geom)
    # the v-unknowns are the OMEGA1 cells in flat order: cell o1[k] is v[k]
    o1 = np.flatnonzero(geom.omega1_flat)
    k = np.arange(geom.n_omega1)
    d1 = 1.0 + params.m * u[o1]

    # prey: lap(u .) + lam - 2u - b(x)*v/(1 + m*u)^2, b = 0 in the refuge;
    # the copies keep the geometry's cache intact
    J_uu = geom.lap_omega.copy()
    J_uu.data *= u[J_uu.indices]
    f_u = params.lam - 2.0 * u
    f_u[o1] -= params.b * v / d1**2
    J_uu.setdiag(J_uu.diagonal() + f_u)
    # predator: lap - mu + c*u/(1 + m*u)
    J_vv = geom.lap_omega1.copy()
    f_v = -params.mu + params.c * u[o1] / d1
    J_vv.setdiag(J_vv.diagonal() + f_v)
    # d(prey)/dv = -b*u/(1 + m*u) and d(predator)/du = c*v/(1 + m*u)^2
    J_uv = sp.csr_matrix((-params.b * u[o1] / d1, (o1, k)), shape=(geom.n_omega, geom.n_omega1))
    J_vu = sp.csr_matrix((params.c * v / d1**2, (k, o1)), shape=(geom.n_omega1, geom.n_omega))
    return J_uu, J_uv, J_vu, J_vv


def assemble_jacobian(params: ModelParams, x: np.ndarray, geom: DomainGeometry) -> sp.csr_matrix:
    """Analytic Jacobian of the steady residual at x, ordered like x = [u; v]:
    the blocks [[J_uu, J_uv], [J_vu, J_vv]] of jacobian_blocks."""
    J_uu, J_uv, J_vu, J_vv = jacobian_blocks(params, x, geom)
    return sp.bmat([[J_uu, J_uv], [J_vu, J_vv]], format="csr")


def residual_mu_derivative(x: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """d(residual)/d(mu) at x = [u; v]: zero on prey rows, -v on predator rows."""
    return np.concatenate([np.zeros(geom.n_omega), -split(x, geom)[1]])
