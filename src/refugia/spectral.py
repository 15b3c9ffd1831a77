"""Leading-eigenvalue computation and linearized stability classification.

The leading eigenvalue comes from one shift-invert Arnoldi solve (ARPACK
through scipy.sparse.linalg.eigs). The shift sits just right of the
Gershgorin right edge, which bounds every real part, so J - sigma*I is
nonsingular and is factored exactly once; ARPACK returns the two pairs
nearest the shift. Among them, the one of largest real part that meets the
residual contract wins. Matrices too small for ARPACK take the same
selection over a dense eigendecomposition. On the predator-free branch the
leading eigenvalue has a closed form (the constant predator mode is
grid-exact), which serves as an analytic oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenNoConvergence
from .operators import ModelParams, factor

#: eigenvalues within this margin of zero classify as MARGINAL
STABILITY_MARGIN = 1e-6

#: residual contract: ||J x - value x||_inf <= RESIDUAL_TOL * ||x||_inf
RESIDUAL_TOL = 1e-8

#: eigenpairs requested from ARPACK per call, and its Krylov basis size
#: (ARPACK needs N_PAIRS < NCV <= n). The contract is one value, the largest
#: real part. The shift lies right of the whole spectrum, so the values nearest
#: it are the rightmost ones, unless a complex pair with a large imaginary part
#: lies farther away than a real value to its left (the Hopf corner; Meerbergen
#: & Spence, SIMAX 18, 1997). Two pairs leave one spare for that case. More
#: pairs cost more: over the 27 eigen calls of a 64^2 verify run, k=2/ncv=8
#: takes a median of 9 shift-invert solves per call, k=3/ncv=10 46, k=4/ncv=12
#: 43 and k=6/ncv=13 45, and the k=2 leading value matches k=12 to 1.3e-15.
#: On the 12^2 enriched branch through the Hopf bracket, with and without a
#: refuge, and on random small geometries, it matches numpy.linalg.eigvals to
#: 8e-12.
N_PAIRS = 2
NCV = 8


class StabilityFlag(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass
class EigenPair:
    """Leading eigenvalue (largest real part found), its eigenvector with
    inf-norm 1, and the achieved residual. For a dominating complex pair the
    real part is reported, complex_pair is set, the vector is the real part of
    the eigenvector scaled to a largest entry of 1, and the residual is that
    of the complex eigenpair."""

    value: float
    vector: np.ndarray
    residual: float
    complex_pair: bool = False


def _gershgorin_right_edge(J: sp.spmatrix) -> float:
    csr = J.tocsr()
    diag = csr.diagonal()
    abs_rows = np.asarray(abs(csr).sum(axis=1)).ravel()
    return float(np.max(diag + (abs_rows - np.abs(diag))))


def _candidates(J: sp.csr_matrix, order: np.ndarray | None):
    """Eigenvalues and eigenvector columns nearest the right edge of the
    spectrum: shift-invert Arnoldi with one LU, factored in order (see
    operators.factor), or dense for tiny matrices."""
    n = J.shape[0]
    if n <= NCV:  # ARPACK needs N_PAIRS < NCV <= n
        return np.linalg.eig(J.toarray())
    edge = _gershgorin_right_edge(J)
    sigma = edge + 0.01 * (1.0 + abs(edge))
    what = f"shift-invert at sigma = {sigma:g} failed"
    lu = factor(J - sigma * sp.identity(n, format="csr"), EigenNoConvergence, what, order)
    op = spla.LinearOperator(J.shape, matvec=lu.solve, dtype=float)
    try:
        return spla.eigs(J, k=N_PAIRS, sigma=sigma, ncv=NCV, OPinv=op, v0=np.ones(n))
    except spla.ArpackNoConvergence as exc:
        return exc.eigenvalues, exc.eigenvectors
    except RuntimeError as exc:  # any other ARPACK failure
        raise EigenNoConvergence(f"{what}: {exc}") from exc


def leading_eigenvalue(J: sp.spmatrix, order: np.ndarray | None = None) -> EigenPair:
    """Eigenvalue of largest real part among the pairs nearest the shift.

    order is the elimination order of the shift-invert LU:
    operators.coupled_order(geom) for a coupled Jacobian, None (SuperLU's
    own) otherwise.
    Raises EigenNoConvergence if no returned pair meets the residual contract.
    """
    if J.shape[0] != J.shape[1]:
        raise ValueError("operator must be square")
    J = J.tocsr()
    values, vectors = _candidates(J, order)
    residuals = []
    for i in np.argsort(-values.real, kind="stable"):
        lam = values[i]
        x = vectors[:, i]
        x = x / x[np.argmax(np.abs(x))]  # largest entry 1: fixes scale, sign and phase
        complex_pair = abs(lam.imag) > 1e-10
        if not complex_pair:
            lam, x = lam.real, x.real
        res = float(np.max(np.abs(J @ x - lam * x)))
        if res <= RESIDUAL_TOL:
            return EigenPair(float(lam.real), np.real(x), res, complex_pair)
        residuals.append(res)
    raise EigenNoConvergence(
        f"no eigenpair met residual {RESIDUAL_TOL:g}; best of {len(residuals)} "
        f"was {min(residuals, default=np.inf):.3e}"
    )


def semitrivial_leading_analytic(params: ModelParams) -> float:
    """Exact leading eigenvalue of the linearization at the predator-free state.

    The linearization is block triangular there: the prey block lam*(lap - I)
    tops out at -lam (constant mode), the predator block at
    c*lam/(1 + m*lam) - mu (constant Neumann mode, grid-exact).
    """
    return max(-params.lam, params.c * params.lam / (1.0 + params.m * params.lam) - params.mu)


def classify_value(value: float) -> StabilityFlag:
    if value < -STABILITY_MARGIN:
        return StabilityFlag.STABLE
    if value > STABILITY_MARGIN:
        return StabilityFlag.UNSTABLE
    return StabilityFlag.MARGINAL
