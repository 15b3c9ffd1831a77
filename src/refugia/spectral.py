"""Leading-eigenvalue computation and linearized stability classification.

The leading eigenvalue comes from one shift-invert Arnoldi solve (ARPACK
through scipy.sparse.linalg.eigs), which returns the two pairs nearest the
shift, one of them spare (N_PAIRS; tests/test_spectral.py's
test_sigma_zero_keeps_a_spare_pair fails with one). A caller that holds a
solve with J itself (continuation: the LU of J at every branch point, the
cell graph's LU for the predator-free u-block) hands it in, and the solve
runs at sigma = 0 on it, so no LU is made here.
Without one, the shift sits just right of the Gershgorin right edge,
which bounds every real part, so J - sigma*I is nonsingular and is factored
exactly once. Among the returned pairs, the one of largest real part that
meets the residual contract wins. Matrices too small for ARPACK take the
same selection over a dense eigendecomposition. On the predator-free branch
the leading eigenvalue has a closed form (the constant predator mode is
grid-exact); the tests hold it as their analytic oracle, in conftest.py.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenNoConvergence
from .operators import factor

#: eigenvalues within this margin of zero classify as MARGINAL
STABILITY_MARGIN = 1e-6

#: residual contract: ||J x - value x||_inf <= RESIDUAL_TOL * ||x||_inf
RESIDUAL_TOL = 1e-8

#: eigenpairs requested from ARPACK per call, and its Krylov basis size
#: (ARPACK needs N_PAIRS < NCV <= n). The contract is one value, the largest
#: real part. Right of the whole spectrum (the Gershgorin shift), the values
#: nearest the shift are the rightmost ones, unless a complex pair with a large
#: imaginary part lies farther away than a real value to its left (the Hopf
#: corner; Meerbergen & Spence, SIMAX 18, 1997). At sigma = 0 the same corner
#: opens wider: deep past the Hopf point, as u falls towards 0, prey modes with
#: vanishing diffusion come nearer 0 than the leading complex pair. Random
#: enriched branches on 16x10 missed it at 69 of 1,569 points at sigma = 0,
#: each right after a point whose leading pair was complex, where
#: continuation._point_from_state redoes the solve at the Gershgorin shift
#: (no miss left). Two pairs leave one spare. More pairs cost more: over the
#: 27 eigen calls of a 64^2 verify run at the Gershgorin shift, k=2/ncv=8 took
#: a median of 9 shift-invert solves per call, k=3/ncv=10 46, k=4/ncv=12 43
#: and k=6/ncv=13 45, and the k=2 leading value matched k=12 to 1.3e-15. With
#: EIGS_TOL one Arnoldi pass converges without a restart, so a call costs
#: NCV + 1 solves: that verify run takes 207 at ncv=6 against 258 at ncv=8,
#: with every mu unchanged and gamma within 3e-16. At the Gershgorin shift, on
#: the 12^2 enriched branch through the Hopf bracket, with and without a
#: refuge, and on random small geometries, the value matches
#: numpy.linalg.eigvals to 8e-12.
N_PAIRS = 2
NCV = 6

#: ARPACK's relative accuracy of the Ritz values; scipy's default, 0, asks for
#: machine precision, and the pairs are held to RESIDUAL_TOL anyway. At 1e-12
#: the predator-free line of a 64^2 verify run takes 33 shift-invert solves
#: instead of 58, with mu*, every gamma and every eigen residual bitwise
#: unchanged; the 25 branch points of the 128^2 disc run take 225 instead of 300
EIGS_TOL = 1e-12


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


def _candidates(J: sp.csr_matrix, order: np.ndarray | None, lu):
    """Eigenvalues and eigenvector columns nearest the shift: shift-invert
    Arnoldi at sigma = 0 on lu, a solve with J, or else right of the spectrum
    with one LU of J - sigma*I factored in order (see operators.factor);
    dense for tiny matrices."""
    n = J.shape[0]
    if n <= NCV:  # ARPACK needs N_PAIRS < NCV <= n
        return np.linalg.eig(J.toarray())
    if lu is None:
        edge = _gershgorin_right_edge(J)
        sigma = edge + 0.01 * (1.0 + abs(edge))
        shifted = J - sigma * sp.identity(n, format="csr")
        lu = factor(shifted, EigenNoConvergence, f"shift-invert at sigma = {sigma:g} failed", order)
    else:
        sigma = 0.0
    op = spla.LinearOperator(J.shape, matvec=lu.solve, dtype=float)
    try:
        return spla.eigs(J, k=N_PAIRS, sigma=sigma, ncv=NCV, OPinv=op, v0=np.ones(n),
                         tol=EIGS_TOL)
    except spla.ArpackNoConvergence as exc:
        return exc.eigenvalues, exc.eigenvectors
    except RuntimeError as exc:  # any other ARPACK failure
        raise EigenNoConvergence(f"shift-invert at sigma = {sigma:g} failed: {exc}") from exc


def leading_eigenvalue(J: sp.spmatrix, order: np.ndarray | None = None, lu=None) -> EigenPair:
    """Eigenvalue of largest real part among the pairs nearest the shift.

    lu, anything whose solve(r) applies J^-1 (an LU of J from operators.factor,
    or a scaled one of a matrix J is a multiple of), puts the shift at 0 and
    serves as the shift-invert operator. Without it the shift lies right of
    the spectrum, and order is the elimination order of the LU of
    J - sigma*I: operators.coupled_order(geom) for a coupled Jacobian, None
    (SuperLU's own) otherwise. The predator-free v-block takes no lu: at
    mu = 0 its leading value g_v0 can lie farther from 0 than a diffusion
    mode below it.
    Raises EigenNoConvergence if no returned pair meets the residual contract.
    """
    if J.shape[0] != J.shape[1]:
        raise ValueError("operator must be square")
    J = J.tocsr()
    values, vectors = _candidates(J, order, lu)
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


def classify_value(value: float) -> StabilityFlag:
    if value < -STABILITY_MARGIN:
        return StabilityFlag.STABLE
    if value > STABILITY_MARGIN:
        return StabilityFlag.UNSTABLE
    return StabilityFlag.MARGINAL
