"""Linearization of the normalized gauged flow at a soliton fixed point.

At a correctly gauged soliton with Ric* equal to the stratum label, the
normalized flow is stationary and its linearization on the tangent space
T = {pi(A).mu : A in sl_beta} takes the form

    L(pi(A).mu) = -pi(P(A) + [beta+, A]).mu

where P acts blockwise: (sym(delta^t delta A) + A^t K + K A)/2 on h_beta and
delta^t delta A / 2 on u_beta, with delta(A) = -pi(A).mu.  P is symmetric
positive semidefinite with kernel (Der + k_beta) intersect sl_beta, it
commutes with ad(beta+), and the nonzero eigenvalues of L are negative.

Every operator is a product over one array: the orthonormal sl_beta basis
stacked as the rows of an (m, n^2) matrix S, the h_beta block first.  A row
vector of sl_beta coordinates x stands for the endomorphism x S.  The kernel
of L is the null space of its matrix by SVD, compared with the orbit tangent
delta(k_beta).  P and L are checked exactly against their definitions, as Ric*
is quadratic and the flow field is a polynomial of degree 5 along a line.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .brackets import derivation_matrix, derivation_space, pi_apply, report_to_dict
from .curvature import coeff_ric_star, killing_matrix
from .errors import GaugeMismatch
from .flows import Variant, flow_field
from .linalg import (
    RANK_TOL,
    null_space,
    orthonormal_basis,
    subspace_distance,
    subspace_intersection,
)
from .strata import project_qbeta

KERNEL_TOL = 1e-8
# f'(0) = _FLOW_WEIGHTS @ f(_FLOW_STEPS) for f of degree 5: central differences weighted
# 1.5, -0.6, 0.1 at steps 1, 2, 3, which cancel their h^2 and h^4 terms.
_FLOW_STEPS = np.array((1.0, 2.0, 3.0, -1.0, -2.0, -3.0))
_FLOW_WEIGHTS = np.tile((1.5, -0.6, 0.1), 2) / (2.0 * _FLOW_STEPS)


class RankDeficiencyWarning(UserWarning):
    """Tangent-basis construction met near-threshold singular values."""


def delta_matrix(mu):
    """Matrix of delta: gl(n) -> V, A |-> -pi(A)mu, on flattened coordinates."""
    return -derivation_matrix(mu)


def _rows(mats, n):
    """A list of n x n matrices as the rows of an (len, n^2) array."""
    return np.reshape(mats, (-1, n * n))


def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass
class POperator:
    """Matrix of P on the orthonormal sl_beta basis, and its exact check against the definition."""

    matrix: np.ndarray
    fd_discrepancy: float


def _require_gauged_soliton(mu, dec, tol=1e-7):
    beta_plus = dec.label.beta_plus
    leak = float(np.linalg.norm(pi_apply(beta_plus, mu.coeffs)))
    if leak > tol * (1.0 + mu.norm):
        raise GaugeMismatch(
            f"bracket is not fixed by pi(beta+): residual {leak:.3e}; "
            "it must lie in the zero eigenspace of its own grading"
        )


def p_operator(mu, dec):
    """Assemble P on sl_beta from the closed blockwise formulas.

    P is also evaluated from its definition as the q_beta-projected first
    variation of Ric* along pi(A)mu (exactly, as Ric* is quadratic), and the
    worst discrepancy of the two is reported.
    """
    _require_gauged_soliton(mu, dec)
    return _p_operator(mu, dec, _rows(dec.sl_basis, mu.dim), delta_matrix(mu), killing_matrix(mu))


def _p_operator(mu, dec, s, dmat, k):
    n, c, m = mu.dim, mu.coeffs, len(s)
    images = 0.5 * (s @ (dmat.T @ dmat)).reshape(-1, n, n)
    a_h = s[: len(dec.h_basis)].reshape(-1, n, n)
    images[: len(a_h)] = _sym(images[: len(a_h)]) + 0.5 * (np.swapaxes(a_h, 1, 2) @ k + k @ a_h)
    # The definition, exactly: Ric* is quadratic, so (Ric*(mu + d) - Ric*(mu - d)) / 2 is
    # its derivative along d = pi(A)mu.  All 2m states go through one curvature call.
    d = pi_apply(s.reshape(-1, n, n), np.broadcast_to(c, (m, n, n, n)))
    ric_star = project_qbeta(coeff_ric_star(np.concatenate([c + d, c - d])), dec)
    fd = 0.5 * (ric_star[:m] - ric_star[m:])
    fd_disc = float(np.max(np.linalg.norm(fd - images, axis=(1, 2)), initial=0.0))
    return POperator(matrix=s @ images.reshape(-1, n * n).T, fd_discrepancy=fd_disc)


@dataclass
class LinearizationReport:
    tangent_dim: int
    eigenvalues: np.ndarray
    kernel_dim: int
    kernel_matches_kbeta_orbit: bool
    P_spectrum: np.ndarray
    commutator_norm: float
    max_imag: float
    tangent_leak: float
    P_fd_discrepancy: float
    flow_fd_discrepancy: float
    P_kernel_dim: int
    P_kernel_expected_dim: int
    P_kernel_residual: float
    K_condition: float
    kbeta_orbit_dim: int
    tangent_basis: np.ndarray = field(repr=False, default=None)
    L_matrix: np.ndarray = field(repr=False, default=None)

    to_dict = report_to_dict


def _ad_beta_plus_matrix(s, dec):
    """ad(beta+) on the rows of s: [beta+, E_pq] = (bp_p - bp_q) E_pq."""
    bp = np.diag(dec.label.beta_plus)
    return s @ (s * (bp[:, None] - bp[None, :]).ravel()).T


def l_operator(mu, dec):
    """Linearization report of the normalized gauged flow at a soliton mu.

    Builds an orthonormal basis of the tangent space T = image of delta on
    sl_beta, represents L there, and checks it against the exact derivative
    of the actual flow vector field, a polynomial of degree 5 along a line.
    """
    _require_gauged_soliton(mu, dec)
    n = mu.dim
    s = _rows(dec.sl_basis, n)
    dmat = delta_matrix(mu)
    k = killing_matrix(mu)
    pop = _p_operator(mu, dec, s, dmat, k)
    # Singular values are cut against the scale of delta itself, so that a
    # numerically-zero restriction yields an empty tangent space.
    scale_delta = max(float(np.linalg.norm(dmat, 2)), 1e-300)
    u, sv, wt = np.linalg.svd(dmat @ s.T, full_matrices=False)
    cut = RANK_TOL * scale_delta
    keep = sv > cut
    borderline = np.sum((sv > 0.1 * cut) & (sv <= 10 * cut))
    if borderline:
        warnings.warn(
            f"{borderline} singular value(s) of delta|sl_beta lie near the "
            "rank threshold; the tangent basis may be ill-conditioned",
            RankDeficiencyWarning,
        )
    tangent = u[:, keep]
    r = tangent.shape[1]
    # The preimage A_j of tangent column j has sl_beta coordinates wt_j / sv_j;
    # its sign is flipped so that pi(A_j)mu = -delta(A_j) is the column itself.
    coords = -(wt[keep] / sv[keep, None]).T
    ad_bp = _ad_beta_plus_matrix(s, dec)
    lv = dmat @ (s.T @ ((pop.matrix + ad_bp) @ coords))
    l_mat = tangent.T @ lv
    leak = float(np.max(np.linalg.norm(lv - tangent @ l_mat, axis=0), initial=0.0))
    # The field is a polynomial of degree 5 along a line, so this is its exact derivative
    # along each tangent column: one flow_field call on the 6r states, none when r = 0.
    # The SVD's columns are antisymmetric only to round-off, and flow_field takes
    # antisymmetric states, so the states are projected first.
    flow_disc = 0.0
    if r:
        states = (mu.coeffs.ravel() + _FLOW_STEPS[:, None, None] * tangent.T).reshape(-1, n, n, n)
        f = flow_field(0.5 * (states - states.swapaxes(1, 2)), Variant.SCALSTAR, dec)
        fd = np.tensordot(_FLOW_WEIGHTS, f.reshape(6, r, -1), axes=1).T
        flow_disc = float(np.max(np.linalg.norm(fd - lv, axis=0)))

    eigvals = np.linalg.eigvals(l_mat)
    kernel = tangent @ null_space(l_mat, rtol=KERNEL_TOL, floor=KERNEL_TOL)
    kb = _rows(dec.k_beta_basis, n)
    kb_orbit = orthonormal_basis(kb @ dmat.T, floor=RANK_TOL * scale_delta)

    # P spectrum and kernel versus (Der + k_beta) intersect sl_beta.
    p_eigs = np.linalg.eigvalsh(_sym(pop.matrix))
    p_scale = float(np.max(np.abs(p_eigs), initial=1.0))
    ders = _rows(derivation_space(mu), n)
    der_kb = orthonormal_basis(np.vstack([ders, kb]))
    expected_kernel = subspace_intersection(der_kb, orthonormal_basis(s))
    # Residual of P on the expected kernel: direct test that P annihilates
    # (Der + k_beta) intersect sl_beta.
    p_kernel_residual = float(
        np.max(np.linalg.norm(pop.matrix @ (s @ expected_kernel), axis=0), initial=0.0)
    )

    comm_norm = float(np.linalg.norm(pop.matrix @ ad_bp - ad_bp @ pop.matrix))
    k_cond = float(np.linalg.cond(k)) if np.linalg.norm(k) > 0 else float("inf")

    return LinearizationReport(
        tangent_dim=r,
        eigenvalues=np.sort(eigvals.real),
        kernel_dim=kernel.shape[1],
        kernel_matches_kbeta_orbit=subspace_distance(kernel, kb_orbit) <= 1e-6,
        P_spectrum=p_eigs,
        commutator_norm=comm_norm,
        max_imag=float(np.max(np.abs(eigvals.imag), initial=0.0)),
        tangent_leak=leak,
        P_fd_discrepancy=pop.fd_discrepancy,
        flow_fd_discrepancy=flow_disc,
        P_kernel_dim=int(np.sum(np.abs(p_eigs) <= KERNEL_TOL * p_scale)),
        P_kernel_expected_dim=expected_kernel.shape[1],
        P_kernel_residual=p_kernel_residual,
        K_condition=k_cond,
        kbeta_orbit_dim=kb_orbit.shape[1],
        tangent_basis=tangent,
        L_matrix=l_mat,
    )
