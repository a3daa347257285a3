"""Linearization of the normalized gauged flow at a soliton fixed point.

At a correctly gauged soliton with Ric* equal to the stratum label, the
normalized flow is stationary and its linearization on the tangent space
T = {pi(A).mu : A in sl_beta} takes the form

    L(pi(A).mu) = -pi(P(A) + [beta+, A]).mu

where P acts blockwise: (S o delta^t delta + A^t K + K A)/2 on h_beta and
delta^t delta / 2 on u_beta, with delta(A) = -pi(A).mu.  P is symmetric
positive semidefinite with kernel (Der + k_beta) intersect sl_beta, it
commutes with ad(beta+), and the nonzero eigenvalues of L are negative.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .brackets import act, derivation_matrix, derivation_space, pi_action
from .curvature import curvature_parts, killing_matrix
from .errors import GaugeMismatch
from .flows import Variant, flow_field
from .linalg import (
    RANK_TOL,
    orthonormal_basis,
    subspace_distance,
    subspace_intersection,
)
from .strata import project_qbeta

IMAG_TOL = 1e-8
KERNEL_TOL = 1e-8


class RankDeficiencyWarning(UserWarning):
    """Tangent-basis construction met near-threshold singular values."""


def delta_matrix(mu):
    """Matrix of delta: gl(n) -> V, A |-> -pi(A)mu, on flattened coordinates."""
    return -derivation_matrix(mu)


def delta_apply(mu, a):
    return -pi_action(a, mu).coeffs


def k_beta_basis(dec):
    """Orthonormal basis of k_beta = so(n) intersect g_beta."""
    n = dec.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if dec.mask_g[i, j]:
                e = np.zeros((n, n))
                e[i, j] = 1.0 / np.sqrt(2.0)
                e[j, i] = -1.0 / np.sqrt(2.0)
                out.append(e)
    return out


def _sym(a):
    return 0.5 * (a + a.T)


@dataclass
class POperator:
    """Matrix of P on the orthonormal sl_beta basis, plus the pieces it used."""

    matrix: np.ndarray
    sl_basis: list
    fd_discrepancy: float

    def apply(self, coeffs):
        return self.matrix @ coeffs


def _require_gauged_soliton(mu, dec, tol=1e-7):
    beta_plus = dec.label.beta_plus
    leak = float(np.linalg.norm(pi_action(beta_plus, mu).coeffs))
    if leak > tol * (1.0 + mu.norm):
        raise GaugeMismatch(
            f"bracket is not fixed by pi(beta+): residual {leak:.3e}; "
            "it must lie in the zero eigenspace of its own grading"
        )


def p_operator(mu, dec, fd_check=True, fd_step=1e-6):
    """Assemble P on sl_beta from the closed blockwise formulas.

    When fd_check is set, P is also evaluated from its definition as the
    q_beta-projected first variation of Ric* along pi(A)mu (by central
    differences) and the worst matrix discrepancy is reported.
    """
    _require_gauged_soliton(mu, dec)
    dmat = delta_matrix(mu)
    dtd = dmat.T @ dmat
    k = killing_matrix(mu)
    n = mu.dim

    def apply_p(a, in_u):
        dtd_a = (dtd @ a.ravel()).reshape(n, n)
        if in_u:
            return 0.5 * dtd_a
        return 0.5 * (_sym(dtd_a) + a.T @ k + k @ a)

    n_h = len(dec.h_basis)
    basis = dec.sl_basis
    m = len(basis)
    mat = np.zeros((m, m))
    images = []
    for j, a in enumerate(basis):
        pa = apply_p(a, in_u=j >= n_h)
        images.append(pa)
        for i, b in enumerate(basis):
            mat[i, j] = float(np.sum(b * pa))
    fd_disc = 0.0
    if fd_check:
        from scipy.linalg import expm

        for a, pa in zip(basis, images):
            plus = _ricstar_q(act(expm(fd_step * a), mu), dec)
            minus = _ricstar_q(act(expm(-fd_step * a), mu), dec)
            fd = (plus - minus) / (2.0 * fd_step)
            fd_disc = max(fd_disc, float(np.linalg.norm(fd - pa)))
    return POperator(matrix=mat, sl_basis=basis, fd_discrepancy=fd_disc)


def _ricstar_q(mu, dec):
    return project_qbeta(curvature_parts(mu)[4], dec)


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

    def to_dict(self):
        return {
            "tangent_dim": self.tangent_dim,
            "eigenvalues": self.eigenvalues.tolist(),
            "kernel_dim": self.kernel_dim,
            "kernel_matches_kbeta_orbit": self.kernel_matches_kbeta_orbit,
            "P_spectrum": self.P_spectrum.tolist(),
            "commutator_norm": self.commutator_norm,
            "max_imag": self.max_imag,
            "tangent_leak": self.tangent_leak,
            "P_fd_discrepancy": self.P_fd_discrepancy,
            "flow_fd_discrepancy": self.flow_fd_discrepancy,
            "P_kernel_dim": self.P_kernel_dim,
            "P_kernel_expected_dim": self.P_kernel_expected_dim,
            "P_kernel_residual": self.P_kernel_residual,
            "K_condition": self.K_condition,
            "kbeta_orbit_dim": self.kbeta_orbit_dim,
        }


def _ad_beta_plus_matrix(dec):
    basis = dec.sl_basis
    bp = dec.label.beta_plus
    m = len(basis)
    out = np.zeros((m, m))
    for j, a in enumerate(basis):
        comm = bp @ a - a @ bp
        for i, b in enumerate(basis):
            out[i, j] = float(np.sum(b * comm))
    return out


def l_operator(mu, dec, fd_step=1e-5):
    """Linearization report of the normalized gauged flow at a soliton mu.

    Builds an orthonormal basis of the tangent space T = image of delta on
    sl_beta, represents L there, and cross-checks against a central-difference
    linearization of the actual flow vector field.
    """
    _require_gauged_soliton(mu, dec)
    n = mu.dim
    pop = p_operator(mu, dec)
    basis = dec.sl_basis
    m = len(basis)
    dmat = delta_matrix(mu)
    sl_cols = np.column_stack([b.ravel() for b in basis]) if m else np.zeros((n * n, 0))
    dsl = dmat @ sl_cols
    # Singular values are cut against the scale of delta itself, so that a
    # numerically-zero restriction yields an empty tangent space.
    scale_delta = max(float(np.linalg.norm(dmat, 2)), 1e-300)
    if m:
        u, s, wt = np.linalg.svd(dsl, full_matrices=False)
        cut = RANK_TOL * scale_delta
        keep = s > cut
        borderline = np.sum((s > 0.1 * cut) & (s <= 10 * cut))
        if borderline:
            warnings.warn(
                f"{borderline} singular value(s) of delta|sl_beta lie near the "
                "rank threshold; the tangent basis may be ill-conditioned",
                RankDeficiencyWarning,
            )
        tangent = u[:, keep]
        preimages = [
            (sl_cols @ wt[i]).reshape(n, n) / s[i] for i in np.flatnonzero(keep)
        ]
    else:
        tangent = np.zeros((n**3, 0))
        preimages = []
    r = tangent.shape[1]

    bp = dec.label.beta_plus
    n_h = len(dec.h_basis)
    l_mat = np.zeros((r, r))
    leak = 0.0
    flow_disc = 0.0
    for j, a in enumerate(preimages):
        # delta(a) = tangent[:, j] means pi(a)mu = -tangent column; flip the
        # sign so that pi(a)mu is the tangent direction itself.
        a = -a
        coeffs = np.array([float(np.sum(b * a)) for b in basis])
        pa = sum(c * img for c, img in zip(pop.matrix @ coeffs, basis))
        lv = -pi_action(pa + (bp @ a - a @ bp), mu).coeffs.ravel()
        l_mat[:, j] = tangent.T @ lv
        leak = max(leak, float(np.linalg.norm(lv - tangent @ (tangent.T @ lv))))
        # Finite-difference check against the actual vector field.
        v = tangent[:, j].reshape(n, n, n)
        fp = flow_field(mu.coeffs + fd_step * v, Variant.SCALSTAR, dec)
        fm = flow_field(mu.coeffs - fd_step * v, Variant.SCALSTAR, dec)
        fd = ((fp - fm) / (2.0 * fd_step)).ravel()
        flow_disc = max(flow_disc, float(np.linalg.norm(fd - lv)))

    eigvals = np.linalg.eigvals(l_mat) if r else np.zeros(0, complex)
    max_imag = float(np.max(np.abs(eigvals.imag))) if r else 0.0
    real_eigs = np.sort(eigvals.real)
    scale = max(1.0, float(np.max(np.abs(real_eigs))) if r else 1.0)
    kernel_dim = int(np.sum(np.abs(eigvals) <= KERNEL_TOL * scale))

    kb = k_beta_basis(dec)
    if kb:
        kb_cols = np.column_stack([delta_apply(mu, a).ravel() for a in kb])
        kb_orbit = orthonormal_basis(kb_cols.T, floor=RANK_TOL * scale_delta)
    else:
        kb_orbit = np.zeros((n**3, 0))
    kb_dim = kb_orbit.shape[1]
    if r and kernel_dim:
        w, v = np.linalg.eig(l_mat)
        kernel_vecs = v[:, np.abs(w) <= KERNEL_TOL * scale].real
        kernel_amb = orthonormal_basis((tangent @ kernel_vecs).T)
        kernel_matches = kernel_dim == kb_dim and subspace_distance(
            kernel_amb, kb_orbit
        ) <= 1e-6
    else:
        kernel_matches = kernel_dim == kb_dim

    # P spectrum and kernel versus (Der + k_beta) intersect sl_beta.
    p_eigs = np.linalg.eigvalsh(0.5 * (pop.matrix + pop.matrix.T)) if m else np.zeros(0)
    p_scale = max(1.0, float(np.max(np.abs(p_eigs))) if m else 1.0)
    p_kernel_dim = int(np.sum(np.abs(p_eigs) <= KERNEL_TOL * p_scale))
    ders = derivation_space(mu)
    der_cols = (
        np.column_stack([d.ravel() for d in ders]) if ders else np.zeros((n * n, 0))
    )
    kb_gl = np.column_stack([a.ravel() for a in kb]) if kb else np.zeros((n * n, 0))
    der_kb = orthonormal_basis(np.hstack([der_cols, kb_gl]).T)
    sl_space = orthonormal_basis(sl_cols.T)
    expected_kernel = subspace_intersection(der_kb, sl_space)
    # Residual of P on the expected kernel: direct test that P annihilates
    # (Der + k_beta) intersect sl_beta.
    p_kernel_residual = 0.0
    for i in range(expected_kernel.shape[1]):
        vec = expected_kernel[:, i].reshape(n, n)
        coeffs_v = np.array([float(np.sum(b * vec)) for b in basis])
        p_kernel_residual = max(
            p_kernel_residual, float(np.linalg.norm(pop.matrix @ coeffs_v))
        )

    ad_bp = _ad_beta_plus_matrix(dec)
    comm_norm = float(np.linalg.norm(pop.matrix @ ad_bp - ad_bp @ pop.matrix))
    k = killing_matrix(mu)
    k_cond = float(np.linalg.cond(k)) if np.linalg.norm(k) > 0 else float("inf")

    return LinearizationReport(
        tangent_dim=r,
        eigenvalues=real_eigs,
        kernel_dim=kernel_dim,
        kernel_matches_kbeta_orbit=bool(kernel_matches),
        P_spectrum=p_eigs,
        commutator_norm=comm_norm,
        max_imag=max_imag,
        tangent_leak=leak,
        P_fd_discrepancy=pop.fd_discrepancy,
        flow_fd_discrepancy=flow_disc,
        P_kernel_dim=p_kernel_dim,
        P_kernel_expected_dim=expected_kernel.shape[1],
        P_kernel_residual=p_kernel_residual,
        K_condition=k_cond,
        kbeta_orbit_dim=kb_dim,
        tangent_basis=tangent,
        L_matrix=l_mat,
    )
