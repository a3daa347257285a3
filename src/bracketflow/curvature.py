"""Closed-form curvature of the left-invariant metric attached to a bracket.

All quantities are endomorphisms in the fixed orthonormal basis: the
moment-map part M, the Killing form K, the mean-curvature vector H, the
Ricci endomorphism Ric = M - K/2 - sym(ad H), and the modified Ricci
Ric* = M - K/2 together with its trace scal*.

The formulas live once, on raw (n, n, n) coefficient arrays (`coeff_moment`,
`coeff_killing`, `coeff_ric_star`, `coeff_ad_h_t`, `coeff_ricci`,
`coeff_parts`, `coeff_scal_star`), as BLAS products of the reshapes
C1 = c.reshape(n, n^2), C2 = c.reshape(n^2, n) and D = c.mT.reshape(n, n^2).
They validate nothing, so the integrator and the energy flow call them on
their states directly; the functions taking a BracketTensor read from the
same code.  All of them also take a stack (..., n, n, n) of states and return
the stack of results, each slice equal to the bits of the one-state call.

Ric* = M - K/2 is one product, -1/2 C1 (C1 + D)^T + 1/4 C2^T C2, which never
forms M = -1/2 C1 C1^T + 1/4 C2^T C2 or K = C1 D^T: `coeff_ric_star` is Ric*
alone, and `coeff_ricci` is (Ric, Ric*), Ric = Ric* - sym(ad H) formed by
`ricci_from` from Ric* and (ad H)^T (`coeff_ad_h_t`), so a caller can keep
those two and form Ric later.  The flows and `linearize` call only these, so
no bracket flow forms M or K; `coeff_parts` adds M and K for CurvaturePack,
and of the flows only the energy flow of `strata` calls `coeff_moment`.
"""

from dataclasses import dataclass

import numpy as np

from .brackets import ensure_lie, report_to_dict
from .errors import ZeroBracket


def coeff_moment(c):
    """M = -1/2 C1 C1^T + 1/4 C2^T C2 of raw coefficients c, so tr M = -||c||^2 / 4."""
    n = c.shape[-1]
    c1 = c.reshape(c.shape[:-2] + (n * n,))
    c2 = c.reshape(c.shape[:-3] + (n * n, n))
    return -0.5 * (c1 @ c1.mT) + 0.25 * (c2.mT @ c2)


def coeff_killing(c):
    """K[p, q] = sum c[p, a, b] c[q, b, a] = tr(ad e_p ad e_q) = C1 D^T of raw coefficients c."""
    c1 = c.reshape(c.shape[:-2] + (-1,))
    return c1 @ c.mT.reshape(c1.shape).mT


def _mean_curvature(c):
    """H[p] = tr ad e_p of raw coefficients c."""
    return c.trace(axis1=-2, axis2=-1)


def coeff_ric_star(c):
    """Ric* = M - K/2 = -1/2 C1 (C1 + D)^T + 1/4 C2^T C2 of raw coefficients c; no validation."""
    n = c.shape[-1]
    c1 = c.reshape(c.shape[:-2] + (n * n,))
    c2 = c.reshape(c.shape[:-3] + (n * n, n))
    ric_star = c1 @ np.add(c, c.mT).reshape(c1.shape).mT
    ric_star *= -0.5
    quarter = c2.mT @ c2
    quarter *= 0.25
    ric_star += quarter
    return ric_star


def coeff_ad_h_t(c):
    """(ad H)^T of raw coefficients c, built as H C1: Ric and Ric* differ by its symmetric part."""
    n = c.shape[-1]
    return np.vecmat(_mean_curvature(c), c.reshape(c.shape[:-2] + (n * n,))).reshape(c.shape[:-1])


def ricci_from(ric_star, ad_h_t):
    """Ric = Ric* - sym(ad H) from Ric* and (ad H)^T, or stacks of them, on a fresh array."""
    ric = np.add(ad_h_t, ad_h_t.mT)
    ric *= 0.5
    return np.subtract(ric_star, ric, out=ric)


def coeff_ricci(c):
    """(Ric, Ric*) of raw coefficients c."""
    ric_star = coeff_ric_star(c)
    return ricci_from(ric_star, coeff_ad_h_t(c)), ric_star


def coeff_parts(c):
    """(M, K, H, Ric, Ric*) of raw coefficients c; no validation."""
    ric, ric_star = coeff_ricci(c)
    return coeff_moment(c), coeff_killing(c), _mean_curvature(c), ric, ric_star


def coeff_scal_star(c):
    """scal* = tr M - tr K / 2 = -||c||^2 / 4 - 1/2 sum c[p, j, i] c[p, i, j]."""
    flat = c.reshape(c.shape[:-3] + (-1,))
    return -0.25 * np.vecdot(flat, flat) - 0.5 * np.vecdot(flat, c.mT.reshape(flat.shape))


def moment_map_fast(mu):
    """Normalized moment map m(mu) = 4 M / ||mu||^2.

    <m(mu), A> = <pi(A)mu, mu> / ||mu||^2 for every symmetric A; trace -1,
    invariant under scaling of mu, and O(n)-equivariant.
    """
    if mu.is_zero:
        raise ZeroBracket("moment map is undefined at the zero bracket")
    return 4.0 * coeff_moment(mu.coeffs) / mu.norm_sq


def killing_matrix(mu):
    """Killing-form endomorphism: <K X, Y> = tr(ad X ad Y)."""
    return coeff_killing(mu.coeffs)


@dataclass(frozen=True, slots=True)
class CurvaturePack:
    """All Ricci-level curvature data of one bracket."""

    M: np.ndarray
    K: np.ndarray
    H: np.ndarray
    Ric: np.ndarray
    RicStar: np.ndarray
    scal: float
    scalStar: float
    normSq: float

    to_dict = report_to_dict


def curvature_parts(mu):
    """(M, K, H, Ric, RicStar) without any validity checks; formula only."""
    return coeff_parts(mu.coeffs)


def curvature_pack(mu):
    """Curvature data of a Lie bracket; the zero bracket yields the flat pack."""
    n = mu.dim
    if mu.is_zero:
        z = np.zeros((n, n))
        return CurvaturePack(z, z.copy(), np.zeros(n), z.copy(), z.copy(), 0.0, 0.0, 0.0)
    ensure_lie(mu)
    m_part, k, h, ric, ric_star = curvature_parts(mu)
    return CurvaturePack(
        M=m_part,
        K=k,
        H=h,
        Ric=ric,
        RicStar=ric_star,
        scal=float(np.trace(ric)),
        scalStar=float(np.trace(ric_star)),
        normSq=mu.norm_sq,
    )


def ricci(mu):
    if mu.is_zero:
        return np.zeros((mu.dim, mu.dim))
    ensure_lie(mu)
    return curvature_parts(mu)[3]


def ricci_star(mu):
    if mu.is_zero:
        return np.zeros((mu.dim, mu.dim))
    return curvature_parts(mu)[4]


def scal_star(mu):
    return float(coeff_scal_star(mu.coeffs))
