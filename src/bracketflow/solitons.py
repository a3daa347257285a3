"""Solvsoliton certificates, normalization, and orbit fingerprints.

A bracket is a solvsoliton when Ric = c Id + D for a real constant c and a
derivation D.  The certificate fits (c, D) by least squares over the affine
family spanned by the identity and the derivation algebra; the residual
decides the verdict.  Normalized solitons (scal* = -1) satisfy a chain of
structural identities: Ric* has the stratum label as its value, the shifted
endomorphism Ric* + ||Ric*||^2 Id is a positive semidefinite derivation, and
its image is the nilradical.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .brackets import (
    _nilradical_and_series,
    act,
    derivation_space,
    ensure_lie,
    nilradical,
    pi_apply,
    report_to_dict,
)
from .curvature import curvature_pack, killing_matrix, moment_map_fast
from .errors import IdentityViolation, NotPositiveDefinite, ZeroBracket
from .linalg import subspace_distance, symmetric_sqrt
from .strata import label_from_beta

SOL_TOL_FACTOR = 1e-8
EINS_TOL_FACTOR = 1e-8
FP_TOL = 1e-6
IDENTITY_TOL = 1e-8


class SolitonKind(str, Enum):
    EINSTEIN = "Einstein"
    NONTRIVIAL = "NontrivialSoliton"
    NOT_SOLITON = "NotSoliton"


@dataclass
class SolitonCertificate:
    c: float
    D: np.ndarray
    residual: float
    kind: SolitonKind
    normalized: bool

    to_dict = report_to_dict


def soliton_residual(mu):
    """Least-squares fit of Ric over {c Id + D : D in Der(mu)}.

    The identity is never a derivation of a nonzero bracket, so the fitted c
    is unique; the derivation component is solved jointly by least squares.
    """
    if mu.is_zero:
        raise ZeroBracket("soliton test is undefined for the zero bracket")
    ensure_lie(mu)
    pack = curvature_pack(mu)
    ric = pack.Ric
    ders = derivation_space(mu)
    n = mu.dim
    columns = [np.eye(n).ravel()] + [d.ravel() for d in ders]
    basis = np.column_stack(columns)
    sol, _, _, _ = np.linalg.lstsq(basis, ric.ravel(), rcond=None)
    fit = (basis @ sol).reshape(n, n)
    residual = float(np.linalg.norm(ric - fit))
    c = float(sol[0])
    d = fit - c * np.eye(n)
    sol_tol = SOL_TOL_FACTOR * (1.0 + float(np.linalg.norm(ric)))
    if residual <= sol_tol:
        kind = (
            SolitonKind.EINSTEIN
            if float(np.linalg.norm(d)) <= EINS_TOL_FACTOR * (1.0 + float(np.linalg.norm(ric)))
            else SolitonKind.NONTRIVIAL
        )
    else:
        kind = SolitonKind.NOT_SOLITON
    return SolitonCertificate(
        c=c,
        D=d,
        residual=residual,
        kind=kind,
        normalized=abs(pack.scalStar + 1.0) <= 1e-9,
    )


def _check(condition, clause):
    if not condition:
        raise IdentityViolation(clause)


def normalize_soliton(mu, cert):
    """Rescale a certified soliton to scal* = -1 and verify its identities.

    Checks that beta+ = Ric* + ||Ric*||^2 Id is a positive semidefinite
    derivation whose image is the nilradical, and that Ric* decomposes as
    -||Ric*||^2 Id + beta+.  Idempotent on already-normalized input.
    """
    if cert.kind == SolitonKind.NOT_SOLITON:
        raise IdentityViolation("certificate does not certify a soliton")
    pack = curvature_pack(mu)
    if pack.scalStar >= 0.0:
        raise IdentityViolation(f"scal* = {pack.scalStar:.3e} must be negative")
    if abs(pack.scalStar + 1.0) <= 1e-12:
        normalized = mu
    else:
        normalized = mu.scaled(abs(pack.scalStar) ** -0.5)
    npack = curvature_pack(normalized)
    rstar = npack.RicStar
    rstar_sq = float(np.sum(rstar * rstar))
    beta_plus = rstar + rstar_sq * np.eye(mu.dim)
    _check(
        float(np.linalg.norm(pi_apply(beta_plus, normalized.coeffs))) <= IDENTITY_TOL,
        "beta+ is not a derivation of the normalized bracket",
    )
    w, v = np.linalg.eigh(0.5 * (beta_plus + beta_plus.T))
    _check(float(w.min()) >= -IDENTITY_TOL, "beta+ is not positive semidefinite")
    # Image of beta+ via its spectral decomposition.
    image = v[:, w > IDENTITY_TOL]
    n_basis, _, _ = nilradical(normalized)
    _check(
        subspace_distance(image, n_basis) <= 1e-6,
        "image of beta+ does not match the nilradical",
    )
    _check(
        float(np.linalg.norm(rstar - (-rstar_sq * np.eye(mu.dim) + beta_plus))) <= IDENTITY_TOL,
        "Ric* does not decompose as c Id + beta+ with c = -||Ric*||^2",
    )
    return normalized


def construct_critical(mu_norm, label):
    """Move a normalized soliton to a critical point of the moment-map energy.

    Solves h^t h = Id - K / (2 ||beta||^2); the right-hand side is the
    identity on the nilradical (where the Killing form vanishes), so h only
    rescales the complement.  The result satisfies m(h.mu) = beta, and the
    transformation rules M_{h.mu} = (h^-1)^t M h^-1 and likewise for Ric*
    are verified on the way out.
    """
    k = killing_matrix(mu_norm)
    beta = label.beta
    beta_sq = label.norm_sq
    target = np.eye(mu_norm.dim) - k / (2.0 * beta_sq)
    try:
        h = symmetric_sqrt(target)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            f"Id - K/(2||beta||^2) is not positive definite: {exc}"
        ) from exc
    moved = act(h, mu_norm)
    m = moment_map_fast(moved)
    if float(np.linalg.norm(m - beta)) > 1e-8:
        raise IdentityViolation(
            f"moment map of the transformed bracket misses beta by "
            f"{np.linalg.norm(m - beta):.3e}"
        )
    hinv = np.linalg.inv(h)
    pack0 = curvature_pack(mu_norm)
    pack1 = curvature_pack(moved)
    for name, before, after in (
        ("M", pack0.M, pack1.M),
        ("Ric*", pack0.RicStar, pack1.RicStar),
    ):
        expected = hinv.T @ before @ hinv
        if float(np.linalg.norm(after - expected)) > 1e-9 * (1.0 + np.linalg.norm(after)):
            raise IdentityViolation(f"{name} does not transform by (h^-1)^t {name} h^-1")
    return moved


def soliton_label(mu_norm):
    """Canonical stratum data of a normalized soliton from its own Ric*.

    For a normalized solvsoliton the modified Ricci endomorphism equals the
    stratum label, so diagonalizing it (ascending) and rotating the bracket
    into that eigenbasis puts everything in canonical gauge without running
    the energy flow.  Returns (aligned bracket, label).
    """
    pack = curvature_pack(mu_norm)
    if abs(pack.scalStar + 1.0) > 1e-9:
        raise IdentityViolation("soliton_label expects a scal* = -1 bracket")
    w, v = np.linalg.eigh(pack.RicStar)
    aligned = act(v.T, mu_norm)
    label = label_from_beta(w, critical_bracket=aligned, residual=0.0)
    return aligned, label


@dataclass
class OrbitFingerprint:
    """O(n)-invariant summary used to compare flow limits across runs."""

    ric_eigs: np.ndarray
    ricstar_eigs: np.ndarray
    moment_eigs: np.ndarray
    scal: float
    scal_star: float
    norm: float
    nilradical_dim: int
    derived_dims: tuple

    def as_vector(self):
        return np.concatenate(
            [
                self.ric_eigs,
                self.ricstar_eigs,
                self.moment_eigs,
                [self.scal, self.scal_star, self.norm],
            ]
        )

    to_dict = report_to_dict


def fingerprint(mu):
    pack = curvature_pack(mu)
    moment_eigs = (
        np.zeros(mu.dim) if mu.is_zero else np.linalg.eigvalsh(moment_map_fast(mu))
    )
    (_, _, rank), derived = _nilradical_and_series(mu)
    return OrbitFingerprint(
        ric_eigs=np.linalg.eigvalsh(pack.Ric),
        ricstar_eigs=np.linalg.eigvalsh(pack.RicStar),
        moment_eigs=moment_eigs,
        scal=pack.scal,
        scal_star=pack.scalStar,
        norm=mu.norm,
        nilradical_dim=mu.dim - rank,
        derived_dims=tuple(derived),
    )


def fingerprint_distance(fp_a, fp_b):
    """Max absolute gap across the numeric entries; inf on structural mismatch."""
    if (
        fp_a.ric_eigs.size != fp_b.ric_eigs.size
        or fp_a.nilradical_dim != fp_b.nilradical_dim
        or fp_a.derived_dims != fp_b.derived_dims
    ):
        return float("inf")
    return float(np.max(np.abs(fp_a.as_vector() - fp_b.as_vector())))


def same_orbit_on(fp_a, fp_b):
    """Necessary (not sufficient) test for lying in one orthogonal orbit."""
    return fingerprint_distance(fp_a, fp_b) <= FP_TOL * (1.0 + abs(fp_a.norm))
