"""Spectral type of solvable brackets: real / imaginary / mixed, and flatness.

phi(mu, X) is the largest |Re lambda| and psi(mu, X) the largest |lambda|
over the eigenvalues of ad(X).  A non-nilpotent solvable bracket is of real
type when phi stays away from zero on the unit sphere of the nilradical
complement a, and of imaginary type when phi vanishes identically.

By Lie's theorem the eigenvalues of ad(X) are linear functionals alpha_i(X),
so Q_R(X) = sum (Re alpha_i(X))^2 = (E(X) + B(X, X)) / 2 is a positive
semidefinite quadratic form, with E the root energy form and B the Killing
form.  Q_R vanishes on the nilradical, so the type is decided exactly by the
eigenvalues of its rank x rank Gram on a: real when Q_R is positive definite
there, imaginary when it is zero.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .brackets import ad_map, ensure_lie, is_solvable, nilradical, report_to_dict, root_energy_gram
from .curvature import killing_matrix, ricci
from .errors import NilpotentInput, NotSolvable

TYPE_TOL = 1e-12
FLAT_TOL = 1e-10


class AlgebraType(str, Enum):
    REAL = "RealType"
    IMAGINARY = "ImaginaryType"
    MIXED = "MixedNonReal"
    NILPOTENT = "Nilpotent"
    ABELIAN = "Abelian"


@dataclass
class TypeReport:
    kind: AlgebraType
    sigma_a: float
    witness: np.ndarray
    rank: int
    confidence: str = "exact"
    notes: str = ""

    to_dict = report_to_dict


def phi(mu, x):
    """Largest |Re lambda| over the spectrum of ad(x); degree-1 homogeneous."""
    a = ad_map(mu, x)
    if not np.any(a):
        return 0.0
    return float(np.max(np.abs(np.real(np.linalg.eigvals(a)))))


def psi(mu, x):
    """Largest |lambda| over the spectrum of ad(x)."""
    a = ad_map(mu, x)
    if not np.any(a):
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _real_root_form(mu, a_basis):
    """Eigenvalues (ascending) and eigenvectors of the Gram of Q_R on a_basis.

    Q_R(x) = sum (Re alpha_i(x))^2 = (E(x) + B(x, x)) / 2, with E the root
    energy form and B the Killing form.
    """
    killing = a_basis.T @ killing_matrix(mu) @ a_basis
    return np.linalg.eigh(0.5 * (root_energy_gram(mu, a_basis) + killing))


def sigma_a(mu):
    """phi at the least eigenvector v of Q_R on a = n^perp; returns (value, v).

    The value is attained on the unit sphere of a, so it bounds the minimum
    sigma_a of phi there from above.  Since phi(x)^2 <= Q_R(x) <= n phi(x)^2
    with n = dim g, and lambda_min is the least eigenvalue of Q_R on a,
    sqrt(lambda_min / n) <= sigma_a <= value <= sqrt(lambda_min).
    The value is exact at rank 1 (the unit sphere of a is +-v) and for
    non-real types (Q_R(v) = 0 forces phi(v) = 0).
    """
    _, a_basis, rank = nilradical(mu)
    if rank == 0:
        raise NilpotentInput("sigma_a requires a non-nilpotent bracket (rank >= 1)")
    _, vecs = _real_root_form(mu, a_basis)
    witness = a_basis @ vecs[:, 0]
    return phi(mu, witness), witness


def classify_type(mu):
    """Type report for a solvable Lie bracket.

    Abelian and Nilpotent are detected structurally.  Otherwise the type is
    read off the eigenvalues of Q_R on the nilradical complement a, against
    TYPE_TOL (1 + ||mu||^2): real when the least is above it, imaginary when
    the largest is below it, mixed otherwise.  sigma_a and the witness are
    those of sigma_a(mu), except that a mixed report's witness is the top
    eigenvector of Q_R.
    """
    if mu.is_zero:
        return TypeReport(AlgebraType.ABELIAN, 0.0, np.zeros(mu.dim), 0)
    _, a_basis, rank = nilradical(mu)
    if rank == 0:
        return TypeReport(AlgebraType.NILPOTENT, 0.0, np.zeros(mu.dim), 0)
    lam, vecs = _real_root_form(mu, a_basis)
    witness = a_basis @ vecs[:, 0]
    value = phi(mu, witness)
    tol = TYPE_TOL * (1.0 + mu.norm_sq)
    if lam[0] > tol:
        return TypeReport(AlgebraType.REAL, value, witness, rank)
    if lam[-1] <= tol:
        return TypeReport(AlgebraType.IMAGINARY, value, witness, rank)
    return TypeReport(AlgebraType.MIXED, value, a_basis @ vecs[:, -1], rank)


def is_flat_bracket(mu):
    """Flatness via the Ricci endomorphism: ||Ric|| below the flat tolerance."""
    ensure_lie(mu)
    if not is_solvable(mu):
        raise NotSolvable("flatness test covers solvable brackets only")
    return _is_flat(ricci(mu), mu.norm_sq)


def _is_flat(ric, norm_sq):
    """The flatness rule on a solvable Lie bracket's Ricci endomorphism and ||mu||^2."""
    return float(np.linalg.norm(ric)) <= FLAT_TOL * (1.0 + norm_sq)
