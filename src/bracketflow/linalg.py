"""Small dense linear-algebra utilities used across the package."""

import numpy as np

from .errors import NotPositiveDefinite

RANK_TOL = 1e-8
# Coefficients b_0, ..., b_13 of the [13/13] Pade approximant of exp (Higham, SIAM J. Matrix
# Anal. Appl. 26, 2005), and the 1-norm slices are scaled to: half of Higham's theta_13 =
# 5.3719..., as one more squaring bounds the rounding of the denominator V - U, whose
# cancellation grows like e^||A|| (on diagonal slices of 1-norm up to 60 the largest relative
# error against np.exp fell from 1.4e-13 to 1.9e-14, and on general ones it did not grow).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_SCALED_NORM = 5.371920351148152 / 2


def expm_stack(a):
    """exp of each slice of a finite stack a (P, n, n), in one batched pass.

    Pade-13 with scaling and squaring (Higham 2005): slice p is scaled by 2^-s[p], with s[p]
    the least s >= 0 that brings its 1-norm to _SCALED_NORM or below, and squared s[p] times.
    """
    a = np.asarray(a, dtype=float)
    norms = np.einsum("pij->pj", np.abs(a)).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(norms / _SCALED_NORM, 1.0))).astype(int)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b, eye = _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
             + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = eye + 2.0 * np.linalg.solve(v - u, u)  # (v - u)^-1 (v + u); exactly Id where a = 0
    for j in range(int(s.max(initial=0))):
        r[s > j] = r[s > j] @ r[s > j]
    return r


def orthonormal_basis(vectors, floor=0.0):
    """Orthonormal basis (columns) of the span of the given row vectors.

    Rank is decided by singular values above RANK_TOL times the largest one; `floor`
    additionally discards singular values below an absolute scale (useful
    when the input may be numerically zero).
    """
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    if arr.size == 0 or not np.any(arr):
        return np.zeros((arr.shape[1] if arr.ndim == 2 else 0, 0))
    u, s, _ = np.linalg.svd(arr.T, full_matrices=False)
    rank = int(np.sum(s > max(RANK_TOL * s[0], floor)))
    return u[:, :rank]


def null_space(mat, rtol=RANK_TOL, floor=0.0):
    """Orthonormal basis (columns) of the kernel of `mat`.

    A tall or square matrix needs only the thin SVD; a wide one keeps the full
    `vt`, because its kernel also holds the rows past min(rows, cols).
    """
    mat = np.asarray(mat, dtype=float)
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > max(rtol * smax, floor))) if smax > 0 else 0
    return vt[rank:].T


def subspace_distance(basis_a, basis_b):
    """Largest principal-angle sine between two subspaces (orthonormal columns).

    Taken as the norm of the part of A outside span(B), which resolves angles
    down to round-off; sqrt(1 - cos^2) would lose everything below about 1e-8.
    Returns 1.0 when the dimensions differ.
    """
    if basis_a.shape[1] != basis_b.shape[1]:
        return 1.0
    if basis_a.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(basis_a - basis_b @ (basis_b.T @ basis_a), 2))


def subspace_intersection(basis_a, basis_b):
    """Orthonormal basis of the intersection of two column-spanned subspaces."""
    if basis_a.shape[1] == 0 or basis_b.shape[1] == 0:
        return np.zeros((basis_a.shape[0], 0))
    stacked = np.hstack([basis_a, -basis_b])
    ker = null_space(stacked)
    if ker.shape[1] == 0:
        return np.zeros((basis_a.shape[0], 0))
    vectors = (basis_a @ ker[: basis_a.shape[1]]).T
    return orthonormal_basis(vectors)


def symmetric_sqrt(mat):
    """Symmetric positive-definite square root via eigendecomposition."""
    mat = np.asarray(mat, dtype=float)
    sym = 0.5 * (mat + mat.T)
    w, v = np.linalg.eigh(sym)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(w) <= 1e-12 * scale:
        raise NotPositiveDefinite(
            f"matrix has eigenvalue {np.min(w):.3e}, not positive definite"
        )
    return (v * np.sqrt(w)) @ v.T
