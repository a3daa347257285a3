"""Small dense linear-algebra utilities used across the package."""

import numpy as np

from .errors import NotPositiveDefinite

RANK_TOL = 1e-8


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
