"""Independent numpy formulas the output checks compare the program against.

Nothing here imports bracketflow: each function restates a definition from
the mathematics on a raw coefficient array c[i, j, k] (mu(e_i, e_j) =
sum_k c[i, j, k] e_k), so a change inside the program cannot move both sides
of a check at once.
"""

import numpy as np


def koszul_ricci(c):
    """Ricci endomorphism from the Levi-Civita connection (Koszul formula)."""
    gamma = 0.5 * (c - np.transpose(c, (2, 0, 1)) + np.transpose(c, (1, 2, 0)))
    ric = (
        np.einsum("bcm,ama->bc", gamma, gamma)
        - np.einsum("acm,bma->bc", gamma, gamma)
        - np.einsum("abm,mca->bc", c, gamma)
    )
    return 0.5 * (ric + ric.T)


def moment_part(c):
    """M with <M X, Y> built from the bracket; tr M = -||c||^2 / 4."""
    return -0.5 * np.einsum("pij,qij->pq", c, c) + 0.25 * np.einsum("ijp,ijq->pq", c, c)


def killing(c):
    """Killing form tr(ad X ad Y) as an endomorphism."""
    return np.einsum("pkj,qjk->pq", c, c)


def ricci_star(c):
    """Modified Ricci endomorphism Ric* = M - K/2."""
    return moment_part(c) - 0.5 * killing(c)


def moment_map(c):
    """Normalized moment map m = 4 M / ||c||^2 (trace -1)."""
    return 4.0 * moment_part(c) / float(np.sum(c * c))


def jacobi_residual(c):
    """Norm of the cyclic Jacobi sum over all basis triples."""
    t = np.einsum("xyk,kzw->xyzw", c, c)
    cyc = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.linalg.norm(cyc))


def jacobi_tolerance(c):
    """Residual below which a tensor counts as a Lie bracket: 1e-10 (1 + ||c||^2)."""
    return 1e-10 * (1.0 + float(np.sum(c * c)))


def act(h, c):
    """Change of basis (h.mu)(x, y) = h mu(h^-1 x, h^-1 y)."""
    hinv = np.linalg.inv(h)
    return np.einsum("ai,bj,kc,abc->ijk", hinv, hinv, h, c, optimize=True)


def pi_apply(a, c):
    """Infinitesimal action (pi(A)mu)(x, y) = A mu(x,y) - mu(Ax,y) - mu(x,Ay)."""
    return (
        np.einsum("kc,ijc->ijk", a, c)
        - np.einsum("ai,ajk->ijk", a, c)
        - np.einsum("bj,ibk->ijk", a, c)
    )


def orthonormal_columns(mat, rtol=1e-8):
    """Orthonormal basis of the column span of mat, cut at rtol * largest singular value."""
    if mat.shape[1] == 0:
        return mat
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    return u[:, s > rtol * s[0]]


def subspace_gap(a, b):
    """Largest principal-angle sine between two column spans of equal dimension."""
    if a.shape[1] != b.shape[1]:
        return float("inf")
    if a.shape[1] == 0:
        return 0.0
    resid = a - b @ (b.T @ a)
    return float(np.linalg.norm(resid, 2))


def simpson_cumulative(t, f):
    """Composite Simpson integrals of f from t[0] to each even-index t[2k]."""
    out = [0.0]
    for i in range(2, len(t), 2):
        out.append(out[-1] + (t[i] - t[i - 2]) / 6.0 * (f[i - 2] + 4.0 * f[i - 1] + f[i]))
    return np.array(out)
