"""Structure-constant tensors, the change-of-basis action, and algebraic queries.

A bracket on an n-dimensional Euclidean space is stored as the dense
antisymmetric tensor c[i, j, k] with mu(e_i, e_j) = sum_k c[i, j, k] e_k.
The inner product of two brackets sums the products of coefficients over
ALL ordered pairs (i, j) and all k; with this pair-counting convention the
3-dimensional Heisenberg bracket mu(e1, e2) = e3 has squared norm 2, and
the normalized moment map has trace exactly -1.

The coefficient-level kernels `act_apply`, `pi_apply`, `neg_pi_apply` and
`jacobi_norm` act on raw (n, n, n) arrays by reshapes and BLAS products,
without validation; the BracketTensor functions wrap them.  All of them also
take a stack (..., n, n, n) of states and return the stack of results, each
slice equal to the bits of the one-state call.  Validation happens where data
comes in: BracketTensor checks one array's size and antisymmetry.  The flows'
states are exactly antisymmetric by construction, so `bracket_stack` checks an
integrator's stack, slice by slice, only for the size cap and the Jacobi
identity, which DOP853 does not keep.

The JSON wire format is decided here: `bracket_to_dict` and
`bracket_from_dict` for brackets, `report_to_dict` for the report dataclasses.
"""

import functools
import itertools
import json
import math
import numbers
from dataclasses import fields
from enum import Enum

import numpy as np

from .errors import NotALieBracket, NotSolvable, SingularGauge
from .linalg import RANK_TOL, null_space, orthonormal_basis

DIM_CAP = 16
NILP_TOL = 1e-8
JSON_COEFF_FLOOR = 1e-14


# The largest |c| accepted.  With M = max |c| and n <= DIM_CAP, Ric and Ric* have
# entries <= 3 n^2 M^2 (sums of 3 n^2 products c c; the one product behind Ric*
# sums n^2 terms c (c + c^T) <= 2 M^2), so ||Ric*||^2 <= 9 n^6 M^4,
# and the degree-5 scalstar field -pi(q_beta(Ric*) + ||Ric*||^2 Id)c has entries
# <= 3 n M (3 n^2 M^2 + 9 n^6 M^4) <= 36 n^7 M^5 (n M >= 1): 9.7e134 at n = 16,
# M = 1e25, and a squared norm over its n^3 entries of 3.8e273 < 1.8e308.  The
# Jacobi sum's n^4 cyclic terms, each <= 3 n M^2, square to <= 9 n^6 M^4 = 1.5e108.
COEFF_CAP = 1e25


def _size_error(cmax):
    if not math.isfinite(cmax):
        return ValueError("structure constants must be finite")
    return ValueError(f"largest |coefficient| {cmax:.3e} exceeds the cap {COEFF_CAP:.0e}")


def _check_shape(shape):
    """Raise unless shape is (n, n, n) with 1 <= n <= DIM_CAP."""
    if len(shape) != 3 or len(set(shape)) != 1:
        raise ValueError(f"expected an (n, n, n) array, got shape {shape}")
    n = shape[-1]
    if n < 1 or n > DIM_CAP:
        raise ValueError(f"dimension {n} outside the supported range 1..{DIM_CAP}")


def _asym_bound(cmax):
    """The largest |c + c^T| entry that is projected away without antisymmetrize=True."""
    return 1e-12 * (1.0 + cmax)


def jacobi_tolerance(mu):
    """Residual threshold below which a bracket counts as a Lie bracket."""
    return _lie_bound(mu.norm_sq)


def _lie_bound(norm_sq):
    return 1e-10 * (1.0 + norm_sq)


class BracketTensor:
    """Immutable antisymmetric structure-constant tensor."""

    __slots__ = ("dim", "coeffs", "_jacobi")

    def __init__(self, coeffs, antisymmetrize=False):
        self.coeffs = _validated(coeffs, antisymmetrize)
        self.dim = self.coeffs.shape[0]
        self._jacobi = None

    @classmethod
    def _checked(cls, c, jacobi):
        """Wrap read-only coefficients that meet BracketTensor's conditions (bracket_stack's
        slices are antisymmetric by construction), with their Jacobi residual; nothing is
        checked or copied."""
        mu = cls.__new__(cls)
        mu.dim = c.shape[0]
        mu.coeffs = c
        mu._jacobi = jacobi
        return mu

    @classmethod
    def zero(cls, dim):
        _check_shape((dim,) * 3)
        return cls(np.zeros((dim, dim, dim)))

    @classmethod
    def from_entries(cls, dim, entries):
        """Build from 1-based (i, j, k, value) tuples with i < j; antisymmetry is filled in.

        Repeated (i, j, k) entries add up.  Each |value| is checked against
        COEFF_CAP as it is read, so the sum cannot overflow before validation.
        """
        _check_shape((dim,) * 3)
        c = np.zeros((dim, dim, dim))
        for i, j, k, v in entries:
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise ValueError(f"entry ({i},{j},{k}) out of range")
            if not abs(v) <= COEFF_CAP:
                raise _size_error(abs(v))
            c[i - 1, j - 1, k - 1] += v
            c[j - 1, i - 1, k - 1] -= v
        return cls(c)

    @property
    def norm_sq(self):
        return float(np.sum(self.coeffs * self.coeffs))

    @property
    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    @property
    def is_zero(self):
        return not np.any(self.coeffs)

    def inner(self, other):
        return float(np.sum(self.coeffs * other.coeffs))

    def scaled(self, factor):
        return BracketTensor(float(factor) * self.coeffs)

    def apply(self, x, y):
        """Evaluate mu(x, y) on coordinate vectors."""
        return np.einsum("i,j,ijk->k", x, y, self.coeffs)

    def jacobi_residual(self):
        if self._jacobi is None:
            self._jacobi = jacobi_residual(self)
        return self._jacobi

    def __repr__(self):
        return f"BracketTensor(dim={self.dim}, norm={self.norm:.6g})"


def _validated(coeffs, antisymmetrize):
    """BracketTensor's checks on one (n, n, n) array: returns it as a float copy, read-only.

    Its largest |c| must be at most COEFF_CAP (NaN and inf fail), and a
    symmetric part above _asym_bound raises unless antisymmetrize is set.  A
    symmetric part is projected away; an exactly antisymmetric array is kept as
    it is, signed zeros included.
    """
    c = np.asarray(coeffs, dtype=float)
    _check_shape(c.shape)
    cmax = float(np.abs(c).max())
    if not cmax <= COEFF_CAP:  # NaN compares False
        raise _size_error(cmax)
    defect = float(np.abs(c + c.swapaxes(0, 1)).max())
    if defect > _asym_bound(cmax) and not antisymmetrize:
        raise ValueError(f"coefficients are not antisymmetric (defect {defect:.3e}); "
                         "pass antisymmetrize=True to project")
    c = 0.5 * (c - c.swapaxes(0, 1)) if defect > 0.0 else np.array(c)
    c.flags.writeable = False
    return c


def bracket_stack(c):
    """Lie brackets BracketTensor(c) of the slices c of an integrator's (B, n, n, n) stack.

    The stack must be fresh and exactly antisymmetric in its first two axes,
    as every state the flows form is: it is neither copied nor projected, and
    it comes back read-only.  Each slice's largest |c| must be at most
    COEFF_CAP (NaN and inf fail; such a slice is zeroed before the stacked
    Jacobi sum), and then the slice must pass ensure_lie.  Returns the squared
    norms of the slices, as norm_sq gives them, and one entry per slice: the
    BracketTensor over that slice, with its Jacobi residual from one stacked
    sum, or the exception that the checks raise on it, left for the caller to
    raise when it reaches the slice.
    """
    cmax = np.abs(c).max(axis=(1, 2, 3)).tolist()
    errors = [None if m <= COEFF_CAP else _size_error(m) for m in cmax]  # NaN compares False
    for j, err in enumerate(errors):
        if err is not None:
            c[j] = 0.0
    c.flags.writeable = False
    res = jacobi_norm(c).tolist()
    norm_sq = (c * c).reshape(len(c), -1).sum(axis=1)
    out = []
    for j, (err, r, sq) in enumerate(zip(errors, res, norm_sq.tolist())):
        if err is None and r > _lie_bound(sq):
            err = _lie_error(r)
        out.append(BracketTensor._checked(c[j], r) if err is None else err)
    return norm_sq, out


def jacobi_residual(mu):
    """Norm of the cyclic sum mu(mu(x,y),z) + mu(mu(y,z),x) + mu(mu(z,x),y).

    Evaluated over all basis triples; zero exactly when mu is a Lie bracket.
    """
    return float(jacobi_norm(mu.coeffs))


@functools.cache
def _cyclic_triples(n):
    """Flat indices into (n, n, n) of (x, y, z), (y, z, x), (z, x, y) for x < y < z."""
    x, y, z = np.array(list(itertools.combinations(range(n), 3)), dtype=int).reshape(-1, 3).T
    idx = np.stack([(x * n + y) * n + z, (y * n + z) * n + x, (z * n + x) * n + y])
    idx.flags.writeable = False
    return idx


def jacobi_norm(c):
    """jacobi_residual on raw coefficients c; no validation.

    T[x, y, z, w] = sum_k c[x, y, k] c[k, z, w] is one product of the two
    reshapes of c.  The cyclic sum of T is alternating in (x, y, z) when c is
    antisymmetric, so only the triples x < y < z are summed, times sqrt(6);
    on integrator states, antisymmetric up to round-off, the terms left out
    are round-off too.
    """
    lead, n = c.shape[:-3], c.shape[-1]
    t = (c.reshape(lead + (n * n, n)) @ c.reshape(lead + (n, n * n))).reshape(lead + (n**3, n))
    # One gather of the three cyclic index sets, summed in order: (g0 + g1) + g2.
    cyc = np.take(t, _cyclic_triples(n), axis=-2).sum(axis=-3).reshape(lead + (-1,))
    return math.sqrt(6.0) * np.sqrt(np.vecdot(cyc, cyc))


def _lie_error(res):
    return NotALieBracket(f"Jacobi residual {res:.3e} exceeds tolerance")


def ensure_lie(mu):
    res = mu.jacobi_residual()
    if res > jacobi_tolerance(mu):
        raise _lie_error(res)


def singular_tolerance(h):
    n = h.shape[0]
    return 1e-12 * np.linalg.norm(h, 2) ** n


def act_apply(h, c):
    """h.c on raw structure constants c; no validation, result not antisymmetrized.

    (h.c)[i, j, k] = sum h^-1[a, i] h^-1[b, j] h[k, l] c[a, b, l], contracted
    one index at a time by three products of reshapes, first index first.
    A stack of c (..., n, n, n) takes the stack of h (..., n, n) of the same leading axes.
    """
    lead, n = c.shape[:-3], c.shape[-1]
    hinv = np.linalg.inv(h)
    t = c.reshape(lead + (n, n * n)).mT @ hinv
    t = t.reshape(lead + (n, n * n)).mT @ hinv
    return (t.reshape(lead + (n, n * n)).mT @ h.mT).reshape(c.shape)


def act(h, mu):
    """Change-of-basis action (h.mu)(x, y) = h mu(h^-1 x, h^-1 y)."""
    h = np.asarray(h, dtype=float)
    det = abs(np.linalg.det(h))
    if det <= singular_tolerance(h):
        raise SingularGauge(f"|det h| = {det:.3e} below tolerance")
    return BracketTensor(act_apply(h, mu.coeffs), antisymmetrize=True)


def pi_apply(a, c):
    """pi(A) on raw structure constants c; no validation, result not antisymmetrized.

    (pi(A)c)[i, j, k] = sum A[k, l] c[i, j, l] - A[l, i] c[l, j, k] - A[l, j] c[i, l, k],
    as (c A^T - A^T C1) - A^T c[i]: three products, on any c.  A stack of c
    (..., n, n, n) takes the stack of A (..., n, n) of the same leading axes; one c
    takes any stack of A.  The flows call neg_pi_apply, which needs two products on
    antisymmetric c.  The energy flow (strata) and derivation_matrix keep this
    association: the energy flow's labels follow its last bits, and given
    neg_pi_apply's association the bench's algebra labels failed on other ops of
    4 of seeds 1-10 (one more or one fewer each).
    """
    at = a.mT
    at_each = at[..., None, :, :]
    out = c @ at_each
    out -= (at @ c.reshape(c.shape[:-2] + (-1,))).reshape(out.shape)
    out -= at_each @ c
    return out


def neg_pi_apply(a, c, out=None):
    """-pi(A)c = (T2 - T2^T) - T1, T2 = A^T C1 and T1 = C2 A^T, into out if given.

    c (n, n, n), or a stack with A of the same leading axes, must be
    antisymmetric in its first two axes: then pi_apply's third product,
    A^T c[i], is -T2^T.  Where c is exactly so, the rows of T1 for (i, j) and
    (j, i) are exact negatives, and the result is exactly antisymmetric too.
    """
    n = c.shape[-1]
    at = a.mT
    t2 = (at @ c.reshape(c.shape[:-2] + (n * n,))).reshape(c.shape)
    out = np.subtract(t2, t2.swapaxes(-3, -2), out=out)
    out -= (c.reshape(c.shape[:-3] + (n * n, n)) @ at).reshape(c.shape)
    return out


def pi_action(a, mu):
    """Infinitesimal action (pi(A)mu)(x, y) = A mu(x,y) - mu(Ax,y) - mu(x,Ay)."""
    return BracketTensor(pi_apply(np.asarray(a, dtype=float), mu.coeffs))


def ad_map(mu, x):
    """Adjoint map ad(X): Y -> mu(X, Y) as an n x n matrix."""
    return np.einsum("i,ijk->kj", np.asarray(x, dtype=float), mu.coeffs)


def _pairwise_products(mu, basis_a, basis_b):
    """Vectors mu(a_i, b_j) for all columns of the two bases."""
    if basis_a.shape[1] == 0 or basis_b.shape[1] == 0:
        return np.zeros((0, mu.dim))
    prods = np.einsum("ia,jb,ijk->abk", basis_a, basis_b, mu.coeffs)
    return prods.reshape(-1, mu.dim)


def _span_floor(mu):
    """Absolute singular-value floor for rank decisions on product spans.

    Products of numerically-degenerate subspaces carry roundoff noise of
    order eps * ||mu||; a purely relative cut would promote it to rank.
    """
    return RANK_TOL * max(mu.norm, 1e-300)


def _descending_series(mu, central):
    """Orthonormal bases of g_0 = g, g_{i+1} = [left_i, g_i] until the series vanishes or stalls.

    The left factor is g_i itself for the derived series and all of g for the
    lower central series.
    """
    ensure_lie(mu)
    full = np.eye(mu.dim)
    series = [full]
    while series[-1].shape[1] > 0:
        basis = series[-1]
        left = full if central else basis
        series.append(orthonormal_basis(_pairwise_products(mu, left, basis), floor=_span_floor(mu)))
        if series[-1].shape[1] >= basis.shape[1]:
            break
    return series


def derived_series(mu):
    """Dimensions [n, dim g', dim g'', ...] until the series vanishes or stalls."""
    return [basis.shape[1] for basis in _descending_series(mu, central=False)]


def lower_central_series(mu):
    """Dimensions of the lower central series g >= [g,g] >= [g,[g,g]] >= ..."""
    return [basis.shape[1] for basis in _descending_series(mu, central=True)]


def is_solvable(mu):
    return derived_series(mu)[-1] == 0


def is_nilpotent(mu):
    return lower_central_series(mu)[-1] == 0


def is_nilpotent_matrix(a, floor=0.0):
    """Nilpotency test by the n-th power norm, robust for defective matrices.

    Matrices with norm at or below `floor` count as (roundoff) zero; without
    a floor the cubed-norm threshold underflows faster than cubed noise.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 2)
    if norm <= floor:
        return True
    return np.linalg.norm(np.linalg.matrix_power(a, a.shape[0]), 2) <= NILP_TOL * norm ** a.shape[0]


def root_energy_gram(mu, basis):
    """Gram matrix, on the columns of basis, of E(x) = sum of |eigenvalues of ad(x)|^2.

    For a solvable bracket the eigenvalues of ad(x) are values of fixed linear
    functionals (the roots), so E is an exact positive semidefinite quadratic
    form and its Gram follows by polarization.
    """

    def energy(x):
        return float(np.sum(np.abs(np.linalg.eigvals(ad_map(mu, x))) ** 2))

    r = basis.shape[1]
    diag = np.array([energy(basis[:, i]) for i in range(r)])
    gram = np.diag(diag)
    for i in range(r):
        for j in range(i + 1, r):
            q_sum = energy(basis[:, i] + basis[:, j])
            gram[i, j] = gram[j, i] = 0.5 * (q_sum - diag[i] - diag[j])
    return gram


def nilradical(mu):
    """Nilradical of a solvable bracket as {X : ad(X) nilpotent}.

    Returns (n_basis, a_basis, rank) where the columns of n_basis span the
    nilradical, a_basis spans the orthogonal complement, and rank = dim a.
    Solvability and [g, g] both come from one derived series.
    """
    return _nilradical_and_series(mu)[0]


def _nilradical_and_series(mu):
    """nilradical(mu) and the derived_series(mu) dimensions, from one derived series."""
    series = _descending_series(mu, central=False)
    if series[-1].shape[1]:
        raise NotSolvable("nilradical requires a solvable bracket; the derived series "
                          f"stalls at dimension {series[-1].shape[1]}")
    n = mu.dim
    derived = series[1]
    comp = null_space(derived.T) if derived.shape[1] else np.eye(n)
    if comp.shape[1]:
        w, v = np.linalg.eigh(root_energy_gram(mu, comp))
        scale = max(1.0, float(np.max(np.abs(w))))
        kernel = comp @ v[:, np.abs(w) <= NILP_TOL * scale]
    else:
        kernel = np.zeros((n, 0))
    n_basis = orthonormal_basis(np.hstack([derived, kernel]).T, floor=1e-10)
    ad_floor = 1e-12 * (1.0 + mu.norm)
    for i in range(n_basis.shape[1]):
        if not is_nilpotent_matrix(ad_map(mu, n_basis[:, i]), floor=ad_floor):
            raise NotSolvable("computed nilradical candidate has non-nilpotent ad")
    a_basis = null_space(n_basis.T) if n_basis.shape[1] else np.eye(n)
    # Ideal check: mu(g, n) must land back in n.
    if n_basis.shape[1]:
        prods = _pairwise_products(mu, np.eye(n), n_basis)
        resid = prods - (prods @ n_basis) @ n_basis.T
        if np.linalg.norm(resid) > RANK_TOL * (1.0 + mu.norm):
            raise NotSolvable("nilradical candidate is not an ideal")
    return (n_basis, a_basis, a_basis.shape[1]), [basis.shape[1] for basis in series]


def derivation_matrix(mu):
    """Matrix of A -> pi(A)mu from flattened gl(n) to flattened brackets.

    Column p n + q is pi(E_pq)mu: one pi_apply on the stack of the n^2 unit matrices.
    """
    n = mu.dim
    return pi_apply(np.eye(n * n).reshape(n * n, n, n), mu.coeffs).reshape(n * n, n**3).T


def derivation_space(mu):
    """Orthonormal basis of the derivation algebra {A : pi(A)mu = 0}.

    Returned as a list of n x n matrices; every element satisfies
    ||pi(A)mu|| <= RANK_TOL relative to the operator scale.
    """
    n = mu.dim
    if mu.is_zero:
        # Every endomorphism derives the zero bracket: the basis E_pq, p n + q order.
        return list(np.eye(n * n).reshape(n * n, n, n))
    ker = null_space(derivation_matrix(mu), RANK_TOL)
    return [ker[:, i].reshape(n, n) for i in range(ker.shape[1])]


def _wire_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def report_to_dict(report):
    """Wire format of a report dataclass: the fields shown in its repr, with arrays
    and tuples written as lists and enums as their values."""
    return {f.name: _wire_value(getattr(report, f.name)) for f in fields(report) if f.repr}


def bracket_to_dict(mu):
    """Wire format: 1-based entries with i < j and |v| above the floor."""
    entries = []
    c = mu.coeffs
    n = mu.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = c[i, j, k]
                if abs(v) > JSON_COEFF_FLOOR:
                    entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "v": v})
    return {"dim": n, "entries": entries}


# The values each wire type takes; a bool is no number, and nothing is parsed
# or truncated.
_WIRE_TYPES = {int: numbers.Integral, float: numbers.Real, list: list}


def _field(obj, key, kind, where):
    """kind(obj[key]), or a ValueError naming the field when it is missing or ill-typed."""
    try:
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, _WIRE_TYPES[kind]):
            raise TypeError
        return kind(value)
    except (KeyError, TypeError, OverflowError):
        raise ValueError(f"{where}: missing or ill-typed field {key!r} ({kind.__name__})") from None


def bracket_from_dict(data):
    """Inverse of bracket_to_dict; a missing or ill-typed field raises ValueError."""
    dim = _field(data, "dim", int, "bracket")
    entries = []
    for n, e in enumerate(_field(data, "entries", list, "bracket"), 1):
        where = f"entry {n}"
        entries.append(tuple(_field(e, key, kind, where) for key, kind in
                             (("i", int), ("j", int), ("k", int), ("v", float))))
    return BracketTensor.from_entries(dim, entries)


def save_bracket(path, mu):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bracket_to_dict(mu), fh, indent=2)
        fh.write("\n")


def load_bracket(path):
    with open(path, encoding="utf-8") as fh:
        return bracket_from_dict(json.load(fh))
