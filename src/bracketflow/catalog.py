"""Catalog of named solvable brackets and random solvable bracket generation.

The three-dimensional families are encoded by the action of e1 on the
abelian ideal spanned by {e2, e3}:

  h3              [[0,0],[1,0]]      nilpotent (Heisenberg)
  s3              [[1,0],[1,1]]      real type
  s3_lambda       [[1,0],[0,L]]      -1 <= L <= 1, real type, solvsoliton
  s3_lambda_prime [[L,1],[-1,L]]     L > 0, real type, Einstein
  e2              [[0,1],[-1,0]]     imaginary type, flat

Higher-dimensional entries: heisenberg (odd dim >= 3) and abelian (any dim).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .brackets import BracketTensor, act, bracket_to_dict, derivation_space
from .errors import ParamOutOfRange, UnknownName


@dataclass
class CatalogEntry:
    name: str
    dim: int
    bracket: BracketTensor
    expected: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "dim": self.dim,
            "bracket": bracket_to_dict(self.bracket),
            "expected": self.expected,
        }


def almost_abelian(ad_matrix):
    """Bracket with abelian ideal span{e2..en} and ad(e1) acting as given."""
    t = np.asarray(ad_matrix, dtype=float)
    m = t.shape[0]
    n = m + 1
    c = np.zeros((n, n, n))
    for j in range(m):
        for k in range(m):
            if t[k, j] != 0.0:
                c[0, 1 + j, 1 + k] = t[k, j]
                c[1 + j, 0, 1 + k] = -t[k, j]
    return BracketTensor(c)


def heisenberg_bracket(dim):
    if dim < 3 or dim % 2 == 0:
        raise ParamOutOfRange("Heisenberg dimension must be odd and >= 3")
    pairs = (dim - 1) // 2
    entries = [(2 * i + 1, 2 * i + 2, dim, 1.0) for i in range(pairs)]
    return BracketTensor.from_entries(dim, entries)


def catalog(name, lam=None, dim=None):
    """Look up a named bracket; `lam` and `dim` parameterize some families."""
    key = name.lower().replace("-", "_").replace(",", "_").replace("'", "_prime")
    if key == "h3":
        return CatalogEntry(
            "h3", 3, almost_abelian([[0.0, 0.0], [1.0, 0.0]]),
            {"type": "Nilpotent", "flat": False, "soliton": "NontrivialSoliton"},
        )
    if key == "s3":
        return CatalogEntry(
            "s3", 3, almost_abelian([[1.0, 0.0], [1.0, 1.0]]),
            {"type": "RealType", "flat": False, "soliton": "NotSoliton"},
        )
    if key in ("s3_lambda", "s3_lam", "s3l"):
        if lam is None:
            raise ParamOutOfRange("s3_lambda requires a lambda parameter")
        if not -1.0 <= lam <= 1.0:
            raise ParamOutOfRange(f"s3_lambda requires -1 <= lambda <= 1, got {lam}")
        return CatalogEntry(
            f"s3_lambda({lam})", 3, almost_abelian([[1.0, 0.0], [0.0, lam]]),
            {
                "type": "RealType",
                "flat": False,
                "soliton": "Einstein" if lam == 1.0 else "NontrivialSoliton",
            },
        )
    if key in ("s3_lambda_prime", "s3_lam_prime", "s3lp"):
        if lam is None:
            raise ParamOutOfRange("s3_lambda_prime requires a lambda parameter")
        if not lam > 0.0:
            raise ParamOutOfRange(f"s3_lambda_prime requires lambda > 0, got {lam}")
        return CatalogEntry(
            f"s3_lambda_prime({lam})", 3,
            almost_abelian([[lam, 1.0], [-1.0, lam]]),
            {"type": "RealType", "flat": False, "soliton": "Einstein"},
        )
    if key in ("e2", "e_2"):
        return CatalogEntry(
            "e2", 3, almost_abelian([[0.0, 1.0], [-1.0, 0.0]]),
            {"type": "ImaginaryType", "flat": True, "soliton": None},
        )
    if key == "heisenberg":
        d = 3 if dim is None else int(dim)
        return CatalogEntry(
            f"heisenberg({d})", d, heisenberg_bracket(d),
            {"type": "Nilpotent", "flat": False, "soliton": "NontrivialSoliton"},
        )
    if key == "abelian":
        d = 3 if dim is None else int(dim)
        if d < 1:
            raise ParamOutOfRange("abelian dimension must be positive")
        return CatalogEntry(
            f"abelian({d})", d, BracketTensor.zero(d),
            {"type": "Abelian", "flat": True, "soliton": None},
        )
    raise UnknownName(f"no catalog entry named {name!r}")


def random_two_step_nilpotent(rng, dim, base_dim=None):
    """Random two-step nilpotent bracket: [W, W] <= Z central, W + Z = R^n."""
    if base_dim is None:
        base_dim = max(2, dim - rng.integers(1, max(2, dim - 1)))
    base_dim = min(max(base_dim, 2), dim - 1)
    c = np.zeros((dim, dim, dim))
    for i in range(base_dim):
        for j in range(i + 1, base_dim):
            for k in range(base_dim, dim):
                v = rng.standard_normal()
                c[i, j, k] = v
                c[j, i, k] = -v
    return BracketTensor(c)


def random_solvable_bracket(rng, dim):
    """Random solvable Lie bracket of the given dimension.

    Built as a rank-one extension of a random nilpotent (abelian or two-step)
    ideal by a random derivation, then moved by a random change of basis.
    The Jacobi identity holds by construction.
    """
    if dim < 2:
        raise ParamOutOfRange("random solvable brackets need dim >= 2")
    m = dim - 1
    style = rng.integers(0, 3)
    if style == 0 or m < 3:
        nil = BracketTensor.zero(m)
        grading = np.eye(m)
    else:
        base = int(rng.integers(2, m))
        nil = random_two_step_nilpotent(rng, m, base_dim=base)
        # Dilation weights 1 on the base, 2 on the center: a derivation of
        # every two-step bracket with this splitting.
        grading = np.diag([1.0] * base + [2.0] * (m - base))
    ders = derivation_space(nil)
    weights = rng.standard_normal(len(ders))
    d = sum(w * a for w, a in zip(weights, ders))
    d = d / max(np.linalg.norm(d), 1e-12)
    if style == 2:
        # Bias toward nontrivial real part on the abelian quotient.
        d = d + 0.5 * grading
    c = np.zeros((dim, dim, dim))
    c[1:, 1:, 1:] = nil.coeffs
    for j in range(m):
        for k in range(m):
            if d[k, j] != 0.0:
                c[0, 1 + j, 1 + k] += d[k, j]
                c[1 + j, 0, 1 + k] -= d[k, j]
    mu = BracketTensor(c)
    h = sla.expm(0.3 * rng.standard_normal((dim, dim)))
    return act(h, mu)
