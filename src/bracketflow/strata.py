"""Stratum labels via the moment-map energy flow, and the beta-adapted splittings.

The label of a bracket is the sorted spectrum beta of the moment map at the
limit of the negative gradient flow of ||m||^2; it indexes the stratum of
the change-of-basis orbit.  The flow is projected gradient descent on a
sphere with Armijo backtracking, whose step sizes are tried as a ladder:
LADDER halvings of the step are evaluated as one (LADDER, n, n, n) stack by
the stacked kernel and tested in halving order, so an iteration costs about
one kernel call and its iterate has the bits of one-at-a-time backtracking.
From a canonical (diagonal, ascending) beta we build the centralizer
g_beta, the positive eigenspace u_beta of ad(beta), the projection onto
q_beta = g_beta + u_beta along {A - A^t : A in u_beta}, and the eigenspace
grading of the bracket space under pi(beta + |beta|^2 I).
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .brackets import BracketTensor, act, pi_apply, report_to_dict
from .curvature import coeff_moment, moment_map_fast
from .errors import MaxStepsExceeded, NonCanonicalBeta, OutOfRange, ZeroBracket
from .linalg import orthonormal_basis

CRIT_TOL = 1e-9
MAX_FLOW_STEPS = 10**6
EIG_TOL = 1e-6
LABEL_TOL = 1e-6
GAUGE_TOL = 1e-8
_ARMIJO_C1 = 1e-4
STEP_FLOOR = 1e-18
# Step sizes per kernel call of the energy flow's backtracking.  On seeded
# n = 3-9 draws an accepted iteration takes 1.97 trials on average, and 3 or
# fewer in 98 % of iterations.  Labelling such a batch costs about the same
# with ladders of 2 and 3, and more with 4 or 5 (the unused trials).
LADDER = 3
_HALVINGS = 0.5 ** np.arange(LADDER)
_EPS8 = float(8.0 * np.finfo(float).eps)
_EPS4 = float(4.0 * np.finfo(float).eps)


def _criticality_direction(c):
    """Energies ||m||^2, sphere-tangential parts of pi(m)c, their norms, and ||c||^2.

    c is a stack (B, n, n, n) of raw coefficient arrays; every result has one
    entry per slice, with the bits of the one-state formulas (the stacked
    kernels and row sums give each slice the bits of its own call).  The
    tangent vanishes exactly at critical points.  pi(m)c is antisymmetrized,
    or its round-off asymmetry grows along the flow.  Sums of products are
    pairwise sums, as in BracketTensor, and norms are sqrt of a dot product,
    as np.linalg.norm takes them, so the iterates keep the round-off of the
    tensor-level flow.
    """
    flat = c.reshape(len(c), -1)
    norm_sq = (flat * flat).sum(axis=1)
    m = 4.0 * coeff_moment(c) / norm_sq[:, None, None]
    g = pi_apply(m, c)
    g = 0.5 * (g - g.swapaxes(1, 2))
    radial = (g.reshape(flat.shape) * flat).sum(axis=1) / norm_sq
    tangent = g - radial[:, None, None, None] * c
    t = tangent.reshape(flat.shape)
    energy = (m * m).reshape(len(c), -1).sum(axis=1)
    return energy.tolist(), tangent, np.sqrt(np.vecdot(t, t)).tolist(), norm_sq.tolist()


def _backtrack(c, tangent, step, radius, energy, resid, slope):
    """Armijo backtracking from c along -tangent, trying step, step/2, ... on the sphere.

    Each ladder of LADDER step sizes is normalized and evaluated as one stack,
    then tested in halving order.  Near a degenerate critical point the
    predicted energy decrease per step is of order residual^2 and falls below
    machine epsilon; in that regime a trial is accepted on a measurable
    residual decrease instead.  Returns ((trial, tangent, energy, residual,
    ||trial||^2), 2 * its step) for the first trial accepted, or (None, step)
    once the step falls to STEP_FLOOR.
    """
    scale = max(energy, 1.0)
    while True:
        steps = step * _HALVINGS
        trials = c - steps[:, None, None, None] * tangent
        flat = trials.reshape(LADDER, -1)
        trials *= (radius / np.sqrt(np.vecdot(flat, flat)))[:, None, None, None]
        energies, tangents, resids, norms_sq = _criticality_direction(trials)
        for i, step in enumerate(steps.tolist()):
            if step <= STEP_FLOOR:
                return None, step
            decrease = _ARMIJO_C1 * step * slope
            if energies[i] <= energy - decrease or (
                decrease < _EPS8 * scale
                and energies[i] <= energy + _EPS4 * scale
                and resids[i] <= resid * (1.0 - 1e-7)
            ):
                return (trials[i], tangents[i], energies[i], resids[i], norms_sq[i]), 2.0 * step
        step *= 0.5


def energy_gradient_flow(mu0, crit_tol=CRIT_TOL, max_steps=MAX_FLOW_STEPS, history=None):
    """Run the negative gradient flow of the moment-map energy from mu0.

    Steps are projected gradient descent on the sphere ||mu|| = ||mu0|| with
    Armijo backtracking; the energy ||m||^2 is scale invariant, so the sphere
    restriction loses nothing.  Returns (limit bracket, criticality residual).
    A list passed as `history` collects the energy after every accepted step.
    The iterations step the raw coefficients; the limit is the one bracket
    built, for the return value or MaxStepsExceeded.result.

    Backtracking tries its step sizes as a ladder: step, step/2 and step/4
    are evaluated as one stack and tested in that order, and the first that
    passes is accepted, so every iterate has the bits of trying one step size
    at a time.  The step doubles after an acceptance; when a whole ladder
    fails, the next starts at half its smallest step.  MaxStepsExceeded names
    its stop: the max_steps budget, or a stall, where no step size above
    STEP_FLOOR is accepted.  max_steps must be an integer >= 0 and crit_tol
    finite and >= 0, else OutOfRange (TypeError for a non-integer max_steps).
    """
    if mu0.is_zero:
        raise ZeroBracket("the energy flow needs a nonzero starting bracket")
    if operator.index(max_steps) < 0:
        raise OutOfRange(f"max_steps = {max_steps} must be >= 0")
    if not (math.isfinite(crit_tol) and crit_tol >= 0.0):
        raise OutOfRange(f"crit_tol = {crit_tol} must be finite and >= 0")
    radius = mu0.norm
    c = mu0.coeffs
    (energy,), (tangent,), (resid,), (norm_sq,) = _criticality_direction(c[None])
    if history is not None:
        history.append(energy)
    step = 0.1 / max(1.0, energy)
    iters = 0
    stalled = False
    while resid > crit_tol and iters < max_steps:
        slope = 4.0 * resid**2 / norm_sq
        accepted, step = _backtrack(c, tangent, step, radius, energy, resid, slope)
        if accepted is None:
            stalled = True
            break
        c, tangent, energy, resid, norm_sq = accepted
        if history is not None:
            history.append(energy)
        iters += 1
    mu = BracketTensor(c)
    if resid <= crit_tol:
        return mu, resid
    if stalled:
        why = f"energy flow stalled after {iters} iterations: no step above {STEP_FLOOR:g} accepted"
    else:
        why = f"energy flow used its max_steps = {max_steps} iterations"
    raise MaxStepsExceeded(
        f"{why}; residual {resid:.3e} > crit_tol = {crit_tol:.3e}", result=mu, residual=resid
    )


@dataclass
class StratumLabel:
    """Canonical stratum data: diagonal beta with ascending eigenvalues."""

    eigenvalues: np.ndarray
    critical_bracket: BracketTensor
    residual: float
    ad_spectrum: list = field(default_factory=list)
    v_spectrum: list = field(default_factory=list)

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def beta(self):
        return np.diag(self.eigenvalues)

    @property
    def norm_sq(self):
        return float(np.sum(self.eigenvalues**2))

    @property
    def beta_plus(self):
        return np.diag(self.eigenvalues + self.norm_sq)

    @property
    def v_weights(self):
        """pi(beta+) eigenvalue bp[k] - bp[i] - bp[j] of each basis bracket entry [i, j, k]."""
        bp = self.eigenvalues + self.norm_sq
        return bp[None, None, :] - bp[:, None, None] - bp[None, :, None]

    def to_dict(self):
        return {
            "beta_eigenvalues": self.eigenvalues.tolist(),
            "beta_norm_sq": self.norm_sq,
            "residual": self.residual,
            "ad_spectrum": [[v, m] for v, m in self.ad_spectrum],
            "v_spectrum": [[v, m] for v, m in self.v_spectrum],
            "label_tol": LABEL_TOL,
        }


def label_from_beta(eigenvalues, critical_bracket=None, residual=0.0):
    """Build a StratumLabel from known (sorted ascending) beta eigenvalues."""
    b = np.sort(np.asarray(eigenvalues, dtype=float))
    n = b.size
    if critical_bracket is None:
        critical_bracket = BracketTensor.zero(n)
    label = StratumLabel(b, critical_bracket, float(residual))
    # Each spectrum lists (smallest value, multiplicity) per _gap_clusters cluster.
    i, j = np.triu_indices(n, 1)
    label.ad_spectrum, label.v_spectrum = (
        [(float(cl[0]), cl.size) for cl in _gap_clusters(values)]
        for values in ((b[:, None] - b[None, :]).ravel(), label.v_weights[i, j].ravel())
    )
    return label


def _gap_clusters(values, tol=EIG_TOL):
    """The sorted values, split wherever two neighbours are more than tol apart."""
    w = np.sort(np.asarray(values, dtype=float))
    return np.split(w, np.flatnonzero(np.diff(w) > tol) + 1) if w.size else []


def _cluster_snap(values, tol=EIG_TOL):
    """Replace eigenvalue clusters (within tol) by their means."""
    return np.concatenate([np.full(cl.size, np.mean(cl)) for cl in _gap_clusters(values, tol)])


def stratum_label(mu0, crit_tol=CRIT_TOL, max_steps=MAX_FLOW_STEPS):
    """Stratum label of mu0: run the energy flow, then canonicalize.

    The moment map at the limit is conjugated to sorted-diagonal form by an
    orthogonal change of basis, which is applied to the limit bracket as
    well.  Eigenvalues closer than the clustering tolerance are snapped to
    their cluster mean, so nearly-degenerate labels come out exact.
    """
    mu_c, resid = energy_gradient_flow(mu0, crit_tol, max_steps)
    m = moment_map_fast(mu_c)
    w, v = np.linalg.eigh(m)
    canonical = act(v.T, mu_c)
    return label_from_beta(_cluster_snap(w), canonical, resid)


def same_label(label_a, label_b):
    if label_a.dim != label_b.dim:
        return False
    return bool(np.all(np.abs(label_a.eigenvalues - label_b.eigenvalues) <= LABEL_TOL))


def _require_canonical(label):
    b = label.eigenvalues
    if np.any(np.diff(b) < -EIG_TOL):
        raise NonCanonicalBeta("beta eigenvalues must be sorted ascending")


@dataclass
class BetaDecomposition:
    """Splittings of gl(s) and the bracket space adapted to a canonical beta."""

    label: StratumLabel
    mask_g: np.ndarray
    mask_u: np.ndarray
    mask_ut: np.ndarray
    g_basis: list
    u_basis: list
    k_u_basis: list
    k_beta_basis: list
    h_basis: list
    sl_basis: list
    v_weights: np.ndarray
    v_levels: list
    q_masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Float copies of (mask_g | mask_u, mask_ut), cast once for project_qbeta.
        self.q_masks = ((self.mask_g | self.mask_u).astype(float), self.mask_ut.astype(float))

    @property
    def dim(self):
        return self.label.dim


def beta_decomposition(label):
    """Build g_beta, u_beta, k_{u_beta}, k_beta, h_beta, sl_beta and the V-grading."""
    _require_canonical(label)
    b = label.eigenvalues
    n = b.size
    gaps = b[:, None] - b[None, :]
    mask_g = np.abs(gaps) <= EIG_TOL
    mask_u = gaps > EIG_TOL
    mask_ut = gaps < -EIG_TOL

    # Row k of units is E_ij with k = i n + j, so boolean rows keep row-major order.
    units = np.eye(n * n).reshape(n * n, n, n)
    u = units[mask_u.ravel()]
    g_offdiag = units[(mask_g & ~np.eye(n, dtype=bool)).ravel()]
    # k_beta = so(n) intersect g_beta
    g_upper = units[np.triu(mask_g, 1).ravel()]

    def skew(e):
        return list((e - np.swapaxes(e, 1, 2)) / np.sqrt(2.0))

    # Diagonal part of h_beta: diagonals orthogonal to beta (tr beta = -1 != 0).
    diag_complement = orthonormal_basis(
        (np.eye(n) - np.outer(b, b) / float(b @ b)).T
    )
    h_basis = list(g_offdiag) + [np.diag(col) for col in diag_complement.T]

    v_weights = label.v_weights
    # Cluster the weights into eigenvalue levels; clusters are > EIG_TOL apart.
    eps = EIG_TOL / 4.0
    levels = [
        (float(np.mean(cl)), (v_weights >= cl[0] - eps) & (v_weights <= cl[-1] + eps))
        for cl in _gap_clusters(v_weights.ravel())
    ]
    return BetaDecomposition(
        label=label,
        mask_g=mask_g,
        mask_u=mask_u,
        mask_ut=mask_ut,
        g_basis=list(units[mask_g.ravel()]),
        u_basis=list(u),
        k_u_basis=skew(u),
        k_beta_basis=skew(g_upper),
        h_basis=h_basis,
        sl_basis=h_basis + list(u),
        v_weights=v_weights,
        v_levels=levels,
    )


def project_qbeta(a, dec):
    """Projection onto q_beta = g_beta + u_beta along {A - A^t : A in u_beta}.

    For symmetric input this is A_g + 2 A_u, with norm between ||A|| and 2||A||.
    A stack (..., n, n) is projected slice by slice.
    """
    a = np.asarray(a, dtype=float)
    gu, ut = dec.q_masks
    return a * gu + (a * ut).mT


@dataclass
class GaugeCheck:
    in_nonneg: bool
    v0_norm: float
    neg_norm: float

    to_dict = report_to_dict


def check_gauged(mu, label):
    """Decompose mu under the pi(beta+) grading and test V_{>=0} membership."""
    _require_canonical(label)
    w = label.v_weights
    c = mu.coeffs
    neg = np.where(w < -EIG_TOL, c, 0.0)
    zero = np.where(np.abs(w) <= EIG_TOL, c, 0.0)
    neg_norm = float(np.linalg.norm(neg))
    v0_norm = float(np.linalg.norm(zero))
    return GaugeCheck(neg_norm <= GAUGE_TOL * max(mu.norm, 1e-300), v0_norm, neg_norm)
