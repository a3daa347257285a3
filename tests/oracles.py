"""Test oracles: slow, loop-by-loop definitions the package is checked against.

None of these is part of the package.  Each spells out its quantity one
index, basis element or matrix entry at a time:
- `pi_matrix`: the dense n^6 matrix of pi(A) on flattened brackets;
- `oracle_ricci`: Ricci from the Koszul formula, independent of the
  moment-map / Killing-form route;
- `moment_map`: m(mu) paired against the symmetric basis one entry at a time;
- `delta_apply`: delta(A) = -pi(A)mu through a BracketTensor;
- `null_space_full_svd`: the kernel from the full SVD, left factor included;
- `p_matrix_loop`, `ad_beta_plus_loop`, `l_matrix_loop`: the linearization
  operators on the sl_beta basis, one basis element or tangent column at a
  time;
- `p_group_path_fd`, `flow_field_fd`: P and L from their definitions by
  central differences, P along the group path exp(tA).mu one sl_beta element
  at a time, L along one tangent column at a time;
- `energy_gradient_flow_tensor`: the moment-map energy flow stepping
  BracketTensors, one per trial and one per pi(m)mu;
- `beta_decomposition_loop`: the beta-adapted bases built E_ij by E_ij in a
  double loop;
- `clustered_from_first`: spectra clustered within EIG_TOL of each cluster's
  first value, the rule before the gap rule of `strata._gap_clusters`;
- `gauge_paths_loop`: a run's gauges rebuilt sample to sample by scipy's
  `solve_ivp` of the joint system, restarted at each recorded bracket;
- `field_reference`: the flow's stage as composed before the field kernel
  `flows._field` and the gauges' `flows._gauge_coefficients`, which must give
  the bits of its A and R: all of `coeff_parts`, the q_beta projection by the
  three beta masks, A and R with ||Ric*||^2 Id added on copies, then
  -pi_apply, which `_field`'s two-product slopes match within a rounding bound;

The test-only helpers `random_antisymmetric_bracket`, `random_orthogonal`,
`scalstar_first_variation` and `grading_components` live here too, and so do
the property-test draws: the hypothesis settings `PROPERTY`, the strategies
`SEED` and `DIM` (n = 2 to DIM_CAP), and `lie_bracket` and `draw_bracket`.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bracketflow.brackets import DIM_CAP, BracketTensor, act, ensure_lie, pi_action, pi_apply
from bracketflow.catalog import almost_abelian, random_solvable_bracket, random_two_step_nilpotent
from bracketflow.curvature import coeff_parts, killing_matrix, moment_map_fast, ricci_star
from bracketflow.errors import MaxStepsExceeded, SingularGauge, ZeroBracket
from bracketflow.flows import Variant, flow_field
from bracketflow.linalg import RANK_TOL, orthonormal_basis
from bracketflow.linearize import delta_matrix
from bracketflow.strata import (
    _ARMIJO_C1,
    CRIT_TOL,
    EIG_TOL,
    MAX_FLOW_STEPS,
    BetaDecomposition,
    _gap_clusters,
    _require_canonical,
    project_qbeta,
)


def pi_matrix(a, dim):
    """Matrix of pi(A) acting on flattened (n^3) bracket tensors."""
    a = np.asarray(a, dtype=float)
    eye = np.eye(dim)
    term1 = np.einsum("ia,jb,kc->ijkabc", eye, eye, a)
    term2 = np.einsum("ai,jb,kc->ijkabc", a, eye, eye)
    term3 = np.einsum("ia,bj,kc->ijkabc", eye, a, eye)
    return (term1 - term2 - term3).reshape(dim**3, dim**3)


def oracle_ricci(mu):
    """Ricci endomorphism from the Koszul formula; used only as a test oracle.

    Builds the Levi-Civita connection coefficients
    Gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2 on the orthonormal
    basis and contracts the curvature tensor directly, independently of the
    moment-map / Killing-form route.
    """
    if mu.is_zero:
        return np.zeros((mu.dim, mu.dim))
    ensure_lie(mu)
    c = mu.coeffs
    # transpose axes chosen so gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2
    gamma = 0.5 * (c - np.transpose(c, (2, 0, 1)) + np.transpose(c, (1, 2, 0)))
    term1 = np.einsum("bcm,ama->bc", gamma, gamma)
    term2 = np.einsum("acm,bma->bc", gamma, gamma)
    term3 = np.einsum("abm,mca->bc", c, gamma)
    ric = term1 - term2 - term3
    asym = np.max(np.abs(ric - ric.T))
    if asym > 1e-9 * (1.0 + mu.norm_sq):
        raise AssertionError(f"Koszul Ricci came out asymmetric by {asym:.3e}")
    return 0.5 * (ric + ric.T)


def moment_map(mu):
    """Normalized moment map m(mu), defined against the symmetric basis.

    <m(mu), A> = <pi(A)mu, mu> / ||mu||^2 for every symmetric A; trace -1,
    invariant under scaling of mu, and O(n)-equivariant.
    """
    if mu.is_zero:
        raise ZeroBracket("moment map is undefined at the zero bracket")
    n = mu.dim
    nsq = mu.norm_sq
    m = np.zeros((n, n))
    e = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            e[a, b] += 1.0
            e[b, a] += 1.0
            pairing = pi_action(e, mu).inner(mu) / nsq
            e[a, b] = e[b, a] = 0.0
            if a == b:
                m[a, a] = 0.5 * pairing
            else:
                m[a, b] = m[b, a] = 0.5 * pairing
    return m


def delta_apply(mu, a):
    return -pi_action(a, mu).coeffs


def null_space_full_svd(mat, rtol=RANK_TOL, floor=0.0):
    """Kernel of `mat` from the rows of the full `vt` past the numerical rank."""
    _, s, vt = np.linalg.svd(np.asarray(mat, dtype=float), full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > max(rtol * smax, floor))) if smax > 0 else 0
    return vt[rank:].T


def _sym(a):
    return 0.5 * (a + a.T)


def p_matrix_loop(mu, dec):
    """P on the orthonormal sl_beta basis, entry <b_i, P(b_j)> by entry."""
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
    for j, a in enumerate(basis):
        pa = apply_p(a, in_u=j >= n_h)
        for i, b in enumerate(basis):
            mat[i, j] = float(np.sum(b * pa))
    return mat


def ad_beta_plus_loop(dec):
    """ad(beta+) on the sl_beta basis, entry <b_i, [beta+, b_j]> by entry."""
    basis = dec.sl_basis
    bp = dec.label.beta_plus
    m = len(basis)
    out = np.zeros((m, m))
    for j, a in enumerate(basis):
        comm = bp @ a - a @ bp
        for i, b in enumerate(basis):
            out[i, j] = float(np.sum(b * comm))
    return out


def l_matrix_loop(mu, dec, tangent):
    """L on the orthonormal tangent columns, one column at a time.

    Each column's preimage A in sl_beta (delta(A) = column) is found by least
    squares; then L(pi(A)mu) = -pi(P(A) + [beta+, A])mu, with A flipped in sign
    so that pi(A)mu is the column itself.
    """
    n = mu.dim
    basis = dec.sl_basis
    p_mat = p_matrix_loop(mu, dec)
    bp = dec.label.beta_plus
    dmat = delta_matrix(mu)
    dsl = np.column_stack([dmat @ b.ravel() for b in basis])
    l_mat = np.zeros((tangent.shape[1], tangent.shape[1]))
    for j in range(tangent.shape[1]):
        coeffs = np.linalg.lstsq(dsl, tangent[:, j], rcond=None)[0]
        a = -sum(c * b for c, b in zip(coeffs, basis))
        coeffs = np.array([float(np.sum(b * a)) for b in basis])
        pa = sum(c * img for c, img in zip(p_mat @ coeffs, basis))
        lv = -pi_action(pa + (bp @ a - a @ bp), mu).coeffs.ravel()
        l_mat[:, j] = tangent.T @ lv
    return l_mat


def p_group_path_fd(mu, dec, step=1e-6):
    """P(A) for each sl_beta element A, as the central difference at `step` of the
    q_beta-projected Ric* along the group path exp(tA).mu; a stack (m, n, n)."""
    out = []
    for a in dec.sl_basis:
        plus = project_qbeta(ricci_star(act(expm(step * a), mu)), dec)
        minus = project_qbeta(ricci_star(act(expm(-step * a), mu)), dec)
        out.append((plus - minus) / (2.0 * step))
    return np.array(out)


def flow_field_fd(mu, dec, tangent, step=1e-5):
    """L on each tangent column v, as the central difference at `step` of the scalstar
    flow field along mu + tv; the columns (n^3, r)."""
    cols = np.zeros(tangent.shape)
    for j in range(tangent.shape[1]):
        v = tangent[:, j].reshape(mu.coeffs.shape)
        fp = flow_field(mu.coeffs + step * v, Variant.SCALSTAR, dec)
        fm = flow_field(mu.coeffs - step * v, Variant.SCALSTAR, dec)
        cols[:, j] = ((fp - fm) / (2.0 * step)).ravel()
    return cols


def criticality_direction_tensor(mu):
    """Sphere-tangential part of pi(m(mu))mu; vanishes exactly at critical points."""
    m = moment_map_fast(mu)
    g = pi_action(m, mu)
    radial = g.inner(mu) / mu.norm_sq
    tangent = g.coeffs - radial * mu.coeffs
    return m, tangent, float(np.linalg.norm(tangent))


def energy_gradient_flow_tensor(mu0, crit_tol=CRIT_TOL, max_steps=MAX_FLOW_STEPS, history=None):
    """Run the negative gradient flow of the moment-map energy from mu0.

    Steps are projected gradient descent on the sphere ||mu|| = ||mu0|| with
    Armijo backtracking; the energy ||m||^2 is scale invariant, so the sphere
    restriction loses nothing.  Returns (limit bracket, criticality residual).
    A list passed as `history` collects the energy after every accepted step.
    """
    if mu0.is_zero:
        raise ZeroBracket("the energy flow needs a nonzero starting bracket")
    radius = mu0.norm
    coeffs = mu0.coeffs.copy()
    mu = BracketTensor(coeffs)
    m, tangent, resid = criticality_direction_tensor(mu)
    energy = float(np.sum(m * m))
    if history is not None:
        history.append(energy)
    step = 0.1 / max(1.0, energy)
    for _ in range(max_steps):
        if resid <= crit_tol:
            return mu, resid
        # Armijo backtracking along the negative sphere gradient.  Near a
        # degenerate critical point the predicted energy decrease per step is
        # of order residual^2 and falls below machine epsilon; in that regime
        # accept on a measurable residual decrease instead.
        slope = 4.0 * resid**2 / mu.norm_sq
        accepted = False
        while step > 1e-18:
            trial_c = mu.coeffs - step * tangent
            trial_c *= radius / np.linalg.norm(trial_c)
            trial = BracketTensor(trial_c)
            m_t, tangent_t, resid_t = criticality_direction_tensor(trial)
            energy_t = float(np.sum(m_t * m_t))
            decrease = _ARMIJO_C1 * step * slope
            roundoff_regime = decrease < 8.0 * np.finfo(float).eps * max(energy, 1.0)
            ok = energy_t <= energy - decrease or (
                roundoff_regime
                and energy_t <= energy + 4.0 * np.finfo(float).eps * max(energy, 1.0)
                and resid_t <= resid * (1.0 - 1e-7)
            )
            if ok:
                mu, m, tangent, resid, energy = trial, m_t, tangent_t, resid_t, energy_t
                if history is not None:
                    history.append(energy)
                step *= 2.0
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    if resid <= crit_tol:
        return mu, resid
    raise MaxStepsExceeded(
        f"energy flow stalled at residual {resid:.3e}", result=mu, residual=resid
    )


def clustered_from_first(values, tol=EIG_TOL):
    """(first value, count) groups of the sorted values, each within tol of its first."""
    out = []
    for v in np.sort(values):
        if out and abs(v - out[-1][0]) <= tol:
            out[-1][1] += 1
        else:
            out.append([float(v), 1])
    return [(v, m) for v, m in out]


def beta_decomposition_loop(label):
    """Build g_beta, u_beta, k_{u_beta}, k_beta, h_beta, sl_beta and the V-grading."""
    _require_canonical(label)
    b = label.eigenvalues
    n = b.size
    gaps = b[:, None] - b[None, :]
    mask_g = np.abs(gaps) <= EIG_TOL
    mask_u = gaps > EIG_TOL
    mask_ut = gaps < -EIG_TOL

    def unit(i, j):
        e = np.zeros((n, n))
        e[i, j] = 1.0
        return e

    g_basis, u_basis, k_u_basis, k_beta_basis = [], [], [], []
    offdiag_g = []
    for i in range(n):
        for j in range(n):
            if mask_u[i, j]:
                u_basis.append(unit(i, j))
                k_u_basis.append((unit(i, j) - unit(j, i)) / np.sqrt(2.0))
            elif mask_g[i, j]:
                g_basis.append(unit(i, j))
                if i != j:
                    offdiag_g.append(unit(i, j))
                if i < j:
                    # k_beta = so(n) intersect g_beta
                    k_beta_basis.append((unit(i, j) - unit(j, i)) / np.sqrt(2.0))
    # Diagonal part of h_beta: diagonals orthogonal to beta (tr beta = -1 != 0).
    diag_complement = orthonormal_basis(
        (np.eye(n) - np.outer(b, b) / float(b @ b)).T
    )
    h_basis = list(offdiag_g)
    for i in range(diag_complement.shape[1]):
        h_basis.append(np.diag(diag_complement[:, i]))
    sl_basis = h_basis + u_basis

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
        g_basis=g_basis,
        u_basis=u_basis,
        k_u_basis=k_u_basis,
        k_beta_basis=k_beta_basis,
        h_basis=h_basis,
        sl_basis=sl_basis,
        v_weights=v_weights,
        v_levels=levels,
    )


def _plus_identity(m, s):
    """m + s Id on a copy of m (n, n), or of a stack (B, n, n) with s (B,)."""
    out = m.copy()
    n = m.shape[-1]
    if m.ndim == 2:
        out.flat[:: n + 1] += s
    else:
        out.reshape(len(m), n * n)[:, :: n + 1] += s[:, None]
    return out


def field_reference(c, variant, dec, gauged=False):
    """(dc/dt, A, R) at raw coefficients c (n, n, n), or a stack, composed stage by stage.

    A = Ric (raw), (Ric*)_{q_beta} (gauged) or (Ric*)_{q_beta} + ||Ric*||^2 Id
    (scalstar); R = Ric + ||Ric*||^2 Id when gauged, else None; dc/dt = -pi(A)c.
    """
    _, _, _, ric, ric_star = coeff_parts(c)
    if variant == Variant.RAW:
        return -pi_apply(ric, c), ric, None
    flat = ric_star.reshape(ric_star.shape[:-2] + (-1,))
    shift = np.vecdot(flat, flat)
    a = ric_star * dec.mask_g + ric_star * dec.mask_u + (ric_star * dec.mask_ut).mT
    if variant == Variant.SCALSTAR:
        a = _plus_identity(a, shift)
    return -pi_apply(a, c), a, _plus_identity(ric, shift) if gauged else None


def gauge_paths_loop(traj, dec):
    """h per coefficient ("variant", "ricci"), each (N, n, n), at the samples of a scalstar
    or scal run that carries its gauges, rebuilt in a plain loop over the samples: from each
    one to the next, scipy's solve_ivp (DOP853, rtol 1e-12) of the joint scalstar system for
    (c, h_variant, h_ricci), restarted at the recorded bracket moved onto scal* = -1, with h
    chained from Id; on a scal run the variant gauge is scaled by |scal / scal(0)|^1/2."""
    from scipy.integrate import solve_ivp

    n = traj.samples[0].bracket.dim
    m = n ** 3

    def rhs(_, y):
        mu = BracketTensor(y[:m].reshape(n, n, n), antisymmetrize=True)
        _, _, _, ric, rs = coeff_parts(mu.coeffs)
        shift = float(np.sum(rs * rs)) * np.eye(n)
        a = project_qbeta(rs, dec) + shift
        return np.concatenate([-pi_apply(a, mu.coeffs).ravel(),
                               (-a @ y[m: m + n * n].reshape(n, n)).ravel(),
                               (-(ric + shift) @ y[m + n * n:].reshape(n, n)).ravel()])

    def on_slice(c):
        return c / np.sqrt(abs(np.trace(coeff_parts(c)[4])))

    h = [np.eye(n), np.eye(n)]
    out = [[h[0]], [h[1]]]
    for s0, s1 in zip(traj.samples, traj.samples[1:]):
        y0 = np.concatenate([on_slice(s0.bracket.coeffs).ravel(), h[0].ravel(), h[1].ravel()])
        ref = solve_ivp(rhs, (s0.t, s1.t), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        assert ref.success
        h = [ref.y[m: m + n * n, -1].reshape(n, n), ref.y[m + n * n:, -1].reshape(n, n)]
        out[0].append(h[0])
        out[1].append(h[1])
    mats = [np.array(out[0]), np.array(out[1])]
    if traj.variant == Variant.SCAL:
        scal = [np.trace(coeff_parts(on_slice(s.bracket.coeffs))[3]) for s in traj.samples]
        mats[0] = mats[0] * np.sqrt(np.abs(scal) / abs(scal[0]))[:, None, None]
    return mats


def random_antisymmetric_bracket(rng, dim, scale=1.0):
    """Random antisymmetric tensor; generally not a Lie bracket."""
    c = scale * rng.standard_normal((dim, dim, dim))
    return BracketTensor(0.5 * (c - np.swapaxes(c, 0, 1)))


PROPERTY = settings(max_examples=40, deadline=None, database=None)
SEED = st.integers(0, 2**32 - 1)
DIM = st.integers(2, DIM_CAP)


def lie_bracket(rng, dim):
    """A gauged solvable or nilpotent Lie bracket; None when the gauge is singular.

    random_solvable_bracket solves for the derivations of its ideal, which
    costs about 0.4 s at n = 16, so dimensions above 8 use the cheaper
    almost-abelian and two-step nilpotent families.
    """
    try:
        if dim <= 8:
            return random_solvable_bracket(rng, dim)
        if rng.integers(2):
            mu = almost_abelian(rng.standard_normal((dim - 1, dim - 1)))
        else:
            mu = random_two_step_nilpotent(rng, dim)
        return act(expm(0.3 * rng.standard_normal((dim, dim))), mu)
    except SingularGauge:
        return None


def draw_bracket(seed, dim, lie):
    """A seeded lie_bracket, or a random antisymmetric tensor when lie is False."""
    rng = np.random.default_rng(seed)
    return lie_bracket(rng, dim) if lie else random_antisymmetric_bracket(rng, dim)


def random_orthogonal(rng, n):
    """Haar-ish random orthogonal matrix from a QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def scalstar_first_variation(mu, a):
    """First variation of scal* along exp(tA).mu at t = 0: equals -2 <Ric*, A>."""
    return -2.0 * float(np.sum(ricci_star(mu) * np.asarray(a, dtype=float)))


def grading_components(mu, dec):
    """Norm of each pi(beta+)-eigencomponent of mu, keyed by eigenvalue."""
    c = mu.coeffs
    return [(w, float(np.linalg.norm(np.where(mask, c, 0.0)))) for w, mask in dec.v_levels]
