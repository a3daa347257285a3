"""The coefficient-level kernel against its einsum definitions, for n = 2-16.

The einsum functions below spell out each index sum of the curvature parts,
pi(A) and the Jacobi cyclic sum; they are the oracles for the reshape/matmul
kernel in `curvature.coeff_parts`, `brackets.pi_apply` and
`brackets.jacobi_norm`.  Every bound is relative to 1 + ||mu||^2.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketflow import (
    BracketTensor,
    FlowSpec,
    Variant,
    act,
    catalog,
    derivation_space,
    integrate,
    pi_action,
    stratum_label,
)
from bracketflow.brackets import DIM_CAP, derivation_matrix, jacobi_norm, pi_apply
from bracketflow.catalog import (
    almost_abelian,
    random_antisymmetric_bracket,
    random_solvable_bracket,
    random_two_step_nilpotent,
)
from bracketflow.curvature import coeff_parts, coeff_scal_star
from bracketflow.errors import SingularGauge
from bracketflow.linalg import RANK_TOL, null_space

from oracles import oracle_ricci, pi_matrix

KERNEL_TOL = 1e-12
PI_MATRIX_MAX_DIM = 10  # pi_matrix is a dense n^6 array: 134 MB at n = 16

_PROPERTY = settings(max_examples=40, deadline=None, database=None)
_SEED = st.integers(0, 2**32 - 1)
_DIM = st.integers(2, DIM_CAP)


def einsum_parts(c):
    """(M, K, H, Ric, Ric*) by one einsum per index sum."""
    m = -0.5 * np.einsum("pij,qij->pq", c, c) + 0.25 * np.einsum("ijp,ijq->pq", c, c)
    ads = np.transpose(c, (0, 2, 1))  # ads[p] = ad(e_p)
    k = np.einsum("pij,qji->pq", ads, ads)
    h = np.einsum("pjj->p", c)
    ric_star = m - 0.5 * k
    ad_h = np.einsum("i,ijk->kj", h, c)
    ric = ric_star - 0.5 * (ad_h + ad_h.T)
    return m, k, h, ric, ric_star


def einsum_pi_apply(a, c):
    return (
        np.einsum("kc,ijc->ijk", a, c)
        - np.einsum("ai,ajk->ijk", a, c)
        - np.einsum("bj,ibk->ijk", a, c)
    )


def einsum_jacobi(c):
    """Norm of the cyclic sum over all basis triples, repeated indices included."""
    t = np.einsum("xyk,kzw->xyzw", c, c)
    cyc = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.linalg.norm(cyc))


def _lie_bracket(rng, dim):
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
        return act(sla.expm(0.3 * rng.standard_normal((dim, dim))), mu)
    except SingularGauge:
        return None


def _draw(seed, dim, lie):
    rng = np.random.default_rng(seed)
    return _lie_bracket(rng, dim) if lie else random_antisymmetric_bracket(rng, dim)


def _assert_close(got, want, mu):
    assert np.max(np.abs(np.asarray(got) - want)) <= KERNEL_TOL * (1.0 + mu.norm_sq)


class TestKernelProperties:
    @_PROPERTY
    @given(seed=_SEED, dim=_DIM, lie=st.booleans())
    def test_parts_match_einsum(self, seed, dim, lie):
        mu = _draw(seed, dim, lie)
        if mu is None:
            return
        for got, want in zip(coeff_parts(mu.coeffs), einsum_parts(mu.coeffs)):
            _assert_close(got, want, mu)

    @_PROPERTY
    @given(seed=_SEED, dim=_DIM)
    def test_ricci_matches_koszul(self, seed, dim):
        mu = _lie_bracket(np.random.default_rng(seed), dim)
        if mu is None:
            return
        _assert_close(coeff_parts(mu.coeffs)[3], oracle_ricci(mu), mu)

    @_PROPERTY
    @given(seed=_SEED, dim=_DIM)
    def test_pi_apply_matches_einsum_and_pi_matrix(self, seed, dim):
        rng = np.random.default_rng(seed)
        mu = random_antisymmetric_bracket(rng, dim)
        a = rng.standard_normal((dim, dim))
        got = pi_apply(a, mu.coeffs)
        _assert_close(got, einsum_pi_apply(a, mu.coeffs), mu)
        if dim <= PI_MATRIX_MAX_DIM:
            want = (pi_matrix(a, dim) @ mu.coeffs.ravel()).reshape(got.shape)
            _assert_close(got, want, mu)

    @_PROPERTY
    @given(seed=_SEED, dim=_DIM, lie=st.booleans())
    def test_derivation_matrix_equals_pi_action_columns(self, seed, dim, lie):
        # Bit for bit: the derivation solves of random_solvable_bracket, and
        # every draw built on them, must not move.
        mu = _draw(seed, dim, lie)
        if mu is None:
            return
        units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
        want = np.column_stack([pi_action(e, mu).coeffs.ravel() for e in units])
        assert np.array_equal(derivation_matrix(mu), want)

    @_PROPERTY
    @given(seed=_SEED, dim=_DIM, lie=st.booleans())
    def test_jacobi_norm_matches_full_cyclic_sum(self, seed, dim, lie):
        mu = _draw(seed, dim, lie)
        if mu is None:
            return
        _assert_close(jacobi_norm(mu.coeffs), einsum_jacobi(mu.coeffs), mu)

    @_PROPERTY
    @given(seed=_SEED, dim=_DIM, lie=st.booleans())
    def test_closed_form_scal_star_is_trace_of_ricci_star(self, seed, dim, lie):
        mu = _draw(seed, dim, lie)
        if mu is None:
            return
        _assert_close(coeff_scal_star(mu.coeffs), np.trace(einsum_parts(mu.coeffs)[4]), mu)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_zero_bracket_derivations_equal_null_space(dim):
    # The shortcut must return the very basis the null space gives, so that
    # random_solvable_bracket's abelian draws do not move.
    zero = BracketTensor.zero(dim)
    ker = null_space(derivation_matrix(zero), RANK_TOL)
    got = derivation_space(zero)
    assert len(got) == dim * dim
    assert all(np.array_equal(d, ker[:, i].reshape(dim, dim)) for i, d in enumerate(got))


def test_stepper_builds_no_bracket_tensor(monkeypatch):
    # Only record() validates its sample; stage states, the scal*
    # renormalization and the per-step Jacobi check stay on raw arrays.
    mu0 = catalog("s3").bracket
    label = stratum_label(mu0)
    spec = FlowSpec(variant=Variant.SCALSTAR, t_end=10.0, label=label, record_every=0.25)
    built = []
    init = BracketTensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BracketTensor, "__init__", counting_init)
    traj = integrate(mu0, spec)
    assert traj.steps > len(traj.samples)
    assert len(built) <= len(traj.samples) + 2


def test_public_names_resolve_and_oracles_stay_in_tests():
    # The loop-by-loop oracles live in tests/oracles.py, not in the package.
    import bracketflow
    from bracketflow import brackets, curvature, linearize

    for name in bracketflow.__all__:
        assert hasattr(bracketflow, name), name
    moved = {
        brackets: ["pi_matrix"],
        curvature: ["oracle_ricci", "moment_map"],
        linearize: ["delta_apply", "k_beta_basis"],
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(bracketflow, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
