"""The coefficient-level kernel against its einsum definitions, for n = 2-16.

The einsum functions below spell out each index sum of the curvature parts,
pi(A) and the Jacobi cyclic sum; they are the oracles for the reshape/matmul
kernel in `curvature.coeff_parts`, `brackets.pi_apply` and
`brackets.jacobi_norm`.  `brackets.act_apply` is held to the einsum that
`act` used to call, bit for bit.  Every bound is relative to 1 + ||mu||^2.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given
from hypothesis import strategies as st

from bracketflow import (
    BracketTensor,
    FlowSpec,
    Variant,
    act,
    brackets,
    catalog,
    derivation_space,
    integrate,
    pi_action,
    stratum_label,
)
from bracketflow.brackets import (
    COEFF_CAP,
    DIM_CAP,
    act_apply,
    bracket_stack,
    derivation_matrix,
    ensure_lie,
    jacobi_norm,
    pi_apply,
)
from bracketflow.catalog import random_solvable_bracket
from bracketflow.curvature import coeff_moment, coeff_parts, coeff_scal_star, moment_map_fast
from bracketflow.errors import NotALieBracket
from bracketflow.flows import flow_field
from bracketflow.linalg import RANK_TOL, null_space, subspace_distance

from oracles import (
    DIM,
    PROPERTY,
    SEED,
    draw_bracket,
    lie_bracket,
    null_space_full_svd,
    oracle_ricci,
    pi_matrix,
    random_antisymmetric_bracket,
)

KERNEL_TOL = 1e-12
PI_MATRIX_MAX_DIM = 10  # pi_matrix is a dense n^6 array: 134 MB at n = 16
# A full SVD of the n = 16 derivation matrix (3,375 x 225) holds a 91 MB left
# factor; the thin one needs about 12 MB at its peak.
DERIVATION_PEAK_MB = 32



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


def _assert_close(got, want, mu):
    assert np.max(np.abs(np.asarray(got) - want)) <= KERNEL_TOL * (1.0 + mu.norm_sq)


class TestKernelProperties:
    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_parts_match_einsum(self, seed, dim, lie):
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        for got, want in zip(coeff_parts(mu.coeffs), einsum_parts(mu.coeffs)):
            _assert_close(got, want, mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM)
    def test_ricci_matches_koszul(self, seed, dim):
        mu = lie_bracket(np.random.default_rng(seed), dim)
        if mu is None:
            return
        _assert_close(coeff_parts(mu.coeffs)[3], oracle_ricci(mu), mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM)
    def test_pi_apply_matches_einsum_and_pi_matrix(self, seed, dim):
        rng = np.random.default_rng(seed)
        mu = random_antisymmetric_bracket(rng, dim)
        a = rng.standard_normal((dim, dim))
        got = pi_apply(a, mu.coeffs)
        _assert_close(got, einsum_pi_apply(a, mu.coeffs), mu)
        if dim <= PI_MATRIX_MAX_DIM:
            want = (pi_matrix(a, dim) @ mu.coeffs.ravel()).reshape(got.shape)
            _assert_close(got, want, mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_chain_rule_finite_difference(self, seed, dim, lie):
        # d/dt act(exp tA, mu) at t = 0 is pi(A)mu: the identity that lets
        # linearize differentiate Ric* along pi(A)mu instead of the group path.
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        a = np.random.default_rng([seed, 1]).standard_normal((dim, dim))
        a /= np.linalg.norm(a)
        step = 1e-5
        fd = (act(sla.expm(step * a), mu).coeffs - act(sla.expm(-step * a), mu).coeffs) / (
            2.0 * step
        )
        exact = pi_apply(a, mu.coeffs)
        assert np.linalg.norm(fd - exact) <= 1e-6 * (1.0 + np.linalg.norm(exact))

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_derivation_matrix_equals_pi_action_columns(self, seed, dim, lie):
        # Bit for bit: the derivation solves of random_solvable_bracket, and
        # every draw built on them, must not move.
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
        want = np.column_stack([pi_action(e, mu).coeffs.ravel() for e in units])
        assert np.array_equal(derivation_matrix(mu), want)

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_jacobi_norm_matches_full_cyclic_sum(self, seed, dim, lie):
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        _assert_close(jacobi_norm(mu.coeffs), einsum_jacobi(mu.coeffs), mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_closed_form_scal_star_is_trace_of_ricci_star(self, seed, dim, lie):
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        _assert_close(coeff_scal_star(mu.coeffs), np.trace(einsum_parts(mu.coeffs)[4]), mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM, scale=st.floats(1e-3, 1e3))
    def test_normalized_moment_map_has_trace_minus_one(self, seed, dim, scale):
        mu = random_antisymmetric_bracket(np.random.default_rng(seed), dim, scale=scale)
        assert abs(np.trace(moment_map_fast(mu)) + 1.0) <= KERNEL_TOL

    @PROPERTY
    @given(seed=SEED, dim=DIM, t=st.floats(0.1, 10.0), k=st.integers(-8, 8))
    def test_raw_field_is_homogeneous_of_degree_three(self, seed, dim, t, k):
        c = random_antisymmetric_bracket(np.random.default_rng(seed), dim).coeffs
        field = flow_field(c, Variant.RAW, None)
        # Scaling by a power of two is exact in every product and sum.
        assert np.array_equal(flow_field(2.0**k * c, Variant.RAW, None), 2.0 ** (3 * k) * field)
        bound = KERNEL_TOL * t**3 * (1.0 + float(np.sum(c * c))) ** 1.5
        assert np.max(np.abs(flow_field(t * c, Variant.RAW, None) - t**3 * field)) <= bound


class TestStackedKernels:
    """A stack (B, n, n, n) is one more input: each slice of a stacked call
    equals the one-state call bit for bit."""

    @pytest.mark.parametrize("dim", range(1, DIM_CAP + 1))
    def test_each_slice_equals_the_single_call(self, dim):
        rng = np.random.default_rng(dim)
        for count in (1, int(rng.integers(2, 13))):
            cs = np.stack([
                random_antisymmetric_bracket(rng, dim, scale=rng.uniform(0.1, 10.0)).coeffs
                for _ in range(count)
            ])
            a = rng.standard_normal((count, dim, dim))
            h = np.eye(dim) + 0.3 * rng.standard_normal((count, dim, dim))
            parts, moment = coeff_parts(cs), coeff_moment(cs)
            scal, jac, pis = coeff_scal_star(cs), jacobi_norm(cs), pi_apply(a, cs)
            acts = act_apply(h, cs)
            for j, c in enumerate(cs):
                for got, want in zip(parts, coeff_parts(c)):
                    assert np.array_equal(got[j], want)
                assert np.array_equal(moment[j], coeff_moment(c))
                assert scal[j] == coeff_scal_star(c)
                assert jac[j] == jacobi_norm(c)
                assert np.array_equal(pis[j], pi_apply(a[j], c))
                assert np.array_equal(acts[j], act_apply(h[j], c))

    def test_bracket_stack_checks_each_slice_as_bracket_tensor(self):
        lie = catalog("s3").bracket.coeffs
        not_lie = random_antisymmetric_bracket(np.random.default_rng(5), 3).coeffs
        tilted = lie.copy()
        tilted[0, 1, 2] += 1e-14  # projected onto its antisymmetric part
        skew = lie.copy()
        skew[0, 1, 2] += 1e-3
        nan = lie.copy()
        nan[1, 2, 0] = np.nan
        inf = np.where(lie != 0.0, np.inf, 0.0)
        # max |c| of s3 is 1: the cap itself is accepted, twice it is not.
        cs = np.stack([lie, not_lie, tilted, skew, nan, inf, COEFF_CAP * lie, 2.0 * COEFF_CAP * lie])
        coeffs, norm_sq, items = bracket_stack(cs)
        assert not coeffs.flags.writeable
        kinds = []
        for c, sq, got in zip(cs, norm_sq, items):
            try:
                want = BracketTensor(c)
                ensure_lie(want)
            except (ValueError, NotALieBracket) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                kinds.append(type(exc))
                continue
            assert np.array_equal(got.coeffs, want.coeffs) and not got.coeffs.flags.writeable
            assert got.jacobi_residual() == want.jacobi_residual()
            assert sq == want.norm_sq
            kinds.append(BracketTensor)
        assert kinds == [BracketTensor, NotALieBracket, BracketTensor, ValueError, ValueError,
                         ValueError, BracketTensor, ValueError]
        assert not np.array_equal(items[2].coeffs, tilted)
        assert str(items[4]) == str(items[5]) == "structure constants must be finite"
        assert str(items[7]) == "largest |coefficient| 2.000e+25 exceeds the cap 1e+25"


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_zero_bracket_derivations_equal_null_space(dim):
    # The shortcut must return the very basis the null space gives, so that
    # random_solvable_bracket's abelian draws do not move.
    zero = BracketTensor.zero(dim)
    ker = null_space(derivation_matrix(zero), RANK_TOL)
    got = derivation_space(zero)
    assert len(got) == dim * dim
    assert all(np.array_equal(d, ker[:, i].reshape(dim, dim)) for i, d in enumerate(got))


def _rank_deficient(rng, rows, cols, rank):
    """A rows x cols matrix of the given rank, nonzero singular values 1-10 times a scale."""
    u = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return (u * (scale * 10.0 ** rng.uniform(0.0, 1.0, rank))) @ v.T


# Row counts against the column count N: gesdd bidiagonalizes the matrix itself
# up to 11N/6 rows ("tall") and takes a QR first above that ("very_tall").
_ROWS = {
    "wide": lambda n: (1, n - 1),
    "square": lambda n: (n, n),
    "tall": lambda n: (n + 1, max(n + 1, 11 * n // 6)),
    "very_tall": lambda n: (11 * n // 6 + 1, 4 * n),
}


@PROPERTY
@given(seed=SEED, cols=st.integers(1, 40), shape=st.sampled_from(sorted(_ROWS)), data=st.data())
def test_null_space_matches_full_svd(seed, cols, shape, data):
    # The wide cases are nilradical's complements: a thin SVD there would drop
    # the kernel rows past min(rows, cols).
    lo, hi = _ROWS[shape](cols)
    assume(lo <= hi)
    rows = data.draw(st.integers(lo, hi), label="rows")
    rank = data.draw(st.integers(0, min(rows, cols - 1)), label="rank")
    mat = _rank_deficient(np.random.default_rng(seed), rows, cols, rank)
    ker = null_space(mat)
    assert ker.shape == (cols, cols - rank)
    assert np.linalg.norm(ker.T @ ker - np.eye(cols - rank)) <= KERNEL_TOL
    assert np.linalg.norm(mat @ ker) <= KERNEL_TOL * (1.0 + np.linalg.norm(mat))
    assert subspace_distance(ker, null_space_full_svd(mat)) <= KERNEL_TOL


def _two_step_draw():
    """A seeded n = 16 random_solvable_bracket draw on a two-step ideal."""
    return random_solvable_bracket(np.random.default_rng(1), DIM_CAP)


def test_derivation_spaces_at_dim_cap_stay_small(monkeypatch):
    solved = []

    def recording_null_space(mat, *args):
        solved.append(mat.shape)
        return null_space(mat, *args)

    monkeypatch.setattr(brackets, "null_space", recording_null_space)
    tracemalloc.start()
    try:
        ders = derivation_space(catalog("heisenberg", dim=15).bracket)
        _two_step_draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solved == [(15**3, 15**2)] * 2
    assert len(ders) > 0
    assert peak < DERIVATION_PEAK_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_two_step_draw_equals_full_svd_draw(monkeypatch):
    # The bench inputs at n = 8-16 are such draws: the thin SVD must not move them.
    thin = _two_step_draw()
    monkeypatch.setattr(brackets, "null_space", null_space_full_svd)
    assert np.array_equal(thin.coeffs, _two_step_draw().coeffs)


@pytest.mark.parametrize("dim", [3, 5, 9, 13, DIM_CAP])
def test_act_equals_einsum_planned_per_call(dim):
    # act_apply contracts by three products in the order einsum(optimize=True)
    # plans; act's result must be the bits of that einsum.
    rng = np.random.default_rng(dim)
    mu = random_antisymmetric_bracket(rng, dim)
    h = sla.expm(0.3 * rng.standard_normal((dim, dim)))
    hinv = np.linalg.inv(h)
    want = np.einsum("ai,bj,kc,abc->ijk", hinv, hinv, h, mu.coeffs, optimize=True)
    assert np.array_equal(act(h, mu).coeffs, BracketTensor(want, antisymmetrize=True).coeffs)


def test_stepper_builds_no_bracket_tensor(monkeypatch):
    # Only the sampler validates its samples, as one stack; stage states, the
    # scal* renormalization and the per-step Jacobi check stay on raw arrays.
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
    from bracketflow import brackets, curvature, linearize, strata

    for name in bracketflow.__all__:
        assert hasattr(bracketflow, name), name
    moved = {
        brackets: ["pi_matrix"],
        curvature: ["oracle_ricci", "moment_map", "moment_part"],
        linearize: ["delta_apply", "k_beta_basis", "P_FD_STEP", "FLOW_FD_STEP", "_ricstar_q",
                    "expm", "act"],
        strata: ["_clustered"],
    }
    # The old P check's group path: act stays public, but linearize no longer imports it.
    public = {"act"}
    for module, names in moved.items():
        for name in names:
            assert name in public or not hasattr(bracketflow, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
