import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketflow import (
    BracketTensor,
    beta_decomposition,
    catalog,
    derivation_space,
    l_operator,
    normalize_soliton,
    p_operator,
    pi_action,
    soliton_label,
    soliton_residual,
    stratum_label,
)
from bracketflow import linearize
from bracketflow.catalog import almost_abelian
from bracketflow.errors import GaugeMismatch
from bracketflow.linearize import _ad_beta_plus_matrix, _rows, delta_matrix

from oracles import (
    ad_beta_plus_loop,
    delta_apply,
    flow_field_fd,
    grading_components,
    l_matrix_loop,
    p_group_path_fd,
    p_matrix_loop,
)


def _normalized(name, lam=None, dim=None):
    mu = catalog(name, lam=lam, dim=dim).bracket
    norm = normalize_soliton(mu, soliton_residual(mu))
    return soliton_label(norm)


@pytest.fixture(scope="module")
def h3_setup():
    aligned, label = _normalized("h3")
    return aligned, label, beta_decomposition(label)


@pytest.fixture(scope="module")
def hyp_setup():
    aligned, label = _normalized("s3_lambda", lam=1.0)
    return aligned, label, beta_decomposition(label)


@pytest.fixture(scope="module")
def s3l_setup():
    aligned, label = _normalized("s3_lambda", lam=0.5)
    return aligned, label, beta_decomposition(label)


@pytest.fixture(scope="module")
def two_dim_setup():
    # (e1, e2) = e2: sl_beta consists of derivations, so the tangent space is empty.
    mu = BracketTensor.from_entries(2, [(1, 2, 2, 1.0)])
    aligned, label = soliton_label(normalize_soliton(mu, soliton_residual(mu)))
    return aligned, label, beta_decomposition(label)


@pytest.fixture(scope="module")
def heis_setup():
    aligned, label = _normalized("heisenberg", dim=5)
    return aligned, label, beta_decomposition(label)


class TestDelta:
    def test_identity_direction(self, h3_setup):
        mu, _, _ = h3_setup
        np.testing.assert_allclose(delta_apply(mu, np.eye(3)), mu.coeffs, atol=1e-14)

    def test_derivation_in_kernel(self, h3_setup):
        mu, _, _ = h3_setup
        assert np.linalg.norm(delta_apply(mu, np.diag([1.0, 1, 2]))) <= 1e-12

    def test_adjointness(self, h3_setup, rng):
        mu, _, _ = h3_setup
        dmat = delta_matrix(mu)
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            v = rng.standard_normal(27)
            lhs = float(delta_apply(mu, a).ravel() @ v)
            rhs = float(a.ravel() @ (dmat.T @ v))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestPOperator:
    def test_symmetric_a_block_eigenvector(self, hyp_setup):
        # Sym(a) directions satisfy P(A) = 2 ||beta||^2 A via the h-branch.
        mu, label, dec = hyp_setup
        from bracketflow.curvature import killing_matrix
        from bracketflow.linearize import _sym

        dmat = delta_matrix(mu)
        dtd = dmat.T @ dmat
        k = killing_matrix(mu)
        e00 = np.zeros((3, 3))
        e00[0, 0] = 1.0
        pa = 0.5 * (_sym((dtd @ e00.ravel()).reshape(3, 3)) + e00 @ k + k @ e00)
        np.testing.assert_allclose(pa, 2.0 * label.norm_sq * e00, atol=1e-10)

    def test_kernel_contains_k_beta_and_derivations(self, s3l_setup):
        mu, _, dec = s3l_setup
        pop = p_operator(mu, dec)
        basis = dec.sl_basis
        for a in dec.k_beta_basis + derivation_space(mu):
            coeffs = np.array([float(np.sum(b * a)) for b in basis])
            # only the sl_beta component is in P's domain
            assert np.linalg.norm(pop.matrix @ coeffs) <= 1e-9

    def test_symmetric_and_psd(self, s3l_setup, heis_setup):
        for mu, _, dec in (s3l_setup, heis_setup):
            pop = p_operator(mu, dec)
            assert np.linalg.norm(pop.matrix - pop.matrix.T) <= 1e-9
            assert np.min(np.linalg.eigvalsh(0.5 * (pop.matrix + pop.matrix.T))) >= -1e-10

    def test_finite_difference_definition_matches(self, s3l_setup):
        mu, _, dec = s3l_setup
        pop = p_operator(mu, dec)
        assert pop.fd_discrepancy <= 1e-6

    def test_gauge_mismatch_detected(self):
        mu = BracketTensor.from_entries(4, [(1, 2, 3, 1.0)])
        norm = normalize_soliton(mu, soliton_residual(mu))
        # unaligned: Ric* not sorted ascending, so pi(beta+) does not kill mu
        label = stratum_label(norm)
        dec = beta_decomposition(label)
        with pytest.raises(GaugeMismatch):
            p_operator(norm, dec)


class TestLOperator:
    def test_rigid_solitons_have_trivial_tangent(self, h3_setup, hyp_setup, two_dim_setup):
        for mu, _, dec in (h3_setup, hyp_setup, two_dim_setup):
            rep = l_operator(mu, dec)
            assert rep.tangent_dim == 0
            # An empty tangent makes no flow_field call (an empty stack would not reshape).
            assert rep.flow_fd_discrepancy == 0.0
            assert rep.kernel_dim == 0 == rep.kbeta_orbit_dim
            assert rep.kernel_matches_kbeta_orbit
            # P vanishes identically: sl_beta consists of derivations.
            assert np.max(np.abs(rep.P_spectrum)) <= 1e-10
            assert rep.P_kernel_dim == len(dec.sl_basis) == rep.P_kernel_expected_dim

    def test_s3l_spectrum(self, s3l_setup):
        mu, label, dec = s3l_setup
        rep = l_operator(mu, dec)
        assert rep.tangent_dim == 2
        assert rep.kernel_dim == 1 == rep.kbeta_orbit_dim
        assert rep.kernel_matches_kbeta_orbit
        negatives = rep.eigenvalues[rep.eigenvalues < -1e-8]
        assert negatives.size == 1
        assert negatives[0] <= -1e-6
        assert rep.max_imag <= 1e-8
        assert rep.commutator_norm <= 1e-9
        assert rep.P_kernel_dim == rep.P_kernel_expected_dim
        assert rep.P_kernel_residual <= 1e-8
        assert rep.flow_fd_discrepancy <= 1e-6

    def test_dimension_four_spectrum(self):
        # ad(e1) = diag(1,2,3): the rotation gauge so(3) acts effectively on
        # the nilradical, giving kernel dimension 3 and two contraction rates.
        from bracketflow.catalog import almost_abelian

        mu = almost_abelian(np.diag([1.0, 2.0, 3.0]))
        aligned, label = soliton_label(
            normalize_soliton(mu, soliton_residual(mu))
        )
        rep = l_operator(aligned, beta_decomposition(label))
        assert rep.tangent_dim == 6
        assert rep.kernel_dim == 3 == rep.kbeta_orbit_dim
        assert rep.kernel_matches_kbeta_orbit
        negatives = rep.eigenvalues[rep.eigenvalues < -1e-8]
        np.testing.assert_allclose(
            negatives, [-2.0 / 7.0, -1.0 / 14.0, -1.0 / 14.0], atol=1e-9
        )
        assert rep.flow_fd_discrepancy <= 1e-6

    def test_heisenberg_spectrum(self, heis_setup):
        mu, _, dec = heis_setup
        rep = l_operator(mu, dec)
        assert rep.tangent_dim == 5
        assert rep.kernel_dim == 2 == rep.kbeta_orbit_dim
        negatives = rep.eigenvalues[rep.eigenvalues < -1e-8]
        np.testing.assert_allclose(negatives, [-2.0, -2.0, -2.0], atol=1e-8)
        assert rep.flow_fd_discrepancy <= 1e-6
        assert rep.tangent_leak <= 1e-9

    def test_eigenvector_transport(self, s3l_setup):
        # Joint eigenvectors of P and ad(beta+) map to L-eigenvectors with
        # eigenvalue -(p + r).
        mu, label, dec = s3l_setup
        pop = p_operator(mu, dec)
        bp = label.beta_plus
        basis = dec.sl_basis
        n_h = len(dec.h_basis)
        # u_beta block: ad(beta+) eigenvalue is 1 for both basis elements here.
        u_block = pop.matrix[n_h:, n_h:]
        w, v = np.linalg.eigh(u_block)
        for eig, vec in zip(w, v.T):
            a = sum(c * b for c, b in zip(vec, dec.u_basis))
            r = 1.0
            tangent = pi_action(a, mu).coeffs
            if np.linalg.norm(tangent) < 1e-9:
                continue
            image = -pi_action(
                sum(c * b for c, b in zip(pop.matrix @ _coords(a, basis), basis))
                + (bp @ a - a @ bp),
                mu,
            ).coeffs
            np.testing.assert_allclose(image, -(eig + r) * tangent, atol=1e-9)

    def test_grading_transport(self, heis_setup):
        # A in the r-eigenspace of ad(beta+) sends mu into the V_r component.
        mu, label, dec = heis_setup
        b = label.eigenvalues
        n = mu.dim
        for i in range(n):
            for j in range(n):
                a = np.zeros((n, n))
                a[i, j] = 1.0
                r = b[i] - b[j]
                image = pi_action(a, mu)
                if image.norm < 1e-12:
                    continue
                comps = grading_components(image, dec)
                for w, norm in comps:
                    if abs(w - r) > 1e-6:
                        assert norm <= 1e-9


@st.composite
def _ad_diagonals(draw):
    """ad(e1) eigenvalues for n = 3-10: all distinct, or from {1, 2, 3} / 4 with repeats."""
    size = draw(st.integers(2, 9))
    distinct = st.lists(st.integers(1, 12), min_size=size, max_size=size, unique=True)
    repeated = st.lists(st.integers(1, 3), min_size=size, max_size=size)
    return np.array(draw(st.one_of(distinct, repeated)), dtype=float) / 4.0


def _assert_matches(got, want):
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * (1.0 + np.linalg.norm(want))


_CHECK_INPUTS = [("heisenberg", None, 3), ("heisenberg", None, 5), ("heisenberg", None, 7),
                 ("s3_lambda", 0.5, None)]


@pytest.fixture(scope="module", params=_CHECK_INPUTS, ids=lambda p: f"{p[0]}-{p[1] or p[2]}")
def check_setup(request):
    name, lam, dim = request.param
    mu, label = _normalized(name, lam=lam, dim=dim)
    dec = beta_decomposition(label)
    return mu, dec, l_operator(mu, dec)


class TestExactChecks:
    """P and L check themselves exactly: Ric* is quadratic, and the scalstar flow field is
    a polynomial of degree 5 along a line.  The central differences they replaced, along
    the group path exp(tA).mu and along each tangent column, stay here as oracles."""

    def test_both_discrepancies_are_round_off(self, check_setup):
        _, _, rep = check_setup
        assert rep.P_fd_discrepancy <= 1e-12
        assert rep.flow_fd_discrepancy <= 1e-12

    def test_p_matches_group_path_oracle(self, check_setup):
        # P(b_j) = sum_i P[i, j] b_i; the exact check holds it to the definition
        # within P_fd_discrepancy, the oracle to within its truncation error.
        mu, dec, rep = check_setup
        pop = p_operator(mu, dec)
        images = np.tensordot(pop.matrix.T, np.array(dec.sl_basis), axes=1)
        assert pop.fd_discrepancy == rep.P_fd_discrepancy
        assert np.max(np.linalg.norm(p_group_path_fd(mu, dec) - images, axis=(1, 2))) <= 1e-8

    def test_l_matches_flow_field_oracle(self, check_setup):
        mu, dec, rep = check_setup
        want = flow_field_fd(mu, dec, rep.tangent_basis)
        got = rep.tangent_basis @ rep.L_matrix
        assert np.max(np.linalg.norm(got - want, axis=0), initial=0.0) <= 1e-8

    def test_flow_check_states_are_exactly_antisymmetric(self, monkeypatch, heis_setup):
        # flow_field takes antisymmetric states; the SVD's tangent columns are
        # antisymmetric only to round-off, so l_operator projects the states.
        mu, _, dec = heis_setup
        states, field = [], linearize.flow_field

        def recording(c, *args):
            states.append(c.copy())
            return field(c, *args)

        monkeypatch.setattr(linearize, "flow_field", recording)
        rep = l_operator(mu, dec)
        assert len(states) == 1 and len(states[0]) == 6 * rep.tangent_dim > 0
        assert np.max(np.abs(states[0] + states[0].swapaxes(1, 2))) == 0.0


class TestMatrixForm:
    @pytest.mark.parametrize("dim", [9, 11])
    def test_heisenberg_kernel_is_kbeta_orbit(self, dim):
        # The 12- and 20-fold zero eigenvalues: the kernel is taken by SVD, not
        # from the real parts of complex eigenvectors, which lose rank here.
        # k_beta = so(2k) acts with stabilizer u(k), k = (dim - 1) / 2.
        mu, label = _normalized("heisenberg", dim=dim)
        rep = l_operator(mu, beta_decomposition(label))
        k = (dim - 1) // 2
        assert rep.kernel_dim == rep.kbeta_orbit_dim == k * (k - 1)
        assert rep.kernel_matches_kbeta_orbit

    @settings(max_examples=25, deadline=None, database=None)
    @given(d=_ad_diagonals())
    def test_almost_abelian_solitons(self, d):
        bracket = almost_abelian(np.diag(d))
        mu, label = soliton_label(normalize_soliton(bracket, soliton_residual(bracket)))
        dec = beta_decomposition(label)
        rep = l_operator(mu, dec)
        assert rep.kernel_matches_kbeta_orbit
        assert rep.kernel_dim == rep.kbeta_orbit_dim
        assert np.all(rep.eigenvalues <= 1e-8)
        p_scale = 1.0 + float(np.max(np.abs(rep.P_spectrum), initial=0.0))
        assert np.all(rep.P_spectrum >= -1e-10 * p_scale)
        _assert_matches(p_operator(mu, dec).matrix, p_matrix_loop(mu, dec))
        _assert_matches(_ad_beta_plus_matrix(_rows(dec.sl_basis, mu.dim), dec), ad_beta_plus_loop(dec))
        _assert_matches(rep.L_matrix, l_matrix_loop(mu, dec, rep.tangent_basis))


def _coords(a, basis):
    return np.array([float(np.sum(b * a)) for b in basis])
