import numpy as np
import pytest

from bracketflow import (
    BracketTensor,
    act,
    ad_map,
    catalog,
    construct_critical,
    curvature_pack,
    derived_series,
    fingerprint,
    fingerprint_distance,
    killing_matrix,
    moment_map_fast,
    nilradical,
    normalize_soliton,
    pi_action,
    same_orbit_on,
    soliton_label,
    soliton_residual,
    stratum_label,
)
from bracketflow import brackets, experiments
from bracketflow.errors import IdentityViolation, ZeroBracket
from bracketflow.experiments import run_uniqueness_experiment
from bracketflow.solitons import SolitonKind

from oracles import random_orthogonal


class TestCertificates:
    def test_h3(self, mu_h3):
        cert = soliton_residual(mu_h3)
        assert cert.kind == SolitonKind.NONTRIVIAL
        assert cert.c == pytest.approx(-1.5, abs=1e-12)
        np.testing.assert_allclose(cert.D, np.diag([1.0, 1, 2]), atol=1e-10)
        assert cert.residual <= 1e-12

    def test_s31_einstein(self, mu_s31):
        cert = soliton_residual(mu_s31)
        assert cert.kind == SolitonKind.EINSTEIN
        assert cert.c == pytest.approx(-2.0, abs=1e-12)
        assert np.linalg.norm(cert.D) <= 1e-10

    def test_s3_not_soliton(self, mu_s3):
        cert = soliton_residual(mu_s3)
        assert cert.kind == SolitonKind.NOT_SOLITON
        assert cert.residual > 0.1

    def test_s3_lambda_family(self):
        # Ric = c Id + D with c = -(1 + lam^2), D = diag(0, lam^2-lam, 1-lam).
        for lam in (0.5, -0.5, 0.0):
            cert = soliton_residual(catalog("s3_lambda", lam=lam).bracket)
            assert cert.kind in (SolitonKind.NONTRIVIAL, SolitonKind.EINSTEIN)
            assert cert.c == pytest.approx(-(1.0 + lam**2), abs=1e-10)
            np.testing.assert_allclose(
                cert.D, np.diag([0.0, lam**2 - lam, 1.0 - lam]), atol=1e-10
            )

    def test_spiral_family_einstein(self):
        cert = soliton_residual(catalog("s3_lambda_prime", lam=0.7).bracket)
        assert cert.kind == SolitonKind.EINSTEIN
        assert cert.c == pytest.approx(-2.0 * 0.7**2, abs=1e-10)

    def test_heisenberg_five(self, mu_heis5):
        cert = soliton_residual(mu_heis5)
        assert cert.kind == SolitonKind.NONTRIVIAL
        d_eigs = np.sort(np.linalg.eigvalsh(cert.D))
        ratios = d_eigs / d_eigs[0]
        np.testing.assert_allclose(ratios, [1.0, 1, 1, 1, 2], atol=1e-9)

    def test_equivariance_of_residual(self, mu_s3, rng):
        k = random_orthogonal(rng, 3)
        a = soliton_residual(mu_s3).residual
        b = soliton_residual(act(k, mu_s3)).residual
        assert a == pytest.approx(b, abs=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(ZeroBracket):
            soliton_residual(BracketTensor.zero(3))


class TestNormalization:
    def test_h3(self, mu_h3):
        norm = normalize_soliton(mu_h3, soliton_residual(mu_h3))
        pack = curvature_pack(norm)
        assert pack.scalStar == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(pack.RicStar, np.diag([-1.0, -1, 1]), atol=1e-12)
        # beta+ = Ric* + 3 Id = diag(2,2,4); on a nilpotent algebra the image
        # is everything, matching nilradical = whole space.
        beta_plus = pack.RicStar + 3.0 * np.eye(3)
        np.testing.assert_allclose(beta_plus, np.diag([2.0, 2, 4]), atol=1e-12)
        assert np.linalg.norm(pi_action(beta_plus, norm).coeffs) <= 1e-12

    def test_hyperbolic(self, mu_s31):
        norm = normalize_soliton(mu_s31, soliton_residual(mu_s31))
        pack = curvature_pack(norm)
        np.testing.assert_allclose(pack.RicStar, np.diag([-1.0, 0, 0]), atol=1e-12)
        beta_plus = pack.RicStar + np.eye(3)
        np.testing.assert_allclose(beta_plus, np.diag([0.0, 1, 1]), atol=1e-12)
        # image of beta+ is the nilradical span(e2, e3)
        n_basis, _, _ = nilradical(norm)
        np.testing.assert_allclose(n_basis @ n_basis.T, np.diag([0.0, 1, 1]), atol=1e-10)

    def test_idempotent(self, mu_h3):
        once = normalize_soliton(mu_h3, soliton_residual(mu_h3))
        twice = normalize_soliton(once, soliton_residual(once))
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-15)

    def test_rejects_non_soliton(self, mu_s3):
        with pytest.raises(IdentityViolation):
            normalize_soliton(mu_s3, soliton_residual(mu_s3))


class TestConstructCritical:
    def test_h3_killing_free_case(self, mu_h3):
        norm = normalize_soliton(mu_h3, soliton_residual(mu_h3))
        label = stratum_label(norm)
        crit = construct_critical(norm, label)
        np.testing.assert_allclose(crit.coeffs, norm.coeffs, atol=1e-12)
        np.testing.assert_allclose(moment_map_fast(crit), np.diag([-1.0, -1, 1]), atol=1e-10)

    def test_hyperbolic_block_rescale(self, mu_s31):
        norm = normalize_soliton(mu_s31, soliton_residual(mu_s31))
        label = stratum_label(norm)
        np.testing.assert_allclose(killing_matrix(norm), np.diag([1.0, 0, 0]), atol=1e-12)
        crit = construct_critical(norm, label)
        np.testing.assert_allclose(moment_map_fast(crit), np.diag([-1.0, 0, 0]), atol=1e-8)
        # h rescales e1 by 2^{-1/2}: the output is mu_s31 itself.
        np.testing.assert_allclose(ad_map(crit, [1.0, 0, 0]), np.diag([0.0, 1, 1]), atol=1e-10)

    def test_s3l_family(self):
        mu = catalog("s3_lambda", lam=0.5).bracket
        norm = normalize_soliton(mu, soliton_residual(mu))
        aligned, label = soliton_label(norm)
        crit = construct_critical(aligned, label)
        np.testing.assert_allclose(moment_map_fast(crit), label.beta, atol=1e-8)

    def test_rotation_equivariance_up_to_orthogonal(self, mu_s31, rng):
        norm = normalize_soliton(mu_s31, soliton_residual(mu_s31))
        label = stratum_label(norm)
        crit = construct_critical(norm, label)
        k = random_orthogonal(rng, 3)
        rotated = act(k, norm)
        aligned, label_r = soliton_label(rotated)
        crit_r = construct_critical(aligned, label_r)
        assert fingerprint_distance(fingerprint(crit), fingerprint(crit_r)) <= 1e-8


class TestStructuralIdentities:
    @pytest.fixture(params=["s3_lambda:1.0", "s3_lambda:0.5", "s3_lambda_prime:0.7"])
    def certified(self, request):
        name, lam = request.param.split(":")
        mu = catalog(name, lam=float(lam)).bracket
        cert = soliton_residual(mu)
        assert cert.kind != SolitonKind.NOT_SOLITON
        return mu

    def test_normal_operators(self, certified):
        _, a_basis, rank = nilradical(certified)
        for i in range(rank):
            ad_y = ad_map(certified, a_basis[:, i])
            comm = ad_y @ ad_y.T - ad_y.T @ ad_y
            assert np.linalg.norm(comm) <= 1e-8

    def test_block_orthogonality(self, certified):
        n_basis, a_basis, rank = nilradical(certified)
        for i in range(rank):
            ad_y = ad_map(certified, a_basis[:, i])
            for j in range(n_basis.shape[1]):
                ad_x = ad_map(certified, n_basis[:, j])
                assert abs(np.sum(ad_y * ad_x)) <= 1e-8

    def test_moment_block_identities(self, certified):
        pack = curvature_pack(certified)
        m = pack.M
        n_basis, a_basis, rank = nilradical(certified)
        for i in range(rank):
            y = a_basis[:, i]
            ad_y = ad_map(certified, y)
            assert float(y @ m @ y) == pytest.approx(
                -0.5 * float(np.sum(ad_y * ad_y)), abs=1e-8
            )
            for j in range(n_basis.shape[1]):
                assert abs(float(y @ m @ n_basis[:, j])) <= 1e-8


class TestFingerprints:
    def test_orthogonal_invariance(self, mu_h3, rng):
        k = random_orthogonal(rng, 3)
        assert fingerprint_distance(fingerprint(mu_h3), fingerprint(act(k, mu_h3))) <= 1e-10
        assert same_orbit_on(fingerprint(mu_h3), fingerprint(act(k, mu_h3)))

    def test_different_limits_distinguished(self, mu_h3, mu_s31):
        a = fingerprint(normalize_soliton(mu_h3, soliton_residual(mu_h3)))
        b = fingerprint(normalize_soliton(mu_s31, soliton_residual(mu_s31)))
        assert fingerprint_distance(a, b) == float("inf")
        assert not same_orbit_on(a, b)

    def test_zero_bracket_fingerprint(self):
        fp = fingerprint(BracketTensor.zero(3))
        assert fp.scal == 0.0 and fp.derived_dims == (3, 0)

    def test_one_derived_series_per_fingerprint(self, monkeypatch):
        # The nilradical and the derived dimensions come from one series, and
        # agree with the separate public queries on the catalog and on the
        # limits of a uniqueness run.
        calls, seen = [], []
        series = brackets._descending_series

        def counting_series(mu, central):
            calls.append(central)
            return series(mu, central)

        def recording(mu):
            calls.clear()
            fp = fingerprint(mu)
            seen.append((mu, fp, list(calls)))
            return fp

        monkeypatch.setattr(brackets, "_descending_series", counting_series)
        monkeypatch.setattr(experiments, "fingerprint", recording)
        run_uniqueness_experiment(catalog("s3_lambda", lam=0.5), 5, t_end=100.0, seed=0)
        for name, kw in (("s3", {}), ("h3", {}), ("e2", {}), ("s3_lambda", {"lam": 0.5}),
                         ("s3_lambda_prime", {"lam": 1.0}), ("heisenberg", {"dim": 5}),
                         ("abelian", {"dim": 4})):
            recording(catalog(name, **kw).bracket)
        monkeypatch.undo()
        assert len(seen) == 12
        for mu, fp, series_calls in seen:
            assert series_calls == [False]
            assert fp.nilradical_dim == mu.dim - nilradical(mu)[2]
            assert fp.derived_dims == tuple(derived_series(mu))
            assert fingerprint(mu).as_vector().tobytes() == fp.as_vector().tobytes()


class TestSolitonLabel:
    def test_alignment_of_offsorted_soliton(self):
        mu = BracketTensor.from_entries(4, [(1, 2, 3, 1.0)])  # h3 + R line
        norm = normalize_soliton(mu, soliton_residual(mu))
        aligned, label = soliton_label(norm)
        np.testing.assert_allclose(label.eigenvalues, [-1.0, -1, 0, 1], atol=1e-10)
        # aligned bracket has Ric* equal to the diagonal label
        np.testing.assert_allclose(
            curvature_pack(aligned).RicStar, label.beta, atol=1e-10
        )

    def test_agrees_with_energy_flow_label(self, mu_h3):
        norm = normalize_soliton(mu_h3, soliton_residual(mu_h3))
        _, label = soliton_label(norm)
        from bracketflow import same_label

        assert same_label(label, stratum_label(mu_h3))
