import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given

from bracketflow import (
    BracketTensor,
    act,
    curvature_pack,
    moment_map_fast,
    pi_action,
)
from bracketflow.catalog import random_solvable_bracket
from bracketflow.errors import NotALieBracket, ZeroBracket

from oracles import (
    DIM,
    PROPERTY,
    SEED,
    lie_bracket,
    moment_map,
    oracle_ricci,
    random_antisymmetric_bracket,
    random_orthogonal,
    scalstar_first_variation,
)


class TestMomentMap:
    def test_h3_value(self, mu_h3):
        np.testing.assert_allclose(moment_map(mu_h3), np.diag([-1.0, -1, 1]), atol=1e-14)

    def test_scale_invariance(self, mu_h3):
        np.testing.assert_allclose(
            moment_map(mu_h3.scaled(2.0)), moment_map(mu_h3), atol=1e-13
        )

    @PROPERTY
    @given(seed=SEED, dim=DIM)
    def test_orthogonal_equivariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        mu = random_antisymmetric_bracket(rng, dim)
        k = random_orthogonal(rng, dim)
        lhs = moment_map(act(k, mu))
        rhs = k @ moment_map(mu) @ k.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_trace_is_minus_one(self, rng):
        for _ in range(50):
            mu = random_antisymmetric_bracket(rng, int(rng.integers(3, 7)))
            assert np.trace(moment_map_fast(mu)) == pytest.approx(-1.0, abs=1e-12)

    def test_assembled_equals_fast(self, rng):
        for _ in range(10):
            mu = random_antisymmetric_bracket(rng, 4)
            np.testing.assert_allclose(moment_map(mu), moment_map_fast(mu), atol=1e-12)

    def test_defining_pairing(self, rng):
        # <m(mu), A> ||mu||^2 = <pi(A)mu, mu> for symmetric A.
        mu = random_antisymmetric_bracket(rng, 4)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        lhs = float(np.sum(moment_map(mu) * a)) * mu.norm_sq
        rhs = pi_action(a, mu).inner(mu)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_zero_bracket_rejected(self):
        with pytest.raises(ZeroBracket):
            moment_map(BracketTensor.zero(3))


class TestCurvaturePack:
    def test_h3(self, mu_h3):
        p = curvature_pack(mu_h3)
        np.testing.assert_allclose(p.Ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
        assert not np.any(p.K) and not np.any(p.H)
        assert p.scal == pytest.approx(-0.5)
        np.testing.assert_allclose(p.RicStar, p.Ric, atol=1e-14)

    def test_s31_einstein(self, mu_s31):
        p = curvature_pack(mu_s31)
        np.testing.assert_allclose(p.Ric, -2.0 * np.eye(3), atol=1e-14)
        np.testing.assert_allclose(p.K, np.diag([2.0, 0, 0]), atol=1e-14)
        np.testing.assert_allclose(p.H, [2.0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(p.RicStar, np.diag([-2.0, 0, 0]), atol=1e-14)
        assert p.scalStar == pytest.approx(-2.0)

    def test_e2_flat(self, mu_e2):
        p = curvature_pack(mu_e2)
        np.testing.assert_allclose(p.Ric, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(p.K, np.diag([-2.0, 0, 0]), atol=1e-14)
        assert not np.any(p.H)

    def test_zero_bracket_flat_pack(self):
        p = curvature_pack(BracketTensor.zero(4))
        assert p.scal == 0.0 and p.normSq == 0.0 and not np.any(p.Ric)

    def test_requires_lie(self, rng):
        bad = BracketTensor.from_entries(3, [(1, 2, 3, 1.0), (1, 3, 1, 1.0), (2, 3, 2, 1.0)])
        with pytest.raises(NotALieBracket):
            curvature_pack(bad)

    def test_trace_identity(self, rng):
        # tr M = -||mu||^2 / 4 exactly under the pair-counting convention.
        for _ in range(20):
            mu = random_antisymmetric_bracket(rng, 4)
            p_m = moment_map_fast(mu) * mu.norm_sq / 4.0
            assert np.trace(p_m) == pytest.approx(-0.25 * mu.norm_sq, rel=1e-12)

    def test_scaling_laws(self, mu_s3):
        base = curvature_pack(mu_s3)
        for c in (0.5, 2.0, 10.0):
            p = curvature_pack(mu_s3.scaled(c))
            np.testing.assert_allclose(p.Ric, c**2 * base.Ric, rtol=1e-10)
            np.testing.assert_allclose(p.K, c**2 * base.K, rtol=1e-10)
            np.testing.assert_allclose(p.RicStar, c**2 * base.RicStar, rtol=1e-10)

    @PROPERTY
    @given(seed=SEED, dim=DIM)
    def test_orthogonal_equivariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        mu = lie_bracket(rng, dim)
        if mu is None:
            return
        k = random_orthogonal(rng, dim)
        p0 = curvature_pack(mu)
        p1 = curvature_pack(act(k, mu))
        for a, b in ((p1.Ric, p0.Ric), (p1.K, p0.K), (p1.M, p0.M), (p1.RicStar, p0.RicStar)):
            np.testing.assert_allclose(a, k @ b @ k.T, atol=1e-10)

    def test_nilpotent_killing_and_mean_curvature_vanish(self, mu_heis5):
        p = curvature_pack(mu_heis5)
        assert np.linalg.norm(p.K) <= 1e-14
        assert np.linalg.norm(p.H) <= 1e-14
        np.testing.assert_allclose(p.Ric, p.M, atol=1e-14)

    def test_symmetry(self, rng):
        mu = random_solvable_bracket(rng, 5)
        p = curvature_pack(mu)
        for mat in (p.M, p.K, p.Ric, p.RicStar):
            assert np.linalg.norm(mat - mat.T) <= 1e-10 * (1.0 + np.linalg.norm(mat))

    def test_scalstar_negative_for_nonflat_solvable(self, catalog_three_dim, rng):
        for entry in catalog_three_dim:
            if entry.name == "e2":
                continue
            assert curvature_pack(entry.bracket).scalStar < 0
        for _ in range(10):
            mu = random_solvable_bracket(rng, 4)
            p = curvature_pack(mu)
            if np.linalg.norm(p.Ric) > 1e-8:
                assert p.scalStar < 0


class TestOracle:
    def test_fixed_values(self, mu_h3, mu_e2):
        np.testing.assert_allclose(oracle_ricci(mu_h3), np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
        np.testing.assert_allclose(oracle_ricci(mu_e2), np.zeros((3, 3)), atol=1e-14)
        assert not np.any(oracle_ricci(BracketTensor.zero(3)))

    def test_equivalence_on_random_solvable(self, rng):
        for _ in range(30):
            dim = int(rng.integers(3, 7))
            mu = random_solvable_bracket(rng, dim)
            ric = curvature_pack(mu).Ric
            orc = oracle_ricci(mu)
            assert np.linalg.norm(ric - orc) <= 1e-9 * (1.0 + np.linalg.norm(ric))


class TestScalStarVariation:
    def test_s31_identity_direction(self, mu_s31):
        assert scalstar_first_variation(mu_s31, np.eye(3)) == pytest.approx(4.0)

    def test_finite_difference_match(self, rng):
        mu = random_solvable_bracket(rng, 4)
        a = rng.standard_normal((4, 4))
        step = 1e-5
        plus = curvature_pack(act(sla.expm(step * a), mu)).scalStar
        minus = curvature_pack(act(sla.expm(-step * a), mu)).scalStar
        fd = (plus - minus) / (2.0 * step)
        assert scalstar_first_variation(mu, a) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_skew_direction_vanishes(self, mu_h3):
        skew = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert scalstar_first_variation(mu_h3, skew) == pytest.approx(0.0, abs=1e-14)
