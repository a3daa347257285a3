import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketflow
from bracketflow import (
    BracketTensor,
    act,
    catalog,
    classify_type,
    is_flat_bracket,
    nilradical,
    phi,
    psi,
    sigma_a,
)
from bracketflow.brackets import DIM_CAP, ad_map
from bracketflow.catalog import almost_abelian, random_solvable_bracket
from bracketflow.errors import NilpotentInput, NotSolvable, SingularGauge
from bracketflow.spectral import AlgebraType
import scipy.linalg as sla


class TestPhiPsi:
    def test_s3(self, mu_s3):
        assert phi(mu_s3, [1.0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert psi(mu_s3, [1.0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_e2(self, mu_e2):
        assert phi(mu_e2, [1.0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert psi(mu_e2, [1.0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_direction(self, mu_s3):
        assert phi(mu_s3, [0.0, 0, 0]) == 0.0
        assert psi(mu_s3, [0.0, 0, 0]) == 0.0

    def test_homogeneity(self, mu_s3, rng):
        x = rng.standard_normal(3)
        assert phi(mu_s3, 3.0 * x) == pytest.approx(3.0 * phi(mu_s3, x), rel=1e-10)
        assert psi(mu_s3, 3.0 * x) == pytest.approx(3.0 * psi(mu_s3, x), rel=1e-10)

    @pytest.mark.parametrize(
        "name,lam,tol",
        [
            ("s3_lambda", 0.5, 1e-8),  # distinct ad-eigenvalues: O(eps) stable
            ("s3", None, 1e-6),  # defective Jordan block: sqrt(eps) sensitivity
        ],
    )
    def test_gauge_law(self, rng, name, lam, tol):
        # phi(h.mu, X) = phi(mu, (h^-1 X)_a) with a = nilradical complement.
        mu = catalog(name, lam=lam).bracket
        _, a_basis, _ = nilradical(mu)
        proj = a_basis @ a_basis.T
        for _ in range(5):
            h = sla.expm(0.4 * rng.standard_normal((3, 3)))
            x = rng.standard_normal(3)
            moved = act(h, mu)
            pulled = proj @ np.linalg.solve(h, x)
            assert phi(moved, x) == pytest.approx(phi(mu, pulled), abs=tol)
            assert psi(moved, x) == pytest.approx(psi(mu, pulled), abs=tol)


class TestSigmaA:
    def test_s31(self, mu_s31):
        value, witness = sigma_a(mu_s31)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert abs(witness[0]) == pytest.approx(1.0, abs=1e-9)

    def test_e2_vanishes(self, mu_e2):
        value, _ = sigma_a(mu_e2)
        assert value <= 1e-9

    def test_spiral_family(self):
        mu = catalog("s3_lambda_prime", lam=0.3).bracket
        value, _ = sigma_a(mu)
        assert value == pytest.approx(0.3, abs=1e-8)

    def test_nilpotent_rejected(self, mu_h3):
        with pytest.raises(NilpotentInput):
            sigma_a(mu_h3)

    def test_rank_two_diagonal(self):
        # ad(e1) = diag(1, 0), ad(e2) = diag(0, 1) on span{e3, e4}: phi(x) =
        # max(|x1|, |x2|), so sigma_a = 1/sqrt(2), and Q_R = x1^2 + x2^2 has
        # lambda_min = 1, whose certified lower bound is sqrt(1/4) = 1/2.
        mu = BracketTensor.from_entries(4, [(1, 3, 3, 1.0), (2, 4, 4, 1.0)])
        report = classify_type(mu)
        assert report.kind == AlgebraType.REAL
        assert report.rank == 2
        value, witness = sigma_a(mu)
        assert 1.0 / np.sqrt(2.0) - 1e-12 <= value <= 1.0 + 1e-12
        assert np.linalg.norm(witness[2:]) <= 1e-12
        assert report.sigma_a == pytest.approx(value, abs=1e-15)


class TestClassify:
    def test_catalog_kinds(self, mu_h3, mu_e2, mu_s3):
        assert classify_type(mu_h3).kind == AlgebraType.NILPOTENT
        report = classify_type(mu_e2)
        assert report.kind == AlgebraType.IMAGINARY
        assert report.confidence == "exact"
        assert classify_type(mu_s3).kind == AlgebraType.REAL
        assert classify_type(BracketTensor.zero(3)).kind == AlgebraType.ABELIAN

    def test_mixed_type(self):
        # e(2) + aff(R): sigma_a = 0 at the rotation direction but phi > 0
        # along the affine one; neither pure type.
        mu = BracketTensor.from_entries(
            5, [(1, 2, 3, -1.0), (1, 3, 2, 1.0), (4, 5, 5, 1.0)]
        )
        report = classify_type(mu)
        assert report.kind == AlgebraType.MIXED
        assert report.rank == 2

    def test_non_solvable_rejected(self):
        so3 = BracketTensor.from_entries(3, [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (1, 3, 2, -1.0)])
        with pytest.raises(NotSolvable):
            classify_type(so3)

    def test_real_type_bound_constant(self, mu_s3, rng):
        # psi <= C phi on the unit sphere of a, with C = psi_max / sigma_a.
        value, _ = sigma_a(mu_s3)
        _, a_basis, _ = nilradical(mu_s3)
        samples = [a_basis @ d for d in rng.standard_normal((50, a_basis.shape[1]))]
        samples = [x / np.linalg.norm(x) for x in samples]
        psi_max = max(psi(mu_s3, x) for x in samples)
        c = psi_max / value
        for x in samples:
            assert psi(mu_s3, x) <= c * phi(mu_s3, x) + 1e-10

    def test_openness_under_small_perturbations(self, mu_s3, rng):
        # rank-preserving perturbations: gauges and ad-matrix entries.
        for _ in range(5):
            h = np.eye(3) + 1e-3 * rng.standard_normal((3, 3))
            assert classify_type(act(h, mu_s3)).kind == AlgebraType.REAL
        for _ in range(5):
            t = np.array([[1.0, 0.0], [1.0, 1.0]]) + 1e-3 * rng.standard_normal((2, 2))
            assert classify_type(almost_abelian(t)).kind == AlgebraType.REAL

    def test_degenerating_family_not_open_without_rank(self, mu_e2):
        # Gauges of e(2) stay imaginary type while their limit is nilpotent:
        # real type is not an open condition across rank drops.
        for s in (2.0, 5.0, 10.0):
            moved = act(np.diag([s, 1.0, s]), mu_e2)
            assert classify_type(moved).kind == AlgebraType.IMAGINARY
        limit = BracketTensor.from_entries(3, [(1, 2, 3, -1.0)])
        assert classify_type(limit).kind == AlgebraType.NILPOTENT


class TestFlat:
    def test_catalog_values(self, mu_e2, mu_h3):
        assert is_flat_bracket(mu_e2)
        assert not is_flat_bracket(mu_h3)
        assert is_flat_bracket(BracketTensor.zero(3))

    def test_structural_cross_check(self, mu_e2, rng):
        # Flat iff imaginary type with abelian nilradical; check on a gauge
        # orbit representative that is flat (the catalog bracket itself).
        report = classify_type(mu_e2)
        n_basis, _, _ = nilradical(mu_e2)
        products = [
            mu_e2.apply(n_basis[:, i], n_basis[:, j])
            for i in range(n_basis.shape[1])
            for j in range(n_basis.shape[1])
        ]
        assert report.kind == AlgebraType.IMAGINARY
        assert max(np.linalg.norm(v) for v in products) <= 1e-12

    def test_gauged_e2_not_flat(self, mu_e2):
        moved = act(np.diag([1.0, 1.0, 1.5]), mu_e2)
        assert not is_flat_bracket(moved)
        assert classify_type(moved).kind == AlgebraType.IMAGINARY


def _rank_two_real(rng, dim):
    """e1, e2 act on the abelian ideal span{e3..en} by independent diagonals."""
    d1, d2 = rng.standard_normal((2, dim - 2))
    entries = [(1, 3 + k, 3 + k, d1[k]) for k in range(dim - 2)]
    entries += [(2, 3 + k, 3 + k, d2[k]) for k in range(dim - 2)]
    return BracketTensor.from_entries(dim, entries)


def _qr_gram(mu, a_basis):
    """Oracle: Gram of Q_R(x) = sum (Re eig ad x)^2, polarized from direct eigenvalues."""

    def q(x):
        return float(np.sum(np.real(np.linalg.eigvals(ad_map(mu, x))) ** 2))

    r = a_basis.shape[1]
    gram = np.diag([q(a_basis[:, i]) for i in range(r)])
    for i in range(r):
        for j in range(i + 1, r):
            mixed = q(a_basis[:, i] + a_basis[:, j]) - gram[i, i] - gram[j, j]
            gram[i, j] = gram[j, i] = 0.5 * mixed
    return gram


_PROPERTY = settings(max_examples=40, deadline=None, database=None)


class TestTypeProperties:
    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 8))
    def test_kind_is_gauge_invariant(self, seed, dim):
        rng = np.random.default_rng(seed)
        try:
            mu = random_solvable_bracket(rng, dim)
        except SingularGauge:
            return
        h = sla.expm(0.3 * rng.standard_normal((dim, dim)))
        assert classify_type(act(h, mu)).kind == classify_type(mu).kind

    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 8), rank_two=st.booleans())
    def test_sigma_a_certified_interval(self, seed, dim, rank_two):
        # phi^2 <= Q_R <= n phi^2 on a, so every unit x in a has
        # phi(x) >= sqrt(lambda_min / n), and sigma_a's attained value lies in
        # [sqrt(lambda_min / n), sqrt(lambda_min)].
        rng = np.random.default_rng(seed)
        try:
            mu = _rank_two_real(rng, dim) if rank_two else random_solvable_bracket(rng, dim)
        except SingularGauge:
            return
        report = classify_type(mu)
        if report.kind != AlgebraType.REAL:
            return
        _, a_basis, rank = nilradical(mu)
        lam_min = float(np.linalg.eigvalsh(_qr_gram(mu, a_basis))[0])
        lower, upper = np.sqrt(lam_min / dim), np.sqrt(lam_min)
        slack = 1e-9 * (1.0 + mu.norm)
        for d in rng.standard_normal((50, rank)):
            x = a_basis @ (d / np.linalg.norm(d))
            assert phi(mu, x) >= lower - slack
        value, _ = sigma_a(mu)
        assert lower - slack <= value <= upper + slack


class TestBoundedTimeAtDimCap:
    def test_rotation_bracket_is_imaginary(self):
        t = np.zeros((DIM_CAP - 1, DIM_CAP - 1))
        for b in range((DIM_CAP - 1) // 2):
            t[2 * b, 2 * b + 1], t[2 * b + 1, 2 * b] = 1.0 + b, -1.0 - b
        start = time.perf_counter()
        report = classify_type(almost_abelian(t))
        assert report.kind == AlgebraType.IMAGINARY
        assert report.confidence == "exact"
        assert time.perf_counter() - start < 10.0

    def test_random_solvable_is_real(self):
        rng = np.random.default_rng(16)
        for _ in range(10):  # the generator's gauge is singular on a few % of draws
            try:
                mu = random_solvable_bracket(rng, DIM_CAP)
                break
            except SingularGauge:
                continue
        start = time.perf_counter()
        assert classify_type(mu).kind == AlgebraType.REAL
        assert time.perf_counter() - start < 10.0


def test_import_leaves_out_scipy_optimize():
    src = Path(bracketflow.__file__).resolve().parent.parent
    code = "import bracketflow, sys; sys.exit('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
