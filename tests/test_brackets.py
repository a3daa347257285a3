import json
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st

from bracketflow import (
    BracketTensor,
    act,
    ad_map,
    bracket_from_dict,
    bracket_to_dict,
    derivation_space,
    derived_series,
    is_nilpotent,
    is_solvable,
    jacobi_residual,
    load_bracket,
    nilradical,
    pi_action,
    save_bracket,
)
from bracketflow.brackets import act_apply, bracket_stack
from bracketflow.errors import NotSolvable, SingularGauge
from bracketflow.catalog import random_solvable_bracket

from oracles import (
    DIM,
    PROPERTY,
    SEED,
    draw_bracket,
    pi_matrix,
    random_antisymmetric_bracket,
    random_orthogonal,
)


def brute_force_jacobi(mu):
    """Independent cyclic-sum evaluation over all basis triples."""
    n = mu.dim
    total = 0.0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                ex, ey, ez = np.eye(n)[x], np.eye(n)[y], np.eye(n)[z]
                v = (
                    mu.apply(mu.apply(ex, ey), ez)
                    + mu.apply(mu.apply(ey, ez), ex)
                    + mu.apply(mu.apply(ez, ex), ey)
                )
                total += float(v @ v)
    return np.sqrt(total)


class TestConstruction:
    def test_inner_product_convention(self, mu_h3):
        # mu(e1,e2) = e3 has squared norm 2 under the ordered-pair convention.
        assert mu_h3.norm_sq == 2.0

    def test_antisymmetry_enforced(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0  # missing the (1,0,2) = -1 partner
        with pytest.raises(ValueError):
            BracketTensor(c)
        mu = BracketTensor(c, antisymmetrize=True)
        assert mu.coeffs[0, 1, 2] == 0.5
        assert mu.coeffs[1, 0, 2] == -0.5

    def test_an_antisymmetric_slice_keeps_its_signed_zeros(self, mu_s3):
        # -c has -0 on every zero entry, c[i, i, k] included; 0.5 (c - c^T) would
        # turn those into +0, so only an array with a symmetric part is projected.
        # bracket_stack projects nothing: its stacks are antisymmetric by construction.
        neg = -mu_s3.coeffs
        assert np.signbit(neg[0, 0, 0]) and np.signbit(neg[1, 2, 0])
        assert BracketTensor(neg).coeffs.tobytes() == neg.tobytes()
        _, items = bracket_stack(np.stack([neg, 2.0 * neg]))
        assert [mu.coeffs.tobytes() for mu in items] == [neg.tobytes(), (2.0 * neg).tobytes()]

    def test_validation_leaves_its_input_unchanged(self, mu_s3):
        c = mu_s3.coeffs.copy()
        mu = BracketTensor(c)
        assert c.flags.writeable and mu.coeffs is not c and not mu.coeffs.flags.writeable
        c[0, 1, 2] = 5.0
        assert mu.coeffs[0, 1, 2] != 5.0

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            BracketTensor(np.zeros((17, 17, 17)))

    def test_from_entries_range_check(self):
        with pytest.raises(ValueError):
            BracketTensor.from_entries(3, [(2, 1, 3, 1.0)])

    @pytest.mark.parametrize("v, message", [
        (1e308, "largest |coefficient| 1.000e+308 exceeds the cap 1e+25"),
        (float("inf"), "structure constants must be finite"),
        (float("nan"), "structure constants must be finite"),
    ])
    def test_from_entries_checks_each_value_as_read(self, v, message):
        # Two entries at one index add up; each is checked before the sum, so
        # the sum cannot overflow (a RuntimeWarning would fail the suite).
        with pytest.raises(ValueError) as got:
            BracketTensor.from_entries(3, [(1, 2, 3, v), (1, 2, 3, v)])
        assert str(got.value) == message
        summed = BracketTensor.from_entries(3, [(1, 2, 3, 0.5e25), (1, 2, 3, 0.5e25)])
        assert summed.coeffs[0, 1, 2] == 1e25


class TestJacobi:
    def test_h3_is_lie(self, mu_h3):
        assert jacobi_residual(mu_h3) == 0.0

    def test_zero_bracket(self):
        assert jacobi_residual(BracketTensor.zero(3)) == 0.0

    def test_perturbed_bracket_positive(self):
        mu = BracketTensor.from_entries(
            3, [(1, 2, 3, 1.0), (1, 3, 1, 1.0), (2, 3, 2, 1.0)]
        )
        res = jacobi_residual(mu)
        assert res > 0.1
        assert res == pytest.approx(brute_force_jacobi(mu), rel=1e-12)

    def test_matches_brute_force_on_random(self, rng):
        for _ in range(5):
            mu = random_antisymmetric_bracket(rng, 4)
            assert jacobi_residual(mu) == pytest.approx(brute_force_jacobi(mu), rel=1e-10)


class TestAction:
    def test_identity_acts_trivially(self, mu_h3):
        out = act(np.eye(3), mu_h3)
        np.testing.assert_allclose(out.coeffs, mu_h3.coeffs, atol=1e-15)

    def test_diagonal_rescaling(self, mu_h3):
        out = act(np.diag([2.0, 1.0, 1.0]), mu_h3)
        assert out.coeffs[0, 1, 2] == pytest.approx(0.5)

    def test_orthogonal_preserves_jacobi(self, mu_h3, rng):
        k = random_orthogonal(rng, 3)
        assert jacobi_residual(act(k, mu_h3)) <= 1e-14

    def test_group_law(self, rng):
        mu = random_antisymmetric_bracket(rng, 4)
        h1 = sla.expm(0.3 * rng.standard_normal((4, 4)))
        h2 = sla.expm(0.3 * rng.standard_normal((4, 4)))
        lhs = act(h1 @ h2, mu)
        rhs = act(h1, act(h2, mu))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    def test_singular_gauge(self, mu_h3):
        with pytest.raises(SingularGauge):
            act(np.diag([1.0, 1.0, 0.0]), mu_h3)

    def test_a_well_conditioned_gauge_is_not_singular(self, rng):
        # Condition number 100 at n = 15: |det h| = 1e15 lies below 1e-12 ||h||_2^15 =
        # 1e18, which a rule on the determinant would reject, but sigma_min / sigma_max =
        # 0.01 is far above n eps.
        h = np.diag(np.geomspace(1.0, 100.0, 15))
        mu = random_antisymmetric_bracket(rng, 15)
        assert abs(np.linalg.det(h)) < 1e-12 * np.linalg.norm(h, 2) ** 15
        assert act(h, mu).coeffs.tobytes() == BracketTensor(
            act_apply(h, mu.coeffs), antisymmetrize=True).coeffs.tobytes()

    @pytest.mark.parametrize("ratio", [0.0, 1e-16])
    def test_singular_gauge_message(self, mu_h3, ratio):
        with pytest.raises(SingularGauge, match=re.escape(
                f"h is singular: sigma_min / sigma_max = {ratio:.3e} <= n eps")):
            act(np.diag([1.0, 1.0, ratio]), mu_h3)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_a_gauge_entry_that_is_not_finite_raises_before_the_svd(self, mu_h3, entry):
        with pytest.raises(SingularGauge, match=re.escape(
                f"h has the entry {entry}, which is not finite")):
            act(np.diag([1.0, entry, 1.0]), mu_h3)

    def test_orthogonal_action_preserves_norm(self, rng):
        mu = random_antisymmetric_bracket(rng, 5)
        k = random_orthogonal(rng, 5)
        assert act(k, mu).norm == pytest.approx(mu.norm, abs=1e-12)


class TestPiAction:
    def test_identity_gives_minus_mu(self, mu_h3):
        out = pi_action(np.eye(3), mu_h3)
        np.testing.assert_allclose(out.coeffs, -mu_h3.coeffs, atol=1e-15)

    def test_weight_vector_on_h3(self, mu_h3):
        out = pi_action(np.diag([-1.0, -1.0, 1.0]), mu_h3)
        np.testing.assert_allclose(out.coeffs, 3.0 * mu_h3.coeffs, atol=1e-15)

    def test_zero_bracket(self, rng):
        a = rng.standard_normal((3, 3))
        assert pi_action(a, BracketTensor.zero(3)).is_zero

    def test_representation_identity(self, rng):
        # pi([A,B]) = pi(A)pi(B) - pi(B)pi(A) applied to random brackets.
        for _ in range(10):
            mu = random_antisymmetric_bracket(rng, 4)
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            lhs = pi_action(a @ b - b @ a, mu).coeffs
            rhs = (
                pi_action(a, pi_action(b, mu)).coeffs
                - pi_action(b, pi_action(a, mu)).coeffs
            )
            bound = 1e-10 * (
                1.0 + np.linalg.norm(a) * np.linalg.norm(b) * mu.norm
            )
            assert np.linalg.norm(lhs - rhs) <= bound

    def test_act_matches_pi_exponential(self, rng):
        # exp of the linear map pi(A) on tensors equals the action of exp(A).
        mu = random_antisymmetric_bracket(rng, 3)
        a = 0.4 * rng.standard_normal((3, 3))
        lhs = act(sla.expm(a), mu).coeffs.ravel()
        rhs = sla.expm(pi_matrix(a, 3)) @ mu.coeffs.ravel()
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestAdMap:
    def test_s31_basis_action(self, mu_s31):
        np.testing.assert_allclose(ad_map(mu_s31, [1.0, 0, 0]), np.diag([0.0, 1, 1]))

    def test_h3_center(self, mu_h3):
        assert not np.any(ad_map(mu_h3, [0.0, 0, 1]))

    def test_conjugation_law(self, rng):
        mu = random_antisymmetric_bracket(rng, 4)
        h = sla.expm(0.3 * rng.standard_normal((4, 4)))
        x = rng.standard_normal(4)
        moved = act(h, mu)
        lhs = ad_map(moved, x)
        rhs = h @ ad_map(mu, np.linalg.solve(h, x)) @ np.linalg.inv(h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestStructure:
    def test_derived_series(self, mu_h3, mu_s31):
        assert derived_series(mu_h3) == [3, 1, 0]
        assert derived_series(mu_s31) == [3, 2, 0]
        assert derived_series(BracketTensor.zero(3)) == [3, 0]

    def test_solvability_flags(self, mu_h3, mu_s3):
        assert is_solvable(mu_h3) and is_nilpotent(mu_h3)
        assert is_solvable(mu_s3) and not is_nilpotent(mu_s3)
        assert is_solvable(BracketTensor.zero(3)) and is_nilpotent(BracketTensor.zero(3))

    def test_series_require_lie(self):
        from bracketflow.errors import NotALieBracket

        bad = BracketTensor.from_entries(3, [(1, 2, 3, 1.0), (1, 3, 1, 1.0), (2, 3, 2, 1.0)])
        with pytest.raises(NotALieBracket):
            derived_series(bad)

    def test_so3_not_solvable(self):
        so3 = BracketTensor.from_entries(3, [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (1, 3, 2, -1.0)])
        assert jacobi_residual(so3) <= 1e-14
        assert not is_solvable(so3)
        with pytest.raises(NotSolvable):
            nilradical(so3)

    def test_nilradical_h3(self, mu_h3):
        n_basis, a_basis, rank = nilradical(mu_h3)
        assert n_basis.shape[1] == 3 and rank == 0

    def test_nilradical_s31_and_e2(self, mu_s31, mu_e2):
        for mu in (mu_s31, mu_e2):
            n_basis, a_basis, rank = nilradical(mu)
            assert rank == 1
            # nilradical is span(e2, e3)
            span = n_basis @ n_basis.T
            np.testing.assert_allclose(span, np.diag([0.0, 1, 1]), atol=1e-10)

    def test_nilradical_is_ideal(self, rng):
        for dim in (3, 4, 5):
            mu = random_solvable_bracket(rng, dim)
            n_basis, _, _ = nilradical(mu)
            for i in range(dim):
                for j in range(n_basis.shape[1]):
                    v = mu.apply(np.eye(dim)[i], n_basis[:, j])
                    resid = v - n_basis @ (n_basis.T @ v)
                    assert np.linalg.norm(resid) <= 1e-8 * (1.0 + mu.norm)

    def test_mixed_direction_nilpotency(self, rng):
        # ad(X) spectrum with zero squared-sum but nonzero entries must not
        # land in the nilradical: almost-abelian with spectrum {i, -i, 1, -1}.
        t = np.zeros((4, 4))
        t[0, 1], t[1, 0] = 1.0, -1.0
        t[2, 2], t[3, 3] = 1.0, -1.0
        from bracketflow.catalog import almost_abelian

        mu = almost_abelian(t)
        _, _, rank = nilradical(mu)
        assert rank == 1


class TestDerivations:
    def test_zero_bracket_full_gl(self):
        assert len(derivation_space(BracketTensor.zero(3))) == 9

    def test_h3_dimension_matches_independent_solve(self, mu_h3):
        ders = derivation_space(mu_h3)
        assert len(ders) == 6
        # Independent route: build the derivation equations entrywise.
        rows = []
        n = 3
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    row = np.zeros((n, n))
                    # d/dA of [ A mu(ei,ej) - mu(A ei, ej) - mu(ei, A ej) ]_k
                    for c in range(n):
                        row[k, c] += mu_h3.coeffs[i, j, c]
                    for a in range(n):
                        row[a, i] -= mu_h3.coeffs[a, j, k]
                        row[a, j] -= mu_h3.coeffs[i, a, k]
                    rows.append(row.ravel())
        rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10)
        assert 9 - rank == 6

    def test_membership(self, mu_h3):
        d = np.diag([1.0, 1.0, 2.0])
        assert np.linalg.norm(pi_action(d, mu_h3).coeffs) <= 1e-14

    def test_every_basis_element_annihilates(self, rng):
        mu = random_solvable_bracket(rng, 4)
        for d in derivation_space(mu):
            assert np.linalg.norm(pi_action(d, mu).coeffs) <= 1e-7 * (1.0 + mu.norm)


ENTRY = {"i": 1, "j": 2, "k": 3, "v": 1}


class TestJsonFormat:
    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_round_trip_bitwise(self, tmp_path_factory, seed, dim, lie):
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        path = tmp_path_factory.mktemp("round_trip") / "bracket.json"
        save_bracket(path, mu)
        back = load_bracket(path)
        assert np.array_equal(back.coeffs, mu.coeffs)

    def test_writer_emits_upper_entries_only(self, mu_h3):
        data = bracket_to_dict(mu_h3)
        assert data == {"dim": 3, "entries": [{"i": 1, "j": 2, "k": 3, "v": 1.0}]}

    def test_reader_antisymmetrizes(self):
        mu = bracket_from_dict({"dim": 3, "entries": [{"i": 1, "j": 2, "k": 3, "v": 2.0}]})
        assert mu.coeffs[1, 0, 2] == -2.0

    def test_reader_rejects_bad_order(self):
        with pytest.raises(ValueError):
            bracket_from_dict({"dim": 3, "entries": [{"i": 2, "j": 1, "k": 3, "v": 1.0}]})

    def test_reader_takes_integral_values(self):
        mu = bracket_from_dict({"dim": 3, "entries": [ENTRY]})
        assert np.array_equal(mu.coeffs, bracket_from_dict(
            {"dim": 3, "entries": [{**ENTRY, "v": 1.0}]}).coeffs)

    @pytest.mark.parametrize("data, key", [
        ({"dim": 3.7, "entries": [{"i": 1.9, "j": "2", "k": True, "v": 1}]}, "dim"),
        ({"dim": 3.0, "entries": [ENTRY]}, "dim"),
        ({"dim": True, "entries": [ENTRY]}, "dim"),
        ({"dim": 3, "entries": [{**ENTRY, "i": 1.9}]}, "i"),
        ({"dim": 3, "entries": [{**ENTRY, "j": "2"}]}, "j"),
        ({"dim": 3, "entries": [{**ENTRY, "k": True}]}, "k"),
        ({"dim": 3, "entries": [{**ENTRY, "v": "1.0"}]}, "v"),
        ({"dim": 3, "entries": [{**ENTRY, "v": False}]}, "v"),
    ])
    def test_reader_coerces_no_field(self, tmp_path, data, key):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"ill-typed field '{key}'"):
            load_bracket(path)

    def test_small_values_dropped(self):
        mu = BracketTensor.from_entries(3, [(1, 2, 3, 1.0), (1, 3, 2, 1e-15)])
        data = bracket_to_dict(mu)
        assert len(data["entries"]) == 1
