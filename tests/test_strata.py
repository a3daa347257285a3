import numpy as np
import pytest
import scipy.linalg as sla

from oracles import (
    beta_decomposition_loop,
    clustered_from_first,
    criticality_direction_tensor,
    energy_gradient_flow_tensor,
    grading_components,
    random_antisymmetric_bracket,
    random_orthogonal,
)

from bracketflow import (
    BracketTensor,
    act,
    beta_decomposition,
    catalog,
    check_gauged,
    energy_gradient_flow,
    label_from_beta,
    nilradical,
    pi_action,
    project_qbeta,
    random_solvable_bracket,
    same_label,
    stratum_label,
)
from bracketflow import strata
from bracketflow.brackets import DIM_CAP
from bracketflow.curvature import moment_map_fast
from bracketflow.errors import MaxStepsExceeded, NonCanonicalBeta, OutOfRange, ZeroBracket


class TestEnergyFlow:
    def test_h3_already_critical(self, mu_h3):
        limit, resid = energy_gradient_flow(mu_h3)
        assert resid <= 1e-9
        np.testing.assert_allclose(limit.coeffs, mu_h3.coeffs, atol=1e-12)

    def test_rotated_h3_critical_with_conjugated_moment(self, mu_h3, rng):
        k = random_orthogonal(rng, 3)
        limit, resid = energy_gradient_flow(act(k, mu_h3))
        assert resid <= 1e-9
        np.testing.assert_allclose(
            moment_map_fast(limit), k @ np.diag([-1.0, -1, 1]) @ k.T, atol=1e-8
        )

    def test_scaled_hyperbolic(self, mu_s31):
        limit, resid = energy_gradient_flow(mu_s31.scaled(2**-0.5))
        assert resid <= 1e-9
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(moment_map_fast(limit))), [-1.0, 0, 0], atol=1e-8
        )

    def test_energy_monotone_from_gauged_seed(self, mu_h3, rng):
        h = sla.expm(0.4 * rng.standard_normal((3, 3)))
        history = []
        _, resid = energy_gradient_flow(act(h, mu_h3), history=history)
        assert resid <= 1e-9
        diffs = np.diff(np.array(history))
        assert np.all(diffs <= 1e-10)

    def test_zero_bracket_rejected(self):
        with pytest.raises(ZeroBracket):
            energy_gradient_flow(BracketTensor.zero(3))

    def test_step_budget_carries_partial_result(self, mu_s3):
        with pytest.raises(MaxStepsExceeded, match="max_steps = 2 iterations") as info:
            energy_gradient_flow(mu_s3, crit_tol=1e-14, max_steps=2)
        assert info.value.result is not None
        assert info.value.residual > 0.0
        assert f"residual {info.value.residual:.3e}" in str(info.value)

    def test_stall_names_the_step_floor(self):
        # At round-off from a critical point no step size above the floor is accepted.
        with pytest.raises(MaxStepsExceeded, match="stalled after 10 iterations: no step") as info:
            energy_gradient_flow(_rotated_heisenberg5(), crit_tol=0.0, max_steps=300)
        assert "max_steps" not in str(info.value)
        assert f"residual {info.value.residual:.3e}" in str(info.value)

    @pytest.mark.parametrize("kwargs", [
        {"max_steps": -1}, {"crit_tol": -1e-9}, {"crit_tol": float("nan")},
        {"crit_tol": float("inf")},
    ])
    def test_out_of_range_arguments_rejected(self, mu_s3, kwargs):
        with pytest.raises(OutOfRange, match=next(iter(kwargs))):
            energy_gradient_flow(mu_s3, **kwargs)

    def test_non_integer_budget_rejected(self, mu_s3):
        with pytest.raises(TypeError):
            energy_gradient_flow(mu_s3, max_steps=2.5)

    def test_zero_tolerance_and_budget_accepted(self, mu_h3, mu_s3):
        assert energy_gradient_flow(mu_h3, crit_tol=0.0)[1] == 0.0
        with pytest.raises(MaxStepsExceeded, match="max_steps = 0 iterations"):
            energy_gradient_flow(mu_s3, max_steps=0)


def _flow_record(flow, mu, **kwargs):
    """(outcome, limit coefficients, residual, energy history) of one energy-flow run."""
    history = []
    try:
        limit, resid = flow(mu, history=history, **kwargs)
        return "converged", limit.coeffs, resid, history
    except MaxStepsExceeded as exc:
        return "stalled", exc.result.coeffs, exc.residual, history


def _draw(seed, n):
    return random_solvable_bracket(np.random.default_rng(seed), n)


def _rotated_heisenberg5():
    """heisenberg(5) in a rotated basis: critical up to round-off."""
    return act(random_orthogonal(np.random.default_rng(0), 5), catalog("heisenberg", dim=5).bracket)


def _gauged(name, seed, **params):
    h = sla.expm(0.4 * np.random.default_rng(seed).standard_normal((3, 3)))
    return act(h, catalog(name, **params).bracket)


_FLOW_CASES = [(f"random{n}", lambda n=n: _draw(4100 + n, n)) for n in range(3, 10)] + [
    ("s3", lambda: catalog("s3").bracket),
    ("h3", lambda: catalog("h3").bracket),
    ("e2", lambda: catalog("e2").bracket),
    ("s3_lambda0.5", lambda: catalog("s3_lambda", lam=0.5).bracket),
    ("s3_lambda_prime0.7", lambda: catalog("s3_lambda_prime", lam=0.7).bracket),
    ("heisenberg5", lambda: catalog("heisenberg", dim=5).bracket),
    ("heisenberg7", lambda: catalog("heisenberg", dim=7).bracket),
    ("gauged_h3", lambda: _gauged("h3", 4199)),
    ("gauged_s3_lambda0.5", lambda: _gauged("s3_lambda", 4198, lam=0.5)),
    ("random10", lambda: _draw(4110, 10)),
]


def _counting(monkeypatch, name):
    """Count the calls of the strata-level kernel `name` from here on."""
    calls = []
    kernel = getattr(strata, name)

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(strata, name, counted)
    return calls


class TestRawArrayEnergyFlow:
    """The flow steps raw arrays; the BracketTensor oracle gives the same bits."""

    @pytest.mark.parametrize("name,make", _FLOW_CASES, ids=[c[0] for c in _FLOW_CASES])
    def test_bit_identical_to_tensor_oracle(self, name, make):
        mu = make()
        got = _flow_record(energy_gradient_flow, mu, max_steps=300)
        want = _flow_record(energy_gradient_flow_tensor, mu, max_steps=300)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert np.array_equal(got[3], want[3])

    def test_ladders_past_the_first_bit_identical(self, monkeypatch):
        # A stall at the step floor rejects every trial of about 20 ladders per
        # iteration; the random draw needs a second ladder in some iterations.
        for mu, kwargs in ((_rotated_heisenberg5(), {"crit_tol": 0.0}), (_draw(4106, 6), {})):
            calls = _counting(monkeypatch, "coeff_moment")
            got = _flow_record(energy_gradient_flow, mu, max_steps=300, **kwargs)
            accepted = len(got[3]) - 1
            assert len(calls) > accepted + 1
            want = _flow_record(energy_gradient_flow_tensor, mu, max_steps=300, **kwargs)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1]) and got[2] == want[2] and got[3] == want[3]

    def test_one_kernel_call_per_accepted_iteration(self, monkeypatch):
        # One-at-a-time backtracking evaluates about 2 trials per accepted
        # iteration; the ladder evaluates its trials in one call.
        calls = _counting(monkeypatch, "coeff_moment")
        history = []
        with pytest.raises(MaxStepsExceeded):
            energy_gradient_flow(_draw(4106, 6), crit_tol=0.0, max_steps=300, history=history)
        assert len(history) == 301
        assert len(calls) <= 1.25 * len(history)
        assert len(calls) == 328  # the energy flow is the one caller of coeff_moment

    def test_stalled_result_bit_identical(self, mu_s3):
        got = _flow_record(energy_gradient_flow, mu_s3, crit_tol=1e-14, max_steps=5)
        want = _flow_record(energy_gradient_flow_tensor, mu_s3, crit_tol=1e-14, max_steps=5)
        assert got[0] == want[0] == "stalled"
        assert np.array_equal(got[1], want[1]) and got[2] == want[2] and got[3] == want[3]

    @pytest.mark.parametrize("max_steps", [2, 300])
    def test_one_bracket_per_call(self, mu_s3, monkeypatch, max_steps):
        built = []
        init = BracketTensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BracketTensor, "__init__", counting_init)
        try:
            energy_gradient_flow(mu_s3, crit_tol=1e-14, max_steps=max_steps)
        except MaxStepsExceeded as exc:
            assert exc.result is not None
        assert len(built) == 1


class TestCriticalityStack:
    @pytest.mark.parametrize("dim", range(2, DIM_CAP + 1))
    def test_each_slice_equals_the_one_state_formulas(self, dim):
        rng = np.random.default_rng(4400 + dim)
        for count in range(1, 5):
            mus = [random_antisymmetric_bracket(rng, dim, scale=rng.uniform(0.1, 10.0))
                   for _ in range(count)]
            energies, tangents, resids, norms_sq = strata._criticality_direction(
                np.stack([mu.coeffs for mu in mus]))
            for j, mu in enumerate(mus):
                m, tangent, resid = criticality_direction_tensor(mu)
                assert energies[j] == float(np.sum(m * m))
                assert np.array_equal(tangents[j], tangent)
                assert resids[j] == resid and norms_sq[j] == mu.norm_sq


def _random_beta(rng):
    """Ascending beta of dimension 1-11 with repeated and 1e-9-perturbed eigenvalues."""
    n = int(rng.integers(1, 12))
    levels = rng.standard_normal(int(rng.integers(1, n + 1)))
    b = rng.choice(levels, n) + 1e-9 * rng.standard_normal(n) * rng.integers(0, 2, n)
    return np.sort(b)


class TestMaskBases:
    def test_bases_masks_and_levels_match_loop_oracle(self):
        rng = np.random.default_rng(3303)
        for _ in range(150):
            label = label_from_beta(_random_beta(rng))
            got, want = beta_decomposition(label), beta_decomposition_loop(label)
            for name in ("mask_g", "mask_u", "mask_ut", "v_weights"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            for name in ("g_basis", "u_basis", "k_u_basis", "k_beta_basis", "h_basis", "sl_basis"):
                a, b = getattr(got, name), getattr(want, name)
                assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
            assert len(got.v_levels) == len(want.v_levels)
            for (wa, ma), (wb, mb) in zip(got.v_levels, want.v_levels):
                assert wa == wb and np.array_equal(ma, mb)
            # Away from chained gaps the gap rule gives the old spectra.
            b = label.eigenvalues
            i, j = np.triu_indices(b.size, 1)
            assert label.ad_spectrum == clustered_from_first((b[:, None] - b[None, :]).ravel())
            assert label.v_spectrum == clustered_from_first(label.v_weights[i, j].ravel())


class TestOneClusteringRule:
    def test_chained_gaps_form_one_cluster(self):
        # Gaps of 0.6e-6 <= EIG_TOL = 1e-6 chain 0, 0.6e-6 and 1.2e-6 past EIG_TOL.
        b = np.array([-1.0, 0.0, 0.6e-6, 1.2e-6])
        label = label_from_beta(b)
        assert [m for _, m in label.ad_spectrum] == [3, 10, 3]
        assert [v for v, _ in label.ad_spectrum] == [b[0] - b[3], b[1] - b[3], b[1] - b[0]]
        assert [m for _, m in label.v_spectrum] == [3, 12, 9]
        # The first-value rule split the same values into more clusters.
        assert len(clustered_from_first((b[:, None] - b[None, :]).ravel())) > 3


class TestStratumLabel:
    def test_h3_label(self, mu_h3):
        label = stratum_label(mu_h3)
        np.testing.assert_allclose(label.eigenvalues, [-1.0, -1, 1], atol=1e-8)
        assert label.norm_sq == pytest.approx(3.0, abs=1e-8)
        beta_plus = label.beta_plus
        np.testing.assert_allclose(beta_plus, np.diag([2.0, 2, 4]), atol=1e-7)
        # beta+ is a derivation of h3.
        assert np.linalg.norm(pi_action(beta_plus, mu_h3).coeffs) <= 1e-6

    def test_hyperbolic_label(self, mu_s31):
        label = stratum_label(mu_s31.scaled(2**-0.5))
        np.testing.assert_allclose(label.eigenvalues, [-1.0, 0, 0], atol=1e-8)
        np.testing.assert_allclose(label.beta_plus, np.diag([0.0, 1, 1]), atol=1e-7)
        # image of beta+ inside the nilradical of the critical bracket.
        n_basis, _, _ = nilradical(label.critical_bracket)
        assert n_basis.shape[1] == 2

    def test_scale_invariance(self, mu_s3):
        assert same_label(stratum_label(mu_s3), stratum_label(mu_s3.scaled(3.0)))

    def test_ordering_probe(self, mu_s3, mu_s31, mu_h3, mu_e2):
        # s3 and s_{3,1} share a stratum; the e2 and h3 labels differ.
        assert same_label(stratum_label(mu_s3), stratum_label(mu_s31))
        assert not same_label(stratum_label(mu_e2), stratum_label(mu_h3))


class TestBetaDecomposition:
    def test_rank_one_block_structure(self):
        dec = beta_decomposition(label_from_beta([-1.0, 0.0, 0.0]))
        assert len(dec.g_basis) == 5
        assert len(dec.u_basis) == 2
        assert len(dec.h_basis) == 4
        assert len(dec.sl_basis) == 6
        # u_beta consists of maps from e1 into span(e2, e3).
        for u in dec.u_basis:
            assert np.all(u[:, 1:] == 0.0) and np.all(u[0, :] == 0.0)

    def test_h3_block_structure(self, mu_h3):
        dec = beta_decomposition(stratum_label(mu_h3))
        assert len(dec.u_basis) == 2
        for u in dec.u_basis:
            # maps from span(e1,e2) into span(e3)
            assert np.all(u[:2, :] == 0.0) and np.all(u[:, 2] == 0.0)

    def test_dimension_identity(self, rng):
        for eigs in ([-1.0, 0, 0], [-1.0, -1, 1], [-0.6, -0.3, 0.1, 0.8]):
            dec = beta_decomposition(label_from_beta(eigs))
            n = len(eigs)
            assert len(dec.g_basis) + 2 * len(dec.u_basis) == n * n

    def test_g_beta_commutes(self, mu_h3):
        dec = beta_decomposition(stratum_label(mu_h3))
        beta = dec.label.beta
        for a in dec.g_basis:
            assert np.linalg.norm(beta @ a - a @ beta) <= 1e-10

    def test_non_canonical_rejected(self):
        label = label_from_beta([-1.0, 0, 0])
        label.eigenvalues = np.array([0.0, -1.0, 0.0])
        with pytest.raises(NonCanonicalBeta):
            beta_decomposition(label)


class TestQBetaProjection:
    @pytest.fixture
    def dec(self):
        return beta_decomposition(label_from_beta([-1.0, 0.0, 0.0]))

    def test_identity_on_q_beta(self, dec):
        for a in dec.g_basis + dec.u_basis:
            np.testing.assert_allclose(project_qbeta(a, dec), a, atol=1e-14)

    def test_symmetric_u_part_doubles(self, dec):
        u = dec.u_basis[0]
        sym = u + u.T
        np.testing.assert_allclose(project_qbeta(sym, dec), 2.0 * u, atol=1e-14)

    def test_kills_k_u_beta(self, dec):
        for a in dec.k_u_basis:
            assert np.linalg.norm(project_qbeta(a, dec)) <= 1e-14

    def test_idempotent(self, dec, rng):
        a = rng.standard_normal((3, 3))
        once = project_qbeta(a, dec)
        np.testing.assert_allclose(project_qbeta(once, dec), once, atol=1e-13)

    def test_float_masks_keep_the_boolean_mask_bits(self, rng):
        dec = beta_decomposition(label_from_beta([-0.6, -0.3, -0.3, 0.1, 0.8]))
        a = rng.standard_normal((4, 5, 5))
        # The masks of g_beta and u_beta are disjoint, so one product by their union
        # keeps every bit, signed zeros included.
        a[:, 1, 2] = -0.0
        want = a * dec.mask_g + a * dec.mask_u + (a * dec.mask_ut).mT
        assert project_qbeta(a, dec).tobytes() == want.tobytes()
        assert project_qbeta(a[0], dec).tobytes() == want[0].tobytes()

    def test_norm_bounds_symmetric(self, dec, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            a = a + a.T
            na = np.linalg.norm(a)
            nq = np.linalg.norm(project_qbeta(a, dec))
            assert na - 1e-12 <= nq <= 2.0 * na + 1e-12


class TestGaugeCheck:
    def test_h3_in_v0_of_own_label(self, mu_h3):
        label = stratum_label(mu_h3)
        gauge = check_gauged(mu_h3, label)
        assert gauge.in_nonneg
        assert gauge.v0_norm == pytest.approx(mu_h3.norm, abs=1e-9)
        assert gauge.neg_norm <= 1e-12

    def test_hyperbolic_in_v0(self, mu_s31):
        label = stratum_label(mu_s31.scaled(2**-0.5))
        gauge = check_gauged(mu_s31, label)
        assert gauge.in_nonneg and gauge.v0_norm > 0

    def test_wrong_label_detected(self, mu_s31, mu_h3):
        # s_{3,1} has negative components in the h3 grading: its
        # nilradical-to-nilradical output sits at weight -2.
        gauge = check_gauged(mu_s31, stratum_label(mu_h3))
        assert not gauge.in_nonneg
        assert gauge.neg_norm > 1.0

    def test_grading_is_orthogonal_and_complete(self, mu_h3, rng):
        dec = beta_decomposition(stratum_label(mu_h3))
        c = rng.standard_normal((3, 3, 3))
        mu = BracketTensor(0.5 * (c - np.swapaxes(c, 0, 1)))
        comps = grading_components(mu, dec)
        total = sum(v**2 for _, v in comps)
        assert total == pytest.approx(mu.norm_sq, abs=1e-12)
