import dataclasses
import functools
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketflow import (
    BracketTensor,
    FlowSpec,
    Termination,
    Variant,
    act,
    blowdown_check,
    catalog,
    curvature_pack,
    derived_series,
    detect_soliton_convergence,
    integrate,
    nilradical,
    normalize_soliton,
    pi_action,
    project_qbeta,
    recover_gauge,
    soliton_residual,
    stratum_label,
)
from bracketflow import curvature, experiments, flows, strata
from bracketflow.catalog import almost_abelian, random_solvable_bracket
from bracketflow.curvature import curvature_parts
from bracketflow.errors import (BracketFlowError, GaugeMismatch, NotALieBracket, OutOfRange,
                               SingularGauge)
from bracketflow.experiments import random_parabolic_gauge, run_uniqueness_experiment
from bracketflow.flows import (
    CONV_TOL,
    CONV_WINDOW,
    GAUGE_COEFFICIENTS,
    FlowTrajectory,
    Monitors,
    _converging,
    _keep,
    _Run,
    _run_samples,
    flow_field,
    integrate_stack,
)
from bracketflow.strata import beta_decomposition

from oracles import gauge_paths_loop, random_antisymmetric_bracket


def estimate_cubic_bound(dim, samples=2000, seed=0):
    """Estimate sup ||pi(Ric_mu) mu|| over the unit sphere of brackets.

    The raw vector field is homogeneous of degree three, so this constant
    bounds ||mu'|| by C ||mu||^3 along any trajectory.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        c = rng.standard_normal((dim, dim, dim))
        c = 0.5 * (c - np.swapaxes(c, 0, 1))
        norm = np.linalg.norm(c)
        if norm == 0.0:
            continue
        c /= norm
        best = max(best, float(np.linalg.norm(flow_field(c, Variant.RAW, None))))
    return best


@pytest.fixture(scope="module")
def hyp_norm():
    mu = catalog("s3_lambda", lam=1.0).bracket
    return normalize_soliton(mu, soliton_residual(mu))


@pytest.fixture(scope="module")
def hyp_label(hyp_norm):
    return stratum_label(hyp_norm)


@pytest.fixture(scope="module")
def s3_label():
    return stratum_label(catalog("s3").bracket)


@pytest.fixture(scope="module")
def s3_short(s3_label):
    return integrate(
        catalog("s3").bracket,
        FlowSpec(variant=Variant.SCALSTAR, t_end=2.0, label=s3_label, record_every=0.25),
    )


class TestRawFlow:
    def test_h3_matches_closed_form(self, mu_h3):
        # On the Heisenberg ray the raw flow is mu(t) = (1+3t)^(-1/2) mu_0.
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=4.0, record_every=1.0))
        for s in traj.samples:
            expected = (1.0 + 3.0 * s.t) ** -0.5 * mu_h3.coeffs
            np.testing.assert_allclose(s.bracket.coeffs, expected, atol=1e-9)

    def test_h3_type_three_window(self, mu_h3):
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=50.0, record_every=1.0))
        window = [s.monitors.type3 for s in traj.samples if s.t >= 1.0]
        assert 0.4 <= min(window) and max(window) <= 0.7  # -> 2/3 from below

    def test_orbit_invariants_constant(self, mu_s3, s3_label):
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.RAW, t_end=10.0, label=s3_label, record_every=2.0),
        )
        for s in traj.samples:
            assert derived_series(s.bracket) == [3, 2, 0]
            assert nilradical(s.bracket)[2] == 1

    def test_cubic_bound_holds_along_trajectory(self, mu_h3, mu_s3):
        c_bound = estimate_cubic_bound(3, samples=2000, seed=0)
        for mu in (mu_h3, mu_s3):
            traj = integrate(mu, FlowSpec(variant=Variant.RAW, t_end=10.0, record_every=1.0))
            for s in traj.samples:
                assert s.monitors.field_norm <= 1.25 * c_bound * s.bracket.norm**3


class TestIntegratorOracle:
    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_raw_flow_matches_solve_ivp(self, mu_s3, rng, n):
        # s3 to t = 10, and raw n = 8 and n = 16 draws at norm 3 to t = 20 (flowhd's
        # shape): the final state lies within rel_tol of a DOP853 reference.
        from scipy.integrate import solve_ivp

        mu, t_end = mu_s3, 10.0
        if n > 3:
            mu = random_solvable_bracket(rng, n)
            mu, t_end = mu.scaled(3.0 / mu.norm), 20.0
        spec = FlowSpec(variant=Variant.RAW, t_end=t_end, record_every=t_end)
        traj = integrate(mu, spec)
        sol = solve_ivp(
            lambda t, y: flow_field(y.reshape(n, n, n), Variant.RAW, None).ravel(),
            (0.0, t_end), mu.coeffs.ravel(), method="DOP853", rtol=1e-13, atol=1e-15,
        )
        ref = sol.y[:, -1]
        gap = np.linalg.norm(traj.final.bracket.coeffs.ravel() - ref)
        assert gap <= spec.rel_tol * np.linalg.norm(ref)

    def test_normalized_flow_matches_solve_ivp_on_slice(self, mu_s3, s3_label):
        # The scal* = -1 slice is invariant but transversally unstable, so a
        # projection-free reference integration drifts off it exponentially;
        # both endpoints are projected back before comparing.
        from scipy.integrate import solve_ivp
        from bracketflow.curvature import curvature_parts
        from bracketflow import BracketTensor, curvature_pack

        dec = beta_decomposition(s3_label)
        traj = integrate(
            mu_s3, FlowSpec(variant=Variant.SCALSTAR, t_end=5.0, label=s3_label, record_every=5.0)
        )
        nu0 = mu_s3.coeffs * abs(curvature_pack(mu_s3).scalStar) ** -0.5
        sol = solve_ivp(
            lambda t, y: flow_field(y.reshape(3, 3, 3), Variant.SCALSTAR, dec).ravel(),
            (0.0, 5.0), nu0.ravel(), method="RK45", rtol=1e-12, atol=1e-14,
        )
        ref = sol.y[:, -1].reshape(3, 3, 3)
        s = float(np.trace(curvature_parts(BracketTensor(ref))[4]))
        ref = ref * abs(s) ** -0.5
        gap = np.linalg.norm(traj.final.bracket.coeffs - ref)
        assert gap <= 1e-7


class TestBlowdown:
    def test_trivial_at_one(self, mu_h3):
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=2.0, record_every=0.5))
        assert blowdown_check(traj, 1.0) <= 1e-9

    def test_h3_scaling_identity(self, mu_h3):
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=4.0, record_every=0.5))
        assert blowdown_check(traj, 4.0) <= 1e-6

    def test_s31_scaling_identity(self, mu_s31):
        traj = integrate(mu_s31, FlowSpec(variant=Variant.RAW, t_end=9.0, record_every=0.5))
        assert blowdown_check(traj, 9.0) <= 1e-6

    def test_out_of_range(self, mu_h3):
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=2.0, record_every=0.5))
        with pytest.raises(OutOfRange):
            blowdown_check(traj, 8.0)


class TestNormalizedFlow:
    def test_soliton_is_fixed_point(self, hyp_norm, hyp_label):
        traj = integrate(
            hyp_norm,
            FlowSpec(variant=Variant.SCALSTAR, t_end=5.0, label=hyp_label, record_every=0.5),
        )
        drift = max(
            np.linalg.norm(s.bracket.coeffs - hyp_norm.coeffs) for s in traj.samples
        )
        assert drift <= 1e-9

    def test_gauged_flow_preserves_soliton_ray(self, hyp_norm, hyp_label):
        # The un-normalized gauged flow shrinks a soliton along its ray.
        traj = integrate(
            hyp_norm,
            FlowSpec(variant=Variant.GAUGED, t_end=2.0, label=hyp_label, record_every=0.5),
        )
        direction0 = hyp_norm.coeffs / hyp_norm.norm
        for s in traj.samples:
            d = s.bracket.coeffs / s.bracket.norm
            assert np.linalg.norm(d - direction0) <= 1e-8
        assert traj.final.bracket.norm < hyp_norm.norm

    def test_scalstar_drift_bounded(self, mu_s3, s3_label):
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=s3_label, record_every=0.5),
        )
        for s in traj.samples:
            assert abs(s.pack.scalStar + 1.0) <= 1e-7

    def test_monitor_inequalities_on_real_type_runs(self, s3_label):
        for name, lam in (("s3", None), ("s3_lambda", 0.5), ("s3_lambda_prime", 0.7)):
            entry = catalog(name, lam=lam)
            label = s3_label if name == "s3" else stratum_label(entry.bracket)
            traj = integrate(
                entry.bracket,
                FlowSpec(variant=Variant.SCALSTAR, t_end=30.0, label=label, record_every=0.5),
            )
            for s in traj.samples:
                assert s.monitors.lyapunov >= -1e-8
                assert s.monitors.cs >= -1e-8

    def test_f_trailing_max_decreases(self, mu_s3, s3_label):
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCALSTAR, t_end=60.0, label=s3_label, record_every=1.0),
        )
        f = np.array([s.monitors.f for s in traj.samples])
        window = 10
        tails = np.array([f[i : i + window].max() for i in range(5, len(f) - window)])
        assert np.all(np.diff(tails) <= 1e-12)

    def test_requires_label_and_gauge(self, mu_s3, mu_h3):
        with pytest.raises(GaugeMismatch):
            integrate(mu_s3, FlowSpec(variant=Variant.SCALSTAR, t_end=1.0))
        with pytest.raises(GaugeMismatch):
            # s_{3,1} carries negative components in the h3 grading.
            integrate(
                catalog("s3_lambda", lam=1.0).bracket,
                FlowSpec(variant=Variant.SCALSTAR, t_end=1.0, label=stratum_label(mu_h3)),
            )

    def test_k_beta_equivariance_of_gauged_flow(self, mu_s3, s3_label):
        # Rotations in the nilradical block commute with beta; flowing the
        # rotated seed equals rotating the flow.
        theta = 0.7
        k = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(theta), -np.sin(theta)],
                [0.0, np.sin(theta), np.cos(theta)],
            ]
        )
        spec = FlowSpec(variant=Variant.GAUGED, t_end=3.0, label=s3_label, record_every=1.0)
        traj_a = integrate(act(k, mu_s3), spec)
        traj_b = integrate(mu_s3, spec)
        for sa, sb in zip(traj_a.samples, traj_b.samples):
            np.testing.assert_allclose(
                sa.bracket.coeffs, act(k, sb.bracket).coeffs, atol=1e-8
            )

    def test_imaginary_type_normalization_breakdown(self, mu_e2):
        # On the E(2) orbit the normalized flow blows up in finite time:
        # the modified scalar curvature of the shape collapses to zero.
        seed = act(np.diag([1.0, 1.0, 1.5]), mu_e2)
        label = stratum_label(mu_e2)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=50.0, label=label, record_every=0.02)
        traj = integrate(seed, spec)
        # The step size underflows before the step budget runs out.
        assert traj.termination == Termination.STEP_FAILURE
        assert traj.steps < spec.max_steps
        assert traj.final.bracket.norm >= 100.0 * seed.norm

    def test_step_budget_ends_the_run(self, mu_s3, s3_label):
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=10.0, label=s3_label, max_steps=6)
        traj = integrate(mu_s3, spec)
        assert traj.termination == Termination.STEP_FAILURE
        assert traj.steps == 6

    def test_jacobi_drift_raises_at_the_final_record(self):
        # DOPRI5 does not keep the Jacobi identity; on this heisenberg(9) gauge
        # the drift passes the record tolerance before t = 20, and the only
        # records are the seed and the final sample.
        heis = catalog("heisenberg", dim=9).bracket
        label = stratum_label(heis)
        mu0 = act(random_parabolic_gauge(np.random.default_rng(3), beta_decomposition(label)), heis)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label, record_every=20.0)
        with pytest.raises(NotALieBracket):
            integrate(mu0, spec)

    def test_e2_raw_flow_scal_to_zero(self, mu_e2):
        seed = act(np.diag([1.0, 1.0, 1.5]), mu_e2)
        traj = integrate(seed, FlowSpec(variant=Variant.RAW, t_end=100.0, record_every=1.0, conv_tol=0.0))
        assert abs(traj.final.pack.scal) <= 1e-6
        assert traj.final.monitors.ric_bound <= 1e-6


class TestScalVariant:
    def test_rescaled_to_unit_scal(self, mu_s3, s3_label):
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCAL, t_end=10.0, label=s3_label, record_every=1.0),
        )
        for s in traj.samples:
            assert s.pack.scal == pytest.approx(-1.0, abs=1e-9)

    def test_matches_rescaled_scalstar_run(self, mu_s3, s3_label):
        spec = dict(t_end=5.0, label=s3_label, record_every=1.0)
        traj_star = integrate(mu_s3, FlowSpec(variant=Variant.SCALSTAR, **spec))
        traj_scal = integrate(mu_s3, FlowSpec(variant=Variant.SCAL, **spec))
        for a, b in zip(traj_star.samples, traj_scal.samples):
            scale = abs(a.pack.scal) ** -0.5
            np.testing.assert_allclose(
                b.bracket.coeffs, scale * a.bracket.coeffs, atol=1e-10
            )


class TestConvergenceDetection:
    def test_fixed_point_converges_immediately(self, hyp_norm, hyp_label):
        traj = integrate(
            hyp_norm,
            FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=hyp_label, record_every=0.5),
        )
        det = detect_soliton_convergence(traj)
        assert det.converged and det.f_tail <= 1e-12
        assert traj.termination == Termination.CONVERGED

    def test_s3l_converges_exponentially(self):
        entry = catalog("s3_lambda", lam=0.5)
        label = stratum_label(entry.bracket)
        traj = integrate(
            entry.bracket,
            FlowSpec(variant=Variant.SCALSTAR, t_end=80.0, label=label, record_every=0.5),
        )
        det = detect_soliton_convergence(traj)
        assert det.converged and det.f_tail <= 1e-8
        cert = soliton_residual(det.limit)
        assert cert.residual <= 1e-6

    def test_s3_power_law_tail(self, mu_s3, s3_label):
        # The Einstein limit of the s3 orbit sits on a center manifold: the
        # rigidity function decays like 1/t^2, so t = 100 is far from 1e-8.
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=0.5),
        )
        det = detect_soliton_convergence(traj)
        assert not det.converged
        assert 1e-6 <= det.f_tail <= 1e-4
        assert traj.final.monitors.f * traj.final.t**2 == pytest.approx(0.125, rel=0.1)

    def test_s3_converges_on_its_own_clock(self, mu_s3, s3_label):
        # Following the power law to its 1e-8 crossing takes t ~ 3.5e3; the
        # bracket itself approaches the Einstein limit only like 1/sqrt(t),
        # so the residual-type quantities sit near 1e-2 at that time.
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCALSTAR, t_end=4000.0, label=s3_label, record_every=4.0),
        )
        det = detect_soliton_convergence(traj, cauchy_tol=1e-4)
        assert det.converged and det.f_tail <= 1e-8
        cert = soliton_residual(det.limit)
        assert cert.residual <= 2e-2
        ric = np.linalg.eigvalsh(curvature_pack(det.limit).Ric)
        assert ric.max() - ric.min() <= 2e-2  # Einstein at the 1/sqrt(t) rate


class TestGaugeRecovery:
    def test_contract_h_of_t_maps_seed_to_state(self, mu_s3, s3_label):
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCALSTAR, t_end=10.0, label=s3_label, record_every=0.25),
        )
        path = recover_gauge(traj, coefficient="variant")
        mu0 = traj.samples[0].bracket
        for t in (2.0, 5.0, 10.0):
            moved = act(path.at(t), mu0)
            gap = np.linalg.norm(moved.coeffs - traj.sample_at(t).bracket.coeffs)
            assert gap <= 1e-4

    def test_stationary_soliton_gives_matrix_exponential(self, hyp_norm, hyp_label):
        traj = integrate(
            hyp_norm,
            FlowSpec(
                variant=Variant.SCALSTAR, t_end=5.0, label=hyp_label,
                record_every=0.25, conv_tol=0.0,
            ),
        )
        path = recover_gauge(traj, coefficient="variant")
        bp = hyp_label.beta_plus
        for t in (1.0, 3.0, 5.0):
            np.testing.assert_allclose(path.at(t), sla.expm(-t * bp), atol=1e-8)

    def test_ricci_coefficient_constant_at_einstein_point(self, hyp_norm, hyp_label):
        # Ric + ||Ric*||^2 Id vanishes at the normalized Einstein bracket, so
        # the ungauged recovery is constant there.
        traj = integrate(
            hyp_norm,
            FlowSpec(
                variant=Variant.SCALSTAR, t_end=5.0, label=hyp_label,
                record_every=0.25, conv_tol=0.0,
            ),
        )
        path = recover_gauge(traj, coefficient="ricci")
        assert np.linalg.norm(path.mats[-1] - np.eye(3)) <= 1e-9

    def test_nilsoliton_gauge_decays_not_gl_convergent(self, mu_h3):
        label = stratum_label(mu_h3)
        traj = integrate(
            mu_h3,
            FlowSpec(
                variant=Variant.SCALSTAR, t_end=40.0, label=label,
                record_every=0.25, conv_tol=0.0,
            ),
        )
        path = recover_gauge(traj, coefficient="variant")
        # h(t) = exp(-t beta+) collapses: dets -> 0, relative increments stay O(1).
        assert path.dets[-1] <= 1e-30
        incs = [r for t, r in path.relative_increments(10.0) if t >= 20.0]
        assert incs and min(incs) >= 0.5

    def test_s3_gauge_cauchy_after_crossing(self, mu_s3, s3_label):
        # The s3-seeded gauge increments decay on the power-law clock and
        # cross 1e-4 near t = 110; from t = 120 the bound holds.
        traj = integrate(
            mu_s3,
            FlowSpec(
                variant=Variant.SCALSTAR, t_end=140.0, label=s3_label,
                record_every=0.25, conv_tol=0.0,
            ),
        )
        path = recover_gauge(traj, coefficient="variant")
        incs = [r for t, r in path.relative_increments(10.0) if t >= 120.0]
        assert incs and max(incs) <= 1e-4

    def test_einstein_orbit_gauge_is_relative_cauchy(self, hyp_norm, hyp_label, rng):
        from bracketflow.experiments import random_parabolic_gauge

        dec = beta_decomposition(hyp_label)
        seed = act(random_parabolic_gauge(rng, dec), hyp_norm)
        traj = integrate(
            seed,
            FlowSpec(
                variant=Variant.SCALSTAR, t_end=60.0, label=hyp_label,
                record_every=0.25, conv_tol=0.0,
            ),
        )
        path = recover_gauge(traj, coefficient="variant")
        incs = [r for t, r in path.relative_increments(10.0) if t >= 40.0]
        assert incs and max(incs) <= 1e-4

    def test_raw_trajectory_rejected(self, mu_h3):
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=1.0, record_every=0.5))
        with pytest.raises(GaugeMismatch):
            recover_gauge(traj)

    def test_sparse_recording_keeps_contract(self, mu_s3, s3_label):
        # The stepper carries h, so record_every does not limit its accuracy.
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=s3_label, record_every=10.0),
        )
        path = recover_gauge(traj, coefficient="variant")
        mu0 = traj.samples[0].bracket
        gap = np.linalg.norm(act(path.at(10.0), mu0).coeffs - traj.sample_at(10.0).bracket.coeffs)
        assert gap <= 1e-4
        # |det h(20)| ~ 3e-18 is below act's singular tolerance, so at t = 20 the
        # contract is checked multiplied through by h: h mu0(x, y) = mu(t)(h x, h y).
        h = path.at(20.0)
        lhs = np.einsum("kc,abc->abk", h, mu0.coeffs)
        rhs = np.einsum("ia,jb,ijk->abk", h, h, traj.sample_at(20.0).bracket.coeffs)
        assert np.linalg.norm(lhs - rhs) <= 1e-4 * np.linalg.norm(lhs)

    def test_gauges_match_joint_solve_ivp(self, s3_short, s3_label):
        from scipy.integrate import solve_ivp

        dec = beta_decomposition(s3_label)

        def rhs(_, y):
            mu = BracketTensor(y[:27].reshape(3, 3, 3), antisymmetrize=True)
            _, _, _, ric, ric_star = curvature_parts(mu)
            shift = float(np.sum(ric_star * ric_star)) * np.eye(3)
            a = project_qbeta(ric_star, dec) + shift
            h_var, h_ric = y[27:36].reshape(3, 3), y[36:].reshape(3, 3)
            return np.concatenate([
                -pi_action(a, mu).coeffs.ravel(),
                (-a @ h_var).ravel(),
                (-(ric + shift) @ h_ric).ravel(),
            ])

        c0 = s3_short.samples[0].bracket.coeffs
        y0 = np.concatenate([c0.ravel(), np.eye(3).ravel(), np.eye(3).ravel()])
        times = s3_short.times
        ref = solve_ivp(
            rhs, (0.0, times[-1]), y0, method="DOP853", rtol=1e-13, atol=1e-15, t_eval=times
        )
        assert ref.success
        # The grid does not move the steps, so the samples before t_end are
        # read off the continuous extension inside steps.
        coarse = FlowSpec(variant=Variant.SCALSTAR, t_end=2.0, label=s3_label, record_every=2.0)
        assert integrate(s3_short.samples[0].bracket, coarse).steps == s3_short.steps
        brackets = np.array([s.bracket.coeffs.ravel() for s in s3_short.samples])
        assert np.max(np.abs(brackets - ref.y[:27].T)) <= 1e-8
        for coefficient, rows in (("variant", slice(27, 36)), ("ricci", slice(36, 45))):
            mats = recover_gauge(s3_short, coefficient=coefficient).mats
            assert np.max(np.abs(np.reshape(mats, (len(times), 9)) - ref.y[rows].T)) <= 1e-8

    def test_stack_gauges_match_joint_solve_ivp(self):
        # Three parabolic gauges of s3_lambda(0.5), stepped as one stack, each against
        # the joint system for (c, h_variant, h_ricci).
        from scipy.integrate import solve_ivp

        entry = catalog("s3_lambda", lam=0.5)
        label = stratum_label(entry.bracket)
        dec = beta_decomposition(label)
        mu0s = [_s3_lambda_gauge(7, draw) for draw in range(3)]
        trajs = integrate_stack(mu0s, FlowSpec(variant=Variant.SCALSTAR, t_end=2.0, label=label,
                                               record_every=0.25))

        def rhs(_, y):
            mu = BracketTensor(y[:27].reshape(3, 3, 3), antisymmetrize=True)
            _, _, _, ric, ric_star = curvature_parts(mu)
            shift = float(np.sum(ric_star * ric_star)) * np.eye(3)
            a = project_qbeta(ric_star, dec) + shift
            return np.concatenate([-pi_action(a, mu).coeffs.ravel(),
                                   (-a @ y[27:36].reshape(3, 3)).ravel(),
                                   (-(ric + shift) @ y[36:].reshape(3, 3)).ravel()])

        for traj in trajs:
            c0 = traj.samples[0].bracket.coeffs
            ref = solve_ivp(rhs, (0.0, 2.0), np.concatenate([c0.ravel(), np.eye(3).ravel(),
                                                             np.eye(3).ravel()]),
                            method="DOP853", rtol=1e-13, atol=1e-15, t_eval=traj.times)
            assert ref.success
            brackets = np.array([s.bracket.coeffs.ravel() for s in traj.samples])
            assert np.max(np.abs(brackets - ref.y[:27].T)) <= 1e-8
            for coefficient, rows in (("variant", slice(27, 36)), ("ricci", slice(36, 45))):
                mats = recover_gauge(traj, coefficient=coefficient).mats
                assert np.max(np.abs(mats.reshape(len(traj.times), 9) - ref.y[rows].T)) <= 1e-8

    def test_decaying_gauges_are_accurate_relative_to_their_size(self):
        # A scalstar heisenberg(9) parabolic gauge to t = 20: its gauges decay from 1 to about
        # 1e-11, and each recovered one lies within 1e-8 of a tight joint solve_ivp relative
        # to its own norm (the gauges' steps are multiplicative).  The reference, like the
        # flow, evaluates the field and both coefficients at the state moved onto
        # scal* = -1, where Ric and Ric* are 1 / |scal*| of the state's: off the slice the
        # scalstar field grows along c.
        from scipy.integrate import solve_ivp

        heis = catalog("heisenberg", dim=9).bracket
        label = stratum_label(heis)
        dec = beta_decomposition(label)
        mu0 = act(random_parabolic_gauge(np.random.default_rng(0), dec), heis)
        traj = integrate(mu0, FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label,
                                       record_every=5.0))
        n, m = 9, 9 ** 3

        def rhs(_, y):
            mu = BracketTensor(y[:m].reshape(n, n, n), antisymmetrize=True)
            _, _, _, ric, ric_star = curvature_parts(mu)
            scale = 1.0 / abs(np.trace(ric_star))
            ric, ric_star = scale * ric, scale * ric_star
            shift = float(np.sum(ric_star * ric_star)) * np.eye(n)
            a = project_qbeta(ric_star, dec) + shift
            return np.concatenate([-np.sqrt(scale) * pi_action(a, mu).coeffs.ravel(),
                                   (-a @ y[m: m + n * n].reshape(n, n)).ravel(),
                                   (-(ric + shift) @ y[m + n * n:].reshape(n, n)).ravel()])

        y0 = np.concatenate([traj.samples[0].bracket.coeffs.ravel(), np.eye(n).ravel(),
                             np.eye(n).ravel()])
        ref = solve_ivp(rhs, (0.0, 20.0), y0, method="DOP853", rtol=1e-13, atol=1e-40,
                        t_eval=traj.times)
        assert ref.success and traj.times.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]
        rows = {"variant": slice(m, m + n * n), "ricci": slice(m + n * n, None)}
        for coefficient in GAUGE_COEFFICIENTS:
            want = ref.y[rows[coefficient]].T
            got = recover_gauge(traj, coefficient=coefficient).mats.reshape(len(want), -1)
            assert np.linalg.norm(want[-1]) <= 1e-10  # it has decayed
            gaps = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert gaps.max() <= 1e-8, gaps

    def test_absolute_tolerance_alone_bounds_the_gauge_steps(self, mu_s3, s3_label):
        # With rel_tol = 0 the gauges' relative error per sub-step is held at abs_tol.
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=10.0, label=s3_label, record_every=0.25,
                        rel_tol=0.0, abs_tol=1e-9)
        traj = integrate(mu_s3, spec)
        mu0 = traj.samples[0].bracket
        for t in (2.0, 5.0, 10.0):
            moved = act(recover_gauge(traj).at(t), mu0)
            assert np.linalg.norm(moved.coeffs - traj.sample_at(t).bracket.coeffs) <= 1e-8

    def test_h0_multiplies_on_the_right(self, s3_short, rng):
        g = sla.expm(0.3 * rng.standard_normal((3, 3)))
        for coefficient in ("variant", "ricci"):
            np.testing.assert_allclose(
                recover_gauge(s3_short, h0=g, coefficient=coefficient).mats,
                recover_gauge(s3_short, coefficient=coefficient).mats @ g,
                rtol=0.0, atol=1e-14,
            )

    def test_paths_share_the_runs_read_only_arrays(self, s3_short, rng):
        # A flow keeps one times array and one monitors array per run, not one per call
        # or per sample.
        paths = [recover_gauge(s3_short, coefficient=c) for c in GAUGE_COEFFICIENTS]
        paths.append(recover_gauge(s3_short, h0=sla.expm(0.3 * rng.standard_normal((3, 3)))))
        times = s3_short.gauge_times
        assert all(path.times is times for path in paths) and not times.flags.writeable
        assert times.tobytes() == s3_short.times.tobytes()
        tables = {id(s._table) for s in s3_short.samples}
        assert len(tables) == 1 and not s3_short.samples[0]._table.flags.writeable
        for j, s in enumerate(s3_short.samples):
            assert s.monitors == Monitors(*s._table[j].tolist())
            assert s.monitors.type3 == s.t * s.bracket.norm_sq

    def test_unknown_coefficient_rejected(self, s3_short):
        with pytest.raises(ValueError, match="'Ricci'"):
            recover_gauge(s3_short, coefficient="Ricci")

    def test_scal_run_keeps_contract(self, mu_s3, s3_label):
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCAL, t_end=10.0, label=s3_label, record_every=0.25),
        )
        path = recover_gauge(traj, coefficient="variant")
        mu0 = traj.samples[0].bracket
        for t in (1.0, 10.0):
            moved = act(path.at(t), mu0)
            assert np.linalg.norm(moved.coeffs - traj.sample_at(t).bracket.coeffs) <= 1e-6

    def test_sample_times_strictly_increasing(self, mu_s3, s3_label):
        traj = integrate(
            mu_s3,
            FlowSpec(variant=Variant.SCALSTAR, t_end=5.0, label=s3_label, record_every=0.5),
        )
        assert np.all(np.diff(traj.times) > 0)


def _rejecting(run):
    """run() with every seventh try of each trajectory of a stack rejected (error norm 2), the
    trajectories' rejected tries staggered, so that the stack accepts its steps apart."""
    norms, tries = flows._error_norms, []

    def rejecting(*args):
        tries.append(1)
        return [2.0 if (len(tries) + j) % 7 == 0 else e for j, e in enumerate(norms(*args))]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(flows, "_error_norms", rejecting)
        return run()


def _oracle_runs():
    """The runs whose gauges are checked against gauge_paths_loop, by name: (trajectories,
    beta-decomposition)."""
    s3, h3 = catalog("s3").bracket, catalog("h3").bracket
    s3_label, h3_label = stratum_label(s3), stratum_label(h3)
    lam_label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)

    def spec(variant, t_end, label, record_every=0.25):
        return FlowSpec(variant=variant, t_end=t_end, label=label, record_every=record_every)

    def runs(run, label):
        return run(), beta_decomposition(label)

    return {
        "s3 scalstar": runs(lambda: [integrate(s3, spec(Variant.SCALSTAR, 20.0, s3_label))],
                            s3_label),
        "h3 scalstar": runs(lambda: [integrate(h3, spec(Variant.SCALSTAR, 100.0, h3_label))],
                            h3_label),
        "off-grid t_end": runs(
            lambda: [integrate(s3, spec(Variant.SCALSTAR, 2.3, s3_label, 0.5))], s3_label),
        "scal": runs(lambda: [integrate(s3, spec(Variant.SCAL, 10.0, s3_label))], s3_label),
        "rejecting stack": runs(lambda: _rejecting(lambda: integrate_stack(
            [_s3_lambda_gauge(7, draw) for draw in range(3)],
            spec(Variant.SCALSTAR, 20.0, lam_label))), lam_label),
    }


class TestGaugeAssembly:
    """Each run's gauges, integrated along each accepted step's dense output
    (flows._Lockstep._gauges), against the loop oracle (oracles.gauge_paths_loop: scipy's
    solve_ivp of the joint system from each recorded sample to the next), within 1e-9 of each
    sample's largest entry; and recover_gauge's checks of h0."""

    @pytest.fixture(scope="class")
    def runs(self):
        return _oracle_runs()

    def test_the_runs_cover_each_case(self, runs):
        ((s3,), _) = runs["s3 scalstar"]
        assert 4 * s3.steps < len(s3.samples)  # most samples lie inside a step
        ((h3,), _) = runs["h3 scalstar"]
        assert (h3.termination, h3.steps, len(h3.samples)) == (Termination.CONVERGED, 1, 10)
        assert runs["off-grid t_end"][0][0].times[-2:].tolist() == [2.0, 2.3]
        assert runs["scal"][0][0].variant == Variant.SCAL
        assert all(traj.rejected > 0 for traj in runs["rejecting stack"][0])

    @pytest.mark.parametrize("name", ["s3 scalstar", "h3 scalstar", "off-grid t_end", "scal",
                                      "rejecting stack"])
    @pytest.mark.parametrize("with_h0", [False, True])
    def test_gauges_match_the_loop_oracle(self, runs, name, with_h0):
        h0 = sla.expm(0.3 * np.random.default_rng(5).standard_normal((3, 3))) if with_h0 else None
        trajs, dec = runs[name]
        for traj in trajs:
            for coefficient, want in zip(GAUGE_COEFFICIENTS, gauge_paths_loop(traj, dec)):
                got = recover_gauge(traj, h0=h0, coefficient=coefficient).mats
                want = want if h0 is None else want @ h0
                assert got.shape == want.shape == (len(traj.samples), 3, 3)
                gaps = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
                assert gaps.max() <= 1e-9

    @pytest.mark.parametrize("h0, match", [
        (np.eye(2), r"finite \(3, 3\) matrix, got shape \(2, 2\)$"),
        (np.full((3, 3), np.nan), r"got shape \(3, 3\) with the entry nan"),
        (np.diag([1.0, np.inf, 1.0]), r"with the entry inf"),
    ])
    def test_h0_of_the_wrong_shape_or_not_finite_raises(self, s3_short, h0, match):
        with pytest.raises(GaugeMismatch, match=match):
            recover_gauge(s3_short, h0=h0)

    @pytest.mark.parametrize("h0, ratio", [(np.zeros((3, 3)), "0.000e+00"),
                                           (np.diag([1.0, 1.0, 1e-17]), "1.000e-17")])
    def test_singular_h0_raises(self, s3_short, h0, ratio):
        with pytest.raises(SingularGauge, match=re.escape(f"sigma_min / sigma_max = {ratio} <=")):
            recover_gauge(s3_short, h0=h0)
        # Just above n eps sigma_max the matrix is accepted.
        recover_gauge(s3_short, h0=np.diag([1.0, 1.0, 1e-15]))


class TestDenseOutput:
    def test_recording_grid_does_not_shorten_steps(self, mu_s3, s3_label):
        def steps(record_every):
            spec = FlowSpec(
                variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=record_every
            )
            return integrate(mu_s3, spec).steps

        assert steps(0.25) <= 1.1 * steps(100.0)

    def test_converged_run_ends_on_grid_sample(self, hyp_norm, hyp_label):
        # The fixed point's steps grow fivefold each, so the tenth sample, where
        # the convergence window fills, lies inside a step.
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=hyp_label, record_every=0.5)
        traj = integrate(hyp_norm, spec)
        assert traj.termination == Termination.CONVERGED
        assert traj.steps < len(traj.samples) - 1
        np.testing.assert_array_equal(traj.times, 0.5 * np.arange(len(traj.samples)))
        assert traj.final.t < spec.t_end
        assert all(len(mats) == len(traj.samples) for mats in traj.gauges.values())

    def test_gauged_contract_at_interior_samples(self, mu_s3, s3_label):
        spec = FlowSpec(variant=Variant.GAUGED, t_end=3.0, label=s3_label, record_every=0.25)
        coarse = FlowSpec(variant=Variant.GAUGED, t_end=3.0, label=s3_label, record_every=3.0)
        traj = integrate(mu_s3, spec)
        assert traj.steps == integrate(mu_s3, coarse).steps  # samples lie inside steps
        path = recover_gauge(traj, coefficient="variant")
        mu0 = traj.samples[0].bracket
        for h, s in zip(path.mats, traj.samples):
            assert np.linalg.norm(act(h, mu0).coeffs - s.bracket.coeffs) <= 1e-8


def _same_sample(got, want):
    """Bit equality of two FlowSamples: time, bracket, cached Jacobi and monitors."""
    assert got.t == want.t
    assert np.array_equal(got.bracket.coeffs, want.bracket.coeffs)
    assert got.bracket.jacobi_residual() == want.bracket.jacobi_residual()
    values = [np.array(tuple(s.monitors)).tobytes() for s in (got, want)]
    assert values[0] == values[1]


def _append(run, record, first, count, conv_tol):
    """Keep the samples first, ..., first + count - 1 of the record (ts, cs, (variant, dec))
    for the _Run until it converges: returns (number kept, converged)."""
    ts, cs, kernel = record
    samples, kept = _converging([(run, first, count)], ts, cs, kernel, conv_tol)
    ((_, _, count, converged),) = kept
    _keep(samples, kept, None)
    return count, converged


def _recorded(ts, cs, variant, dec, label, conv_tol=CONV_TOL):
    """The FlowSamples of one record of the states cs, built as a run's trajectory is; with
    conv_tol = 0 no record forms their field norms."""
    run = _Run(FlowTrajectory(variant, label), np.inf, 1.0)
    _append(run, (ts, cs, (variant, dec)), 0, len(ts), conv_tol)
    return _kept(run, variant, dec, label)


def _kept(run, variant, dec, label):
    return _run_samples(run.blocks, variant, dec, label)[0] if run.blocks else []


class TestStackSampler:
    """A step's grid samples are recorded as one stack (flows._converging and flows._keep), and
    a run's samples are built once, from its kept blocks (flows._run_samples)."""

    @staticmethod
    def _states(mu_s3, s3_label, variant):
        label = None if variant == Variant.RAW else s3_label
        dec = None if label is None else beta_decomposition(label)
        spec = FlowSpec(variant=variant, t_end=5.0, label=label, record_every=0.5)
        traj = integrate(mu_s3, spec)
        ts = [s.t for s in traj.samples]
        # Off the scal* = -1 slice, as the dense samples inside a step are, and
        # exactly antisymmetric, as every state a flow records is.
        rng = np.random.default_rng(3)
        cs = np.stack([s.bracket.coeffs for s in traj.samples])
        cs = cs * np.linspace(1.0, 1.001, len(ts))[:, None, None, None]
        noise = 1e-16 * rng.standard_normal(cs.shape)
        cs += noise - noise.swapaxes(1, 2)
        return ts, cs, dec, label

    @pytest.mark.parametrize("variant", [Variant.RAW, Variant.GAUGED, Variant.SCALSTAR])
    def test_stack_equals_each_slice_alone(self, mu_s3, s3_label, variant):
        ts, cs, dec, label = self._states(mu_s3, s3_label, variant)
        stacked = _recorded(ts, cs, variant, dec, label)
        for j in range(len(ts)):
            alone = _recorded(ts[j : j + 1], cs[j : j + 1], variant, dec, label)
            _same_sample(stacked[j], alone[0])

    @pytest.mark.parametrize("variant", [Variant.RAW, Variant.GAUGED, Variant.SCALSTAR])
    def test_a_record_that_forms_no_curvature_gives_the_same_samples(self, mu_s3, s3_label,
                                                                       variant):
        # Runs that do not check convergence leave the field norms to the one
        # pass over the run's samples.
        ts, cs, dec, label = self._states(mu_s3, s3_label, variant)
        measured = _recorded(ts, cs, variant, dec, label)
        deferred = _recorded(ts, cs, variant, dec, label, conv_tol=0.0)
        for got, want in zip(deferred, measured, strict=True):
            _same_sample(got, want)

    def test_failed_middle_sample_raises_when_reached(self, mu_s3):
        bad = random_antisymmetric_bracket(np.random.default_rng(1), 3).coeffs
        cs = np.stack([mu_s3.coeffs, bad, mu_s3.coeffs])
        run = _Run(FlowTrajectory(Variant.RAW, None), np.inf, 1.0)
        with pytest.raises(NotALieBracket) as got:
            _append(run, ([0.0, 1.0, 2.0], cs, (Variant.RAW, None)), 0, 3, CONV_TOL)
        assert run.blocks == [] and run.count == 0
        with pytest.raises(NotALieBracket) as want:
            curvature_pack(BracketTensor(bad))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("j", [0, 4, 9])
    def test_stack_converging_at_sample_j_appends_j_plus_one(self, hyp_norm, hyp_label, j):
        # Every state of the fixed point meets conv_tol, so the run converges
        # at the sample that fills the window.
        dec = beta_decomposition(hyp_label)

        def stack(count):
            return [0.0] * count, np.stack([hyp_norm.coeffs] * count), (Variant.SCALSTAR, dec)

        run = _Run(FlowTrajectory(Variant.SCALSTAR, hyp_label), np.inf, 1.0)
        before = CONV_WINDOW - 1 - j
        if before:
            assert _append(run, stack(before), 0, before, CONV_TOL) == (before, False)
        assert _append(run, stack(12), 0, 12, CONV_TOL) == (j + 1, True)
        assert len(_kept(run, Variant.SCALSTAR, dec, hyp_label)) == CONV_WINDOW

    def test_a_sample_above_the_threshold_restarts_the_window(self, hyp_norm, hyp_label, mu_s3):
        # s3 is no fixed point of the flow gauged by the soliton's label.
        dec = beta_decomposition(hyp_label)
        cs = np.stack([hyp_norm.coeffs] * (2 * CONV_WINDOW))
        j = CONV_WINDOW // 2
        cs[j] = mu_s3.coeffs
        run = _Run(FlowTrajectory(Variant.SCALSTAR, hyp_label), np.inf, 1.0)
        record = ([0.0] * len(cs), cs, (Variant.SCALSTAR, dec))
        assert _append(run, record, 0, len(cs), CONV_TOL) == (j + 1 + CONV_WINDOW, True)

    def test_one_curvature_pass_per_stack(self, monkeypatch, mu_e2):
        # e2 is flat: its raw field vanishes, so the flow to t = 200 is one step
        # (the first step is t_end) for 201 grid samples: the first stage, the
        # starting step's Euler stage, eleven new stages a step, the last, three
        # for the dense output and one pass per recorded stack.  Every curvature
        # pass goes through the Ric*-only half.
        calls = []
        half = curvature.coeff_ric_star

        def counting(c):
            calls.append(c.shape)
            return half(c)

        monkeypatch.setattr(curvature, "coeff_ric_star", counting)
        monkeypatch.setattr(flows, "coeff_ric_star", counting)
        spec = FlowSpec(variant=Variant.RAW, t_end=200.0, record_every=1.0, conv_tol=0.0)
        traj = integrate(mu_e2, spec)
        assert (traj.steps, len(traj.samples)) == (1, 201)
        assert len(calls) <= 2 + 15 * traj.steps + 2

    def test_no_flow_forms_m_or_k(self, monkeypatch, mu_s3, s3_label):
        # Ric* is one product: no stage, record or sample pass forms the moment
        # map part M or the Killing form K, on any variant, with or without gauges.
        calls = []
        for module, name in ((curvature, "coeff_moment"), (curvature, "coeff_killing"),
                             (strata, "coeff_moment")):
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
        dec = beta_decomposition(s3_label)
        for variant in Variant:
            label = None if variant == Variant.RAW else s3_label
            for gauges in (True, False):
                spec = FlowSpec(variant=variant, t_end=5.0, label=label, gauges=gauges)
                integrate(mu_s3, spec)
                integrate_stack([mu_s3, mu_s3.scaled(2.0)], spec)
            if variant != Variant.SCAL:
                flow_field(mu_s3.coeffs, variant, None if variant == Variant.RAW else dec)
        assert calls == []
        curvature_pack(mu_s3)  # the counters see the pack's M and K
        assert len(calls) == 2


def _same_trajectory(got, want):
    """Bit equality of two FlowTrajectories: every sample, every gauge stack, the
    termination, steps and renormalizations."""
    assert len(got.samples) == len(want.samples)
    for g, w in zip(got.samples, want.samples):
        _same_sample(g, w)
    assert got.gauges.keys() == want.gauges.keys()
    for key, mats in want.gauges.items():
        assert got.gauges[key].shape == mats.shape
        assert got.gauges[key].tobytes() == mats.tobytes()
    if want.gauges:
        assert got.gauge_times.tobytes() == want.gauge_times.tobytes()
    assert (got.termination, got.steps, got.renormalizations) == (
        want.termination, want.steps, want.renormalizations)


def _integrate_each(mu0s, spec):
    """integrate on each seed alone: its trajectory, or the error it raises."""
    out = []
    for mu0 in mu0s:
        try:
            out.append(integrate(mu0, spec))
        except (BracketFlowError, ValueError) as exc:
            out.append(exc)
    return out


def _s3_lambda_gauge(seed, draw):
    """act(h, s3_lambda(0.5)) for the draw-th parabolic gauge h of a generator seeded with seed."""
    entry = catalog("s3_lambda", lam=0.5)
    dec = beta_decomposition(stratum_label(entry.bracket))
    rng = np.random.default_rng(seed)
    gauges = [random_parabolic_gauge(rng, dec) for _ in range(draw + 1)]
    return act(gauges[-1], entry.bracket)


@functools.cache
def _stack_base(n):
    """A solitonic bracket of dimension n, its stratum label and beta-decomposition."""
    bases = {
        2: lambda: almost_abelian(np.array([[1.0]])),
        3: lambda: normalize_soliton(catalog("s3_lambda", lam=1.0).bracket,
                                     soliton_residual(catalog("s3_lambda", lam=1.0).bracket)),
        4: lambda: almost_abelian(np.diag([1.0, 2.0, 3.0])),
        5: lambda: catalog("heisenberg", dim=5).bracket,
    }
    mu = bases[n]()
    label = stratum_label(mu)
    return mu, label, beta_decomposition(label)


class TestLockstep:
    """integrate_stack steps B trajectories as one stack; each equals integrate alone.

    It checks every seed before the first step, then raises the first error
    its loop meets.
    """

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        n=st.integers(2, 5),
        size=st.integers(1, 5),
        variant=st.sampled_from(list(Variant)),
        seed=st.integers(0, 2**32 - 1),
        fixed_at=st.integers(0, 4),
        bad_at=st.none() | st.integers(0, 4),
        max_steps=st.sampled_from([6, 2_000_000]),
        conv_tol=st.sampled_from([CONV_TOL, 0.0]),
    )
    def test_each_trajectory_equals_integrate_alone(
        self, n, size, variant, seed, fixed_at, bad_at, max_steps, conv_tol
    ):
        # Parabolic gauges of a soliton: the soliton itself (fixed_at) is a
        # fixed point of the gauged and scalstar flows, so its slice converges
        # while the others run on.  A seed that is not a Lie bracket (n >= 3),
        # or the zero bracket (n = 2, not gauged correctly), raises.
        mu, label, dec = _stack_base(n)
        rng = np.random.default_rng(seed)
        mu0s = [act(random_parabolic_gauge(rng, dec), mu) for _ in range(size)]
        mu0s[fixed_at % size] = mu
        if bad_at is not None and bad_at < size:
            mu0s[bad_at] = (random_antisymmetric_bracket(rng, n) if n >= 3
                            else BracketTensor.zero(n))
        # conv_tol = 0 on a raw run leaves the curvature of every record to the
        # pass over the run's samples.
        spec = FlowSpec(variant=variant, t_end=3.0, record_every=0.25, max_steps=max_steps,
                        label=None if variant == Variant.RAW else label, conv_tol=conv_tol)
        want = _integrate_each(mu0s, spec)
        errors = [(type(w), str(w)) for w in want if isinstance(w, Exception)]
        if errors:
            with pytest.raises((BracketFlowError, ValueError)) as got:
                integrate_stack(mu0s, spec)
            assert (type(got.value), str(got.value)) in errors
            return
        got = integrate_stack(mu0s, spec)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_trajectory(g, w)

    def test_a_stack_whose_records_form_no_curvature_equals_integrate_alone(self):
        # A raw stack with conv_tol = 0 keeps its seeds' states for the one pass
        # over each run's samples.  These gauges reject a step while the other
        # runs accept theirs, so the loop writes into its stack of states.
        mu, _, dec = _stack_base(4)
        rng = np.random.default_rng(4)
        mu0s = [act(random_parabolic_gauge(rng, dec), mu) for _ in range(3)]
        spec = FlowSpec(variant=Variant.RAW, t_end=3.0, record_every=0.25, conv_tol=0.0)
        for g, w in zip(integrate_stack(mu0s, spec), _integrate_each(mu0s, spec), strict=True):
            _same_trajectory(g, w)

    def test_mid_flow_error_comes_from_the_lowest_failing_trajectory(self):
        # Of these five parabolic gauges of s3_lambda(0.5), the third records a
        # sample whose Jacobi residual exceeds the tolerance before t = 20;
        # the fourth and fifth run clean.
        entry = catalog("s3_lambda", lam=0.5)
        label = stratum_label(entry.bracket)
        rng = np.random.default_rng(2140869028)
        mu0s = [act(random_parabolic_gauge(rng, beta_decomposition(label)), entry.bracket)
                for _ in range(5)]
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label, record_every=0.5)
        want = _integrate_each(mu0s, spec)
        assert [isinstance(w, NotALieBracket) for w in want] == [False, False, True, False, False]
        with pytest.raises(NotALieBracket) as got:
            integrate_stack(mu0s, spec)
        assert str(got.value) == str(want[2]) == "Jacobi residual 3.143e-10 exceeds tolerance"
        for g, w in zip(integrate_stack(mu0s[:2], spec), want[:2]):
            _same_trajectory(g, w)
        for g, w in zip(integrate_stack(mu0s[3:], spec), want[3:]):
            _same_trajectory(g, w)

    def test_the_error_met_first_wins_over_the_lower_index(self):
        # Alone, the first seed records a Jacobi residual past the tolerance
        # at its 14th step and the second at its 8th, so the stack meets the
        # second one's error first.
        mu0s = [_s3_lambda_gauge(2, 0), _s3_lambda_gauge(3, 4)]
        label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label, record_every=0.5)
        want = [str(w) for w in _integrate_each(mu0s, spec)]
        assert want == ["Jacobi residual 4.042e-10 exceeds tolerance",
                        "Jacobi residual 4.024e-10 exceeds tolerance"]
        with pytest.raises(NotALieBracket) as got:
            integrate_stack(mu0s, spec)
        assert str(got.value) == want[1]

    def test_a_bad_seed_raises_before_the_first_step(self, monkeypatch, mu_s3):
        calls = []
        step = flows._dp_step

        def counting(*args):
            calls.append(len(args[1]))
            return step(*args)

        monkeypatch.setattr(flows, "_dp_step", counting)
        bad = random_antisymmetric_bracket(np.random.default_rng(1), 3)
        want = _integrate_each([bad], FlowSpec(variant=Variant.RAW, t_end=1.0))[0]
        assert isinstance(want, NotALieBracket) and calls == []
        with pytest.raises(NotALieBracket) as got:
            integrate_stack([mu_s3, mu_s3, bad], FlowSpec(variant=Variant.RAW, t_end=1.0))
        assert str(got.value) == str(want) and calls == []

    def test_a_run_that_fails_before_its_first_step_raises_its_own_error(self, monkeypatch, mu_s3,
                                                                           s3_label):
        # A scalstar seed, moved onto scal* = -1, is checked as a record; the first check fails.
        stack = flows.bracket_stack

        def seed_sample_fails(cs):
            norm_sq, _ = stack(cs)
            return norm_sq, [NotALieBracket("seed sample")] * len(cs)

        monkeypatch.setattr(flows, "bracket_stack", seed_sample_fails)
        with pytest.raises(NotALieBracket, match="seed sample"):
            integrate(mu_s3, FlowSpec(variant=Variant.SCALSTAR, t_end=1.0, label=s3_label))

    def test_a_failed_renormalization_raises_its_own_error(self, monkeypatch, mu_s3, s3_label):
        # The seeds and the seed samples normalize; the first stage of the first
        # step, whose state the field moves onto scal* = -1, raises.
        factor, step, stepped = flows._scalstar_factor, flows._dp_step, []

        def stepping(*args):
            stepped.append(1)
            return step(*args)

        def no_renormalization(s):
            if stepped:
                raise OutOfRange("renormalization")
            return factor(s)

        monkeypatch.setattr(flows, "_dp_step", stepping)
        monkeypatch.setattr(flows, "_scalstar_factor", no_renormalization)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=1.0, label=s3_label)
        for run in (lambda: integrate(mu_s3, spec), lambda: integrate_stack([mu_s3, mu_s3], spec)):
            stepped.clear()
            with pytest.raises(OutOfRange, match="renormalization") as got:
                run()
            assert len(stepped) == 1 and got.traceback[-2].name == "_slopes"

    def test_empty_stack_and_one_dimension(self, mu_h3):
        spec = FlowSpec(variant=Variant.RAW, t_end=1.0)
        assert integrate_stack([], spec) == []
        with pytest.raises(ValueError, match=r"one dimension, got dimensions \[3, 5\]"):
            integrate_stack([mu_h3, catalog("heisenberg", dim=5).bracket], spec)


class TestGaugeSelection:
    """FlowSpec.gauges = False carries no gauge; h stays out of the bracket path."""

    @pytest.mark.parametrize("variant", [Variant.GAUGED, Variant.SCALSTAR, Variant.SCAL])
    def test_no_gauges_leave_the_flow_unchanged(self, mu_s3, s3_label, variant):
        spec = FlowSpec(variant=variant, t_end=5.0, label=s3_label, record_every=0.25)
        want = integrate(mu_s3, spec)
        assert want.gauges.keys() == set(GAUGE_COEFFICIENTS)
        got = integrate(mu_s3, dataclasses.replace(spec, gauges=False))
        _same_trajectory(got, dataclasses.replace(want, gauges={}))

    @pytest.mark.parametrize("variant", [Variant.SCALSTAR, Variant.SCAL])
    def test_stack_without_gauges_equals_the_default(self, variant):
        # Gauges of s3_lambda(0.5) take different steps, so the stack
        # accepts, rejects and renormalizes its runs apart.
        mu0s = [_s3_lambda_gauge(7, draw) for draw in range(3)]
        label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)
        spec = FlowSpec(variant=variant, t_end=5.0, label=label, record_every=0.25)
        want = integrate_stack(mu0s, spec)
        got = integrate_stack(mu0s, dataclasses.replace(spec, gauges=False))
        for g, w in zip(got, want, strict=True):
            _same_trajectory(g, dataclasses.replace(w, gauges={}))

    @pytest.mark.parametrize("coefficient", GAUGE_COEFFICIENTS)
    def test_recovering_a_gauge_not_carried_raises(self, mu_s3, s3_label, coefficient):
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=1.0, label=s3_label, gauges=False)
        with pytest.raises(GaugeMismatch, match=r"run with FlowSpec\.gauges = True"):
            recover_gauge(integrate(mu_s3, spec), coefficient=coefficient)

    def test_uniqueness_report_equals_the_default_gauge_report(self, monkeypatch):
        entry = catalog("s3_lambda", lam=0.5)
        got = run_uniqueness_experiment(entry, 5, t_end=100.0, seed=0)
        specs = []

        def default_gauges(**kw):
            specs.append(kw.pop("gauges"))
            return FlowSpec(**kw)

        monkeypatch.setattr(experiments, "FlowSpec", default_gauges)
        want = run_uniqueness_experiment(entry, 5, t_end=100.0, seed=0)
        assert specs == [False]
        assert got.to_dict() == want.to_dict()
        for g, w in zip(got.fingerprints, want.fingerprints, strict=True):
            assert g.as_vector().tobytes() == w.as_vector().tobytes()
            assert (g.nilradical_dim, g.derived_dims) == (w.nilradical_dim, w.derived_dims)

    def test_gauge_integration_only_for_carried_gauges(self, monkeypatch, mu_s3, s3_label):
        # The gauges are integrated along each accepted step's dense output
        # (flows._Lockstep._gauges), once per step of a run that carries them, with one call
        # of scipy's expm each; nothing else takes an exponential.
        calls, exps, gauges = [], [], flows._Lockstep._gauges

        def counting(lockstep, run, *args):
            calls.append(run)
            return gauges(lockstep, run, *args)

        def exponential(a):
            exps.append(len(a))
            return sla.expm(a)

        assert flows.expm is sla.expm
        assert not any(hasattr(flows, name) for name in ("expm_stack", "_magnus", "_pieces"))
        monkeypatch.setattr(flows._Lockstep, "_gauges", counting)
        monkeypatch.setattr(flows, "expm", exponential)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=s3_label, record_every=0.25)
        assert integrate(mu_s3, dataclasses.replace(spec, gauges=False)).gauges == {}
        assert calls == exps == []
        traj = integrate(mu_s3, spec)
        assert len(calls) == len(exps) == traj.steps - traj.rejected
        calls.clear()
        exps.clear()
        mu0s = [_s3_lambda_gauge(7, draw) for draw in range(3)]
        label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)
        trajs = integrate_stack(mu0s, dataclasses.replace(spec, label=label))
        assert len(calls) == len(exps) == sum(t.steps - t.rejected for t in trajs)
        calls.clear()
        exps.clear()
        for t in [traj] + trajs:
            for coefficient in GAUGE_COEFFICIENTS:
                recover_gauge(t, coefficient=coefficient)
        run_uniqueness_experiment(catalog("s3_lambda", lam=0.5), 5, t_end=100.0, seed=0)
        assert calls == exps == []


class TestWorkCounts:
    """The steps, samples and field evaluations are pinned exactly, so that a change
    to the step-size controller, the tableau or the kernel that moves them shows,
    and fewer steps can be told apart from cheaper ones.

    Stages are counted at _Lockstep._slopes, which takes the polynomial field at
    n <= POLY_MAX_DIM and the tensor kernel above it, so both paths count alike.
    Each run evaluates the field on its first state (_start), on the Euler
    state of its starting step (_first_steps), on the eleven new stages of each
    step tried (_dp_step) and on the new state of each accepted step (_accept, the
    dense output's k_12; on scalstar runs, whose every accepted step is projected
    onto scal* = -1, the next step's first slope follows from it in closed form).
    The dense output's three extra stages (_extra_stages) are evaluated on the
    accepted steps with grid samples inside them, and on every accepted step of a
    run that carries gauges.  Records measure their states' field norms apart (_converging).
    """

    @staticmethod
    def _stage_slices(monkeypatch):
        """Per caller, the number of states the stages (_Lockstep._slopes, polynomial or
        tensor) and the records (the field kernel outside _slopes) evaluate the field on."""
        slices = {}
        slopes, kernel = flows._Lockstep._slopes, flows._field

        def count(caller, states):
            slices[caller] = slices.get(caller, 0) + states

        def stage(lockstep, y, out):
            count(sys._getframe(1).f_code.co_name, 1 if y.ndim == 1 else len(y))
            return slopes(lockstep, y, out)

        def record(c, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            if caller != "_slopes":
                count(caller, 1 if c.ndim == 3 else len(c))
            return kernel(c, *args, **kwargs)

        monkeypatch.setattr(flows._Lockstep, "_slopes", stage)
        monkeypatch.setattr(flows, "_field", record)
        return slices

    @staticmethod
    def _stages(traj, extended):
        """The stage slices of one run, extended the accepted steps with the extra stages."""
        return {"_start": 1, "_first_steps": 1, "_dp_step": 11 * traj.steps,
                "_accept": traj.steps - traj.rejected, "_extra_stages": 3 * extended}

    @staticmethod
    def _without_records(slices):
        return {k: v for k, v in slices.items() if k != "_converging"}

    def test_s3_scalstar_to_t_100(self, monkeypatch, mu_s3, s3_label):
        slices = self._stage_slices(monkeypatch)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=0.25)
        traj = integrate(mu_s3, spec)
        assert (traj.steps, traj.rejected, len(traj.samples), traj.renormalizations) == (
            25, 0, 401, 25)
        assert self._without_records(slices) == self._stages(traj, 25)
        assert slices["_converging"] == 401

    def test_flow_on_the_soliton(self, monkeypatch):
        # s3_lambda(0.5) is a solvsoliton, a fixed point of the scalstar flow: its
        # field is round-off, too small to move the state by its tolerance before
        # t_end, so the one step is t_end.
        mu = catalog("s3_lambda", lam=0.5).bracket
        slices = self._stage_slices(monkeypatch)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=stratum_label(mu),
                        record_every=100.0, conv_tol=0.0)
        traj = integrate(mu, spec)
        assert (traj.steps, traj.rejected, traj.renormalizations) == (1, 0, 1)
        assert slices == self._stages(traj, 1)

    @pytest.mark.parametrize("variant", [Variant.RAW, Variant.GAUGED, Variant.SCALSTAR])
    def test_stage_slices_per_run(self, monkeypatch, mu_s3, s3_label, variant):
        slices = self._stage_slices(monkeypatch)
        label = None if variant == Variant.RAW else s3_label
        traj = integrate(mu_s3, FlowSpec(variant=variant, t_end=20.0, label=label))
        steps, rejected, extended = {Variant.RAW: (32, 0, 17), Variant.GAUGED: (29, 0, 29),
                                     Variant.SCALSTAR: (16, 0, 16)}[variant]
        assert (traj.steps, traj.rejected) == (steps, rejected)
        assert self._without_records(slices) == self._stages(traj, extended)
        assert traj.renormalizations == (traj.steps - traj.rejected
                                         if variant == Variant.SCALSTAR else 0)

    def test_stage_slices_per_stack(self, monkeypatch):
        # The gauges take different steps, so runs are accepted and end apart;
        # each still costs its own stages.
        mu0s = [_s3_lambda_gauge(7, draw) for draw in range(3)]
        label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)
        slices = self._stage_slices(monkeypatch)
        trajs = integrate_stack(mu0s, FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label))
        assert len({traj.steps for traj in trajs}) > 1
        want = {}
        for t in trajs:  # gauged: every accepted step evaluates the extra stages
            for key, value in self._stages(t, t.steps - t.rejected).items():
                want[key] = want.get(key, 0) + value
        assert self._without_records(slices) == {**want, "_start": 3, "_first_steps": 3}
        assert all(t.renormalizations == t.steps - t.rejected for t in trajs)

    def test_flowhd_shaped_runs(self, monkeypatch, rng):
        # Raw n = 8 and n = 16 draws at norm 3 and a scalstar heisenberg(9)
        # parabolic gauge, each to t = 20 recorded at t_end only.
        runs = []
        raw = FlowSpec(variant=Variant.RAW, t_end=20.0, record_every=20.0)
        for n in (8, 16):
            mu = random_solvable_bracket(rng, n)
            runs.append((mu.scaled(3.0 / mu.norm), raw))
        heis = catalog("heisenberg", dim=9).bracket
        label = stratum_label(heis)
        h0 = random_parabolic_gauge(rng, beta_decomposition(label))
        runs.append((act(h0, heis), FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label,
                                             record_every=20.0)))
        slices = self._stage_slices(monkeypatch)
        counts = []
        for mu0, spec in runs:
            slices.clear()
            traj = integrate(mu0, spec)
            counts.append((traj.steps, traj.rejected, traj.renormalizations,
                           sum(self._without_records(slices).values())))
        assert counts == [(35, 0, 0, 422), (33, 0, 0, 398), (34, 4, 30, 496)]

    def test_gauge_coefficient_states(self, monkeypatch, mu_s3, s3_label):
        # The gauges' Magnus sub-steps take X = (A, R) at four nodes each, formed in one stack
        # per accepted step (and one more per cut of the sub-step length).  On s3 most of the
        # 401 samples lie inside steps and cut them: 448 sub-steps, and one step cuts its
        # length once (1,812 states).  The heisenberg(13) gauge, recorded at t_end only, takes
        # one sub-step per accepted step.
        states, coefficients = [], flows._Lockstep._coefficients

        def counting(lockstep, cs):
            states.append(len(cs))
            return coefficients(lockstep, cs)

        monkeypatch.setattr(flows._Lockstep, "_coefficients", counting)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=0.25)
        traj = integrate(mu_s3, spec)
        assert (traj.steps, traj.rejected, len(traj.samples)) == (25, 0, 401)
        assert sum(states) <= 1850
        heis = catalog("heisenberg", dim=13).bracket
        label = stratum_label(heis)
        mu0 = act(random_parabolic_gauge(np.random.default_rng(1), beta_decomposition(label)), heis)
        states.clear()
        traj = integrate(mu0, FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label,
                                       record_every=20.0))
        assert (traj.steps, traj.rejected) == (30, 3)
        assert sum(states) <= 4 * (traj.steps - traj.rejected + 1)

    def test_raw_flat_bracket_takes_one_step(self, mu_e2):
        # e2's raw field vanishes, so the starting step is t_end.
        spec = FlowSpec(variant=Variant.RAW, t_end=200.0, record_every=1.0, conv_tol=0.0)
        traj = integrate(mu_e2, spec)
        assert (traj.steps, traj.rejected, len(traj.samples)) == (1, 0, 201)

    def test_h3_scalstar_converges_inside_its_first_step(self, monkeypatch, mu_h3):
        # The run's one step to t = 100 has 400 grid points; the convergence window
        # fills at the tenth sample, and only the ten are built and checked, their
        # field norms measured in one chunk.
        built, stack = [], flows.bracket_stack

        def counting(cs):
            built.append(len(cs))
            return stack(cs)

        monkeypatch.setattr(flows, "bracket_stack", counting)
        slices = self._stage_slices(monkeypatch)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=stratum_label(mu_h3),
                        record_every=0.25)
        traj = integrate(mu_h3, spec)
        assert (traj.termination, traj.steps, len(traj.samples)) == (
            Termination.CONVERGED, 1, 10)
        assert traj.times.tolist() == [0.25 * j for j in range(10)]
        assert built == [1, 9] and slices["_converging"] == 1 + 10
        assert all(len(mats) == 10 for mats in traj.gauges.values())

    def test_zero_t_end_records_the_seed_and_steps_nothing(self, monkeypatch, mu_h3):
        slices = self._stage_slices(monkeypatch)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=0.0, label=stratum_label(mu_h3))
        traj = integrate(mu_h3, spec)
        assert (traj.steps, traj.times.tolist(), traj.termination) == (
            0, [0.0], Termination.REACHED_T_END)
        assert self._without_records(slices) == {"_start": 1}


class TestSliceProjection:
    """Every accepted scalstar step is moved back onto scal* = -1, y <- lam y, and the next
    step's first slope is the field there: at n <= POLY_MAX_DIM by the degree split of the
    field at the step's new state, F(lam c) = lam^3 F(c) + (lam^5 - lam^3) q c with
    q = ||Ric*(c)||^2, above it at the moved state; it matches a fresh field kernel call at
    the projected state within 1e-14 of F's scale ||F|| + q ||c||."""

    @staticmethod
    def _carried_gaps(monkeypatch):
        """Per accepted step, the relative gaps of the carried slope of each run."""
        gaps, accept = [], flows._Lockstep._accept

        def checking(lockstep, acc, *args):
            accept(lockstep, acc, *args)
            n = lockstep.n
            y = lockstep.y[acc].reshape(len(acc), n, n, n)
            slopes, _, rs = flows._field(y, *lockstep.kernel)
            q = (rs * rs).sum(axis=(1, 2))
            scale = np.abs(slopes).max(axis=(1, 2, 3)) + q * np.abs(y).max(axis=(1, 2, 3))
            gaps.append(np.abs(lockstep.k0[acc] - slopes.reshape(len(y), -1)).max(axis=1) / scale)
            assert np.abs(flows.coeff_scal_star(y) + 1.0).max() <= 1e-14

        monkeypatch.setattr(flows._Lockstep, "_accept", checking)
        return gaps

    def test_s3_scalstar_to_t_100(self, monkeypatch, mu_s3, s3_label):
        gaps = self._carried_gaps(monkeypatch)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=0.25)
        traj = integrate(mu_s3, spec)
        assert len(gaps) == traj.renormalizations == traj.steps - traj.rejected
        assert max(g.max() for g in gaps) <= 1e-14

    def test_stack_of_three_gauges(self, monkeypatch):
        # With staggered rejected tries, so that the stack also projects part of its runs.
        mu0s = [_s3_lambda_gauge(7, draw) for draw in range(3)]
        label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)
        gaps = self._carried_gaps(monkeypatch)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=label, record_every=0.25)
        trajs = _rejecting(lambda: integrate_stack(mu0s, spec))
        assert all(t.rejected > 0 for t in trajs)
        assert sum(len(g) for g in gaps) == sum(t.renormalizations for t in trajs)
        assert max(g.max() for g in gaps) <= 1e-14


class TestExactAntisymmetry:
    """Every stage state is exactly antisymmetric in its first two axes: the slopes
    of _Lockstep._slopes are, on its polynomial path (n <= POLY_MAX_DIM) and on the
    tensor kernel, and a stage state is one product of the step's coefficients with
    the state and slopes, which keeps them so."""

    @staticmethod
    def _stage_defects(monkeypatch):
        """The antisymmetry defect of each stage state and of its slopes, at _slopes."""
        defects = []
        slopes = flows._Lockstep._slopes

        def defect(flat, n):
            c = flat.reshape(-1, n, n, n)
            return float(np.max(np.abs(c + c.swapaxes(-3, -2))))

        def checking(lockstep, y, out):
            factor = slopes(lockstep, y, out)
            defects.append(max(defect(y, lockstep.n), defect(out, lockstep.n)))
            return factor

        monkeypatch.setattr(flows._Lockstep, "_slopes", checking)
        return defects

    def test_s3_scalstar_to_t_100(self, monkeypatch, mu_s3, s3_label):
        defects = self._stage_defects(monkeypatch)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=0.25)
        traj = integrate(mu_s3, spec)
        assert (traj.steps, traj.rejected) == (25, 0)
        assert len(defects) >= 2 + 12 * 25 and max(defects) == 0.0

    def test_raw_n8_draw(self, monkeypatch, rng):
        mu = random_solvable_bracket(rng, 8)
        defects = self._stage_defects(monkeypatch)
        spec = FlowSpec(variant=Variant.RAW, t_end=20.0, record_every=20.0)
        assert integrate(mu.scaled(3.0 / mu.norm), spec).steps > 30
        assert max(defects) == 0.0

    def test_gauged_stack_of_three(self, monkeypatch):
        mu0s = [_s3_lambda_gauge(7, draw) for draw in range(3)]
        label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)
        defects = self._stage_defects(monkeypatch)
        trajs = integrate_stack(mu0s, FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label))
        assert all(traj.gauges for traj in trajs)
        assert max(defects) == 0.0


class TestRecordedStacksAreExactlyAntisymmetric:
    """bracket_stack neither checks nor projects antisymmetry, because every stack a flow
    gives it is exactly antisymmetric: the records' seeds, dense and step-end samples and
    final samples, and a scal run's rescaled samples.  A raw or gauged run's seed sample is
    the caller's bracket, checked already, so only scalstar seeds reach bracket_stack."""

    @staticmethod
    def _defects(run):
        """run() with, per kind of sample, the largest |c + c^T| of each state that the
        flows give bracket_stack."""
        defects, ends = {}, []
        record, stack = flows._Lockstep._record, flows.bracket_stack

        def recording(lockstep, runs, *args):
            ends[:] = [run.t for run in runs]  # the step ends of this record
            return record(lockstep, runs, *args)

        def checking(cs):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_run_samples":
                kinds = ["scal rescale"] * len(cs)
            else:  # _keep, from _start, _finish or _record
                kind = {"_start": "seed", "_finish": "final"}.get(caller.f_back.f_code.co_name)
                kinds = [kind or ("step end" if any(abs(t - e) <= 1e-12 * max(1.0, e)
                                                    for e in ends) else "dense")
                         for t in caller.f_locals["samples"][0]]
            for kind, defect in zip(kinds, np.abs(cs + cs.swapaxes(1, 2)).max(axis=(1, 2, 3)),
                                    strict=True):
                defects.setdefault(kind, []).append(float(defect))
            return stack(cs)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(flows._Lockstep, "_record", recording)
            m.setattr(flows, "bracket_stack", checking)
            run()
        return defects

    def test_s3_scalstar_to_t_100(self, mu_s3, s3_label):
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=0.25)
        defects = self._defects(lambda: integrate(mu_s3, spec))
        assert sorted(defects) == ["dense", "seed", "step end"]
        assert len(defects["dense"]) > 300
        assert max(max(d) for d in defects.values()) == 0.0

    def test_scal_rescale_and_final_samples(self, mu_s3, s3_label):
        spec = FlowSpec(variant=Variant.SCAL, t_end=10.3, label=s3_label)
        defects = self._defects(lambda: integrate(mu_s3, spec))
        assert sorted(defects) == ["dense", "final", "scal rescale", "seed"]
        assert len(defects["scal rescale"]) == 22
        assert max(max(d) for d in defects.values()) == 0.0

    def test_gauged_stack_of_three_with_rejected_steps(self):
        mu0s = [_s3_lambda_gauge(7, draw) for draw in range(3)]
        label = stratum_label(catalog("s3_lambda", lam=0.5).bracket)
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=20.0, label=label, record_every=0.25)
        defects = self._defects(lambda: _rejecting(lambda: integrate_stack(mu0s, spec)))
        assert len(defects["seed"]) == 3 and len(defects["dense"]) > 100
        assert max(max(d) for d in defects.values()) == 0.0

    def test_raw_n8_draw(self, rng):
        mu = random_solvable_bracket(rng, 8)
        spec = FlowSpec(variant=Variant.RAW, t_end=20.0, record_every=3.0)
        defects = self._defects(lambda: integrate(mu.scaled(3.0 / mu.norm), spec))
        assert sorted(defects) == ["dense", "final"]
        assert max(max(d) for d in defects.values()) == 0.0

    def test_collapse_flow_off_flat_e2(self, mu_e2):
        defects = self._defects(lambda: experiments.run_collapse_experiment(
            catalog("e2"), gauge=np.diag([1.0, 1.0, 1.5])))
        assert sum(len(d) for d in defects.values()) == 200  # all but the seed
        assert max(max(d) for d in defects.values()) == 0.0


class TestStepControl:
    """dop853's step-size controller (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5):
    a step scales h by 0.9 e^(-1/8), clamped to [1/3, 6], and not up after a rejection;
    scalstar error estimates leave out the part the projection onto scal* = -1 undoes."""

    def test_one_factor_for_accepted_and_rejected_tries(self):
        # A rejected try (e > 1) is scaled by max(1/3, 0.9 e^(-1/8)) whether or not the try
        # before it was rejected; an accepted one by at most 6, and by at most 1 after a
        # rejection.
        for e in (1.0 + 1e-12, 2.0, 37.5, 1e6):
            want = max(1.0 / 3.0, 0.9 * e ** -0.125)
            assert flows._step_factor(e, False) == flows._step_factor(e, True) == want
        for e in (0.0, 1e-12):
            assert (flows._step_factor(e, False), flows._step_factor(e, True)) == (6.0, 1.0)
        assert (flows._step_factor(0.01, False), flows._step_factor(0.01, True)) == (
            0.9 * 0.01 ** -0.125, 1.0)
        assert flows._step_factor(0.5, True) == flows._step_factor(0.5, False) < 1.0
        for e in (math.nan, math.inf):  # rejected, and cut as far as the rule goes
            assert flows._step_factor(e, False) == flows._step_factor(e, True) == 1.0 / 3.0

    @staticmethod
    def _step_log(monkeypatch):
        """The [h, error norm] of every step tried by a run of one trajectory."""
        log, step, norms = [], flows._dp_step, flows._error_norms

        def stepping(kernel, y, h, *args):
            log.append([float(h[0])])
            return step(kernel, y, h, *args)

        def measuring(*args):
            errs = norms(*args)
            log[-1].append(errs[0])
            return errs

        monkeypatch.setattr(flows, "_dp_step", stepping)
        monkeypatch.setattr(flows, "_error_norms", measuring)
        return log

    def test_accepted_error_norms_sit_near_the_controller_equilibrium(self, monkeypatch, rng):
        # The 0.9 safety factor aims at 0.9^8 = 0.43 of the tolerance for an error
        # norm that grows like h^8; on this run it grows more slowly, and the
        # accepted norms' median is 0.13.
        mu = random_solvable_bracket(rng, 8)
        log = self._step_log(monkeypatch)
        integrate(mu.scaled(3.0 / mu.norm), FlowSpec(variant=Variant.RAW, t_end=20.0,
                                                     record_every=20.0))
        accepted = [e for _, e in log if e <= 1.0]
        assert 0.05 <= float(np.median(accepted)) <= 0.43

    def test_step_sequence_is_free_of_the_kernel_rounding(self, monkeypatch, mu_s3, s3_label):
        # Ric* formed as M - K/2 has the same values in other rounding.  The
        # starting step puts the first error norms near 1, not at round-off, and
        # the scalstar error estimate leaves out the slice's unstable normal, which
        # inside a long step carries round-off grown by up to e^(2h).
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=s3_label, record_every=0.25)
        runs = []
        for patched in (False, True):
            with monkeypatch.context() as m:
                if patched:
                    m.setattr(flows, "coeff_ric_star", lambda c: curvature.coeff_moment(c)
                              - 0.5 * curvature.coeff_killing(c))
                log = self._step_log(m)
                traj = integrate(mu_s3, spec)
            runs.append((traj.steps, np.array([h for h, e in log if e <= 1.0])))
        (steps, hs), (steps_patched, hs_patched) = runs
        assert steps == steps_patched == 25
        np.testing.assert_allclose(hs_patched, hs, rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_uniqueness_step_counts_are_free_of_the_kernel_rounding(self, monkeypatch, seed):
        # Each accepted step is projected onto scal* = -1, so no renormalization
        # follows the drift's last bits: every gauge of the uniqueness op takes
        # the same steps with Ric* formed as M - K/2.
        entry, run, counts = catalog("s3_lambda", lam=0.5), flows._Lockstep.run, []

        def counting(lockstep, mu0s):
            trajs = run(lockstep, mu0s)
            counts.append([(t.steps, t.rejected) for t in trajs])
            return trajs

        monkeypatch.setattr(flows._Lockstep, "run", counting)
        run_uniqueness_experiment(entry, 5, t_end=100.0, seed=seed)
        monkeypatch.setattr(flows, "coeff_ric_star", lambda c: curvature.coeff_moment(c)
                            - 0.5 * curvature.coeff_killing(c))
        run_uniqueness_experiment(entry, 5, t_end=100.0, seed=seed)
        assert len(counts[0]) == 5 and counts[0] == counts[1]

    def test_rejected_steps_are_counted(self, monkeypatch, mu_s3):
        # steps counts every step tried; rejected, the tries whose error norm exceeds 1.
        spec = FlowSpec(variant=Variant.RAW, t_end=2.0)
        assert integrate(mu_s3, spec).rejected == 0
        log = self._step_log(monkeypatch)
        norms = flows._error_norms
        monkeypatch.setattr(flows, "_error_norms",
                            lambda *args: [2.0] if len(log) == 1 else norms(*args))
        traj = integrate(mu_s3, spec)
        assert traj.rejected == 1 and traj.steps == len(log)
        assert log[1][0] == pytest.approx(log[0][0] * 0.9 * 2.0 ** -0.125)


class TestTableau:
    """flows writes Hairer's DOP853 as literals (importing scipy.integrate would cost memory
    and import time); they satisfy the quadrature conditions and equal scipy's."""

    @staticmethod
    def _scipy():
        from scipy.integrate._ivp import dop853_coefficients
        return dop853_coefficients

    def test_quadrature_order_conditions(self):
        b, c = flows._A[11, :12], np.concatenate(([0.0], flows._A[:11].sum(axis=1)))
        for k in range(1, 9):
            assert abs(b @ c ** (k - 1) - 1.0 / k) <= 2e-15, k

    def test_row_sums_are_the_nodes(self):
        dc = self._scipy()
        np.testing.assert_allclose(flows._A[:11].sum(axis=1), dc.C[1:12], rtol=0, atol=2e-15)
        np.testing.assert_allclose(flows._A[12:].sum(axis=1), dc.C[13:16], rtol=0, atol=2e-15)

    def test_coefficients_equal_scipys(self):
        dc = self._scipy()
        assert np.array_equal(flows._A[:11, :12], dc.A[1:12, :12])
        assert np.array_equal(flows._A[11, :12], dc.B)
        assert np.array_equal(flows._A[12:, :15], dc.A[13:16, :15])
        assert np.array_equal(flows._E, np.stack([dc.E5[:12], dc.E3[:12]]))
        assert not dc.E5[12:].any() and not dc.E3[12:].any()
        assert np.array_equal(flows._D, dc.D)

    def test_dense_weights_end_at_b_and_match_scipys_interpolant(self, rng):
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        w = flows._dense_weights([0.0, 1.0])
        assert not w[0].any()
        np.testing.assert_allclose(w[1], np.pad(flows._A[11, :12], (0, 4)), rtol=0, atol=1e-15)
        # scipy's interpolant from the same slopes: F = (dy, h f0 - dy, 2 dy - h (f1 + f0),
        # h D K), with dy = h b K and f1 = K[12].
        h, y0, k = 0.7, rng.standard_normal(5), rng.standard_normal((16, 5))
        dy = h * flows._A[11, :12] @ k[:12]
        f = np.stack([dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]),
                      *(h * self._scipy().D @ k)])
        dense = Dop853DenseOutput(0.0, h, y0, f)
        thetas = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(y0 + h * flows._dense_weights(thetas) @ k,
                                   dense(h * thetas).T, rtol=0, atol=1e-14)


class TestSeedSample:
    """A raw or gauged run's first sample is the caller's bracket itself, already checked
    by integrate; scalstar seeds are moved onto scal* = -1 and checked as a record."""

    @pytest.mark.parametrize("variant", [Variant.RAW, Variant.GAUGED])
    def test_first_sample_is_mu0_with_the_stacked_monitors(self, mu_s3, s3_label, variant):
        label = None if variant == Variant.RAW else s3_label
        dec = None if label is None else beta_decomposition(label)
        traj = integrate(mu_s3, FlowSpec(variant=variant, t_end=2.0, label=label))
        assert traj.samples[0].bracket is mu_s3
        # the monitors of the seed recorded as a stacked copy, checked as a record
        want = _recorded([0.0], mu_s3.coeffs[None].copy(), variant, dec, label)[0]
        _same_sample(traj.samples[0], want)
        assert want.bracket is not mu_s3

    def test_stack_keeps_each_seed(self, mu_s3):
        mu0s = [mu_s3, mu_s3.scaled(2.0)]
        trajs = integrate_stack(mu0s, FlowSpec(variant=Variant.RAW, t_end=1.0))
        assert all(t.samples[0].bracket is mu for t, mu in zip(trajs, mu0s, strict=True))

    def test_scalstar_seed_is_on_the_slice(self, mu_s3, s3_label):
        traj = integrate(mu_s3, FlowSpec(variant=Variant.SCALSTAR, t_end=1.0, label=s3_label))
        assert traj.samples[0].bracket is not mu_s3
        assert abs(traj.samples[0].pack.scalStar + 1.0) <= 1e-14


class TestFlowSpecValidation:
    @pytest.mark.parametrize("record_every", [0.0, -0.5, float("nan"), float("inf")])
    def test_record_every_must_be_positive_and_finite(self, mu_h3, record_every):
        spec = FlowSpec(variant=Variant.RAW, t_end=1.0, record_every=record_every)
        with pytest.raises(OutOfRange, match=f"record_every = {record_every}"):
            integrate(mu_h3, spec)

    @pytest.mark.parametrize("t_end", [-1.0, float("nan"), float("inf")])
    def test_t_end_must_be_nonnegative_and_finite(self, mu_h3, t_end):
        with pytest.raises(OutOfRange, match=f"t_end = {t_end}"):
            integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=t_end))

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tolerances_must_be_nonnegative_and_finite(self, mu_h3, field, tol):
        spec = FlowSpec(variant=Variant.RAW, t_end=1.0, **{field: tol})
        with pytest.raises(OutOfRange, match=f"{field} = {tol}"):
            integrate(mu_h3, spec)

    def test_tolerances_must_not_both_be_zero(self, mu_h3):
        spec = FlowSpec(variant=Variant.RAW, t_end=1.0, rel_tol=0.0, abs_tol=0.0)
        with pytest.raises(OutOfRange, match="rel_tol = 0.0 and abs_tol = 0.0"):
            integrate(mu_h3, spec)

    @pytest.mark.parametrize("max_steps, error", [(-1, OutOfRange), (2.5, TypeError)])
    def test_max_steps_must_be_a_nonnegative_integer(self, mu_h3, max_steps, error):
        with pytest.raises(error):
            integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=1.0, max_steps=max_steps))

    @pytest.mark.parametrize("conv_tol", [float("nan"), float("inf"), -float("inf")])
    def test_conv_tol_must_be_finite(self, mu_h3, conv_tol):
        with pytest.raises(OutOfRange, match=f"conv_tol = {conv_tol}"):
            integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=1.0, conv_tol=conv_tol))

    @pytest.mark.parametrize("conv_tol", [0.0, -1.0])
    def test_nonpositive_conv_tol_checks_no_convergence(self, mu_h3, conv_tol):
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=1.0, conv_tol=conv_tol))
        assert traj.termination == Termination.REACHED_T_END

    def test_zero_t_end_records_the_seed(self, mu_h3):
        traj = integrate(mu_h3, FlowSpec(variant=Variant.RAW, t_end=0.0))
        assert traj.termination == Termination.REACHED_T_END
        np.testing.assert_array_equal(traj.times, [0.0])
