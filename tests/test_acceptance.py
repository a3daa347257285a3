"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements.  Criteria 5 and 10 assert bounds that the true dynamics of the
three-dimensional catalog cannot meet (power-law center-manifold tails); they
are implemented exactly as stated and fail honestly.  See the repository
README for the measured rates.
"""

import time

import numpy as np
import scipy.linalg as sla

from bracketflow import (
    FlowSpec,
    Variant,
    act,
    beta_decomposition,
    blowdown_check,
    catalog,
    construct_critical,
    curvature_pack,
    detect_soliton_convergence,
    fingerprint,
    fingerprint_distance,
    integrate,
    l_operator,
    moment_map_fast,
    normalize_soliton,
    nilradical,
    pi_action,
    recover_gauge,
    soliton_label,
    soliton_residual,
    stratum_label,
)
from bracketflow.catalog import random_solvable_bracket
from bracketflow.experiments import random_parabolic_gauge
from bracketflow.solitons import SolitonKind

from oracles import (
    moment_map,
    oracle_ricci,
    pi_matrix,
    random_antisymmetric_bracket,
    random_orthogonal,
)


def _report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_01_curvature_oracle_equivalence(catalog_three_dim, rng):
    start = time.time()
    worst = 0.0
    brackets = [e.bracket for e in catalog_three_dim]
    brackets += [catalog("heisenberg", dim=5).bracket]
    for _ in range(100):
        brackets.append(random_solvable_bracket(rng, int(rng.integers(3, 7))))
    for mu in brackets:
        ric = curvature_pack(mu).Ric
        gap = np.linalg.norm(ric - oracle_ricci(mu)) / (1.0 + np.linalg.norm(ric))
        worst = max(worst, gap)
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    assert _report(1, ok, f"worst relative gap {worst:.2e} over {len(brackets)} brackets in {elapsed:.1f}s")


def test_criterion_02_fixed_point_values(rng):
    h3 = catalog("h3").bracket
    s31 = catalog("s3_lambda", lam=1.0).bracket
    e2 = catalog("e2").bracket
    checks = [
        np.allclose(curvature_pack(h3).Ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-12),
        np.allclose(curvature_pack(s31).Ric, -2.0 * np.eye(3), atol=1e-12),
        np.allclose(curvature_pack(e2).Ric, np.zeros((3, 3)), atol=1e-12),
        np.allclose(moment_map(h3), np.diag([-1.0, -1, 1]), atol=1e-12),
    ]
    worst_trace = 0.0
    for _ in range(1000):
        mu = random_antisymmetric_bracket(rng, int(rng.integers(3, 7)))
        worst_trace = max(worst_trace, abs(np.trace(moment_map_fast(mu)) + 1.0))
    ok = all(checks) and worst_trace <= 1e-12
    assert _report(2, ok, f"fixed values {checks}, worst |tr m + 1| = {worst_trace:.2e} over 1000 brackets")


def test_criterion_03_soliton_certificates():
    h3 = catalog("h3").bracket
    s31 = catalog("s3_lambda", lam=1.0).bracket
    cert_h3 = soliton_residual(h3)
    cert_s31 = soliton_residual(s31)
    ok = (
        cert_h3.kind == SolitonKind.NONTRIVIAL
        and abs(cert_h3.c + 1.5) <= 1e-10
        and np.allclose(cert_h3.D, np.diag([1.0, 1, 2]), atol=1e-10)
        and cert_h3.residual <= 1e-10
        and cert_s31.kind == SolitonKind.EINSTEIN
        and abs(cert_s31.c + 2.0) <= 1e-10
        and np.linalg.norm(cert_s31.D) <= 1e-10
    )
    # Normalization identities: beta+ is a PSD derivation with image the
    # nilradical; normalize_soliton raises if any clause fails.
    for mu, cert in ((h3, cert_h3), (s31, cert_s31)):
        norm = normalize_soliton(mu, cert)
        pack = curvature_pack(norm)
        beta_plus = pack.RicStar + float(np.sum(pack.RicStar**2)) * np.eye(3)
        ok = ok and np.linalg.norm(pi_action(beta_plus, norm).coeffs) <= 1e-8
        ok = ok and np.min(np.linalg.eigvalsh(beta_plus)) >= -1e-10
    assert _report(
        3, ok,
        f"h3 (c, D) = ({cert_h3.c:.6f}, diag{np.round(np.diag(cert_h3.D), 6).tolist()}) "
        f"residual {cert_h3.residual:.1e}; s31 Einstein c = {cert_s31.c:.6f} "
        f"||D|| = {np.linalg.norm(cert_s31.D):.1e}",
    )


def test_criterion_04_critical_point_construction():
    s31 = catalog("s3_lambda", lam=1.0).bracket
    norm = normalize_soliton(s31, soliton_residual(s31))
    label = stratum_label(norm)
    crit = construct_critical(norm, label)  # raises on identity violation at 1e-9
    gap = float(np.linalg.norm(moment_map_fast(crit) - label.beta))
    ok = gap <= 1e-8
    assert _report(4, ok, f"||m(h.mu) - beta|| = {gap:.2e}; transformation identities verified at 1e-9")


def test_criterion_05_flow_convergence_thm_a():
    entry = catalog("s3")
    label = stratum_label(entry.bracket)
    dec = beta_decomposition(label)
    gauge_rng = np.random.default_rng(11)
    f_tails, finals, per_seed = [], [], []
    for _ in range(5):
        seed_bracket = act(random_parabolic_gauge(gauge_rng, dec), entry.bracket)
        start = time.time()
        traj = integrate(
            seed_bracket,
            FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=label, record_every=0.5),
        )
        per_seed.append(time.time() - start)
        det = detect_soliton_convergence(traj)
        f_tails.append(det.f_tail)
        finals.append(traj.final)
    fps = [fingerprint(s.bracket) for s in finals]
    pairwise = max(
        fingerprint_distance(fps[i], fps[j])
        for i in range(5)
        for j in range(i + 1, 5)
    )
    spreads = []
    for s in finals:
        eigs = np.linalg.eigvalsh(s.pack.Ric)
        spreads.append(float(eigs.max() - eigs.min()))
    ok = (
        max(f_tails) <= 1e-8
        and pairwise <= 1e-4
        and max(spreads) <= 1e-4
        and max(per_seed) <= 60.0
    )
    _report(
        5, ok,
        f"f-tails at t=100: {[f'{v:.2e}' for v in f_tails]}; pairwise fingerprint "
        f"distance {pairwise:.2e}; Ric eigenvalue spreads {[f'{v:.2e}' for v in spreads]}; "
        f"max {max(per_seed):.1f}s/seed (center-manifold tail: f ~ 0.125/t^2, spread ~ 1/sqrt(t))",
    )
    assert max(per_seed) <= 60.0
    assert max(f_tails) <= 1e-8, "f-tail at t = 100 (power-law tail makes this unreachable)"
    assert pairwise <= 1e-4
    assert max(spreads) <= 1e-4


def test_criterion_06_monotonicity_and_rigidity_monitors():
    runs = [
        ("h3", None),
        ("s3", None),
        ("s3_lambda", 1.0),
        ("s3_lambda", 0.5),
        ("s3_lambda_prime", 0.7),
    ]
    worst_lyap, worst_cs, monotone = 0.0, 0.0, True
    for name, lam in runs:
        entry = catalog(name, lam=lam)
        label = stratum_label(entry.bracket)
        traj = integrate(
            entry.bracket,
            FlowSpec(variant=Variant.SCALSTAR, t_end=40.0, label=label, record_every=0.5),
        )
        lyaps = np.array([s.monitors.lyapunov for s in traj.samples])
        css = np.array([s.monitors.cs for s in traj.samples])
        fs = np.array([s.monitors.f for s in traj.samples])
        worst_lyap = min(worst_lyap, float(lyaps.min()))
        worst_cs = min(worst_cs, float(css.min()))
        window = 10
        if len(fs) > 2 * window:
            tails = np.array([fs[i : i + window].max() for i in range(window, len(fs) - window)])
            monotone = monotone and (np.all(np.diff(tails) <= 1e-12) or tails.max() <= 1e-8)
    ok = worst_lyap >= -1e-8 and worst_cs >= -1e-8 and monotone
    assert _report(
        6, ok,
        f"min lyapunov {worst_lyap:.2e}, min cs {worst_cs:.2e}, trailing f monotone: {monotone}",
    )


def test_criterion_07_type_three_collapse_dichotomy():
    label_free = dict(variant=Variant.RAW, t_end=200.0, record_every=1.0, conv_tol=0.0)
    windows = {}
    for name in ("h3", "s3"):
        traj = integrate(catalog(name).bracket, FlowSpec(**label_free))
        window = [s for s in traj.samples if s.t >= 1.0]
        type3 = [s.monitors.type3 for s in window]
        ric = [s.monitors.ric_bound for s in window]
        windows[name] = (min(type3), max(type3), min(ric))
    e2 = catalog("e2").bracket
    flat_run = integrate(e2, FlowSpec(**label_free))
    flat_final = flat_run.final.monitors.ric_bound
    gauged = act(np.diag([1.0, 1.0, 1.5]), e2)
    gauged_run = integrate(gauged, FlowSpec(**label_free))
    gauged_final = gauged_run.final.monitors.ric_bound
    ok = (
        all(w[0] > 1e-3 and w[2] > 1e-3 for w in windows.values())
        and flat_final <= 1e-3
        and gauged_final <= 1e-3
    )
    assert _report(
        7, ok,
        f"type-III windows h3 [{windows['h3'][0]:.3f}, {windows['h3'][1]:.3f}] "
        f"s3 [{windows['s3'][0]:.3f}, {windows['s3'][1]:.3f}]; "
        f"min t||Ric||: h3 {windows['h3'][2]:.3f}, s3 {windows['s3'][2]:.3f}; "
        f"e2 t||Ric|| at 200: catalog {flat_final:.1e}, gauged seed {gauged_final:.1e}",
    )


def test_criterion_08_linearization_spectra():
    details = []
    ok = True
    for name, lam, dim in (("h3", None, None), ("s3_lambda", 1.0, None),
                           ("s3_lambda", 0.5, None), ("heisenberg", None, 5)):
        mu = catalog(name, lam=lam, dim=dim).bracket
        aligned, label = soliton_label(normalize_soliton(mu, soliton_residual(mu)))
        rep = l_operator(aligned, beta_decomposition(label))
        nonzero = rep.eigenvalues[np.abs(rep.eigenvalues) > 1e-8]
        ok = ok and (nonzero.size == 0 or nonzero.max() <= -1e-6)
        ok = ok and rep.kernel_dim == rep.kbeta_orbit_dim and rep.kernel_matches_kbeta_orbit
        ok = ok and np.min(rep.P_spectrum, initial=0.0) >= -1e-10
        ok = ok and rep.P_kernel_dim == rep.P_kernel_expected_dim
        ok = ok and rep.P_kernel_residual <= 1e-8
        ok = ok and rep.commutator_norm <= 1e-9
        ok = ok and rep.flow_fd_discrepancy <= 1e-6
        details.append(
            f"{name}{'' if lam is None else f'({lam})'}: T={rep.tangent_dim} "
            f"ker={rep.kernel_dim} maxeig={nonzero.max() if nonzero.size else 0.0:.3f} "
            f"fd={rep.flow_fd_discrepancy:.1e}"
        )
    assert _report(8, ok, "; ".join(details))


def test_criterion_09_structural_invariants(rng):
    ok = True
    # pi is a representation.
    for _ in range(20):
        mu = random_antisymmetric_bracket(rng, 4)
        a, b = rng.standard_normal((2, 4, 4))
        lhs = pi_action(a @ b - b @ a, mu).coeffs
        rhs = pi_action(a, pi_action(b, mu)).coeffs - pi_action(b, pi_action(a, mu)).coeffs
        ok = ok and np.linalg.norm(lhs - rhs) <= 1e-10 * (
            1.0 + np.linalg.norm(a) * np.linalg.norm(b) * mu.norm
        )
    # action / pi consistency through the exponential.
    mu = random_antisymmetric_bracket(rng, 3)
    a = 0.3 * rng.standard_normal((3, 3))
    ok = ok and np.allclose(
        act(sla.expm(a), mu).coeffs.ravel(),
        sla.expm(pi_matrix(a, 3)) @ mu.coeffs.ravel(),
        atol=1e-10,
    )
    # O(n)-equivariance of m and Ric.
    s3 = catalog("s3").bracket
    k = random_orthogonal(rng, 3)
    ok = ok and np.allclose(moment_map_fast(act(k, s3)), k @ moment_map_fast(s3) @ k.T, atol=1e-10)
    ok = ok and np.allclose(
        curvature_pack(act(k, s3)).Ric, k @ curvature_pack(s3).Ric @ k.T, atol=1e-10
    )
    # scaling laws.
    base = curvature_pack(s3).Ric
    for c in (0.5, 2.0, 10.0):
        ok = ok and np.allclose(curvature_pack(s3.scaled(c)).Ric, c**2 * base, rtol=1e-10)
    # phi/psi gauge law on a diagonalizable real-type bracket.
    from bracketflow import phi, psi

    mu_l = catalog("s3_lambda", lam=0.5).bracket
    _, a_basis, _ = nilradical(mu_l)
    proj = a_basis @ a_basis.T
    for _ in range(5):
        h = sla.expm(0.4 * rng.standard_normal((3, 3)))
        x = rng.standard_normal(3)
        pulled = proj @ np.linalg.solve(h, x)
        ok = ok and abs(phi(act(h, mu_l), x) - phi(mu_l, pulled)) <= 1e-8
        ok = ok and abs(psi(act(h, mu_l), x) - psi(mu_l, pulled)) <= 1e-8
    # blow-down identity.
    h3 = catalog("h3").bracket
    s31 = catalog("s3_lambda", lam=1.0).bracket
    traj_h3 = integrate(h3, FlowSpec(variant=Variant.RAW, t_end=4.0, record_every=0.5))
    traj_s31 = integrate(s31, FlowSpec(variant=Variant.RAW, t_end=9.0, record_every=0.5))
    bd_h3 = blowdown_check(traj_h3, 4.0)
    bd_s31 = blowdown_check(traj_s31, 9.0)
    ok = ok and bd_h3 <= 1e-6 and bd_s31 <= 1e-6
    assert _report(
        9, ok, f"all identities green; blow-down defects h3 {bd_h3:.1e}, s31 {bd_s31:.1e}"
    )


def test_criterion_10_einstein_gauge_recovery():
    spec = dict(variant=Variant.SCALSTAR, t_end=100.0, record_every=0.25, conv_tol=0.0)
    # Einstein-limit run seeded from the s3 entry.
    s3 = catalog("s3").bracket
    label = stratum_label(s3)
    traj = integrate(s3, FlowSpec(label=label, **spec))
    path = recover_gauge(traj, coefficient="variant")
    einstein_incs = [r for t, r in path.relative_increments(10.0) if t >= 80.0 - 1e-9]
    # Nilsoliton run: the recovered gauge must fail the same Cauchy test.
    h3 = catalog("h3").bracket
    label_h3 = stratum_label(h3)
    traj_h3 = integrate(h3, FlowSpec(label=label_h3, **spec))
    path_h3 = recover_gauge(traj_h3, coefficient="variant")
    h3_incs = [r for t, r in path_h3.relative_increments(10.0) if t >= 80.0 - 1e-9]
    einstein_cauchy = bool(einstein_incs) and max(einstein_incs) <= 1e-4
    h3_fails_cauchy = bool(h3_incs) and max(h3_incs) > 1e-4
    ok = einstein_cauchy and h3_fails_cauchy
    _report(
        10, ok,
        f"s3 run relative increments on [80, 90]: max {max(einstein_incs):.2e} "
        f"(power-law tail; crosses 1e-4 near t = 110); h3 run increments "
        f"max {max(h3_incs):.2f} with det h -> {path_h3.dets[-1]:.1e} (fails Cauchy as required)",
    )
    assert h3_fails_cauchy
    assert einstein_cauchy, "Cauchy bound 1e-4 from t = 80 (power-law tail makes this unreachable)"
