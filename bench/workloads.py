"""The three workloads: input generation, warm-up, op lists and output checks.

Each workload builds its inputs from the seed alone, then exposes a fixed
list of ops.  Every op has a check that compares the output with a formula
from the mathematics (see oracles.py) or with the type an input was built
with; none of the checks depends on step counts.
"""

import hashlib
import importlib
import time

import numpy as np

import oracles
from harness import OpFailed

STRATUM_MAX_STEPS = 300  # energy-flow budget passed to stratum_label on `algebra`
MAX_FLOW_STEPS = 10**6  # stratum_label's default budget, used where no budget is passed
FLOW3D_T_END = 100.0
FLOW3D_RECORD_EVERY = 0.25
COLLAPSE_T_END = 200.0
FLOWHD_T_END = 20.0
FLOWHD_NORM = 3.0
# Raw flows per dimension on `flowhd`.  Fewer at n = 16, where each draw of
# random_solvable_bracket costs about 0.6 s of set-up.
FLOWHD_RAW = {8: 6, 12: 6, 16: 4}
REAL_PER_DIM = 4  # real-type random brackets per dimension on `algebra`
FP_TOL = 1e-6  # fingerprint distance of one orbit (solitons.FP_TOL)


def lib(path):
    """Module-level public name of bracketflow, e.g. lib("flows.integrate")."""
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module("bracketflow." + module), name)


def try_lib(path):
    try:
        return lib(path)
    except (ImportError, AttributeError):
        return None


class Stopwatch:
    """Accumulates the time spent in calls made through it."""

    def __init__(self):
        self.seconds = 0.0

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


class Op:
    """One op: a body run by the harness and a check of its result.

    `body(tr, ctx)` calls into the program through tracer `tr`; `check(result,
    ctx)` returns a list of problems (empty when the output is correct).
    `defect(result, ctx)`, where given, returns the reason when the result shows
    one of the known defects listed in meta.json; the op then counts as failed
    and is not checked further.
    """

    def __init__(self, name, body, check, defect=None):
        self.name = name
        self.body = body
        self.check = check
        self.defect = defect


class Prerequisite(OpFailed):
    """An op whose input came from a failed op cannot run; it counts as failed."""


# ------------------------------------------------------------------ checks


def _rel(a, b):
    return float(np.linalg.norm(a - b)) / (1.0 + float(np.linalg.norm(b)))


def check_samples(traj, scalstar):
    """Ric against the Koszul oracle at the final sample, Jacobi on every sample,
    and scal* = -1 on every sample of a scalstar run."""
    problems = []
    final = traj.samples[-1]
    c = np.asarray(final.bracket.coeffs)
    gap = _rel(np.asarray(final.pack.Ric), oracles.koszul_ricci(c))
    if gap > 1e-9:
        problems.append(f"final Ric differs from the Koszul Ricci by {gap:.2e}")
    for s in traj.samples:
        cs = np.asarray(s.bracket.coeffs)
        res = oracles.jacobi_residual(cs)
        if res > oracles.jacobi_tolerance(cs):
            problems.append(f"sample t={s.t} has Jacobi residual {res:.2e}")
            break
        if scalstar:
            sstar = float(np.trace(oracles.ricci_star(cs)))
            if abs(sstar + 1.0) > 1e-7:
                problems.append(f"sample t={s.t} has scal* = {sstar:.10f}, not -1")
                break
    return problems


def _trace_a(c, coefficient):
    """tr A(mu) for the gauge ODE h' = -A h (project_qbeta keeps the diagonal)."""
    rstar = oracles.ricci_star(c)
    base = np.trace(oracles.koszul_ricci(c)) if coefficient == "ricci" else np.trace(rstar)
    return float(base) + c.shape[0] * float(np.sum(rstar * rstar))


def check_gauge(path, traj, coefficient):
    """Liouville: log det h(t) = -int_0^t tr A; for coefficient="variant" also
    act(h(t), mu(0)) = mu(t) for t <= 10."""
    problems = []
    times = np.asarray(traj.times)
    if len(path.mats) != len(times) or not np.allclose(np.asarray(path.times), times):
        return ["gauge path is not sampled on the trajectory's times"]
    trace = np.array([_trace_a(np.asarray(s.bracket.coeffs), coefficient) for s in traj.samples])
    integral = oracles.simpson_cumulative(times, trace)
    logdet = np.array([np.linalg.slogdet(m)[1] for m in path.mats[::2]])[: integral.size]
    gap = float(np.max(np.abs(logdet + integral)))
    if gap > 1e-3:
        problems.append(f"log det h misses -int tr A by {gap:.2e} ({coefficient})")
    if coefficient == "variant":
        c0 = np.asarray(traj.samples[0].bracket.coeffs)
        for t, h, s in zip(times, path.mats, traj.samples):
            if t > 10.0:
                break
            gap = float(np.linalg.norm(oracles.act(np.asarray(h), c0) - np.asarray(s.bracket.coeffs)))
            if gap > 1e-4:
                problems.append(f"act(h({t}), mu(0)) misses mu({t}) by {gap:.2e}")
                break
    return problems


def check_label(label):
    problems = []
    beta = np.asarray(label.eigenvalues)
    if abs(float(beta.sum()) + 1.0) > 1e-8:
        problems.append(f"tr beta = {beta.sum():.12f}, not -1")
    m = oracles.moment_map(np.asarray(label.critical_bracket.coeffs))
    gap = float(np.max(np.abs(m - np.diag(beta))))
    if gap > 1e-6:
        problems.append(f"moment map of the critical bracket misses diag(beta) by {gap:.2e}")
    return problems


def label_defect(label, ctx):
    """The energy flow steps off the variety of Lie brackets on many inputs."""
    c = np.asarray(label.critical_bracket.coeffs)
    res = oracles.jacobi_residual(c)
    if res > oracles.jacobi_tolerance(c):
        return f"critical bracket is not a Lie bracket (Jacobi residual {res:.2e})"
    return ""


def check_certificate(cert, c, expected=None):
    """The fit Ric = c Id + D: residual recomputed from the Koszul Ricci, D a
    derivation, and the verdict equal to the catalog's where it has one."""
    problems = []
    ric = oracles.koszul_ricci(c)
    d = np.asarray(cert.D)
    n = c.shape[0]
    resid = float(np.linalg.norm(ric - cert.c * np.eye(n) - d))
    scale = 1.0 + float(np.linalg.norm(ric))
    if abs(resid - cert.residual) > 1e-8 * scale:
        problems.append(f"certificate residual {cert.residual:.3e} != recomputed {resid:.3e}")
    der = float(np.linalg.norm(oracles.pi_apply(d, c)))
    if der > 1e-8 * (1.0 + float(np.linalg.norm(d))) * (1.0 + float(np.linalg.norm(c))):
        problems.append(f"certificate D is not a derivation (pi(D)mu = {der:.2e})")
    if expected is not None and cert.kind.value != expected:
        problems.append(f"soliton kind {cert.kind.value}, expected {expected}")
    return problems


def _own_kernel_check(report, label, mu):
    """Kernel of L (by SVD) against the k_beta-orbit tangent, both computed here."""
    l_mat = np.asarray(report.L_matrix)
    tangent = np.asarray(report.tangent_basis)
    c = np.asarray(mu.coeffs)
    n = c.shape[0]
    if l_mat.size:
        _, s, vt = np.linalg.svd(l_mat)
        scale = max(1.0, float(s[0]))
        kernel = oracles.orthonormal_columns(tangent @ vt[s <= 1e-8 * scale].T)
    else:
        kernel = np.zeros((n**3, 0))
    beta = np.asarray(label.eigenvalues)
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(beta[i] - beta[j]) <= 1e-6:
                a = np.zeros((n, n))
                a[i, j], a[j, i] = 1.0, -1.0
                gens.append(oracles.pi_apply(a, c).ravel())
    orbit = oracles.orthonormal_columns(np.column_stack(gens)) if gens else np.zeros((n**3, 0))
    if kernel.shape[1] != orbit.shape[1]:
        return [f"kernel of L has dimension {kernel.shape[1]}, k_beta orbit {orbit.shape[1]}"]
    gap = oracles.subspace_gap(kernel, orbit)
    return [] if gap <= 1e-6 else [f"kernel of L misses the k_beta orbit by {gap:.2e}"]


# --------------------------------------------------------------- workloads


def _flow_op(name, entry_key, ctx_key):
    def body(tr, ctx):
        entry = ctx["entries"][entry_key]
        label = tr.call("strata.label", lib("strata.stratum_label"), entry.bracket)
        spec = lib("flows.FlowSpec")(
            variant=lib("flows.Variant").SCALSTAR, t_end=FLOW3D_T_END, label=label,
            record_every=FLOW3D_RECORD_EVERY,
        )
        traj = tr.call("flows.integrate", lib("flows.integrate"), entry.bracket, spec)
        ctx[ctx_key] = traj
        return traj

    def check(traj, ctx):
        problems = check_samples(traj, scalstar=True)
        if entry_key == "s3":
            final = traj.samples[-1]
            if abs(final.t - FLOW3D_T_END) > 1e-9:
                return problems + [f"s3 run ended at t = {final.t}"]
            rstar = oracles.ricci_star(np.asarray(final.bracket.coeffs))
            beta = np.asarray(traj.label.beta)
            f = float(np.sum(rstar * rstar) - np.sum(rstar * beta))
            law = 0.125 / FLOW3D_T_END**2
            if abs(f / law - 1.0) > 0.1:
                problems.append(f"s3 f(100) = {f:.4e}, power law 0.125/t^2 = {law:.4e}")
        return problems

    return Op(name, body, check)


def _gauge_op(name, traj_key, coefficient):
    def body(tr, ctx):
        if traj_key not in ctx:
            raise Prerequisite(traj_key)
        return tr.call("flows.gauge", lib("flows.recover_gauge"),
                       ctx[traj_key], coefficient=coefficient)

    def check(path, ctx):
        return check_gauge(path, ctx[traj_key], coefficient)

    return Op(name, body, check)


def flow3d_generate(seed, sw):
    catalog = lib("catalog.catalog")
    entries = {
        "s3": sw.call(catalog, "s3"),
        "h3": sw.call(catalog, "h3"),
        "e2": sw.call(catalog, "e2"),
        "s3_lambda": sw.call(catalog, "s3_lambda", lam=0.5),
    }
    return {
        "entries": entries,
        "uniqueness_seed": int(np.random.default_rng(seed).integers(0, 2**31)),
        "collapse_gauge": np.diag([1.0, 1.0, 1.5]),
    }


def flow3d_warm_up(inputs):
    s3 = inputs["entries"]["s3"]
    label = lib("strata.stratum_label")(s3.bracket)
    spec = lib("flows.FlowSpec")(variant=lib("flows.Variant").SCALSTAR, t_end=1.0,
                                 label=label, record_every=FLOW3D_RECORD_EVERY)
    traj = lib("flows.integrate")(s3.bracket, spec)
    lib("flows.recover_gauge")(traj, coefficient="variant")
    lib("flows.recover_gauge")(traj, coefficient="ricci")
    lib("experiments.run_collapse_experiment")(inputs["entries"]["h3"], t_end=2.0)
    lib("experiments.run_uniqueness_experiment")(
        inputs["entries"]["s3_lambda"], 1, t_end=1.0, require_convergence=False)


def flow3d_ops(inputs):
    ops = [
        _flow_op("flow:s3", "s3", "traj_s3"),
        _gauge_op("gauge_variant:s3", "traj_s3", "variant"),
        _gauge_op("gauge_ricci:s3", "traj_s3", "ricci"),
        _flow_op("flow:h3", "h3", "traj_h3"),
        _gauge_op("gauge_variant:h3", "traj_h3", "variant"),
        _gauge_op("gauge_ricci:h3", "traj_h3", "ricci"),
    ]

    def uniqueness(tr, ctx):
        return tr.call(
            "experiments.uniqueness", lib("experiments.run_uniqueness_experiment"),
            ctx["entries"]["s3_lambda"], 5, t_end=FLOW3D_T_END, seed=ctx["uniqueness_seed"],
        )

    def uniqueness_check(rep, ctx):
        problems = []
        if not all(rep.converged):
            problems.append(f"uniqueness seeds not all converged: {rep.converged}")
        if not rep.max_fingerprint_distance <= FP_TOL:
            problems.append(f"fingerprint distance {rep.max_fingerprint_distance:.2e} > {FP_TOL}")
        return problems

    ops.append(Op("uniqueness:s3_lambda(0.5)", uniqueness, uniqueness_check))

    def collapse_op(key, gauge, collapsed):
        def body(tr, ctx):
            g = ctx["collapse_gauge"] if gauge else None
            return tr.call("experiments.collapse",
                           lib("experiments.run_collapse_experiment"),
                           ctx["entries"][key], t_end=COLLAPSE_T_END, gauge=g)

        def check(rep, ctx):
            if not collapsed:
                return [] if rep.non_collapsed else [f"{key} reported collapsed"]
            if rep.termination != "ReachedTEnd" or not rep.ric_bound_final <= 1e-3:
                return [f"{key}: t|Ric| = {rep.ric_bound_final:.2e} at the end ({rep.termination})"]
            return []

        return Op(f"collapse:{key}{'+diag(1,1,1.5)' if gauge else ''}", body, check)

    ops += [collapse_op("h3", False, False), collapse_op("s3", False, False),
            collapse_op("e2", False, True), collapse_op("e2", True, True)]
    return ops


def _generated(sw, fn, *args):
    """An input from the program's own generator, or the generator's error as a
    string: the op that would use it then fails with that reason (meta.json,
    known failure "singular-gauge-in-generator"), so the slot stays in the batch."""
    try:
        return sw.call(fn, *args)
    except lib("errors.BracketFlowError") as exc:
        return f"input generation failed: {type(exc).__name__}: {exc}"


def _require_input(mu):
    if isinstance(mu, str):
        raise OpFailed(mu)
    return mu


def _raw_spec(t_end):
    return lib("flows.FlowSpec")(variant=lib("flows.Variant").RAW, t_end=t_end, record_every=t_end)


def flowhd_generate(seed, sw):
    rng = np.random.default_rng(seed)
    random_bracket = lib("catalog.random_solvable_bracket")
    raw = []
    for n, count in FLOWHD_RAW.items():
        for k in range(count):
            mu = _generated(sw, random_bracket, rng, n)
            if not isinstance(mu, str):
                mu = mu.scaled(FLOWHD_NORM / mu.norm)
            raw.append((f"raw:n{n}#{k}", mu))
    scalstar = []
    for d in (9, 13):
        heis = sw.call(lib("catalog.catalog"), "heisenberg", dim=d).bracket
        label = lib("strata.stratum_label")(heis)
        dec = lib("strata.beta_decomposition")(label)
        for k in range(2):
            h0 = lib("experiments.random_parabolic_gauge")(rng, dec)
            scalstar.append((f"scalstar:heis{d}#{k}", lib("brackets.act")(h0, heis), label))
    return {"raw": raw, "scalstar": scalstar}


def flowhd_warm_up(inputs):
    first = next(mu for _, mu in inputs["raw"] if not isinstance(mu, str))
    lib("flows.integrate")(first, _raw_spec(0.5))
    _, mu0, label = inputs["scalstar"][0]
    spec = lib("flows.FlowSpec")(variant=lib("flows.Variant").SCALSTAR, t_end=0.5,
                                 label=label, record_every=0.5)
    lib("flows.integrate")(mu0, spec)


def flowhd_ops(inputs):
    ops = []
    for name, mu in inputs["raw"]:
        def body(tr, ctx, mu=mu):
            return tr.call("flows.integrate", lib("flows.integrate"), _require_input(mu),
                           _raw_spec(FLOWHD_T_END))

        def check(traj, ctx):
            problems = check_samples(traj, scalstar=False)
            # Homogeneous Ricci flow: d/dt scal = 2 |Ric|^2 >= 0.
            first, last = traj.samples[0].pack.scal, traj.samples[-1].pack.scal
            if last < first - 1e-9 * (1.0 + abs(first)):
                problems.append(f"scal decreased from {first:.6e} to {last:.6e}")
            return problems

        ops.append(Op(name, body, check))
    for name, mu0, label in inputs["scalstar"]:
        def body(tr, ctx, mu0=mu0, label=label):
            spec = lib("flows.FlowSpec")(variant=lib("flows.Variant").SCALSTAR,
                                         t_end=FLOWHD_T_END, label=label,
                                         record_every=FLOWHD_T_END)
            return tr.call("flows.integrate", lib("flows.integrate"), mu0, spec)

        ops.append(Op(name, body, lambda traj, ctx: check_samples(traj, scalstar=True)))
    return ops


def _rotation_bracket(n, rng):
    """Almost-abelian bracket with ad(e1) a sum of plane rotations: imaginary type."""
    m = n - 1
    t = np.zeros((m, m))
    for b in range(m // 2):
        w = rng.uniform(0.5, 2.0)
        t[2 * b, 2 * b + 1], t[2 * b + 1, 2 * b] = w, -w
    return lib("catalog.almost_abelian")(t)


def _mixed_bracket(n, rng):
    """Rank-2 bracket: e1 acts by a positive diagonal block, e2 by rotations.

    The two actions commute on the abelian ideal, so Jacobi holds; phi(e2) = 0
    and phi(e1) > 0, so the type is mixed by construction.
    """
    q = (n - 3) // 2
    p = n - 2 - 2 * q
    c = np.zeros((n, n, n))
    for j in range(p):
        d = rng.uniform(0.5, 2.0)
        c[0, 2 + j, 2 + j], c[2 + j, 0, 2 + j] = d, -d
    for b in range(q):
        w = rng.uniform(0.5, 2.0)
        i, k = 2 + p + 2 * b, 3 + p + 2 * b
        c[1, i, k], c[i, 1, k] = w, -w
        c[1, k, i], c[k, 1, i] = -w, w
    return lib("brackets.BracketTensor")(c)


ALGEBRA_CATALOG = (
    ("h3", {}), ("s3", {}), ("s3_lambda", {"lam": 0.5}), ("s3_lambda_prime", {"lam": 1.0}),
    ("e2", {}), ("heisenberg", {"dim": 5}), ("heisenberg", {"dim": 7}),
)
LINEARIZE_CATALOG = (
    ("heisenberg", {"dim": 3}), ("heisenberg", {"dim": 5}), ("heisenberg", {"dim": 7}),
    ("heisenberg", {"dim": 9}), ("s3_lambda", {"lam": 0.5}),
)


def algebra_generate(seed, sw):
    rng = np.random.default_rng(seed)
    catalog = lib("catalog.catalog")
    batch = []  # (tag, bracket, expected type, expected soliton kind or None)
    for n in range(3, 10):
        for k in range(REAL_PER_DIM):
            mu = _generated(sw, lib("catalog.random_solvable_bracket"), rng, n)
            batch.append((f"real:n{n}#{k}", mu, "RealType", None))
    for n in (3, 5, 7):
        batch.append((f"imag:n{n}", sw.call(_rotation_bracket, n, rng), "ImaginaryType", None))
    # Two draws at n = 5: classify_type's Nelder-Mead cost on mixed inputs varies
    # with the draw (0.34-0.50 s at n = 5, 0.46-0.89 s at n = 6).
    for k in range(2):
        batch.append((f"mixed:n5#{k}", _mixed_bracket(5, rng), "MixedNonReal", None))
    for name, kw in ALGEBRA_CATALOG:
        e = sw.call(catalog, name, **kw)
        batch.append((f"catalog:{e.name}", e.bracket, e.expected["type"], e.expected["soliton"]))
    linearize = [sw.call(catalog, name, **kw) for name, kw in LINEARIZE_CATALOG]
    return {"batch": batch, "linearize": linearize}


def algebra_warm_up(inputs):
    for tag, mu, _, _ in inputs["batch"]:
        if tag in ("catalog:s3", "catalog:e2"):
            lib("spectral.classify_type")(mu)
            lib("strata.stratum_label")(mu, max_steps=STRATUM_MAX_STEPS)
            lib("solitons.soliton_residual")(mu)
    _linearize(_NoTrace(), inputs["linearize"][0])


class _NoTrace:
    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _linearize(tr, entry):
    """The `bracketflow linearize` pipeline on one catalog entry."""
    cert = tr.call("solitons.residual", lib("solitons.soliton_residual"), entry.bracket)
    if cert.kind.value == "NotSoliton":
        return cert, None, None, None
    normalized = tr.call("solitons.normalize", lib("solitons.normalize_soliton"),
                         entry.bracket, cert)
    aligned, label = tr.call("solitons.label", lib("solitons.soliton_label"), normalized)
    dec = tr.call("strata.beta_decomposition", lib("strata.beta_decomposition"), label)
    report = tr.call("linearize.l_operator", lib("linearize.l_operator"), aligned, dec)
    return cert, aligned, label, report


def algebra_ops(inputs):
    ops = []
    for tag, mu, kind, soliton_kind in inputs["batch"]:
        def classify(tr, ctx, mu=mu):
            return tr.call("spectral.classify", lib("spectral.classify_type"), _require_input(mu))

        def classify_check(rep, ctx, kind=kind):
            return [] if rep.kind.value == kind else [f"type {rep.kind.value}, built as {kind}"]

        def label(tr, ctx, mu=mu):
            return tr.call("strata.label", lib("strata.stratum_label"), _require_input(mu),
                           max_steps=STRATUM_MAX_STEPS)

        def soliton(tr, ctx, mu=mu):
            return tr.call("solitons.residual", lib("solitons.soliton_residual"), _require_input(mu))

        def soliton_check(cert, ctx, mu=mu, expected=soliton_kind):
            return check_certificate(cert, np.asarray(mu.coeffs), expected)

        ops += [Op(f"classify:{tag}", classify, classify_check),
                Op(f"label:{tag}", label, lambda lab, ctx: check_label(lab), label_defect),
                Op(f"soliton:{tag}", soliton, soliton_check)]

    for entry in inputs["linearize"]:
        def body(tr, ctx, entry=entry):
            cert, aligned, label, report = _linearize(tr, entry)
            return cert, aligned, label, report

        def defect(out, ctx):
            _, aligned, label, report = out
            if report is not None and not report.kernel_matches_kbeta_orbit \
                    and not _own_kernel_check(report, label, aligned):
                return ("kernel_matches_kbeta_orbit is False but the kernel of L "
                        "equals the k_beta orbit tangent")
            return ""

        def check(out, ctx, entry=entry):
            cert, aligned, label, report = out
            problems = check_certificate(cert, np.asarray(entry.bracket.coeffs),
                                         entry.expected["soliton"])
            if report is None:
                return problems + ["linearize pipeline stopped: input is not a soliton"]
            eig = np.asarray(report.eigenvalues)
            if eig.size and float(eig.max()) > 1e-8:
                problems.append(f"L has a positive eigenvalue {eig.max():.3e}")
            problems += _own_kernel_check(report, label, aligned)
            if not report.kernel_matches_kbeta_orbit:
                problems.append("kernel verdict false")
            if not report.P_fd_discrepancy <= 1e-6:
                problems.append(f"P finite-difference discrepancy {report.P_fd_discrepancy:.2e}")
            if not report.flow_fd_discrepancy <= 1e-6:
                problems.append(f"flow finite-difference discrepancy {report.flow_fd_discrepancy:.2e}")
            return problems

        ops.append(Op(f"linearize:{entry.name}", body, check, defect))
    return ops


WORKLOADS = {
    "flow3d": (flow3d_generate, flow3d_warm_up, flow3d_ops),
    "flowhd": (flowhd_generate, flowhd_warm_up, flowhd_ops),
    "algebra": (algebra_generate, algebra_warm_up, algebra_ops),
}


# ------------------------------------------------- states and counts per pass


def input_fingerprint(inputs):
    """Digest of every number in a workload's inputs (same seed, same digest)."""
    digest = hashlib.sha256()

    def walk(x):
        if isinstance(x, dict):
            for key in sorted(x):
                digest.update(str(key).encode())
                walk(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                walk(item)
        elif hasattr(x, "coeffs"):
            walk(np.asarray(x.coeffs))
        elif hasattr(x, "bracket"):
            walk(x.bracket)
        elif hasattr(x, "eigenvalues"):
            walk(np.asarray(x.eigenvalues))
        elif isinstance(x, np.ndarray):
            digest.update(np.ascontiguousarray(x, dtype=float).tobytes())
        else:
            digest.update(repr(x).encode())

    walk(inputs)
    return digest.hexdigest()


def visited_states(name, ctx, outcomes):
    """Bracket coefficient arrays the workload's ops produced or consumed."""
    states = []
    if name == "flow3d":
        for key in ("traj_s3", "traj_h3"):
            traj = ctx.get(key)
            if traj is not None:
                idx = np.unique(np.linspace(0, len(traj.samples) - 1, 9).astype(int))
                states += [np.asarray(traj.samples[i].bracket.coeffs) for i in idx]
    elif name == "flowhd":
        for o in outcomes:
            if not o.failed:
                states += [np.asarray(o.result.samples[0].bracket.coeffs),
                           np.asarray(o.result.samples[-1].bracket.coeffs)]
    else:
        states += [np.asarray(mu.coeffs) for _, mu, _, _ in ctx["batch"] if not isinstance(mu, str)]
    return states


# per-layer metric -> span name; the value is the seconds one traced pass
# spends inside that module's spans.
SPAN_METRICS = {
    "flows.integrate_s": "flows.integrate",
    "flows.gauge_s": "flows.gauge",
    "strata.label_s": "strata.label",
    "spectral.classify_s": "spectral.classify",
    "solitons.residual_s": "solitons.residual",
    "linearize.l_operator_s": "linearize.l_operator",
    "experiments.uniqueness_s": "experiments.uniqueness",
    "experiments.collapse_s": "experiments.collapse",
}


def pass_counts(outcomes):
    """Exact work counts read from the program's own results."""
    counts = {"flows.steps": 0, "flows.samples": 0, "flows.renorms": 0, "strata.fails": 0}
    for o in outcomes:
        traj = o.result
        if traj is not None and hasattr(traj, "renormalizations"):
            counts["flows.steps"] += traj.steps
            counts["flows.samples"] += len(traj.samples)
            counts["flows.renorms"] += traj.renormalizations
        if o.name.startswith("label:") and o.failed:
            counts["strata.fails"] += 1
    return counts


def replay_energy_iters(name, ctx):
    """Accepted energy-flow iterations via the public `history=` hook, replayed
    on the inputs the workload labels with the same step budget."""
    flow = try_lib("strata.energy_gradient_flow")
    if flow is None:
        return None
    if name == "algebra":
        brackets = [mu for _, mu, _, _ in ctx["batch"] if not isinstance(mu, str)]
        budget = STRATUM_MAX_STEPS
    elif name == "flow3d":
        brackets = [ctx["entries"][k].bracket for k in ("s3", "h3")]
        budget = MAX_FLOW_STEPS
    else:
        brackets = []  # flowhd labels its inputs during set-up only
        budget = None
    total = 0
    for mu in brackets:
        history = []
        try:
            flow(mu, max_steps=budget, history=history)
        except lib("errors.BracketFlowError"):
            pass
        total += max(len(history) - 1, 0)
    return total
