"""The four bracket-flow variants, monitors, and the gauge h(t).

Vector fields (all of the shape mu' = -pi(A(mu)) mu):

  raw        A = Ric(mu)
  gauged     A = (Ric*)_{q_beta}
  scalstar   A = (Ric*)_{q_beta} + ||Ric*||^2 Id   (keeps scal* = -1)
  scal       post-hoc rescaling of a scalstar run by |scal|^{-1/2}

Integration uses an embedded Dormand-Prince 5(4) pair with PI step control
and first-same-as-last stage reuse, stepping exactly onto the recording grid.
The stepper works on raw coefficient arrays through the kernels of
`curvature` and `brackets`; only a recorded sample is validated as a
BracketTensor.  Each recorded sample carries the curvature pack and the
monitor quantities used by the convergence and collapse criteria.

Gauged, scalstar and scal runs also carry the gauge h' = -A(mu) h, h(0) = Id,
for two coefficients: "variant", the A driving the field (so that
h(t).mu(0) = mu(t)), and "ricci", Ric + ||Ric*||^2 Id.  Each accepted step
advances h by a 4th-order Magnus step built from that step's own stages; h
stays out of the step-size control, so the bracket path does not depend on it.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import expm

from .brackets import BracketTensor, ensure_lie, jacobi_norm, jacobi_residual, pi_apply
from .curvature import CurvaturePack, coeff_parts, coeff_scal_star, curvature_pack
from .errors import GaugeMismatch, OutOfRange
from .strata import check_gauged, beta_decomposition, project_qbeta

DRIFT_TOL = 1e-7
CONV_TOL = 1e-10
F_TOL = 1e-8
BLOWUP_FACTOR = 1e12
CONV_WINDOW = 10
GAUGE_COEFFICIENTS = ("variant", "ricci")


class Variant(str, Enum):
    RAW = "raw"
    GAUGED = "gauged"
    SCALSTAR = "scalstar"
    SCAL = "scal"


class Termination(str, Enum):
    REACHED_T_END = "ReachedTEnd"
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    STEP_FAILURE = "StepFailure"


@dataclass(slots=True)
class FlowSpec:
    variant: Variant
    t_end: float
    label: object = None
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 2_000_000
    record_every: float = 0.5
    conv_tol: float = CONV_TOL


@dataclass(slots=True)
class Monitors:
    f: float
    lyapunov: float
    cs: float
    type3: float
    ric_bound: float
    jacobi: float
    field_norm: float
    drift: float


@dataclass(slots=True)
class FlowSample:
    t: float
    bracket: BracketTensor
    pack: CurvaturePack
    monitors: Monitors


@dataclass(slots=True)
class FlowTrajectory:
    variant: Variant
    label: object
    samples: list = field(default_factory=list)
    termination: Termination = Termination.REACHED_T_END
    steps: int = 0
    renormalizations: int = 0
    # coefficient name -> (len(samples), n, n) stack of h at the sample times;
    # empty on raw runs.
    gauges: dict = field(default_factory=dict)

    @property
    def times(self):
        return np.array([s.t for s in self.samples])

    def sample_at(self, t, tol=1e-9):
        i = _time_index(self.times, t, tol * max(1.0, abs(t)))
        if i is None:
            raise OutOfRange(f"no recorded sample at t = {t}")
        return self.samples[i]

    @property
    def final(self):
        return self.samples[-1]


# Dormand-Prince 5(4) tableau (autonomous fields: no stage times needed);
# _DP_A[i - 1] holds the coefficients of stage i + 1.
_DP_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40))


def _endomorphisms(ric, ric_star, variant, dec):
    """The endomorphism A driving mu' = -pi(A)mu, from Ric and Ric*.

    Returns (A, R) with R = Ric + ||Ric*||^2 Id, the coefficient of the "ricci"
    gauge; R is None on raw runs.
    """
    if variant == Variant.RAW:
        return ric, None
    shift = float(np.vdot(ric_star, ric_star))
    a = project_qbeta(ric_star, dec)
    if variant == Variant.SCALSTAR:
        a = _plus_identity(a, shift)
    return a, _plus_identity(ric, shift)


def _plus_identity(m, s):
    """m + s Id, adding s on the diagonal of a copy."""
    out = m.copy()
    out.flat[:: len(m) + 1] += s
    return out


def _field_endomorphism(coeffs, variant, dec):
    """_endomorphisms from one curvature evaluation on raw coefficients."""
    _, _, _, ric, ric_star = coeff_parts(coeffs)
    return _endomorphisms(ric, ric_star, variant, dec)


def flow_field(coeffs, variant, dec):
    """dc/dt for the given variant; pure polynomial formula, no validation."""
    a, _ = _field_endomorphism(coeffs, variant, dec)
    return -pi_apply(a, coeffs)


def _dp_step(stage, y, h, first):
    """One Dormand-Prince step from y, given first = stage(y).

    stage(c) returns (dc/dt, gauge coefficients).  The stage slopes are rows
    of one (7, n^3) array, so each tableau row is one matrix-vector product.
    All seven stage values are returned: the last row of _DP_A equals _DP_B5,
    so the last stage is evaluated at y5 and serves as the next step's first
    stage.
    """
    k = np.empty((7, y.size))
    k[0] = first[0].ravel()
    stages = [first]
    for i, row in enumerate(_DP_A, start=1):
        yi = y + h * (row @ k[:i]).reshape(y.shape)
        stages.append(stage(yi))
        k[i] = stages[-1][0].ravel()
    y5 = yi
    y4 = y + h * (_DP_B4 @ k).reshape(y.shape)
    return y5, y5 - y4, stages


def _magnus_step(gauge, stages, d, g):
    """Advance h' = -A h over an accepted step of size d, A = stage coefficient g.

    4th-order Magnus step (Iserles & Norsett 1999): the b5 quadrature of the
    integral of A over the step plus the end-point commutator term.  Exact
    when A is constant.
    """
    a_first, a_last = stages[0][1][g], stages[-1][1][g]
    omega = -d * sum(b * s[1][g] for b, s in zip(_DP_B5, stages))
    omega += (d * d / 12.0) * (a_last @ a_first - a_first @ a_last)
    return expm(omega) @ gauge


def _error_norm(err, y_old, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _monitors(t, mu, pack, label, field_norm, drift=float("nan")):
    if label is not None:
        beta = label.beta
        rstar_beta = float(np.sum(pack.RicStar * beta))
        rstar_sq = float(np.sum(pack.RicStar * pack.RicStar))
        f = rstar_sq - rstar_beta
        lyap = rstar_sq + pack.scalStar * rstar_beta
        cs = rstar_beta - abs(pack.scalStar) * label.norm_sq
    else:
        f = lyap = cs = float("nan")
    return Monitors(
        f=f,
        lyapunov=lyap,
        cs=cs,
        type3=t * pack.normSq,
        ric_bound=t * float(np.linalg.norm(pack.Ric)),
        jacobi=jacobi_residual(mu),
        field_norm=field_norm,
        drift=drift,
    )


def integrate(mu0, spec):
    """Integrate one bracket-flow trajectory and record monitored samples."""
    ensure_lie(mu0)
    label = spec.label
    dec = None
    variant = Variant(spec.variant)
    core_variant = Variant.SCALSTAR if variant == Variant.SCAL else variant
    if core_variant in (Variant.GAUGED, Variant.SCALSTAR):
        if label is None:
            raise GaugeMismatch(f"variant {variant.value} requires a stratum label")
        gauge = check_gauged(mu0, label)
        if not gauge.in_nonneg or gauge.v0_norm == 0.0:
            raise GaugeMismatch(
                f"initial bracket is not gauged correctly: negative-component "
                f"norm {gauge.neg_norm:.3e}, V_0 norm {gauge.v0_norm:.3e}"
            )
        dec = beta_decomposition(label)

    y = mu0.coeffs.copy()
    if core_variant == Variant.SCALSTAR:
        y, _ = _renormalize_scalstar(y)
    t = 0.0
    cap = BLOWUP_FACTOR * max(mu0.norm, 1.0)
    traj = FlowTrajectory(variant=variant, label=label)

    def stage(c):
        a, a_ricci = _field_endomorphism(c, core_variant, dec)
        return -pi_apply(a, c), (a, a_ricci)

    # gauges[g] is h for GAUGE_COEFFICIENTS[g]; rows[g] collects it per sample.
    gauges = [np.eye(mu0.dim) for _ in GAUGE_COEFFICIENTS] if dec is not None else []
    rows = [[] for _ in gauges]

    def record(t_now, c):
        # The live state may sit up to drift_tol/2 off the scal* = -1 slice
        # between renormalizations; the monitors are defined on the slice, so
        # snapshots are renormalized exactly while the drift itself is kept.
        drift = float("nan")
        if core_variant == Variant.SCALSTAR:
            s = coeff_scal_star(c)
            drift = abs(s + 1.0)
            c = c * abs(s) ** -0.5
        mu = BracketTensor(c)
        pack = curvature_pack(mu)
        a, _ = _endomorphisms(pack.Ric, pack.RicStar, core_variant, dec)
        fnorm = float(np.linalg.norm(pi_apply(a, c)))
        monitors = _monitors(t_now, mu, pack, label, fnorm, drift)
        traj.samples.append(FlowSample(t_now, mu, pack, monitors))
        for row, g in zip(rows, gauges):
            row.append(g)

    record(0.0, y)
    next_record = spec.record_every
    h = min(1e-3, spec.record_every, spec.t_end)
    err_prev = 1.0
    renorms = 0
    steps = 0
    first = stage(y)

    while t < spec.t_end - 1e-14 * max(1.0, spec.t_end):
        if steps >= spec.max_steps:
            traj.termination = Termination.STEP_FAILURE
            break
        stop = min(spec.t_end, next_record)
        h = min(h, stop - t)
        if h < 1e-14 * max(1.0, abs(t)):
            traj.termination = Termination.STEP_FAILURE
            break
        y_new, err, stages = _dp_step(stage, y, h, first)
        steps += 1
        err_norm = _error_norm(err, y, y_new, spec.rel_tol, spec.abs_tol)
        if err_norm <= 1.0:
            t += h
            y = y_new
            first = stages[-1]
            gauges = [_magnus_step(g, stages, h, i) for i, g in enumerate(gauges)]
            if core_variant == Variant.SCALSTAR:
                y, bumped = _renormalize_scalstar(y, only_if_drifted=True)
                renorms += int(bumped)
                if bumped:
                    first = stage(y)
            norm = float(np.linalg.norm(y))
            jac = jacobi_norm(y)
            if jac > 1e-8 * (1.0 + norm * norm):
                traj.termination = Termination.STEP_FAILURE
                break
            if norm > cap:
                traj.termination = Termination.DIVERGED
                break
            if abs(t - stop) <= 1e-12 * max(1.0, stop):
                t = stop
                if abs(stop - next_record) <= 1e-12 * max(1.0, stop):
                    record(t, y)
                    next_record = round(next_record / spec.record_every + 1) * spec.record_every
                    if _converged(traj, spec.conv_tol):
                        traj.termination = Termination.CONVERGED
                        break
            fac = 0.9 * err_norm ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0) if err_norm > 0 else 5.0
            err_prev = max(err_norm, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.1, 0.9 * err_norm ** (-0.2))
    else:
        traj.termination = Termination.REACHED_T_END

    if not traj.samples or abs(traj.samples[-1].t - t) > 1e-12 * max(1.0, t):
        record(t, y)
    traj.steps = steps
    traj.renormalizations = renorms
    traj.gauges = {name: np.stack(row) for name, row in zip(GAUGE_COEFFICIENTS, rows)}
    if variant == Variant.SCAL:
        _rescale_to_scal(traj)
    return traj


def _renormalize_scalstar(coeffs, only_if_drifted=False):
    s = coeff_scal_star(coeffs)
    if s >= 0.0:
        raise OutOfRange(f"scal* = {s:.3e} is not negative; cannot normalize")
    if only_if_drifted and abs(s + 1.0) <= DRIFT_TOL / 2.0:
        return coeffs, False
    return coeffs * abs(s) ** -0.5, True


def _converged(traj, conv_tol):
    if conv_tol <= 0.0 or len(traj.samples) < CONV_WINDOW:
        return False
    window = traj.samples[-CONV_WINDOW:]
    return all(
        s.monitors.field_norm <= conv_tol * (1.0 + s.bracket.norm**3) for s in window
    )


def _rescale_to_scal(traj):
    """Convert a scalstar trajectory into the scal-normalized family in place.

    mu(t) is scaled by |scal(t)|^-1/2, so the "variant" gauge is scaled by
    sqrt(|scal(t)| / |scal(0)|) to keep h(t).mu(0) = mu(t).
    """
    scal0 = abs(traj.samples[0].pack.scal)
    factors = []
    for i, s in enumerate(traj.samples):
        if abs(s.pack.scal) < 1e-12 * (1.0 + s.pack.normSq):
            raise OutOfRange(f"scal = {s.pack.scal:.3e} at t = {s.t}; cannot rescale")
        factors.append(math.sqrt(abs(s.pack.scal) / scal0))
        mu = s.bracket.scaled(abs(s.pack.scal) ** -0.5)
        pack = curvature_pack(mu)
        traj.samples[i] = FlowSample(
            s.t,
            mu,
            pack,
            _monitors(s.t, mu, pack, traj.label, s.monitors.field_norm, s.monitors.drift),
        )
    traj.gauges["variant"] = traj.gauges["variant"] * np.array(factors)[:, None, None]


@dataclass(slots=True)
class GaugePath:
    """Solution h(t) of h' = -A(mu(t)) h at the recorded times; mats is (N, n, n)."""

    times: np.ndarray
    mats: np.ndarray
    coefficient: str

    @property
    def norms(self):
        return np.linalg.norm(self.mats, axis=(1, 2))

    @property
    def dets(self):
        return np.linalg.det(self.mats)

    def at(self, t, tol=1e-9):
        i = _time_index(self.times, t, tol * max(1.0, abs(t)))
        if i is None:
            raise OutOfRange(f"no gauge sample at t = {t}")
        return self.mats[i]

    def relative_increments(self, dt):
        """Pairs (t, ||h(t+dt) - h(t)|| / ||h(t)||) over the recorded grid."""
        times, tol = self.times, 1e-9 * max(1.0, dt)
        first = np.searchsorted(times, times + dt - tol)
        out = []
        for i, j in enumerate(np.maximum(first, np.arange(1, len(times) + 1))):
            if j < len(times) and abs(times[j] - times[i] - dt) <= tol:
                num = float(np.linalg.norm(self.mats[j] - self.mats[i]))
                den = max(float(np.linalg.norm(self.mats[i])), 1e-300)
                out.append((float(times[i]), num / den))
        return out


def _time_index(times, t, tol):
    """Index of the first of the ascending times within tol of t, or None."""
    i = int(np.searchsorted(times, t - tol))
    return i if i < len(times) and abs(times[i] - t) <= tol else None


def recover_gauge(traj, h0=None, coefficient="variant"):
    """The gauge h' = -A h, h(0) = h0 (default Id), at the trajectory's sample times.

    integrate carries h(t) with h(0) = Id through every accepted step, so this
    only applies h0 on the right.  coefficient="variant" uses the endomorphism
    driving the trajectory's own vector field, so the path satisfies
    h(t).mu(0) = mu(t).  coefficient="ricci" uses Ric + ||Ric*||^2 Id, the
    ungauged normalized coefficient whose solution converges in GL exactly in
    the Einstein case; on a scal run it is the gauge of the scalstar run the
    samples were rescaled from.
    """
    if coefficient not in GAUGE_COEFFICIENTS:
        raise ValueError(
            f"unknown gauge coefficient {coefficient!r}; expected one of {GAUGE_COEFFICIENTS}"
        )
    if not traj.gauges:
        raise GaugeMismatch("gauge recovery needs a gauged, scalstar or scal trajectory")
    stored = traj.gauges[coefficient]
    h = np.eye(stored.shape[1]) if h0 is None else np.array(h0, dtype=float)
    return GaugePath(times=traj.times, mats=stored @ h, coefficient=coefficient)


def blowdown_check(traj, s, spec=None):
    """Parabolic-rescaling identity ||mu_s(1)|| = sqrt(s) ||mu(s)||.

    Reruns the raw flow from sqrt(s)-scaled initial data up to time 1 and
    returns the absolute defect between the two sides.
    """
    if traj.variant != Variant.RAW:
        raise OutOfRange("blow-down scaling applies to raw-variant trajectories")
    if s < 1.0:
        raise OutOfRange("blow-down factor must satisfy s >= 1")
    ref = traj.sample_at(s)
    mu0 = traj.samples[0].bracket
    if spec is None:
        spec = FlowSpec(variant=Variant.RAW, t_end=1.0, record_every=0.5)
    rerun = integrate(mu0.scaled(math.sqrt(s)), FlowSpec(
        variant=Variant.RAW, t_end=1.0, label=None,
        rel_tol=spec.rel_tol, abs_tol=spec.abs_tol, record_every=1.0,
    ))
    return abs(rerun.final.bracket.norm - math.sqrt(s) * ref.bracket.norm)


@dataclass(slots=True)
class SolitonDetection:
    converged: bool
    f_tail: float
    limit: BracketTensor
    bracket_gap: float

    def to_dict(self):
        return {
            "converged": self.converged,
            "f_tail": self.f_tail,
            "bracket_gap": self.bracket_gap,
        }


def detect_soliton_convergence(traj, f_tol=F_TOL, cauchy_tol=1e-6):
    """Convergence test for scalstar runs: trailing f below tolerance and
    a Cauchy trailing window of brackets."""
    if Variant(traj.variant) != Variant.SCALSTAR or traj.label is None:
        raise GaugeMismatch("soliton detection needs a labelled scalstar trajectory")
    window = traj.samples[-CONV_WINDOW:]
    f_tail = max(s.monitors.f for s in window)
    gap = float(
        np.linalg.norm(window[-1].bracket.coeffs - window[0].bracket.coeffs)
    )
    converged = (
        len(traj.samples) >= CONV_WINDOW
        and f_tail <= f_tol
        and gap <= cauchy_tol * (1.0 + window[-1].bracket.norm)
    )
    return SolitonDetection(converged, f_tail, traj.final.bracket, gap)


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
