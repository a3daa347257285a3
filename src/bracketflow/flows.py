"""The four bracket-flow variants, monitors, and the gauge h(t).

Vector fields (all of the shape mu' = -pi(A(mu)) mu):

  raw        A = Ric(mu)
  gauged     A = (Ric*)_{q_beta}
  scalstar   A = (Ric*)_{q_beta} + ||Ric*||^2 Id   (keeps scal* = -1)
  scal       post-hoc rescaling of a scalstar run by |scal|^{-1/2}

Integration uses an embedded Dormand-Prince 5(4) pair with PI step control
and first-same-as-last stage reuse.  Only t_end cuts a step short: the
samples on the recording grid that fall inside an accepted step come from
the DP5 continuous extension (dense output) of that step's seven stages.
The stepper works on raw coefficient arrays through the kernels of
`curvature` and `brackets`; only a recorded sample is validated as a
BracketTensor.  The grid samples of one step are validated and monitored as
one stack, then appended in time order.  Each recorded sample carries the
monitor quantities used by the convergence and collapse criteria; its
curvature pack is recomputed on demand.

Gauged, scalstar and scal runs also carry the gauge h' = -A(mu) h, h(0) = Id,
for two coefficients: "variant", the A driving the field (so that
h(t).mu(0) = mu(t)), and "ricci", Ric + ||Ric*||^2 Id.  Each accepted step
advances h by a 4th-order Magnus step built from that step's own stages, and
a sample inside a step gets h from the same kind of step over the partial
interval; h stays out of the step-size control, so the bracket path does not
depend on it.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import expm

from .brackets import BracketTensor, bracket_stack, ensure_lie, jacobi_norm, pi_apply
from .curvature import coeff_parts, coeff_scal_star, curvature_pack
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
    monitors: Monitors

    @property
    def pack(self):
        """The CurvaturePack of the sample's bracket, recomputed on each access."""
        return curvature_pack(self.bracket)


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
_DP_B5 = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0))
_DP_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40))
_DP_E = _DP_B5 - _DP_B4
# Continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6):
# b(theta) = _DP_DENSE @ (theta, theta^2, theta^3, theta^4), with b(1) = _DP_B5.
_DP_DENSE = np.array((
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
))


def _dense_weights(thetas):
    """The continuous-extension weights b(theta), one row (7,) per theta of thetas (B,),
    so y(theta) = y + h b(theta) @ k."""
    powers = np.cumprod(np.repeat(thetas[:, None], 4, axis=1), axis=1)
    return (powers[:, None, :] @ _DP_DENSE.T)[:, 0]


def _endomorphisms(ric, ric_star, variant, dec):
    """The endomorphism A driving mu' = -pi(A)mu, from Ric and Ric*.

    Returns (A, R) with R = Ric + ||Ric*||^2 Id, the coefficient of the "ricci"
    gauge; R is None on raw runs.  Stacks (..., n, n) of Ric and Ric* give
    stacks of A and R.
    """
    if variant == Variant.RAW:
        return ric, None
    flat = ric_star.reshape(ric_star.shape[:-2] + (-1,))
    shift = np.vecdot(flat, flat)
    a = project_qbeta(ric_star, dec)
    if variant == Variant.SCALSTAR:
        a = _plus_identity(a, shift)
    return a, _plus_identity(ric, shift)


def _plus_identity(m, s):
    """m + s Id, adding s on the diagonal of a copy; a stack m (B, n, n) takes s (B,)."""
    out = m.copy()
    n = m.shape[-1]
    if m.ndim == 2:
        out.flat[:: n + 1] += s
    else:
        out.reshape(len(m), n * n)[:, :: n + 1] += s[:, None]
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
    of one (7, n^3) array k, so each tableau row is one matrix-vector product.
    Returns y5, the error estimate h (b5 - b4) @ k (formed from the weights,
    not as y5 - y4, which would cancel about five digits), k and all seven
    stage values: the last row of _DP_A equals _DP_B5, so the last stage is
    evaluated at y5 and serves as the next step's first stage.
    """
    k = np.empty((7, y.size))
    k[0] = first[0].ravel()
    stages = [first]
    for i, row in enumerate(_DP_A, start=1):
        yi = y + h * (row @ k[:i]).reshape(y.shape)
        stages.append(stage(yi))
        k[i] = stages[-1][0].ravel()
    return yi, h * (_DP_E @ k).reshape(y.shape), k, stages


def _magnus_step(gauges, a_stages, weights, d, spans, a_ends):
    """Advance h' = -A h from a step's start over spans = theta d, 0 < theta <= 1.

    4th-order Magnus step (Iserles & Norsett 1999) for G gauges at once:
    gauges (G, n, n) are h at the step's start and a_stages (G, 7, n, n) the
    stage values of A in a step of size d.  Each of the B spans (B,) takes the
    quadrature d weights[b] @ a_stages of the integral of A over it, with
    weights (B, 7), plus the end-point commutator term
    (span^2/12)[A(end), A(start)], with A(end) from a_ends (G, B, n, n).  The
    whole step uses weights _DP_B5 and A(end) = a_stages[:, -1]; a partial
    span uses _dense_weights(theta).  Exact when A is constant.  Returns the
    (G, B, n, n) gauges at the ends of the spans, from one expm call.
    """
    g, _, n, _ = a_stages.shape
    a_first = a_stages[:, :1]
    integral = weights[:, None, :] @ a_stages.reshape(g, 1, 7, n * n)
    omega = -d * integral.reshape(g, len(spans), n, n)
    omega += (spans * spans / 12.0)[:, None, None] * (a_ends @ a_first - a_first @ a_ends)
    return expm(omega) @ gauges[:, None]


def _error_norm(err, y_old, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _sample_stack(ts, cs, variant, dec, label):
    """The samples of the states cs (B, n, n, n) at times ts, from one pass over the stack.

    Scalstar states may sit up to drift_tol/2 off the scal* = -1 slice between
    renormalizations; the monitors are defined on the slice, so each one is
    renormalized exactly here while its drift is kept.  Returns the list of
    _samples and the endomorphisms (A, R) of _endomorphisms at the states.
    """
    drift = [float("nan")] * len(ts)
    if variant == Variant.SCALSTAR:
        s = coeff_scal_star(cs).tolist()
        drift = [abs(v + 1.0) for v in s]
        cs = cs * np.array([abs(v) ** -0.5 for v in s])[:, None, None, None]
    coeffs, norm_sq, brackets = bracket_stack(cs)
    _, _, _, ric, ric_star = coeff_parts(coeffs)
    ends = _endomorphisms(ric, ric_star, variant, dec)
    field = pi_apply(ends[0], cs).reshape(len(ts), -1)
    fnorm = np.sqrt(np.vecdot(field, field)).tolist()
    samples = _samples(ts, brackets, norm_sq, ric, ric_star, label, fnorm, drift)
    return samples, ends


def _samples(ts, brackets, norm_sq, ric, ric_star, label, field_norm, drift):
    """FlowSample(ts[j], brackets[j], its Monitors) for each entry of bracket_stack.

    The stacked sums over Ric and Ric* come from one pass; the monitors are
    then formed per sample.  An exception in brackets stays in its place for
    the caller to raise.
    """
    b = len(ts)
    ric_flat = ric.reshape(b, -1)
    ric_norm = np.sqrt(np.vecdot(ric_flat, ric_flat)).tolist()
    nan = float("nan")
    rstar, beta_sq = [(nan, nan, nan)] * b, nan
    if label is not None:
        beta_sq = label.norm_sq
        rstar = zip(
            (ric_star * label.beta).reshape(b, -1).sum(axis=1).tolist(),
            (ric_star * ric_star).reshape(b, -1).sum(axis=1).tolist(),
            ric_star.trace(axis1=-2, axis2=-1).tolist(),
        )
    out = []
    for t, mu, sq, (rstar_beta, rstar_sq, scal_star), bound, fnorm, drift_j in zip(
        ts, brackets, norm_sq.tolist(), rstar, ric_norm, field_norm, drift
    ):
        if isinstance(mu, Exception):
            out.append(mu)
            continue
        monitors = Monitors(
            f=rstar_sq - rstar_beta,
            lyapunov=rstar_sq + scal_star * rstar_beta,
            cs=rstar_beta - abs(scal_star) * beta_sq,
            type3=t * sq,
            ric_bound=t * bound,
            jacobi=mu.jacobi_residual(),
            field_norm=fnorm,
            drift=drift_j,
        )
        out.append(FlowSample(t, mu, monitors))
    return out


def _append(traj, samples, conv_tol):
    """Append _samples in time order until the run converges.

    An exception in samples is raised when it is reached, so only the samples
    before it are appended.  conv_tol <= 0 checks no convergence.  Returns the
    number appended and whether the run converged at the last of them.
    """
    for count, sample in enumerate(samples, start=1):
        if isinstance(sample, Exception):
            raise sample
        traj.samples.append(sample)
        if _converged(traj, conv_tol):
            return count, True
    return len(samples), False


def integrate(mu0, spec):
    """Integrate one bracket-flow trajectory and record monitored samples.

    Samples are taken at the multiples of spec.record_every up to spec.t_end,
    and at t_end itself; a grid time inside an accepted step is read off the
    step's continuous extension, so the grid does not shorten steps.  The grid
    times of one step are sampled as one stack.
    """
    if not (math.isfinite(spec.record_every) and spec.record_every > 0.0):
        raise OutOfRange(f"record_every = {spec.record_every} must be positive and finite")
    if not (math.isfinite(spec.t_end) and spec.t_end >= 0.0):
        raise OutOfRange(f"t_end = {spec.t_end} must be non-negative and finite")
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

    # gauges[g] is h for GAUGE_COEFFICIENTS[g]; rows holds the (G, n, n)
    # gauges of each recorded sample.  The seed is a stack of one.
    gauged = dec is not None
    gauges = np.array([np.eye(mu0.dim)] * len(GAUGE_COEFFICIENTS))
    _append(traj, _sample_stack([0.0], y[None], core_variant, dec, label)[0], 0.0)
    rows = [gauges]
    grid_index = 1  # the next sample on the grid is at grid_index * record_every
    h = min(1e-3, spec.t_end)
    err_prev = 1.0
    renorms = 0
    steps = 0
    first = stage(y)
    converged = False

    while t < spec.t_end - 1e-14 * max(1.0, spec.t_end):
        if steps >= spec.max_steps:
            traj.termination = Termination.STEP_FAILURE
            break
        h = min(h, spec.t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            traj.termination = Termination.STEP_FAILURE
            break
        y_new, err, k, stages = _dp_step(stage, y, h, first)
        steps += 1
        err_norm = _error_norm(err, y, y_new, spec.rel_tol, spec.abs_tol)
        if err_norm <= 1.0:
            t_old, y_old, gauges_old = t, y, gauges
            t += h
            if abs(t - spec.t_end) <= 1e-12 * max(1.0, spec.t_end):
                t = spec.t_end
            y = y_new
            first = stages[-1]
            if gauged:
                a_stages = np.stack([s[1] for s in stages], axis=1)
                gauges = _magnus_step(gauges, a_stages, _DP_B5[None], h, np.array([h]),
                                      a_stages[:, -1:])[:, 0]
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
            # Every grid time in (t_old, t], as one stack: first the points of
            # the continuous extension from y_old (on scalstar runs, the
            # renormalized state) to y5, then any at the step end itself.
            ts, thetas = [], []
            while (t_rec := (grid_index + len(ts)) * spec.record_every) <= t + 1e-12 * max(1.0, t):
                if t - t_rec <= 1e-12 * max(1.0, t_rec):
                    ts.append(min(t_rec, spec.t_end))
                else:
                    ts.append(t_rec)
                    thetas.append((t_rec - t_old) / h)
            if ts:
                n_dense = len(thetas)
                thetas = np.array(thetas)
                weights = _dense_weights(thetas)
                cs = np.empty((len(ts), *y.shape))
                cs[:n_dense] = y_old + h * (weights[:, None, :] @ k)[:, 0].reshape(-1, *y.shape)
                cs[n_dense:] = y
                samples, ends = _sample_stack(ts, cs, core_variant, dec, label)
                count, converged = _append(traj, samples, spec.conv_tol)
                grid_index += count
                if gauged:
                    # The dense samples' gauges by partial Magnus steps from
                    # the step's start; samples at the step end take its gauges.
                    m = min(count, n_dense)
                    if m:
                        dense = _magnus_step(gauges_old, a_stages, weights[:m], h, thetas[:m] * h,
                                             np.stack(ends)[:, :m])
                        rows += [dense[:, j] for j in range(m)]
                    rows += [gauges] * (count - m)
            if converged:
                traj.termination = Termination.CONVERGED
                break
            fac = 0.9 * err_norm ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0) if err_norm > 0 else 5.0
            err_prev = max(err_norm, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.1, 0.9 * err_norm ** (-0.2))
    else:
        traj.termination = Termination.REACHED_T_END

    if not converged and abs(traj.samples[-1].t - t) > 1e-12 * max(1.0, t):
        _append(traj, _sample_stack([t], y[None], core_variant, dec, label)[0], 0.0)
        rows.append(gauges)
    traj.steps = steps
    traj.renormalizations = renorms
    if gauged:
        stacked = np.stack(rows, axis=1)
        traj.gauges = dict(zip(GAUGE_COEFFICIENTS, stacked))
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
    sqrt(|scal(t)| / |scal(0)|) to keep h(t).mu(0) = mu(t).  The samples are
    rescaled as one stack and keep their field norms and drifts.
    """
    old = np.array([s.bracket.coeffs for s in traj.samples])
    norm_sq = (old * old).reshape(len(old), -1).sum(axis=1).tolist()
    scal = coeff_parts(old)[3].trace(axis1=-2, axis2=-1).tolist()
    # A zero scal raises below before its scale is used.
    scales = np.array([abs(v) ** -0.5 if v else 1.0 for v in scal])
    coeffs, new_sq, brackets = bracket_stack(old * scales[:, None, None, None])
    _, _, _, ric, ric_star = coeff_parts(coeffs)
    ts = [s.t for s in traj.samples]
    field_norm = [s.monitors.field_norm for s in traj.samples]
    drift = [s.monitors.drift for s in traj.samples]
    samples = _samples(ts, brackets, new_sq, ric, ric_star, traj.label, field_norm, drift)
    for i, (t, sample) in enumerate(zip(ts, samples)):
        if abs(scal[i]) < 1e-12 * (1.0 + norm_sq[i]):
            raise OutOfRange(f"scal = {scal[i]:.3e} at t = {t}; cannot rescale")
        if isinstance(sample, Exception):
            raise sample
        traj.samples[i] = sample
    factors = [math.sqrt(abs(v) / abs(scal[0])) for v in scal]
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


def blowdown_check(traj, s):
    """Parabolic-rescaling identity ||mu_s(1)|| = sqrt(s) ||mu(s)||.

    Reruns the raw flow, at FlowSpec's default tolerances, from sqrt(s)-scaled
    initial data up to time 1 and returns the absolute defect between the two
    sides.
    """
    if traj.variant != Variant.RAW:
        raise OutOfRange("blow-down scaling applies to raw-variant trajectories")
    if s < 1.0:
        raise OutOfRange("blow-down factor must satisfy s >= 1")
    ref = traj.sample_at(s)
    mu0 = traj.samples[0].bracket
    spec = FlowSpec(variant=Variant.RAW, t_end=1.0, record_every=1.0)
    rerun = integrate(mu0.scaled(math.sqrt(s)), spec)
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
