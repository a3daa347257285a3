"""The four bracket-flow variants, monitors, and the gauge h(t).

Vector fields (all of the shape mu' = -pi(A(mu)) mu):

  raw        A = Ric(mu)
  gauged     A = (Ric*)_{q_beta}
  scalstar   A = (Ric*)_{q_beta} + ||Ric*||^2 Id   (keeps scal* = -1)
  scal       post-hoc rescaling of a scalstar run by |scal|^{-1/2}

Integration uses an embedded Dormand-Prince 5(4) pair, first-same-as-last stage
reuse and dopri5's PI step control (Hairer, Norsett & Wanner, Solving ODEs I,
II.4): an accepted step scales h by 0.9 e^-0.17 e_prev^0.04 within [0.2, 5],
e_prev = max(e, 1e-4), so the error norm e settles near 0.9^(1/0.13) = 0.44 and
the floor keeps round-off norms from steering h.  Grid samples inside a step
come from its DP5 continuous extension, so only t_end cuts a step short.  A
stage state is one product of the step's coefficients with the state and the
slopes so far, and calls the field kernel `_field` once: no flow forms M or K,
Ric* is one product, Ric is formed only for a raw A, and -pi(A)c takes two
(brackets.neg_pi_apply), so every stage state stays exactly antisymmetric.  A
record (the seeds, one step's grid samples or the final samples) decides, as
one stack, only what the loop needs.  bracket_stack checks the states against
COEFF_CAP and for the Jacobi identity, the flow's one Jacobi check (DOPRI5 does
not keep the Jacobi identity, and a record past jacobi_tolerance raises
NotALieBracket); the states are exactly antisymmetric, so nothing is projected
or copied.  On runs that keep gauges or check convergence a record also forms
A, R and the field norms.  Each run forms its Ric, Ric*, Monitors and
FlowSamples once, when it ends, in one pass over its samples.

Every accepted scalstar (and scal) step is projected back onto scal* = -1, y <- lam y
with lam = |scal*(y)|^-1/2 (Hairer, Lubich & Wanner, Geometric Numerical Integration,
IV.4).  The field splits by degree: with q = ||Ric*(c)||^2, F(lam c) = lam^3 F(c) +
(lam^5 - lam^3) q c, and A and R rescale as lam^2 X + (lam^4 - lam^2) q Id, so the next
step's first slope and gauge coefficients follow in closed form from the last stage's.

There is one stepper loop, over a stack of B trajectories of one FlowSpec
(`integrate_stack`); `integrate` is that loop with B = 1.  Each trajectory keeps
its own time, step size, PI-controller state, grid position, step counts and
termination, and drops out of the stack when it ends.  The running trajectories
share each stage evaluation, and their accepted steps one record and one
formation of gauge increments; the kernels work slice by slice, so every
trajectory is bit for bit integrate's on its seed alone.

The gauge h' = -A(mu) h, h(0) = Id, of gauged, scalstar and scal runs has two
coefficients: "variant", the A driving the field (so that h(t).mu(0) = mu(t)),
and "ricci", Ric + ||Ric*||^2 Id, whose (ad H)^T an accepted step forms for its
six new stages at once.  The stepper does not advance h: an accepted step keeps
its 4th-order Magnus increment, and a sample inside it that of the partial step;
a run exponentiates all of them in one batched call when it ends and chains
them.  FlowSpec.gauges = False keeps none and changes no sample or step.
"""

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .brackets import BracketTensor, bracket_stack, ensure_lie, neg_pi_apply, report_to_dict
from .curvature import (coeff_ad_h_t, coeff_ric_star, coeff_ricci, coeff_scal_star, curvature_pack,
                        ricci_from)
from .errors import GaugeMismatch, OutOfRange, SingularGauge
from .linalg import expm_stack
from .strata import check_gauged, beta_decomposition, project_qbeta

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
    STEP_FAILURE = "StepFailure"  # the step budget ran out or the step size underflowed


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
    # Whether a gauged, scalstar or scal run keeps the increments of both
    # gauges h(t); raw runs keep none.
    gauges: bool = True


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
    steps: int = 0  # the steps tried, rejected ones included
    rejected: int = 0
    renormalizations: int = 0  # steps - rejected on scalstar and scal runs, else 0
    # coefficient name -> (len(samples), n, n) stack of h at the sample times;
    # empty on raw runs and on runs whose FlowSpec.gauges is False.
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


# Dormand-Prince 5(4) tableau (autonomous fields: no stage times needed).  Row
# i - 2 of _DP_ROWS holds the coefficients of stage i's state over (y, k_1, ...,
# k_7), and its last row those of the error estimate (b5 - b4) @ k; a step
# scales them by h, then sets the y coefficient of each stage row to 1.
_DP_B5 = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0))
_DP_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40))
_DP_ROWS = np.array([np.pad(row, (1, 7 - len(row))) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    _DP_B5[:6],
    _DP_B5 - _DP_B4,
)])
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
    """The continuous-extension weights b(theta), one row (7,) per theta of the list thetas,
    so y(theta) = y + h b(theta) @ k."""
    powers = np.array([(t, t * t, t * t * t, t * t * t * t) for t in thetas])
    return (powers[:, None, :] @ _DP_DENSE.T)[:, 0]


def _endomorphism(ric, ric_star, variant, dec):
    """A, which drives mu' = -pi(A)mu, from Ric and Ric* or stacks of them: Ric (raw),
    (Ric*)_{q_beta} (gauged) or that plus ||Ric*||^2 Id (scalstar)."""
    if variant == Variant.RAW:
        return ric
    a = project_qbeta(ric_star, dec)
    return _shifted(a, ric_star) if variant == Variant.SCALSTAR else a


def _shifted(m, ric_star):
    """m + ||Ric*||^2 Id, in place on a fresh m (n, n) or stack (..., n, n) of Ric*'s shape,
    in any memory layout: the scalstar A, and for m = Ric the "ricci" gauge's coefficient R."""
    flat = ric_star.reshape(ric_star.shape[:-2] + (-1,))
    shift = np.vecdot(flat, flat)
    if m.ndim == 2:
        m.flat[:: m.shape[0] + 1] += shift
    else:
        np.einsum("...ii->...i", m)[...] += shift[..., None]  # a writeable view of the diagonals
    return m


def _field(c, variant, dec, out=None):
    """The field kernel: (dc/dt = -pi(A)c, into out if given, A, Ric*) at raw c (n, n, n) or a
    stack, antisymmetric in its first two axes.  Ric is formed only for a raw A."""
    ric, ric_star = coeff_ricci(c) if variant == Variant.RAW else (None, coeff_ric_star(c))
    a = _endomorphism(ric, ric_star, variant, dec)
    return neg_pi_apply(a, c, out), a, ric_star


def flow_field(coeffs, variant, dec):
    """dc/dt for the given variant at a bracket's (antisymmetric) coefficients; no validation."""
    return _field(coeffs, variant, dec)[0]


def _dp_step(kernel, y, h, k0, stages=None):
    """One Dormand-Prince step from each state of the stack y (B, n, n, n), slice b by h[b].

    Slice b's state y[b] and slopes k[b] are the rows of one buffer (8, n^3).  Each
    stage state, and the error estimate h (b5 - b4) @ k (not y5 - y4, which would
    cancel about five digits), is one product of a row of h[b] _DP_ROWS with the
    rows filled so far; _field(c, *kernel, out=) writes the slopes into their row.
    k0 (B, n^3) are y's slopes.  Returns y5, the error estimates, k (B, 7, n^3) and
    ||Ric*(y5)||^2 (B,); the list stages, if given, receives (state, A, Ric*) of each new
    stage (2-7, the last at y5)."""
    b = len(y)
    rows = np.empty((b, 8, y[0].size))
    rows[:, 0], rows[:, 1] = y.reshape(b, -1), k0
    w = h[:, None, None] * _DP_ROWS
    w[:, :6, 0] = 1.0
    # A stack of one is combined as its one state: the same bits at less cost per call.
    ws, rs, shape = (w[0], rows[0], y.shape[1:]) if b == 1 else (w, rows, y.shape)
    for i in range(1, 7):
        yi = np.vecmat(ws[..., i - 1, : i + 1], rs[..., : i + 1, :]).reshape(shape)
        _, a_i, ric_star = _field(yi, *kernel, out=rs[..., i + 1, :].reshape(shape, copy=False))
        if stages is not None:
            stages.append((yi, a_i, ric_star))
    err = np.vecmat(ws[..., 6, 1:], rs[..., 1:, :]).reshape(y.shape)
    ric_star = ric_star.reshape(b, -1)
    return yi.reshape(y.shape), err, rows[:, 1:], np.vecdot(ric_star, ric_star)


def _magnus(a_stages, weights, d, spans, a_ends):
    """4th-order Magnus increments Omega (P, G, n, n) of h' = -A h (Iserles & Norsett 1999),
    h(end) = exp(Omega[p]) h(start), over spans p = theta d[p] from the start of a step of size
    d[p], 0 < theta <= 1: d[p] weights[p] @ a_stages[p] plus (spans[p]^2/12)[A(end), A(start)],
    from G coefficients' stages a_stages (P, G, 7, n, n), weights (P, 7) (_DP_B5, or a part's
    _dense_weights(theta)) and a_ends (P, G, n, n); exact if A is constant."""
    p, g, _, n, _ = a_stages.shape
    a_first = a_stages[:, :, 0]
    integral = weights[:, None, None, :] @ a_stages.reshape(p, g, 7, n * n)
    omega = -d[:, None, None, None] * integral.reshape(p, g, n, n)
    omega += (spans * spans / 12.0)[:, None, None, None] * (a_ends @ a_first - a_first @ a_ends)
    return omega


def _error_norms(err, y_old, y_new, rel_tol, abs_tol):
    """The RMS of err scaled by abs_tol + rel_tol max(|y_old|, |y_new|), one float per slice."""
    scaled = np.maximum(np.abs(y_old), np.abs(y_new))
    scaled *= rel_tol
    scaled += abs_tol
    np.divide(err, scaled, out=scaled)
    scaled *= scaled
    squares = scaled.reshape(len(err), -1)
    return np.sqrt(squares.sum(axis=1) / squares.shape[1]).tolist()


def _row_norms(x):
    """The 2-norm of each slice of the stack x, as floats (the bits of np.linalg.norm)."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(flat, flat)).tolist()


class _Record:
    """What one record decides at a stack of samples; _record_stack forms it."""

    __slots__ = ("ts", "cs", "drift", "norm_sq", "brackets", "field_norm", "norms")


def _record_stack(ts, cs, variant, dec, gauged=False, curved=True):
    """Record the states cs (B, n, n, n) at times ts: returns (_Record, (A, R) or None).

    cs is a fresh, exactly antisymmetric stack, which the record keeps read-only.
    Scalstar states (a step's end on the scal* = -1 slice, samples inside it off it by
    its error) are moved onto it, and their drifts kept.  bracket_stack checks the
    stack's size and Jacobi identity (_append raises its failed entries); a curved
    record also forms the field and bracket norms of the convergence streak, and (A, R)
    for the gauges.
    """
    drift = [float("nan")] * len(ts)
    if variant == Variant.SCALSTAR:
        s = coeff_scal_star(cs)
        drift = np.abs(s + 1.0).tolist()
        cs = cs * _scalstar_factor(s)[:, None, None, None]
    rec = _Record()
    rec.ts, rec.cs, rec.drift = ts, cs, drift
    rec.norm_sq, rec.brackets = bracket_stack(cs)
    rec.field_norm = rec.norms = None
    if not curved:
        return rec, None
    ric, ric_star = coeff_ricci(cs)
    a = _endomorphism(ric, ric_star, variant, dec)
    rec.field_norm, rec.norms = _row_norms(neg_pi_apply(a, cs)), _row_norms(cs)
    r = _shifted(ric, ric_star) if gauged and variant != Variant.RAW else None
    return rec, (a, r)


def _run_samples(kept, variant, dec, label, scal=False):
    """(FlowSamples, scal of each state if scal) of one run, in one pass over its kept slices.

    The run's Ric, Ric* and field norms are formed here, from its stacked states.
    With scal, the scalstar samples are rescaled by |scal|^-1/2, keeping their
    field norms and drifts.
    """
    parts = [(rec, slice(first, end)) for rec, first, end in kept]

    def joined(name):
        return [v for rec, part in parts for v in getattr(rec, name)[part]]

    def stacked(name):
        return np.concatenate([getattr(rec, name)[part] for rec, part in parts])

    ts, brackets, norm_sq, cs = joined("ts"), joined("brackets"), stacked("norm_sq"), stacked("cs")
    ric, ric_star = coeff_ricci(cs)
    field_norm = _row_norms(neg_pi_apply(_endomorphism(ric, ric_star, variant, dec), cs))
    scals = None
    if scal:
        scals = ric.trace(axis1=-2, axis2=-1).tolist()
        # A zero scal raises below before its scale is used.
        scales = np.array([abs(v) ** -0.5 if v else 1.0 for v in scals])
        cs = cs * scales[:, None, None, None]
        new_sq, brackets = bracket_stack(cs)
        for t, v, sq, mu in zip(ts, scals, norm_sq.tolist(), brackets):
            if abs(v) < 1e-12 * (1.0 + sq):
                raise OutOfRange(f"scal = {v:.3e} at t = {t}; cannot rescale")
            if isinstance(mu, Exception):
                raise mu
        norm_sq, (ric, ric_star) = new_sq, coeff_ricci(cs)
    ric_norm = _row_norms(ric)
    nan = float("nan")
    rstar, beta_sq = [(nan, nan, nan)] * len(ts), nan
    if label is not None:
        beta_sq = label.norm_sq
        rstar = zip(
            (ric_star * label.beta).reshape(len(ts), -1).sum(axis=1).tolist(),
            (ric_star * ric_star).reshape(len(ts), -1).sum(axis=1).tolist(),
            ric_star.trace(axis1=-2, axis2=-1).tolist(),
        )
    samples = []
    for t, mu, sq, (rstar_beta, rstar_sq, scal_star), bound, fnorm, drift in zip(
        ts, brackets, norm_sq.tolist(), rstar, ric_norm, field_norm, joined("drift")
    ):
        monitors = Monitors(
            f=rstar_sq - rstar_beta,
            lyapunov=rstar_sq + scal_star * rstar_beta,
            cs=rstar_beta - abs(scal_star) * beta_sq,
            type3=t * sq,
            ric_bound=t * bound,
            jacobi=mu.jacobi_residual(),
            field_norm=fnorm,
            drift=drift,
        )
        samples.append(FlowSample(t, mu, monitors))
    return samples, scals


def _append(run, rec, first, count, conv_tol):
    """Keep the _Record's samples first, ..., first + count - 1 for the _Run until it converges.

    A failed sample raises when it is reached.  run.streak counts the latest
    samples in a row with field norm <= conv_tol (1 + ||mu||^3); the run
    converges when it reaches CONV_WINDOW (conv_tol <= 0: never).  Returns the
    number kept and whether the run converged at the last of them.
    """
    for j in range(first, first + count):
        if isinstance(rec.brackets[j], Exception):
            run.keep(rec, first, j)
            raise rec.brackets[j]
        if conv_tol > 0.0:
            small = rec.field_norm[j] <= conv_tol * (1.0 + rec.norms[j] ** 3)
            run.streak = run.streak + 1 if small else 0
            if run.streak >= CONV_WINDOW:
                run.keep(rec, first, j + 1)
                return j + 1 - first, True
    run.keep(rec, first, first + count)
    return count, False


def integrate(mu0, spec):
    """Integrate one bracket-flow trajectory and record monitored samples.

    Samples are taken at the multiples of spec.record_every up to spec.t_end,
    and at t_end itself; a grid time inside an accepted step is read off the
    step's continuous extension, so the grid does not shorten steps.  This is
    integrate_stack on a stack of one.
    """
    return integrate_stack([mu0], spec)[0]


def integrate_stack(mu0s, spec):
    """integrate(mu0, spec) for each bracket of mu0s, stepped in lockstep as one stack.

    Each Dormand-Prince stage evaluates the field once on the stack of the
    trajectories still running, and their accepted steps share one record (see
    the module docstring); the kernels work slice by slice, so
    trajectory b is integrate(mu0s[b], spec) bit for bit.  Every seed is
    checked before the first step, in order, and the first error the loop meets
    then ends the stack; so an error raised is one that integrate raises on
    that seed alone.  Returns the list of FlowTrajectory.
    """
    if not (math.isfinite(spec.record_every) and spec.record_every > 0.0):
        raise OutOfRange(f"record_every = {spec.record_every} must be positive and finite")
    if not (math.isfinite(spec.t_end) and spec.t_end >= 0.0):
        raise OutOfRange(f"t_end = {spec.t_end} must be non-negative and finite")
    for name, tol in (("rel_tol", spec.rel_tol), ("abs_tol", spec.abs_tol)):
        if not (math.isfinite(tol) and tol >= 0.0):
            raise OutOfRange(f"{name} = {tol} must be non-negative and finite")
    if spec.rel_tol == spec.abs_tol == 0.0:
        raise OutOfRange("rel_tol = 0.0 and abs_tol = 0.0: one of them must be positive")
    if operator.index(spec.max_steps) < 0:
        raise OutOfRange(f"max_steps = {spec.max_steps} must be >= 0")
    if not math.isfinite(spec.conv_tol):
        raise OutOfRange(f"conv_tol = {spec.conv_tol} must be finite; <= 0 checks no convergence")
    dims = sorted({mu0.dim for mu0 in mu0s})
    if len(dims) > 1:
        raise ValueError(f"integrate_stack steps brackets of one dimension, got dimensions {dims}")
    return _Lockstep(spec).run(mu0s)


class _Run:
    """The scalar state of one trajectory of integrate_stack."""

    __slots__ = ("traj", "cap", "t", "h", "err", "err_prev", "steps", "rejected", "streak",
                 "kept", "count", "t_kept", "omegas", "dense", "index", "running", "end")

    def __init__(self, traj, cap, h):
        self.traj, self.cap, self.h = traj, cap, h
        self.t, self.err, self.err_prev = 0.0, 0.0, 1.0
        self.steps = self.rejected = 0
        self.streak = 0  # the latest samples in a row that meet the convergence test
        self.kept = []  # (_Record, first, end): the samples kept, in time order
        self.count, self.t_kept = 0, None  # how many, and the time of the last
        # Gauge increments per accepted step and kept sample inside it; per sample (k, inside)
        self.omegas, self.dense, self.index = [], [], []
        self.running, self.end = True, None  # end: the state where it stopped, for its last sample

    def keep(self, rec, first, end):
        self.kept.append((rec, first, end))
        self.count += end - first
        self.t_kept = rec.ts[end - 1]


class _Lockstep:
    """The stepper loop of integrate_stack.

    live lists the running _Runs in seed order, as do the stacks y (L, n, n, n) of their
    states, k0 (L, n^3) of their first-stage slopes and, with gauges, a0 (L, 2, n, n) of
    their first-stage A and R; a run that stops leaves them at the next _compress.
    """

    def __init__(self, spec):
        self.spec = spec
        self.variant = Variant(spec.variant)
        self.core = Variant.SCALSTAR if self.variant == Variant.SCAL else self.variant
        self.label = spec.label
        self.dec = None

    def run(self, mu0s):
        seeds = [self._seed(mu0) for mu0 in mu0s]
        self.gauged = self.dec is not None and self.spec.gauges
        self.kernel = (self.core, self.dec)  # _field's arguments after the state
        # A record forms the curvature where the loop reads it: the gauges, the convergence test.
        self.recording = self.kernel + (self.gauged, self.gauged or self.spec.conv_tol > 0.0)
        runs = [_Run(FlowTrajectory(variant=self.variant, label=self.label),
                     BLOWUP_FACTOR * max(mu0.norm, 1.0), min(1e-3, self.spec.t_end))
                for mu0 in mu0s]
        if runs:
            self._start(runs, np.stack(seeds))
            while self.live:
                self._step()
            self._finish(runs)
        return [run.traj for run in runs]

    def _seed(self, mu0):
        """The initial state of mu0's trajectory, once mu0 passes integrate's checks."""
        ensure_lie(mu0)
        if self.core in (Variant.GAUGED, Variant.SCALSTAR):
            if self.label is None:
                raise GaugeMismatch(f"variant {self.variant.value} requires a stratum label")
            gauge = check_gauged(mu0, self.label)
            if not gauge.in_nonneg or gauge.v0_norm == 0.0:
                raise GaugeMismatch(
                    f"initial bracket is not gauged correctly: negative-component "
                    f"norm {gauge.neg_norm:.3e}, V_0 norm {gauge.v0_norm:.3e}"
                )
            if self.dec is None:
                self.dec = beta_decomposition(self.label)
        if self.core == Variant.SCALSTAR:
            return mu0.coeffs * _scalstar_factor(coeff_scal_star(mu0.coeffs))
        return mu0.coeffs

    def _stop(self, run, termination, y=None):
        run.traj.termination = termination
        run.running, run.end = False, y

    def _start(self, runs, y):
        """Record each seed as its first sample and evaluate the first stages."""
        rec, _ = _record_stack([0.0] * len(runs), y, *self.recording)
        self._append_blocks(rec, [(run, j, 1, 0) for j, run in enumerate(runs)], self.spec.conv_tol)
        self.live, self.y = list(runs), y.copy()  # rec keeps y; _accept writes into self.y
        slopes, a, rs = _field(y, *self.kernel)
        self.k0 = slopes.reshape(len(y), -1)
        self.a0 = np.stack((a, _shifted(ricci_from(rs, coeff_ad_h_t(y)), rs)),
                           axis=1) if self.gauged else None

    def _append_blocks(self, rec, blocks, conv_tol, dense=None):
        """Give the _Record's samples to their runs, one block (run, first, count, inside) per run,
        through _append; the first `inside` lie inside the step, with the next rows of dense."""
        for run, first, count, inside in blocks:
            count, converged = _append(run, rec, first, count, conv_tol)
            if self.gauged:
                kept, k = min(inside, count), len(run.omegas)
                run.index += [(k - 1, 1)] * kept + [(k, 0)] * (count - kept)
                if inside:
                    run.dense.append(dense[:kept])
                    dense = dense[inside:]
            if converged:
                self._stop(run, Termination.CONVERGED)

    def _compress(self):
        """Drop the stopped runs from live and the stacks."""
        keep = [j for j, run in enumerate(self.live) if run.running]
        if len(keep) < len(self.live):
            self.live = [self.live[j] for j in keep]
            self.y, self.k0 = self.y[keep], self.k0[keep]
            if self.gauged:
                self.a0 = self.a0[keep]

    def _step(self):
        """One Dormand-Prince step of every running trajectory, accepted or rejected per run."""
        spec = self.spec
        t_stop = spec.t_end - 1e-14 * max(1.0, spec.t_end)
        for j, run in enumerate(self.live):
            if not run.t < t_stop:
                stop = Termination.REACHED_T_END
            elif run.steps >= spec.max_steps:
                stop = Termination.STEP_FAILURE
            else:
                run.h = min(run.h, spec.t_end - run.t)
                if run.h >= 1e-14 * max(1.0, abs(run.t)):
                    continue
                stop = Termination.STEP_FAILURE
            self._stop(run, stop, self.y[j])
        self._compress()
        if not self.live:
            return
        hs = np.array([run.h for run in self.live])
        stages = [] if self.gauged else None  # per new stage, (state, A, Ric*) for the gauges
        y_new, err, k, q = _dp_step(self.kernel, self.y, hs, self.k0, stages)
        errs = _error_norms(err, self.y, y_new, spec.rel_tol, spec.abs_tol)
        accepted = []
        for j, (run, e) in enumerate(zip(self.live, errs)):
            run.steps += 1
            run.err = e
            if e <= 1.0:
                accepted.append(j)
            else:
                run.rejected += 1
                run.h *= max(0.1, 0.9 * e ** (-0.2))
        if accepted:
            self._accept(accepted, hs, y_new, k, q, stages)
        self._compress()

    def _accept(self, acc, hs, y, k, q, stages):
        """Advance the runs live[acc] over their accepted steps and record their grid samples."""
        spec = self.spec
        runs, y_old = self.live, self.y
        whole = len(acc) == len(runs)
        a = a0 = None
        if self.gauged:  # A and R (P, 2, 7, n, n) at the seven stages; stage 1's come from a0
            ys, a_new, ric_star = (np.stack(part)[None] if len(runs) == 1 else
                                   np.stack(part, axis=1)[acc] for part in zip(*stages))
            a = np.empty((len(acc), 2, 7) + a_new.shape[2:])
            a[:, :, 0], a[:, 0, 1:] = self.a0[acc], a_new  # R from each stage's Ric* and (ad H)^T
            a[:, 1, 1:] = _shifted(ricci_from(ric_star, coeff_ad_h_t(ys)), ric_star)
            a0 = a[:, :, -1].copy()
        if not whole:
            runs = [runs[j] for j in acc]
            y_old, y, k, q, hs = (x[acc] for x in (y_old, y, k, q, hs))
        t_old = [run.t for run in runs]
        for run in runs:
            run.t += run.h
            if abs(run.t - spec.t_end) <= 1e-12 * max(1.0, spec.t_end):
                run.t = spec.t_end
        k0 = k[:, -1]
        if self.core == Variant.SCALSTAR:  # back onto scal* = -1, k0 and a0 by the degree split
            lam = _scalstar_factor(coeff_scal_star(y))[:, None]
            l2 = lam * lam
            shift = (l2 - 1.0) * l2 * q[:, None]
            k0 = l2 * lam * k0 + shift * lam * y.reshape(len(y), -1)
            y = lam[..., None, None] * y
            if self.gauged:
                a0 = l2[..., None, None] * a0 + shift[..., None, None] * np.eye(y.shape[-1])
        # Blow-up ends a run before its samples.
        sampled = []
        for i, (run, norm) in enumerate(zip(runs, _row_norms(y))):
            if norm > run.cap:
                self._stop(run, Termination.DIVERGED, y[i])
            else:
                sampled.append(i)
        if sampled or a is not None:
            self._record(runs, sampled, t_old, y_old, y, k, hs, a)
        for i in sampled:
            run = runs[i]
            if run.running:
                e = run.err
                fac = 0.9 * e ** -0.17 * run.err_prev ** 0.04 if e > 0 else 5.0
                run.err_prev = max(e, 1e-4)
                run.h *= min(5.0, max(0.2, fac))
        if whole:
            self.y, self.k0 = y, k0
        else:
            self.y[acc], self.k0[acc] = y, k0
        if self.gauged:
            self.a0[acc] = a0

    def _record(self, runs, sampled, t_old, y_old, y, k, hs, a):
        """Sample every grid time in (t_old, t] of the runs[i], i in sampled, as one stack: per run
        the continuous extension's points from y_old to y5, then any at the step end, y.  With
        gauges, one _magnus call forms every increment of the step and its samples."""
        spec = self.spec
        ts, states, blocks = [], [], []
        # dense: the dense samples; rows, weights, spans: each step's Magnus row, then theirs
        dense, rows, weights, spans = [], list(range(len(runs))), [_DP_B5] * len(runs), list(hs)
        for i in sampled:
            run = runs[i]
            t, h, first, thetas = run.t, run.h, len(ts), []
            grid = run.count  # the seed is grid point 0
            while (t_rec := (grid + len(ts) - first) * spec.record_every) <= t + 1e-12 * max(1.0, t):
                if t - t_rec <= 1e-12 * max(1.0, t_rec):
                    ts.append(min(t_rec, spec.t_end))
                else:
                    ts.append(t_rec)
                    thetas.append((t_rec - t_old[i]) / h)
            count = len(ts) - first
            if not count:
                continue
            if thetas:
                w = _dense_weights(thetas)
                states.append(y_old[i] + h * (w[:, None, :] @ k[i]).reshape(-1, *y.shape[1:]))
                dense += range(first, first + len(thetas))
                rows += [i] * len(thetas)
                weights += list(w)
                spans += [theta * h for theta in thetas]
            states += [y[i: i + 1]] * (count - len(thetas))
            blocks.append((run, first, count, len(thetas)))
        rec = ends = omega = None
        if blocks:
            rec, ends = _record_stack(ts, np.concatenate(states), *self.recording)
        if a is not None:
            ends = np.stack(ends, axis=1)[dense] if dense else a[:0, :, 0]
            omega = _magnus(a[rows], np.array(weights), hs[rows], np.array(spans),
                            np.concatenate((a[:, :, -1], ends)))
            for i, run in enumerate(runs):
                run.omegas.append(omega[i: i + 1])
            omega = omega[len(runs):]
        if blocks:
            self._append_blocks(rec, blocks, spec.conv_tol, omega)

    def _finish(self, runs):
        """Record each run's final sample where it stopped off the grid, and fill its
        trajectory; its FlowSamples are built here, in one pass."""
        final = [
            run for run in runs
            if run.traj.termination != Termination.CONVERGED
            and abs(run.t_kept - run.t) > 1e-12 * max(1.0, run.t)
        ]
        if final:
            rec, _ = _record_stack([run.t for run in final], np.stack([run.end for run in final]),
                                   *self.recording)
            self._append_blocks(rec, [(run, j, 1, 0) for j, run in enumerate(final)], 0.0)
        for run in runs:
            traj = run.traj
            traj.samples, scal = _run_samples(run.kept, self.core, self.dec, self.label,
                                              self.variant == Variant.SCAL)
            traj.steps, traj.rejected = run.steps, run.rejected
            if self.core == Variant.SCALSTAR:  # each accepted step was projected onto scal* = -1
                traj.renormalizations = run.steps - run.rejected
            if self.gauged:
                incs = np.concatenate([self.a0[:0]] + run.omegas + run.dense)
                traj.gauges = _gauge_paths(incs, run.index, len(run.omegas), scal)


def _gauge_paths(omegas, index, steps, scal=None):
    """FlowTrajectory.gauges of a run from the Magnus increments (K + D, G, n, n) of its K = steps
    steps, then D dense samples, exponentiated in one call: h_0 = Id, h_k = E_k h_(k-1), sample
    (k, inside) has h_k (times the next dense E if inside), scaled for a scal run's "variant"."""
    exps = expm_stack(omegas.reshape((-1,) + omegas.shape[2:])).reshape(omegas.shape)
    k, inside = np.array(index).T
    chain = [np.array([np.eye(exps.shape[-1])] * exps.shape[1])]
    for e in exps[: k.max()]:
        chain.append(e @ chain[-1])
    mats = np.array(chain)[k]
    mats[inside == 1] = exps[steps:] @ mats[inside == 1]
    if scal is not None:
        mats[:, 0] *= np.sqrt(np.abs(scal) / abs(scal[0]))[:, None, None]  # h(t).mu(0) = mu(t)
    return dict(zip(GAUGE_COEFFICIENTS, mats.swapaxes(0, 1).copy()))


def _scalstar_factor(s):
    """|s|^-1/2 for a scal* s or an array of them, which moves each state onto scal* = -1;
    a scal* >= 0 raises OutOfRange."""
    s = np.asarray(s)
    if (s >= 0.0).any():
        raise OutOfRange(f"scal* = {s[s >= 0.0][0]:.3e} is not negative; cannot normalize")
    return (-s) ** -0.5


@dataclass(slots=True)
class GaugePath:
    """Solution h(t) of h' = -A(mu(t)) h at the recorded times; mats is (N, n, n)."""

    times: np.ndarray
    mats: np.ndarray
    coefficient: str

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

    integrate_stack forms h(t), h(0) = Id, from a run's Magnus increments when it ends, so
    this only applies h0 on the right.  coefficient="variant" uses the A driving the
    trajectory's own field, so h(t).mu(0) = mu(t); "ricci" uses Ric + ||Ric*||^2 Id, the
    ungauged normalized coefficient whose solution converges in GL exactly in the Einstein
    case (on a scal run, the gauge of the scalstar run the samples were rescaled from).  No
    gauges (a raw run, or FlowSpec.gauges False) or an h0 that is not a finite (n, n) matrix
    raise GaugeMismatch; sigma_min(h0) <= n eps sigma_max(h0) raises SingularGauge.
    """
    if coefficient not in GAUGE_COEFFICIENTS:
        raise ValueError(f"unknown gauge coefficient {coefficient!r}; "
                         f"expected one of {GAUGE_COEFFICIENTS}")
    if not traj.gauges:
        raise GaugeMismatch("gauge recovery needs a gauged, scalstar or scal trajectory run "
                            "with FlowSpec.gauges = True")
    n = traj.gauges[coefficient].shape[-1]
    h = np.eye(n) if h0 is None else np.array(h0, dtype=float)
    bad = h[~np.isfinite(h)]
    if h.shape != (n, n) or bad.size:
        raise GaugeMismatch(f"h0 must be a finite ({n}, {n}) matrix, got shape {h.shape}"
                            + (f" with the entry {bad[0]}" if bad.size else ""))
    sigma = np.ones(1) if h0 is None else np.linalg.svd(h, compute_uv=False)
    if not sigma[-1] > n * np.finfo(float).eps * sigma[0]:
        raise SingularGauge(f"h0 is singular: sigma_min / sigma_max = "
                            f"{sigma[-1] / max(sigma[0], 1e-300):.3e} <= n eps")
    return GaugePath(times=traj.times, mats=traj.gauges[coefficient] @ h, coefficient=coefficient)


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
    limit: BracketTensor = field(repr=False)
    bracket_gap: float

    to_dict = report_to_dict


def detect_soliton_convergence(traj, cauchy_tol=1e-6):
    """Convergence test for scalstar runs: trailing f below tolerance and
    a Cauchy trailing window of brackets."""
    if Variant(traj.variant) != Variant.SCALSTAR or traj.label is None:
        raise GaugeMismatch("soliton detection needs a labelled scalstar trajectory")
    window = traj.samples[-CONV_WINDOW:]
    f_tail = max(s.monitors.f for s in window)
    gap = float(np.linalg.norm(window[-1].bracket.coeffs - window[0].bracket.coeffs))
    converged = (
        len(traj.samples) >= CONV_WINDOW
        and f_tail <= F_TOL
        and gap <= cauchy_tol * (1.0 + window[-1].bracket.norm)
    )
    return SolitonDetection(converged, f_tail, traj.final.bracket, gap)
