"""The four bracket-flow variants, monitors, and the gauge h(t).

Vector fields (all of the shape mu' = -pi(A(mu)) mu):

  raw        A = Ric(mu)
  gauged     A = (Ric*)_{q_beta}
  scalstar   A = (Ric*)_{q_beta} + ||Ric*||^2 Id   (keeps scal* = -1)
  scal       post-hoc rescaling of a scalstar run by |scal|^{-1/2}

Integration uses Hairer's DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.6), for every variant: twelve stages a step, the last at the
new state and reused as the next step's first, and an error norm that combines the 5th-
and 3rd-order estimates.  dop853's controller (_step_factor) scales h by 0.9 e^(-1/8) within
[1/3, 6], and not up after a rejection.  The first step comes from the field (hinit), except
that a field too small to move the state by its tolerance before t_end (one that vanishes,
or round-off at a fixed point) starts at t_end.  Grid samples inside a step come from its
7th-order dense output, whose three extra stages are evaluated only on steps that have
samples inside them (or carry gauges), so only t_end cuts a step short.  A stage state is one
product of the step's coefficients with the state and the slopes so far, and its slopes come
from _Lockstep._slopes.  For n <= POLY_MAX_DIM (3) the field is a polynomial in the packed
coordinates x = c[i < j, k], two small matrix products per state: (x (x) x) q gives A (and,
scalstar, Ric* and scal*), and (A (x) x) p the i < j entries of -pi(A)c, written with their
exact negatives.  At n = 3 a stage takes about half the tensor kernel's time, which goes to
its numpy calls, not its arithmetic; the products grow as n^6, and from n = 4 they are no
faster for one state and slower for a stack, so larger runs call the tensor kernel `_field`
once a stage: no flow forms M or K, Ric* is one product, Ric is formed only for a raw A, and
-pi(A)c takes two (brackets.neg_pi_apply).  Either way every stage state stays exactly
antisymmetric.  Records, gauges, flow_field and linearize keep the tensor kernel.  A record
(the seeds, one step's grid samples or the final samples) is one stack of plain arrays for
all runs, and two functions decide what the loop keeps of it.  _converging moves scalstar
states onto the slice, keeping their drifts; on a run that checks convergence it measures
the field norms of a step's grid states in chunks until its streak fills, and cuts the run
there.  The gauges are formed for the kept samples only.  _keep then checks the kept states
with one bracket_stack call, against COEFF_CAP and for the Jacobi identity, the flow's one
Jacobi check (DOP853 does not keep the Jacobi identity, and a record past jacobi_tolerance
raises NotALieBracket), and appends each run's block of the arrays to run.blocks.  The
states are exactly antisymmetric, so nothing is projected or copied.  A raw or gauged run's
first sample is the caller's bracket itself.  Each run forms its Ric, Ric*, Monitors and
FlowSamples once, when it ends, in one pass over its blocks, with the field norms that no
record formed (NaN) from that Ric and Ric*, and keeps their monitors as one (N, 8) array.

The scalstar field F(c) keeps scal* = -1 on the slice, but off it grows along c at the rate
2 ||Ric*||^2 (F(lam c) = lam^3 F(c) + (lam^5 - lam^3) q c).  So a scalstar (and scal) stage
evaluates the field at its state moved onto the slice, c <- |scal*(c)|^-1/2 c, which is the
same field on the slice and flat along c off it, and every accepted step is projected back
onto the slice (Hairer, Lubich & Wanner, Geometric Numerical Integration, IV.4).  Without
this, a long step grows the stage states' round-off along c by up to e^(2h), and the error
estimates, the dense output and the step sequence follow it.  The polynomial stage moves no
state: by the degree split, the field at lam c is lam^3 (-pi(R_q + lam^2 ||R||^2 Id)c), with
R = Ric*(c) and lam from the same product.

There is one stepper loop, over a stack of B trajectories of one FlowSpec
(`integrate_stack`); `integrate` is that loop with B = 1.  Each trajectory keeps
its own time, step size, grid position, step counts and termination, and drops out of the
stack when it ends.  The running trajectories share each stage evaluation, and their
accepted steps one record; the kernels work slice by slice, so every trajectory is bit for
bit integrate's on its seed alone.

The gauge h' = -A(mu) h, h(0) = Id, of gauged, scalstar and scal runs has two
coefficients: "variant", the A driving the field (so that h(t).mu(0) = mu(t)),
and "ricci", Ric + ||Ric*||^2 Id.  The gauges never move a step: after each accepted step
they are integrated along its dense output, up to the samples kept inside the step and its
end, in sixth-order Magnus sub-steps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009),
section 5) short enough for their own error estimate.  The step g <- exp(Omega) g is
multiplicative, so the error is relative to g at any size of g.  A step forms X at all its
sub-steps' Gauss-Legendre nodes as one stack, and takes all their exponentials in one
scipy.linalg.expm call.  FlowSpec.gauges = False keeps none and changes no sample or step.
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .brackets import (BracketTensor, bracket_stack, ensure_lie, ensure_regular, neg_pi_apply,
                       report_to_dict)
from .curvature import coeff_ric_star, coeff_ricci, coeff_scal_star, curvature_pack
from .errors import GaugeMismatch, OutOfRange
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
    # Whether a gauged, scalstar or scal run integrates both gauges h(t); raw
    # runs keep none.
    gauges: bool = True


class Monitors(NamedTuple):
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
    # The run's read-only (N, 8) monitors, one row per sample in Monitors' order, and this
    # sample's row: a run keeps one array, not eight floats per sample.
    _table: np.ndarray = field(repr=False, compare=False)
    _row: int = field(repr=False, compare=False)

    @property
    def monitors(self):
        """The sample's Monitors, read off its row."""
        return Monitors(*self._table[self._row].tolist())

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
    # The sample times of the gauges, one read-only array that recover_gauge hands out.
    gauge_times: np.ndarray = field(default=None, repr=False, compare=False)

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


# Hairer's DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5 and II.6; autonomous fields: no stage times needed).  Row s - 1 of _A holds the
# coefficients of state s over the slopes k_0, ..., k_(s-1), s = 1, ..., 15: the stages 1-11,
# the new state (row 12, the weights b), whose slopes are k_12 (the next step's k_0), and the
# three extra stages of the dense output.  The rows of _E are the 5th- and 3rd-order error
# estimates over k_0, ..., k_11, and those of _D the dense output's last four coefficients.
_A = np.array([np.pad(row, (0, 15 - len(row))) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)])
_E = np.array((
    (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294),
    (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082),
))
_D = np.array((
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
))
# The dense output's Hermite terms: b (padded to 16), k_0 and k_12 as weight vectors.
_B, _K0, _K12 = np.pad(_A[11], (0, 1)), np.eye(16)[0], np.eye(16)[12]
# The four Gauss-Legendre nodes on [0, 1], where the gauges' Magnus steps take X, and the
# rows of weights over them of its moments int_0^1 (t - 1/2)^i X dt, i = 0, 1, 2 (order 8).
_x, _w = np.polynomial.legendre.leggauss(4)
_NODES, _MOMENTS = 0.5 + 0.5 * _x, 0.5 * _w * (0.5 * _x) ** np.arange(3)[:, None]
del _x, _w


def _dense_weights(thetas):
    """The dense output's weights b(theta) (len(thetas), 16), so y(theta) = y + h b(theta) @ k
    over k_0, ..., k_15; b(0) = 0 and b(1) = b.  It is dop853's 7th-order polynomial
    theta (F0 + (1 - theta) (F1 + theta (F2 + (1 - theta) (F3 + ...)))) with F0 = b, F1 = k_0 - b,
    F2 = 2 b - k_0 - k_12 and F3, ..., F6 the rows of _D."""
    th = np.asarray(thetas)[:, None]
    u = 1.0 - th
    w = _D[2] + th * _D[3]
    w = _D[1] + u * w
    w = _D[0] + th * w
    w = 2.0 * _B - _K0 - _K12 + u * w
    w = _K0 - _B + th * w
    return th * (_B + u * w)


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


# The largest dimension whose stages take the polynomial field (_Lockstep._slopes).  A raw
# stage, polynomial against tensor kernel (2 shared vCPUs, OpenBLAS on 1 thread), on one
# state: 9.5 vs 21.1 us at n = 2, 9.9 vs 21.3 at n = 3, 15.7 vs 21.7 at n = 4 and 62.2 vs
# 22.2 at n = 5; on a stack of five: 15.7 vs 26.5 us at n = 3 and 44.0 vs 27.0 at n = 4.
POLY_MAX_DIM = 3


@functools.cache
def _stage_polynomial(n):
    """The field's coefficients in the packed coordinates x = c[i < j, k] of an antisymmetric c
    (n, n, n), d = n^2 (n - 1) / 2 of them: (up, q_ric, q_ric_star, p), all read-only.

    up indexes x in the flat c.  Ric and Ric* (n^2 entries each) are (x (x) x) q, q (d^2, n^2),
    by polarizing coeff_ricci on the unit brackets e_a (1 at c[i, j, k], -1 at c[j, i, k]):
    q[a, b] = (f(e_a + e_b) - f(e_a) - f(e_b)) / 2, with f(e_a) = f(2 e_a) / 4.  The i < j
    entries of -pi(A)c, and 0 at the others, are (A (x) x) p, p (n^2 d, n^3) holding
    neg_pi_apply(E_kl, e_a) there.  Every entry is a small dyadic rational, formed exactly.
    """
    i, j = np.triu_indices(n, 1)
    i, j, k = np.repeat(i, n), np.repeat(j, n), np.tile(np.arange(n), len(i))
    d, m = len(k), n * n
    units = np.zeros((d, n, n, n))
    units[np.arange(d), i, j, k], units[np.arange(d), j, i, k] = 1.0, -1.0
    q = []
    for f in coeff_ricci(units[:, None] + units[None, :]):
        own = np.einsum("aa...->a...", f) / 4.0
        q.append(((f - own[:, None] - own[None, :]) / 2.0).reshape(d * d, m))
    p = neg_pi_apply(np.eye(m).reshape(m, 1, n, n), np.broadcast_to(units, (m, d, n, n, n)))
    p *= np.triu(np.ones((n, n)), 1)[:, :, None]
    parts = ((i * n + j) * n + k, *q, p.reshape(m * d, n ** 3))
    for part in parts:
        part.flags.writeable = False
    return parts


def flow_field(coeffs, variant, dec):
    """dc/dt for the given variant at a bracket's (antisymmetric) coefficients; no validation."""
    return _field(coeffs, variant, dec)[0]


def _commutator(a, b):
    """[a, b] = ab - ba of two stacks of square matrices."""
    return a @ b - b @ a


def _one(x):
    """A stack of one as its one slice: the kernels give it the same bits at less cost per call."""
    return x[0] if len(x) == 1 else x


def _dp_step(slopes, y, h, k0):
    """The eleven new stages of one DOP853 step from each state of the stack y (L, N), slice b
    by h[b].

    Slice b's state and slopes are the rows of one buffer (17, N): y[b], k_0 = k0[b], then
    k_1, ..., k_11, which slopes(state, out) writes into their rows, and room for k_12 to k_15.
    Each stage state, and the new state, is one product of a row of h[b] _A, with 1 for y[b],
    with the rows filled so far.  Returns the new states (L, N), the buffers (L, 17, N) and the
    5th- and 3rd-order error estimates _E @ k (L, 2, N), not scaled by h.
    """
    count = len(y)
    rows = np.empty((count, 17, y.shape[1]))
    rows[:, 0], rows[:, 1] = y, k0
    w = np.empty((count, 12, 13))
    w[:, :, 0] = 1.0
    w[:, :, 1:] = h[:, None, None] * _A[:12, :12]
    ws, rs = _one(w), _one(rows)
    for s in range(1, 12):
        slopes(np.vecmat(ws[..., s - 1, : s + 1], rs[..., : s + 1, :]), rs[..., s + 1, :])
    y_new = np.vecmat(ws[..., 11, :], rs[..., :13, :]).reshape(y.shape)
    err = np.stack([np.vecmat(e, rs[..., 1:13, :]) for e in _E], axis=-2)
    return y_new, rows, err.reshape(count, 2, y.shape[1])


def _error_norms(err, y_old, y_new, h, rel_tol, abs_tol):
    """dop853's error norm of each slice, |h| E5^2 / sqrt(m (E5^2 + E3^2 / 100)), where E5 and E3
    are the 2-norms of the estimates err (L, 2, m) divided by abs_tol + rel_tol max(|y_old|,
    |y_new|) over the m columns; 0.0 where both vanish."""
    scaled = np.maximum(np.abs(y_old), np.abs(y_new))
    scaled *= rel_tol
    scaled += abs_tol
    scaled = err / scaled[:, None]
    sq = np.vecdot(scaled, scaled).tolist()
    m = err.shape[-1]
    return [0.0 if e5 == e3 == 0.0 else abs(hb) * e5 / math.sqrt(m * (e5 + 0.01 * e3))
            for hb, (e5, e3) in zip(h.tolist(), sq)]


def _step_factor(e, retried):
    """dop853's step-size factor after a try with error norm e: 0.9 e^(-1/8) within [1/3, 6]
    (6 at e = 0, 1/3 at a NaN e), and at most 1 if the try before was rejected (retried).  The
    one rule of the step size, for accepted (e <= 1) and rejected tries alike."""
    fac = 6.0 if e == 0.0 else min(6.0, max(1.0 / 3.0, 0.9 * e ** -0.125))
    return min(fac, 1.0) if retried else fac


def _row_norms(x):
    """The 2-norm of each slice of the stack x, as floats (the bits of np.linalg.norm)."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(flat, flat)).tolist()


def _run_samples(blocks, variant, dec, label, scal=False):
    """(FlowSamples, scal of each state if scal) of one run, in one pass over its kept blocks.

    The run's Ric and Ric* are formed here, from its stacked states, and from them the field
    norms that no record formed (NaN).  With scal, the scalstar samples are rescaled by
    |scal|^-1/2, keeping their field norms and drifts.
    """
    columns = list(zip(*blocks))
    ts, cs, drift, field_norm, norm_sq = map(np.concatenate, columns[:5])
    brackets = [mu for part in columns[5] for mu in part]
    ric, ric_star = coeff_ricci(cs)
    missing = np.isnan(field_norm)
    if missing.any():
        a = _endomorphism(ric[missing], ric_star[missing], variant, dec)
        field_norm[missing] = _row_norms(neg_pi_apply(a, cs[missing]))
    scals = None
    if scal:
        scals = ric.trace(axis1=-2, axis2=-1).tolist()
        # A zero scal raises below before its scale is used.
        scales = np.array([abs(v) ** -0.5 if v else 1.0 for v in scals])
        cs = cs * scales[:, None, None, None]
        new_sq, brackets = bracket_stack(cs)
        for t, v, sq, mu in zip(ts.tolist(), scals, norm_sq.tolist(), brackets):
            if abs(v) < 1e-12 * (1.0 + sq):
                raise OutOfRange(f"scal = {v:.3e} at t = {t}; cannot rescale")
            if isinstance(mu, Exception):
                raise mu
        norm_sq, (ric, ric_star) = new_sq, coeff_ricci(cs)
    rstar_beta = rstar_sq = scal_star = np.full(len(ts), np.nan)
    beta_sq = np.nan
    if label is not None:
        beta_sq = label.norm_sq
        rstar_beta = (ric_star * label.beta).reshape(len(ts), -1).sum(axis=1)
        rstar_sq = (ric_star * ric_star).reshape(len(ts), -1).sum(axis=1)
        scal_star = ric_star.trace(axis1=-2, axis2=-1)
    table = np.stack((
        rstar_sq - rstar_beta,
        rstar_sq + scal_star * rstar_beta,
        rstar_beta - np.abs(scal_star) * beta_sq,
        ts * norm_sq,
        ts * _row_norms(ric),
        [mu.jacobi_residual() for mu in brackets],
        field_norm,
        drift,
    ), axis=1)
    table.flags.writeable = False
    samples = [FlowSample(t, mu, table, j) for j, (t, mu) in enumerate(zip(ts.tolist(), brackets))]
    return samples, scals


def _converging(blocks, ts, cs, kernel, conv_tol):
    """Cut the samples of the loop's runs, the states cs (B, n, n, n) at the times ts in one
    block (run, first, count) per run, at each run's convergence: returns (ts, cs, drift,
    field_norm) of the kept samples, and their blocks (run, first, count, converged).

    cs is a fresh, exactly antisymmetric stack.  Scalstar states (a step's end on the
    scal* = -1 slice, samples inside it off it by its error) are moved onto it, and their
    drifts kept.  run.streak counts the latest samples in a row with field norm <= conv_tol
    (1 + ||mu||^3); a run converges when it reaches CONV_WINDOW (conv_tol <= 0: never), and its
    samples past that are dropped unchecked.  The field norms are formed in chunks of 10, 20,
    40, ... samples, so a run that converges early in a long step measures few past it; NaN
    marks one not formed, which _run_samples forms.
    """
    drift, field_norm = np.full((2, len(ts)), np.nan)
    if kernel[0] == Variant.SCALSTAR:
        s = coeff_scal_star(cs)
        drift = np.abs(s + 1.0)
        cs = cs * _scalstar_factor(s)[:, None, None, None]
    kept, rows = [], []
    for run, first, count in blocks:
        converged, j, size = False, first, CONV_WINDOW
        while conv_tol > 0.0 and j < first + count and not converged:  # in chunks, 10, 20, ...
            end = min(first + count, j + size)
            fnorms = _row_norms(_field(cs[j:end], *kernel)[0])
            field_norm[j:end] = fnorms
            for fnorm, norm in zip(fnorms, _row_norms(cs[j:end])):
                run.streak = run.streak + 1 if fnorm <= conv_tol * (1.0 + norm ** 3) else 0
                j += 1
                if run.streak >= CONV_WINDOW:
                    count, converged = j - first, True
                    break
            size *= 2
        kept.append((run, len(rows), count, converged))
        rows += range(first, first + count)
    samples = (np.asarray(ts, dtype=float), cs, drift, field_norm)
    if len(rows) < len(ts):
        samples = tuple(x[rows] for x in samples)
    return samples, kept


def _keep(samples, kept, gauges, brackets=None):
    """Check the kept samples (ts, cs, drift, field_norm) as one stack (bracket_stack: the size
    cap and the Jacobi identity; brackets gives the caller's checked BracketTensors of cs
    instead), and append to each run of kept = [(run, first, count, converged)] its block of
    them, with their gauges (B, 2, n, n) or None; the first failed sample raises."""
    if brackets is None:
        norm_sq, brackets = bracket_stack(samples[1])
    else:
        norm_sq = np.array([mu.norm_sq for mu in brackets])
    for mu in brackets:
        if isinstance(mu, Exception):
            raise mu
    for run, first, count, _ in kept:
        part = slice(first, first + count)
        run.blocks.append((*(x[part] for x in samples), norm_sq[part], brackets[part],
                           None if gauges is None else gauges[part]))
        run.count += count


def integrate(mu0, spec):
    """Integrate one bracket-flow trajectory and record monitored samples.

    Samples are taken at the multiples of spec.record_every up to spec.t_end,
    and at t_end itself; a grid time inside an accepted step is read off the
    step's dense output, so the grid does not shorten steps.  This is
    integrate_stack on a stack of one.
    """
    return integrate_stack([mu0], spec)[0]


def integrate_stack(mu0s, spec):
    """integrate(mu0, spec) for each bracket of mu0s, stepped in lockstep as one stack.

    Each DOP853 stage evaluates the field once on the stack of the
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

    __slots__ = ("traj", "cap", "t", "h", "retried", "steps", "rejected", "streak", "blocks",
                 "count", "running", "end", "substep")

    def __init__(self, traj, cap, h):
        self.traj, self.cap, self.h = traj, cap, h
        self.t, self.retried = 0.0, False  # retried: the last try was rejected
        self.steps = self.rejected = 0
        self.streak = 0  # the latest samples in a row that meet the convergence test
        # The samples kept, in time order, as blocks (ts, cs, drift, field_norm, norm_sq,
        # brackets, gauges) of _keep, and how many
        self.blocks, self.count = [], 0
        # end: (state, gauges) where the run stopped, for its last sample
        self.running, self.end = True, None
        self.substep = math.inf  # the gauge sub-step length that the last _gauges proposes


class _Lockstep:
    """The stepper loop of integrate_stack.

    live lists the running _Runs in seed order, as do the stacks y (L, n^3) of their states,
    k0 (L, n^3) of their slopes there and, with gauges, g (L, 2, n, n) of their two gauges.  A
    run that stops leaves them at the next _compress.
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
        runs = [_Run(FlowTrajectory(variant=self.variant, label=self.label),
                     BLOWUP_FACTOR * max(mu0.norm, 1.0), 0.0) for mu0 in mu0s]
        if runs:
            self._start(runs, mu0s, np.stack(seeds))
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

    def _stop(self, run, termination, end=None):
        """End the run; end = (its state, its gauges or None) where it stops off its samples."""
        run.traj.termination = termination
        run.running, run.end = False, end

    def _polynomial(self):
        """(up, q, p) of the polynomial field (_slopes) of this run's variant at n <= POLY_MAX_DIM,
        else None: q (d^2, M) gives A (M = n^2), or on scalstar runs (Ric*)_{q_beta}, Ric* and
        scal* = tr Ric* (M = 2 n^2 + 1); its (Ric*)_{q_beta} columns are project_qbeta of the
        Ric* columns."""
        n = self.n
        if n > POLY_MAX_DIM:
            return None
        up, q_ric, q_ric_star, p = _stage_polynomial(n)
        if self.core == Variant.RAW:
            return up, q_ric, p
        q = project_qbeta(q_ric_star.reshape(-1, n, n), self.dec).reshape(q_ric_star.shape)
        if self.core == Variant.SCALSTAR:
            q = np.concatenate((q, q_ric_star, q_ric_star[:, :: n + 1].sum(axis=1, keepdims=True)),
                               axis=1)
        return up, q, p

    def _slopes(self, y, out):
        """The field -pi(A)c at the flat states y (..., n^3), into out of y's shape; a scalstar
        field at its states moved onto scal* = -1, by the factors that it returns (flat), else
        None.

        Above POLY_MAX_DIM the tensor kernel _field takes the moved states.  At or below it the
        field is a polynomial in the packed coordinates x (_stage_polynomial): one product
        (x (x) x) q gives A, and a second, (A (x) x) p, the i < j entries W of -pi(A)c, written
        as W - W^T, so exactly antisymmetric.  A scalstar field moves no state: by its degree
        split it is lam^3 (-pi(R_q + lam^2 ||R||^2 Id)c) at lam c, R = Ric*(c) and lam =
        |scal*(c)|^-1/2, with R_q, R and scal* from the one product.  Each state takes its own
        products, so a stack of one has the bits of a slice.
        """
        n = self.n
        if self.poly is None:
            c = y.reshape(y.shape[:-1] + (n,) * 3)
            factor = None
            if self.core == Variant.SCALSTAR:  # as a stack: a stack of one has the bits of a slice
                flat = c.reshape((-1,) + c.shape[-3:])
                factor = _scalstar_factor(coeff_scal_star(flat))
                c = (flat * factor[:, None, None, None]).reshape(c.shape)
            _field(c, *self.kernel, out=out.reshape(c.shape, copy=False))
            return factor
        up, q, p = self.poly
        x = y.reshape(-1, 1, n ** 3)[..., up]
        a = (x.mT * x).reshape(len(x), 1, -1) @ q
        factor = None
        if self.core == Variant.SCALSTAR:  # a[:, 0] holds R_q, R and scal*
            m, parts = n * n, a[:, 0]
            factor = _scalstar_factor(parts[:, -1])
            sq, ric_star = factor * factor, parts[:, m: 2 * m]
            parts[:, : m: n + 1] += (sq * np.vecdot(ric_star, ric_star))[:, None]
            parts[:, :m] *= (sq * factor)[:, None]
            a = a[..., :m]
        w = ((a.mT * x).reshape(len(x), 1, -1) @ p).reshape((-1,) + (n,) * 3)
        np.subtract(w, w.swapaxes(-3, -2), out=out.reshape(w.shape, copy=False))
        return factor

    def _start(self, runs, mu0s, cs):
        """Record each seed as its first sample (a raw or gauged run's is mu0 itself; one sample
        does not fill the convergence window), evaluate the first slopes and choose each run's
        first step."""
        count, n = len(runs), cs.shape[-1]
        self.n = n
        self.poly = self._polynomial()
        self.g = np.broadcast_to(np.eye(n), (count, 2, n, n)).copy() if self.gauged else None
        _keep(*_converging([(run, j, 1) for j, run in enumerate(runs)], [0.0] * count, cs,
                           self.kernel, self.spec.conv_tol),
              None if self.g is None else self.g.copy(),
              None if self.core == Variant.SCALSTAR else list(mu0s))
        self.live, self.y = list(runs), cs.reshape(count, -1).copy()
        self.k0 = np.empty_like(self.y)
        self._slopes(_one(self.y), _one(self.k0))
        if self.spec.t_end > 0.0:
            for run, h in zip(runs, self._first_steps()):
                run.h = h
        self._compress()

    def _first_steps(self):
        """The first step of each live run from its field (Solving ODEs I, II.4, hinit, with RMS
        norms scaled by abs_tol + rel_tol |y0|): h0 = d0 / (100 d1) (1e-6 if d0 or d1 < 1e-5),
        then min(100 h0, (0.01 / max(d1, d2))^(1/8), t_end), d2 the scaled change of the field
        over an Euler step h0.  A field too small to move the state by its tolerance before
        t_end (d1 t_end <= 1: a vanishing one, or round-off at a fixed point) starts at t_end,
        where the textbook starts it at 1e-6."""
        spec, y0, f0 = self.spec, self.y, self.k0
        m = y0.shape[1]
        scale = spec.abs_tol + spec.rel_tol * np.abs(y0)
        d0, d1 = (np.sqrt(np.vecdot(x, x) / m).tolist() for x in (y0 / scale, f0 / scale))
        h0 = [1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b for a, b in zip(d0, d1)]
        h0 = np.minimum(h0, spec.t_end)
        f1 = np.empty_like(y0)
        self._slopes(_one(y0 + h0[:, None] * f0), _one(f1))
        diff = (f1 - f0) / scale
        d2 = (np.sqrt(np.vecdot(diff, diff) / m) / h0).tolist()
        hs = []
        for a, b, h in zip(d1, d2, h0.tolist()):
            top = max(a, b)
            h1 = max(1e-6, 1e-3 * h) if top <= 1e-15 else (0.01 / top) ** 0.125
            hs.append(spec.t_end if a * spec.t_end <= 1.0 else min(100.0 * h, h1, spec.t_end))
        return hs

    def _compress(self):
        """Drop the stopped runs from live and the stacks."""
        keep = [j for j, run in enumerate(self.live) if run.running]
        if len(keep) < len(self.live):
            self.live = [self.live[j] for j in keep]
            self.y, self.k0 = self.y[keep], self.k0[keep]
            if self.gauged:
                self.g = self.g[keep]

    def _step(self):
        """One DOP853 step of every running trajectory, accepted or rejected per run; each run's
        next step size is its step size scaled by _step_factor."""
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
            self._stop(run, stop, (self.y[j], None if self.g is None else self.g[j]))
        self._compress()
        if not self.live:
            return
        hs = np.array([run.h for run in self.live])
        y_new, rows, err = _dp_step(self._slopes, self.y, hs, self.k0)
        errs = _error_norms(err, self.y, y_new, hs, spec.rel_tol, spec.abs_tol)
        for run, e in zip(self.live, errs):
            run.steps += 1
            run.h *= _step_factor(e, run.retried)
            run.retried = not e <= 1.0  # rejected, as a NaN e is
            run.rejected += run.retried
        accepted = [j for j, e in enumerate(errs) if e <= 1.0]
        if accepted:
            self._accept(accepted, hs, y_new, rows)
        self._compress()

    def _accept(self, acc, hs, y, rows):
        """Advance the runs live[acc] over their accepted steps, evaluate the slopes at their new
        states (k_12, and the next step's k_0) and record their grid samples."""
        spec, m = self.spec, self.n ** 3
        runs, y_old, g = self.live, self.y, self.g
        whole = len(acc) == len(runs)
        if not whole:
            runs = [runs[j] for j in acc]
            y_old, y, rows, hs = (x[acc] for x in (y_old, y, rows, hs))
            g = None if g is None else g[acc]
        t_old = [run.t for run in runs]
        for run, h in zip(runs, hs.tolist()):
            run.t += h
            if abs(run.t - spec.t_end) <= 1e-12 * max(1.0, spec.t_end):
                run.t = spec.t_end
        factor = self._slopes(_one(y), _one(rows[:, 13]))
        k0 = rows[:, 13]
        if factor is not None:  # back onto scal* = -1, by the factor k_12 was evaluated with
            y *= factor[:, None]
        cap = [i for i, (run, norm) in enumerate(zip(runs, _row_norms(y))) if norm > run.cap]
        g = self._record(runs, cap, t_old, y_old, y, rows, hs, g)
        for i in cap:  # blow-up ends a run before its samples
            self._stop(runs[i], Termination.DIVERGED, (y[i], None if g is None else g[i]))
        if whole:
            self.y, self.k0, self.g = y, k0, g
        else:
            self.y[acc], self.k0[acc] = y, k0
            if g is not None:
                self.g[acc] = g

    def _record(self, runs, cap, t_old, y_old, y, rows, hs, g_old):
        """Sample every grid time in (t_old, t] of the runs but runs[cap] (which blew up), as one
        stack: per run the dense output's points from y_old to y, then any at the step end, y.
        Returns the gauges at the step ends, or None.

        A run's samples are cut at its convergence before their gauges are formed and their
        states checked.  Gauges are formed, along the dense output (_gauges), at the samples
        kept inside a step and at its end, if the run goes on or keeps a sample there."""
        spec = self.spec
        ts, plan = [], []  # plan: per run with samples, (i, first, count, thetas)
        every = spec.record_every
        for i, run in enumerate(runs):
            t, grid = run.t, run.count  # the seed is grid point 0
            bound = t + 1e-12 * max(1.0, t)
            last = int(bound // every)
            last += (last + 1) * every <= bound
            last -= last * every > bound
            if last < grid or i in cap:
                continue
            times = np.arange(grid, last + 1) * every
            inside = times[t - times > 1e-12 * np.maximum(1.0, times)]
            plan.append((i, len(ts), len(times), (inside - t_old[i]) / hs[i]))
            ts += inside.tolist() + [min(v, spec.t_end) for v in times[len(inside):].tolist()]
        dense = self._extra_stages(rows, hs, range(len(runs)) if self.gauged else
                                   [i for i, _, _, thetas in plan if len(thetas)])
        # cut: per run with samples, (the thetas of those kept inside the step, how many are
        # kept at its end)
        cut = {}
        if plan:
            states = []
            for i, _, count, thetas in plan:
                if len(thetas):
                    states.append(y_old[i] + hs[i] * (_dense_weights(thetas) @ dense[i]))
                states += [y[i: i + 1]] * (count - len(thetas))
            samples, kept = _converging(
                [(runs[i], first, count) for i, first, count, _ in plan], ts,
                np.concatenate(states).reshape(len(ts), *(self.n,) * 3), self.kernel,
                spec.conv_tol)
            for (i, _, _, thetas), (run, _, count, converged) in zip(plan, kept):
                if converged:
                    self._stop(run, Termination.CONVERGED)
                cut[i] = (thetas[:count], max(count - len(thetas), 0))
        g = gauges = None
        if self.gauged:
            g, path = g_old.copy(), []
            for i, run in enumerate(runs):
                thetas, ends = cut.get(i, ((), 0))
                end = run.running or ends > 0 or i in cap
                if len(thetas) or end:
                    at = self._gauges(run, g_old[i], y_old[i], dense[i], hs[i],
                                      hs[i] * np.append(thetas, [1.0] * end))
                    if end:
                        g[i] = at[-1]
                    if i in cut:
                        path += [at[: len(thetas)], np.repeat(g[i: i + 1], ends, axis=0)]
            gauges = np.concatenate(path) if plan else None
        if plan:
            _keep(samples, kept, gauges)
        return g

    def _extra_stages(self, rows, hs, extended):
        """{i: the slopes k_0, ..., k_15 (16, n^3) of the step of the run i}, for i in extended:
        the step's, with the dense output's three extra stages evaluated."""
        extended = list(extended)
        if not extended:
            return {}
        ext = rows[extended]
        w = np.empty((len(extended), 3, 16))
        w[:, :, 0] = 1.0
        w[:, :, 1:] = hs[extended][:, None, None] * _A[12:]
        ws, rs = _one(w), _one(ext)
        for s in range(13, 16):
            state = np.vecmat(ws[..., s - 13, : s + 1], rs[..., : s + 1, :])
            self._slopes(state, rs[..., s + 1, :])
        return {i: ext[j, 1:] for j, i in enumerate(extended)}

    def _gauges(self, run, g0, c0, k, h, times):
        """The gauges (T, 2, n, n) at the increasing times (T,) in (0, h] of a step of size h from
        the state c0 with slopes k (16, n^3) and the gauges g0 (2, n, n), integrated for
        h' = -X(t) h, X = (A, R) at the dense output's c.

        The gaps between 0 and the times are cut into equal sub-steps no longer than a length
        d, at first the longest gap or run.substep, the length that the run's last call
        proposed.  A sub-step of length d takes the sixth-order Magnus step g <- exp(Omega6) g
        (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009), section 5), from the moments
        m_i = int_0^1 (s - 1/2)^i (-d X) ds of X over the sub-step, i = 0, 1, 2: with
        a1 = 9/4 m0 - 15 m2, a2 = 12 m1 and a3 = 180 m2 - 15 m0,
        Omega6 = m0 + [-20 a1 - a3 + [a1, a2], a2 - [a1, 2 a3 + [a1, a2]] / 60] / 240.
        The error of a sub-step is ||Omega6 - Omega4|| / rel_tol (abs_tol if rel_tol is 0),
        with Omega4 = m0 - [a1, a2] / 12; the step is multiplicative, so the error is relative
        to g.  While the largest exceeds 1, d is cut by 0.9 e^(-1/5), at most 3-fold; on
        success the next call proposes d scaled by 0.9 e^(-1/5), at most 6-fold.
        Coefficients that are not finite raise OutOfRange.

        The moments come from X at four Gauss-Legendre nodes, an eighth-order rule like the
        step's own.  The error estimate sees only commutators, so the rule's error on the
        part of X that commutes (mostly ||Ric*||^2 Id) must be small by itself: with three
        nodes it reached 7e-9 in one step of a heisenberg(9) gauge.  X is formed at all the
        sub-steps' nodes as one stack, and all their exponentials in one expm call, with a
        sub-step's two coefficients as one block-diagonal (2n, 2n) matrix.
        """
        spec, n = self.spec, self.n
        edges = np.concatenate(([0.0], times))
        gaps = np.diff(edges)
        d = min(gaps.max(), run.substep)
        while True:
            counts = np.ceil(gaps / d - 1e-9).astype(int)
            ends = np.cumsum(counts)
            gap = np.repeat(np.arange(len(gaps)), counts)
            step = gaps[gap] / counts[gap]
            starts = edges[gap] + step * (np.arange(ends[-1]) - ends[gap] + counts[gap])
            thetas = ((starts[:, None] + step[:, None] * _NODES) / h).ravel()
            x = self._coefficients((c0 + h * (_dense_weights(thetas) @ k)).reshape(-1, n, n, n))
            x = x.reshape(len(step), len(_NODES), -1) * -step[:, None, None]
            m0, m1, m2 = (_MOMENTS @ x).reshape(len(step), 3, 2, n, n).swapaxes(0, 1)
            a1, a2, a3 = 2.25 * m0 - 15.0 * m2, 12.0 * m1, 180.0 * m2 - 15.0 * m0
            c1 = _commutator(a1, a2)
            c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
            high = _commutator(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0  # Omega6 - m0
            diff = (high + c1 / 12.0).reshape(len(step), -1)  # Omega6 - Omega4
            worst = math.sqrt(np.vecdot(diff, diff).max()) / (spec.rel_tol or spec.abs_tol)
            if worst <= 1.0:
                break
            if not math.isfinite(worst):
                raise OutOfRange(f"gauge coefficients that are not finite in the step of {h:.3e} "
                                 f"to t = {run.t:.6g}: the gauges cannot be integrated")
            d *= max(1.0 / 3.0, 0.9 * worst ** -0.2)
        run.substep = d * (6.0 if worst == 0.0 else min(6.0, 0.9 * worst ** -0.2))
        omega = m0 + high
        blocks = np.zeros((len(step), 2 * n, 2 * n))
        blocks[:, :n, :n], blocks[:, n:, n:] = omega[:, 0], omega[:, 1]
        g = g0.reshape(2 * n, n)  # the two gauges stacked, which the blocks map one each
        path = []
        for e in expm(blocks):
            g = e @ g
            path.append(g)
        return np.array([path[j] for j in ends - 1]).reshape(len(times), 2, n, n)

    def _coefficients(self, cs):
        """The gauges' coefficients (A, R) (S, 2, n, n) at the states cs (S, n, n, n), scalstar
        ones moved onto scal* = -1 first."""
        if self.core == Variant.SCALSTAR:
            cs = cs * _scalstar_factor(coeff_scal_star(cs))[:, None, None, None]
        ric, ric_star = coeff_ricci(cs)
        return np.stack((_endomorphism(ric, ric_star, *self.kernel), _shifted(ric, ric_star)),
                        axis=1)

    def _finish(self, runs):
        """Record each run's final sample where it stopped off the grid, and fill its
        trajectory; its FlowSamples are built here, in one pass."""
        final = [
            run for run in runs
            if run.traj.termination != Termination.CONVERGED
            and abs(run.blocks[-1][0][-1] - run.t) > 1e-12 * max(1.0, run.t)
        ]
        if final:
            cs = np.stack([run.end[0] for run in final]).reshape(len(final), *(self.n,) * 3)
            gauges = np.stack([run.end[1] for run in final]) if self.gauged else None
            _keep(*_converging([(run, j, 1) for j, run in enumerate(final)],
                               [run.t for run in final], cs, self.kernel, 0.0), gauges)
        for run in runs:
            traj = run.traj
            traj.samples, scal = _run_samples(run.blocks, self.core, self.dec, self.label,
                                              self.variant == Variant.SCAL)
            traj.steps, traj.rejected = run.steps, run.rejected
            if self.core == Variant.SCALSTAR:  # each accepted step was projected onto scal* = -1
                traj.renormalizations = run.steps - run.rejected
            if self.gauged:
                mats = np.concatenate([block[-1] for block in run.blocks])
                if scal is not None:  # h(t).mu(0) = mu(t) for the rescaled samples
                    mats[:, 0] *= np.sqrt(np.abs(scal) / abs(scal[0]))[:, None, None]
                mats = mats.swapaxes(0, 1).copy()
                times = traj.times
                for part in (mats, times):  # recover_gauge hands these out
                    part.flags.writeable = False
                traj.gauges, traj.gauge_times = dict(zip(GAUGE_COEFFICIENTS, mats)), times


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

    integrate_stack carries h(t), h(0) = Id, along each run, so this only applies h0 on the
    right.  coefficient="variant" uses the A driving the
    trajectory's own field, so h(t).mu(0) = mu(t); "ricci" uses Ric + ||Ric*||^2 Id, the
    ungauged normalized coefficient whose solution converges in GL exactly in the Einstein
    case (on a scal run, the gauge of the scalstar run the samples were rescaled from).  No
    gauges (a raw run, or FlowSpec.gauges False) or an h0 that is not a finite (n, n) matrix
    raise GaugeMismatch; sigma_min(h0) <= n eps sigma_max(h0) raises SingularGauge.  The path's
    times, and without h0 its mats, are the trajectory's own read-only arrays, not copies.
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
    if h0 is not None:
        ensure_regular(h, "h0")
    mats = traj.gauges[coefficient]
    return GaugePath(times=traj.gauge_times, mats=mats if h0 is None else mats @ h,
                     coefficient=coefficient)


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
