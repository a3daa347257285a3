"""Experiment drivers: limit uniqueness across gauges, and collapse detection."""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .brackets import act, report_to_dict
from .errors import NonConvergence, NotSolvable, OutOfRange
from .flows import (
    FlowSpec,
    Variant,
    detect_soliton_convergence,
    integrate,
    integrate_stack,
)
from .solitons import fingerprint, fingerprint_distance, soliton_residual
from .spectral import AlgebraType, classify_type
from .strata import beta_decomposition, stratum_label

TYPE3_RATIO_CAP = 50.0
COLLAPSE_FLOOR = 1e-3


def random_parabolic_gauge(rng, dec):
    """Random element of Q_beta: exponential of a random q_beta matrix."""
    n = dec.dim
    a = 0.35 * rng.standard_normal((n, n))
    return sla.expm(a * dec.mask_g + a * dec.mask_u)


@dataclass
class UniquenessReport:
    group: str
    seeds: int
    seed_value: int
    t_end: float
    converged: list
    f_tails: list
    max_fingerprint_distance: float
    ric_eig_spread: list
    soliton_residuals: list
    fingerprints: list = field(repr=False, default_factory=list)

    to_dict = report_to_dict


def run_uniqueness_experiment(entry, seeds, t_end=100.0, seed=0, require_convergence=True):
    """Flow several random parabolic gauges of one group and compare limits.

    Each seed bracket is act(h0, mu) for a random h0 in Q_beta; all limits
    are fingerprinted and the maximal pairwise distance is reported.  Every
    gauge is drawn before any flow, and a singular gauge raises at once.  The
    seeds are then flowed as one stack by integrate_stack, which checks each
    seed in order (a Lie bracket in V>=0) before its first step, and the
    first error it meets is raised.  The report reads no gauge h(t), so the
    flows carry none: their samples, and so the report, are those of flows
    that carry both.
    """
    if seeds < 1:
        raise OutOfRange(f"seeds = {seeds} must be at least 1")
    kind = classify_type(entry.bracket).kind
    if kind not in (AlgebraType.REAL, AlgebraType.NILPOTENT):
        raise NotSolvable(f"uniqueness experiment requires real type, got {kind.value}")
    label = stratum_label(entry.bracket)
    dec = beta_decomposition(label)
    rng = np.random.default_rng(seed)
    mu0s = [act(random_parabolic_gauge(rng, dec), entry.bracket) for _ in range(seeds)]
    spec = FlowSpec(variant=Variant.SCALSTAR, t_end=t_end, label=label, record_every=0.5,
                    gauges=False)
    trajs = integrate_stack(mu0s, spec)
    results = [(traj, detect_soliton_convergence(traj)) for traj in trajs]
    failing = [idx for idx, (_, det) in enumerate(results) if not det.converged]
    if failing and require_convergence:
        raise NonConvergence(
            f"seeds {failing} did not converge by t = {t_end}", failing_seeds=failing
        )
    fps = [fingerprint(det.limit) for _, det in results]
    max_dist = 0.0
    for i in range(len(fps)):
        for j in range(i + 1, len(fps)):
            max_dist = max(max_dist, fingerprint_distance(fps[i], fps[j]))
    spreads = []
    residues = []
    for traj, det in results:
        ric_eigs = np.linalg.eigvalsh(traj.final.pack.Ric)
        spreads.append(float(ric_eigs.max() - ric_eigs.min()))
        residues.append(float(soliton_residual(det.limit).residual))
    return UniquenessReport(
        group=entry.name,
        seeds=seeds,
        seed_value=seed,
        t_end=t_end,
        converged=[det.converged for _, det in results],
        f_tails=[det.f_tail for _, det in results],
        max_fingerprint_distance=max_dist,
        ric_eig_spread=spreads,
        soliton_residuals=residues,
        fingerprints=fps,
    )


@dataclass
class CollapseReport:
    group: str
    t_end: float
    type3_min: float
    type3_max: float
    ric_bound_min: float
    ric_bound_final: float
    termination: str
    non_collapsed: bool

    def to_dict(self):
        return {
            "group": self.group,
            "t_end": self.t_end,
            "type3_window": [self.type3_min, self.type3_max],
            "ric_bound_min": self.ric_bound_min,
            "ric_bound_final": self.ric_bound_final,
            "termination": self.termination,
            "non_collapsed": self.non_collapsed,
        }


def run_collapse_experiment(entry, t_end=200.0, gauge=None):
    """Raw-flow one bracket and report the Type-III and Ricci-decay monitors.

    Verdict "non-collapsed" requires t ||mu||^2 to stay inside a bounded
    window on [1, t_end] and t ||Ric|| to stay above the collapse floor.
    An optional `gauge` moves the seed off any flat fixed point first.
    """
    if t_end < 1.0:
        raise OutOfRange(f"collapse window [1, t_end] = [1, {t_end}] is empty: t_end must be >= 1")
    mu0 = entry.bracket if gauge is None else act(np.asarray(gauge, float), entry.bracket)
    if mu0.is_zero:
        return CollapseReport(
            group=entry.name,
            t_end=t_end,
            type3_min=0.0,
            type3_max=0.0,
            ric_bound_min=0.0,
            ric_bound_final=0.0,
            termination="Stationary",
            non_collapsed=False,
        )
    traj = integrate(
        mu0,
        FlowSpec(
            variant=Variant.RAW,
            t_end=t_end,
            record_every=1.0,
            conv_tol=0.0,
        ),
    )
    window = [s for s in traj.samples if s.t >= 1.0]
    type3 = np.array([s.monitors.type3 for s in window])
    ric_bound = np.array([s.monitors.ric_bound for s in window])
    bounded = type3.max() <= TYPE3_RATIO_CAP * max(type3.min(), 1e-300)
    non_collapsed = bool(
        bounded and type3.min() > COLLAPSE_FLOOR and ric_bound.min() > COLLAPSE_FLOOR
    )
    return CollapseReport(
        group=entry.name,
        t_end=t_end,
        type3_min=float(type3.min()),
        type3_max=float(type3.max()),
        ric_bound_min=float(ric_bound.min()),
        ric_bound_final=float(ric_bound[-1]),
        termination=traj.termination.value,
        non_collapsed=non_collapsed,
    )
