"""Per-call cost of single layers, replayed on states a workload visited.

Each metric times one module-level public function of bracketflow on the
bracket states the traced pass produced or consumed, outside any op span.
A function that a later version renames or removes makes its metric absent
instead of stopping the run.
"""

import time

import numpy as np

from workloads import lib, try_lib

PHI_SEED = 7
STEP_BUDGET = 20  # integrator steps per flows.step_us replay
ITER_BUDGET = 20  # energy-flow iterations per strata.iter_us replay


def _per_call(fn, min_seconds=2e-3, repeats=3):
    """Median over `repeats` of the mean time of enough calls to fill min_seconds."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    loops = max(1, int(min_seconds / max(once, 1e-7)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return sorted(samples)[len(samples) // 2]


def _step_s(integrate, spec_for, mu):
    start = time.perf_counter()
    traj = integrate(mu, spec_for())
    return (time.perf_counter() - start) / max(traj.steps, 1)


def _iter_s(flow, mu):
    history = []
    start = time.perf_counter()
    try:
        flow(mu, crit_tol=0.0, max_steps=ITER_BUDGET, history=history)
    except lib("errors.BracketFlowError"):
        pass
    accepted = len(history) - 1
    return None if accepted <= 0 else (time.perf_counter() - start) / accepted


def _probes():
    """name -> (unit, required names, function(state as BracketTensor) -> seconds or None)."""
    bracket = try_lib("brackets.BracketTensor")

    def init(mu):
        return _per_call(lambda: bracket(mu.coeffs))

    def simple(path):
        fn = try_lib(path)
        return lambda mu: _per_call(lambda: fn(mu))

    def field(mu):
        flow_field = lib("flows.flow_field")
        raw = lib("flows.Variant").RAW
        return _per_call(lambda: flow_field(mu.coeffs, raw, None))

    def phi_x(mu):
        phi = lib("spectral.phi")
        x = np.random.default_rng(PHI_SEED).standard_normal(mu.dim)
        x /= np.linalg.norm(x)
        return _per_call(lambda: phi(mu, x))

    def step(mu):
        spec = lambda: lib("flows.FlowSpec")(  # noqa: E731
            variant=lib("flows.Variant").RAW, t_end=1e6, record_every=1e6,
            max_steps=STEP_BUDGET, conv_tol=0.0)
        return _step_s(lib("flows.integrate"), spec, mu)

    def iteration(mu):
        return _iter_s(lib("strata.energy_gradient_flow"), mu)

    return {
        "brackets.init_us": ("us", ("brackets.BracketTensor",), init),
        "brackets.jacobi_us": ("us", ("brackets.jacobi_residual",), simple("brackets.jacobi_residual")),
        "curvature.parts_us": ("us", ("curvature.curvature_parts",), simple("curvature.curvature_parts")),
        "curvature.pack_us": ("us", ("curvature.curvature_pack",), simple("curvature.curvature_pack")),
        "flows.field_us": ("us", ("flows.flow_field", "flows.Variant"), field),
        "flows.step_us": ("us", ("flows.integrate", "flows.FlowSpec", "flows.Variant"), step),
        "strata.iter_us": ("us", ("strata.energy_gradient_flow",), iteration),
        "spectral.phi_us": ("us", ("spectral.phi",), phi_x),
        "solitons.fingerprint_s": ("s", ("solitons.fingerprint",), simple("solitons.fingerprint")),
    }


def measure(states, per_dim=4):
    """Per-call cost: workload-level median and per-dimension medians.

    At most `per_dim` states of each dimension are replayed, spread evenly over
    the visited list.  Returns (values, by_dim, absent): values maps a metric
    to (value, unit), by_dim maps "<metric>.n<dim>" to a value in that unit.
    """
    bracket = lib("brackets.BracketTensor")
    by_dim_states = {}
    for c in states:
        by_dim_states.setdefault(c.shape[0], []).append(c)
    chosen = []
    for dim in sorted(by_dim_states):
        group = by_dim_states[dim]
        idx = np.unique(np.linspace(0, len(group) - 1, min(per_dim, len(group))).astype(int))
        chosen += [bracket(group[i]) for i in idx]
    values, by_dim, absent = {}, {}, []
    for name, (unit, needs, probe) in _probes().items():
        scale = 1e6 if unit == "us" else 1.0
        if any(try_lib(path) is None for path in needs):
            absent.append(name)
            continue
        per_state = []
        for mu in chosen:
            try:
                value = probe(mu)
            except lib("errors.BracketFlowError"):
                value = None
            if value is not None:
                per_state.append((mu.dim, value))
        if not per_state:
            absent.append(name)
            continue
        values[name] = (scale * float(np.median([v for _, v in per_state])), unit)
        for dim in sorted({d for d, _ in per_state}):
            by_dim[f"{name}.n{dim}"] = scale * float(np.median([v for d, v in per_state if d == dim]))
    return values, by_dim, absent
