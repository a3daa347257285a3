"""The golden corpus of flow outputs: tests/golden/flows.json.

    python tests/make_golden.py           # run RUNS and write the corpus
    python tests/make_golden.py --check   # run RUNS, print the largest move per quantity,
                                          # write nothing

The corpus is a fixed list of flows (RUNS): s3 and h3 scalstar to t = 100 with both gauges,
s3 scal to t = 10.3 and gauged to t = 20, raw random solvable draws at n = 8, 12 and 16,
integrate_stack of five parabolic gauges of s3_lambda(0.5) on seeds 0-4 (seeds 2 and 3 raise
NotALieBracket) and the four collapse runs of the bench's flow3d workload.  Each trajectory
keeps its termination, step counts and sample count, and on a coarse grid of its samples
plus the final one their time, packed coefficients c[i < j, k], eight monitors and gauges.
A run that raises keeps its error's type and message.

tests/test_golden.py compares a fresh run with the corpus (compare):
- verdicts, terminations, sample counts and error messages must match exactly;
- times, coefficients, monitors, gauges and the collapse reports' numbers may move by at
  most TOLERANCE relative: a value's move is divided by the largest magnitude of its
  quantity in the same sample (coefficients, one gauge) or over the run (a monitor);
- steps, rejected tries and renormalizations are reported, not gated.

Regenerating the corpus is a test-data change, logged in CHANGES.md with the reason; a
change meant only to make the flows faster never regenerates it.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from bracketflow import catalog
from bracketflow.brackets import act
from bracketflow.catalog import random_solvable_bracket
from bracketflow.errors import BracketFlowError
from bracketflow.experiments import random_parabolic_gauge, run_collapse_experiment
from bracketflow.flows import (GAUGE_COEFFICIENTS, FlowSpec, FlowTrajectory, Monitors, Variant,
                               integrate, integrate_stack)
from bracketflow.strata import beta_decomposition, stratum_label

CORPUS = Path(__file__).with_name("golden") / "flows.json"
TOLERANCE = 1e-8
GRID_POINTS = 8  # the stored samples: about this many on a coarse grid, and the final one
REPORTED = ("steps", "rejected", "renormalizations")  # reported, not gated


def _scalstar(name, t_end):
    mu = catalog(name).bracket
    spec = FlowSpec(variant=Variant.SCALSTAR, t_end=t_end, label=stratum_label(mu),
                    record_every=0.25)
    return [integrate(mu, spec)]


def _s3(variant, t_end):
    mu = catalog("s3").bracket
    return [integrate(mu, FlowSpec(variant=variant, t_end=t_end, label=stratum_label(mu)))]


def _raw_draw(n):
    # The flowhd workload's shape: a draw scaled to norm 3, recorded at t_end only.
    mu = random_solvable_bracket(np.random.default_rng(n), n)
    return [integrate(mu.scaled(3.0 / mu.norm), FlowSpec(variant=Variant.RAW, t_end=20.0,
                                                          record_every=20.0))]


def _uniqueness_stack(seed):
    # run_uniqueness_experiment's flows: five parabolic gauges of s3_lambda(0.5) as one stack.
    entry = catalog("s3_lambda", lam=0.5)
    label = stratum_label(entry.bracket)
    rng = np.random.default_rng(seed)
    mu0s = [act(random_parabolic_gauge(rng, beta_decomposition(label)), entry.bracket)
            for _ in range(5)]
    spec = FlowSpec(variant=Variant.SCALSTAR, t_end=100.0, label=label, record_every=0.5,
                    gauges=False)
    return integrate_stack(mu0s, spec)


def _collapse(name, gauge):
    # run_collapse_experiment's report and the raw flow behind it.
    entry = catalog(name)
    mu0 = entry.bracket if gauge is None else act(gauge, entry.bracket)
    spec = FlowSpec(variant=Variant.RAW, t_end=200.0, record_every=1.0, conv_tol=0.0)
    return [integrate(mu0, spec), run_collapse_experiment(entry, gauge=gauge)]


RUNS = {
    "scalstar:s3": lambda: _scalstar("s3", 100.0),
    "scalstar:h3": lambda: _scalstar("h3", 100.0),
    "scal:s3": lambda: _s3(Variant.SCAL, 10.3),
    "gauged:s3": lambda: _s3(Variant.GAUGED, 20.0),
    **{f"raw:n{n}": (lambda n=n: _raw_draw(n)) for n in (8, 12, 16)},
    **{f"uniqueness:s3_lambda(0.5)#{seed}": (lambda seed=seed: _uniqueness_stack(seed))
       for seed in range(5)},
    "collapse:h3": lambda: _collapse("h3", None),
    "collapse:s3": lambda: _collapse("s3", None),
    "collapse:e2": lambda: _collapse("e2", None),
    "collapse:e2+diag(1,1,1.5)": lambda: _collapse("e2", np.diag([1.0, 1.0, 1.5])),
}


def _floats(values):
    """JSON floats, NaN as null."""
    return [None if math.isnan(v) else v for v in np.asarray(values, float).ravel().tolist()]


def _trajectory(traj):
    """The corpus entry of one FlowTrajectory."""
    count = len(traj.samples)
    stride = max(1, math.ceil(count / GRID_POINTS))
    stored = sorted(set(range(0, count, stride)) | {count - 1})
    n = traj.samples[0].bracket.dim
    i, j = np.triu_indices(n, 1)
    entry = {"termination": traj.termination.value, "count": count, "steps": traj.steps,
             "rejected": traj.rejected, "renormalizations": traj.renormalizations,
             "stored": stored, "t": [traj.samples[k].t for k in stored],
             "coeffs": [_floats(traj.samples[k].bracket.coeffs[i, j]) for k in stored],
             "monitors": {name: _floats([traj.samples[k].monitors[m] for k in stored])
                          for m, name in enumerate(Monitors._fields)}}
    if traj.gauges:
        entry["gauge_times"] = _floats(traj.gauge_times[stored])
        entry["gauges"] = {name: [_floats(traj.gauges[name][k]) for k in stored]
                           for name in GAUGE_COEFFICIENTS}
    return entry


def run(name):
    """(the corpus entry of RUNS[name], the trajectories it ran)."""
    try:
        results = RUNS[name]()
    except (BracketFlowError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, []
    trajs = [r for r in results if isinstance(r, FlowTrajectory)]
    entry = {"trajectories": [_trajectory(traj) for traj in trajs]}
    for report in results[len(trajs):]:  # a collapse run's report
        entry["report"] = report.to_dict()
    return entry, trajs


def _move(got, want):
    """The largest |got - want| relative to the largest |want|, over the paired values; inf
    where only one side is NaN (null) or the lengths differ."""
    got, want = (np.array([math.nan if v is None else v for v in x], float)
                 for x in (got, want))
    if got.shape != want.shape or (np.isnan(got) != np.isnan(want)).any():
        return math.inf
    both = ~np.isnan(want)
    if not both.any():
        return 0.0
    scale = max(np.abs(want[both]).max(), 1e-300)
    return float(np.abs(got[both] - want[both]).max() / scale)


def compare(got, want):
    """(moves, mismatches): the largest relative move per quantity (those in REPORTED as
    differences), and the exact fields that differ, of two corpora {name: entry}."""
    moves, mismatches = {}, []

    def note(quantity, value):
        moves[quantity] = max(moves.get(quantity, 0.0), value)

    for name in want:
        w, g = want[name], got.get(name, {})
        if g.get("error") != w.get("error"):
            mismatches.append(f"{name}: error {g.get('error')!r} != {w.get('error')!r}")
        if "report" in w:
            for key, value in w["report"].items():
                other = g.get("report", {}).get(key)
                if isinstance(value, (bool, str)):
                    if other != value:
                        mismatches.append(f"{name}: report {key} {other!r} != {value!r}")
                else:
                    note("report", _move(np.ravel(other).tolist(), np.ravel(value).tolist()))
        wt, gt = w.get("trajectories", []), g.get("trajectories", [])
        if len(wt) != len(gt):
            mismatches.append(f"{name}: {len(gt)} trajectories != {len(wt)}")
            continue
        for b, (gb, wb) in enumerate(zip(gt, wt)):
            where = f"{name}[{b}]"
            for key in ("termination", "count"):
                if gb[key] != wb[key]:
                    mismatches.append(f"{where}: {key} {gb[key]!r} != {wb[key]!r}")
            for key in REPORTED:
                note(key, abs(gb[key] - wb[key]))
            if gb["count"] != wb["count"]:
                continue
            note("t", _move(gb["t"], wb["t"]))
            for gc, wc in zip(gb["coeffs"], wb["coeffs"]):
                note("coeffs", _move(gc, wc))
            for monitor, values in wb["monitors"].items():
                note(f"monitors.{monitor}", _move(gb["monitors"][monitor], values))
            if ("gauges" in wb) != ("gauges" in gb):
                mismatches.append(f"{where}: gauges carried {'gauges' in gb} != {'gauges' in wb}")
            elif "gauges" in wb:
                note("gauge_times", _move(gb["gauge_times"], wb["gauge_times"]))
                for coefficient, mats in wb["gauges"].items():
                    for gm, wm in zip(gb["gauges"][coefficient], mats):
                        note(f"gauges.{coefficient}", _move(gm, wm))
    return moves, mismatches


def load():
    return json.loads(CORPUS.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh run with the corpus and write nothing")
    args = parser.parse_args(argv)
    got = {name: run(name)[0] for name in RUNS}
    if not args.check:
        CORPUS.parent.mkdir(exist_ok=True)
        lines = [f"{json.dumps(name)}:{json.dumps(entry, separators=(',', ':'))}"
                 for name, entry in got.items()]
        CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one run a line
        print(f"wrote {CORPUS} ({CORPUS.stat().st_size} bytes, {len(got)} runs)")
        return 0
    moves, mismatches = compare(got, load())
    for quantity, move in sorted(moves.items()):
        print(f"{quantity:28s} {move!r}")
    for line in mismatches:
        print("MISMATCH", line)
    gated = [q for q, move in moves.items() if q not in REPORTED and not move <= TOLERANCE]
    return 1 if mismatches or gated else 0


if __name__ == "__main__":
    sys.exit(main())
