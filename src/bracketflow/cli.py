"""Command-line interface: classify, stratum, flow, soliton-check, linearize,
compare, uniqueness, collapse, catalog.

Exit codes: 0 success, 2 validation error, 3 non-convergence.
"""

import argparse
import json
import sys

import numpy as np

from .catalog import CatalogEntry, catalog as catalog_entry
from .brackets import bracket_to_dict, load_bracket
from .curvature import curvature_pack
from .errors import BracketFlowError, NonConvergence
from .experiments import run_collapse_experiment, run_uniqueness_experiment
from .flows import FlowSpec, Termination, Variant, integrate
from .linearize import l_operator
from .solitons import (
    fingerprint,
    fingerprint_distance,
    normalize_soliton,
    same_orbit_on,
    soliton_label,
    soliton_residual,
    SolitonKind,
)
from .spectral import _is_flat, classify_type
from .strata import beta_decomposition, check_gauged, stratum_label

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


def _fmt(x):
    return format(float(x), ".17g")


def _emit(data, path=None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_entry(args):
    if getattr(args, "input", None):
        mu = load_bracket(args.input)
        return CatalogEntry(name=args.input, dim=mu.dim, bracket=mu)
    if getattr(args, "catalog", None):
        return catalog_entry(args.catalog, lam=args.lam, dim=args.dim)
    raise BracketFlowError("provide --input FILE or --catalog NAME")


def _add_source_args(p):
    p.add_argument("--input", help="bracket JSON file")
    p.add_argument("--catalog", help="catalog entry name")
    p.add_argument("--lam", type=float, default=None, help="family parameter")
    p.add_argument("--dim", type=int, default=None, help="dimension for families")
    p.add_argument("--out", default=None, help="write the report to this file")


def cmd_catalog(args):
    entry = catalog_entry(args.name, lam=args.lam, dim=args.dim)
    _emit(entry.to_dict(), args.out)
    return EXIT_OK


def cmd_classify(args):
    entry = _load_entry(args)
    # classify_type has raised on a bracket that is not a solvable Lie bracket,
    # so flatness is read off the pack's Ric without another derived series.
    report = classify_type(entry.bracket)
    pack = curvature_pack(entry.bracket)
    _emit(
        {
            "name": entry.name,
            "type": report.to_dict(),
            "flat": bool(_is_flat(pack.Ric, pack.normSq)),
            "curvature": pack.to_dict(),
        },
        args.out,
    )
    return EXIT_OK


def cmd_stratum(args):
    entry = _load_entry(args)
    label = stratum_label(entry.bracket)
    data = label.to_dict()
    data["name"] = entry.name
    data["gauge"] = check_gauged(entry.bracket, label).to_dict()
    _emit(data, args.out)
    return EXIT_OK


def cmd_flow(args):
    entry = _load_entry(args)
    label = None
    if args.variant in ("gauged", "scalstar", "scal") or args.with_label:
        label = stratum_label(entry.bracket)
    spec = FlowSpec(
        variant=Variant(args.variant),
        t_end=args.t_end,
        label=label,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        record_every=args.record_every,
        gauges=False,  # the CSV and snapshots read no gauge
    )
    traj = integrate(entry.bracket, spec)
    header = "t,||mu||,scal,scalstar,f,lyap,cs,typeIII,ricBound,jacobiRes"
    rows = [header]
    for s in traj.samples:
        m, pack = s.monitors, s.pack
        rows.append(
            ",".join(
                _fmt(v)
                for v in (
                    s.t,
                    s.bracket.norm,
                    pack.scal,
                    pack.scalStar,
                    m.f,
                    m.lyapunov,
                    m.cs,
                    m.type3,
                    m.ric_bound,
                    m.jacobi,
                )
            )
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.snapshots:
        with open(args.snapshots, "w", encoding="utf-8") as fh:
            for s in traj.samples:
                fh.write(
                    json.dumps({"t": s.t, "bracket": bracket_to_dict(s.bracket)})
                    + "\n"
                )
    print(
        f"# termination={traj.termination.value} steps={traj.steps} "
        f"rejected={traj.rejected} samples={len(traj.samples)}",
        file=sys.stderr,
    )
    if traj.termination in (Termination.DIVERGED, Termination.STEP_FAILURE):
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_soliton_check(args):
    entry = _load_entry(args)
    cert = soliton_residual(entry.bracket)
    _emit({"name": entry.name, "certificate": cert.to_dict()}, args.out)
    return EXIT_OK


def cmd_linearize(args):
    entry = _load_entry(args)
    cert = soliton_residual(entry.bracket)
    if cert.kind == SolitonKind.NOT_SOLITON:
        raise BracketFlowError(
            f"{entry.name} is not a solvsoliton (residual {cert.residual:.3e}); "
            "the linearization report is defined at soliton fixed points"
        )
    mu_norm = normalize_soliton(entry.bracket, cert)
    aligned, label = soliton_label(mu_norm)
    report = l_operator(aligned, beta_decomposition(label))
    data = report.to_dict()
    data["name"] = entry.name
    data["beta_eigenvalues"] = label.eigenvalues.tolist()
    _emit(data, args.out)
    return EXIT_OK


def cmd_compare(args):
    mu_a = load_bracket(args.bracket_a)
    mu_b = load_bracket(args.bracket_b)
    fa, fb = fingerprint(mu_a), fingerprint(mu_b)
    dist = fingerprint_distance(fa, fb)
    _emit(
        {
            "fingerprint_a": fa.to_dict(),
            "fingerprint_b": fb.to_dict(),
            "distance": dist if np.isfinite(dist) else "inf",
            "consistent_with_same_orbit": bool(same_orbit_on(fa, fb)),
        },
        args.out,
    )
    return EXIT_OK


def cmd_uniqueness(args):
    entry = _load_entry(args)
    report = run_uniqueness_experiment(entry, seeds=args.seeds, t_end=args.t_end, seed=args.seed)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_collapse(args):
    entry = _load_entry(args)
    gauge = None
    if args.gauge_diag:
        gauge = np.diag([float(x) for x in args.gauge_diag.split(",")])
    report = run_collapse_experiment(entry, t_end=args.t_end, gauge=gauge)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bracketflow",
        description="Curvature flows of solvable Lie brackets: classification, "
        "stratification, flows, solitons, and linearization.",
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit a named bracket")
    p.add_argument("name")
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("classify", help="type report and curvature pack")
    _add_source_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stratum", help="stratum label via the energy flow")
    _add_source_args(p)
    p.set_defaults(func=cmd_stratum)

    p = sub.add_parser("flow", help="integrate a bracket flow to CSV")
    _add_source_args(p)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="raw")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--record-every", type=float, default=0.5)
    p.add_argument("--snapshots", default=None, help="JSON-lines bracket sidecar")
    p.add_argument("--with-label", action="store_true", help="attach a label to raw runs")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("soliton-check", help="solvsoliton certificate")
    _add_source_args(p)
    p.set_defaults(func=cmd_soliton_check)

    p = sub.add_parser("linearize", help="linearization spectrum at a soliton")
    _add_source_args(p)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("compare", help="compare two bracket files up to O(n)")
    p.add_argument("bracket_a")
    p.add_argument("bracket_b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("uniqueness", help="limit uniqueness across random gauges")
    _add_source_args(p)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--t-end", type=float, default=100.0)
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("collapse", help="Type-III / collapse monitors on a raw flow")
    _add_source_args(p)
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument("--gauge-diag", default=None, help="comma-separated diagonal gauge")
    p.set_defaults(func=cmd_collapse)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (BracketFlowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
