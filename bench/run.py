"""bracketflow benchmark: one workload per run, every output checked.

Usage (from the repository root):

    python3 bench/run.py --workload flow3d|flowhd|algebra --seed N --seconds S --trace 0|1
    python3 bench/selftest.py          # the harness's own arithmetic

Set-up (import, input generation from the seed, warm-up) is timed first;
each part is repeated and the medians are reported.  The
workload's fixed op list then runs in passes for about `--seconds`, and the
outputs of every pass are checked.  With --trace 0 the end-to-end metrics
are printed; with --trace 1 untraced and traced passes alternate, and the
per-layer metrics, span totals and tracing overhead are printed.  The pass
times are converted to a reference machine speed (harness.SpeedProbe).  The last
line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}; the full record, spans included, goes to .bench_out/.
Any incorrect output exits with 1.  bench/meta.json documents every metric.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy can load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Untraced passes per run at the least.  The machines this runs on are shared,
# and contention slows every op for seconds at a time, so each op's latency is
# its median over the run's passes.
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2  # (untraced, traced) pass pairs per --trace 1 run
EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2


def import_program():
    """Import bracketflow from this checkout's src/ only; None if it is not there."""
    src = ROOT / "src"
    if not (src / "bracketflow" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import bracketflow

    if Path(bracketflow.__file__).resolve().parent.parent != src.resolve():
        return None
    return bracketflow


def import_seconds(own_import_s):
    """This process's import of bracketflow and SETUP_REPEATS - 1 more, each in a
    fresh interpreter (the import can run only once per process)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import bracketflow; print(time.perf_counter() - t)")
    runs = [own_import_s]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        runs.append(float(out.stdout))
    return runs


def environment(args, max_steps):
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "stratum_max_steps": max_steps,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(ops, inputs, tracer, harness, probe):
    # Fresh input objects each pass, so that nothing a pass caches on them
    # (BracketTensor keeps its Jacobi residual) speeds up the next one.
    ctx = copy.deepcopy(inputs)
    outcomes = []
    for op_id, op in enumerate(ops):
        probe.catch_up()
        outcomes.append(harness.run_op(tracer, op_id, op.name, lambda op=op: op.body(tracer, ctx)))
    probe.catch_up()
    return outcomes, ctx


def check_pass(ops, outcomes, ctx):
    """Mark known defects as failed ops, then check every other result."""
    problems = []
    for op, o in zip(ops, outcomes):
        if o.failed:
            continue
        reason = op.defect(o.result, ctx) if op.defect else ""
        if reason:
            o.failed, o.reason = True, "KnownDefect: " + reason
        else:
            problems += [f"{op.name}: {p}" for p in op.check(o.result, ctx)]
    return problems


def per_op_median(passes, harness):
    """Per op, its median latency over the passes (each pass lists ops in order)."""
    return [harness.median(column) for column in zip(*passes)]


def set_up(args, workloads, harness, import_s):
    """Import, generate inputs and warm up SETUP_REPEATS times each; check that
    the inputs repeat.  setup_s is the sum of the two medians."""
    generate, warm_up, _ = workloads.WORKLOADS[args.workload]
    runs, catalog_s, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sw = workloads.Stopwatch()
        inputs = generate(args.seed, sw)
        warm_up(inputs)
        runs.append(time.perf_counter() - start)
        catalog_s.append(sw.seconds)
        digests.add(workloads.input_fingerprint(inputs))
    problems = [] if len(digests) == 1 else ["input generation is not deterministic for one seed"]
    imports = import_seconds(import_s)
    info = {"import_runs_s": imports, "setup_runs_s": runs,
            "setup_s": harness.median(imports) + harness.median(runs),
            "catalog_generate_s": harness.median(catalog_s)}
    return inputs, info, problems


def measure(args, ops, inputs, harness):
    """Run passes until the next one would end after --seconds (and at least the
    minimum number).  Every pass must fail on the same ops.  Returns the
    per-pass latencies (measured, and at the reference speed), the op counts of
    the minimum number of untraced passes, the last traced pass and the speed
    scale over the passes."""
    untraced = harness.Tracer(False)
    probe = harness.SpeedProbe()
    latencies, traced_latencies, walls, rounds, untraced_outcomes = [], [], [], [], []
    attempted = failed = 0
    fail_reasons, problems = {}, []
    first_failed = last_traced = None
    floor = MIN_TRACED_ROUNDS if args.trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        order = [untraced] + ([harness.Tracer(True)] if args.trace else [])
        if len(rounds) % 2:
            order.reverse()  # alternate which side of a traced round goes first
        for tracer in order:
            pass_start = time.perf_counter()
            outcomes, ctx = run_pass(ops, inputs, tracer, harness, probe)
            wall = time.perf_counter() - pass_start
            problems += check_pass(ops, outcomes, ctx)
            failed_ops = [o.name for o in outcomes if o.failed]
            if first_failed is None:
                first_failed = failed_ops
            elif failed_ops != first_failed:
                problems.append(f"failed ops differ between passes over the same inputs: "
                                f"{first_failed} then {failed_ops}")
            for o in outcomes:
                if o.failed:
                    fail_reasons.setdefault(o.name, o.reason)
            # attempted and failed cover only the passes every run makes, so
            # that they depend on the seed and not on how fast the passes ran.
            if tracer is untraced and len(latencies) < floor:
                attempted += len(outcomes)
                failed += len(failed_ops)
            if tracer is untraced:
                walls.append(wall)
                latencies.append([o.seconds for o in outcomes])
                untraced_outcomes.append(outcomes)
            else:
                traced_latencies.append([o.seconds for o in outcomes])
                last_traced = (tracer, outcomes, ctx)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(latencies) >= floor and elapsed + harness.median(rounds) > args.seconds:
            break
    return {
        "latencies": latencies, "traced_latencies": traced_latencies, "walls": walls,
        "attempted": attempted, "failed": failed, "fail_reasons": fail_reasons,
        "problems": problems, "last_traced": last_traced,
        "speed_scale": probe.scale(), "probe_samples": len(probe.samples),
        # Each op at the speed measured around it: the machine's speed changes
        # within a pass, and the kernel samples nearest an op follow it best.
        "ref_latencies": [[o.seconds * probe.scale_near(o.start, o.start + o.seconds)
                           for o in outcomes] for outcomes in untraced_outcomes],
    }


def per_layer(args, workloads, micro, harness, setup, run):
    """Per-layer metrics of a --trace 1 run: spans, counts and per-call replays."""
    tracer, outcomes, ctx = run["last_traced"]
    totals = harness.span_totals(tracer.spans)
    values, by_dim, absent = micro.measure(workloads.visited_states(args.workload, ctx, outcomes))
    counts = workloads.pass_counts(outcomes)
    iters = workloads.replay_energy_iters(args.workload, ctx)
    if iters is None:
        absent.append("strata.energy_iters")
    else:
        counts["strata.energy_iters"] = iters
    untraced_s = sum(per_op_median(run["latencies"], harness))
    overhead = sum(per_op_median(run["traced_latencies"], harness)) - untraced_s
    metrics = {"catalog.generate_s": (setup["catalog_generate_s"], "s")}
    metrics.update(values)
    metrics.update({name: (value, "count") for name, value in counts.items()})
    # Seconds inside each module's spans over one traced pass (0 where the
    # workload makes no such call).
    for metric, span in workloads.SPAN_METRICS.items():
        metrics[metric] = (totals.get(span, {}).get("total_s", 0.0), "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced_s, "%")
    detail = {
        "absent": absent,
        "per_dim": by_dim,
        "span_totals": totals,
        "trace_overhead_s": overhead,
    }
    integrate_s = totals.get("flows.integrate", {}).get("total_s", 0.0)
    if counts["flows.steps"]:
        detail["flows.integrate_s_per_step_us"] = 1e6 * integrate_s / counts["flows.steps"]
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow3d", "flowhd", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    if import_program() is None:
        print(f"bench: no bracketflow sources under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    import micro
    import selftest
    import workloads
    import_s = time.perf_counter() - t0

    env = environment(args, workloads.STRATUM_MAX_STEPS)
    problems = [f"harness self-test: {p}" for p in selftest.run()]
    inputs, setup, setup_problems = set_up(args, workloads, harness, import_s)
    problems += setup_problems
    ops = workloads.WORKLOADS[args.workload][2](inputs)
    run = measure(args, ops, inputs, harness)
    problems += run["problems"]
    for p in problems[:50]:
        print("INCORRECT", p)

    measured = per_op_median(run["latencies"], harness)
    op_s = per_op_median(run["ref_latencies"], harness)
    tail_p = harness.tail_percentile(len(op_s))
    detail = {
        "passes": len(run["latencies"]),
        "speed_scale": run["speed_scale"],
        "speed_probe_samples": run["probe_samples"],
        "wall_measured_s": sum(measured),
        "op_p50_measured_ms": 1e3 * harness.median(measured),
        "ops_per_pass": len(ops),
        "wall_s_per_pass": run["walls"],
        "fail_ratio": harness.fail_ratio(run["attempted"], run["failed"]),
        "failed_ops": run["fail_reasons"],
        "op_tail_percentile": tail_p,
        "op_tail_ms": None if tail_p is None else 1e3 * harness.quantile(op_s, tail_p / 100.0),
        "op_seconds": dict(zip((op.name for op in ops), op_s)),
        "op_measured_seconds": dict(zip((op.name for op in ops), measured)),
        "op_seconds_per_pass": run["latencies"],
        "op_ref_seconds_per_pass": run["ref_latencies"],
        **setup,
    }
    if args.trace:
        metrics, trace_detail = per_layer(args, workloads, micro, harness, setup, run)
        detail.update(trace_detail)
    else:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "wall_s": (sum(op_s), "s"),
            "op_p50_ms": (1e3 * harness.median(op_s), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {detail['fail_ratio']:.6g} "
          f"({run['failed']} of {run['attempted']} ops)")
    if tail_p is None:
        print(f"{args.workload} op_tail_ms = absent ({len(op_s)} ops per pass is too few)")
    else:
        print(f"{args.workload} op_tail_ms = {detail['op_tail_ms']:.6g} ms (p{tail_p} of {len(op_s)} ops)")
    print(f"{args.workload} passes = {detail['passes']}")
    if args.trace:
        for name, value in sorted(detail["per_dim"].items()):
            print(f"{args.workload} {name} = {value:.6g}")
        if detail["absent"]:
            print(f"{args.workload} absent = {', '.join(detail['absent'])}")

    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"environment": env, "result": result, "detail": detail, "problems": problems}
    if args.trace:
        record["spans"] = [vars(s) for s in run["last_traced"][0].spans]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return EXIT_INCORRECT if problems else 0


if __name__ == "__main__":
    sys.exit(main())
