"""Self-test of the harness's own arithmetic on synthetic ops.

Checks the tail-percentile choice, fail_ratio, the speed scale and span self
time against values worked out by hand.  run.py calls run() before every
measurement; `python3 bench/selftest.py` runs it alone (it needs bracketflow
importable only for the error class the harness catches).
"""

import math
import sys


def run():
    """Return a list of problems; empty when every case holds."""
    import harness
    from harness import Span

    problems = []

    def expect(label, got, want):
        same = (got is None and want is None) or (
            got is not None and want is not None and math.isclose(got, want, abs_tol=1e-12)
        )
        if not same:
            problems.append(f"{label}: got {got}, want {want}")

    # Percentile with at least 10 of N samples beyond it; None below the median.
    expect("tail_percentile(1000)", harness.tail_percentile(1000), 99)
    expect("tail_percentile(100)", harness.tail_percentile(100), 90)
    expect("tail_percentile(64)", harness.tail_percentile(64), 84)
    expect("tail_percentile(20)", harness.tail_percentile(20), None)
    expect("tail_percentile(11)", harness.tail_percentile(11), None)
    lat = [float(i) for i in range(1, 101)]  # 1..100 ms
    p = harness.tail_percentile(len(lat))
    beyond = sum(x > harness.quantile(lat, p / 100.0) for x in lat)
    expect("samples beyond p90 of 1..100", beyond, 10)
    expect("quantile(1..100, 0.9)", harness.quantile(lat, 0.9), 90.1)
    expect("median(3, 1, 2)", harness.median([3.0, 1.0, 2.0]), 2.0)

    # fail_ratio: failed over attempted; empty or inconsistent input raises.
    expect("fail_ratio(12, 3)", harness.fail_ratio(12, 3), 0.25)
    expect("fail_ratio(7, 0)", harness.fail_ratio(7, 0), 0.0)
    for bad in ((0, 0), (3, 4), (3, -1)):
        try:
            harness.fail_ratio(*bad)
            problems.append(f"fail_ratio{bad} did not raise")
        except ValueError:
            pass

    # Speed scale: the reference time over the mean kernel time, so a
    # machine running the kernel at half speed halves every reported time.
    probe = harness.SpeedProbe()
    probe.samples = [1.0 * harness.REFERENCE_KERNEL_S, 3.0 * harness.REFERENCE_KERNEL_S]
    expect("speed scale at half speed", probe.scale(), 0.5)
    # Near an op, only the samples within PROBE_WINDOW_S of it count.
    probe.samples = [1.0 * harness.REFERENCE_KERNEL_S, 2.0 * harness.REFERENCE_KERNEL_S,
                     4.0 * harness.REFERENCE_KERNEL_S]
    probe.stamps = [0.0, 5.0, 10.0]
    expect("speed scale near one sample", probe.scale_near(4.5, 4.6), 0.5)
    expect("speed scale near two samples",
           probe.scale_near(5.0 + harness.PROBE_WINDOW_S / 2, 10.0 - harness.PROBE_WINDOW_S / 2),
           1 / 3)
    expect("speed scale with no sample near", probe.scale_near(100.0, 101.0), 3 / 7)

    # Self time: parent [0, 10] with children [1, 3], [2, 5] (overlapping),
    # [7, 8] and [9, 12] (clipped to 10): covered 4 + 1 + 1 = 6, self 4.
    parent = Span(0, "op:x", 0.0, 10.0, -1, 0)
    kids = [Span(1, "a", 1.0, 3.0, 0, 0), Span(2, "b", 2.0, 5.0, 0, 0),
            Span(3, "c", 7.0, 8.0, 0, 0), Span(4, "d", 9.0, 12.0, 0, 0)]
    expect("self_time", harness.self_time(parent, kids), 4.0)
    expect("self_time without children", harness.self_time(parent, []), 10.0)
    totals = harness.span_totals([parent] + kids[:3])
    expect("span_totals op self", totals["op:x"]["self_s"], 5.0)
    expect("span_totals b total", totals["b"]["total_s"], 3.0)

    # Op accounting on synthetic ops: a program error and a failed termination
    # count as failed; a clean result does not.
    from bracketflow.errors import BracketFlowError

    class Traj:
        class termination:  # noqa: N801
            value = "StepFailure"

    tracer = harness.Tracer(True)

    def boom():
        raise BracketFlowError("synthetic")

    outcomes = [harness.run_op(tracer, 0, "ok", lambda: 1),
                harness.run_op(tracer, 1, "raises", boom),
                harness.run_op(tracer, 2, "stepfail", Traj)]
    expect("failed ops", sum(o.failed for o in outcomes), 2)
    expect("fail_ratio of synthetic ops",
           harness.fail_ratio(len(outcomes), sum(o.failed for o in outcomes)), 2 / 3)
    expect("spans recorded", len(tracer.spans), 3)
    expect("span op ids", [s.op for s in tracer.spans] == [0, 1, 2], True)
    return problems


if __name__ == "__main__":
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    found = run()
    for line in found:
        print("FAIL", line)
    print("selftest:", "ok" if not found else f"{len(found)} problem(s)")
    sys.exit(1 if found else 0)
