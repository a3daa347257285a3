"""Span tracer, op runner and the statistics the benchmark reports.

An op is one user-visible unit of work in a workload (one flow, one gauge
recovery, one classification, ...).  A pass runs a workload's fixed op list
once.  With tracing on, every call the benchmark makes into a bracketflow
module is wrapped in a span (name, start, end, parent span, op id); spans
stay in memory and are written out when the run ends.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from bracketflow.errors import BracketFlowError

# Termination values that make an op count as failed (flows.Termination).
FAILED_TERMINATIONS = ("StepFailure", "Diverged")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    op: int


@dataclass
class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    enabled: bool = False
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _op: int = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(sid, name, time.perf_counter(), math.nan, parent, self._op)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def op(self, op_id, name, fn):
        self._op = op_id
        try:
            return self.call("op:" + name, fn)
        finally:
            self._op = -1


@dataclass
class OpOutcome:
    op_id: int
    name: str
    seconds: float
    failed: bool
    reason: str = ""
    result: object = None
    start: float = 0.0  # perf_counter() when the op began


class OpFailed(Exception):
    """Raised by an op body that cannot run because its input failed: the
    program's generator raised for it, or the op producing it failed."""


def run_op(tracer, op_id, name, fn):
    """Run one op; a BracketFlowError or a failed termination counts as failed."""
    start = time.perf_counter()
    try:
        result = tracer.op(op_id, name, fn)
    except (BracketFlowError, OpFailed) as exc:
        return OpOutcome(op_id, name, time.perf_counter() - start, True,
                         f"{type(exc).__name__}: {exc}", start=start)
    seconds = time.perf_counter() - start
    term = getattr(getattr(result, "termination", None), "value", None)
    if term in FAILED_TERMINATIONS:
        return OpOutcome(op_id, name, seconds, True, f"termination {term}", result, start)
    return OpOutcome(op_id, name, seconds, False, "", result, start)


# ------------------------------------------------------------- machine speed

# The reference kernel's mean time on the reference machine (see meta.json,
# "speed"); times are reported at this speed.
REFERENCE_KERNEL_S = 0.004
PROBE_INTERVAL_S = 0.1
PROBE_MAX_CATCH_UP = 10
PROBE_WINDOW_S = 1.0  # an op's speed: kernel samples within this of its start or end
_REF_SMALL = np.linspace(-1.0, 1.0, 27).reshape(3, 3, 3)
_REF_LARGE = np.linspace(-1.0, 1.0, 16**3).reshape(16, 16, 16)


def reference_kernel():
    """Fixed numpy work of the program's kind, independent of bracketflow:
    small contractions where interpreter overhead dominates (n = 3) and
    larger ones where arithmetic does (n = 16)."""
    acc = 0.0
    for i in range(400):
        v = np.einsum("ijk,jk->i", _REF_SMALL, _REF_SMALL[i % 3])
        acc += float(v @ v)
    for _ in range(60):
        acc += float(np.einsum("ijk,ljk->il", _REF_LARGE, _REF_LARGE).trace())
    return acc


class SpeedProbe:
    """Times the reference kernel about once every PROBE_INTERVAL_S of a
    phase of the run.  The machines this runs on are shared and change speed by
    up to 2x, from under a second to minutes at a time; a time divided by the
    kernel's mean time around it, times REFERENCE_KERNEL_S, follows the program
    and not the machine's speed."""

    def __init__(self):
        self.samples = []
        self.stamps = []  # perf_counter() at the start of each sample
        self._last = -math.inf

    def sample(self):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.stamps.append(start)
        self._last = end

    def catch_up(self):
        """Take the samples due since the last one (at most PROBE_MAX_CATCH_UP), so
        that a long op between two calls weighs as much as the short ones that
        fill the same time."""
        due = (time.perf_counter() - self._last) / PROBE_INTERVAL_S
        for _ in range(int(min(due, PROBE_MAX_CATCH_UP))):
            self.sample()

    def scale(self):
        """Factor that converts seconds measured in this phase to seconds at
        the reference speed."""
        return REFERENCE_KERNEL_S / (sum(self.samples) / len(self.samples))

    def scale_near(self, start, end):
        """The same factor from the samples taken within PROBE_WINDOW_S of the
        interval [start, end], or from all samples when none was."""
        near = [x for t, x in zip(self.stamps, self.samples)
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return REFERENCE_KERNEL_S / (sum(near) / len(near)) if near else self.scale()


# ---------------------------------------------------------------- statistics


def quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sequence")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def tail_percentile(count, beyond=10):
    """Highest whole percentile with at least `beyond` of `count` samples above it.

    Returns None when that percentile would not lie above the median, i.e. the
    sample is too small to define a tail.
    """
    if count <= 0:
        return None
    p = math.floor(100.0 * (1.0 - beyond / count))
    return p if p > 50 else None


def fail_ratio(attempted, failed):
    if attempted <= 0:
        raise ValueError("fail_ratio needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed ops {failed} outside 0..{attempted}")
    return failed / attempted


def self_time(span, children):
    """Duration of `span` minus the part of it covered by its child spans."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.end - span.start) - covered


def span_totals(spans):
    """Per span name: call count, total seconds and total self seconds."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += self_time(s, children.get(s.sid, []))
    return out
