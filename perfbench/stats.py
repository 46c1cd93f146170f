"""Pure arithmetic shared by the workloads: percentiles, shares, ladders.

Kept free of any import of the program under test so the benchmark's own
tests can pin it without building a service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: an admitted request counts as on time only within this many ms
ADMIT_LIMIT_MS = 50.0
#: the open-loop generator fell behind if its p99 send lateness exceeds this
LATE_LIMIT_MS = 20.0
#: the client gives up on a request after this long; a failed request
#: enters the latency percentiles at this value (it missed every limit)
UNANSWERED_MS = 1000.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Outcome:
    """One open-loop request: when it was due, what came back.

    ``latency_ms`` is measured from the scheduled send, so a stall in the
    server is charged to every request that waited behind it; it is None
    when no response arrived (timeout or transport error).
    ``lateness_ms`` is how late the generator itself sent the request.
    """

    due: float
    lateness_ms: float
    status: Optional[int] = None
    latency_ms: Optional[float] = None
    admitted: Optional[bool] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """A 200 with a parsed admit/reject verdict."""
        return self.status == 200 and self.admitted is not None

    @property
    def failed(self) -> bool:
        """Error, timeout, unparsable body or any non-200 status."""
        return not self.ok

    def on_time(self, limit_ms: float = ADMIT_LIMIT_MS) -> bool:
        """A failed or refused request misses every latency limit."""
        return (
            self.ok
            and self.latency_ms is not None
            and self.latency_ms <= limit_ms
        )


@dataclass
class IntervalReport:
    """Open-loop figures for one fixed-rate interval of the load."""

    rate: float
    sent: int
    admitted: int
    rejected: int
    failed: int
    ok_share: float
    latency_ms_p50: float
    latency_ms_p99: float
    lateness_ms_p50: float
    lateness_ms_p99: float
    backlog_growing: bool

    @property
    def accounted(self) -> bool:
        """admitted + rejected + failed = sent."""
        return self.admitted + self.rejected + self.failed == self.sent

    def meets(self, limit_ms: float = ADMIT_LIMIT_MS) -> bool:
        """p99 within the limit, nothing failed, no growing backlog, and
        the generator kept its schedule (else the rate was not offered)."""
        return (
            self.sent > 0
            and self.failed == 0
            and self.latency_ms_p99 <= limit_ms
            and not self.backlog_growing
            and self.lateness_ms_p99 <= LATE_LIMIT_MS
        )


def backlog_growing(outcomes: Sequence[Outcome]) -> bool:
    """Did latency climb through the interval (a queue that never drains)?

    Compares the median latency of the last third of the requests with
    the first third; unanswered requests count at the client timeout.
    """
    if len(outcomes) < 9:
        return False
    third = len(outcomes) // 3

    def lat(o: Outcome) -> float:
        return o.latency_ms if o.latency_ms is not None else UNANSWERED_MS

    first = median([lat(o) for o in outcomes[:third]])
    last = median([lat(o) for o in outcomes[-third:]])
    return last > 2.0 * first + 5.0


def summarize_interval(
    rate: float, outcomes: Sequence[Outcome], limit_ms: float = ADMIT_LIMIT_MS
) -> IntervalReport:
    """Failure accounting and latency figures for one interval."""
    ordered = sorted(outcomes, key=lambda o: o.due)
    sent = len(ordered)
    admitted = sum(1 for o in ordered if o.ok and o.admitted)
    rejected = sum(1 for o in ordered if o.ok and not o.admitted)
    failed = sum(1 for o in ordered if o.failed)
    # failed requests sit at the client timeout so they land in the
    # tail, never silently dropped from the percentile
    latencies = [
        o.latency_ms if o.ok and o.latency_ms is not None else UNANSWERED_MS
        for o in ordered
    ]
    lateness = [o.lateness_ms for o in ordered]
    return IntervalReport(
        rate=rate,
        sent=sent,
        admitted=admitted,
        rejected=rejected,
        failed=failed,
        ok_share=(
            sum(1 for o in ordered if o.on_time(limit_ms)) / sent
            if sent
            else 0.0
        ),
        latency_ms_p50=percentile(latencies, 50.0) if sent else UNANSWERED_MS,
        latency_ms_p99=percentile(latencies, 99.0) if sent else UNANSWERED_MS,
        lateness_ms_p50=percentile(lateness, 50.0) if sent else 0.0,
        lateness_ms_p99=percentile(lateness, 99.0) if sent else 0.0,
        backlog_growing=backlog_growing(ordered),
    )


def latencies_at_nominal_speed(
    outcomes: Sequence[Outcome], slowdown: float
) -> List[float]:
    """Latencies of ``outcomes`` at nominal host speed (``perfbench.speed``).

    Only the part of a request after the generator sent it ran on the
    server's core, where the speed probe measured ``slowdown``: that part
    is divided by it.  The generator's send lateness is its own timer's
    granularity, not work that slows with the host, and is kept as
    measured.  A failed request stays at the client timeout.
    """
    return [
        o.lateness_ms + (o.latency_ms - o.lateness_ms) / slowdown
        if o.ok and o.latency_ms is not None
        else UNANSWERED_MS
        for o in sorted(outcomes, key=lambda o: o.due)
    ]


def max_sustained_rate(
    reports: Sequence[IntervalReport], limit_ms: float = ADMIT_LIMIT_MS
) -> float:
    """Highest ladder rate that, with every lower rate, met the limit.

    Rates are taken in ascending order; the first rate that misses the
    limit ends the climb, so a lucky pass above a failure never counts.
    Returns 0.0 when even the lowest rate misses.
    """
    best = 0.0
    for report in sorted(reports, key=lambda r: r.rate):
        if not report.meets(limit_ms):
            break
        best = report.rate
    return best


def covered_share(start: float, end: float, until: Optional[float]) -> float:
    """Share of [start, end] that lies before ``until`` (None = forever)."""
    if end <= start:
        raise ValueError("empty interval")
    if until is None or until >= end:
        return 1.0
    return max(0.0, until - start) / (end - start)


def interpolate(
    marks: Sequence[Sequence[float]], at: float, column: int
) -> float:
    """Linearly interpolate ``column`` of time-ordered marks at time ``at``.

    ``marks`` rows start with a timestamp; outside the marked span the
    nearest end row is used.
    """
    if not marks:
        raise ValueError("no marks")
    if at <= marks[0][0]:
        return float(marks[0][column])
    for prev, nxt in zip(marks, marks[1:]):
        if prev[0] <= at <= nxt[0]:
            span = nxt[0] - prev[0]
            if span <= 0:
                return float(nxt[column])
            frac = (at - prev[0]) / span
            return float(prev[column] + frac * (nxt[column] - prev[column]))
    return float(marks[-1][column])


def accuracy(flags: Sequence[bool]) -> float:
    """Share of True flags (decided windows that matched the oracle)."""
    if not flags:
        raise ValueError("no decided windows to score")
    return sum(1 for f in flags if f) / len(flags)


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    """The ``metrics`` object of the result line: value plus unit."""
    return {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }


def tail_note(what: str, values: Sequence[float]) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    Printed with every untraced run but not an end-to-end metric: the
    tails did not repeat within a bound on a shared host (DESIGN.md).
    """
    n = len(values)
    q = next((q for q in (99.0, 95.0, 90.0) if n * (100.0 - q) >= 1000.0),
             50.0)
    return (f"{what} p{q:g} {percentile(values, q):.3f} ms over {n} "
            f"samples (reported, not bounded)")


def lines(values: Dict[str, float], units: Dict[str, str]) -> List[str]:
    """Human-readable ``name value unit`` lines, one per metric."""
    return [
        f"{name:<28} {values[name]:>14.6g} {units[name]}"
        for name in values
    ]
