"""What every workload returns, and the shared set-up timing."""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from . import stats
from .speed import SpeedProbe

#: set-ups timed per run; the median is reported
SETUP_REPEATS = 5
#: sampled before every timed set-up repeat, so set-up is put at nominal
#: host speed by the host's speed while it ran, not during the load
SETUP_PROBE = SpeedProbe()

T = TypeVar("T")


def process_start_s(root: Path) -> float:
    """Median wall time of a fresh interpreter importing the program.

    The part of set-up a serving process pays before it can build
    anything: interpreter start plus ``import repro.cli`` (which pulls
    in every layer).  Timed in SETUP_REPEATS fresh processes.
    """
    from .prepare import program_env

    times = []
    for _ in range(SETUP_REPEATS):
        SETUP_PROBE.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       cwd=root, env=program_env(root), check=True)
        times.append(time.perf_counter() - t0)
    return stats.median(times)


def timed_setups(setup: Callable[[], T]) -> Tuple[float, T]:
    """Run ``setup`` SETUP_REPEATS times; (median seconds, last result).

    Every repeat builds the same objects from the same seed, so the
    timed run uses the last one and the earlier ones are discarded.
    """
    times: List[float] = []
    built: Optional[T] = None
    for _ in range(SETUP_REPEATS):
        built = None  # let the previous build go before the next
        SETUP_PROBE.sample()
        t0 = time.perf_counter()
        built = setup()
        times.append(time.perf_counter() - t0)
    assert built is not None
    return stats.median(times), built


@dataclass
class RunResult:
    """One workload run: output checks, failure counts and metrics.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced one; ``problems`` lists every failed
    output check (any problem makes the run incorrect).
    """

    workload: str
    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]
    recorder: Optional[object] = None
    totals: Dict[str, Dict[str, float]] = field(default_factory=dict)
    wall_s: float = 0.0
    notes: List[str] = field(default_factory=list)
    #: host slowdown the speed probe saw during the run (1 = nominal)
    slowdown: float = 1.0
    #: end-to-end timings already at nominal speed (set-up by its own
    #: probe, and any the workload converted itself); the others are
    #: scaled by ``slowdown`` as a whole
    nominal: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    @classmethod
    def from_windows(cls, workload: str, expected: int, decided: int,
                     problems: List[str], e2e: Dict[str, float],
                     slowdown: float = 1.0) -> "RunResult":
        """Attempted = windows expected; failed = expected, not decided."""
        return cls(workload, max(expected, 1), max(0, expected - decided),
                   list(problems), dict(e2e), slowdown=slowdown)

    @classmethod
    def traced(cls, workload: str, recorder, totals, *, expected: int,
               decided: int, problems: List[str],
               per_layer: Dict[str, float], wall_s: float) -> "RunResult":
        result = cls.from_windows(workload, expected, decided, problems,
                                  per_layer)
        result.recorder = recorder
        result.totals = totals
        result.wall_s = wall_s
        result.metrics["failed_share"] = result.failed / result.attempted
        return result
