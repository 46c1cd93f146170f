"""Checkpoint/restore for the online capacity monitor.

A crashed ``repro monitor`` should not need retraining: the checkpoint
embeds the full trained-meter payload (synopses, GPT/LHT/BPT tables —
including any online adaptation accumulated so far) *plus* the run-local
state the meter payload deliberately omits — coordinator history
registers, the aggregator's mid-window row buffers, PI-correlation
moments, operational counters and the hold-last-decision fallback
state.  Restoring and resuming the stream from the next record yields
decisions bit-identical to an uninterrupted run.

Checkpoint files are written atomically (temp file + rename) and both
directions are wrapped in :func:`~repro.faults.retry.retry_io`.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.capacity import CapacityMeter
from ..core.monitor import MonitorDecision, OnlineCapacityMonitor
from ..telemetry.sampler import WindowStats
from .retry import retry_io

__all__ = [
    "CHECKPOINT_FORMAT",
    "FLEET_CHECKPOINT_FORMAT",
    "checkpoint_payload",
    "fleet_checkpoint_payload",
    "load_checkpoint",
    "load_fleet_checkpoint",
    "read_json_checkpoint",
    "save_checkpoint",
    "save_fleet_checkpoint",
    "write_json_atomic",
]

CHECKPOINT_FORMAT = "repro.monitor-checkpoint/1"
FLEET_CHECKPOINT_FORMAT = "repro.fleet-checkpoint/1"


def write_json_atomic(
    path,
    payload: Dict[str, object],
    *,
    attempts: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Atomically and durably write ``payload`` as JSON.

    The text goes to a temp file that is fsynced before it is renamed
    over ``path``, and the directory is fsynced after the rename (where
    the filesystem supports that), so a power loss leaves either the old
    file or the complete new one.  The write is wrapped in
    :func:`~repro.faults.retry.retry_io`; a reader never observes a torn
    file.  Shared by the monitor checkpoint below
    and the multi-site service manifest
    (:meth:`~repro.control.service.CapacityService.save`).
    """
    text = json.dumps(payload)
    target = Path(path)

    def write() -> None:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_directory(target.parent)

    retry_io(write, attempts=attempts, sleep=sleep)


def _fsync_directory(path: Path) -> None:
    """Make a rename in ``path`` durable, where the filesystem allows it.

    Some mounts (certain FUSE, CIFS and NFS ones) refuse fsync on a
    directory with EINVAL or ENOTSUP.  There the rename is as durable as
    the mount makes it, and the write has still succeeded.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno not in (errno.EINVAL, errno.ENOTSUP, errno.EOPNOTSUPP):
            raise
    finally:
        os.close(fd)


def read_json_checkpoint(
    path,
    *,
    attempts: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Read a JSON checkpoint written by :func:`write_json_atomic`."""
    target = Path(path)
    payload = json.loads(
        retry_io(target.read_text, attempts=attempts, sleep=sleep)
    )
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a JSON-object checkpoint")
    return payload


def checkpoint_payload(monitor: OnlineCapacityMonitor) -> Dict[str, object]:
    """Self-contained JSON snapshot of a running monitor."""
    return {
        "format": CHECKPOINT_FORMAT,
        "meter": monitor.meter.to_payload(),
        "config": {
            "adapt": monitor.adapt,
            "min_votes": monitor.min_votes,
            "max_imputed_fraction": monitor.max_imputed_fraction,
            "confidence_decay": monitor.confidence_decay,
        },
        "state": monitor.state_dict(),
    }


def save_checkpoint(
    monitor: OnlineCapacityMonitor,
    path,
    *,
    attempts: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Atomically write a monitor checkpoint, retrying transient I/O."""
    write_json_atomic(
        path, checkpoint_payload(monitor), attempts=attempts, sleep=sleep
    )


def load_checkpoint(
    path,
    *,
    labeler: Optional[Callable[[WindowStats], int]] = None,
    retain_decisions: Optional[int] = None,
    on_decision: Optional[Callable[[MonitorDecision], None]] = None,
    attempts: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> OnlineCapacityMonitor:
    """Rebuild a monitor exactly where :func:`save_checkpoint` left it.

    ``labeler``/``retain_decisions``/``on_decision`` are process-local
    concerns (callables don't serialize) and are re-supplied by the
    caller; everything that influences decisions comes from the file.
    """
    payload = read_json_checkpoint(path, attempts=attempts, sleep=sleep)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a monitor checkpoint")
    meter = CapacityMeter.from_payload(payload["meter"], labeler=labeler)
    config = payload["config"]
    monitor = OnlineCapacityMonitor(
        meter,
        adapt=bool(config["adapt"]),
        labeler=labeler,
        retain_decisions=retain_decisions,
        on_decision=on_decision,
        min_votes=(
            None if config["min_votes"] is None else int(config["min_votes"])
        ),
        max_imputed_fraction=float(config["max_imputed_fraction"]),
        confidence_decay=float(config["confidence_decay"]),
    )
    monitor.load_state(payload["state"])
    return monitor


# ----------------------------------------------------------------------
# fleet-sharded checkpoints (one file for N homogeneous monitors)
# ----------------------------------------------------------------------
def _monitor_config(monitor: OnlineCapacityMonitor) -> Dict[str, object]:
    return {
        "adapt": monitor.adapt,
        "min_votes": monitor.min_votes,
        "max_imputed_fraction": monitor.max_imputed_fraction,
        "confidence_decay": monitor.confidence_decay,
    }


def fleet_checkpoint_payload(
    named_monitors: Sequence[Tuple[str, OnlineCapacityMonitor]],
) -> Dict[str, object]:
    """Structure-of-arrays snapshot of N same-meter monitor clones.

    The per-site checkpoint embeds the full trained-meter payload in
    every file; at fleet scale (1k+ sites sharing one trained meter)
    that is almost entirely redundant.  This layout stores the shared
    parts *once* — one meter template and one config block — plus the
    only things that diverge per site: the adaptive GPT/LHT/BPT tables
    (stacked, matching the fleet backend's array layout) and each
    monitor's run-local ``state_dict``.
    """
    if not named_monitors:
        raise ValueError("fleet checkpoint needs at least one monitor")
    monitors = [monitor for _, monitor in named_monitors]
    head = monitors[0]
    config = _monitor_config(head)
    for monitor in monitors[1:]:
        if _monitor_config(monitor) != config:
            raise ValueError(
                "fleet checkpoints require homogeneous monitor config"
            )
    return {
        "format": FLEET_CHECKPOINT_FORMAT,
        "sites": [name for name, _ in named_monitors],
        "config": config,
        "meter": head.meter.to_payload(),
        "tables": [
            monitor.meter.coordinator.table_state() for monitor in monitors
        ],
        "states": [monitor.state_dict() for monitor in monitors],
    }


def save_fleet_checkpoint(
    named_monitors: Sequence[Tuple[str, OnlineCapacityMonitor]],
    path,
    *,
    attempts: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Atomically write a fleet-sharded checkpoint."""
    write_json_atomic(
        path,
        fleet_checkpoint_payload(named_monitors),
        attempts=attempts,
        sleep=sleep,
    )


def load_fleet_checkpoint(
    path,
    *,
    labeler: Optional[Callable[[WindowStats], int]] = None,
    retain_decisions: Optional[int] = None,
    sites: Optional[Collection[str]] = None,
    attempts: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Tuple[str, OnlineCapacityMonitor]]:
    """Rebuild every monitor from a fleet-sharded checkpoint, in order.

    Each site gets a fresh clone of the shared meter template, its own
    table values restored in place
    (:meth:`~repro.core.coordinator.CoordinatedPredictor.set_tables`)
    and its run-local state loaded — bit-identical to reloading a
    per-site checkpoint of the same monitor.

    ``sites`` optionally restricts restoration to a subset of site
    names (checkpoint order is preserved): a resharded resume hands
    each worker the whole file but only pays the meter-clone cost for
    the sites in its own shard.
    """
    payload = read_json_checkpoint(path, attempts=attempts, sleep=sleep)
    if payload.get("format") != FLEET_CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a fleet checkpoint")
    names = [str(name) for name in payload["sites"]]
    tables = payload["tables"]
    states = payload["states"]
    if not (len(names) == len(tables) == len(states)):
        raise ValueError(
            f"{path} is torn: {len(names)} sites, {len(tables)} table "
            f"sets, {len(states)} states"
        )
    config = payload["config"]
    wanted = None if sites is None else set(sites)
    restored: List[Tuple[str, OnlineCapacityMonitor]] = []
    for name, table_set, state in zip(names, tables, states):
        if wanted is not None and name not in wanted:
            continue
        meter = CapacityMeter.from_payload(payload["meter"], labeler=labeler)
        monitor = OnlineCapacityMonitor(
            meter,
            adapt=bool(config["adapt"]),
            labeler=labeler,
            retain_decisions=retain_decisions,
            min_votes=(
                None
                if config["min_votes"] is None
                else int(config["min_votes"])
            ),
            max_imputed_fraction=float(config["max_imputed_fraction"]),
            confidence_decay=float(config["confidence_decay"]),
        )
        meter.coordinator.set_tables(
            np.asarray(table_set["lht"], dtype=float),
            np.asarray(table_set["gpt"], dtype=float),
            np.asarray(table_set["bpt"], dtype=float),
        )
        monitor.load_state(state)
        restored.append((name, monitor))
    return restored
