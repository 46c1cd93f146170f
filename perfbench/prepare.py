"""The untimed preparation step: a trained meter and recorded streams.

Operators train once (``repro train --out``) and every serving process
loads that meter with ``--meter``; the fleet's input streams are
recorded once with ``repro simulate``.  Both are pure functions of the
program's source, so they are built on the first run in a checkout and
kept under ``.bench_build/perfbench/<source digest>/``; a changed
source tree gets a fresh build.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

#: the meter every workload loads: trained at the serving scale, whose
#: decision window (10 ticks) all workloads share
TRAIN_ARGS = ("--scale", "0.2", "--level", "hpc", "--learner", "tan")

#: fleet input streams: (profile, mix, scale) cycled over the pool; the
#: scales give every stream at least STREAM_TICKS sampling intervals
STREAM_SHAPES = (
    ("stress", "browsing", "0.45"),
    ("test", "shopping", "0.35"),
    ("stress", "ordering", "0.45"),
    ("test", "browsing", "0.35"),
    ("stress", "shopping", "0.45"),
    ("test", "ordering", "0.35"),
)
STREAM_COUNT = 16
STREAM_TICKS = 640
#: recording seeds start far from the training seeds (11..2107)
STREAM_SEED_BASE = 50_000
#: recordings run side by side, at most this many processes at once
BUILD_PROCESSES = 2


@dataclass(frozen=True)
class Prepared:
    root: Path
    meter: Path
    streams: Sequence[Path]


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files and the build recipe."""
    digest = hashlib.sha256()
    digest.update(repr((TRAIN_ARGS, STREAM_SHAPES, STREAM_COUNT,
                        STREAM_SEED_BASE)).encode())
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def program_env(root: Path) -> dict:
    """Environment that runs the checkout's own ``repro`` package."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cli(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _run_all(root: Path, commands: Sequence[List[str]], log) -> None:
    """Run CLI commands, BUILD_PROCESSES at a time; any failure raises."""
    pending = list(commands)
    running: List[subprocess.Popen] = []
    try:
        while pending or running:
            while pending and len(running) < BUILD_PROCESSES:
                cmd = pending.pop(0)
                log(f"# build: {' '.join(cmd[3:])}")
                running.append(
                    subprocess.Popen(
                        cmd,
                        cwd=root,
                        env=program_env(root),
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE,
                    )
                )
            proc = running.pop(0)
            _, err = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(
                    f"build step failed ({proc.returncode}): "
                    f"{' '.join(proc.args[3:])}\n{err.decode(errors='replace')}"
                )
    finally:
        for proc in running:
            proc.kill()
            proc.wait()


def ensure_prepared(root: Path, log=print) -> Prepared:
    """Build (once per source digest) the meter and the stream pool."""
    build_dir = root / ".bench_build" / "perfbench" / source_digest(root)
    build_dir.mkdir(parents=True, exist_ok=True)
    meter = build_dir / "meter.json"
    streams = [
        build_dir / f"stream{k:02d}.json.gz" for k in range(STREAM_COUNT)
    ]
    commands = []
    if not meter.exists():
        commands.append(
            _cli(["train", *TRAIN_ARGS, "--jobs", "1",
                        "--out", str(meter.with_suffix(".tmp.json"))])
        )
    for k, path in enumerate(streams):
        if path.exists():
            continue
        profile, mix, scale = STREAM_SHAPES[k % len(STREAM_SHAPES)]
        commands.append(
            _cli(["simulate", "--profile", profile, "--mix", mix,
                        "--scale", scale, "--seed",
                        str(STREAM_SEED_BASE + k), "--collector", "none",
                        "--out", str(path.with_name(path.name + ".tmp.gz"))])
        )
    if commands:
        t0 = time.perf_counter()
        _run_all(root, commands, log)
        # publish atomically only once every step has succeeded
        if not meter.exists():
            meter.with_suffix(".tmp.json").replace(meter)
        for path in streams:
            tmp = path.with_name(path.name + ".tmp.gz")
            if tmp.exists():
                tmp.replace(path)
        log(f"# build: done in {time.perf_counter() - t0:.1f}s")
    return Prepared(root=root, meter=meter, streams=streams)
