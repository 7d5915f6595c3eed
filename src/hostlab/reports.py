"""Deterministic report emission: versioned CSV, JSON summaries, seeds,
and the thread-capped ordered parallel map.

Output bytes depend only on (config, seed): floats are written with repr
(shortest round-trip), rows are reduced in work-unit order, and nothing
wall-clock or host-specific is embedded except the version string.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
from pathlib import Path

import numpy as np

from .errors import InputError

CSV_MAGIC = "# hostlab-csv v1"


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_MAGIC + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def version_string() -> str:
    return _version()


@functools.cache
def _version() -> str:
    """The package version and `git describe` of its checkout, asked of git
    once per process.  `version_string` stays a plain function so that the
    bench's tracer, which wraps only plain functions, still times it."""
    # imported here: this module loads while the package __init__ still runs
    from . import __version__

    root = Path(__file__).resolve().parents[2]
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True, timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return f"hostlab-{__version__}+g{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"hostlab-{__version__}"


def thread_count() -> int:
    raw = os.environ.get("HOSTLAB_THREADS", "").strip()
    if not raw:
        return min(4, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError as exc:
        raise InputError(f"HOSTLAB_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise InputError("HOSTLAB_THREADS must be >= 1")
    return n


def parallel_map(fn, items):
    """Order-preserving map over independent work units, capped by HOSTLAB_THREADS;
    the results equal the sequential map's at any thread count.  A library helper:
    no CLI subcommand calls it, so none reads HOSTLAB_THREADS."""
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) < 2:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor   # only a pooled map loads it
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))
