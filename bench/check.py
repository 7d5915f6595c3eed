"""Output checker: reference values at the tolerance each quantity is
certified to, plus seed-independent invariants checked on every seed.

Reference values were recorded from the program for the default workload
seed (``python3 bench/run.py --record-reference``).  Other seeds are
checked by the invariants alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXACT = 0.0          # RNG-driven outputs (martingale values, equivariance rows)
IDENTITY = 1e-12     # exact identities and the 53-bit orbit averages
QUADRATURE = 1e-6    # the quadrature tol of scale integrals

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def within(value, ref, tol: float) -> bool:
    """|value - ref| <= tol * max(1, |ref|); exact equality when tol is 0 or
    either side is not a number."""
    numeric = (isinstance(value, (int, float)) and isinstance(ref, (int, float))
               and not isinstance(value, bool) and not isinstance(ref, bool))
    if not numeric:
        return value == ref
    if math.isnan(value) or math.isnan(ref):
        return math.isnan(value) and math.isnan(ref)
    if tol == 0.0:
        return value == ref
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def against_reference(obs: dict, ref: dict, tolerances: dict) -> list[str]:
    """Problems found comparing observed columns with reference columns;
    a column without an entry in `tolerances` must match exactly."""
    problems = []
    for key, ref_vals in ref.items():
        vals = obs.get(key)
        if vals is None:
            problems.append(f"{key}: missing from the output")
            continue
        if len(vals) != len(ref_vals):
            problems.append(f"{key}: {len(vals)} rows, reference has {len(ref_vals)}")
            continue
        tol = tolerances.get(key, EXACT)
        for i, (v, r) in enumerate(zip(vals, ref_vals)):
            if not within(v, r, tol):
                problems.append(f"{key}[{i}] = {v!r}, reference {r!r} (tol {tol:g})")
                break
    return problems


def load_reference(workload: str, seed: int, default_seed: int) -> dict | None:
    """Reference columns per job id for this workload, or None when the
    seed has no recorded reference."""
    if seed != default_seed or not REFERENCE_PATH.is_file():
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("seed") != default_seed:
        return None
    return data["workloads"].get(workload)


def save_reference(seed: int, per_workload: dict) -> None:
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "workloads": per_workload}, fh, sort_keys=True)
        fh.write("\n")
