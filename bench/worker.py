"""Benchmark child process: one fresh interpreter per workload run.

It imports hostlab.cli first and reports "ready" (the parent times this as
set-up), then runs a small warm-up pass and closed-loop timed passes until
the time budget would be exceeded, checks every job's outputs, and prints
one JSON line with per-pass times, its peak RSS and, in a traced run, the
per-layer metrics.  With --probe it exits right after "ready".

Run through run.py, which pins the environment (PYTHONPATH, thread counts).
"""

import sys
import time

import hostlab.cli  # noqa: F401  (the import being timed as set-up)

print("ready", flush=True)

if __name__ == "__main__" and "--probe" in sys.argv:
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.soft_warnings = 0

    def fail(self, where: str, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {what}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_pass(jobs, seed, work: Path, refs, tally: Tally, traced: bool) -> dict:
    """Run every job once.  Only the jobs themselves are timed; output
    checks happen between the timed regions."""
    rec = spans.Recorder() if traced else None
    walls, cpus = [], []
    for job in jobs:
        out = fresh_dir(work / job.jid)
        tracer = spans.Tracer(rec) if traced else None
        if tracer:
            tracer.install()
        tally.attempted += 1
        result, error = None, None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = job.run(seed, out, rec)
        except Exception:  # a job that raises is a failed job; keep going
            error = traceback.format_exc(limit=3)
        finally:
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            if tracer:
                tracer.remove()
        if error is None:
            try:
                obs = job.observe(result, out)
                problems = job.invariants(obs)
                if refs is not None:
                    problems += check.against_reference(obs, refs.get(job.jid, {}),
                                                        job.tolerances)
                    if job.jid not in refs:
                        problems.append("no reference recorded")
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            if problems:
                error = "; ".join(problems)
        if error is not None:
            tally.fail(job.jid, error)
        tally.soft_warnings += len(getattr(job, "warnings", ()))
    return {"wall": sum(walls), "cpu": sum(cpus), "job_walls": walls, "job_cpus": cpus,
            "traced": traced, "spans": rec.spans if rec else None}


def record_reference(work: Path) -> None:
    """Run every workload once at the default seed and store its outputs."""
    seed = workloads.DEFAULT_SEED
    per_workload = {}
    for name, make in workloads.WORKLOADS.items():
        cols = {}
        for job in make(seed):
            out = fresh_dir(work / job.jid)
            obs = job.observe(job.run(seed, out, None), out)
            problems = job.invariants(obs)
            if problems:
                raise SystemExit(f"{name}/{job.jid}: {problems}")
            cols[job.jid] = obs
        per_workload[name] = cols
        print(f"recorded {name}: {len(cols)} jobs", file=sys.stderr)
    check.save_reference(seed, per_workload)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "HOSTLAB_THREADS": os.environ.get("HOSTLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)
    if args.record:
        record_reference(work)
        return

    make = workloads.WORKLOADS[args.workload]
    jobs = make(args.seed)
    refs = check.load_reference(args.workload, args.seed, workloads.DEFAULT_SEED)
    tally = Tally()
    run_pass(make(args.seed, small=True), args.seed, work, None, tally, traced=False)

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(jobs, args.seed, work, refs, tally, traced))
        elapsed = time.perf_counter() - start
        next_pass = max(p["wall"] for p in passes[-2:])
        if elapsed + next_pass > args.seconds and len(passes) >= (2 if args.trace else 1):
            break

    plain = [p for p in passes if not p["traced"]]
    untraced = [p["wall"] for p in plain]
    result = {
        "env": environment(),
        "walls": untraced,
        "cpus": [p["cpu"] for p in plain],
        "job_walls": [p["job_walls"] for p in plain],
        "job_cpus": [p["job_cpus"] for p in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "soft_warnings": tally.soft_warnings,
    }
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        result["layers"] = spans.per_layer([p["spans"] for p in traced_passes],
                                           [p["wall"] for p in traced_passes], untraced)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
