"""hostlab benchmark: four workloads, end-to-end metrics, and a traced run
with per-layer metrics.

    python3 bench/run.py --workload desk-orbit --seed 7 --seconds 25 --trace 0

Run from the repository root.  Every run starts fresh child interpreters
with PYTHONPATH=src, HOSTLAB_THREADS = nproc and single-threaded BLAS:
several that only import hostlab.cli (set-up time), then one that runs the
workload in a closed loop (each job starts when the previous one ends) for
--seconds and reports its own peak RSS.  The last line of standard output
is one JSON object: correct, attempted, failed, and the metrics (the
end-to-end ones with --trace 0, the per-layer ones with --trace 1).

    python3 bench/run.py --record-reference   # rewrite bench/reference.json
    python3 bench/selftest.py                 # the benchmark's own tests
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("desk-orbit", "compare", "markov-stats", "spectral")
SETUP_PROBES = 4          # plus the worker's own start: 5 set-up samples
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HOSTLAB_THREADS"] = str(nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, env, timeout=CHILD_TIMEOUT_S) -> tuple[float, str]:
    """Run the worker; return (seconds until it reported ready, the rest of
    its standard output).  The child is always reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, bufsize=0)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError("worker did not start (could not import hostlab.cli)")
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, rest.decode()


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def median_pass(job_times) -> float:
    """Time of a median pass: the sum over jobs of each job's median time
    across the run's passes.  A slowdown of the machine that hits one job in
    one pass does not move it."""
    return sum(statistics.median(per_job) for per_job in zip(*job_times))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=10)
    return out.stdout.strip() or "unavailable"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "hostlab" / "cli.py").is_file():
        print(f"error: no hostlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    work = ROOT / ".bench_work" / f"{args.workload or 'reference'}-{os.getpid()}"
    try:
        if args.record_reference:
            spawn(["--record", "--work", str(work)], env, timeout=600)
            return 0
        setups = [] if args.trace else [spawn(["--probe"], env)[0]
                                        for _ in range(SETUP_PROBES)]
        worker_setup, out = spawn(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work)], env)
        setups.append(worker_setup)
        res = json.loads(out.strip().splitlines()[-1])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    env_record = {"nproc": nproc, **res["env"], "git_commit": git_commit()}
    print("env " + json.dumps(env_record, sort_keys=True))
    for problem in res["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(res['walls'])} untraced passes, {res['soft_warnings']} soft warnings")

    if args.trace:
        from spans import PER_LAYER_UNITS
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name:<58} {m['value']:.6g} {m['unit']}")
    else:
        walls, cpus = res["walls"], res["cpus"]
        metrics = {
            "wall_s": {"value": median_pass(res["job_walls"]), "unit": "s"},
            "cpu_s": {"value": median_pass(res["job_cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        for name, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setups)):
            q1, q2, q3 = quartiles(values)
            print(f"{name:<12} {metrics[name]['value']:.4f} s  (samples: median {q2:.4f}"
                  f"  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)})")
        print(f"{'peak_rss_mb':<12} {res['peak_rss_mb']:.1f} MB")
    print(f"{'error_rate':<12} {failed / attempted:.4f}  ({failed} failed / {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
