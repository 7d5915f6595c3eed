"""The four benchmark workloads, as lists of jobs built from the seed.

A job is one CLI subcommand (called in-process through ``cli.main``) or one
direct library call that the CLI cannot reach.  Each job knows its output
columns, the tolerance each column is certified to, and the invariants that
hold for every seed.  ``small=True`` gives the warm-up version of a
workload: the same jobs at a size that fills lazy set-up but costs little.

Why each workload exists, and which layer it should move, is written down
in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from hostlab import adic, cli, fourier, measures, pipeline, reports

from check import EXACT, IDENTITY, QUADRATURE

DEFAULT_SEED = 7
MARKOV = "markov:0.9,0.1;0.5,0.5"
MARKOV_P = [[0.9, 0.1], [0.5, 0.5]]
W_BOUND = 1.0 + 1e-12


def read_csv(path: Path) -> dict[str, list]:
    """Columns of a hostlab CSV, keyed '<file>:<column>'."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != reports.CSV_MAGIC:
        raise ValueError(f"{path.name}: missing {reports.CSV_MAGIC!r} header")
    header = lines[1].split(",")
    cols = {f"{path.name}:{h}": [] for h in header}
    for line in lines[2:]:
        fields = line.split(",")
        # Fields are not quoted; only a leading label such as
        # "quadratic_bump[0,1]" can hold commas, so extra fields join into it.
        extra = len(fields) - len(header)
        fields = [",".join(fields[:extra + 1]), *fields[extra + 1:]]
        for h, raw in zip(header, fields):
            cols[f"{path.name}:{h}"].append(_parse(raw))
    return cols


def _parse(raw: str):
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(raw, raw)


def _rows(obs, key, expected) -> list[str]:
    got = len(obs.get(key, []))
    return [] if got == expected else [f"{key}: {got} rows, expected {expected}"]


def _all_true(obs, key) -> list[str]:
    bad = [i for i, v in enumerate(obs.get(key, [])) if v is not True]
    return [f"{key}: row {bad[0]} not ok"] if bad else []


def _bounded(obs, key, bound) -> list[str]:
    bad = [v for v in obs.get(key, []) if not abs(v) <= bound]
    return [f"{key}: {bad[0]!r} exceeds {bound!r}"] if bad else []


class Job:
    """One unit of work in a pass.  `run` is timed and writes CSV files into
    `out`; `observe` reads them back and `invariants` checks them, untimed."""

    jid: str
    files: tuple[str, ...]
    tolerances: dict

    def run(self, seed: int, out: Path, rec):
        raise NotImplementedError

    def observe(self, result, out: Path) -> dict:
        obs = {}
        for name in self.files:
            obs.update(read_csv(out / name))
        return obs

    def invariants(self, obs: dict) -> list[str]:
        raise NotImplementedError


class CliJob(Job):
    def __init__(self, jid, argv, files, tolerances, invariants):
        self.jid = jid
        self.subcommand = argv[0]
        self.argv = list(argv)
        self.files = files
        self.tolerances = tolerances
        self._invariants = invariants
        self.warnings: list[str] = []

    def run(self, seed, out, rec):
        argv = [*self.argv, "--seed", str(seed), "--out", str(out)]
        err = io.StringIO()
        span = rec.begin(f"cli.{self.subcommand}") if rec is not None else None
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            if span is not None:
                rec.end(span)
        self.warnings = [ln for ln in err.getvalue().splitlines()
                         if ln.startswith("WARNING:")]
        return code, err.getvalue()

    def observe(self, result, out):
        code, stderr = result
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.strip()[-300:]}")
        return super().observe(result, out)

    def invariants(self, obs):
        return self._invariants(obs)


# ---------------------------------------------------------------------------
# desk-orbit
# ---------------------------------------------------------------------------

def _weyl_job(jid, gen, b, checkpoints, samples, ms=(1, 2, 3)):
    cps = ",".join(map(str, checkpoints))

    def inv(obs):
        return (_rows(obs, "weyl.csv:abs", samples * len(ms) * len(checkpoints))
                + _bounded(obs, "weyl.csv:abs", W_BOUND))

    return CliJob(jid, ["weyl", "--gen", gen, "--b", str(b),
                        "--m", ",".join(map(str, ms)), "--checkpoints", cps,
                        "--samples", str(samples)],
                  ["weyl.csv"],
                  {"weyl.csv:re": IDENTITY, "weyl.csv:im": IDENTITY,
                   "weyl.csv:abs": IDENTITY},
                  inv)


def _controls_job(small):
    argv = (["controls", "--mode", "rational", "--N-rational", "3000"] if small
            else ["controls", "--mode", "both"])

    def inv(obs):
        problems = _rows(obs, "controls.csv:mode", 1 if small else 2)
        for mode, re, im, err in zip(obs["controls.csv:mode"], obs["controls.csv:re"],
                                     obs["controls.csv:im"], obs["controls.csv:err"]):
            if not math.hypot(re, im) <= W_BOUND:
                problems.append(f"controls {mode}: |W| = {math.hypot(re, im)!r} > 1")
            if mode == "rational" and not err < 1e-3:
                problems.append(f"rational control error {err!r} >= 1e-3")
        return problems

    return CliJob("controls", argv, ["controls.csv"],
                  {"controls.csv:re": IDENTITY, "controls.csv:im": IDENTITY,
                   "controls.csv:err": IDENTITY},
                  inv)


def desk_orbit(seed, small=False):
    if small:
        return [_weyl_job("weyl", "cantor3", 2, (100, 1000), 1), _controls_job(True)]
    return [_weyl_job("weyl", "cantor3", 2, (1000, 10_000, 100_000), 2),
            _controls_job(False)]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _digits(kind: str, n: int, start: int, rng: np.random.Generator) -> list[int]:
    """Generator-typical digits drawn by the benchmark itself, so the inputs
    do not change when the program's sampler does."""
    if kind == "cantor3":
        return (2 * rng.integers(0, 2, size=n)).tolist()
    cum = np.cumsum(np.asarray(MARKOV_P), axis=1)
    out, state = [], start
    for u in rng.random(n):
        state = min(int(np.searchsorted(cum[state], u, side="right")), 1)
        out.append(state)
    return out


class CompareJob(Job):
    """One orbit_vs_conditional_compare call on a seeded generator-typical
    point, with its row written through reports.write_csv."""

    COLUMNS = ("orbit_re", "orbit_im", "cond_re", "cond_im", "cond_abs_avg", "gap")
    files = ("compare.csv",)

    def __init__(self, kind, b, past, k, N, seed):
        self.jid = f"{kind}-b{b}-k{k}-N{N}"
        self.tolerances = {f"compare.csv:{c}": IDENTITY for c in self.COLUMNS}
        self.gen = (measures.cantor3() if kind == "cantor3"
                    else measures.markov(MARKOV_P))
        a = self.gen.base
        self.past = measures.PastWord(a, (past,))
        self.b, self.k, self.N = b, k, N
        L = adic.PrecisionBudget.plan(a, b, N).L + k
        rng = np.random.default_rng(np.random.SeedSequence([seed, b, k, N]))
        self.x = adic.make_point_from_digits(a, _digits(kind, L, past, rng))

    def run(self, seed, out, rec):
        r = pipeline.orbit_vs_conditional_compare(self.gen, self.past, self.x,
                                                  self.b, self.k, 1, self.N)
        row = (r.orbit_avg.real, r.orbit_avg.imag, r.cond_avg.real, r.cond_avg.imag,
               r.cond_abs_avg, r.gap)
        reports.write_csv(out / "compare.csv", self.COLUMNS, [row])

    def invariants(self, obs):
        problems = _rows(obs, "compare.csv:gap", 1)
        if problems:
            return problems
        ore, oim, cre, cim, cabs, gap = (obs[f"compare.csv:{c}"][0] for c in self.COLUMNS)
        if not abs(complex(ore, oim)) <= W_BOUND:
            problems.append("|orbit average| > 1")
        if not abs(complex(cre, cim)) <= cabs + 1e-12 <= W_BOUND + 1e-12:
            problems.append("conditional average not bounded by its moduli")
        if not abs(gap - abs(complex(ore - cre, oim - cim))) <= 1e-12:
            problems.append("gap differs from |orbit - conditional|")
        return problems


def compare(seed, small=False):
    grid = [("cantor3", 2, 0), ("markov", 3, 1)]
    ks, Ns = ((0,), (200,)) if small else ((0, 2), (1000, 4000, 8000))
    return [CompareJob(kind, b, past, k, N, seed)
            for kind, b, past in grid for k in ks for N in Ns]


# ---------------------------------------------------------------------------
# markov-stats
# ---------------------------------------------------------------------------

def _martingale_job(small):
    N, trials = (200, 2) if small else (2000, 40)

    def inv(obs):
        problems = []
        for name in ("martingale.csv", "martingale_4N.csv"):
            problems += _rows(obs, f"{name}:value", trials)
            problems += _bounded(obs, f"{name}:value", 2.0)
        return problems

    return CliJob("martingale",
                  ["martingale", "--gen", MARKOV, "--window", "3",
                   "--window-func", "parity", "--with-ratio",
                   "--N", str(N), "--trials", str(trials)],
                  ["martingale.csv", "martingale_4N.csv"], {}, inv)


def _time_change_job(small):
    N, M = (1000, 2) if small else (10_000, 40)

    def inv(obs):
        avg = [abs(complex(re, im)) for re, im in
               zip(obs["time_change.csv:re"], obs["time_change.csv:im"])]
        return (_rows(obs, "time_change.csv:re", 8)
                + [f"|A(j, g)| = {v!r} > 1" for v in avg if not v <= W_BOUND][:1])

    return CliJob("time-change",
                  ["time-change", "--gen", MARKOV, "--theta", "log:2,3",
                   "--N", str(N), "--M", str(M)],
                  ["time_change.csv"],
                  {"time_change.csv:re": IDENTITY, "time_change.csv:im": IDENTITY,
                   "time_change.csv:z_score": IDENTITY},
                  inv)


def markov_stats(seed, small=False):
    weyl = (_weyl_job("weyl", MARKOV, 3, (100, 1000), 1) if small
            else _weyl_job("weyl", MARKOV, 3, (1000, 10_000, 20_000), 2))
    return [_martingale_job(small), _time_change_job(small), weyl]


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def _fourier_cert_job(small):
    c1_rows, sm_rows = (9, 6) if small else (40, 768)

    def inv(obs):
        return (_rows(obs, "c1_cert.csv:ok", c1_rows)
                + _rows(obs, "fourier_cert.csv:ok", sm_rows)
                + _all_true(obs, "c1_cert.csv:ok") + _all_true(obs, "fourier_cert.csv:ok"))

    return CliJob("fourier-cert",
                  ["fourier-cert", "--battery", "quick" if small else "default"],
                  ["c1_cert.csv", "fourier_cert.csv"],
                  {"c1_cert.csv:lhs": QUADRATURE, "c1_cert.csv:rhs": IDENTITY,
                   "c1_cert.csv:margin": QUADRATURE,
                   "fourier_cert.csv:lhs": QUADRATURE, "fourier_cert.csv:rhs": IDENTITY,
                   "fourier_cert.csv:margin": QUADRATURE},
                  inv)


def _proof_chain_job(small):
    ks = "0" if small else "0,2,4,6"

    def inv(obs):
        return (_rows(obs, "proof_chain.csv:ok", len(ks.split(",")))
                + _all_true(obs, "proof_chain.csv:ok"))

    return CliJob("proof-chain",
                  ["proof-chain", "--gen", "cantor3", "--b", "2", "--ks", ks],
                  ["proof_chain.csv"],
                  {"proof_chain.csv:value": QUADRATURE,
                   "proof_chain.csv:std_error": QUADRATURE,
                   "proof_chain.csv:scale_term": IDENTITY,
                   "proof_chain.csv:corr_term": IDENTITY,
                   "proof_chain.csv:rhs": IDENTITY},
                  inv)


def _equivariance_job(small):
    pairs = 5 if small else 100

    def inv(obs):
        return (_rows(obs, "equivariance.csv:ok", 3 * pairs)
                + _all_true(obs, "equivariance.csv:ok")
                + _bounded(obs, "equivariance.csv:max_abs_diff", 1e-12))

    return CliJob("equivariance", ["equivariance", "--pairs", str(pairs)],
                  ["equivariance.csv"], {}, inv)


class SmoothingJob(Job):
    """smoothing_certificate over two measures without a factorization: a
    dense one (shifted Markov realization) and a sparse one (a cylinder of
    the Cantor measure), the only inputs that reach those transform paths.

    It runs without the thread pool: two dense transforms at once would each
    hold a 16 MB phase table, and whether they overlap is timing, which
    would make peak_rss_mb bimodal.  fourier-cert exercises the pool."""

    jid = "smoothing-unfactorized"
    files = ("smoothing.csv",)

    def __init__(self, small):
        self.ms = (1,) if small else (1, -1, 2, -2)
        self.rs = (3.0 ** -1,) if small else (3.0 ** -1, 3.0 ** -2, 3.0 ** -3)
        self.measures = [
            ("markov15_shift1",
             measures.shift_push(measures.realize(measures.markov(MARKOV_P), 15), 1)),
            ("cantor3_10_cyl2",
             measures.cylinder_condition(measures.realize(measures.cantor3(), 10),
                                         measures.word(3, [2]))),
        ]
        self.tolerances = {"smoothing.csv:lhs": QUADRATURE, "smoothing.csv:rhs": IDENTITY,
                           "smoothing.csv:margin": QUADRATURE}

    def run(self, seed, out, rec):
        rows = fourier.smoothing_certificate(self.measures, self.ms, [2.0], self.rs)
        header = ["measure", "m", "b", "r", "lhs", "rhs", "margin", "ok"]
        reports.write_csv(out / "smoothing.csv", header,
                          [[r[h] for h in header] for r in rows])

    def invariants(self, obs):
        return (_rows(obs, "smoothing.csv:ok",
                      len(self.measures) * len(self.ms) * len(self.rs))
                + _all_true(obs, "smoothing.csv:ok"))


def spectral(seed, small=False):
    return [_fourier_cert_job(small), _proof_chain_job(small),
            _equivariance_job(small), SmoothingJob(small)]


WORKLOADS = {
    "desk-orbit": desk_orbit,
    "compare": compare,
    "markov-stats": markov_stats,
    "spectral": spectral,
}
