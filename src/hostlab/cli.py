"""Batch experiment runner.

Subcommands: weyl, fourier-cert, proof-chain, martingale, time-change,
equivariance, controls.  Configuration is a flat key/value JSON file with
flags taking precedence; the seed is mandatory and never defaults to the
clock.  Hard certification failures exit 1; soft statistical thresholds warn
and exit 0 unless --strict; bad configuration exits 2; resource, precision
and quadrature problems exit 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import adic, ergodic, fourier, measures, pipeline, reports
from .errors import HostlabError, InputError, QuadratureError, ResourceError

SOFT_EXIT_NOTE = "soft threshold missed (exit 0; use --strict to fail)"


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def parse_generator(spec: str) -> measures.MeasureGen:
    spec = spec.strip()
    if spec == "cantor3":
        return measures.cantor3()
    head, _, rest = spec.partition(":")
    try:
        if head == "uniform":
            return measures.uniform(int(rest))
        if head == "bernoulli":
            return measures.bernoulli(len(rest.split(",")),
                                      [float(v) for v in rest.split(",")])
        if head == "markov":
            rows = [[float(v) for v in row.split(",")] for row in rest.split(";")]
            return measures.markov(rows)
        if head == "ifs":
            parts = rest.split(";")
            base = int(parts[0])
            digits = [int(v) for v in parts[1].split(",")]
            weights = [float(v) for v in parts[2].split(",")] if len(parts) > 2 else None
            return measures.ifs_digits(base, digits, weights)
    except (ValueError, IndexError) as exc:
        raise InputError(f"cannot parse generator spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown generator spec {spec!r}")


def parse_real(spec: str) -> float:
    """A float literal, or 'log:B,A' meaning log(B)/log(A)."""
    spec = str(spec).strip()
    if spec.startswith("log:"):
        b, a = spec[4:].split(",")
        return math.log(float(b)) / math.log(float(a))
    return float(spec)


def _int(value) -> int:
    """An int, an integral float or a decimal string; 2.5 or true is an error, not 2 or 1."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _int_list(spec) -> list[int]:
    if isinstance(spec, (list, tuple)):
        return [_int(v) for v in spec]
    return [_int(v) for v in str(spec).split(",") if v.strip()]


class Options:
    """Flag values over config-file values over built-in defaults."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self._args = vars(args)
        self._defaults = dict(defaults)
        self._file = {}
        cfg_path = self._args.get("config")
        if cfg_path:
            try:
                with open(cfg_path, encoding="utf-8") as fh:
                    self._file = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise InputError(f"cannot read config file {cfg_path}: {exc}") from exc
            if not isinstance(self._file, dict):
                raise InputError("config file must hold a flat JSON object")

    def get(self, key: str, kind=None):
        """The value, read by `kind` (int, float, parse_real, ...) unless it
        is None; a value that `kind` cannot read is a config error."""
        value = self._args.get(key)
        if value is None:
            value = self._file.get(key, self._defaults.get(key))
        if kind is None or value is None:
            return value
        try:
            return kind(value)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise InputError(f"bad value {value!r} for --{key.replace('_', '-')}: {exc}") from exc

    def require(self, key: str, kind=None):
        if self.get(key) is None:
            raise InputError(f"missing required option --{key.replace('_', '-')}")
        return self.get(key, kind)

    def echo(self, keys) -> dict:
        return {k: self.get(k) for k in keys}


def _summary(out_dir: Path, name: str, payload: dict) -> None:
    payload = dict(payload)
    payload["generated_by"] = reports.version_string()
    reports.write_json(out_dir / f"{name}.json", payload)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_weyl(opts: Options, out_dir: Path, warnings: list[str]) -> int:
    gen = parse_generator(opts.require("gen"))
    cfg = pipeline.HostExperimentConfig(
        gen=gen,
        b=opts.require("b", _int),
        seed=opts.require("seed", _int),
        samples=opts.get("samples", _int),
        checkpoints=tuple(opts.get("checkpoints", _int_list)),
        freqs=tuple(opts.get("m", _int_list)),
        k=opts.get("k", _int),
        soft_final_threshold=opts.get("soft_median_threshold", float),
        label=str(opts.get("label") or ""),
    )
    rep = pipeline.host_experiment(cfg)
    reports.write_csv(out_dir / "weyl.csv",
                      ["sample", "m", "N", "re", "im", "abs"], rep.rows)
    if opts.get("dat"):
        lines = []
        for N in cfg.checkpoints:
            med = [rep.medians[(m, N)] for m in cfg.freqs]
            p90 = [rep.percentile90[(m, N)] for m in cfg.freqs]
            lines.append((N, *med, *p90))
        header = (["N"] + [f"median_m{m}" for m in cfg.freqs]
                  + [f"p90_m{m}" for m in cfg.freqs])
        with open(out_dir / "weyl.dat", "w", encoding="utf-8", newline="") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in lines:
                fh.write(" ".join(reports.fmt(v) for v in row) + "\n")

    for m in cfg.freqs:
        if not rep.medians_decreasing[m]:
            warnings.append(f"median |W_N({m})| not strictly decreasing")
        if not rep.final_median_ok[m]:
            warnings.append(
                f"final median |W({m})| above soft threshold "
                f"{cfg.soft_final_threshold}")
    _summary(out_dir, "weyl_summary", {
        "subcommand": "weyl",
        "config": opts.echo(["gen", "b", "seed", "samples", "checkpoints",
                             "m", "k", "soft_median_threshold", "label"]),
        "negative_control": rep.negative_control,
        "medians": {f"m={m},N={N}": v for (m, N), v in rep.medians.items()},
        "p90": {f"m={m},N={N}": v for (m, N), v in rep.percentile90.items()},
        "medians_decreasing": {str(m): rep.medians_decreasing[m] for m in cfg.freqs},
        "final_median_ok": {str(m): rep.final_median_ok[m] for m in cfg.freqs},
        "per_sample_seed_keys": rep.seed_keys,
        "diagnostics": {"precision_budget": {
            **dataclasses.asdict(rep.budget),
            "digits_consumed": rep.budget.L - rep.budget.guard_digits}},
        "warnings": warnings,
    })
    return 0


def run_fourier_cert(opts: Options, out_dir: Path, warnings: list[str]) -> int:
    battery = str(opts.get("battery"))
    seed = opts.require("seed", _int)
    slack = 1e-4
    if battery == "quick":
        densities = fourier.c1_default_battery()[:3]
        ts = [1, -2, 10]
        meas = [("cantor3", measures.realize(measures.cantor3(), 7))]
        ms, bs = [1, -1, 2], [2.0]
        rs = [3.0 ** -j for j in (1, 2)]
    elif battery == "default":
        densities = fourier.c1_default_battery()
        ts = [t for base in (1, 2, 5, 10, 100) for t in (base, -base)]
        meas = fourier.default_measure_battery(seed)
        ms = [m for mm in range(1, 9) for m in (mm, -mm)]
        bs = [2.0, 10.0]
        rs = [3.0 ** -j for j in range(1, 7)]
    else:
        raise InputError(f"unknown battery {battery!r}")

    c1_rows = fourier.c1_certificate(densities, ts, slack=slack)
    reports.write_csv(out_dir / "c1_cert.csv",
                      ["density", "t", "lhs", "rhs", "margin", "ok"],
                      [(r["density"], r["t"], r["lhs"], r["rhs"], r["margin"],
                        r["ok"]) for r in c1_rows])

    rows = fourier.smoothing_certificate(meas, ms, bs, rs, slack=slack,
                                         parallel_map=reports.parallel_map)
    reports.write_csv(out_dir / "fourier_cert.csv",
                      ["measure", "m", "b", "r", "lhs", "rhs", "margin", "ok"],
                      [(r["measure"], r["m"], r["b"], r["r"], r["lhs"],
                        r["rhs"], r["margin"], r["ok"]) for r in rows])

    bad = [r for r in c1_rows if not r["ok"]] + [r for r in rows if not r["ok"]]
    _summary(out_dir, "fourier_cert_summary", {
        "subcommand": "fourier-cert",
        "config": opts.echo(["battery", "seed"]),
        "c1_rows": len(c1_rows),
        "smoothing_rows": len(rows),
        "failures": len(bad),
        "all_ok": not bad,
        "diagnostics": {"worst_margin": {"c1": _worst_margin(c1_rows, ("density", "t")),
                                         "smoothing": _worst_margin(rows, ("measure", "m", "b", "r"))}},
        "warnings": warnings,
    })
    return 1 if bad else 0


def _worst_margin(rows, names) -> dict:
    """The least margin over rows and the fields naming its row (the first on a tie)."""
    row = min(rows, key=lambda r: r["margin"])
    return {"margin": row["margin"], **{k: row[k] for k in names}}


def run_proof_chain(opts: Options, out_dir: Path, warnings: list[str]) -> int:
    gen = parse_generator(opts.require("gen"))
    b = opts.require("b", _int)
    m = opts.get("m", _int)
    ks = opts.get("ks", _int_list)
    samples = opts.get("samples", _int)
    level = opts.get("level", _int)
    seed = opts.require("seed", _int)

    ests = [pipeline.proof_chain_quantity(gen, b=b, k=k, m=m, samples=samples,
                                          level=level, seed=seed) for k in ks]
    rows = [(e.k, e.m, e.samples, e.level, e.value, e.std_error,
             e.scale_term, e.corr_term, e.rhs, e.value <= e.rhs + 1e-4)
            for e in ests]
    reports.write_csv(out_dir / "proof_chain.csv",
                      ["k", "m", "samples", "level", "value", "std_error",
                       "scale_term", "corr_term", "rhs", "ok"], rows)

    hard_bad = [e for e in ests if e.value > e.rhs + 1e-4]
    for prev, cur in zip(ests, ests[1:]):
        if cur.value > prev.value + 2.0 * (prev.std_error + cur.std_error):
            warnings.append(
                f"value at k={cur.k} not below k={prev.k} within 2 std errors")
    _summary(out_dir, "proof_chain_summary", {
        "subcommand": "proof-chain",
        "config": opts.echo(["gen", "b", "m", "ks", "samples", "level", "seed"]),
        "values": [e.value for e in ests],
        "std_errors": [e.std_error for e in ests],
        "rhs": [e.rhs for e in ests],
        "all_bounded": not hard_bad,
        "warnings": warnings,
    })
    return 1 if hard_bad else 0


def _window_function(gen: measures.MeasureGen, name: str, window: int):
    if name == "parity":
        return ergodic.parity_window(gen.base, window)
    if name == "sign0":
        return ergodic.first_digit_sign(gen.base)
    raise InputError(f"unknown window function {name!r}")


def run_martingale(opts: Options, out_dir: Path, warnings: list[str]) -> int:
    gen = parse_generator(opts.require("gen"))
    seed = opts.require("seed", _int)
    N = opts.get("N", _int)
    trials = opts.get("trials", _int)
    window = opts.get("window", _int)
    f = _window_function(gen, str(opts.get("window_func")), window)
    proc = ergodic.SymbolicProcess(gen=gen, seed=seed)

    vals = ergodic.martingale_avg_experiment(proc, f, N=N, trials=trials)
    reports.write_csv(out_dir / "martingale.csv",
                      ["trial", "N", "value"],
                      [(t, N, float(v)) for t, v in enumerate(vals)])
    rms = float(np.sqrt(np.mean(vals ** 2)))
    bound = 3.0 * f.sup / math.sqrt(N)
    if rms > bound:
        warnings.append(f"trial RMS {rms:g} above soft bound {bound:g}")

    ratio = None
    if opts.get("with_ratio"):
        vals4 = ergodic.martingale_avg_experiment(proc, f, N=4 * N, trials=trials)
        reports.write_csv(out_dir / "martingale_4N.csv",
                          ["trial", "N", "value"],
                          [(t, 4 * N, float(v)) for t, v in enumerate(vals4)])
        rms4 = float(np.sqrt(np.mean(vals4 ** 2)))
        ratio = rms4 / rms if rms > 0 else float("nan")
        if not (0.3 <= ratio <= 0.75):
            warnings.append(f"RMS(4N)/RMS(N) = {ratio:g} outside [0.3, 0.75]")

    _summary(out_dir, "martingale_summary", {
        "subcommand": "martingale",
        "config": opts.echo(["gen", "seed", "N", "trials", "window",
                             "window_func", "with_ratio"]),
        "rms": rms,
        "rms_bound": bound,
        "rms_ratio_4N": ratio,
        "sup_f": f.sup,
        "warnings": warnings,
    })
    return 0


def _digit_functions(gen: measures.MeasureGen, spec: str):
    out = []
    for name in str(spec).split(","):
        name = name.strip()
        if name.startswith("ind"):
            out.append(ergodic.first_digit_indicator(gen.base, int(name[3:])))
        elif name.startswith("e") and "w" in name:
            m_part, w_part = name[1:].split("w")
            out.append(ergodic.character_on_digits(gen.base, int(w_part), int(m_part)))
        else:
            raise InputError(f"unknown test function {name!r}")
    return out


def run_time_change(opts: Options, out_dir: Path, warnings: list[str]) -> int:
    gen = parse_generator(opts.require("gen"))
    seed = opts.require("seed", _int)
    theta = opts.require("theta", parse_real)
    beta = theta if opts.get("beta") in (None, "theta") else opts.get("beta", parse_real)
    js = opts.get("js", _int_list)
    gs = opts.get("gfuncs", lambda spec: _digit_functions(gen, spec))
    N = opts.get("N", _int)
    M = opts.get("M", _int)

    res = ergodic.time_change_joint_experiment(
        theta, beta, gen, js=js, gs=gs, N=N, M=M, seed=seed)
    rows = []
    for ji, j in enumerate(res.js):
        for gi, label in enumerate(res.g_labels):
            rows.append((j, label,
                         float(res.averages[ji, gi].real),
                         float(res.averages[ji, gi].imag),
                         float(res.z_scores[ji, gi])))
    reports.write_csv(out_dir / "time_change.csv",
                      ["j", "g", "re", "im", "z_score"], rows)
    dev = res.deviations()
    if not res.all_within_tolerance():
        worst = float(dev.max())
        warnings.append(
            f"max deviation {worst:g} above tolerance {res.tolerance:g}")
    _summary(out_dir, "time_change_summary", {
        "subcommand": "time-change",
        "config": opts.echo(["gen", "seed", "theta", "beta", "js", "gfuncs",
                             "N", "M"]),
        "tolerance": res.tolerance,
        "eps_N": res.eps_N,
        "max_deviation": float(dev.max()),
        "all_within_tolerance": res.all_within_tolerance(),
        "warnings": warnings,
    })
    return 0


def run_equivariance(opts: Options, out_dir: Path, warnings: list[str]) -> int:
    seed = opts.require("seed", _int)
    pairs = opts.get("pairs", _int)
    gen_specs = str(opts.get("gens")).split(",")
    named = {
        "bernoulli": measures.bernoulli(2, [0.3, 0.7]),
        "markov": measures.markov([[0.9, 0.1], [0.5, 0.5]]),
        "cantor": measures.cantor3(),
    }
    rows = []
    all_ok = True
    for gi, name in enumerate(gen_specs):
        gen = named.get(name.strip()) or parse_generator(name.strip())
        rng = reports.derive_rng(seed, gi)
        for trial in range(pairs):
            past = measures.sample_past(gen, int(rng.integers(1, 7)), rng)
            wlen = int(rng.integers(1, 4))
            start = past.symbols[0] if gen.kind == measures.MARKOV else None
            digits = measures.sample_digits(gen, wlen, rng, start=start)
            N = wlen + int(rng.integers(2, 6))
            diff = measures.equivariance_gap(gen, past,
                                             measures.word(gen.base, digits), N)
            ok = diff <= 1e-12
            all_ok &= ok
            rows.append((name.strip(), trial, len(past.symbols), wlen, diff, ok))
    reports.write_csv(out_dir / "equivariance.csv",
                      ["gen", "trial", "past_len", "word_len", "max_abs_diff",
                       "ok"], rows)
    _summary(out_dir, "equivariance_summary", {
        "subcommand": "equivariance",
        "config": opts.echo(["gens", "pairs", "seed"]),
        "rows": len(rows),
        "all_ok": all_ok,
        "warnings": warnings,
    })
    return 0 if all_ok else 1


def run_controls(opts: Options, out_dir: Path, warnings: list[str]) -> int:
    mode = str(opts.get("mode"))
    seed = opts.require("seed", _int)
    rows = []

    if mode in ("dependent", "both"):
        a = opts.get("a", _int)
        b = opts.get("b", _int)
        gen = measures.bernoulli(a, [0.25, 0.75]) if a == 2 else measures.uniform(a)
        cfg = pipeline.HostExperimentConfig(
            gen=gen, b=b, seed=seed, samples=opts.get("samples", _int),
            checkpoints=(10_000, 100_000), freqs=(1,),
            label="negative-control-dependent")
        rep = pipeline.host_experiment(cfg)
        # transform of realize(gen, 20), from its product structure alone
        mu_hat = complex(fourier._ft_structured(
            gen.base, 20, ("product", gen.p, 20), [1.0])[0])
        final_N = cfg.checkpoints[-1]
        ws = {(r[0], r[1], r[2]): complex(r[3], r[4]) for r in rep.rows}
        for s in range(cfg.samples):
            w = ws[s, 1, final_N]
            err = abs(w - mu_hat)
            ok = err < 0.05
            if not ok:
                warnings.append(f"dependent control sample {s}: |W - mu_hat| = {err:g}")
            rows.append(("dependent", s, final_N, float(w.real), float(w.imag),
                         float(err), ok))

    if mode in ("rational", "both"):
        N = opts.get("N_rational", _int)
        reps = N // 3 + 64
        x = adic.make_point_from_digits(2, [0, 0, 1] * reps)
        acc = pipeline.weyl_sum(x, 2, freqs=(1,), checkpoints=(N,))
        target = sum(np.exp(2j * np.pi * r / 7) for r in (1, 2, 4)) / 3
        err = abs(acc.value(N, 1) - target)
        ok = err < 1e-3
        if not ok:
            warnings.append(f"rational control error {err:g} above 1e-3")
        rows.append(("rational", 0, N, float(acc.value(N, 1).real),
                     float(acc.value(N, 1).imag), float(err), ok))

    if not rows:
        raise InputError(f"unknown controls mode {mode!r}")
    reports.write_csv(out_dir / "controls.csv",
                      ["mode", "sample", "N", "re", "im", "err", "ok"], rows)
    _summary(out_dir, "controls_summary", {
        "subcommand": "controls",
        "config": opts.echo(["mode", "a", "b", "samples", "N_rational", "seed"]),
        "label": "negative-control",
        "rows": len(rows),
        "all_ok": all(r[-1] for r in rows),
        "warnings": warnings,
    })
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

DEFAULTS = {
    "weyl": {"samples": 50, "checkpoints": "1000,10000,100000", "m": "1,2,3",
             "k": 0, "soft_median_threshold": 0.05, "label": "", "dat": False},
    "fourier-cert": {"battery": "default"},
    "proof-chain": {"m": 1, "ks": "0,2,4,6", "samples": 8, "level": None},
    "martingale": {"N": 10_000, "trials": 100, "window": 1,
                   "window_func": "sign0", "with_ratio": False},
    "time-change": {"beta": "theta", "js": "0,1,2,3", "gfuncs": "ind0,e1w12",
                    "N": 10_000, "M": 100},
    "equivariance": {"pairs": 100, "gens": "bernoulli,markov,cantor"},
    "controls": {"mode": "both", "a": 2, "b": 2, "samples": 1,
                 "N_rational": 30_000},
}

RUNNERS = {
    "weyl": run_weyl,
    "fourier-cert": run_fourier_cert,
    "proof-chain": run_proof_chain,
    "martingale": run_martingale,
    "time-change": run_time_change,
    "equivariance": run_equivariance,
    "controls": run_controls,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hostlab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="flat key/value JSON file")
        p.add_argument("--out", help="output directory (default hostlab-out)")
        p.add_argument("--seed", type=int, help="master seed (required)")
        p.add_argument("--strict", action="store_const", const=True, default=None,
                       help="soft-threshold misses exit 1")

    p = sub.add_parser("weyl", help="checkpointed Weyl sums along xb orbits")
    common(p)
    p.add_argument("--gen")
    p.add_argument("--b", type=int)
    p.add_argument("--m", help="comma-separated nonzero frequencies")
    p.add_argument("--N", dest="checkpoints_max", type=int,
                   help="shorthand: checkpoints 1e3..N")
    p.add_argument("--checkpoints")
    p.add_argument("--samples", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--soft-median-threshold", dest="soft_median_threshold",
                   type=float)
    p.add_argument("--label")
    p.add_argument("--dat", action="store_const", const=True, default=None)

    p = sub.add_parser("fourier-cert", help="certify both smoothing bounds")
    common(p)
    p.add_argument("--battery", choices=["default", "quick"])

    p = sub.add_parser("proof-chain", help="k-decay of the scale integral")
    common(p)
    p.add_argument("--gen")
    p.add_argument("--b", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--ks")
    p.add_argument("--samples", type=int)
    p.add_argument("--level", type=int)

    p = sub.add_parser("martingale", help="Cesaro averages of window differences")
    common(p)
    p.add_argument("--gen")
    p.add_argument("--N", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--window-func", dest="window_func", choices=["parity", "sign0"])
    p.add_argument("--with-ratio", dest="with_ratio", action="store_const",
                   const=True, default=None)

    p = sub.add_parser("time-change", help="joint rotation/orbit averages")
    common(p)
    p.add_argument("--gen")
    p.add_argument("--theta", help="float or log:B,A")
    p.add_argument("--beta", help="float, log:B,A, or 'theta'")
    p.add_argument("--js")
    p.add_argument("--gfuncs", help="e.g. ind0,e1w12")
    p.add_argument("--N", type=int)
    p.add_argument("--M", type=int)

    p = sub.add_parser("equivariance", help="conditioning/shift consistency battery")
    common(p)
    p.add_argument("--pairs", type=int)
    p.add_argument("--gens")

    p = sub.add_parser("controls", help="negative controls (dependent pair, rational point)")
    common(p)
    p.add_argument("--mode", choices=["dependent", "rational", "both"])
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--N-rational", dest="N_rational", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args.subcommand
    try:
        if getattr(args, "checkpoints_max", None) is not None:
            # --N is flag shorthand for --checkpoints, so it outranks the file
            if args.checkpoints is not None:
                raise InputError("give --N or --checkpoints, not both")
            n_max = args.checkpoints_max
            cps = [n for n in (1000, 10_000, 100_000) if n < n_max] + [n_max]
            args.checkpoints = ",".join(map(str, cps))
        opts = Options(args, DEFAULTS[sub])
        opts.require("seed")
        reports.thread_count()      # a bad HOSTLAB_THREADS is exit 2 on any subcommand
        out_dir = Path(opts.get("out") or "hostlab-out")
        out_dir.mkdir(parents=True, exist_ok=True)
        warnings: list[str] = []
        code = RUNNERS[sub](opts, out_dir, warnings)
        for w in warnings:
            print(f"WARNING: {w}", file=sys.stderr)
        if warnings and opts.get("strict"):
            print(f"strict mode: {len(warnings)} soft failure(s)", file=sys.stderr)
            return 1
        if warnings:
            print(SOFT_EXIT_NOTE, file=sys.stderr)
        return code
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, QuadratureError) as exc:
        print(f"resource/precision error: {exc}", file=sys.stderr)
        if getattr(exc, "diagnostics", None):
            print("diagnostics: " + ", ".join(f"{k}={v}" for k, v in exc.diagnostics.items()),
                  file=sys.stderr)
        return 3
    except HostlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
