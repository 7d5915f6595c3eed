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
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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


def _switch(value) -> bool:
    """A switch's value: only JSON true or false, never a truthy string like "false"."""
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def _int_list(spec) -> list[int]:
    if isinstance(spec, (list, tuple)):
        return [_int(v) for v in spec]
    return [_int(v) for v in str(spec).split(",") if v.strip()]


class Opt(NamedTuple):
    """An option's reader (`_switch` for a switch), default, and allowed values and help."""
    reader: Callable
    default: object = None
    choices: tuple | None = None
    help: str | None = None


COMMON = {
    "config": Opt(str, help="flat key/value JSON file"),
    "out": Opt(str, "hostlab-out", help="output directory (default hostlab-out)"),
    "seed": Opt(_int, help="master seed (required)"),
    "strict": Opt(_switch, False, help="soft-threshold misses exit 1"),
}

# Each subcommand's options, the one place each is declared.  The flag is
# --<key> with '_' as '-'; `_int` and `float` readers are argparse types too,
# so a flag's value keeps its type in the summary's config echo.
OPTIONS = {
    "weyl": {
        "gen": Opt(parse_generator),
        "b": Opt(_int),
        "m": Opt(_int_list, "1,2,3", help="comma-separated nonzero frequencies"),
        "checkpoints": Opt(_int_list, "1000,10000,100000"),
        "samples": Opt(_int, 50),
        "k": Opt(_int, 0),
        "soft_median_threshold": Opt(float, 0.05),
        "label": Opt(str, "", help="run tag, only echoed in the summary"),
        "dat": Opt(_switch, False),
    },
    "fourier-cert": {"battery": Opt(str, "default", ("default", "quick"))},
    "proof-chain": {
        "gen": Opt(parse_generator),
        "b": Opt(_int),
        "m": Opt(_int, 1),
        "ks": Opt(_int_list, "0,2,4,6"),
        "samples": Opt(_int, 8, help="checked and echoed only: the past average is exact"),
        "level": Opt(_int),
    },
    "martingale": {
        "gen": Opt(parse_generator),
        "N": Opt(_int, 10_000),
        "trials": Opt(_int, 100),
        "window": Opt(_int, 1),
        "window_func": Opt(str, "sign0", ("parity", "sign0")),
        "with_ratio": Opt(_switch, False),
    },
    "time-change": {
        "gen": Opt(parse_generator),
        "theta": Opt(parse_real, help="float or log:B,A"),
        "beta": Opt(parse_real, "theta", help="float, log:B,A, or 'theta'"),
        "js": Opt(_int_list, "0,1,2,3"),
        "gfuncs": Opt(str, "ind0,e1w12", help="e.g. ind0,e1w12"),
        "N": Opt(_int, 10_000),
        "M": Opt(_int, 100),
    },
    "equivariance": {"pairs": Opt(_int, 100), "gens": Opt(str, "bernoulli,markov,cantor")},
    "controls": {
        "mode": Opt(str, "both", ("dependent", "rational", "both")),
        "a": Opt(_int, 2),
        "b": Opt(_int, 2),
        "samples": Opt(_int, 1),
        "N_rational": Opt(_int, 30_000),
    },
}


class Options:
    """Flag values over config-file values over the table's defaults."""

    def __init__(self, args: argparse.Namespace, table: dict[str, Opt]):
        self._args = vars(args)
        self._table = table
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
            unknown = [key for key in self._file if key not in table]
            if unknown:
                raise InputError("config file keys not options of this subcommand: "
                                 + ", ".join(map(repr, unknown)))

    def raw(self, key: str):
        """The value as given, unread: what the summary echoes."""
        value = self._args.get(key)
        return self._file.get(key, self._table[key].default) if value is None else value

    def get(self, key: str, reader=None):
        """The value, read by the table's reader, or by `reader` where the
        reading depends on another option; a value the reader cannot read,
        or one outside the option's choices, is a config error."""
        value = self.raw(key)
        if value is None:
            return None
        opt = self._table[key]
        try:
            read = (reader or opt.reader)(value)
            if opt.choices and read not in opt.choices:
                raise ValueError(f"expected one of {', '.join(opt.choices)}")
            return read
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise InputError(f"bad value {value!r} for --{key.replace('_', '-')}: {exc}") from exc

    def require(self, key: str):
        if self.raw(key) is None:
            raise InputError(f"missing required option --{key.replace('_', '-')}")
        return self.get(key)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_weyl(opts: Options, out_dir: Path, warnings: list[str]) -> tuple[int, dict]:
    threshold = opts.get("soft_median_threshold")
    cfg = pipeline.HostExperimentConfig(
        gen=opts.require("gen"),
        b=opts.require("b"),
        seed=opts.get("seed"),
        samples=opts.get("samples"),
        checkpoints=tuple(opts.get("checkpoints")),
        freqs=tuple(opts.get("m")),
        k=opts.get("k"),
    )
    rep = pipeline.host_experiment(cfg)
    mags = np.abs(rep.W)                                # one |W| for the CSV and the quantiles
    reports.write_csv(out_dir / "weyl.csv", ["sample", "m", "N", "re", "im", "abs"],
                      [(i, cfg.freqs[f], cfg.checkpoints[c], float(w.real), float(w.imag),
                        float(mags[i, c, f])) for (i, c, f), w in np.ndenumerate(rep.W)])
    med = np.median(mags, axis=0).tolist()              # [checkpoint][freq]
    p90 = np.percentile(mags, 90, axis=0).tolist()
    if opts.get("dat"):
        header = (["N"] + [f"median_m{m}" for m in cfg.freqs]
                  + [f"p90_m{m}" for m in cfg.freqs])
        with open(out_dir / "weyl.dat", "w", encoding="utf-8", newline="") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for N, row_med, row_p90 in zip(cfg.checkpoints, med, p90):
                fh.write(" ".join(reports.fmt(v) for v in (N, *row_med, *row_p90)) + "\n")

    decreasing, final_ok = {}, {}
    for m, series in zip(cfg.freqs, zip(*med)):
        decreasing[str(m)] = all(y < x for x, y in zip(series, series[1:]))
        final_ok[str(m)] = series[-1] < threshold
        if not decreasing[str(m)]:
            warnings.append(f"median |W_N({m})| not strictly decreasing")
        if not final_ok[str(m)]:
            warnings.append(f"final median |W({m})| above soft threshold {threshold}")

    def by_key(vals):
        return {f"m={m},N={N}": v for N, row in zip(cfg.checkpoints, vals)
                for m, v in zip(cfg.freqs, row)}

    return 0, {
        "negative_control": rep.negative_control,
        "medians": by_key(med),
        "p90": by_key(p90),
        "medians_decreasing": decreasing,
        "final_median_ok": final_ok,
        "per_sample_seed_keys": [[cfg.seed, i] for i in range(cfg.samples)],
        "diagnostics": {"precision_budget": {
            **dataclasses.asdict(rep.budget),
            "digits_consumed": rep.budget.L - rep.budget.guard_digits}},
    }


def run_fourier_cert(opts: Options, out_dir: Path, warnings: list[str]) -> tuple[int, dict]:
    battery = opts.get("battery")
    if battery == "quick":
        densities = fourier.c1_default_battery()[:3]
        ts = [1, -2, 10]
        meas = [("cantor3", measures.realize(measures.cantor3(), 7))]
        ms, bs = [1, -1, 2], [2.0]
        rs = [3.0 ** -j for j in (1, 2)]
    else:
        densities = fourier.c1_default_battery()
        ts = [t for base in (1, 2, 5, 10, 100) for t in (base, -base)]
        meas = fourier.default_measure_battery(opts.get("seed"))
        ms = [m for mm in range(1, 9) for m in (mm, -mm)]
        bs = [2.0, 10.0]
        rs = [3.0 ** -j for j in range(1, 7)]

    c1_rows = fourier.c1_certificate(densities, ts)
    reports.write_csv(out_dir / "c1_cert.csv",
                      ["density", "t", "lhs", "rhs", "margin", "ok"],
                      [(r["density"], r["t"], r["lhs"], r["rhs"], r["margin"],
                        r["ok"]) for r in c1_rows])

    rows = fourier.smoothing_certificate(meas, ms, bs, rs, parallel_map=reports.parallel_map)
    reports.write_csv(out_dir / "fourier_cert.csv",
                      ["measure", "m", "b", "r", "lhs", "rhs", "margin", "ok"],
                      [(r["measure"], r["m"], r["b"], r["r"], r["lhs"],
                        r["rhs"], r["margin"], r["ok"]) for r in rows])

    bad = [r for r in c1_rows if not r["ok"]] + [r for r in rows if not r["ok"]]
    return 1 if bad else 0, {
        "c1_rows": len(c1_rows),
        "smoothing_rows": len(rows),
        "failures": len(bad),
        "all_ok": not bad,
        "diagnostics": {"worst_margin": {"c1": _worst_margin(c1_rows, ("density", "t")),
                                         "smoothing": _worst_margin(rows, ("measure", "m", "b", "r"))}},
    }


def _worst_margin(rows, names) -> dict:
    """The least margin over rows and the fields naming its row (the first on a tie)."""
    row = min(rows, key=lambda r: r["margin"])
    return {"margin": row["margin"], **{k: row[k] for k in names}}


def run_proof_chain(opts: Options, out_dir: Path, warnings: list[str]) -> tuple[int, dict]:
    gen = opts.require("gen")
    if opts.require("b") < 2:       # checked and echoed only: the z-average does not read b
        raise InputError("b must be >= 2")
    ks = sorted(opts.get("ks"))     # rows and the decay check go by k, not by the order given
    if not ks or len(set(ks)) < len(ks):
        raise InputError("need at least one scale k in --ks, each given once: "
                         "each k names one row")
    # --samples is checked and echoed only, and std_error is 0.0: the past average is exact
    samples = opts.require("samples")
    if samples < 1:
        raise InputError("samples must be >= 1")
    ests = [pipeline.proof_chain_quantity(gen, k=k, m=opts.get("m"), level=opts.get("level"))
            for k in ks]
    rows = [(e.k, e.m, samples, e.level, e.value, 0.0,
             e.scale_term, e.corr_term, e.rhs, e.value <= e.rhs + fourier.SLACK)
            for e in ests]
    reports.write_csv(out_dir / "proof_chain.csv",
                      ["k", "m", "samples", "level", "value", "std_error",
                       "scale_term", "corr_term", "rhs", "ok"], rows)

    hard_bad = [e for e in ests if e.value > e.rhs + fourier.SLACK]
    for prev, cur in zip(ests, ests[1:]):
        if cur.value > prev.value:
            warnings.append(f"value at k={cur.k} above k={prev.k}")
    return 1 if hard_bad else 0, {
        "values": [e.value for e in ests],
        "rhs": [e.rhs for e in ests],
        "all_bounded": not hard_bad,
    }


def run_martingale(opts: Options, out_dir: Path, warnings: list[str]) -> tuple[int, dict]:
    gen = opts.require("gen")
    N, with_ratio = opts.get("N"), opts.get("with_ratio")
    parity, window = opts.get("window_func") == "parity", opts.get("window")
    if window != 1 and not parity:
        raise InputError(f"--window {window} needs --window-func parity; sign0 reads one digit")
    f = ergodic.parity_window(gen.base, window) if parity else ergodic.first_digit_sign(gen.base)

    def trial_rms(n: int, name: str) -> float:
        vals = ergodic.martingale_avg_experiment(gen, f, n, opts.get("trials"), opts.get("seed"))
        reports.write_csv(out_dir / name, ["trial", "N", "value"],
                          [(t, n, float(v)) for t, v in enumerate(vals)])
        return float(np.sqrt(np.mean(vals ** 2)))

    rms = trial_rms(N, "martingale.csv")
    bound = 3.0 * f.sup / math.sqrt(N)
    if rms > bound:
        warnings.append(f"trial RMS {rms:g} above soft bound {bound:g}")

    ratio = None
    if with_ratio:
        rms4 = trial_rms(4 * N, "martingale_4N.csv")
        ratio = rms4 / rms if rms > 0 else None     # null in the summary: JSON has no NaN
        if ratio is None:
            warnings.append("RMS(4N)/RMS(N) undefined: RMS(N) = 0")
        elif not (0.3 <= ratio <= 0.75):
            warnings.append(f"RMS(4N)/RMS(N) = {ratio:g} outside [0.3, 0.75]")

    return 0, {
        "rms": rms,
        "rms_bound": bound,
        "rms_ratio_4N": ratio,
        "sup_f": f.sup,
    }


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


def run_time_change(opts: Options, out_dir: Path, warnings: list[str]) -> tuple[int, dict]:
    gen = opts.require("gen")
    theta = opts.require("theta")
    beta = theta if opts.raw("beta") in (None, "theta") else opts.get("beta")
    gs = opts.get("gfuncs", lambda spec: _digit_functions(gen, spec))

    res = ergodic.time_change_joint_experiment(
        theta, beta, gen, js=opts.get("js"), gs=gs, N=opts.get("N"), M=opts.get("M"),
        seed=opts.get("seed"))
    rows = []
    for ji, j in enumerate(res.js):
        for gi, label in enumerate(res.g_labels):
            z = float(res.z_scores[ji, gi])
            if math.isnan(z):
                z = ""
                warnings.append(f"z-score undefined at (j={j}, g={label}): "
                                f"the {opts.get('M')} samples have no spread")
            rows.append((j, label,
                         float(res.averages[ji, gi].real),
                         float(res.averages[ji, gi].imag), z))
    reports.write_csv(out_dir / "time_change.csv",
                      ["j", "g", "re", "im", "z_score"], rows)
    worst = float(res.deviations().max())
    if not res.all_within_tolerance():
        warnings.append(f"max deviation {worst:g} above tolerance {res.tolerance:g}")
    return 0, {
        "tolerance": res.tolerance,
        "eps_N": res.eps_N,
        "max_deviation": worst,
        "all_within_tolerance": res.all_within_tolerance(),
    }


def _split_gens(spec: str, names) -> list[str]:
    """A --gens list split only at a comma before one of `names`, cantor3 or a
    grammar head such as uniform: or ifs:, so bernoulli:0.3,0.7 stays one spec."""
    alias = "|".join((*names, "cantor3"))
    return re.split(rf",(?=\s*(?:(?:{alias})\s*(?:,|$)|(?:uniform|bernoulli|markov|ifs):))", spec)


def run_equivariance(opts: Options, out_dir: Path, warnings: list[str]) -> tuple[int, dict]:
    named = {
        "bernoulli": measures.bernoulli(2, [0.3, 0.7]),
        "markov": measures.markov([[0.9, 0.1], [0.5, 0.5]]),
        "cantor": measures.cantor3(),
    }
    pairs = opts.get("pairs")
    if pairs < 1:
        raise InputError(f"need --pairs >= 1, got {pairs}")
    rows = []
    all_ok = True
    for gi, name in enumerate(_split_gens(opts.get("gens"), named)):
        gen = named.get(name.strip()) or parse_generator(name.strip())
        rng = reports.derive_rng(opts.get("seed"), gi)
        for trial in range(pairs):
            past = measures.sample_past(gen, int(rng.integers(1, 7)), rng)
            wlen = int(rng.integers(1, 4))
            digits = measures.sample_digits(gen, wlen, rng, start=past.symbols[0])
            N = wlen + int(rng.integers(2, 6))
            diff = measures.equivariance_gap(gen, past,
                                             measures.word(gen.base, digits), N)
            ok = diff <= 1e-12
            all_ok &= ok
            rows.append((name.strip(), trial, len(past.symbols), wlen, diff, ok))
    reports.write_csv(out_dir / "equivariance.csv",
                      ["gen", "trial", "past_len", "word_len", "max_abs_diff",
                       "ok"], rows)
    return 0 if all_ok else 1, {"rows": len(rows), "all_ok": all_ok}


def run_controls(opts: Options, out_dir: Path, warnings: list[str]) -> tuple[int, dict]:
    mode = opts.get("mode")
    rows = []

    if mode in ("dependent", "both"):
        a = opts.get("a")
        gen = measures.bernoulli(a, [0.25, 0.75]) if a == 2 else measures.uniform(a)
        cfg = pipeline.HostExperimentConfig(
            gen=gen, b=opts.get("b"), seed=opts.get("seed"), samples=opts.get("samples"),
            checkpoints=(10_000, 100_000), freqs=(1,))
        rep = pipeline.host_experiment(cfg)
        mu_hat = fourier.ft_adic(measures.realize(gen, 20), 1.0)
        final_N = cfg.checkpoints[-1]
        for s, w in enumerate(rep.W[:, -1, 0].tolist()):
            err = abs(w - mu_hat)
            ok = err < 0.05
            if not ok:
                warnings.append(f"dependent control sample {s}: |W - mu_hat| = {err:g}")
            rows.append(("dependent", s, final_N, float(w.real), float(w.imag),
                         float(err), ok))

    if mode in ("rational", "both"):
        N = opts.get("N_rational")
        reps = N // 3 + 64
        x = adic.make_point_from_digits(2, [0, 0, 1] * reps)
        w = pipeline.weyl_sum(x, 2, freqs=(1,), checkpoints=(N,))[0, 0]
        target = sum(np.exp(2j * np.pi * r / 7) for r in (1, 2, 4)) / 3
        err = abs(w - target)
        ok = err < 1e-3
        if not ok:
            warnings.append(f"rational control error {err:g} above 1e-3")
        rows.append(("rational", 0, N, float(w.real), float(w.imag), float(err), ok))

    reports.write_csv(out_dir / "controls.csv",
                      ["mode", "sample", "N", "re", "im", "err", "ok"], rows)
    return 0, {"label": "negative-control", "rows": len(rows),
               "all_ok": all(r[-1] for r in rows)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# A runner writes its outputs and returns its exit code and its own summary fields.
RUNNERS = {
    "weyl": (run_weyl, "checkpointed Weyl sums along xb orbits"),
    "fourier-cert": (run_fourier_cert, "certify both smoothing bounds"),
    "proof-chain": (run_proof_chain, "k-decay of the scale integral"),
    "martingale": (run_martingale, "Cesaro averages of window differences"),
    "time-change": (run_time_change, "joint rotation/orbit averages"),
    "equivariance": (run_equivariance, "conditioning/shift consistency battery"),
    "controls": (run_controls, "negative controls (dependent pair, rational point)"),
}

ARGPARSE_TYPES = {_int: int, float: float}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hostlab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_) in RUNNERS.items():
        p = sub.add_parser(name, help=help_)
        for key, opt in {**COMMON, **OPTIONS[name]}.items():
            if opt.reader is _switch:
                kind = {"action": "store_const", "const": True}
            else:
                kind = {"type": ARGPARSE_TYPES.get(opt.reader), "choices": opt.choices}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=opt.help, **kind)
        if name == "weyl":
            p.add_argument("--N", dest="checkpoints_max", type=int,
                           help="shorthand: checkpoints 1e3..N")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sub = args.subcommand
    try:
        if getattr(args, "checkpoints_max", None) is not None:
            # --N is flag shorthand for --checkpoints, so it outranks the file
            if args.checkpoints is not None:
                raise InputError("give --N or --checkpoints, not both")
            n_max = args.checkpoints_max
            cps = [n for n in (1000, 10_000, 100_000) if n < n_max] + [n_max]
            args.checkpoints = ",".join(map(str, cps))
        opts = Options(args, {**COMMON, **OPTIONS[sub]})
        opts.require("seed")
        strict = opts.get("strict")
        reports.thread_count()      # a bad HOSTLAB_THREADS is exit 2 on any subcommand
        out_dir = Path(opts.get("out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        warnings: list[str] = []
        code, fields = RUNNERS[sub][0](opts, out_dir, warnings)
        reports.write_json(out_dir / f"{sub.replace('-', '_')}_summary.json", {
            "subcommand": sub,
            "config": {k: opts.raw(k) for k in (*OPTIONS[sub], "seed")},
            **fields,
            "warnings": warnings,
            "generated_by": reports.version_string(),
        })
        for w in warnings:
            print(f"WARNING: {w}", file=sys.stderr)
        if warnings and strict:
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
