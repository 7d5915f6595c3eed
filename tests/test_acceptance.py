"""Acceptance criteria, one test per criterion, each printing a PASS line.

Statistical thresholds marked soft below emit warnings instead of failing,
matching the CLI's behavior; certified inequalities and exact identities
are hard assertions.
"""

import json
import math
import time
import warnings as warnings_mod

import numpy as np
import pytest
from scipy.integrate import quad

from hostlab import cli
from hostlab.adic import make_point_from_digits
from hostlab.ergodic import (
    character_on_digits,
    first_digit_indicator,
    first_digit_sign,
    martingale_avg_experiment,
    parity_window,
    time_change_joint_experiment,
)
from hostlab.fourier import (
    SmoothingParams,
    c1_certificate,
    c1_default_battery,
    default_measure_battery,
    ft_adic,
    quadratic_bump,
    scaled_sq_integral,
    smoothing_certificate,
)
from hostlab.measures import (
    bernoulli,
    cantor3,
    correlation_integral,
    equivariance_gap,
    markov,
    realize,
    sample_digits,
    uniform,
    sample_past,
    word,
)
from hostlab.pipeline import (
    HostExperimentConfig,
    host_experiment,
    proof_chain_quantity,
    weyl_sum,
)
from oracles import mc_scaled_sq

MARKOV_P = [[0.9, 0.1], [0.5, 0.5]]
LOG23 = math.log(2.0) / math.log(3.0)


def report(cid: str, status: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {status} - {detail}", flush=True)


def test_criterion_1_c1_density_bound():
    t0 = time.perf_counter()
    ts = [t for base in (1, 2, 5, 10, 100) for t in (base, -base)]
    rows = c1_certificate(c1_default_battery(), ts, slack=1e-4)
    assert len(rows) >= 3 * 10
    assert all(r["ok"] for r in rows)

    # closed form: the [0,1] quadratic bump transforms to -3/pi^2 at t = 1
    spec = quadratic_bump()
    re, _ = quad(spec.f, 0, 1, weight="cos", wvar=2 * math.pi, epsabs=1e-12)
    im, _ = quad(spec.f, 0, 1, weight="sin", wvar=2 * math.pi, epsabs=1e-12)
    assert abs(complex(re, im) - (-3.0 / math.pi ** 2)) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("1", "PASS", f"{len(rows)} density rows certified in {elapsed:.2f}s; "
           f"f-hat(1) = -3/pi^2 confirmed")


def test_criterion_2_smoothing_certification():
    t0 = time.perf_counter()
    seed = 20240
    measures = default_measure_battery(seed)
    ms = [m for mm in range(1, 9) for m in (mm, -mm)]
    bs = [2.0, 10.0]
    rs = [3.0 ** -j for j in range(1, 7)]
    rows = smoothing_certificate(measures, ms, bs, rs, slack=1e-4)
    assert len(rows) == 4 * 16 * 2 * 6
    bad = [r for r in rows if not r["ok"]]
    assert not bad, f"{len(bad)} rows violated the bound"

    # Monte Carlo cross-check of the scale average on 5 random rows, 3 sigma
    rng = np.random.default_rng(seed)
    by_measure = dict(measures)
    picks = rng.choice(len(rows), size=5, replace=False)
    for idx in picks:
        row = rows[int(idx)]
        mu = by_measure[row["measure"]]
        est, se = mc_scaled_sq(mu, row["b"], row["m"], pairs=100_000, rng=rng)
        assert abs(row["lhs"] - est) <= 3.0 * se + 1e-4, row
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("2", "PASS", f"{len(rows)} rows certified, 5 Monte Carlo "
           f"cross-checks within 3 sigma, {elapsed:.1f}s")


def test_criterion_3_equivariance_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    total = 0
    for gen in (bernoulli(2, [0.3, 0.7]), markov(MARKOV_P), cantor3()):
        for _ in range(100):
            past = sample_past(gen, int(rng.integers(1, 7)), rng)
            wlen = int(rng.integers(1, 4))
            start = past.symbols[0] if gen.kind == "markov" else None
            digits = sample_digits(gen, wlen, rng, start=start)
            N = wlen + int(rng.integers(2, 6))
            assert equivariance_gap(gen, past, word(gen.base, digits), N) <= 1e-12
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("3", "PASS", f"{total} random (past, cylinder) pairs exact to 1e-12 "
           f"in {elapsed:.1f}s")


def test_criterion_4_host_desk_scale():
    t0 = time.perf_counter()
    cfg = HostExperimentConfig(gen=cantor3(), b=2, seed=2025, samples=50,
                               checkpoints=(1000, 10_000, 100_000),
                               freqs=(1, 2, 3))
    rep = host_experiment(cfg)
    assert not rep.negative_control
    assert all(r[5] <= 1.0 + 1e-12 for r in rep.rows)

    soft_fail = []
    for m in cfg.freqs:
        if not rep.medians_decreasing[m]:
            soft_fail.append(f"medians for m={m} not strictly decreasing")
    final = rep.medians[(1, 100_000)]
    if final >= 0.05:
        soft_fail.append(f"median |W_1e5(1)| = {final:.4f} >= 0.05")
    for msg in soft_fail:
        warnings_mod.warn("soft threshold missed: " + msg)
    elapsed = time.perf_counter() - t0
    med = {f"m={m}": [round(rep.medians[(m, N)], 4) for N in cfg.checkpoints]
           for m in cfg.freqs}
    status = "PASS" if not soft_fail else "WARN"
    report("4", status, f"medians {med}, final median(m=1) = {final:.4f}, "
           f"{elapsed:.0f}s")


def test_criterion_5_negative_controls():
    t0 = time.perf_counter()
    # (i) multiplicatively dependent pair: the orbit average recovers the
    # transform of the invariant measure instead of vanishing
    gen = bernoulli(2, [0.25, 0.75])
    rng = np.random.default_rng(77)
    digits = sample_digits(gen, 100_000 + 64, rng)
    x = make_point_from_digits(2, digits)
    acc = weyl_sum(x, 2, freqs=(1,), checkpoints=(100_000,))
    mu_hat = ft_adic(realize(gen, 20), 1.0)
    err_dep = abs(acc[0, 0] - mu_hat)
    assert err_dep < 0.05
    assert abs(mu_hat) > 0.1          # the limit is genuinely nonzero

    # (ii) rational point: the 3-cycle average, exactly
    x7 = make_point_from_digits(2, [0, 0, 1] * 10_064)
    acc7 = weyl_sum(x7, 2, freqs=(1,), checkpoints=(30_000,))
    target = (-1.0 + 1j * math.sqrt(7.0)) / 6.0
    err_rat = abs(acc7[0, 0] - target)
    assert err_rat < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("5", "PASS", f"dependent-pair error {err_dep:.4f} < 0.05, rational "
           f"3-cycle error {err_rat:.2e} < 1e-3, {elapsed:.0f}s")


def test_criterion_6_proof_chain_decay():
    t0 = time.perf_counter()
    ests = [proof_chain_quantity(cantor3(), b=2, k=k, m=1, samples=8,
                                 level=9, seed=606) for k in (0, 2, 4, 6)]
    for est in ests:
        assert est.value <= est.rhs + 1e-4
    for prev, cur in zip(ests, ests[1:]):
        slack = 2.0 * (prev.std_error + cur.std_error)
        assert cur.value <= prev.value + slack

    # correlation decay rate across r = 3^-j, j = 2..8
    mu = realize(cantor3(), 13)
    js = np.arange(2, 9)
    vals = [correlation_integral(mu, 3.0 ** -j) for j in js]
    slope = np.polyfit(-js * math.log(3.0), np.log(vals), 1)[0]
    assert abs(slope - LOG23) < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    values = [round(e.value, 5) for e in ests]
    report("6", "PASS", f"k-decay {values} all below companion bounds, "
           f"correlation log-slope {slope:.4f} vs {LOG23:.4f}, {elapsed:.0f}s")


def test_criterion_7_martingale_rms():
    t0 = time.perf_counter()
    configs = [
        (uniform(2), 71, first_digit_sign(2)),
        (uniform(2), 72, parity_window(2, 3)),
        (markov(MARKOV_P), 73, first_digit_sign(2)),
        (markov(MARKOV_P), 74, parity_window(2, 3)),
    ]
    ratios = []
    for gen, seed, f in configs:
        vals = martingale_avg_experiment(gen, f, N=10_000, trials=100, seed=seed)
        rms = float(np.sqrt(np.mean(vals ** 2)))
        assert rms <= 3.0 * f.sup * 1e-2, (gen.kind, f.label, rms)
        vals4 = martingale_avg_experiment(gen, f, N=40_000, trials=100, seed=seed)
        rms4 = float(np.sqrt(np.mean(vals4 ** 2)))
        ratio = rms4 / rms
        assert 0.3 <= ratio <= 0.75, (gen.kind, f.label, ratio)
        ratios.append(round(ratio, 3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("7", "PASS", f"4 process/window configs, RMS within 3||f||/100, "
           f"sqrt-law ratios {ratios}, {elapsed:.0f}s")


def test_criterion_8_time_change_joint():
    t0 = time.perf_counter()
    gen = markov(MARKOV_P)
    gs = (first_digit_indicator(2, 0), character_on_digits(2, 12, 1))
    res = time_change_joint_experiment(LOG23, LOG23, gen, js=(0, 1, 2, 3),
                                       gs=gs, N=10_000, M=100, seed=808)
    dev = res.deviations()
    assert np.all(dev <= res.tolerance), dev
    # j = 0 row really does recover the invariant integrals
    assert abs(res.expected[0, 0] - gen.pi[0]) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("8", "PASS", f"max deviation {float(dev.max()):.4f} within "
           f"tolerance {res.tolerance:.4f} (eps_N = {res.eps_N:.4f}), "
           f"{elapsed:.0f}s")


def test_criterion_9_thread_count_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    outs = {}
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        monkeypatch.setenv("HOSTLAB_THREADS", str(threads))
        assert cli.main(["weyl", "--gen", "cantor3", "--b", "2", "--m", "1,2",
                         "--checkpoints", "200,2000", "--samples", "6",
                         "--seed", "99", "--out", str(out)]) == 0
        assert cli.main(["fourier-cert", "--battery", "quick", "--seed", "99",
                         "--out", str(out)]) == 0
        assert cli.main(["martingale", "--gen", "markov:0.9,0.1;0.5,0.5",
                         "--N", "2000", "--trials", "30", "--window", "1",
                         "--window-func", "sign0", "--seed", "99",
                         "--out", str(out)]) == 0
        assert cli.main(["time-change", "--gen", "markov:0.9,0.1;0.5,0.5",
                         "--theta", "log:2,3", "--js", "0,1", "--gfuncs",
                         "ind0,e1w12", "--N", "2000", "--M", "20",
                         "--seed", "99", "--out", str(out)]) == 0
        assert cli.main(["proof-chain", "--gen", "cantor3", "--b", "2",
                         "--m", "1", "--ks", "0,2", "--samples", "3",
                         "--level", "8", "--seed", "99",
                         "--out", str(out)]) == 0
        outs[threads] = out
    names = ["weyl.csv", "weyl_summary.json", "c1_cert.csv",
             "fourier_cert.csv", "martingale.csv", "time_change.csv",
             "proof_chain.csv"]
    for name in names:
        b1 = (outs[1] / name).read_bytes()
        b4 = (outs[4] / name).read_bytes()
        assert b1 == b4, f"{name} differs across HOSTLAB_THREADS"
    elapsed = time.perf_counter() - t0
    report("9", "PASS", f"{len(names)} report files byte-identical across "
           f"HOSTLAB_THREADS in {{1,4}}, {elapsed:.0f}s")
