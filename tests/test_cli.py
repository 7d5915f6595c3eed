import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostlab
from hostlab import cli, fourier, reports
from hostlab.adic import PrecisionBudget
from hostlab.errors import QuadratureError
from hostlab.reports import CSV_MAGIC, parallel_map, thread_count, version_string


def run(argv, monkeypatch=None, threads=None):
    if threads is not None and monkeypatch is not None:
        monkeypatch.setenv("HOSTLAB_THREADS", str(threads))
    return cli.main(argv)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_seed_is_mandatory(tmp_path):
    code = cli.main(["equivariance", "--out", str(tmp_path), "--pairs", "3"])
    assert code == 2


def test_unknown_generator_is_config_error(tmp_path):
    code = cli.main(["weyl", "--gen", "nonsense", "--b", "2", "--seed", "1",
                     "--out", str(tmp_path), "--samples", "1",
                     "--checkpoints", "100"])
    assert code == 2


def test_equivariance_battery(tmp_path):
    code = cli.main(["equivariance", "--seed", "5", "--pairs", "10",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "equivariance.csv").read_text().splitlines()
    assert lines[0] == CSV_MAGIC
    assert lines[1].startswith("gen,")
    assert len(lines) == 2 + 3 * 10
    summary = json.loads((tmp_path / "equivariance_summary.json").read_text())
    assert summary["all_ok"] is True
    assert "generated_by" in summary


def test_equivariance_gens_split_only_where_a_generator_starts(tmp_path):
    specs = ["bernoulli", "markov", "cantor", "uniform:3", "ifs:4;1,3", "bernoulli:0.3,0.7",
             "markov:0.9,0.1;0.5,0.5", "cantor3"]
    code = cli.main(["equivariance", "--gens", ",".join(specs), "--pairs", "4",
                     "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "equivariance.csv").read_text().splitlines()[2:]
    # the label is the only field that can hold commas; five fields follow it
    labels = [",".join(row.split(",")[:-5]) for row in rows]
    assert labels == [spec for spec in specs for _ in range(4)]


def test_weyl_small_run_and_dat(tmp_path):
    code = cli.main(["weyl", "--gen", "cantor3", "--b", "2", "--m", "1",
                     "--checkpoints", "200,1000", "--samples", "3",
                     "--seed", "7", "--out", str(tmp_path), "--dat"])
    assert code == 0
    csv_lines = (tmp_path / "weyl.csv").read_text().splitlines()
    assert csv_lines[0] == CSV_MAGIC
    assert len(csv_lines) == 2 + 3 * 2
    assert (tmp_path / "weyl.dat").exists()
    summary = json.loads((tmp_path / "weyl_summary.json").read_text())
    assert summary["negative_control"] is False
    assert summary["per_sample_seed_keys"] == [[7, 0], [7, 1], [7, 2]]


def test_weyl_summary_and_dat_are_quantiles_of_the_csv(tmp_path):
    code = cli.main(["weyl", "--gen", "cantor3", "--b", "2", "--m", "1,-3",
                     "--checkpoints", "1000,100,300", "--samples", "4",
                     "--seed", "9", "--out", str(tmp_path), "--dat"])
    assert code == 0
    mags = {}
    for row in (tmp_path / "weyl.csv").read_text().splitlines()[2:]:
        _, m, N, _, _, mag = row.split(",")
        mags.setdefault((int(m), int(N)), []).append(float(mag))
    assert len(mags) == 2 * 3 and all(len(v) == 4 for v in mags.values())
    summary = json.loads((tmp_path / "weyl_summary.json").read_text())
    dat = [line.split() for line in (tmp_path / "weyl.dat").read_text().splitlines()]
    assert dat[0] == ["#", "N", "median_m1", "median_m-3", "p90_m1", "p90_m-3"]
    assert [int(row[0]) for row in dat[1:]] == [100, 300, 1000]
    # the abs column and the quantiles read one |W| array, so they agree exactly
    for row in dat[1:]:
        N = int(row[0])
        for fi, m in enumerate((1, -3)):
            assert summary["medians"][f"m={m},N={N}"] == float(np.median(mags[m, N]))
            assert summary["p90"][f"m={m},N={N}"] == float(np.percentile(mags[m, N], 90))
            assert float(row[1 + fi]) == summary["medians"][f"m={m},N={N}"]
            assert float(row[3 + fi]) == summary["p90"][f"m={m},N={N}"]


def test_config_file_with_flag_override(tmp_path):
    cfg = {"gen": "cantor3", "b": 2, "m": "1", "samples": 2,
           "checkpoints": "150", "seed": 11}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["weyl", "--config", str(cfg_path), "--out", str(out1)]) == 0
    # flag overrides the file's sample count
    assert cli.main(["weyl", "--config", str(cfg_path), "--out", str(out2),
                     "--samples", "1"]) == 0
    rows1 = (out1 / "weyl.csv").read_text().splitlines()
    rows2 = (out2 / "weyl.csv").read_text().splitlines()
    assert len(rows1) == 2 + 2 and len(rows2) == 2 + 1


def test_weyl_N_flag_outranks_config_checkpoints(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"gen": "cantor3", "b": 2, "m": "1",
                                    "samples": 1, "checkpoints": "150",
                                    "seed": 11}))
    out = tmp_path / "out"
    assert cli.main(["weyl", "--config", str(cfg_path), "--out", str(out),
                     "--N", "500"]) == 0
    rows = (out / "weyl.csv").read_text().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["500"]
    summary = json.loads((out / "weyl_summary.json").read_text())
    assert summary["config"]["checkpoints"] == "500"
    assert cli.main(["weyl", "--config", str(cfg_path), "--out", str(out),
                     "--N", "500", "--checkpoints", "100"]) == 2


@pytest.mark.parametrize("flags", [["--checkpoints", "100,100,200"],
                                   ["--checkpoints", "200", "--m", "1,2,1"]])
def test_weyl_repeats_are_config_errors(tmp_path, flags):
    code = cli.main(["weyl", "--gen", "cantor3", "--b", "2", "--samples", "1",
                     "--seed", "3", "--out", str(tmp_path), *flags])
    assert code == 2
    assert not (tmp_path / "weyl.csv").exists()


def test_fourier_cert_quick(tmp_path):
    code = cli.main(["fourier-cert", "--battery", "quick", "--seed", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    for name in ("c1_cert.csv", "fourier_cert.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == CSV_MAGIC
        assert all(line.endswith("true") for line in lines[2:])


def test_quadrature_error_prints_diagnostics(tmp_path, monkeypatch, capsys):
    # the C1-density transform is the one quadrature left that can fail
    def fail(spec, t):
        raise QuadratureError("transform quadrature above tolerance",
                              {"t": t, "err": 2e-10, "density": spec.label})

    monkeypatch.setattr(fourier, "c1_bound_check", fail)
    code = cli.main(["fourier-cert", "--battery", "quick", "--seed", "3",
                     "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("resource/precision error: transform quadrature")
    assert err[1] == "diagnostics: t=1, err=2e-10, density=quadratic_bump[0,1]"


def test_proof_chain_quick(tmp_path):
    code = cli.main(["proof-chain", "--gen", "cantor3", "--b", "2", "--m", "1",
                     "--ks", "0,2", "--samples", "2", "--level", "8",
                     "--seed", "9", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "proof_chain_summary.json").read_text())
    assert summary["all_bounded"] is True
    assert summary["values"][1] < summary["values"][0]


def test_proof_chain_runs_to_k12(tmp_path):
    code = cli.main(["proof-chain", "--gen", "cantor3", "--b", "2",
                     "--ks", "0,2,4,6,8,10,12", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "proof_chain_summary.json").read_text())
    assert summary["all_bounded"] is True
    assert summary["values"] == sorted(summary["values"], reverse=True)


def test_proof_chain_markov_rows_read_no_seed_and_no_samples(tmp_path):
    # the past average is exact: the seed moves no byte, and --samples only
    # its own echoed column
    def rows(seed, samples):
        out = tmp_path / f"s{seed}n{samples}"
        assert cli.main(["proof-chain", "--gen", "markov:0.9,0.1;0.5,0.5", "--b", "2",
                         "--ks", "0,2", "--samples", str(samples), "--seed", str(seed),
                         "--out", str(out)]) == 0
        return read_bytes(out / "proof_chain.csv")

    assert rows(1, 8) == rows(2, 8)
    lines = [rows(1, n).decode().splitlines() for n in (2, 8)]
    assert [r.split(",")[2] for r in lines[0][2:]] == ["2", "2"]
    assert [r.split(",")[2] for r in lines[1][2:]] == ["8", "8"]
    drop = [[",".join(f for i, f in enumerate(r.split(",")) if i != 2) for r in rs]
            for rs in lines]
    assert drop[0] == drop[1]
    assert [float(r.split(",")[5]) for r in lines[1][2:]] == [0.0, 0.0]


def test_proof_chain_repeated_k_is_config_error(tmp_path, capsys):
    code = cli.main(["proof-chain", "--gen", "cantor3", "--b", "2", "--ks", "2,2", "--seed", "1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "each k names one row" in capsys.readouterr().err
    assert not (tmp_path / "proof_chain.csv").exists()


def test_proof_chain_rows_go_by_k_not_by_the_order_given(tmp_path):
    # a correct decay given as --ks 4,2 is no warning, so --strict exits 0
    def csv(ks):
        out = tmp_path / ks.replace(",", "_")
        assert cli.main(["proof-chain", "--gen", "cantor3", "--b", "2", "--ks", ks, "--strict",
                         "--seed", "1", "--out", str(out)]) == 0
        return read_bytes(out / "proof_chain.csv")

    assert csv("4,2") == csv("2,4")
    assert [r.split(",")[0] for r in csv("4,2").decode().splitlines()[2:]] == ["2", "4"]


@pytest.mark.parametrize("b", ["1", "-7"])
def test_proof_chain_b_below_two_is_config_error(b, tmp_path, capsys):
    code = cli.main(["proof-chain", "--gen", "cantor3", "--b", b, "--ks", "0", "--seed", "1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "b must be >= 2" in capsys.readouterr().err


def test_nan_probability_is_config_error(tmp_path):
    code = cli.main(["martingale", "--gen", "markov:nan,0.5;0.5,0.5", "--seed", "1",
                     "--out", str(tmp_path)])
    assert code == 2


def test_proof_chain_level_over_weight_budget_exits_3(tmp_path):
    code = cli.main(["proof-chain", "--gen", "cantor3", "--b", "2", "--ks", "0",
                     "--samples", "2", "--level", "30", "--seed", "9",
                     "--out", str(tmp_path)])
    assert code == 3


def test_version_string_names_package_version():
    assert version_string().startswith(f"hostlab-{hostlab.__version__}")


def test_martingale_run(tmp_path):
    code = cli.main(["martingale", "--gen", "uniform:2", "--N", "2000",
                     "--trials", "20", "--window", "1", "--window-func",
                     "sign0", "--seed", "13", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "martingale.csv").read_text().splitlines()
    assert len(lines) == 2 + 20
    summary = json.loads((tmp_path / "martingale_summary.json").read_text())
    assert summary["rms"] <= summary["rms_bound"]


def test_time_change_run(tmp_path):
    code = cli.main(["time-change", "--gen", "markov:0.9,0.1;0.5,0.5",
                     "--theta", "log:2,3", "--js", "0,1", "--gfuncs", "ind0",
                     "--N", "1000", "--M", "10", "--seed", "17",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "time_change.csv").read_text().splitlines()
    assert lines[1] == "j,g,re,im,z_score"
    assert len(lines) == 2 + 2


@pytest.mark.parametrize("flag,value", [("--js", "1,1"), ("--gfuncs", "ind0,ind0"),
                                        ("--gfuncs", "e1w2,e01w2")])
def test_time_change_repeated_row_name_is_config_error(flag, value, tmp_path, capsys):
    argv = {"--js": "0,1", "--gfuncs": "ind0"} | {flag: value}
    code = cli.main(["time-change", "--gen", "uniform:2", "--theta", "log:2,3", "--N", "200",
                     "--M", "2", "--seed", "1", "--out", str(tmp_path),
                     *(item for kv in argv.items() for item in kv)])
    assert code == 2
    assert "each (j, g) names one row" in capsys.readouterr().err
    assert not (tmp_path / "time_change.csv").exists()


TC_FLAT = ["time-change", "--gen", "uniform:2", "--theta", "log:2,3", "--N", "500", "--M", "4",
           "--js", "0,1", "--gfuncs", "e0w1,ind0", "--seed", "1"]


def test_time_change_cell_without_spread_has_an_empty_z_score(tmp_path, capsys):
    # e0w1 is the constant 1: its samples all agree, so it has no z-score
    assert cli.main(TC_FLAT + ["--out", str(tmp_path)]) == 0
    text = (tmp_path / "time_change.csv").read_text()
    assert "nan" not in text and "inf" not in text
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert [(r[0], r[1], r[4] == "") for r in rows] == [
        ("0", "e0w1", True), ("0", "ind0", False), ("1", "e0w1", True), ("1", "ind0", False)]
    summary = json.loads((tmp_path / "time_change_summary.json").read_text())
    assert summary["warnings"] == [
        f"z-score undefined at (j={j}, g=e0w1): the 4 samples have no spread" for j in (0, 1)]
    assert "WARNING: z-score undefined at (j=0, g=e0w1)" in capsys.readouterr().err
    assert cli.main(TC_FLAT + ["--strict", "--out", str(tmp_path / "strict")]) == 1


def test_parity_window_over_budget_exits_3(tmp_path, capsys):
    # refused before allocation: a table of 3**45 entries could not be built
    code = cli.main(["martingale", "--gen", "uniform:3", "--window", "45", "--window-func",
                     "parity", "--N", "100", "--trials", "2", "--seed", "1", "--out", str(tmp_path)])
    assert code == 3
    assert "weight-vector budget" in capsys.readouterr().err


def test_martingale_on_cantor3_parity_is_exactly_zero(tmp_path):
    code = cli.main(["martingale", "--gen", "cantor3", "--window", "3", "--window-func",
                     "parity", "--N", "500", "--trials", "3", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "martingale.csv").read_text().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["0.0"] * 3


def test_controls_rational_only(tmp_path):
    code = cli.main(["controls", "--mode", "rational", "--N-rational", "3000",
                     "--seed", "23", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "controls_summary.json").read_text())
    assert summary["all_ok"] is True
    assert summary["label"] == "negative-control"


def test_thread_env_validation(monkeypatch):
    monkeypatch.setenv("HOSTLAB_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.setenv("HOSTLAB_THREADS", "zebra")
    with pytest.raises(Exception):
        thread_count()
    monkeypatch.delenv("HOSTLAB_THREADS")
    assert thread_count() >= 1


def test_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    outs = {}
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        monkeypatch.setenv("HOSTLAB_THREADS", str(threads))
        code = cli.main(["weyl", "--gen", "cantor3", "--b", "2", "--m", "1,2",
                         "--checkpoints", "100,400", "--samples", "4",
                         "--seed", "31", "--out", str(out)])
        assert code == 0
        code = cli.main(["fourier-cert", "--battery", "quick", "--seed", "31",
                         "--out", str(out)])
        assert code == 0
        outs[threads] = out
    for name in ("weyl.csv", "weyl_summary.json", "fourier_cert.csv",
                 "c1_cert.csv"):
        assert read_bytes(outs[1] / name) == read_bytes(outs[3] / name), name


def _csv_rows(path):
    # split from the right: c1 density labels such as quadratic_bump[0,1] hold a comma
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.rsplit(",", len(header) - 1))) for line in lines[2:]]


def test_default_fourier_cert_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    # the default battery's three base-2 level-14 measures share each J across pool items
    outs = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        monkeypatch.setenv("HOSTLAB_THREADS", str(threads))
        assert cli.main(["fourier-cert", "--battery", "default", "--seed", "7",
                         "--out", str(out)]) == 0
        outs[threads] = out
    for name in ("fourier_cert.csv", "c1_cert.csv", "fourier_cert_summary.json"):
        assert read_bytes(outs[1] / name) == read_bytes(outs[2] / name), name


@pytest.mark.parametrize("battery", ["quick", "default"])
def test_fourier_cert_summary_names_the_worst_margin_rows(battery, tmp_path):
    assert cli.main(["fourier-cert", "--battery", battery, "--seed", "7",
                     "--out", str(tmp_path)]) == 0
    worst = json.loads((tmp_path / "fourier_cert_summary.json").read_text())[
        "diagnostics"]["worst_margin"]
    for cert, csv_name, names in (("c1", "c1_cert.csv", ("density", "t")),
                                  ("smoothing", "fourier_cert.csv", ("measure", "m", "b", "r"))):
        rows = _csv_rows(tmp_path / csv_name)
        low = min(rows, key=lambda r: float(r["margin"]))
        assert worst[cert]["margin"] == float(low["margin"])
        assert worst[cert]["margin"] == min(float(r["margin"]) for r in rows)
        assert {k: reports.fmt(worst[cert][k]) for k in names} == {k: low[k] for k in names}


def test_weyl_summary_carries_the_precision_budget(tmp_path, monkeypatch):
    outs = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        monkeypatch.setenv("HOSTLAB_THREADS", str(threads))
        assert cli.main(["weyl", "--gen", "cantor3", "--b", "2", "--m", "1",
                         "--checkpoints", "300,1500", "--samples", "2", "--k", "2",
                         "--seed", "5", "--out", str(out)]) == 0
        outs[threads] = out
    assert (read_bytes(outs[1] / "weyl_summary.json")
            == read_bytes(outs[2] / "weyl_summary.json"))
    summary = json.loads((outs[1] / "weyl_summary.json").read_text())
    plan = PrecisionBudget.plan(3, 2, 1500)
    assert summary["diagnostics"]["precision_budget"] == {
        "a": 3, "b": 2, "N_max": 1500, "guard_digits": 64, "L": plan.L,
        "digits_consumed": plan.L - 64}
    assert 3 ** (plan.L - 64) >= 2 ** 1500 > 3 ** (plan.L - 65)


def test_only_fourier_cert_uses_the_thread_pool(tmp_path, monkeypatch):
    calls = []

    def spy(fn, items):
        calls.append(fn)
        return [fn(it) for it in items]

    monkeypatch.setattr(reports, "parallel_map", spy)
    markov = "markov:0.9,0.1;0.5,0.5"
    runs = {
        "weyl": ["weyl", "--gen", "cantor3", "--b", "2", "--m", "1",
                 "--checkpoints", "100", "--samples", "2"],
        "controls": ["controls", "--mode", "dependent", "--samples", "2"],
        "martingale": ["martingale", "--gen", markov, "--N", "200",
                       "--trials", "2", "--with-ratio"],
        "time-change": ["time-change", "--gen", markov, "--theta", "log:2,3",
                        "--N", "500", "--M", "2"],
        "fourier-cert": ["fourier-cert", "--battery", "quick"],
    }
    for name, argv in runs.items():
        calls.clear()
        assert cli.main([*argv, "--seed", "3", "--out", str(tmp_path / name)]) == 0
        assert bool(calls) == (name == "fourier-cert"), name


@pytest.mark.parametrize("argv", [
    ["weyl", "--gen", "cantor3", "--b", "2", "--samples", "1", "--checkpoints", "100"],
    ["martingale", "--gen", "bernoulli:0.5,0.5", "--N", "100", "--trials", "2"],
    ["equivariance", "--pairs", "2"]])
def test_bad_thread_env_is_config_error_everywhere(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("HOSTLAB_THREADS", "zebra")
    assert cli.main([*argv, "--seed", "1", "--out", str(tmp_path)]) == 2


def test_character_table_over_budget_exits_3(tmp_path, capsys):
    # refused before allocation: e1w30 at base 2 would ask for 2**30 entries
    code = cli.main(["time-change", "--gen", "markov:0.9,0.1;0.5,0.5", "--theta", "log:2,3",
                     "--gfuncs", "ind0,e1w30", "--seed", "1", "--out", str(tmp_path)])
    assert code == 3
    assert "weight-vector budget" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_parallel_map_preserves_order(monkeypatch):
    monkeypatch.setenv("HOSTLAB_THREADS", "4")
    assert parallel_map(lambda v: v * v, range(17)) == [v * v for v in range(17)]


@pytest.mark.parametrize("argv, config", [
    (["time-change", "--gen", "uniform:2", "--theta", "abc"], None),
    (["time-change", "--gen", "uniform:2", "--theta", "log:2"], None),
    (["time-change", "--gen", "uniform:2", "--theta", "log:2,1"], None),
    (["weyl", "--gen", "cantor3", "--b", "2", "--checkpoints", "1k"], None),
    (["weyl", "--gen", "cantor3", "--b", "2", "--checkpoints", "100"], {"samples": "ten"}),
    (["time-change", "--gen", "uniform:2", "--theta", "0.3", "--gfuncs", "indx"], None),
    (["weyl", "--gen", "cantor3", "--b", "2", "--checkpoints", "100", "--samples", "1",
      "--soft-median-threshold", "0"], {"strict": "false"}),
    (["weyl", "--gen", "cantor3", "--b", "2", "--checkpoints", "100", "--samples", "1"],
     {"dat": 1}),
    (["martingale", "--gen", "uniform:2", "--N", "100", "--trials", "2"], {"with_ratio": "true"}),
    (["fourier-cert"], {"battery": "full"}),
    (["martingale", "--gen", "uniform:2", "--N", "100", "--trials", "2"],
     {"window_func": "cosine"}),
    (["controls"], {"mode": "neither"}),
], ids=["theta-abc", "theta-log-one-arg", "theta-log-base-one", "checkpoints-1k",
        "config-samples-ten", "gfuncs-indx", "config-strict-string", "config-dat-number",
        "config-with-ratio-string", "config-battery-choice", "config-window-func-choice",
        "config-mode-choice"])
def test_malformed_option_value_is_config_error(argv, config, tmp_path, capsys):
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "run.json")]
    assert cli.main([*argv, "--seed", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: bad value")


WEYL_SMALL = ["weyl", "--gen", "cantor3", "--b", "2", "--m", "1", "--seed", "1"]


@pytest.mark.parametrize("config", [{"samples": 2.5, "checkpoints": "100"},
                                    {"samples": 2, "checkpoints": [100.7]},
                                    {"samples": True, "checkpoints": "100"}],
                         ids=["samples-2.5", "checkpoints-100.7", "samples-true"])
def test_non_integral_config_number_is_config_error(config, tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(config))
    argv = [*WEYL_SMALL, "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: bad value")
    assert not (tmp_path / "out" / "weyl.csv").exists()


@pytest.mark.parametrize("config", [{"samples": 3, "checkpoints": [100]},
                                    {"samples": "3", "checkpoints": "100"},
                                    {"samples": 3.0, "checkpoints": [100.0]}],
                         ids=["ints", "strings", "integral-floats"])
def test_integral_config_numbers_are_read(config, tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([*WEYL_SMALL, "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 0
    rows = (out / "weyl.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
    assert {row.split(",")[2] for row in rows} == {"100"}


def test_strict_from_config_file_or_flag(tmp_path):
    soft_miss = ["weyl", "--gen", "cantor3", "--b", "2", "--m", "1", "--samples", "1",
                 "--checkpoints", "100", "--soft-median-threshold", "0",
                 "--seed", "1", "--out", str(tmp_path / "out")]
    assert cli.main(soft_miss) == 0
    assert cli.main([*soft_miss, "--strict"]) == 1
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"strict": True}))
    assert cli.main([*soft_miss, "--config", str(cfg_path)]) == 1


def test_config_switch_false_is_off(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"strict": False, "with_ratio": False}))
    argv = ["martingale", "--gen", "uniform:2", "--N", "100", "--trials", "2", "--seed", "1",
            "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert not (tmp_path / "out" / "martingale_4N.csv").exists()


def test_undefined_rms_ratio_is_null_in_a_strict_json_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["martingale", "--gen", "bernoulli:1,0", "--with-ratio", "--N", "100",
                     "--trials", "2", "--seed", "1", "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    summary = json.loads((out / "martingale_summary.json").read_text(), parse_constant=refuse)
    assert summary["rms"] == 0.0 and summary["rms_ratio_4N"] is None
    assert summary["warnings"] == ["RMS(4N)/RMS(N) undefined: RMS(N) = 0"]
    assert "WARNING: RMS(4N)/RMS(N) undefined" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_refuses_non_finite_values(value, tmp_path):
    with pytest.raises(ValueError):
        reports.write_json(tmp_path / "summary.json", {"x": [1.0, value]})
    assert not (tmp_path / "summary.json").exists()


IMPORT_PROBE = """
import json, sys
import hostlab.cli
heavy = ("scipy", "scipy.special", "scipy.integrate", "mpmath", "concurrent.futures")
loaded = {"import": [m for m in heavy if m in sys.modules]}
for name, argv in (("controls", ["controls", "--mode", "rational", "--N-rational", "3000"]),
                   ("equivariance", ["equivariance", "--pairs", "5"]),
                   ("proof-chain", ["proof-chain", "--gen", "cantor3", "--b", "2",
                                    "--ks", "0"])):
    assert hostlab.cli.main([*argv, "--seed", "1", "--out", name]) == 0, name
    loaded[name] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_import_footprint_stays_numpy_and_stdlib(tmp_path):
    # a fresh interpreter: this suite's own imports already loaded scipy and mpmath
    src = Path(hostlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["controls"] == loaded["equivariance"] == []
    assert "scipy.special" in loaded["proof-chain"]
    assert "scipy.integrate" not in loaded["proof-chain"]


def test_scale_average_bytes_do_not_follow_blas_threads(tmp_path):
    # OpenBLAS reads its thread count at load, so each setting needs its own interpreter
    src = Path(hostlab.__file__).resolve().parents[1]
    runs = (["fourier-cert", "--battery", "default"],
            ["proof-chain", "--gen", "cantor3", "--b", "2", "--ks", "0,2,4,6,8,10"])
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        for argv in runs:
            out = subprocess.run([sys.executable, "-m", "hostlab.cli", *argv, "--seed", "7",
                                  "--out", str(tmp_path / threads)],
                                 env=env, capture_output=True, text=True, timeout=600)
            assert out.returncode == 0, out.stderr
    for name in ("fourier_cert.csv", "proof_chain.csv"):
        assert read_bytes(tmp_path / "1" / name) == read_bytes(tmp_path / "2" / name), name


def test_version_string_asks_git_once_per_process(tmp_path, monkeypatch):
    runs = []
    real_run = subprocess.run

    def spy(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    reports._version.cache_clear()
    for name in ("a", "b"):
        assert cli.main(["equivariance", "--pairs", "2", "--seed", "1",
                         "--out", str(tmp_path / name)]) == 0
    assert len(runs) == 1
    assert (read_bytes(tmp_path / "a" / "equivariance_summary.json")
            == read_bytes(tmp_path / "b" / "equivariance_summary.json"))


COMMON_FLAGS = {"--config": ("config", "str", None), "--out": ("out", "str", None),
                "--seed": ("seed", "int", None), "--strict": ("strict", "switch", None)}

# flag -> (dest, argparse type or "switch", choices); the bench's argv and README use these
FLAGS = {
    "weyl": {"--gen": ("gen", "str", None), "--b": ("b", "int", None),
             "--m": ("m", "str", None), "--N": ("checkpoints_max", "int", None),
             "--checkpoints": ("checkpoints", "str", None),
             "--samples": ("samples", "int", None), "--k": ("k", "int", None),
             "--soft-median-threshold": ("soft_median_threshold", "float", None),
             "--label": ("label", "str", None), "--dat": ("dat", "switch", None)},
    "fourier-cert": {"--battery": ("battery", "str", ("default", "quick"))},
    "proof-chain": {"--gen": ("gen", "str", None), "--b": ("b", "int", None),
                    "--m": ("m", "int", None), "--ks": ("ks", "str", None),
                    "--samples": ("samples", "int", None), "--level": ("level", "int", None)},
    "martingale": {"--gen": ("gen", "str", None), "--N": ("N", "int", None),
                   "--trials": ("trials", "int", None), "--window": ("window", "int", None),
                   "--window-func": ("window_func", "str", ("parity", "sign0")),
                   "--with-ratio": ("with_ratio", "switch", None)},
    "time-change": {"--gen": ("gen", "str", None), "--theta": ("theta", "str", None),
                    "--beta": ("beta", "str", None), "--js": ("js", "str", None),
                    "--gfuncs": ("gfuncs", "str", None), "--N": ("N", "int", None),
                    "--M": ("M", "int", None)},
    "equivariance": {"--pairs": ("pairs", "int", None), "--gens": ("gens", "str", None)},
    "controls": {"--mode": ("mode", "str", ("dependent", "rational", "both")),
                 "--a": ("a", "int", None), "--b": ("b", "int", None),
                 "--samples": ("samples", "int", None),
                 "--N-rational": ("N_rational", "int", None)},
}


def _flag_kind(action):
    if action.nargs == 0:
        return "switch" if action.const is True and action.default is None else "other"
    return action.type.__name__ if action.type else "str"


def test_flag_sets_are_pinned():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(FLAGS)
    for name, sub in subparsers.choices.items():
        got = {a.option_strings[0]: (a.dest, _flag_kind(a), tuple(a.choices) if a.choices else None)
               for a in sub._actions if a.dest != "help"}
        assert all(len(a.option_strings) == 1 for a in sub._actions if a.dest != "help")
        assert got == {**COMMON_FLAGS, **FLAGS[name]}, name


def _readme_cli_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_commands_parse():
    commands = _readme_cli_commands()
    assert {argv[1] for argv in commands} == set(cli.RUNNERS)
    for argv in commands:
        assert argv[0] == "hostlab"
        args = cli.build_parser().parse_args(argv[1:])
        assert args.seed is not None and args.out is not None, argv


MARKOV = "markov:0.9,0.1;0.5,0.5"

# every option of each subcommand, plus the seed, with the type a flag gives it
CONFIG_ROUTE = {
    "weyl": {"gen": "cantor3", "b": 2, "m": "1,2", "checkpoints": "150,600", "samples": 2,
             "k": 1, "soft_median_threshold": 0.5, "label": "run", "dat": True},
    "fourier-cert": {"battery": "quick"},
    "proof-chain": {"gen": "cantor3", "b": 2, "m": 2, "ks": "0,2", "samples": 2, "level": 8},
    "martingale": {"gen": MARKOV, "N": 500, "trials": 4, "window": 2,
                   "window_func": "parity", "with_ratio": True},
    "time-change": {"gen": MARKOV, "theta": "log:2,3", "beta": "0.5", "js": "0,1",
                    "gfuncs": "ind0,e1w12", "N": 500, "M": 4},
    "equivariance": {"pairs": 3, "gens": "bernoulli,cantor"},
    "controls": {"mode": "both", "a": 3, "b": 2, "samples": 1, "N_rational": 3000},
}


@pytest.mark.parametrize("sub", list(CONFIG_ROUTE))
def test_config_file_matches_flags(sub, tmp_path):
    values = {**CONFIG_ROUTE[sub], "seed": 5}
    assert set(values) == {*cli.OPTIONS[sub], "seed"}
    flags = [sub]
    for key, value in values.items():
        flags += [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
    (tmp_path / "run.json").write_text(json.dumps(values))
    assert cli.main([*flags, "--out", str(tmp_path / "flags")]) == 0
    assert cli.main([sub, "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "file")]) == 0
    names = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
    for name in names:
        assert read_bytes(tmp_path / "flags" / name) == read_bytes(tmp_path / "file" / name), name
    summary = json.loads((tmp_path / "file" / f"{sub.replace('-', '_')}_summary.json").read_text())
    assert summary["config"] == values


TIME_CHANGE_SMALL = ["time-change", "--gen", "uniform:2", "--theta", "log:2,3", "--N", "500"]
TIME_CHANGE_MARKOV = ["time-change", "--gen", "markov:0.9,0.1;0.5,0.5", "--theta", "log:2,3"]


@pytest.mark.parametrize("argv, message", [
    ([*TIME_CHANGE_SMALL, "--M", "1"], "M >= 2"),
    ([*TIME_CHANGE_SMALL, "--M", "2", "--js", ""], "at least one frequency"),
    ([*TIME_CHANGE_SMALL, "--M", "2", "--js", ","], "at least one frequency"),
    (["martingale", "--gen", "uniform:2", "--N", "100", "--trials", "2", "--window", "5"],
     "--window 5 needs --window-func parity"),
    (["weyl", "--gen", "cantor3", "--b", "2", "--checkpoints", "100", "--samples", "1",
      "--k", "-1"], "k = -1"),
    (["equivariance", "--pairs", "-1"], "need --pairs >= 1, got -1"),
    (["equivariance", "--pairs", "0"], "need --pairs >= 1, got 0"),
    (["proof-chain", "--gen", "cantor3", "--b", "2", "--ks", ""], "at least one scale k"),
    (["proof-chain", "--gen", "cantor3", "--b", "2", "--samples", "0"], "samples must be >= 1"),
    ([*TIME_CHANGE_MARKOV, "--gfuncs", "ind5"], "indicator digit 5 outside 0..1"),
    ([*TIME_CHANGE_MARKOV, "--gfuncs", "ind0,ind-1"], "indicator digit -1 outside 0..1"),
], ids=["time-change-M1", "time-change-js-empty", "time-change-js-comma",
        "martingale-window-sign0", "weyl-k-negative", "equivariance-pairs-negative",
        "equivariance-pairs-zero", "proof-chain-ks-empty", "proof-chain-samples-zero",
        "time-change-ind-above-base", "time-change-ind-negative"])
def test_unusable_option_values_are_config_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*argv, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not list(out.glob("*.csv"))


def test_undeclared_config_file_keys_are_config_errors(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"smaples": 3, "N-rational": 10,
                                                   "N_rational": 3000}))
    argv = ["controls", "--mode", "rational", "--seed", "1",
            "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'smaples', 'N-rational'" in err, err
    assert not (tmp_path / "out" / "controls.csv").exists()
