import json
import os
import subprocess
import sys
from pathlib import Path

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
    def fail(spec, t, slack=0.0):
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
    plan = PrecisionBudget.plan(3, 2, 1500, 64)
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
], ids=["theta-abc", "theta-log-one-arg", "theta-log-base-one", "checkpoints-1k",
        "config-samples-ten", "gfuncs-indx"])
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
