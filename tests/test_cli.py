import json
import subprocess
import sys

import numpy as np
import pytest

from mmframes import cli


def _run(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "mmframes.cli", *args],
                         capture_output=True, text=True, env=full_env)


def test_no_args_prints_usage():
    res = _run([])
    assert res.returncode == 2
    assert "run" in res.stdout


def test_list_suites():
    res = _run(["list-suites"])
    assert res.returncode == 0
    names = [line.split("\t")[0] for line in res.stdout.strip().splitlines()]
    assert len(names) >= 20
    for required in ("lemma9.1", "thm4.2-reconstruction",
                     "lemma6.4-W-bound", "lemma9.4-hardy"):
        assert required in names
    assert names == cli.SUITE_ORDER


def test_describe():
    res = _run(["describe", "lemma9.1"])
    assert res.returncode == 0
    assert "lemma9.1" in res.stdout
    bad = _run(["describe", "not-a-suite"])
    assert bad.returncode == 2


def test_unknown_command():
    assert _run(["frobnicate"]).returncode == 2


def test_config_errors(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{ not json")
    assert _run(["run", str(p)]).returncode == 2
    p.write_text(json.dumps({"no_such_key": 1}))
    assert _run(["run", str(p)]).returncode == 2
    p.write_text(json.dumps({"suites": ["nope"]}))
    assert _run(["run", str(p)]).returncode == 2
    assert _run(["run"]).returncode == 2


@pytest.mark.parametrize("cfg", [
    {"theta": 5},
    {"theta": {"dt": 1}},
    {"theta": {"N": "4"}},
    {"theta": {"K": 2.5}},
    {"theta": {"eps": None}},
    {"theta": {"R0": True}},
    {"theta": {"R_max": [4096]}},
    {"suites": "doubling"},
    {"suites": [["doubling"]]},
    {"b": 1.0},
    {"b": "x"},
    {"model": "Q_5"},
    {"gamma": -1},
    {"spq": [0, 2]},
    {"mode": "foo"},
    {"seed": "a"},
    {"battery": 0},
    {"refined_model": "C_128"},
    {"tolerances": {}},
])
def test_bad_config_is_a_config_error(tmp_path, capsys, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("module", ["sympy", "scipy.sparse"])
def test_cli_import_leaves_sympy_unloaded(module):
    res = subprocess.run(
        [sys.executable, "-c",
         f"import sys, mmframes.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_empty_suite_list_writes_manifest_only(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": [], "model": "C_32",
                             "output_dir": str(tmp_path / "out")}))
    res = _run(["run", str(p)])
    assert res.returncode == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.startswith("manifest model=C_32")
    assert len(report.strip().splitlines()) == 1


def test_output_dir_env_override(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": [], "model": "C_32",
                             "output_dir": str(tmp_path / "ignored")}))
    res = _run(["run", str(p)],
               env={"MMFRAMES_OUTPUT_DIR": str(tmp_path / "redirect")})
    assert res.returncode == 0
    assert (tmp_path / "redirect" / "report.txt").exists()
    assert not (tmp_path / "ignored").exists()


def test_small_run_is_deterministic(tmp_path):
    suites = ["doubling", "lemma9.1", "def2.1-cutoffs", "lemma9.4-hardy"]
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        p = tmp_path / f"cfg_{tag}.json"
        p.write_text(json.dumps({"suites": suites, "model": "C_32",
                                 "output_dir": str(out)}))
        res = _run(["run", str(p)])
        assert res.returncode == 0
        reports.append((out / "report.txt").read_bytes())
        csv = (out / "constants.csv").read_text()
        assert csv.startswith("suite,constant,value")
    assert reports[0] == reports[1]


def test_suite_metrics_in_report(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": ["doubling"], "model": "C_32",
                             "output_dir": str(tmp_path / "out")}))
    res = _run(["run", str(p)])
    assert res.returncode == 0
    lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert any(line.startswith("suite=doubling") and "status=" in line
               for line in lines)
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "doubling" in summary


def test_load_config_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"theta": {"N": 3}}))
    cfg = cli.load_config(str(p))
    assert cfg["theta"]["N"] == 3
    assert cfg["theta"]["K"] == cli.DEFAULT_CONFIG["theta"]["K"]
    assert cfg["model"] == cli.DEFAULT_CONFIG["model"]


def test_lemma64_suite_fails_on_an_empty_sample(monkeypatch):
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_32"))
    status, metrics = cli._suite_lemma64(ctx)
    assert status == "pass" and metrics["max_ratio"] > 0
    # every beta >= gamma1 + gamma2: no combination is measured
    monkeypatch.setattr(cli, "_LEMMA64_GRID", ((2.0,), (0.5, 1.0), (0.6,)))
    assert cli._suite_lemma64(ctx)[0] == "fail"


def test_battery_suites_fail_on_an_all_zero_battery():
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    names = ("thm3.4-telescoping", "thm5.5-besov", "thm5.6-tl",
             "thm7.5-analysis", "thm7.9-atoms", "thm8.1-multiplier")
    for name in names:
        assert cli.SUITES[name][2](ctx)[0] == "pass", name
    ctx._cache["battery"] = np.zeros_like(ctx.get("battery"))
    for name in names:
        assert cli.SUITES[name][2](ctx)[0] == "fail", name
