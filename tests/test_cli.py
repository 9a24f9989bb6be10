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
    assert names == list(cli.SUITES)


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


def _no_build(*args):
    raise AssertionError("a rejected model must not be built")


@pytest.mark.parametrize("cfg", [
    {"theta": 5},
    {"theta": {"dt": 1}},
    {"theta": {"N": "4"}},
    {"theta": {"K": 2.5}},
    {"theta": {"eps": None}},
    {"theta": {"R0": True}},
    {"theta": {"R_max": [4096]}},
    {"theta": {"N": 0, "K": 0}},
    {"theta": {"N": 1, "K": 2}},
    {"theta": {"eps": 0}},
    {"theta": {"eps": -1e-3}},
    {"theta": {"R0": 0}},
    {"theta": {"R0": 8192}},
    {"theta": {"R0": 512, "R_max": 256}},
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
    {"mode": "inhomogeneous"},
    {"model": {"kind": "foo"}},
    {"model": {"kind": "cycle"}},
    {"model": {"kind": "cycle", "n": 8, "mu": [1, 2]}},
    {"model": {"kind": "cycle", "n": 8, "nx": 8}},
    {"model": {"kind": "cycle", "n": 8.5}},
    {"model": {"kind": "cycle", "n": 8, "l_scale": "1"}},
    {"model": {"kind": "tree", "n": 3, "edges": [[0, 1, 1.0]]}},
    {"model": {"kind": "tree", "n": 3, "edges": [[0, 1, 1.0], [1, 3, 1.0]]}},
    {"model": {"kind": "torus", "nx": 3, "ny": 1}},
    {"model": {"kind": "path", "n": 2}},
    {"model": 64},
    {"model": {"kind": "tree", "n": 4,
               "edges": [[0, 1, 1.0], [0, 1, 1.0], [2, 3, 1.0]]}},
    {"output_dir": ""},
    # the test runs in tmp_path, where cfg.json is a file
    {"output_dir": "cfg.json"},
])
def test_bad_config_is_a_config_error(tmp_path, capsys, monkeypatch, cfg):
    monkeypatch.setattr(cli.sp, "build_model", _no_build)
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("model", ["C_1", "C_2", "C_3", "P_1", "P_2", "T_1",
                                   "T_2x1", "T_3x1", "T_1x3",
                                   {"kind": "tree", "n": 2,
                                    "edges": [[0, 1, 1.0]]}])
def test_models_below_diameter_two_are_config_errors(tmp_path, capsys,
                                                    monkeypatch, model):
    monkeypatch.setattr(cli.sp, "build_model", _no_build)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": model}))
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: a model needs diameter >= 2")
    assert "n//2 for C_n" in err


@pytest.mark.parametrize("model", ["C_4", "P_3", "T_2x2",
                                   {"kind": "tree", "n": 3,
                                    "edges": [[0, 1, 1.0], [1, 2, 1.0]]}])
def test_smallest_models_run_clean(tmp_path, capsys, model):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": model,
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert len(report) == 1 + len(cli.SUITES)
    assert all(" status=pass" in line or " status=record" in line
               for line in report[1:])


@pytest.mark.parametrize("module, suites", [
    ("sympy", None), ("scipy.sparse", None), ("scipy", None),
    ("sympy", ["thm8.1-multiplier"])],
    ids=["sympy", "scipy.sparse", "scipy", "sympy-after-multiplier-run"])
def test_cli_import_leaves_sympy_unloaded(tmp_path, module, suites):
    script = "import sys, mmframes.cli"
    if suites:
        # a multiplier run takes its Mihlin derivatives without sympy
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "C_4", "suites": suites,
                                   "output_dir": str(tmp_path / "out")}))
        script += f"; assert mmframes.cli.main(['run', {str(cfg)!r}]) == 0"
    res = subprocess.run(
        [sys.executable, "-c", f"{script}; print({module!r} in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "False"


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
    # an override naming a file is a config error
    res = _run(["run", str(p)], env={"MMFRAMES_OUTPUT_DIR": str(p)})
    assert res.returncode == 2
    assert res.stderr.startswith("config error: cannot create output_dir")


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


def test_run_order_puts_every_gate_before_its_dependents(capsys):
    assert cli.main(["list-suites"]) == 0
    order = [line.split("\t")[0]
             for line in capsys.readouterr().out.splitlines()]
    for gate, dependents in cli.DOWNSTREAM.items():
        assert gate in cli.SUITES
        for name in dependents:
            assert name in cli.SUITES
            assert order.index(gate) < order.index(name), (gate, name)


def test_failed_theta_skips_exactly_its_dependents(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"theta": {"R0": 512, "R_max": 512},
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 1
    capsys.readouterr()
    lines = (tmp_path / "out" / "report.txt").read_text().splitlines()[1:]
    status = {line.split()[0][len("suite="):]: line.split(" status=")[1]
              for line in lines}
    assert status["prop6.6-theta"].startswith("fail ")
    skipped = {name for name, rest in status.items()
               if rest.startswith("skip")}
    assert skipped == {"prop2.1-finite-speed", "thm6.7-compact-dual",
                       "thm7.9-atoms"}
    assert all(status[name] == "skip reason=dependency" for name in skipped)
    assert all(rest.split()[0] in ("pass", "record")
               for name, rest in status.items()
               if name != "prop6.6-theta" and name not in skipped)


def test_neumann_suites_peak_memory():
    # thm6.3-neumann and thm6.7-compact-dual, each run alone on a C_64
    # context whose frames are built, allocate at most 5.5 m x m float64
    # tables at their peak
    import tracemalloc
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    for name in ("hier", "params", "frame", "dual", "compact"):
        ctx.get(name)
    table = ctx.get("hier").size ** 2 * 8
    for suite in ("thm6.3-neumann", "thm6.7-compact-dual"):
        tracemalloc.start()
        try:
            status, _ = cli.SUITES[suite][2](ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == "pass"
        assert peak <= 5.5 * table, (suite, peak / table)
