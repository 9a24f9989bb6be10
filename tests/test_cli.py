import dataclasses
import itertools
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mmframes import addiag as ad
from mmframes import cli
from conftest import table_frame


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
    {"theta": {"N": 4}},
    {"suites": "doubling"},
    {"suites": [["doubling"]]},
    {"suites": 5},
    {"b": 1.0},
    {"b": "x"},
    {"b": True},
    {"model": "Q_5"},
    {"gamma": -1},
    {"gamma": 0},
    {"gamma": None},
    {"spq": [0, 2]},
    {"spq": "0 2 2"},
    {"spq": [0, [2], 2]},
    {"spq": [0, 2, 0]},
    {"flavor": "weak"},
    {"family": "sobolev"},
    {"mode": "foo"},
    {"seed": "a"},
    {"seed": -1},
    {"battery": 0},
    {"battery": 2.5},
    {"refined_model": "C_128"},
    {"tolerances": {}},
    {"mode": "inhomogeneous"},
    [],
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
    {"output_dir": 7},
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


# the library path's set-up: frames, doubling profile and Mihlin symbol
APPLY_SETUP = (
    "; from mmframes import frames, multiplier, seqspace, space"
    "; s, spec, *_ = frames.default_frames('C_16')"
    "; p = space.measure_doubling(s)"
    "; multiplier.check_mihlin('rational', 4, seqspace.SpaceParams("
    "s=0.0, p=2.0, q=2.0, d=p.d, dstar=max(p.dstar, 0.0)), spec)")


@pytest.mark.parametrize("module, run", [
    ("sympy", None), ("scipy.sparse", None), ("scipy", None),
    ("sympy", {"model": "C_4", "suites": ["thm8.1-multiplier"]}),
    ("scipy", {"model": "C_16"}), ("numpy.ma", {"model": "C_16"}),
    ("numpy.ma", APPLY_SETUP)],
    ids=["sympy", "scipy.sparse", "scipy", "sympy-after-multiplier-run",
         "scipy-after-full-run", "numpy.ma-after-full-run",
         "numpy.ma-after-apply-setup"])
def test_cli_import_leaves_sympy_unloaded(tmp_path, module, run):
    script = "import sys, mmframes.cli"
    if isinstance(run, str):
        script += run
    elif run:
        # a multiplier run takes its Mihlin derivatives without sympy, and
        # a full run needs numpy only
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**run, "output_dir": str(tmp_path / "out")}))
        script += f"; assert mmframes.cli.main(['run', {str(cfg)!r}]) == 0"
    res = subprocess.run(
        [sys.executable, "-c", f"{script}; print({module!r} in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "False"


def test_inhomogeneous_mode_without_a_level_fails(tmp_path):
    # l_scale 0.01 puts the whole spectrum below level 0, so the
    # inhomogeneous window is empty: a fail on no sample, not an error
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "model": {"kind": "cycle", "n": 64, "l_scale": 0.01},
        "suites": ["inhomogeneous-mode"],
        "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 1
    line = (tmp_path / "out" / "report.txt").read_text().splitlines()[1]
    assert line.startswith("suite=inhomogeneous-mode ")
    assert line.endswith(" status=fail levels=0")


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


def test_summary_first_line_shows_sizes_and_peak_rss(tmp_path, capsys):
    # the hierarchy's n, m and number of levels, and the peak RSS, follow
    # the counts; a run that builds no hierarchy prints none of its sizes
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": ["doubling", "lemma9.1"],
                             "model": "C_32",
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    first = (tmp_path / "out" / "summary.txt").read_text().splitlines()[0]
    counts, *fields = first.split("; ")
    assert counts == "model C_32: 1 passed, 1 recorded, 0 failed, 0 skipped"
    hier = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_32")).get("hier")
    assert fields[0] == (f"n=32 m={hier.size} levels={len(hier.levels)}")
    assert fields[1].startswith("peak_rss_mb=")
    assert float(fields[1].split("=")[1]) > 0
    p.write_text(json.dumps({"suites": ["doubling"], "model": "C_32",
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    first = (tmp_path / "out" / "summary.txt").read_text().splitlines()[0]
    assert first.split("; ")[1].startswith("peak_rss_mb=")


def test_summary_second_line_lists_resource_build_times(tmp_path, capsys,
                                                        monkeypatch):
    # each resource the run built, in the order its build ended, with the
    # seconds in its builder less those of the builds nested in it
    clock = itertools.count()
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": ["doubling", "lemma9.1"],
                             "model": "C_16",
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    second = (tmp_path / "out" / "summary.txt").read_text().splitlines()[1]
    # one clock tick per reading: space is built inside profile, spec inside
    # hier, so each leaf spends 1 tick and each parent 3 less its child's 1
    assert second == ("resources: space 1.000s profile 2.000s spec 1.000s "
                      "hier 2.000s")
    p.write_text(json.dumps({"suites": [], "model": "C_16",
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "summary.txt").read_text().splitlines()[1] \
        == "resources:"


def test_summary_shows_the_first_line_of_an_error(tmp_path, capsys,
                                                  monkeypatch):
    def boom(ctx):
        raise RuntimeError("doubling broke here\nsecond line")

    anchor, desc, _ = cli.SUITES["doubling"]
    monkeypatch.setitem(cli.SUITES, "doubling", (anchor, desc, boom))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": ["doubling"], "model": "C_16",
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 1
    capsys.readouterr()
    line = [line for line in (tmp_path / "out" / "summary.txt")
            .read_text().splitlines() if " doubling " in line][0]
    assert line.startswith("  error ")
    assert line.endswith("s): doubling broke here")
    # report.txt keeps only the exception type
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "status=error reason=RuntimeError\n" in report
    assert "broke" not in report


def test_integer_b_runs_the_compact_frame_suites(tmp_path, capsys):
    # load_config accepts an integer b; the compact frame scales b^{-j}
    # must come out as the float b gives
    suites = ["prop2.1-finite-speed", "thm6.7-compact-dual", "thm7.9-atoms"]
    reports = []
    for b in (3, 3.0):
        out = tmp_path / str(b)
        p = tmp_path / f"cfg_{b}.json"
        p.write_text(json.dumps({"model": "C_16", "b": b, "suites": suites,
                                 "output_dir": str(out)}))
        assert cli.main(["run", str(p)]) == 0
        reports.append((out / "report.txt").read_text().splitlines()[1:])
    capsys.readouterr()
    # C_16 has no polynomial level at b = 3, so prop2.1 only records
    assert [line.split(" status=")[1].split()[0] for line in reports[0]] == \
        ["record", "pass", "pass"]
    assert reports[0] == reports[1]


def test_load_config_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 3}))
    cfg = cli.load_config(str(p))
    assert cfg == dict(cli.DEFAULT_CONFIG, seed=3)


def test_lemma64_suite_fails_on_an_empty_sample(monkeypatch):
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_32"))
    status, metrics = cli._suite_lemma64(ctx)
    assert status == "pass" and metrics["max_ratio"] > 0
    # every beta >= gamma1 + gamma2: no combination is measured
    monkeypatch.setattr(cli, "_LEMMA64_GRID", ((2.0,), (0.5, 1.0), (0.6,)))
    assert cli._suite_lemma64(ctx)[0] == "fail"


@pytest.mark.parametrize("mutation", ["none", "ratio", "transpose"])
def test_lemma64_spot_check_can_fail(mutation, monkeypatch):
    # the suite re-sums each pair's ratio over theta with omega2: a
    # max_ratio 1e-9 off, or an argmax read transposed, fails it on C_64
    grid = cli.ad.lemma64_grid

    def mutated(hier, params, beta, pairs):
        out = grid(hier, params, beta, pairs)
        if mutation == "ratio":
            return [dict(r, max_ratio=r["max_ratio"] * (1 + 1e-9))
                    for r in out]
        if mutation == "transpose":
            return [dict(r, argmax=r["argmax"][::-1]) for r in out]
        return out

    monkeypatch.setattr(cli.ad, "lemma64_grid", mutated)
    status, metrics = cli._suite_lemma64(cli.Context(dict(cli.DEFAULT_CONFIG)))
    assert metrics["spot_pairs"] == 27
    assert status == ("pass" if mutation == "none" else "fail")


def test_net_count_suite_fails_on_a_nan_ratio(monkeypatch):
    # a NaN ratio is not at most 1, so lemma9.1 fails on it, also where the
    # largest ratio it reports is finite
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_16"))
    assert cli.SUITES["lemma9.1"][2](ctx)[0] == "pass"
    count = cli.sp.check_net_count
    calls = []

    def nan_second(*args):
        calls.append(args)
        return np.nan if len(calls) == 2 else count(*args)

    monkeypatch.setattr(cli.sp, "check_net_count", nan_second)
    assert cli.SUITES["lemma9.1"][2](ctx)[0] == "fail"
    assert len(calls) > 2


def test_neumann_suite_takes_one_lemma64_grid(tmp_path, capsys, monkeypatch):
    # the grid at beta = 1/2 is one resource: thm6.3-neumann reads its c*
    # from the pair (1, 1/2) that neumann_invert's certificate takes, and
    # lemma6.4-W-bound reads the other pairs, so a run of both takes one
    # grid per beta, three in all
    grids, metrics = [], []
    grid = cli.ad.lemma64_grid

    def counted(hier, params, beta, pairs):
        grids.append((beta, grid(hier, params, beta, pairs)))
        return grids[-1][1]

    anchor, desc, suite = cli.SUITES["thm6.3-neumann"]

    def recorded(ctx):
        status, out = suite(ctx)
        metrics.append(out)
        return status, out

    monkeypatch.setattr(cli.ad, "lemma64_grid", counted)
    monkeypatch.setitem(cli.SUITES, "thm6.3-neumann", (anchor, desc, recorded))
    p = tmp_path / "cfg.json"
    for suites, betas in ((["thm6.3-neumann"], [0.5]),
                          (["lemma6.4-W-bound", "thm6.3-neumann"],
                           list(cli._LEMMA64_GRID[0]))):
        grids.clear()
        metrics.clear()
        p.write_text(json.dumps({"model": "C_16", "suites": suites,
                                 "output_dir": str(tmp_path / "out")}))
        assert cli.main(["run", str(p)]) == 0
        capsys.readouterr()
        assert [beta for beta, _ in grids] == betas and len(metrics) == 1
        half = grids[betas.index(0.5)][1]
        assert metrics[0]["c_star"] == half[-1]["max_ratio"]
        status = _statuses(tmp_path / "out")
        assert all(status[name].startswith("pass ") for name in suites)


def test_omega_suite_fails_when_the_table_and_pairs_disagree(monkeypatch):
    # pair_err compares omega2 pair by pair with the table's row levels
    # (omega2_rows), so a table off by 1e-12 relative fails the 1e-14 gate
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_16"))
    assert cli.SUITES["def6.1-omega"][2](ctx)[0] == "pass"
    rows = cli.ad.omega2_rows
    monkeypatch.setattr(cli.ad, "omega2_rows", lambda *args: (
        (sl, W * (1 + 1e-12)) for sl, W in rows(*args)))
    status, metrics = cli.SUITES["def6.1-omega"][2](ctx)
    assert status == "fail" and metrics["pair_err"] > 1e-14


def test_omega_suite_fails_when_the_table_diagonal_is_not_one(monkeypatch):
    # a diagonal one ulp off 1 leaves pair_err at rounding level, so only
    # diag_err, read from the table itself, can catch it
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_16"))
    assert cli.SUITES["def6.1-omega"][2](ctx)[0] == "pass"
    rows = cli.ad.omega2_rows

    def off_diagonal(*args):
        for sl, W in rows(*args):
            D = W[:, sl]
            D[np.diag_indices_from(D)] *= 1 + 2.0 ** -52
            yield sl, W

    monkeypatch.setattr(cli.ad, "omega2_rows", off_diagonal)
    status, metrics = cli.SUITES["def6.1-omega"][2](ctx)
    assert status == "fail" and metrics["diag_err"] > 0
    assert metrics["pair_err"] < 1e-14


def test_battery_suites_fail_on_an_all_zero_battery():
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    names = ("thm3.4-telescoping", "thm4.2-reconstruction", "thm5.5-besov",
             "thm5.6-tl", "thm6.7-compact-dual", "thm7.5-analysis",
             "thm7.9-atoms", "thm8.1-multiplier")
    for name in names:
        assert cli.SUITES[name][2](ctx)[0] == "pass", name
    ctx._cache["battery"] = np.zeros_like(ctx.get("battery"))
    for name in names:
        assert cli.SUITES[name][2](ctx)[0] == "fail", name


def test_norm_suites_measure_with_a_band_symbol(monkeypatch):
    # every function norm a suite takes goes through _level_pieces, whose
    # phi must be a band symbol: it vanishes at 0 and at b
    seen = []
    level_pieces = cli.sq._level_pieces

    def record(f, params, spec, phi, b):
        seen.append(phi)
        return level_pieces(f, params, spec, phi, b)

    monkeypatch.setattr(cli.sq, "_level_pieces", record)
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_16"))
    b = ctx.cfg["b"]
    for name in ("thm5.5-besov", "thm5.6-tl", "thm7.4-synthesis",
                 "thm7.5-analysis", "thm7.9-atoms", "thm8.1-multiplier"):
        seen.clear()
        assert cli.SUITES[name][2](ctx)[0] in ("pass", "record"), name
        assert seen, name
        assert all(phi(0.0) == 0.0 and phi(b) == 0.0 for phi in seen), name


def test_run_order_puts_every_gate_before_its_dependents(capsys):
    assert cli.main(["list-suites"]) == 0
    order = [line.split("\t")[0]
             for line in capsys.readouterr().out.splitlines()]
    assert order == list(cli.SUITES) == list(cli.AFTER)
    for name, gates in cli.AFTER.items():
        for gate in gates:
            assert order.index(gate) < order.index(name), (gate, name)
    # a suite may follow only a suite registered before it, and each name
    # is registered once
    for name, after in (("late", ("no-such-suite",)), ("doubling", ())):
        with pytest.raises(ValueError):
            cli._suite(name, "anchor", "description", after)(_no_build)
    assert "late" not in cli.SUITES and "late" not in cli.AFTER


def test_neumann_closed_form_at_rounding_on_a_small_resolvent(tmp_path,
                                                              capsys):
    # at spq = [2, 0.3, 0.3] max|(I - D)^{-1} - I| is about 5e-10, so the
    # closed form is compared on C = (I - D)^{-1} - I, taken before I is
    # added, whose entries do not round at 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "C_64", "spq": [2, 0.3, 0.3],
                             "suites": ["thm6.3-neumann"],
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    status = _statuses(tmp_path / "out")["thm6.3-neumann"]
    assert status.startswith("pass ")
    closed = float(status.split(" closed_form=")[1].split()[0])
    assert closed <= 1e-13


def test_neumann_residual_sees_a_wrong_inverse_on_a_small_resolvent(
        tmp_path, capsys, monkeypatch):
    # max|D| is about 5e-10 here, so a zero core (C = 0, the identity as
    # the inverse) leaves an absolute defect max|D| below the 1e-9 gate;
    # relative to max|D| it reads 1
    monkeypatch.setattr(ad, "neumann_series",
                        lambda step: (0.0 * step, 0, 0.0))
    reports = []
    neumann_invert = ad.neumann_invert

    def invert(*args):
        C, rep = neumann_invert(*args)
        reports.append(rep)
        return C, rep

    monkeypatch.setattr(ad, "neumann_invert", invert)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "C_64", "spq": [2, 0.3, 0.3],
                             "suites": ["thm6.3-neumann"],
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 1
    capsys.readouterr()
    assert not _statuses(tmp_path / "out")["thm6.3-neumann"].startswith(
        "pass ")
    assert len(reports) == 1 and reports[0]["residual"] > 1e-9


def test_neumann_closed_form_fails_on_a_zero_inverse(tmp_path, capsys,
                                                     monkeypatch):
    # a zero core gives C = 0; the closed form is taken relative to
    # max|A_{cm/(1-cm)}|, not max|C|, so it reads 1 and fails the gate
    # instead of dividing 0 by 0
    monkeypatch.setattr(ad, "neumann_series",
                        lambda step: (0.0 * step, 0, 0.0))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "C_64", "spq": [2, 0.3, 0.3],
                             "suites": ["thm6.3-neumann"],
                             "output_dir": str(tmp_path / "out")}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(p)]) == 1
    capsys.readouterr()
    status = _statuses(tmp_path / "out")["thm6.3-neumann"]
    assert status.startswith("fail ")
    assert " closed_form=1 " in status and " residual=1 " in status


@pytest.mark.parametrize("size, gate, passes", [(1e-8, None, True),
                                               (1e-8, 1.0, True),
                                               (1e-4, 1.0, False),
                                               (1e-13, None, True)])
def test_neumann_residual_bounds_an_off_band_coefficient(size, gate, passes,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    # one coefficient of V planted off its band, at size times max|V|,
    # leaks off G's diagonal.  At 1e-8 the leak is above the gate, the full
    # core is kept and nothing is dropped.  With the gate at 1 the
    # diagonal core drops the coefficient, and the residual, which bounds
    # what was dropped, reads it: 6e-13 at 1e-8, and above 1e-9 at 1e-4,
    # where the suite fails while closed_form (blind to it) passes.  At
    # 1e-13 the leak is under the gate and the suite passes
    factors = cli._factors

    def planted(ctx):
        U, V = factors(ctx)
        k, xi = 1, ctx.get("hier").blocks[-1].start
        assert V[k, xi] == 0  # the finest band is far from lambda_1
        V[k, xi] = size * np.abs(V).max()
        return U, V

    monkeypatch.setattr(cli, "_factors", planted)
    if gate is not None:
        monkeypatch.setattr(ad, "CORE_LEAK_GATE", gate)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "C_64",
                             "suites": ["thm6.3-neumann"],
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == (0 if passes else 1)
    capsys.readouterr()
    status = _statuses(tmp_path / "out")["thm6.3-neumann"]
    values = dict(kv.split("=") for kv in status.split()[1:])
    assert status.split()[0] == ("pass" if passes else "fail")
    assert (float(values["core_leak"]) > 1e-10) == (size > 1e-10)
    assert (float(values["residual"]) > 1e-14) == (gate is not None)
    assert (float(values["residual"]) <= 1e-9) == passes
    assert float(values["closed_form"]) <= 1e-9


def _statuses(outdir):
    """suite name -> the rest of its report line from status= on"""
    lines = (outdir / "report.txt").read_text().splitlines()[1:]
    return {line.split()[0][len("suite="):]: line.split(" status=")[1]
            for line in lines}


# the suites that each gate skips when it fails or errors
GATED = {
    "lemma4.1-sampling": {"thm4.2-reconstruction", "thm4.2-bands",
                          "thm5.5-besov", "thm5.6-tl", "thm6.2-boundedness",
                          "thm6.3-neumann", "thm6.7-compact-dual",
                          "lemma7.2-molecules", "lemma7.3-gram",
                          "thm7.4-synthesis", "thm7.5-analysis",
                          "thm7.9-atoms", "thm8.1-multiplier"},
    "prop6.6-theta": {"prop2.1-finite-speed", "thm6.7-compact-dual",
                      "thm7.9-atoms"},
    "thm6.7-compact-dual": {"thm7.9-atoms"},
}


def _assert_skips_exactly(status, gate):
    assert status[gate].startswith("fail")
    skipped = {name for name, rest in status.items()
               if rest.startswith("skip")}
    assert skipped == GATED[gate]
    assert all(status[name] == "skip reason=dependency" for name in skipped)
    assert all(rest.split()[0] in ("pass", "record")
               for name, rest in status.items()
               if name != gate and name not in skipped)


@pytest.mark.parametrize("gate", sorted(GATED))
def test_failed_gate_skips_exactly_its_dependents(tmp_path, capsys,
                                                  monkeypatch, gate):
    anchor, desc, _ = cli.SUITES[gate]
    monkeypatch.setitem(cli.SUITES, gate,
                        (anchor, desc, lambda ctx: ("fail", {})))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "C_16",
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 1
    capsys.readouterr()
    _assert_skips_exactly(_statuses(tmp_path / "out"), gate)


def test_gate_that_did_not_run_skips_nothing(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "C_16", "suites": ["thm7.9-atoms"],
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    assert _statuses(tmp_path / "out")["thm7.9-atoms"].startswith("pass ")


def test_compact_suites_run_clean_on_a_polynomial_level(tmp_path, capsys):
    # P_128: level 1 is a polynomial of degree 81 below the diameter 127,
    # whose support reaches exactly 81 hops (Prop 2.1's ratio 1), and the
    # compact dual and the atoms pass on it
    suites = ["prop6.6-theta", "prop2.1-finite-speed", "thm6.7-compact-dual",
              "thm7.9-atoms"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "P_128", "suites": suites,
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    status = _statuses(tmp_path / "out")
    assert [status[name].split()[0] for name in suites] == \
        ["record", "pass", "pass", "pass"]
    assert " level1_degree=81 " in status["prop6.6-theta"]
    assert "level1_support=81" in status["prop6.6-theta"].split()
    assert status["prop2.1-finite-speed"].endswith(" worst_ratio=1")
    assert " support_ok=true" in status["thm7.9-atoms"]


@pytest.mark.parametrize("resource, level, key", [
    ("dual", -1, "leak"), ("frame", 0, "primal_leak")])
def test_band_suite_fails_on_a_band_edge(resource, level, key):
    # one coefficient of 1e-3 max|table| planted on C_64's eigenvector 63,
    # sqrt(lambda) = 2, in one column of a level whose band ends there:
    # b^{j+2} for the dual's g_{-1}, b^{j+1} for the primal's Psi_0.  The
    # suite reads it as that table's leak and fails; the other table's
    # leak stays 0
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    hier, frame = ctx.get("hier"), ctx.get(resource)
    coeffs = frame.table().copy()
    xi = hier.blocks[level - hier.j_min].start
    assert coeffs[63, xi] == 0
    coeffs[63, xi] = 1e-3 * np.abs(coeffs).max()
    ctx._cache[resource] = table_frame(frame.spec, frame.hierarchy, coeffs)
    status, metrics = cli.SUITES["thm4.2-bands"][2](ctx)
    assert status == "fail" and metrics[key] == pytest.approx(1e-3)
    other = {"leak": "primal_leak", "primal_leak": "leak"}[key]
    assert metrics[other] == 0.0 and metrics["basis_defect"] <= 1e-14


def test_band_suite_fails_on_a_scaled_basis():
    # eigenfunctions scaled by 1 + 1e-8 are no longer mu-orthonormal:
    # E^T M E = (1 + 1e-8)^2 I, a basis defect of 2e-8, and the suite fails
    # on it while both tables' leaks read 0
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    ctx.get("frame"), ctx.get("dual")
    spec = ctx.get("spec")
    ctx._cache["spec"] = dataclasses.replace(
        spec, eigenfunctions=spec.eigenfunctions * (1.0 + 1e-8))
    status, metrics = cli.SUITES["thm4.2-bands"][2](ctx)
    assert status == "fail"
    assert metrics["basis_defect"] == pytest.approx(2e-8, rel=1e-6)
    assert metrics["leak"] == metrics["primal_leak"] == 0.0


@pytest.mark.parametrize("config", [
    {"model": "C_64"},
    {"model": "P_128", "suites": ["prop6.6-theta", "prop2.1-finite-speed",
                                  "thm6.7-compact-dual", "thm7.9-atoms"]}],
    ids=["C_64", "P_128-compact"])
def test_no_suite_reads_frame_columns(config, tmp_path, capsys, monkeypatch):
    # with Frame.columns made to raise, every suite on C_64 and the compact
    # suites on P_128 end as they do without it: each run reads every frame
    # as its coefficient table
    def raises(frame):
        raise AssertionError("a suite synthesised a frame's columns")

    monkeypatch.setattr(cli.fr.Frame, "columns", property(raises))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(config, output_dir=str(tmp_path / "out"))))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    status = _statuses(tmp_path / "out")
    assert all(rest.split()[0] in ("pass", "record")
               for rest in status.values())
    assert len(status) == len(config.get("suites", cli.SUITES))


def test_molecule_suite_checks_the_configured_flavor(monkeypatch):
    # C_16 in the tilde flavor at s = 1.5: every certificate of the suite
    # reads the tilde orders, with the decay M = J + |s| + 1/2; one call
    # certifies both families in both flavours, and the scaled
    # re-validation scales those certificates
    calls = []
    validate = cli.mo.validate_molecule

    def recorded(*args, **kwargs):
        calls.append(validate(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cli.mo, "validate_molecule", recorded)
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="C_16",
                           spq=[1.5, 4, 1], flavor="tilde"))
    status, _ = cli._suite_molecule_constants(ctx)
    assert status == "pass"
    params = ctx.get("params")
    assert len(calls) == 1 and len(calls[0]) == 2
    certs = [cert for family in calls[0] for cert in family.values()]
    assert len(certs) == 4
    for cert in certs:
        assert cert.orders.flavor == "tilde"
        assert cert.M == params.J + abs(params.s) + 0.5


@pytest.mark.parametrize("entry", [1e-6, 3e-8])
def test_molecule_suite_gates_the_raw_factorization_residual(entry):
    # one entry on the nullspace row of psi's table V, the constant's, off
    # every band, planted into the run's primal frame: psi is no longer
    # mean-zero, and the factorization residual reads the entry times the
    # constant eigenfunction 1/8.  At 3e-8 that is 3.75e-9, and both psi
    # certificates scaled by their c* (0.14 and 1.1e-3) pass, their
    # residual taken against max(1, c* max|cols|) = 1; only the gate on the
    # family as given fails the suite
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    hier, frame = ctx.get("hier"), ctx.get("frame")
    assert not frame.table()[0].any()
    V = frame.table().copy()
    V[0, hier.blocks[2].start] = entry
    ctx._cache["frame"] = table_frame(frame.spec, frame.hierarchy, V)
    assert cli.SUITES["lemma7.2-molecules"][2](ctx)[0] == "fail"
    certs = cli.mo.validate_molecule([ctx.get("frame")],
                                     ctx.get("params"))[0]
    for cert in certs.values():
        assert cert.factorization_residual == pytest.approx(entry / 8.0)
        if entry < 1e-6:
            cstar = cli.mo.scaling_for_budget(cert) * (1.0 - 1e-9)
            assert cert.scaled(cstar).passed


def test_molecule_suite_line_on_the_default_config(tmp_path, capsys):
    # the classical decay M = J + 1/2 gives the default run's line, read
    # from the frames' coefficient tables
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": ["lemma7.2-molecules"],
                             "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    assert _statuses(tmp_path / "out")["lemma7.2-molecules"] == (
        "pass psi_analysis_cstar=0.0011273015257 "
        "psi_synthesis_cstar=0.137562373689 "
        "psit_analysis_cstar=2.36904135029e-05 "
        "psit_synthesis_cstar=0.0121830851484")


def test_molecule_suite_passes_on_a_small_resolvent(tmp_path, capsys):
    # at spq = [2, 0.3, 0.3] the ladder reaches L^-2; read from the frames'
    # coefficient tables, exactly 0 off each level's band, it multiplies no
    # rounding noise by lambda^-2, and every family passes at the 1 - 1e-9
    # back-off
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": "C_64", "spq": [2, 0.3, 0.3],
                             "suites": ["lemma7.2-molecules"],
                             "output_dir": str(tmp_path / "out")}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    assert _statuses(tmp_path / "out")["lemma7.2-molecules"].startswith(
        "pass ")


def test_neumann_suites_peak_memory():
    # thm6.3-neumann, thm6.7-compact-dual and lemma6.4-W-bound, each run
    # alone on a C_64 context whose frames and beta = 1/2 grid are built
    # (the frame factors are formed inside each suite that reads them),
    # allocate at most 2.0 m x m float64 tables at their
    # peak: no weighted norm forms its table whole, and the grid holds its
    # level-scale blocks, the block products still to be read and one
    # ratio chunk
    import tracemalloc
    # numpy imports np.random on its first use; import it here, so that
    # the peak is the suites' own tables whichever tests ran before
    import numpy.random  # noqa: F401
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    for name in ("hier", "params", "frame", "dual", "compact",
                 "lemma64_half"):
        ctx.get(name)
    table = ctx.get("hier").size ** 2 * 8
    for suite in ("thm6.3-neumann", "thm6.7-compact-dual",
                  "lemma6.4-W-bound"):
        tracemalloc.start()
        try:
            status, _ = cli.SUITES[suite][2](ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == "pass"
        assert peak <= 2.0 * table, (suite, peak / table)
