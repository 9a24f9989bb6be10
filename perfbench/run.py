"""Benchmark of the mmframes verification battery and library path.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Workloads (see perfbench/README.md):

  verify-C_64     ``mmframes run`` with the default config, one process per run
  verify-C_256    ``mmframes run`` with ``{"model": "C_256"}``
  apply-T_16x16   frames, norms and a multiplier applied to seeded functions

With ``--trace 0`` the end-to-end metrics are measured untraced, and each
time is reported at the reference host speed of hostspeed.py; with
``--trace 1`` one untraced and one traced run give the per-layer metrics and
the tracing overhead.  The metric names and units are read from
BENCHMARK.json.  Human-readable lines come first; the last line of standard
output is one JSON object.  A results file with the environment stamp goes to
perfbench/out/.  Exit code 2 means the benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable

BUDGET_S = 170.0        # one invocation, below the 180 s limit
SETUP_REPEATS = 5       # verify: fresh imports of mmframes.cli per invocation
APPLY_PARTS = 3         # apply: worker processes per invocation, one set-up each
APPLY_MIN_FNS = 1000    # so that p99 has at least ten samples beyond it
TRACE_APPLY_FNS = 200   # apply functions in each process of a traced run

WORKLOADS = {"verify-C_64": "C_64", "verify-C_256": "C_256",
             "apply-T_16x16": "T_16x16"}
IMPORT_PACKAGES = ("sympy", "scipy", "numpy", "mmframes")


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no time left)."""


def child_env(**extra):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MMFRAMES_OUTPUT_DIR", None)
    env.update(extra)
    return env


def spawn(argv_for, log_path, deadline, env=None):
    """Run one child to completion under the deadline.

    ``argv_for(t_spawn)`` builds the command line from the spawn time.
    Returns (exit code, wall seconds from spawn to exit, peak RSS in MB,
    spawn time).  A child still running at the deadline is killed.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("time budget exhausted before " + log_path.name)
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv_for(t_spawn), cwd=ROOT,
                                env=env or child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, t_spawn


def log_tail(path, lines=15):
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


# ---------------------------------------------------------------------------
# pieces shared by the workloads


def setup_probe(workdir, idx, deadline):
    """Seconds from spawn to the end of ``import mmframes.cli``, raw and at
    reference speed."""
    tag = "setup%d" % idx
    result_path = workdir / (tag + ".json")
    code, _, _, _ = spawn(
        lambda t: [PY, str(BENCH / "worker.py"), "setup", "--t-spawn", repr(t),
                   "--out", str(result_path)],
        workdir / (tag + ".log"), deadline)
    if code != 0 or not result_path.is_file():
        raise BenchError("import mmframes.cli failed:\n"
                         + log_tail(workdir / (tag + ".log")))
    result = json.loads(result_path.read_text())
    if not Path(result["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("mmframes imported from %s, not from %s"
                         % (result["module_file"], SRC))
    return result["setup_s"], result["norm_setup_s"]


def import_breakdown(workdir, deadline):
    """import.<package>_s from ``python -X importtime -c "import
    mmframes.cli"``: cumulative time of each package's outermost imports.
    ``import.mmframes_s`` is the whole import, the others are shares of it."""
    log = workdir / "importtime.log"
    code, _, _, _ = spawn(lambda t: [PY, "-X", "importtime", "-c",
                                     "import mmframes.cli"], log, deadline)
    if code != 0:
        raise BenchError("importtime probe failed:\n" + log_tail(log))
    entries = []
    for line in log.read_text().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or "cumulative" in line:
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[1])))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    stack = []   # ancestors of the current entry, walking in pre-order
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(anc != top for _, anc in stack):
            totals[top] += cumulative_us
        stack.append((depth, top))
    return {"import.%s_s" % pkg: us * 1e-6 for pkg, us in totals.items()}


def traced_summary(result, tag):
    """Keep the spans in their own file; return the checks and whether the
    tracer's self-checks held."""
    spans_path = OUT / (tag + "-spans.json")
    with open(spans_path, "w") as fh:
        json.dump({"errors": result["errors"], **result.pop("spans")}, fh)
    checks = result["checks"]
    ok = (not checks["restored"] and not checks["nesting"]
          and checks["self_time_within_wall"]
          and checks["cross_module_attribution"])
    return ok, str(spans_path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# verify workloads


def parse_report(data):
    statuses = {}
    for line in data.decode().splitlines():
        fields = dict(f.split("=", 1) for f in line.split(" ") if "=" in f)
        if "suite" in fields:
            statuses[fields["suite"]] = fields.get("status")
    return statuses


def verify_run(argv_for, workdir, tag, deadline):
    """One ``mmframes run`` in a fresh worker process, and its checks."""
    outdir = workdir / tag
    outdir.mkdir()
    env = child_env(MMFRAMES_OUTPUT_DIR=str(outdir))
    code, wall, rss, _ = spawn(argv_for, workdir / (tag + ".log"), deadline, env)
    report_path = outdir / "report.txt"
    run = {"exit_code": code, "wall_s": wall, "rss_mb": rss, "report": None,
           "ok": False}
    if report_path.is_file():
        run["report"] = report_path.read_bytes()
        statuses = parse_report(run["report"])
        bad = sorted(s for s, st in statuses.items() if st in ("fail", "error"))
        run["statuses"] = statuses
        run["suites_bad"] = sum(st in ("fail", "error", "skip")
                                for st in statuses.values())
        run["suites_selected"] = len(statuses)
        # exit code 1 exactly when some suite fails or errors
        run["ok"] = bool(statuses) and code == (1 if bad else 0)
    if not run["ok"]:
        print("run %s: exit %s\n%s" % (tag, code, log_tail(workdir / (tag + ".log"))),
              file=sys.stderr)
    return run


def verify_workload(model, seed, seconds, trace, workdir, deadline):
    """Untraced: fresh ``mmframes run`` processes, as many whole runs as fit
    in ``seconds`` (at least one).  Traced: one in-process run without and
    one with the tracer."""
    config = workdir / "config.json"
    config.write_text(json.dumps({"model": model, "seed": seed}))
    out = {"samples": {}}
    if trace:
        runs = [verify_run(
            lambda t, flag=flag: [
                PY, str(BENCH / "worker.py"), "verify", "--config", str(config),
                "--trace", str(flag), "--t-spawn", repr(t),
                "--out", str(workdir / ("trace%d.json" % flag))],
            workdir, "trace%d" % flag, deadline) for flag in (0, 1)]
    else:
        setups = [setup_probe(workdir, i, deadline) for i in range(SETUP_REPEATS)]
        runs = []
        loop_t0 = time.monotonic()
        while not runs or (time.monotonic() - loop_t0 + statistics.median(
                r["wall_s"] for r in runs) <= seconds):
            if runs and time.monotonic() + 1.3 * max(r["wall_s"] for r in runs) > deadline:
                break
            result_path = workdir / ("run%d.json" % len(runs))
            runs.append(verify_run(
                lambda t: [PY, str(BENCH / "worker.py"), "verify", "--config",
                           str(config), "--hostspeed", "--t-spawn", repr(t),
                           "--out", str(result_path)],
                workdir, "run%d" % len(runs), deadline))
            if result_path.is_file():
                runs[-1].update(json.loads(result_path.read_text()))
            else:
                runs[-1]["ok"] = False
    walls = [r["wall_s"] for r in runs]
    reports = {r["report"] for r in runs}
    checks = {"runs_ok": all(r["ok"] for r in runs),
              "reports_identical": len(reports) == 1 and None not in reports}
    last = runs[-1]
    out.update(attempted=len(runs), failed=sum(not r["ok"] for r in runs),
               fail_share=[last.get("suites_bad", 0), last.get("suites_selected", 0)],
               suite_status=last.get("statuses", {}))
    out["samples"].update(wall_s=walls, rss_mb=[r["rss_mb"] for r in runs])
    if not trace:
        done = [r for r in runs if "norm_s" in r]
        out["samples"].update(setup_s=setups,
                              run_s=[(r["raw_s"], r["norm_s"]) for r in done])
        out["metrics"] = {"peak_rss_mb": statistics.median(r["rss_mb"] for r in runs)}
        if done:
            for pre, k in (("", "norm_s"), ("raw.", "raw_s")):
                op_s = [r[k] for r in done]
                out["metrics"].update({
                    pre + "op_p50_ms": statistics.median(op_s) * 1e3,
                    pre + "ops_per_s": len(op_s) / sum(op_s)})
            for pre, i in (("", 1), ("raw.", 0)):
                out["metrics"][pre + "setup_s"] = statistics.median(x[i] for x in setups)
    else:
        paths = [workdir / ("trace%d.json" % flag) for flag in (0, 1)]
        out["metrics"] = {}
        checks["tracer_ok"] = all(p.is_file() for p in paths)
        if checks["tracer_ok"]:
            plain, traced = (json.loads(p.read_text()) for p in paths)
            checks["tracer_ok"], out["spans_file"] = traced_summary(
                traced, workdir.name)
            checks["tracer"] = traced["checks"]
            out["errors"] = traced["errors"]
            out["metrics"].update(traced["metrics"])
            out["metrics"].update(import_breakdown(workdir, deadline))
            out["metrics"]["trace.overhead_ms"] = \
                (traced["run_s"] - plain["run_s"]) * 1e3
        out["metrics"]["suites.bad"], out["metrics"]["suites.selected"] = \
            out["fail_share"]
    out["checks"] = checks
    out["correct"] = all(v for k, v in checks.items() if k != "tracer")
    return out


# ---------------------------------------------------------------------------
# apply workload


def apply_part(seed, part, seconds, min_fns, trace, workdir, deadline,
               hostspeed=False):
    tag = "apply%d-trace%d" % (part, trace)
    result_path = workdir / (tag + ".json")
    code, _, rss, _ = spawn(
        lambda t: [PY, str(BENCH / "worker.py"), "apply", "--seed", str(seed),
                   "--part", str(part), "--seconds", repr(seconds),
                   "--min-fns", str(min_fns), "--trace", str(trace),
                   "--t-spawn", repr(t), "--out", str(result_path)]
                  + ["--hostspeed"] * hostspeed,
        workdir / (tag + ".log"), deadline)
    if code != 0 or not result_path.is_file():
        print("apply worker %s: exit %s\n%s" % (tag, code,
              log_tail(workdir / (tag + ".log"))), file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["rss_mb"] = rss
    return result


def apply_workload(seed, seconds, trace, workdir, deadline):
    out = {"samples": {}}
    if not trace:
        parts = [apply_part(seed, k, seconds / APPLY_PARTS,
                            -(-APPLY_MIN_FNS // APPLY_PARTS), 0, workdir, deadline,
                            hostspeed=True)
                 for k in range(APPLY_PARTS)]
    else:
        parts = [apply_part(seed, 0, 0.0, TRACE_APPLY_FNS, t, workdir, deadline)
                 for t in (0, 1)]
    done = [p for p in parts if p is not None]
    latencies = [x for p in done for x in p["latencies_ms"]]
    failures = [f for p in done for f in p["failures"]]
    attempted = len(latencies) + (len(parts) - len(done))
    out.update(attempted=max(attempted, 1),
               failed=len(failures) + len(parts) - len(done),
               fail_share=[len(failures), len(latencies)],
               failures=failures[:10])
    out["correct"] = out["failed"] == 0
    out["samples"]["setup_s"] = [p["setup_s"] for p in done]
    if not done:
        out["metrics"] = {}
        return out
    if not trace:
        out["metrics"] = {"peak_rss_mb": statistics.median(p["rss_mb"] for p in done)}
        for pre, norm in (("", "norm_"), ("raw.", "")):
            lat = [x for p in done for x in p[norm + "latencies_ms"]]
            out["metrics"].update({
                pre + "setup_s": statistics.median(p[norm + "setup_s"] for p in done),
                pre + "op_p50_ms": statistics.median(lat),
                pre + "fn_p99_ms": statistics.quantiles(lat, n=100,
                                                        method="inclusive")[98],
                pre + "ops_per_s": len(lat) / sum(p[norm + "loop_s"] for p in done)})
        return out
    if len(done) < 2:
        out["metrics"] = {}
        return out
    untraced, traced = done
    ok, out["spans_file"] = traced_summary(traced, workdir.name)
    out["checks"] = {"tracer_ok": ok, "tracer": traced["checks"]}
    out["correct"] = out["correct"] and ok
    out["errors"] = traced["errors"]
    out["metrics"] = dict(traced["metrics"])
    out["metrics"].update(import_breakdown(workdir, deadline))
    out["metrics"]["trace.overhead_ms"] = (
        statistics.median(traced["latencies_ms"])
        - statistics.median(untraced["latencies_ms"]))
    out["metrics"]["suites.bad"] = 0
    out["metrics"]["suites.selected"] = 0
    return out


# ---------------------------------------------------------------------------
# environment stamp and output


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "mmframes").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "sympy": metadata.version("sympy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="mmframes benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mmframes" / "cli.py").is_file() or not spec_path.is_file():
        raise BenchError("no mmframes source tree under %s" % ROOT)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    model = WORKLOADS[args.workload]
    if args.workload.startswith("verify"):
        res = verify_workload(model, args.seed, args.seconds, args.trace,
                              workdir, deadline)
    else:
        res = apply_workload(args.seed, args.seconds, args.trace, workdir,
                             deadline)

    computed = res["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if not args.trace and missing:
        res["correct"] = False
    metrics = {m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "not_measured": missing,
              "all_metrics": computed, **{k: v for k, v in res.items()
                                          if k != "metrics"}}
    results_path = OUT / (tag + ".json")
    results_path.write_text(json.dumps(record, indent=1))

    print("workload %s seed %d trace %d: results in %s" % (
        args.workload, args.seed, args.trace, results_path.relative_to(ROOT)))
    print("  %-40s %d/%d" % ("fail_share", *res["fail_share"]))
    for err in res.get("errors", []):
        print("  error in %s: %s: %s" % (err["suite"], err["type"], err["message"]))
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    if "fn_p99_ms" in computed:
        print("  %-40s %.6g ms (%d samples; no bound)" % (
            "fn_p99_ms", computed["fn_p99_ms"], res["attempted"]))
    for name in sorted(k for k in computed if k.startswith("raw.")):
        print("  %-40s %.6g (no bound)" % (name, computed[name]))
    if missing and args.trace:
        print("  %d per-layer metrics not exercised by this workload, reported as 0"
              % len(missing))
    print(json.dumps({"correct": bool(res["correct"]), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
