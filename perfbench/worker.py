"""Child processes of the mmframes benchmark.

  worker.py apply  --seed N --part K --seconds S --min-fns M --trace 0|1
                   [--hostspeed] --t-spawn T --out result.json
  worker.py verify --config cfg.json --trace 0|1 [--hostspeed]
                   --t-spawn T --out result.json
  worker.py setup  --t-spawn T --out result.json

``apply`` sets up the T_16x16 library path and runs seeded mean-zero
functions through it in a closed loop; ``verify`` runs ``mmframes run``
in-process and exits with its exit code; ``setup`` imports ``mmframes.cli``
and nothing else.  With ``--trace 1`` the run is traced.  With
``--hostspeed``, and always in ``setup``, the worker also times the
host-speed kernel (hostspeed.py) and reports each time both raw and at
reference speed.  All write one JSON result file.  ``--t-spawn`` is the
parent's ``time.monotonic()`` just before the spawn, so set-up time counts
from process start.  Run by ``perfbench/run.py`` with ``src`` on
``PYTHONPATH``.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

import hostspeed
from tracer import Tracer

MODEL = "T_16x16"
B = 2.0
GAMMA = 0.5
SPQ = (0.0, 2.0, 2.0)
RESIDUAL_TOL = 1e-9
FLAVOURS = [(family, flavor) for family in ("besov", "triebel_lizorkin")
            for flavor in ("classical", "tilde")]


def size_counts(gamma0, hier=None, frame=None, dual_report=None, theta=None,
                compact_dual_report=None, neumann_terms=0):
    """Exact sizes read off the objects the program returned; 0 where the
    object was never built."""
    out = {"hier.n": 0, "hier.m": 0, "hier.levels": 0, "hier.live_columns": 0,
           "hier.gamma_halvings": 0, "dual.neumann_terms": 0, "theta.R": 0,
           "theta.nodes": 0, "theta.eps_achieved": 0.0,
           "neumann.terms": neumann_terms, "compact_dual.neumann_terms": 0}
    if hier is not None:
        out["hier.n"] = int(hier.space.n)
        out["hier.m"] = int(hier.size)
        out["hier.levels"] = len(hier.levels)
        out["hier.gamma_halvings"] = int(round(math.log2(gamma0 / hier.gamma)))
    if frame is not None:
        out["hier.live_columns"] = int(np.count_nonzero(
            np.any(frame.columns != 0.0, axis=0)))
    if dual_report is not None:
        out["dual.neumann_terms"] = int(dual_report.neumann_terms)
    if theta is not None:
        out["theta.R"] = float(theta.R)
        out["theta.nodes"] = len(theta.nodes)
        out["theta.eps_achieved"] = float(theta.eps_achieved)
    if compact_dual_report is not None:
        out["compact_dual.neumann_terms"] = int(compact_dual_report.neumann_terms)
    return out


def self_checks(tracer, wall_s, summary, call_pair):
    """The tracer's own checks, run on the traced run's spans."""
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    return {
        "restored": tracer.restore_problems(),
        "nesting": tracer.nesting_problems(),
        "self_time_within_wall": self_total <= wall_s + 1e-6,
        "self_time_total_s": self_total,
        "traced_wall_s": wall_s,
        "cross_module_attribution": tracer.has_call(*call_pair),
        "cross_module_pair": list(call_pair),
    }


def apply_main(args):
    sampler = None
    if args.hostspeed:
        sampler = hostspeed.Sampler()
        sampler.start()
    from mmframes import frames, multiplier, seqspace, space

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_t0 = time.perf_counter()

    sp, spec, hier, Phi, frame, dual, report = frames.default_frames(
        MODEL, b=B, gamma=GAMMA)
    prof = space.measure_doubling(sp)
    s, p, q = SPQ
    params = [seqspace.SpaceParams(s=s, p=p, q=q, flavor=flavor, family=family,
                                   d=prof.d, dstar=max(prof.dstar, 0.0))
              for family, flavor in FLAVOURS]
    symbol = multiplier.check_mihlin("rational", 4, params[0], spec, b=B)
    if sampler is None:
        t_setup = time.monotonic()
        setup = (t_setup - args.t_spawn,) * 2
    else:
        t_setup = sampler.stop()
        setup = sampler.times(args.t_spawn, t_setup)

    rng = np.random.default_rng([args.seed, args.part])
    latencies, failures = [], []
    norm_latencies, iterations, norm_iterations = [], [], []
    loop_t0 = time.perf_counter()
    while (len(latencies) < args.min_fns
           or time.perf_counter() - loop_t0 < args.seconds):
        idx = len(latencies)
        t_iter = time.perf_counter()
        f = spec.project_mean_zero(rng.standard_normal(sp.n))
        if tracer is not None:
            tracer.request = idx + 1
        t0 = time.perf_counter()
        coeffs = dual.analyze(f)
        recon = frames.reconstruct(frame, dual, f)
        fnorms = [seqspace.function_norm(f, prm, spec, Phi, B) for prm in params]
        snorms = [seqspace.seq_norm(coeffs, prm, hier) for prm in params]
        try:
            multiplier.apply_multiplier(symbol, f, frame, dual, spec)
            route = None
        except RuntimeError as exc:
            route = str(exc)
        latencies.append(time.perf_counter() - t0)
        residual = sp.norm2(recon - f) / sp.norm2(f)
        norms = fnorms + snorms
        if route is not None or not residual <= RESIDUAL_TOL or not all(
                math.isfinite(v) and v > 0 for v in norms):
            failures.append({"function": idx, "residual": residual,
                             "route_error": route, "norms": norms})
        iterations.append(time.perf_counter() - t_iter)
        scale = 1.0 if sampler is None else hostspeed.REF_S / hostspeed.kernel_s()
        norm_latencies.append(latencies[-1] * scale)
        norm_iterations.append(iterations[-1] * scale)

    result = {"setup_s": setup[0], "norm_setup_s": setup[1],
              "loop_s": sum(iterations), "norm_loop_s": sum(norm_iterations),
              "latencies_ms": [x * 1e3 for x in latencies],
              "norm_latencies_ms": [x * 1e3 for x in norm_latencies],
              "failures": failures}
    if tracer is not None:
        wall_s = time.perf_counter() - traced_t0
        tracer.restore()
        summary = tracer.summary()
        summary.update(size_counts(GAMMA, hier=hier, frame=frame,
                                   dual_report=report))
        result.update(
            metrics=summary, errors=tracer.errors, spans=tracer.dump(),
            checks=self_checks(tracer, wall_s, summary,
                               ("seqspace.tl_norm", "calculus.level_window")))
    return result


def verify_main(args):
    sampler = None
    if args.hostspeed:
        sampler = hostspeed.Sampler()
        sampler.start()
    import mmframes.cli as cli

    seen = {}
    neumann_terms = [0]

    def keep(name):
        def callback(value):
            seen.setdefault(name, value)
        return callback

    def add_terms(out):
        neumann_terms[0] += out[1]["terms"]

    tracer = None
    if args.trace:
        observe = {"resource." + name: keep(name) for name in
                   ("hier", "frame", "dual_report", "theta", "compact_dual_report")}
        observe["addiag.neumann_invert"] = add_terms
        tracer = Tracer(observe)
        tracer.install()
        tracer.request = 1
    traced_t0 = time.perf_counter()
    exit_code = cli.main(["run", args.config])
    t_end = time.monotonic() if sampler is None else sampler.stop()
    result = {"run_s": t_end - args.t_spawn, "exit_code": exit_code}
    if sampler is not None:
        result["raw_s"], result["norm_s"] = sampler.times(args.t_spawn, t_end)
    if tracer is None:
        return result
    wall_s = time.perf_counter() - traced_t0
    tracer.restore()
    with open(args.config) as fh:
        gamma0 = json.load(fh).get("gamma", cli.DEFAULT_CONFIG["gamma"])
    summary = tracer.summary()
    summary.update(size_counts(gamma0, neumann_terms=neumann_terms[0], **seen))
    result.update(
        metrics=summary, errors=tracer.errors, spans=tracer.dump(),
        checks=self_checks(tracer, wall_s, summary,
                           ("frames.build_compact_frame",
                            "calculus.effective_support_radius")))
    return result


def setup_main(args):
    sampler = hostspeed.Sampler()
    sampler.start()
    import mmframes.cli
    t_end = sampler.stop()
    raw, norm = sampler.times(args.t_spawn, t_end)
    return {"setup_s": raw, "norm_setup_s": norm,
            "module_file": mmframes.cli.__file__}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    ap = sub.add_parser("apply")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-fns", type=int, required=True)
    vp = sub.add_parser("verify")
    vp.add_argument("--config", required=True)
    sp = sub.add_parser("setup")
    for p in (ap, vp):
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--hostspeed", action="store_true")
    for p in (ap, vp, sp):
        p.add_argument("--t-spawn", type=float, required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args()
    result = {"apply": apply_main, "verify": verify_main,
              "setup": setup_main}[args.mode](args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
