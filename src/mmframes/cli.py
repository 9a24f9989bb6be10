"""Batch verification harness.

Commands:
  mmframes run <config.json>   execute the selected suites, write reports
  mmframes list-suites         print the suite catalogue
  mmframes describe <suite>    print one suite's anchor and description

Reports are line-oriented key=value records (machine), a CSV of measured
constants, and a human summary.  Identical config and seed produce a
byte-identical machine report.  Exit codes: 0 all hard checks pass,
1 hard failure, 2 configuration error.
"""

import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from mmframes import space as sp
from mmframes import calculus as ca
from mmframes import frames as fr
from mmframes import seqspace as sq
from mmframes import addiag as ad
from mmframes import molecules as mo
from mmframes import multiplier as mx


DEFAULT_CONFIG = {
    "model": "C_64",
    "b": 2.0,
    "gamma": 0.5,
    "mode": "homogeneous",
    "seed": 0,
    "battery": 20,
    "spq": [0.0, 2.0, 2.0],
    "flavor": "classical",
    "family": "triebel_lizorkin",
    "theta": {"N": 4, "K": 2, "eps": 1e-3, "R0": 1024.0, "R_max": 4096.0},
    "suites": "all",
    "output_dir": "reports",
}


class ConfigError(Exception):
    pass


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % float(v)
    return str(v)


# ---------------------------------------------------------------------------
# lazily built shared resources


# resources whose builder returns (value, by-product), and the by-product's
# own resource name
BYPRODUCTS = {"hier": "sampling_eps", "compact": "compact_supports",
              "compact_dual": "compact_dual_report"}
BUILT_BY = {product: name for name, product in BYPRODUCTS.items()}


class Context:
    def __init__(self, cfg):
        self.cfg = cfg
        self._cache = {}
        self._errors = {}

    def get(self, name):
        if name in self._errors:
            raise self._errors[name]
        if name in BUILT_BY and name not in self._cache:
            self.get(BUILT_BY[name])
        if name not in self._cache:
            try:
                value = getattr(self, "_build_" + name)()
            except Exception as exc:
                self._errors[name] = exc
                raise
            if name in BYPRODUCTS:
                value, self._cache[BYPRODUCTS[name]] = value
            self._cache[name] = value
        return self._cache[name]

    def _build_space(self):
        return sp.build_model(self.cfg["model"])

    def _build_profile(self):
        return sp.measure_doubling(self.get("space"))

    def _build_spec(self):
        return ca.eigendecompose(self.get("space"))

    def _build_params(self):
        prof = self.get("profile")
        s, p, q = self.cfg["spq"]
        return sq.SpaceParams(s=float(s), p=float(p), q=float(q),
                              flavor=self.cfg["flavor"],
                              family=self.cfg["family"],
                              d=prof.d, dstar=max(prof.dstar, 0.0))

    def _build_hier(self):
        return fr.build_standard_hierarchy(
            self.get("spec"), b=self.cfg["b"], gamma=self.cfg["gamma"],
            mode=self.cfg["mode"])

    def _build_Phi(self):
        return ca.make_cutoff("a", self.cfg["b"])

    def _build_frame(self):
        return fr.build_frame1(self.get("spec"), self.get("hier"),
                               self.get("Phi"))

    def _build_dual(self):
        return fr.build_dual_frame(self.get("spec"), self.get("hier"),
                                   self.get("Phi"))[0]

    def _build_theta(self):
        tc = self.cfg["theta"]
        b = self.cfg["b"]
        Phi = self.get("Phi")
        Psi = lambda u: Phi(u) - Phi(np.asarray(u) * b)
        derivs = ca.band_derivatives(b, int(tc["K"]))
        return fr.build_band_limited_theta(
            Psi, N=int(tc["N"]), K=int(tc["K"]), eps=float(tc["eps"]), b=b,
            R0=float(tc["R0"]), R_max=float(tc["R_max"]), Psi_derivs=derivs)

    def _build_compact(self):
        return fr.build_compact_frame(self.get("spec"), self.get("hier"),
                                      self.get("theta"))

    def _build_compact_dual(self):
        return fr.build_compact_dual(
            self.get("spec"), self.get("frame"), self.get("dual"),
            self.get("compact"), self.get("params"))

    def _build_battery(self):
        return sq.random_battery(self.get("space"), self.get("spec"),
                                 int(self.cfg["battery"]),
                                 seed=int(self.cfg["seed"]))

    def _build_ctilde(self):
        return ca.fit_speed_constant(self.get("spec"))


# ---------------------------------------------------------------------------
# suites


def _suite_doubling(ctx):
    prof = ctx.get("profile")
    return "record", {"c0": prof.c0, "d": prof.d, "c2": prof.c2,
                      "dstar": prof.dstar, "truncated": prof.truncated}


def _suite_lemma91(ctx):
    space, prof, hier = ctx.get("space"), ctx.get("profile"), ctx.get("hier")
    worst = 0.0
    ok = True
    for net in hier.levels:
        for mult in (1.0, 2.0, 4.0):
            rep = sp.check_net_count(space, net.centers, net.delta,
                                     mult * net.delta, prof)
            worst = max(worst, rep.worst_ratio)
            ok = ok and rep.passed
    return ("pass" if ok else "fail"), {"worst_ratio": worst}


def _suite_lemma92(ctx):
    space, prof, hier = ctx.get("space"), ctx.get("profile"), ctx.get("hier")
    sigma = prof.d + 1.0
    worst = 0.0
    ok = True
    for net in hier.levels:
        rep = sp.check_discrete_sum(space, net.centers, sigma, net.delta,
                                    net.delta, 2.0 * net.delta, prof)
        worst = max(worst, rep.worst_ratio)
        ok = ok and rep.passed
    return ("pass" if ok else "fail"), {"sigma": sigma, "worst_ratio": worst}


def _suite_lemma23(ctx):
    space, prof = ctx.get("space"), ctx.get("profile")
    sigma = prof.d + 1.0
    rep = sp.check_peetre_integrals(space, sigma, sigma + 1.0, 1.0, 2.0, prof)
    return ("pass" if rep.passed else "fail"), {
        "worst_ratio": rep.worst_ratio}


def _suite_net_invariants(ctx):
    space, hier = ctx.get("space"), ctx.get("hier")
    for net in hier.levels:
        sp.verify_net_invariants(space, net)
    return "pass", {"levels": len(hier.levels)}


def _suite_cutoffs(ctx):
    b = ctx.cfg["b"]
    Phi = ca.make_cutoff("a", b)
    phi_c = ca.make_cutoff("c", b)
    u = np.linspace(0.0, b * 4.0, 2001)
    low_err = max(float(np.abs(Phi(u[u <= 1.0]) - 1.0).max()),
                  float(np.abs(Phi(u[u >= b])).max()))
    t = np.geomspace(1e-3, 1e3, 500)
    total = np.zeros_like(t)
    for j in range(-40, 41):
        total += phi_c(b ** (-j) * t) ** 2
    part_err = float(np.abs(total - 1.0).max())
    ok = low_err <= 1e-12 and part_err <= 1e-10
    return ("pass" if ok else "fail"), {"lowpass_err": low_err,
                                        "partition_err": part_err}


def _speed_checks(ctx):
    """(radius / bound, passed) per level: the compact frame's support radius
    against the Prop 2.1 bound c~ R b^{-j}, which passes when it reaches
    the diameter."""
    diameter = ctx.get("spec").space.diameter
    ct, R, b = ctx.get("ctilde"), ctx.get("theta").R, ctx.get("hier").b
    out = []
    for j, r in ctx.get("compact_supports").items():
        bound = ct * b ** (-j) * R
        out.append((r / bound, r <= bound or bound >= diameter))
    return out


def _suite_finite_speed(ctx):
    checks = _speed_checks(ctx)
    ok = all(passed for _, passed in checks)
    return ("pass" if ok else "fail"), {
        "c_tilde": ctx.get("ctilde"), "R": ctx.get("theta").R,
        "worst_ratio": max(ratio for ratio, _ in checks)}


def _suite_localization(ctx):
    spec, space = ctx.get("spec"), ctx.get("space")
    kern = ca.apply_symbol(spec, lambda u: np.exp(-(u**2)), delta=1.0)
    out = ca.measure_localization(kern, 1.0, (1.0, 2.0, 4.0), space)
    return "record", {"A_%g" % k: v for k, v in out.items()}


def _suite_telescoping(ctx):
    spec, Phi = ctx.get("spec"), ctx.get("Phi")
    b = ctx.cfg["b"]
    window = ca.level_window(spec, b)
    F = spec.project_mean_zero(ctx.get("battery").T)
    norms = spec.space.norm2(F)
    live = norms > 0
    F = F[:, live]
    resid = spec.space.norm2(ca.telescope(spec, Phi, b, window, F) - F)
    worst = (resid / norms[live]).max(initial=0.0)
    ok = live.any() and worst <= 1e-10
    return ("pass" if ok else "fail"), {"residual": worst,
                                        "j_min": window[0],
                                        "j_max": window[1]}


def _suite_sampling(ctx):
    eps = ctx.get("sampling_eps")
    worst = max(eps.values())
    return ("pass" if worst < 0.5 else "fail"), {
        "eps_max": worst, "gamma": ctx.get("hier").gamma}


def _suite_reconstruction(ctx):
    spec, frame, dual = ctx.get("spec"), ctx.get("frame"), ctx.get("dual")
    probe = fr.frame_bounds_probe(frame, dual, spec,
                                  n_samples=int(ctx.cfg["battery"]),
                                  seed=int(ctx.cfg["seed"]))
    ok = probe["residual"] <= 1e-9
    return ("pass" if ok else "fail"), {"residual": probe["residual"],
                                        "lower": probe["lower"],
                                        "upper": probe["upper"]}


def _suite_bands(ctx):
    leak = fr.check_band_containment(ctx.get("spec"), ctx.get("dual"))
    return ("pass" if leak <= 1e-10 else "fail"), {"leak": leak}


def _characterization(ctx, family):
    spec = ctx.get("spec")
    out = {}
    ok = True
    for flavor in ("classical", "tilde"):
        prm = dataclasses.replace(ctx.get("params"), flavor=flavor,
                                  family=family)
        rep = sq.check_frame_characterization(
            ctx.get("battery"), prm, spec, ctx.get("frame"), ctx.get("dual"),
            ctx.get("Phi"), ctx.cfg["b"])
        lo, hi = rep["ratio_band"]
        out[f"{flavor}_lower"] = lo
        out[f"{flavor}_upper"] = hi
        out[f"{flavor}_residual"] = rep["reconstruction_residual"]
        ok = ok and rep["samples"] > 0 and np.isfinite(hi) and lo > 0 and \
            rep["reconstruction_residual"] <= 1e-9
    return ("pass" if ok else "fail"), out


def _suite_besov_equiv(ctx):
    return _characterization(ctx, "besov")


def _suite_tl_equiv(ctx):
    return _characterization(ctx, "triebel_lizorkin")


def _suite_maximal(ctx):
    space = ctx.get("space")
    out = sq.fs_maximal_probe(ctx.get("battery"), p=2.0, q=2.0, t=1.0, space=space)
    return "record", {"ratio": out["ratio"]}


def _suite_lemma93(ctx):
    space, hier, prof = ctx.get("space"), ctx.get("hier"), ctx.get("profile")
    t, M = 1.0, prof.d + 1.0
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    worst = 0.0
    net_j = hier.levels[len(hier.levels) // 2]
    for net_m in hier.levels:
        h = np.abs(rng.standard_normal(len(net_m.centers)))
        indic = h[net_m.owner]
        mt = sq.maximal_Mt(indic, t, space)
        lhs = ((1.0 + space.dist[np.ix_(net_j.centers, net_m.centers)]
                / max(net_j.delta, net_m.delta) /
                (hier.b ** 2 / hier.gamma)) ** (-M)) @ h
        fac = max(hier.b ** ((net_m.level - net_j.level) * prof.d / t), 1.0)
        for k, xi in enumerate(net_j.centers):
            cell = net_j.owner == k
            denom = fac * mt[cell].min()
            if denom > 0:
                worst = max(worst, lhs[k] / denom)
    return "record", {"constant": worst}


def _suite_omega(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    m = hier.size
    # diagonal identity
    diag_err = max(abs(ad.omega(hier, i, i, 0.7, params) - 1.0)
                   for i in range(m))
    # one-parameter form equals the two-parameter form on the diagonal of
    # (beta, gamma)
    pair_err = 0.0
    mono_ok = True
    for _ in range(1000):
        i, k = rng.integers(0, m, 2)
        beta = float(rng.uniform(0.05, 2.0))
        pair_err = max(pair_err, abs(
            ad.omega(hier, int(i), int(k), beta, params)
            - ad.omega2(hier, int(i), int(k), beta, beta, params)))
        eps = float(rng.uniform(0.05, 2.0))
        bg = sorted(rng.uniform(0.05, eps, 2))
        mono_ok = mono_ok and (
            ad.omega(hier, int(i), int(k), eps, params)
            <= ad.omega2(hier, int(i), int(k), bg[0], bg[1], params)
            * (1 + 1e-12))
    ok = diag_err == 0.0 and pair_err <= 1e-14 and mono_ok
    return ("pass" if ok else "fail"), {"diag_err": diag_err,
                                        "pair_err": pair_err,
                                        "monotone": mono_ok}


def _suite_ad_boundedness(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    delta = 0.5
    W = ad.omega_matrix(hier, delta, params)
    E = W * rng.uniform(-1, 1, W.shape)
    # ||E||_delta as ad_norm takes it, from the W already built
    A = ad.NetMatrix(hierarchy=hier, entries=E / (np.abs(E) / W).max(),
                     params=params)
    del W, E
    out = ad.boundedness_probe(A, delta, rng.standard_normal((100, hier.size)))
    return "record", {k.replace("~", "t"): v for k, v in out.items()}


# (betas, gamma1s, gamma2s) of the Lemma 6.4 grid; a combination with
# beta >= gamma1 + gamma2 lies outside the lemma and is not measured
_LEMMA64_GRID = ((0.25, 0.5, 1.0), (0.5, 1.0, 2.0), (0.6, 1.2, 2.4))


def _suite_lemma64(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    betas, g1s, g2s = _LEMMA64_GRID
    ratios = []
    for beta in betas:
        pairs = [(g1, g2) for g1 in g1s for g2 in g2s if beta < g1 + g2]
        ratios += [res["max_ratio"]
                   for res in ad.lemma64_grid(hier, params, beta, pairs)]
    ok = bool(ratios) and bool(np.all(np.isfinite(ratios)))
    return ("pass" if ok else "fail"), {"max_ratio": max(ratios, default=0.0)}


def _suite_neumann(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    eps = 1.0
    W = ad.omega_matrix(hier, eps, params)
    D = 0.01 * W * rng.uniform(-1, 1, W.shape)
    A = ad.NetMatrix(hierarchy=hier, entries=np.eye(hier.size) - D,
                     params=params)
    Ainv, rep = ad.neumann_invert(A, eps, 0.5)
    ok = rep["residual"] <= 1e-9 and rep["geometric_decay_ok"]
    return ("pass" if ok else "fail"), {
        "residual": rep["residual"], "delta_hat": rep["delta_hat"],
        "c_star": rep["c_star"], "terms": rep["terms"],
        "geometric": rep["geometric_decay_ok"]}


def _suite_molecule_constants(ctx):
    hier, params, spec = ctx.get("hier"), ctx.get("params"), ctx.get("spec")
    M = params.J + 0.5
    out = {}
    ok = True
    for name, cols in (("psi", ctx.get("frame").columns),
                       ("psit", ctx.get("dual").columns)):
        for flavor in ("synthesis", "analysis"):
            cert = mo.validate_molecule(cols, hier, flavor, "classical",
                                        params, spec, M)
            # back off the exact budget boundary by a relative epsilon
            cstar = mo.scaling_for_budget(cert) * (1.0 - 1e-9)
            scaled = mo.validate_molecule(cols * cstar, hier, flavor,
                                          "classical", params, spec, M)
            out[f"{name}_{flavor}_cstar"] = cstar
            ok = ok and scaled.passed and np.isfinite(cstar)
    return ("pass" if ok else "fail"), out


def _suite_gram(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    A, cert = mo.gram(ctx.get("frame").columns, ctx.get("dual").columns,
                      hier, params)
    ok = bool(cert["passed"]) and cert["c"] > 0
    return ("pass" if ok else "fail"), {"delta": cert["delta"],
                                        "c": cert["c"]}


def _suite_synthesis(ctx):
    hier, params, spec = ctx.get("hier"), ctx.get("params"), ctx.get("spec")
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    T = rng.standard_normal((int(ctx.cfg["battery"]), hier.size)).T
    _, rep = mo.molecular_synthesis(T, ctx.get("frame").columns, hier, params,
                                    spec, ctx.get("Phi"), ctx.cfg["b"])
    return "record", {"max_ratio": rep["ratio"].max(initial=0.0)}


def _suite_analysis(ctx):
    hier, params, spec = ctx.get("hier"), ctx.get("params"), ctx.get("spec")
    _, rep = mo.molecular_analysis(ctx.get("battery").T,
                                   ctx.get("dual").columns, ctx.get("frame"),
                                   ctx.get("dual"), hier, params, spec,
                                   ctx.get("Phi"), ctx.cfg["b"])
    worst_resid = rep["identity_residual"].max(initial=0.0)
    ok = np.any(rep["function_norm"] > 0) and worst_resid <= 1e-9
    return ("pass" if ok else "fail"), {
        "max_ratio": rep["ratio"].max(initial=0.0),
        "identity_residual": worst_resid}


def _suite_theta(ctx):
    th = ctx.get("theta")
    out = {"R": th.R, "eps_target": th.eps_target,
           "eps_achieved": th.eps_achieved,
           "jet_residual": max(th.jet_residuals) if th.jet_residuals else 0.0}
    return ("pass" if th.passed else "fail"), out


def _suite_compact_dual(ctx):
    rep = ctx.get("compact_dual_report")
    ok = rep.perturbation_ad_norm < 0.5 and rep.duality_residual <= 1e-6
    return ("pass" if ok else "fail"), {
        "perturbation": rep.perturbation_ad_norm,
        "residual": rep.duality_residual,
        "terms": rep.neumann_terms}


def _suite_atoms(ctx):
    hier, params, spec = ctx.get("hier"), ctx.get("params"), ctx.get("spec")
    compact = ctx.get("compact")
    cert = mo.validate_atoms(compact.columns, hier, params, spec)
    supp_ok = all(passed for _, passed in _speed_checks(ctx))
    cstar = mo.scaling_for_budget(
        mo.MoleculeCertificate(flavor="synthesis", space_flavor="classical",
                               orders=None, M=0.0, constants=cert.constants,
                               passed=True, budget=cert.budget))
    _, _, rep = mo.atomic_decompose(ctx.get("battery").T, compact,
                                    ctx.get("compact_dual"), hier, params,
                                    spec, ctx.get("Phi"), ctx.cfg["b"],
                                    cstar=cstar)
    worst = rep["residual"].max(initial=0.0)
    ok = np.any(rep["l2_norm"] > 0) and worst <= 1e-6 and supp_ok and \
        np.isfinite(cert.support_constant)
    return ("pass" if ok else "fail"), {
        "residual": worst, "cstar": cstar,
        "support_constant": cert.support_constant,
        "support_ok": supp_ok}


def _suite_multiplier(ctx):
    spec, params = ctx.get("spec"), ctx.get("params")
    sym = mx.check_mihlin("rational", 4, params, spec, b=ctx.cfg["b"])
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    f = spec.project_mean_zero(rng.standard_normal(spec.space.n))
    try:
        mx.apply_multiplier(sym, f, ctx.get("frame"), ctx.get("dual"), spec)
        route_ok = True
    except RuntimeError:
        route_ok = False
    rep = mx.boundedness_report(sym, params, ctx.get("battery"), spec,
                                ctx.get("Phi"), ctx.cfg["b"])
    l2_ok = rep["f"]["ratio"] <= sym.order_sups[0] + 1e-9
    mult = mx.multiplicativity_residual(
        sym.fn, lambda u: np.exp(-np.asarray(u) ** 2), f, spec)
    ok = rep["samples"] > 0 and route_ok and l2_ok and mult <= 1e-10
    return ("pass" if ok else "fail"), {
        "mihlin_sup": sym.mihlin_sup, "ratio_f": rep["f"]["ratio"],
        "ratio_b": rep["b"]["ratio"], "l2_ceiling_ok": l2_ok,
        "multiplicativity": mult}


def _suite_hardy(ctx):
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    worst = {10: 0.0, 20: 0.0, 40: 0.0}
    for m in worst:
        for _ in range(1000 // 3 + 1):
            a = np.abs(rng.standard_normal(m))
            rep = sq.hardy_check(a, gamma=0.5, q=2.0, b=ctx.cfg["b"])
            worst[m] = max(worst[m], rep["down"], rep["up"])
    vals = list(worst.values())
    spread = max(vals) / min(vals)
    ok = all(np.isfinite(v) for v in vals) and spread < 2.0
    return ("pass" if ok else "fail"), {
        "c_10": worst[10], "c_20": worst[20], "c_40": worst[40],
        "spread": spread}


def _suite_inhomogeneous(ctx):
    spec = ctx.get("spec")
    hier, eps = fr.build_standard_hierarchy(spec, b=ctx.cfg["b"],
                                            gamma=ctx.cfg["gamma"],
                                            mode="inhomogeneous")
    ok = hier.j_min >= 0 and max(eps.values()) < 0.5
    params = ctx.get("params")
    Phi = ctx.get("Phi")
    frame = fr.build_frame1(spec, hier, Phi)
    cert = mo.validate_molecule(frame.columns, hier, "synthesis",
                                "classical", params, spec, params.J + 0.5,
                                inhomogeneous=True)
    ok = ok and np.isfinite(max(cert.constants.values()))
    return ("pass" if ok else "fail"), {"j_min": hier.j_min,
                                        "eps_max": max(eps.values())}


SUITES = {
    "doubling": ("§1 (1.1)-(1.2),(1.7)-(1.8)", "measured doubling profile",
                 _suite_doubling),
    "lemma9.1": ("Lemma 9.1", "net counting bound, exhaustive",
                 _suite_lemma91),
    "lemma9.2": ("Lemma 9.2", "discrete net sums against explicit constants",
                 _suite_lemma92),
    "lemma2.3": ("Lemma 2.3", "weighted volume sums (Peetre type)",
                 _suite_lemma23),
    "net-invariants": ("(2.6)-(2.7)", "separation/maximality/sandwich",
                       _suite_net_invariants),
    "def2.1-cutoffs": ("Def 2.1", "cutoff types (a)/(c) closed-form checks",
                       _suite_cutoffs),
    "prop2.1-finite-speed": ("Prop 2.1", "band-limited kernel support",
                             _suite_finite_speed),
    "thm2.2-localization": ("Thm 2.2", "kernel localization ladder",
                            _suite_localization),
    "thm3.4-telescoping": ("Thm 3.4", "multiscale telescoping identity",
                           _suite_telescoping),
    "lemma4.1-sampling": ("Lemma 4.1", "sampling perturbation constants",
                          _suite_sampling),
    "thm4.2-reconstruction": ("Thm 4.2", "two-sided frame reconstruction",
                              _suite_reconstruction),
    "thm4.2-bands": ("Thm 4.2/(4.10)", "dual frame spectral bands",
                     _suite_bands),
    "thm5.5-besov": ("Thm 5.5", "Besov norm equivalence bands",
                     _suite_besov_equiv),
    "thm5.6-tl": ("Thm 5.6", "Triebel-Lizorkin norm equivalence bands",
                  _suite_tl_equiv),
    "sec2.3-maximal": ("(2.22)-(2.23)", "vector maximal ratio probe",
                       _suite_maximal),
    "lemma9.3": ("Lemma 9.3", "maximal domination of net sums",
                 _suite_lemma93),
    "def6.1-omega": ("Def 6.1", "decay weight identities",
                     _suite_omega),
    "thm6.2-boundedness": ("Thm 6.2", "almost-diagonal boundedness probe",
                           _suite_ad_boundedness),
    "lemma6.4-W-bound": ("Lemma 6.4", "weight composition bound grid",
                         _suite_lemma64),
    "thm6.3-neumann": ("Thm 6.3(ii)", "Neumann inversion with decay cert",
                       _suite_neumann),
    "prop6.6-theta": ("Prop 6.6/(6.16)", "band-limited surrogate symbol",
                      _suite_theta),
    "thm6.7-compact-dual": ("Thm 6.7", "compact frame dual pipeline",
                            _suite_compact_dual),
    "lemma7.2-molecules": ("Lemma 7.2", "scaled frames are molecules",
                           _suite_molecule_constants),
    "lemma7.3-gram": ("Lemma 7.3", "Gram matrix decay certificate",
                      _suite_gram),
    "thm7.4-synthesis": ("Thm 7.4", "molecular synthesis ratios",
                         _suite_synthesis),
    "thm7.5-analysis": ("Thm 7.5/(7.11)", "molecular analysis identity",
                        _suite_analysis),
    "thm7.9-atoms": ("Thm 7.9", "atomic decomposition",
                     _suite_atoms),
    "thm8.1-multiplier": ("Thm 8.1", "Mihlin multiplier checks",
                          _suite_multiplier),
    "lemma9.4-hardy": ("Lemma 9.4", "discrete Hardy inequalities",
                       _suite_hardy),
    "inhomogeneous-mode": ("§8 inhomogeneous case", "level-0 conventions",
                           _suite_inhomogeneous),
}


# execution order respects resource dependencies
SUITE_ORDER = [
    "doubling", "lemma9.1", "lemma9.2", "lemma2.3", "net-invariants",
    "def2.1-cutoffs", "thm2.2-localization", "thm3.4-telescoping",
    "lemma4.1-sampling", "thm4.2-reconstruction", "thm4.2-bands",
    "thm5.5-besov", "thm5.6-tl", "sec2.3-maximal", "lemma9.3",
    "def6.1-omega", "thm6.2-boundedness", "lemma6.4-W-bound",
    "thm6.3-neumann", "prop6.6-theta", "prop2.1-finite-speed",
    "thm6.7-compact-dual", "lemma7.2-molecules", "lemma7.3-gram",
    "thm7.4-synthesis", "thm7.5-analysis", "thm7.9-atoms",
    "thm8.1-multiplier", "lemma9.4-hardy", "inhomogeneous-mode",
]

# suites whose failure invalidates later pipeline stages
DOWNSTREAM = {
    "lemma4.1-sampling": ["thm4.2-reconstruction", "thm4.2-bands",
                          "thm5.5-besov", "thm5.6-tl", "thm6.7-compact-dual",
                          "lemma7.2-molecules", "lemma7.3-gram",
                          "thm7.4-synthesis", "thm7.5-analysis",
                          "thm7.9-atoms"],
    "prop6.6-theta": ["prop2.1-finite-speed", "thm6.7-compact-dual",
                      "thm7.9-atoms"],
    "thm6.7-compact-dual": ["thm7.9-atoms"],
}


def _is_number(v):
    """A finite JSON number; true and false are not numbers here."""
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or isinstance(v, float) and math.isfinite(v)


def _is_count(v, least):
    return _is_number(v) and v == int(v) and v >= least


# the names build_model parses; a dict describes a custom model
MODEL_NAME = re.compile(r"[CP]_[1-9][0-9]*|T_[1-9][0-9]*(x[1-9][0-9]*)?")

CHECKS = {
    "model": (lambda v: isinstance(v, dict) or isinstance(v, str)
              and MODEL_NAME.fullmatch(v) is not None,
              "a model name like C_64, P_10, T_8 or T_8x4, or an object"),
    "b": (lambda v: _is_number(v) and v > 1, "a number above 1"),
    "gamma": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "mode": (lambda v: v in ("homogeneous", "inhomogeneous"),
             '"homogeneous" or "inhomogeneous"'),
    "seed": (lambda v: _is_count(v, 0), "a nonnegative integer"),
    "battery": (lambda v: _is_count(v, 1), "a positive integer"),
    "spq": (lambda v: isinstance(v, list) and len(v) == 3
            and all(_is_number(x) for x in v) and v[1] > 0 and v[2] > 0,
            "a list [s, p, q] of numbers with p, q > 0"),
    "flavor": (lambda v: v in ("classical", "tilde"),
               '"classical" or "tilde"'),
    "family": (lambda v: v in ("besov", "triebel_lizorkin"),
               '"besov" or "triebel_lizorkin"'),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(DEFAULT_CONFIG)
    theta = dict(cfg["theta"])
    for k, v in user.items():
        if k not in cfg:
            raise ConfigError(f"unknown config key: {k}")
        if k == "theta":
            if not isinstance(v, dict):
                raise ConfigError("theta must be an object")
            unknown = sorted(set(v) - set(theta))
            if unknown:
                raise ConfigError(f"unknown theta keys: {unknown}")
            theta.update(v)
        else:
            cfg[k] = v
    for k, (ok, what) in CHECKS.items():
        if not ok(cfg[k]):
            raise ConfigError(f"{k} must be {what}, got {cfg[k]!r}")
    for k, v in theta.items():
        if not _is_number(v):
            raise ConfigError(f"theta.{k} must be a finite number, got {v!r}")
        if k in ("N", "K") and v != int(v):
            raise ConfigError(f"theta.{k} must be an integer, got {v!r}")
    cfg["theta"] = theta
    suites = cfg["suites"]
    if isinstance(suites, str):
        if suites != "all":
            raise ConfigError(
                f'suites must be "all" or a list of suite names, got {suites!r}')
    elif not isinstance(suites, list):
        raise ConfigError("suites must be \"all\" or a list of suite names")
    else:
        unknown = [s for s in suites if not isinstance(s, str) or s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
    return cfg


def run(cfg) -> int:
    selected = SUITE_ORDER if cfg["suites"] == "all" else [
        s for s in SUITE_ORDER if s in cfg["suites"]]
    ctx = Context(cfg)
    outdir = os.environ.get("MMFRAMES_OUTPUT_DIR", cfg["output_dir"])
    os.makedirs(outdir, exist_ok=True)

    records = []
    skip = set()
    hard_fail = False
    runtimes = {}
    for name in selected:
        anchor, desc, fn = SUITES[name]
        if name in skip:
            records.append((name, anchor, "skip", {"reason": "dependency"}))
            continue
        t0 = time.time()
        try:
            status, metrics = fn(ctx)
        except Exception as exc:
            status, metrics = "error", {"reason": type(exc).__name__}
        runtimes[name] = time.time() - t0
        records.append((name, anchor, status, metrics))
        if status in ("fail", "error"):
            hard_fail = True
            for dep in DOWNSTREAM.get(name, []):
                skip.add(dep)

    # machine report: deterministic, line oriented
    model = cfg["model"] if isinstance(cfg["model"], str) else "custom"
    lines = ["manifest model=%s b=%s gamma=%s mode=%s seed=%d battery=%d" %
             (model, _fmt(cfg["b"]), _fmt(cfg["gamma"]), cfg["mode"],
              int(cfg["seed"]), int(cfg["battery"]))]
    csv_lines = ["suite,constant,value"]
    for name, anchor, status, metrics in records:
        parts = [f"suite={name}", f'anchor="{anchor}"', f"status={status}"]
        for k in sorted(metrics):
            parts.append(f"{k}={_fmt(metrics[k])}")
            if isinstance(metrics[k], (int, float, np.integer, np.floating)) \
                    and not isinstance(metrics[k], (bool, np.bool_)):
                csv_lines.append(f"{name},{k},{_fmt(metrics[k])}")
        lines.append(" ".join(parts))

    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(outdir, "constants.csv"), "w") as fh:
        fh.write("\n".join(csv_lines) + "\n")

    n_pass = sum(1 for r in records if r[2] == "pass")
    n_rec = sum(1 for r in records if r[2] == "record")
    n_bad = sum(1 for r in records if r[2] in ("fail", "error"))
    n_skip = sum(1 for r in records if r[2] == "skip")
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(f"model {model}: {n_pass} passed, {n_rec} recorded, "
                 f"{n_bad} failed, {n_skip} skipped\n")
        for name, anchor, status, _ in records:
            rt = runtimes.get(name)
            rts = "" if rt is None else f" ({rt:.2f}s)"
            fh.write(f"  {status:6s} {name} [{anchor}]{rts}\n")
    print("\n".join(lines))
    return 1 if hard_fail else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__)
        return 2
    cmd = argv[0]
    if cmd == "list-suites":
        for name in SUITE_ORDER:
            anchor, desc, _ = SUITES[name]
            print(f"{name}\t{anchor}\t{desc}")
        return 0
    if cmd == "describe":
        if len(argv) < 2 or argv[1] not in SUITES:
            print("unknown suite", file=sys.stderr)
            return 2
        anchor, desc, _ = SUITES[argv[1]]
        print(f"{argv[1]}: [{anchor}] {desc}")
        return 0
    if cmd == "run":
        if len(argv) < 2:
            print("usage: mmframes run <config.json>", file=sys.stderr)
            return 2
        try:
            cfg = load_config(argv[1])
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return run(cfg)
    print(f"unknown command: {cmd}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
