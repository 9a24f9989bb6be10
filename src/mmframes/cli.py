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
import os
import sys
import time

try:
    import resource
except ImportError:  # not a POSIX system: no peak RSS in the summary
    resource = None

import numpy as np

from mmframes import space as sp
from mmframes.space import _is_count, _is_number
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
    "seed": 0,
    "battery": 20,
    "spq": [0.0, 2.0, 2.0],
    "flavor": "classical",
    "family": "triebel_lizorkin",
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
              "compact_dual": "compact_dual_perturbation"}
BUILT_BY = {product: name for name, product in BYPRODUCTS.items()}


class Context:
    def __init__(self, cfg):
        self.cfg = cfg
        self._cache = {}
        self._errors = {}
        # resource -> seconds in its builder less those in builds nested in it
        self.build_s, self._nested = {}, 0.0

    def get(self, name):
        if name in self._errors:
            raise self._errors[name]
        if name in BUILT_BY and name not in self._cache:
            self.get(BUILT_BY[name])
        if name not in self._cache:
            t0, outer, self._nested = time.perf_counter(), self._nested, 0.0
            try:
                value = getattr(self, "_build_" + name)()
            except Exception as exc:
                self._errors[name] = exc
                raise
            finally:
                spent = time.perf_counter() - t0
                self.build_s[name] = spent - self._nested
                self._nested = outer + spent
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
            self.get("spec"), b=self.cfg["b"], gamma=self.cfg["gamma"])

    def _build_frame(self):
        return fr.build_frame1(self.get("spec"), self.get("hier"))

    def _build_dual(self):
        return fr.build_dual_frame(self.get("spec"), self.get("hier"),
                                   self.get("sampling_eps"))[0]

    def _build_compact(self):
        return fr.build_compact_frame(self.get("spec"), self.get("hier"))

    def _build_compact_dual(self):
        return fr.build_compact_dual(self.get("frame"), self.get("dual"),
                                     self.get("compact"), self.get("params"))

    def _build_lemma64_half(self):
        # lemma6.4-W-bound's pairs at beta = eps1, then Thm 6.3(ii)'s c* pair
        eps = ad.NEUMANN_EPSILON
        return ad.lemma64_grid(self.get("hier"), self.get("params"), eps / 2,
                               _lemma64_pairs(eps / 2) + [(eps, eps / 2)])

    def _build_battery(self):
        return sq.random_battery(self.get("spec"), int(self.cfg["battery"]),
                                 seed=int(self.cfg["seed"]))


def _factors(ctx):
    """(U, V) = (psi~^T M E, E^T M psi), the frames' tables, each 0 off its
    level's band: A_m = U diag(m(sqrt(lambda))) V.  They are formed from
    the frames' level blocks on each call, so a suite may scale them in
    place, and are dropped when it returns."""
    return ctx.get("dual").table().T, ctx.get("frame").table()


# ---------------------------------------------------------------------------
# suites


SUITES = {}  # name -> (anchor, description, fn), in run order
AFTER = {}   # name -> the gates it follows


def _suite(name, anchor, description, after=()):
    """Register the decorated suite.  Suites run in the order they are
    defined; a suite is skipped when one of the gates in after failed or
    errored earlier in the same run."""
    def register(fn):
        if name in SUITES or not set(after) <= SUITES.keys():
            raise ValueError(f"suite {name!r} is registered twice or follows "
                             f"a suite not yet registered: {after}")
        SUITES[name] = (anchor, description, fn)
        AFTER[name] = after
        return fn
    return register


@_suite("doubling", "§1 (1.1)-(1.2),(1.7)-(1.8)", "measured doubling profile")
def _suite_doubling(ctx):
    prof = ctx.get("profile")
    return "record", {"c0": prof.c0, "d": prof.d, "c2": prof.c2,
                      "dstar": prof.dstar, "truncated": prof.truncated}


@_suite("lemma9.1", "Lemma 9.1", "net counting bound, exhaustive")
def _suite_lemma91(ctx):
    space, prof, hier = ctx.get("space"), ctx.get("profile"), ctx.get("hier")
    ratios = [sp.check_net_count(space, net.centers, net.delta,
                                 mult * net.delta, prof)
              for net in hier.levels for mult in (1.0, 2.0, 4.0)]
    ok = all(r <= 1.0 for r in ratios)  # a NaN ratio fails
    return ("pass" if ok else "fail"), {"worst_ratio": max(ratios)}


@_suite("lemma9.2", "Lemma 9.2",
        "discrete net sums against explicit constants")
def _suite_lemma92(ctx):
    space, prof, hier = ctx.get("space"), ctx.get("profile"), ctx.get("hier")
    sigma = prof.d + 1.0
    ratios = [sp.check_discrete_sum(space, net.centers, sigma, net.delta,
                                    net.delta, 2.0 * net.delta, prof)
              for net in hier.levels]
    ok = all(r <= 1.0 for r in ratios)
    return ("pass" if ok else "fail"), {"sigma": sigma,
                                        "worst_ratio": max(ratios)}


@_suite("lemma2.3", "Lemma 2.3", "weighted volume sums (Peetre type)")
def _suite_lemma23(ctx):
    space, prof = ctx.get("space"), ctx.get("profile")
    sigma = prof.d + 1.0
    ratio = sp.check_peetre_integrals(space, sigma, sigma + 1.0, 1.0, 2.0,
                                      prof)
    return ("pass" if ratio <= 1.0 else "fail"), {"worst_ratio": ratio}


@_suite("net-invariants", "(2.6)-(2.7)", "separation/maximality/sandwich")
def _suite_net_invariants(ctx):
    space, hier = ctx.get("space"), ctx.get("hier")
    for net in hier.levels:
        sp.verify_net_invariants(space, net)
    return "pass", {"levels": len(hier.levels)}


@_suite("def2.1-cutoffs", "Def 2.1", "cutoff types (a)/(c) closed-form checks")
def _suite_cutoffs(ctx):
    b = ctx.cfg["b"]
    Phi = ca.make_cutoff("a", b)
    phi_c = ca.make_cutoff("c", b)
    u = np.linspace(0.0, b * 4.0, 2001)
    low_err = max(float(np.abs(Phi(u[u <= 1.0]) - 1.0).max()),
                  float(np.abs(Phi(u[u >= b])).max()))
    t = np.geomspace(1e-3, 1e3, 500)
    total = np.zeros_like(t)
    scales = [b ** -j for j in range(-40, 41)]  # as Python rounds b^-j
    for rows in np.split(np.multiply.outer(scales, t), 9):  # cache-sized
        for row in phi_c(rows) ** 2:
            total += row
    part_err = float(np.abs(total - 1.0).max())
    ok = low_err <= 1e-12 and part_err <= 1e-10
    return ("pass" if ok else "fail"), {"lowpass_err": low_err,
                                        "partition_err": part_err}


@_suite("thm2.2-localization", "Thm 2.2", "kernel localization ladder")
def _suite_localization(ctx):
    spec, space = ctx.get("spec"), ctx.get("space")
    kern = spec.kernel(spec.symbol(lambda u: np.exp(-(u**2))))
    out = ca.measure_localization(kern, 1.0, (1.0, 2.0, 4.0), space)
    return "record", {"A_%g" % k: v for k, v in out.items()}


@_suite("thm3.4-telescoping", "Thm 3.4", "multiscale telescoping identity")
def _suite_telescoping(ctx):
    spec, b = ctx.get("spec"), ctx.cfg["b"]
    window = ca.level_window(spec, b)
    F = spec.project_mean_zero(ctx.get("battery").T)
    norms = spec.space.norm2(F)
    live = norms > 0
    F = F[:, live]
    out = ca.telescope(spec, ca.make_cutoff("a", b), window, F)
    resid = spec.space.norm2(out - F)
    worst = (resid / norms[live]).max(initial=0.0)
    ok = live.any() and worst <= 1e-10
    return ("pass" if ok else "fail"), {"residual": worst,
                                        "j_min": window[0],
                                        "j_max": window[1]}


@_suite("lemma4.1-sampling", "Lemma 4.1", "sampling perturbation constants")
def _suite_sampling(ctx):
    eps = ctx.get("sampling_eps")
    worst = max(eps.values())
    return ("pass" if worst < 0.5 else "fail"), {
        "eps_max": worst, "gamma": ctx.get("hier").gamma}


@_suite("thm4.2-reconstruction", "Thm 4.2", "two-sided frame reconstruction",
        after=("lemma4.1-sampling",))
def _suite_reconstruction(ctx):
    spec, frame, dual = ctx.get("spec"), ctx.get("frame"), ctx.get("dual")
    probe = fr.frame_bounds_probe(frame, dual, ctx.get("battery"))
    ok = probe["samples"] > 0 and probe["residual"] <= 1e-9
    return ("pass" if ok else "fail"), {"residual": probe["residual"],
                                        "lower": probe["lower"],
                                        "upper": probe["upper"]}


@_suite("thm4.2-bands", "Thm 4.2/(4.10)", "frame and dual spectral bands",
        after=("lemma4.1-sampling",))
def _suite_bands(ctx):
    # the dual's (leak) and the primal's off-band coefficients, 0 unless a
    # builder writes off band, and how far E is from mu-orthonormal
    spec = ctx.get("spec")
    psi, g = fr.hierarchy_bands(spec, ctx.get("hier"))
    out = {"leak": fr.band_leak(ctx.get("dual"), g),
           "primal_leak": fr.band_leak(ctx.get("frame"), psi),
           "basis_defect": spec.basis_defect()}
    ok = max(out.values()) <= 1e-10
    return ("pass" if ok else "fail"), out


def _characterization(ctx, family):
    out = {}
    ok = True
    for flavor in ("classical", "tilde"):
        prm = dataclasses.replace(ctx.get("params"), flavor=flavor,
                                  family=family)
        rep = sq.check_frame_characterization(
            ctx.get("battery"), prm, ctx.get("frame"), ctx.get("dual"))
        lo, hi = rep["ratio_band"]
        out[f"{flavor}_lower"] = lo
        out[f"{flavor}_upper"] = hi
        out[f"{flavor}_residual"] = rep["reconstruction_residual"]
        ok = ok and rep["samples"] > 0 and np.isfinite(hi) and lo > 0 and \
            rep["reconstruction_residual"] <= 1e-9
    return ("pass" if ok else "fail"), out


@_suite("thm5.5-besov", "Thm 5.5", "Besov norm equivalence bands",
        after=("lemma4.1-sampling",))
def _suite_besov_equiv(ctx):
    return _characterization(ctx, "besov")


@_suite("thm5.6-tl", "Thm 5.6", "Triebel-Lizorkin norm equivalence bands",
        after=("lemma4.1-sampling",))
def _suite_tl_equiv(ctx):
    return _characterization(ctx, "triebel_lizorkin")


@_suite("sec2.3-maximal", "(2.22)-(2.23)", "vector maximal ratio probe")
def _suite_maximal(ctx):
    space = ctx.get("space")
    out = sq.fs_maximal_probe(ctx.get("battery"), p=2.0, q=2.0, t=1.0, space=space)
    return "record", {"ratio": out["ratio"]}


@_suite("lemma9.3", "Lemma 9.3", "maximal domination of net sums")
def _suite_lemma93(ctx):
    space, hier, prof = ctx.get("space"), ctx.get("hier"), ctx.get("profile")
    t, M = 1.0, prof.d + 1.0
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    worst = 0.0
    net_j = hier.levels[len(hier.levels) // 2]
    hs = [np.abs(rng.standard_normal(len(net.centers))) for net in hier.levels]
    mts = sq.maximal_Mt(np.array([h[net.owner] for h, net in
                                  zip(hs, hier.levels)]), t, space)
    for net_m, h, mt in zip(hier.levels, hs, mts):
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


@_suite("def6.1-omega", "Def 6.1", "decay weight identities")
def _suite_omega(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    # the table's diagonal is 1; on 1000 random pairs the pairwise form
    # equals the table, and omega(eps) is at most omega(beta, gamma) for
    # beta <= gamma < eps.  The table is read one row level at a time
    i, k = rng.integers(0, hier.size, (2, 1000))
    eps = rng.uniform(0.05, 2.0, 1000)
    bg = np.sort(rng.uniform(0.05, eps, (2, 1000)), axis=0)
    ratio, diag = ad.omega2(hier, i, k, 0.7, 0.3, params), []
    for sl, W in ad.omega2_rows(hier, 0.7, 0.3, params):
        on = (sl.start <= i) & (i < sl.stop)
        ratio[on] /= W[i[on] - sl.start, k[on]]
        diag.append(np.diagonal(W[:, sl]).copy())
    diag_err = np.abs(np.concatenate(diag) - 1.0).max()
    pair_err = np.abs(ratio - 1.0).max()
    mono_ok = bool(np.all(ad.omega2(hier, i, k, eps, eps, params)
                          <= ad.omega2(hier, i, k, bg[0], bg[1], params)
                          * (1 + 1e-12)))
    ok = diag_err == 0.0 and pair_err <= 1e-14 and mono_ok
    return ("pass" if ok else "fail"), {"diag_err": diag_err,
                                        "pair_err": pair_err,
                                        "monotone": mono_ok}


@_suite("thm6.2-boundedness", "Thm 6.2", "almost-diagonal boundedness probe",
        after=("lemma4.1-sampling",))
def _suite_ad_boundedness(ctx):
    # A_m = U diag(m) V of m = 1/(1 + lambda) on the battery's
    # coefficients; the probe's ratios are taken against ||A_m||_1/2, so
    # A_m's scale drops out
    U, V = _factors(ctx)
    U *= 1.0 / (1.0 + ctx.get("spec").eigenvalues)
    H = ctx.get("dual").analyze(ctx.get("battery").T).T
    out = ad.boundedness_probe(ctx.get("hier"), ctx.get("params"), U, V,
                               0.5, H)
    return "record", {k.replace("~", "t"): v for k, v in out.items()}


# (betas, gamma1s, gamma2s) of the Lemma 6.4 grid; a combination with
# beta >= gamma1 + gamma2 lies outside the lemma and is not measured
_LEMMA64_GRID = ((0.25, 0.5, 1.0), (0.5, 1.0, 2.0), (0.6, 1.2, 2.4))
_LEMMA64_SPOT = 4  # seeded pairs (xi, eta) per beta, besides the argmaxes


def _lemma64_pairs(beta):
    _, g1s, g2s = _LEMMA64_GRID
    return [(g1, g2) for g1 in g1s for g2 in g2s if beta < g1 + g2]


@_suite("lemma6.4-W-bound", "Lemma 6.4", "weight composition bound grid")
def _suite_lemma64(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    theta = np.arange(hier.size)
    ratios, spot_ok = [], True
    for beta in _LEMMA64_GRID[0]:  # beta = eps1's grid is shared with thm6.3
        pairs = _lemma64_pairs(beta)
        grid = ctx.get("lemma64_half")[:-1] if beta == ad.NEUMANN_EPSILON / 2 \
            else ad.lemma64_grid(hier, params, beta, pairs)
        # the ratio summed over theta from scratch, at every pair's argmax
        # and at a seeded sample of (xi, eta): equal to max_ratio at its own
        # argmax, and at most max_ratio everywhere
        xi, eta = np.array([res["argmax"] for res in grid] + rng.integers(
            0, hier.size, (_LEMMA64_SPOT, 2)).tolist()).T
        g1s, g2s = (sorted({p[i] for p in pairs}) for i in (0, 1))
        W1 = dict(zip(g1s, ad.omega2(hier, xi[:, None], theta, beta,
                                     np.array(g1s)[:, None, None], params)))
        W2 = dict(zip(g2s, ad.omega2(hier, theta, eta[:, None], beta,
                                     np.array(g2s)[:, None, None], params)))
        for p, ((g1, g2), res) in enumerate(zip(pairs, grid)):
            r = res["max_ratio"]
            w = (W1[g1] * W2[g2]).sum(axis=1) / ad.omega2(
                hier, xi, eta, beta, min(g1, g2), params)
            spot_ok &= bool(abs(w[p] - r) <= 1e-12 * r
                            and np.all(w <= r * (1 + 1e-12)))
            ratios.append(r)
    ok = bool(ratios) and bool(np.all(np.isfinite(ratios))) and spot_ok
    return ("pass" if ok else "fail"), {"max_ratio": max(ratios, default=0.0),
                                        "spot_pairs": len(ratios)}


@_suite("thm6.3-neumann", "Thm 6.3(ii)", "Neumann inversion with decay cert",
        after=("lemma4.1-sampling",))
def _suite_neumann(ctx):
    hier, params = ctx.get("hier"), ctx.get("params")
    cstar = ctx.get("lemma64_half")[-1]["max_ratio"]
    # D = c A_m of m = 1/(1 + lambda) at ||D||_1 = 1/(2 c*), so delta_hat c*
    # = 1/2 < 1 as Thm 6.3(ii) requires; passed as (U diag(c m)) @ V.  U is
    # scaled in place, and formed again for the closed form
    U, V = _factors(ctx)
    cm = 1.0 / (1.0 + ctx.get("spec").eigenvalues)
    cm /= 2.0 * cstar * ad.ad_norm(hier, params, U * cm, V,
                                   ad.NEUMANN_EPSILON)
    U *= cm
    (c_left, _), rep = ad.neumann_invert(hier, params, U, V, cstar)
    del U
    # the algebra's closed form (I - c A_m)^{-1} - I = A_{cm/(1-cm)}, whose
    # right factor is C's, V: the difference is one table, taken relative
    # to the closed form's max, so a zero C reads 1
    X = ctx.get("dual").table().T
    X *= cm / (1.0 - cm)
    top = ad.max_abs(hier, X, V)
    X -= c_left
    closed = ad.max_abs(hier, X, V) / top
    # core_leak, G = V U diag(c m)'s largest off-diagonal entry over max|G|,
    # is recorded: it picks the core's form, and the residual bounds what a
    # diagonal core drops
    ok = max(rep["residual"], closed) <= 1e-9 and rep["geometric_decay_ok"]
    return ("pass" if ok else "fail"), {
        "residual": rep["residual"], "delta_hat": rep["delta_hat"],
        "c_star": rep["c_star"], "dhat_cstar": rep["dhat_cstar"],
        "terms": rep["terms"], "closed_form": closed,
        "geometric": rep["geometric_decay_ok"],
        "core_leak": rep["core_leak"]}


@_suite("prop6.6-theta", "Prop 6.6", "per-level polynomial symbols")
def _suite_theta(ctx):
    # a polynomial level also records its degree, sup_err and const, the
    # support constant degree * b^j in units of the level's scale b^{-j}
    b = ctx.get("hier").b
    out = {}
    for j, lv in ctx.get("compact_supports").items():
        out[f"level{j}_support"] = lv.support
        if lv.degree:
            out.update({f"level{j}_degree": lv.degree,
                        f"level{j}_const": lv.degree * b ** j,
                        f"level{j}_sup_err": lv.sup_err})
    return "record", out


def _speed_checks(ctx):
    """(radius / reach, passed) per polynomial level: the compact frame's
    support radius against k e, where a degree-k polynomial's kernel ends."""
    return [(lv.support / lv.reach, lv.support <= lv.reach)
            for lv in ctx.get("compact_supports").values() if lv.degree]


@_suite("prop2.1-finite-speed", "Prop 2.1", "polynomial kernel support",
        after=("prop6.6-theta",))
def _suite_finite_speed(ctx):
    checks = _speed_checks(ctx)
    if not checks:  # no polynomial level: nothing to check, nothing passes
        return "record", {"levels": 0}
    ok = all(passed for _, passed in checks)
    return ("pass" if ok else "fail"), {
        "levels": len(checks),
        "worst_ratio": max(ratio for ratio, _ in checks)}


@_suite("thm6.7-compact-dual", "Thm 6.7", "compact frame dual pipeline",
        after=("lemma4.1-sampling", "prop6.6-theta"))
def _suite_compact_dual(ctx):
    delta_hat = ctx.get("compact_dual_perturbation")
    space, F = ctx.get("space"), ctx.get("battery").T
    nf = space.norm2(F)
    live = nf > 0
    err = space.norm2(fr.reconstruct(ctx.get("compact"),
                                     ctx.get("compact_dual"), F) - F)
    worst = np.divide(err, nf, out=np.zeros_like(nf), where=live).max(
        initial=0.0)
    ok = live.any() and worst <= 1e-6 and \
        delta_hat < ad.NEUMANN_THRESHOLD
    return ("pass" if ok else "fail"), {
        "perturbation": delta_hat, "residual": worst}


@_suite("lemma7.2-molecules", "Lemma 7.2", "scaled frames are molecules",
        after=("lemma4.1-sampling",))
def _suite_molecule_constants(ctx):
    # psi and psi~ from their tables, each exactly 0 off every level's band
    families = mo.validate_molecule([ctx.get("frame"), ctx.get("dual")],
                                    ctx.get("params"))
    out, ok = {}, True
    for name, certs in zip(("psi", "psit"), families):
        for flavor, cert in certs.items():
            # back off the exact budget boundary by a relative epsilon; the
            # residual is gated on the family as given too, since scaled by
            # a small c* it is taken against max(1, c* max|cols|) = 1
            cstar = mo.scaling_for_budget(cert) * (1.0 - 1e-9)
            out[f"{name}_{flavor}_cstar"] = cstar
            ok = ok and cert.scaled(cstar).passed and np.isfinite(cstar) \
                and cert.factorization_residual <= 1e-9
    return ("pass" if ok else "fail"), out


@_suite("lemma7.3-gram", "Lemma 7.3", "Gram matrix decay certificate",
        after=("lemma4.1-sampling",))
def _suite_gram(ctx):
    # the least c with |a_{xi,eta}| <= c omega_{xi,eta}(delta) for the Gram
    # A = psi~^T M psi = U V, Thm 6.2's A_m at m = 1, at delta = 1/8:
    # ||A||_delta cannot fall as delta grows, since log omega(delta) =
    # log omega(0) - delta (G + |lam|) with G + |lam| >= 0
    c = ad.ad_norm(ctx.get("hier"), ctx.get("params"), *_factors(ctx), 0.125)
    ok = np.isfinite(c) and c > 0
    return ("pass" if ok else "fail"), {"delta": 0.125, "c": c}


@_suite("thm7.4-synthesis", "Thm 7.4", "molecular synthesis ratios",
        after=("lemma4.1-sampling",))
def _suite_synthesis(ctx):
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    T = rng.standard_normal((int(ctx.cfg["battery"]), ctx.get("hier").size)).T
    _, rep = mo.molecular_synthesis(T, ctx.get("frame"), ctx.get("params"))
    return "record", {"max_ratio": rep["ratio"].max(initial=0.0)}


@_suite("thm7.5-analysis", "Thm 7.5/(7.11)", "molecular analysis identity",
        after=("lemma4.1-sampling",))
def _suite_analysis(ctx):
    dual = ctx.get("dual")
    _, rep = mo.molecular_analysis(ctx.get("battery").T, dual,
                                   ctx.get("frame"), dual, ctx.get("params"))
    worst_resid = rep["identity_residual"].max(initial=0.0)
    ok = np.any(rep["function_norm"] > 0) and worst_resid <= 1e-9
    return ("pass" if ok else "fail"), {
        "max_ratio": rep["ratio"].max(initial=0.0),
        "identity_residual": worst_resid}


@_suite("thm7.9-atoms", "Thm 7.9", "atomic decomposition",
        after=("lemma4.1-sampling", "prop6.6-theta", "thm6.7-compact-dual"))
def _suite_atoms(ctx):
    params, compact = ctx.get("params"), ctx.get("compact")
    cert = mo.validate_atoms(compact, params)
    checks = _speed_checks(ctx)
    supp_ok = all(passed for _, passed in checks)
    cstar = mo.scaling_for_budget(cert)
    _, rep = mo.atomic_decompose(ctx.get("battery").T, compact,
                                 ctx.get("compact_dual"), params, cstar=cstar)
    worst = rep["residual"].max(initial=0.0)
    ok = np.any(rep["l2_norm"] > 0) and worst <= 1e-6 and supp_ok and \
        np.isfinite(cert.support_constant)
    return ("pass" if ok else "fail"), {
        "residual": worst, "cstar": cstar,
        "support_constant": cert.support_constant,
        "support_ok": supp_ok, "support_levels": len(checks)}


@_suite("thm8.1-multiplier", "Thm 8.1", "Mihlin multiplier checks",
        after=("lemma4.1-sampling",))
def _suite_multiplier(ctx):
    spec, params = ctx.get("spec"), ctx.get("params")
    sym = mx.check_mihlin("rational", 4, params, spec, b=ctx.cfg["b"])
    U, V = _factors(ctx)
    U *= spec.symbol(sym)
    am_norm = ad.ad_norm(ctx.get("hier"), params, U, V, 0.5)
    del U, V
    F = ctx.get("battery").T
    try:
        mx.apply_multiplier(sym, F, ctx.get("frame"), ctx.get("dual"), spec)
        route_ok = True
    except RuntimeError:
        route_ok = False
    rep = mx.boundedness_report(sym, params, ctx.get("battery"),
                                ctx.get("frame"))
    l2_ok = rep["f"]["ratio"] <= sym.order_sups[0] + 1e-9
    mult = mx.multiplicativity_residual(
        sym, lambda u: np.exp(-np.asarray(u) ** 2), F, spec)
    ok = rep["samples"] > 0 and route_ok and l2_ok and mult <= 1e-10
    return ("pass" if ok else "fail"), {
        "mihlin_sup": sym.mihlin_sup, "am_norm": am_norm,
        "ratio_f": rep["f"]["ratio"], "ratio_b": rep["b"]["ratio"],
        "l2_ceiling_ok": l2_ok, "multiplicativity": mult}


@_suite("lemma9.4-hardy", "Lemma 9.4", "discrete Hardy inequalities")
def _suite_hardy(ctx):
    rng = np.random.default_rng(int(ctx.cfg["seed"]))
    worst = {}
    for m in (10, 20, 40):
        a = np.abs(rng.standard_normal((1000 // 3 + 1, m)))
        rep = sq.hardy_check(a, gamma=0.5, q=2.0, b=ctx.cfg["b"])
        worst[m] = float(max(rep["down"].max(), rep["up"].max()))
    vals = list(worst.values())
    spread = max(vals) / min(vals)
    ok = all(np.isfinite(v) for v in vals) and spread < 2.0
    return ("pass" if ok else "fail"), {
        "c_10": worst[10], "c_20": worst[20], "c_40": worst[40],
        "spread": spread}


@_suite("inhomogeneous-mode", "§8 inhomogeneous case", "level-0 conventions")
def _suite_inhomogeneous(ctx):
    spec = ctx.get("spec")
    # no level at j >= 0 leaves nothing to check
    if ca.level_window(spec, ctx.cfg["b"])[1] < 0:
        return "fail", {"levels": 0}
    hier, eps = fr.build_standard_hierarchy(spec, b=ctx.cfg["b"],
                                            gamma=ctx.cfg["gamma"],
                                            mode="inhomogeneous")
    ok = hier.j_min >= 0 and max(eps.values()) < 0.5
    certs = mo.validate_molecule([fr.build_frame1(spec, hier)],
                                 ctx.get("params"))[0]
    ok = ok and all(np.isfinite(max(cert.constants.values()))
                    for cert in certs.values())
    return ("pass" if ok else "fail"), {"j_min": hier.j_min,
                                        "eps_max": max(eps.values())}


CHECKS = {
    "b": (lambda v: _is_number(v) and v > 1, "a number above 1"),
    "gamma": (lambda v: _is_number(v) and v > 0, "a positive number"),
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
    for k in user:
        if k not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key: {k}")
    cfg = dict(DEFAULT_CONFIG, **user)
    for k, (ok, what) in CHECKS.items():
        if not ok(cfg[k]):
            raise ConfigError(f"{k} must be {what}, got {cfg[k]!r}")
    try:
        sp.parse_model(cfg["model"])
    except ValueError as exc:
        raise ConfigError(exc) from None
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
    selected = [s for s in SUITES
                if cfg["suites"] == "all" or s in cfg["suites"]]
    ctx = Context(cfg)
    outdir = os.environ.get("MMFRAMES_OUTPUT_DIR", cfg["output_dir"])
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {outdir!r}: {exc}")

    records = []
    bad = set()
    runtimes = {}
    messages = {}  # name -> first line of the error message
    for name in selected:
        anchor, desc, fn = SUITES[name]
        if bad.intersection(AFTER[name]):
            records.append((name, anchor, "skip", {"reason": "dependency"}))
            continue
        t0 = time.perf_counter()
        try:
            status, metrics = fn(ctx)
        except Exception as exc:
            status, metrics = "error", {"reason": type(exc).__name__}
            messages[name] = str(exc).partition("\n")[0]
        runtimes[name] = time.perf_counter() - t0
        records.append((name, anchor, status, metrics))
        if status in ("fail", "error"):
            bad.add(name)

    # machine report: deterministic, line oriented
    model = cfg["model"] if isinstance(cfg["model"], str) else "custom"
    lines = ["manifest model=%s b=%s gamma=%s seed=%d battery=%d" %
             (model, _fmt(cfg["b"]), _fmt(cfg["gamma"]), int(cfg["seed"]),
              int(cfg["battery"]))]
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
    # the hierarchy's size when the run built it, and the peak RSS so far
    # (ru_maxrss is in KiB on Linux, in bytes on macOS)
    sizes = ""
    hier = ctx._cache.get("hier")
    if hier is not None:
        sizes += (f"; n={hier.space.n} m={hier.size} "
                  f"levels={len(hier.levels)}")
    if resource is not None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss /= 2.0 ** (20 if sys.platform == "darwin" else 10)
        sizes += f"; peak_rss_mb={rss:.1f}"
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(f"model {model}: {n_pass} passed, {n_rec} recorded, "
                 f"{n_bad} failed, {n_skip} skipped{sizes}\n")
        fh.write("resources:" + "".join(f" {name} {t:.3f}s" for name, t
                                        in ctx.build_s.items()) + "\n")
        for name, anchor, status, _ in records:
            rt = runtimes.get(name)
            rts = "" if rt is None else f" ({rt:.2f}s)"
            msg = f": {messages[name]}" if messages.get(name) else ""
            fh.write(f"  {status:6s} {name} [{anchor}]{rts}{msg}\n")
    print("\n".join(lines))
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__)
        return 2
    cmd = argv[0]
    if cmd == "list-suites":
        for name, (anchor, desc, _) in SUITES.items():
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
            return run(load_config(argv[1]))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    print(f"unknown command: {cmd}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
