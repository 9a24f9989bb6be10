"""Spectral multipliers of Mihlin type: admissibility of a symbol through
weighted derivative sups on the model's spectral range, application through
the frame expansion with a cross-check against plain functional calculus,
and measured boundedness on the four space flavors.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from mmframes.space import ModelSpace, _distinct, ball_volumes
from mmframes.calculus import SpectralData
from mmframes.seqspace import FLAVOURS, SpaceParams, frame_norm


def _rational(u, nu):
    # m = u^2/(1 + u^2) = 1 - Im 1/(u - i), so for nu >= 1
    # m^(nu) = -Im[(-1)^nu nu! / (u - i)^(nu + 1)]
    if nu == 0:
        return u**2 / (1 + u**2)
    return -((-1.0) ** nu * math.factorial(nu) / (u - 1j) ** (nu + 1)).imag


# the built-in symbols as jets (u, nu) -> m^(nu)(u) on float arrays
BUILTIN_SYMBOLS = {
    "one": lambda u, nu: np.full_like(u, float(nu == 0)),
    "rational": _rational,
}


@dataclass(frozen=True)
class MihlinSymbol:
    fn: object = field(repr=False)
    ell: int = 0
    mihlin_sup: float = np.inf
    order_sups: tuple = ()
    grid: tuple = (0.0, 0.0)
    threshold: float = np.inf

    def __call__(self, u):
        return self.fn(u)


def ahlfors_scan(space: ModelSpace, d: float) -> dict:
    """Fit of the two-sided volume bound |B(x,r)| asymptotically r^d.

    Returns the smallest c with c^{-1} r^d <= |B(x,r)| <= c r^d over all
    centers and radii up to the diameter, plus the band width c^2.
    """
    radii = _distinct(space.dist[space.dist > 0])
    hi = 0.0
    lo = np.inf
    for r in radii:
        vols = ball_volumes(space, float(r) * (1 + 1e-12))
        ratio = vols / float(r) ** d
        hi = max(hi, float(ratio.max()))
        lo = min(lo, float(ratio.min()))
    c4 = max(hi, 1.0 / lo)
    return {"c4": c4, "band": hi / lo, "d": d}


# volume growth within this band of the two-sided power bound counts as
# Ahlfors regular, and relaxes the Mihlin smoothness threshold to J
AHLFORS_BAND = 50.0


def check_mihlin(m, ell: int, params: SpaceParams, spec: SpectralData,
                 b: float = 2.0) -> MihlinSymbol:
    """Weighted derivative sups sup_lam |lam^nu m^(nu)(lam)| for nu <= ell
    on a log grid of 4000 points covering the model's spectral range
    extended by b^2 on both sides.

    m is a built-in name ("one", "rational"), whose derivatives are taken
    in closed form from its jet in BUILTIN_SYMBOLS.

    The smoothness threshold is J + d/2 in general and relaxes to J when
    the volume growth fits the two-sided power bound within AHLFORS_BAND.
    """
    if not isinstance(m, str) or m not in BUILTIN_SYMBOLS:
        raise ValueError(f"unknown symbol {m!r}; the built-in symbols "
                         f"are {', '.join(BUILTIN_SYMBOLS)}")
    jet = BUILTIN_SYMBOLS[m]

    scan = ahlfors_scan(spec.space, params.d)
    threshold = params.J + (0.0 if scan["band"] <= AHLFORS_BAND
                            else params.d / 2.0)
    if not (ell > threshold):
        raise ValueError(
            f"smoothness order {ell} does not exceed the threshold "
            f"{threshold:.4g}")

    lo = np.sqrt(spec.lambda_2) / b**2
    hi = b**2 * np.sqrt(spec.lambda_max)
    grid = np.geomspace(lo, hi, 4000)

    sups = [float(np.abs(grid**nu * jet(grid, nu)).max())
            for nu in range(ell + 1)]
    return MihlinSymbol(fn=lambda u: jet(np.asarray(u, dtype=float), 0),
                        ell=ell,
                        mihlin_sup=float(max(sups)), order_sups=tuple(sups),
                        grid=(float(lo), float(hi)), threshold=threshold)


def apply_multiplier(symbol, f, frame, dual, spec: SpectralData) -> np.ndarray:
    """m(sqrt(L)) f computed through the frame expansion
    sum_xi <f, psi~_xi> m(sqrt(L)) psi_xi, on the frames' tables, and
    cross-checked against direct spectral application to a relative 1e-9;
    f is one function or an (n, k) table."""
    c = spec.coefficients(np.asarray(f, dtype=float))
    c[:spec.nullspace_dim] = 0.0  # f's mean-zero part
    mvals = spec.symbol(symbol).reshape((-1,) + (1,) * (c.ndim - 1))
    direct = spec.synthesize(mvals * c)
    framed = spec.synthesize(mvals * frame.matvec(dual.rmatvec(c)))
    scale = max(1.0, float(np.abs(direct).max()))
    resid = float(np.abs(framed - direct).max() / scale)
    if not resid <= 1e-9:  # a NaN fails too
        raise RuntimeError(
            f"frame route disagrees with direct calculus: {resid:.3g}")
    return direct


def boundedness_report(symbol: MihlinSymbol, params: SpaceParams, battery,
                       frame) -> dict:
    """Max over the battery (one function per row) of ||m(sqrt(L)) f|| / ||f||
    in each of the four flavors, with the per-flavor smoothness requirement
    recorded: the tilde flavors need |s| more.  The norms are the frame's
    (frame_norm).  Functions of norm 0 are left out; samples is the fewest
    functions measured in any flavor."""
    spec = frame.spec
    out = {"mihlin_sup": symbol.mihlin_sup}
    F = spec.project_mean_zero(np.asarray(battery, dtype=float).T)
    G = spec.apply(spec.symbol(symbol), F)
    samples = []
    for key, family, flavor in FLAVOURS:
        prm = replace(params, family=family, flavor=flavor)
        order = symbol.threshold + abs(params.s) * (flavor == "tilde")
        denom = frame_norm(F, prm, frame)
        live = denom > 0
        ratios = frame_norm(G[:, live], prm, frame) / denom[live]
        samples.append(int(live.sum()))
        out[key] = {"ratio": float(ratios.max(initial=0.0)),
                    "required_order": order,
                    "order_ok": symbol.ell > order}
    out["samples"] = min(samples)
    return out


def multiplicativity_residual(m1, m2, f, spec: SpectralData) -> float:
    """|m1(sqrt(L)) m2(sqrt(L)) f - (m1 m2)(sqrt(L)) f| (relative sup)."""
    v1, v2 = spec.symbol(m1), spec.symbol(m2)
    fv = spec.project_mean_zero(np.asarray(f, dtype=float))
    seq = spec.apply(v1, spec.apply(v2, fv))
    prod = spec.apply(v1 * v2, fv)
    return float(np.abs(seq - prod).max() / max(1.0, np.abs(prod).max()))
