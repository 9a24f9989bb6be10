"""Spectral multipliers of Mihlin type: admissibility of a symbol through
weighted derivative sups on the model's spectral range, application through
the frame expansion with a cross-check against plain functional calculus,
and measured boundedness on the four space flavors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from mmframes.space import ModelSpace, ball_volumes
from mmframes.calculus import SpectralData
from mmframes.seqspace import SpaceParams, function_norm


# named symbols, as sources for parse_symbol in the variable lam
BUILTIN_SYMBOLS = {
    "one": "1",
    "heat": "exp(-lam**2)",
    "rational": "lam**2/(1 + lam**2)",
    "linear": "lam",
}


def parse_symbol(text: str):
    """Sympy expression from a named built-in or a small arithmetic
    expression in lam (+, -, *, /, **, exp)."""
    import sympy

    lam = sympy.Symbol("lam", real=True)
    expr = sympy.sympify(BUILTIN_SYMBOLS.get(text, text),
                         locals={"lam": lam, "exp": sympy.exp})
    extra = expr.free_symbols - {lam}
    if extra:
        raise ValueError(f"unknown names in symbol expression: {extra}")
    return expr


@dataclass(frozen=True)
class MihlinSymbol:
    expr: object                 # sympy expression or None for callables
    fn: object = field(repr=False, default=None)
    ell: int = 0
    mihlin_sup: float = np.inf
    order_sups: tuple = ()
    even_ok: bool = False
    range_restricted: bool = False
    grid: tuple = (0.0, 0.0)
    threshold: float = np.inf

    def __call__(self, u):
        return self.fn(u)


def _richardson_derivative(fn, x, order, h):
    """Central difference of given order with one step-halving Richardson
    extrapolation; returns (value, discrepancy estimate)."""

    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape)

    def central(hh):
        k = np.arange(order + 1)
        w = (-1.0) ** k * np.array([math.comb(order, int(i)) for i in k])
        pts = x[:, None] + (order / 2.0 - k)[None, :] * hh[:, None]
        return (w[None, :] * fn(pts)).sum(axis=1) / hh**order

    d1 = central(h)
    d2 = central(h / 2.0)
    # central differences are O(h^2): eliminate the leading term
    val = (4.0 * d2 - d1) / 3.0
    return val, np.abs(d2 - d1)


def ahlfors_scan(space: ModelSpace, d: float) -> dict:
    """Fit of the two-sided volume bound |B(x,r)| asymptotically r^d.

    Returns the smallest c with c^{-1} r^d <= |B(x,r)| <= c r^d over all
    centers and radii up to the diameter, plus the band width c^2.
    """
    radii = np.unique(space.dist[space.dist > 0])
    radii = radii[radii <= space.diameter]
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

    The smoothness threshold is J + d/2 in general and relaxes to J when
    the volume growth fits the two-sided power bound within AHLFORS_BAND.
    Symbols whose sups blow up only beyond the extended range are flagged
    range_restricted rather than rejected.
    """
    if isinstance(m, str):
        m = parse_symbol(m)
    # a sympy expression, recognized without importing sympy
    expr = m if hasattr(m, "free_symbols") else None

    scan = ahlfors_scan(spec.space, params.d)
    threshold = params.J + (0.0 if scan["band"] <= AHLFORS_BAND
                            else params.d / 2.0)
    if not (ell > threshold):
        raise ValueError(
            f"smoothness order {ell} does not exceed the threshold "
            f"{threshold:.4g}")

    if expr is not None:
        import sympy

        lam = sympy.Symbol("lam", real=True)
        derivs = [sympy.lambdify(lam, sympy.diff(expr, lam, nu), "numpy")
                  for nu in range(ell + 1)]
        base_fn = lambda u: np.asarray(derivs[0](u), dtype=float) + \
            0.0 * np.asarray(u)
    else:
        base_fn = lambda u: np.asarray(m(u), dtype=float)

    lo = np.sqrt(spec.lambda_2) / b**2
    hi = b**2 * np.sqrt(spec.lambda_max)
    grid = np.geomspace(lo, hi, 4000)

    # evenness on the grid; a symbol given only on the positive axis is
    # extended evenly and flagged rather than rejected (the calculus only
    # evaluates it at nonnegative arguments)
    even_err = float(np.abs(base_fn(grid) - base_fn(-grid)).max())
    even_ok = even_err <= 1e-12 * max(1.0, float(np.abs(base_fn(grid)).max()))
    forced_even = not even_ok
    if forced_even:
        inner = base_fn
        base_fn = lambda u: inner(np.abs(np.asarray(u, dtype=float)))
        # derivatives below are taken on the (positive) grid, where the
        # even extension agrees with the original expression

    # the sups, and range restriction: does a weighted sup keep growing
    # toward the edge of the extended range?
    sups = []
    restricted = False
    for nu in range(ell + 1):
        if expr is not None:
            vals = np.asarray(derivs[nu](grid), dtype=float) + 0.0 * grid
        else:
            if nu == 0:
                vals = base_fn(grid)
            else:
                # step chosen to balance roundoff (eps / h^nu) against the
                # O(h^4) truncation left after Richardson extrapolation
                h = np.maximum(grid, 1.0) * \
                    np.finfo(float).eps ** (1.0 / (nu + 4))
                vals, disc = _richardson_derivative(base_fn, grid, nu, h)
                if (disc * grid**nu).max() > \
                        1e-3 * max(1.0, float(np.abs(grid**nu * vals).max())):
                    raise ValueError(
                        "finite-difference derivative did not stabilize")
        wv = np.abs(grid**nu * vals)
        sups.append(float(wv.max()))
        if expr is not None or nu == 0:
            head = max(float(wv[:-200].max()), 1e-300)
            if float(wv[-1]) > 2.0 * head and wv[-1] >= wv[-100]:
                restricted = True

    return MihlinSymbol(expr=expr, fn=base_fn, ell=ell,
                        mihlin_sup=float(max(sups)), order_sups=tuple(sups),
                        even_ok=even_ok,
                        range_restricted=restricted or forced_even,
                        grid=(float(lo), float(hi)), threshold=threshold)


def apply_multiplier(symbol, f, frame, dual, spec: SpectralData) -> np.ndarray:
    """m(sqrt(L)) f computed through the frame expansion
    sum_xi <f, psi~_xi> m(sqrt(L)) psi_xi, cross-checked against direct
    spectral application to a relative 1e-9."""
    fn = symbol.fn if isinstance(symbol, MihlinSymbol) else symbol
    fv = spec.project_mean_zero(np.asarray(f, dtype=float))
    mvals = spec.symbol(fn)
    direct = spec.apply(mvals, fv)
    framed = spec.apply(mvals, frame.columns @ dual.analyze(fv))
    scale = max(1.0, float(np.abs(direct).max()))
    resid = float(np.abs(framed - direct).max() / scale)
    if resid > 1e-9:
        raise RuntimeError(
            f"frame route disagrees with direct calculus: {resid:.3g}")
    return direct


def boundedness_report(symbol: MihlinSymbol, params: SpaceParams, battery,
                       spec: SpectralData, phi, b: float = 2.0) -> dict:
    """Max over the battery (one function per row) of ||m(sqrt(L)) f|| / ||f||
    in each of the four flavors, with the per-flavor smoothness requirement
    recorded.  Functions of norm 0 are left out; samples is the fewest
    functions measured in any flavor."""
    s = params.s
    out = {"mihlin_sup": symbol.mihlin_sup}
    F = spec.project_mean_zero(np.asarray(battery, dtype=float).T)
    G = spec.apply(spec.symbol(symbol.fn), F)
    base = params.J if symbol.threshold == params.J else params.J + params.d / 2.0
    samples = []
    for key, family, flavor, extra in (
            ("f", "triebel_lizorkin", "classical", 0.0),
            ("f~", "triebel_lizorkin", "tilde", abs(s)),
            ("b", "besov", "classical", 0.0),
            ("b~", "besov", "tilde", abs(s))):
        prm = SpaceParams(s=s, p=params.p, q=params.q, flavor=flavor,
                          family=family, d=params.d, dstar=params.dstar)
        denom = function_norm(F, prm, spec, phi, b)
        live = denom > 0
        ratios = function_norm(G[:, live], prm, spec, phi, b) / denom[live]
        samples.append(int(live.sum()))
        out[key] = {"ratio": float(ratios.max(initial=0.0)),
                    "required_order": base + extra,
                    "order_ok": symbol.ell > base + extra}
    out["samples"] = min(samples)
    return out


def multiplicativity_residual(m1, m2, f, spec: SpectralData) -> float:
    """|m1(sqrt(L)) m2(sqrt(L)) f - (m1 m2)(sqrt(L)) f| (relative sup)."""
    v1, v2 = spec.symbol(m1), spec.symbol(m2)
    fv = spec.project_mean_zero(np.asarray(f, dtype=float))
    seq = spec.apply(v1, spec.apply(v2, fv))
    prod = spec.apply(v1 * v2, fv)
    return float(np.abs(seq - prod).max() / max(1.0, np.abs(prod).max()))
