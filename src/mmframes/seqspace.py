"""Function-space and sequence-space norms, the maximal operator, and the
frame-characterization measurements.

Norms follow the homogeneous multiscale recipe: a band symbol phi scaled to
level j picks out the piece of f near frequency b^j; classical norms weight
levels by b^{js}, tilde norms weight points by ball-volume powers.  All
level sums run over a finite window recorded in the report.
"""

from dataclasses import dataclass

import numpy as np

from mmframes.space import ModelSpace, NetHierarchy, ball_volumes
from mmframes.calculus import SpectralData, level_window


@dataclass(frozen=True)
class SpaceParams:
    s: float
    p: float
    q: float
    flavor: str = "classical"   # classical | tilde
    family: str = "triebel_lizorkin"  # besov | triebel_lizorkin
    d: float = 1.0
    dstar: float = 0.0

    def __post_init__(self):
        if self.flavor not in ("classical", "tilde"):
            raise ValueError("flavor must be classical or tilde")
        if self.family not in ("besov", "triebel_lizorkin"):
            raise ValueError("bad family")
        if self.family == "triebel_lizorkin" and np.isinf(self.p):
            raise ValueError("p must be finite for the TL family")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p, q must be positive")

    @property
    def J(self) -> float:
        if self.family == "besov":
            return self.d / min(1.0, self.p)
        return self.d / min(1.0, self.p, self.q)


def _lq(values, q, axis=0):
    """(sum |v|^q)^{1/q} along an axis, sup for q = inf."""
    a = np.abs(values)
    if np.isinf(q):
        return a.max(axis=axis)
    return (a**q).sum(axis=axis) ** (1.0 / q)


# ---------------------------------------------------------------------------
# function-space norms


def _level_pieces(f, params: SpaceParams, spec: SpectralData, phi, b,
                  window):
    """|phi(b^{-j} sqrt(L)) f| for j across the window, one row per level,
    weighted by b^{js} (classical) or |B(x, b^{-j})|^{-s/d} (tilde); f is
    projected mean-zero first."""
    levels = range(window[0], window[1] + 1)
    vals = np.stack([spec.symbol(phi, b ** (-j)) for j in levels], axis=1)
    vals[: spec.nullspace_dim] = 0.0
    pieces = np.abs(spec.apply(vals, f).T)
    for row, j in zip(pieces, levels):
        if params.flavor == "classical":
            row *= b ** (j * params.s)
        else:
            row *= ball_volumes(spec.space, b ** (-j)) ** (-params.s / params.d)
    return pieces


def besov_norm(f, params: SpaceParams, spec: SpectralData, phi,
               b: float = 2.0, window=None) -> float:
    if window is None:
        window = level_window(spec, b)
    pieces = _level_pieces(f, params, spec, phi, b, window)
    terms = [spec.space.lp_norm(row, params.p) for row in pieces]
    return float(_lq(np.array(terms), params.q))


def tl_norm(f, params: SpaceParams, spec: SpectralData, phi,
            b: float = 2.0, window=None) -> float:
    if np.isinf(params.p):
        raise ValueError("p must be finite for the TL norm")
    if window is None:
        window = level_window(spec, b)
    pieces = _level_pieces(f, params, spec, phi, b, window)
    return float(spec.space.lp_norm(_lq(pieces, params.q, axis=0), params.p))


def function_norm(f, params: SpaceParams, spec: SpectralData, phi,
                  b: float = 2.0, window=None) -> float:
    if params.family == "besov":
        return besov_norm(f, params, spec, phi, b, window)
    return tl_norm(f, params, spec, phi, b, window)


# ---------------------------------------------------------------------------
# sequence-space norms


def _scale_ball_vols(hier: NetHierarchy):
    """|B(xi, b^{-j})| per flat index (ball at the level scale, not at the
    net separation)."""
    out = np.empty(hier.size)
    for net in hier.levels:
        sl = hier.level_slice(net.level)
        vols = ball_volumes(hier.space, hier.b ** (-net.level))
        out[sl] = vols[net.centers]
    return out


def seq_norm(a, params: SpaceParams, hier: NetHierarchy) -> float:
    a = np.abs(np.asarray(a, dtype=float))
    if a.shape != (hier.size,):
        raise ValueError("coefficient sequence does not match the hierarchy")
    s, p, q = params.s, params.p, params.q
    if params.family == "besov":
        svols = _scale_ball_vols(hier)
        terms = []
        for net in hier.levels:
            sl = hier.level_slice(net.level)
            if params.flavor == "classical":
                w = svols[sl] ** (1.0 / p - 0.5) if not np.isinf(p) else svols[sl] ** (-0.5)
                inner = _lq(w * a[sl], p)
                terms.append(hier.b ** (net.level * s) * inner)
            else:
                expo = -s / params.d + (1.0 / p if not np.isinf(p) else 0.0) - 0.5
                terms.append(_lq(svols[sl] ** expo * a[sl], p))
        return float(_lq(np.array(terms), q))
    # TL family: pointwise level stack through the partition indicators
    space = hier.space
    stack = np.empty((len(hier.levels), space.n))
    for row, net in enumerate(hier.levels):
        sl = hier.level_slice(net.level)
        av = hier.xi_avol[sl]
        vals = a[sl] * av ** (-0.5)  # |a_xi| * normalized indicator height
        if params.flavor == "classical":
            stack[row] = hier.b ** (net.level * s) * vals[net.owner]
        else:
            stack[row] = (av ** (-s / params.d) * vals)[net.owner]
    inner = _lq(stack, q, axis=0)
    return float(space.lp_norm(inner, p))


# ---------------------------------------------------------------------------
# maximal operator


def maximal_Mt(f, t: float, space: ModelSpace) -> np.ndarray:
    """M_t f(x) = sup over balls containing x of (avg_mu |f|^t)^{1/t},
    computed exactly by prefix enumeration of the sorted distance lists."""
    if t <= 0:
        raise ValueError("t must be positive")
    g = np.abs(np.asarray(f, dtype=float)) ** t
    out = np.zeros(space.n)
    for z in range(space.n):
        order = np.argsort(space.dist[z], kind="stable")
        dz = space.dist[z, order]
        w = space.mu[order]
        gv = g[order] * w
        avg = np.cumsum(gv) / np.cumsum(w)
        # only prefixes ending strictly before the next distance value are
        # genuine balls (ties cannot be split by a radius)
        valid = np.empty(space.n, dtype=bool)
        valid[:-1] = dz[:-1] < dz[1:]
        valid[-1] = True
        avg = np.where(valid, avg, -np.inf)
        best = np.maximum.accumulate(avg[::-1])[::-1]  # max over balls from here out
        out[order] = np.maximum(out[order], best ** (1.0 / t))
    return out


def fs_maximal_probe(family, p, q, t, space: ModelSpace) -> dict:
    """Vector-valued maximal ratio: ||(sum_nu (M_t f_nu)^q)^{1/q}||_p over
    ||(sum_nu |f_nu|^q)^{1/q}||_p."""
    if not (0 < t < min(p, q)):
        raise ValueError("need 0 < t < min(p, q)")
    fam = np.asarray(family, dtype=float)
    rhs = space.lp_norm(_lq(fam, q, axis=0), p)
    if rhs == 0:
        return {"ratio": 0.0, "degenerate": True}
    mfam = np.array([maximal_Mt(fv, t, space) for fv in fam])
    lhs = space.lp_norm(_lq(mfam, q, axis=0), p)
    return {"ratio": float(lhs / rhs), "degenerate": False}


# ---------------------------------------------------------------------------
# Hardy-type window sums


def hardy_check(a, gamma: float, q: float, b: float = 2.0) -> dict:
    """Both window forms of the discrete Hardy inequality.

    down: (sum_j (sum_{m>=j} b^{-(m-j)gamma} a_m)^q)^{1/q} <= c ||a||_q
    up:   (sum_j (sum_{m<=j} b^{-(j-m)gamma} a_m)^q)^{1/q} <= c ||a||_q
    Returns the two measured ratios.
    """
    if gamma <= 0 or q <= 0:
        raise ValueError("need gamma > 0, q > 0")
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("sequence must be nonnegative")
    m = len(a)
    idx = np.arange(m)
    rhs = _lq(a, q)
    if rhs == 0:
        return {"down": 0.0, "up": 0.0, "degenerate": True}
    K = idx[None, :] - idx[:, None]  # m - j
    down = np.where(K >= 0, b ** (-gamma * np.maximum(K, 0)), 0.0) @ a
    up = np.where(K <= 0, b ** (gamma * np.minimum(K, 0)), 0.0) @ a
    return {
        "down": float(_lq(down, q) / rhs),
        "up": float(_lq(up, q) / rhs),
        "degenerate": False,
    }


# ---------------------------------------------------------------------------
# frame characterization


def check_frame_characterization(battery, params: SpaceParams,
                                 spec: SpectralData, frame, dual,
                                 phi, b: float = 2.0, window=None,
                                 phi_alt=None) -> dict:
    """Measured equivalence of coefficient and function norms over a battery.

    Reports min/max of ||coeff||_seq / ||f||_func with dual-frame analysis,
    the same with the frame roles interchanged, the worst reconstruction
    residual, and (optionally) the ratio band between two admissible phi.
    """
    space = spec.space
    hier = frame.hierarchy
    lo = lo2 = np.inf
    hi = hi2 = 0.0
    worst_resid = 0.0
    phi_band = [np.inf, 0.0] if phi_alt is not None else None
    for f0 in battery:
        f = spec.project_mean_zero(np.asarray(f0, dtype=float))
        fn = function_norm(f, params, spec, phi, b, window)
        if fn == 0:
            continue
        c1 = dual.analyze(f)
        c2 = frame.analyze(f)
        r1 = seq_norm(c1, params, hier) / fn
        r2 = seq_norm(c2, params, hier) / fn
        lo, hi = min(lo, r1), max(hi, r1)
        lo2, hi2 = min(lo2, r2), max(hi2, r2)
        recon = frame.synthesize(c1)
        worst_resid = max(worst_resid, space.norm2(recon - f) / space.norm2(f))
        if phi_alt is not None:
            fn2 = function_norm(f, params, spec, phi_alt, b, window)
            phi_band[0] = min(phi_band[0], fn2 / fn)
            phi_band[1] = max(phi_band[1], fn2 / fn)
    out = {
        "ratio_band": (lo, hi),
        "ratio_band_swapped": (lo2, hi2),
        "reconstruction_residual": worst_resid,
    }
    if phi_alt is not None:
        out["phi_ratio_band"] = tuple(phi_band)
    return out


def random_battery(space: ModelSpace, spec: SpectralData, count: int,
                   seed: int = 0, shaping: str = "flat") -> np.ndarray:
    """Deterministic battery of mean-zero test functions.

    shaping "flat": white spectral coefficients; "decaying": coefficients
    damped like 1/(1+lambda)."""
    rng = np.random.default_rng(seed)
    out = []
    lam = spec.eigenvalues
    for _ in range(count):
        c = rng.standard_normal(space.n)
        c[: spec.nullspace_dim] = 0.0
        if shaping == "decaying":
            c = c / (1.0 + lam)
        out.append(spec.synthesize(c))
    return np.array(out)
