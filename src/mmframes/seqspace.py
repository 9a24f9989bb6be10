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
    """|phi(b^{-j} sqrt(L)) f| for j across the window and every column of
    f, one (n,) function or an (n, k) table, as an (L, k, n) table,
    weighted by b^{js} (classical) or |B(x, b^{-j})|^{-s/d} (tilde); f is
    projected mean-zero first."""
    levels = range(window[0], window[1] + 1)
    vals = np.stack([spec.symbol(phi, b ** (-j)) for j in levels], axis=1)
    vals[: spec.nullspace_dim] = 0.0
    F = np.asarray(f, dtype=float).reshape(spec.space.n, -1)
    pieces = np.abs(spec.apply(vals, F).transpose(1, 2, 0), order="C")
    for slab, j in zip(pieces, levels):
        if params.flavor == "classical":
            slab *= b ** (j * params.s)
        else:
            slab *= ball_volumes(spec.space, b ** (-j)) ** (-params.s / params.d)
    return pieces


def _one_or_many(out, x):
    """out, one value per column of x, as a float when x is one vector."""
    return float(out[0]) if np.ndim(x) == 1 else out


def besov_norm(f, params: SpaceParams, spec: SpectralData, phi,
               b: float = 2.0, window=None):
    if window is None:
        window = level_window(spec, b)
    pieces = _level_pieces(f, params, spec, phi, b, window)
    L, k, n = pieces.shape
    terms = spec.space.lp_norm(pieces.reshape(L * k, n).T, params.p)
    terms = np.ascontiguousarray(terms.reshape(L, k).T)
    return _one_or_many(_lq(terms, params.q, axis=1), f)


def tl_norm(f, params: SpaceParams, spec: SpectralData, phi,
            b: float = 2.0, window=None):
    if np.isinf(params.p):
        raise ValueError("p must be finite for the TL norm")
    if window is None:
        window = level_window(spec, b)
    pieces = _level_pieces(f, params, spec, phi, b, window)
    inner = _lq(pieces, params.q, axis=0)
    return _one_or_many(spec.space.lp_norm(inner.T, params.p), f)


def function_norm(f, params: SpaceParams, spec: SpectralData, phi,
                  b: float = 2.0, window=None):
    """Norm of f in the function space of params: one (n,) function gives a
    float, an (n, k) table gives k norms, one per column."""
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


def seq_norm(a, params: SpaceParams, hier: NetHierarchy):
    """Norm of a in the sequence space of params: one (m,) sequence gives a
    float, an (m, k) table gives k norms, one per column.  Every sum runs
    along one contiguous row per sequence, so a table's norms equal its
    columns' norms bit for bit."""
    a = np.abs(np.asarray(a, dtype=float))
    if a.ndim not in (1, 2) or a.shape[0] != hier.size:
        raise ValueError("coefficient sequence does not match the hierarchy")
    rows = np.ascontiguousarray(a.reshape(hier.size, -1).T)
    s, p, q = params.s, params.p, params.q
    if params.family == "besov":
        svols = _scale_ball_vols(hier)
        terms = np.empty((len(rows), len(hier.levels)))
        for term, net in zip(terms.T, hier.levels):
            sl = hier.level_slice(net.level)
            if params.flavor == "classical":
                w = svols[sl] ** (1.0 / p - 0.5) if not np.isinf(p) else svols[sl] ** (-0.5)
                inner = _lq(w * rows[:, sl], p, axis=1)
                term[:] = hier.b ** (net.level * s) * inner
            else:
                expo = -s / params.d + (1.0 / p if not np.isinf(p) else 0.0) - 0.5
                term[:] = _lq(svols[sl] ** expo * rows[:, sl], p, axis=1)
        return _one_or_many(_lq(terms, q, axis=1), a)
    # TL family: pointwise level stack through the partition indicators,
    # |a_xi| * normalized indicator height times the level weight
    av = hier.xi_avol
    if params.flavor == "classical":
        weight = np.repeat([hier.b ** (net.level * s) for net in hier.levels],
                           [net.size for net in hier.levels])
    else:
        weight = av ** (-s / params.d)
    owners = np.array([hier.level_slice(net.level).start + net.owner
                       for net in hier.levels])
    stack = (weight * (rows * av ** (-0.5)))[:, owners]
    return _one_or_many(hier.space.lp_norm(_lq(stack, q, axis=1).T, p), a)


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
                                 phi, b: float = 2.0, window=None) -> dict:
    """Measured equivalence of coefficient and function norms over a battery
    (one function per row), taken on one table.

    Reports min/max of ||coeff||_seq / ||f||_func with dual-frame analysis,
    the same with the frame roles interchanged and the worst reconstruction
    residual, over the samples: the functions with a nonzero norm.
    """
    space = spec.space
    hier = frame.hierarchy
    F = spec.project_mean_zero(np.asarray(battery, dtype=float).T)
    fn = function_norm(F, params, spec, phi, b, window)
    live = fn > 0
    F, fn = F[:, live], fn[live]
    c1 = dual.analyze(F)
    r1 = seq_norm(c1, params, hier) / fn
    r2 = seq_norm(frame.analyze(F), params, hier) / fn
    resid = space.norm2(frame.synthesize(c1) - F) / space.norm2(F)
    return {
        "ratio_band": (r1.min(initial=np.inf), r1.max(initial=0.0)),
        "ratio_band_swapped": (r2.min(initial=np.inf), r2.max(initial=0.0)),
        "reconstruction_residual": resid.max(initial=0.0),
        "samples": int(live.sum()),
    }


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
