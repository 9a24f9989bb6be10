"""Function-space and sequence-space norms, the maximal operator, and the
frame-characterization measurements.

Norms follow the homogeneous multiscale recipe: a band symbol phi scaled to
level j picks out the piece of f near frequency b^j; classical norms weight
levels by b^{js}, tilde norms weight points by ball-volume powers.  All
level sums run over a finite window recorded in the report.
"""

from dataclasses import dataclass

import numpy as np

from mmframes.space import ModelSpace, NetHierarchy, _sorted_rows, ball_volumes
from mmframes.calculus import SpectralData, level_window, make_cutoff


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


# the four spaces, as (report key, family, flavor)
FLAVOURS = (("b", "besov", "classical"), ("b~", "besov", "tilde"),
            ("f", "triebel_lizorkin", "classical"),
            ("f~", "triebel_lizorkin", "tilde"))


def _lq(values, q, axis=0):
    """(sum |v|^q)^{1/q} along an axis, sup for q = inf."""
    a = np.abs(values)
    if np.isinf(q):
        return a.max(axis=axis)
    return (a**q).sum(axis=axis) ** (1.0 / q)


# ---------------------------------------------------------------------------
# function-space norms


def _level_pieces(f, params: SpaceParams, spec: SpectralData, phi, b):
    """|phi(b^{-j} sqrt(L)) f| for j across level_window and every column of
    f, one (n,) function or an (n, k) table, as an (L, k, n) table,
    weighted by b^{js} (classical) or |B(x, b^{-j})|^{-s/d} (tilde); f is
    projected mean-zero first.  b = None is phi's own base phi.b."""
    b = phi.b if b is None else b
    j_min, j_max = level_window(spec, b)
    levels = range(j_min, j_max + 1)
    vals = spec.symbol(phi, np.array([b ** (-j) for j in levels]))
    vals[: spec.nullspace_dim] = 0.0
    F = np.asarray(f, dtype=float).reshape(spec.space.n, -1)
    pieces = np.abs(spec.apply(vals, F).transpose(1, 2, 0), order="C")
    if params.s == 0:
        return pieces  # every level weight is exactly 1
    for slab, j in zip(pieces, levels):
        if params.flavor == "classical":
            slab *= b ** (j * params.s)
        else:
            slab *= ball_volumes(spec.space, b ** (-j)) ** (-params.s / params.d)
    return pieces


def _one_or_many(out, x):
    """out, one value per column of x, as a float when x is one vector."""
    return float(out[0]) if np.ndim(x) == 1 else out


def besov_norm(f, params: SpaceParams, spec: SpectralData, phi, b=None):
    pieces = _level_pieces(f, params, spec, phi, b)
    L, k, n = pieces.shape
    terms = spec.space.lp_norm(pieces.reshape(L * k, n).T, params.p)
    terms = np.ascontiguousarray(terms.reshape(L, k).T)
    return _one_or_many(_lq(terms, params.q, axis=1), f)


def tl_norm(f, params: SpaceParams, spec: SpectralData, phi, b=None):
    if np.isinf(params.p):
        raise ValueError("p must be finite for the TL norm")
    pieces = _level_pieces(f, params, spec, phi, b)
    inner = _lq(pieces, params.q, axis=0)
    return _one_or_many(spec.space.lp_norm(inner.T, params.p), f)


def function_norm(f, params: SpaceParams, spec: SpectralData, phi, b=None):
    """Norm of f in the function space of params: one (n,) function gives a
    float, an (n, k) table gives k norms, one per column; b = None is phi.b."""
    if params.family == "besov":
        return besov_norm(f, params, spec, phi, b)
    return tl_norm(f, params, spec, phi, b)


def frame_norm(f, params: SpaceParams, frame):
    """function_norm of f with the band the frame's hierarchy is cut by:
    phi = make_cutoff("b", b) at the hierarchy's base b."""
    return function_norm(f, params, frame.spec,
                         make_cutoff("b", frame.hierarchy.b))


# ---------------------------------------------------------------------------
# sequence-space norms


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
        classical = params.flavor == "classical"
        expo = (0.0 if classical else -s / params.d) + \
            (1.0 / p if not np.isinf(p) else 0.0) - 0.5
        terms = np.empty((len(rows), len(hier.levels)))
        for term, net, sl in zip(terms.T, hier.levels, hier.blocks):
            inner = _lq(hier.xi_svol[sl] ** expo * rows[:, sl], p, axis=1)
            term[:] = hier.b ** (net.level * s) * inner if classical else inner
        return _one_or_many(_lq(terms, q, axis=1), a)
    # TL family: pointwise level stack through the partition indicators,
    # |a_xi| * normalized indicator height times the level weight
    av = hier.xi_avol
    if params.flavor == "classical":
        weight = float(hier.b) ** (hier.xi_level * s)
    else:
        weight = av ** (-s / params.d)
    owners = np.array([sl.start + net.owner
                       for net, sl in zip(hier.levels, hier.blocks)])
    stack = (weight * (rows * av ** (-0.5)))[:, owners]
    return _one_or_many(hier.space.lp_norm(_lq(stack, q, axis=1).T, p), a)


# ---------------------------------------------------------------------------
# maximal operator


def maximal_Mt(f, t: float, space: ModelSpace) -> np.ndarray:
    """M_t f(x) = sup over balls containing x of (avg_mu |f|^t)^{1/t}, for
    a function or for each row of a (k, n) table, computed exactly by
    prefix enumeration of the distance rows, sorted once by _sorted_rows."""
    if t <= 0:
        raise ValueError("t must be positive")
    g = np.abs(np.asarray(f, dtype=float)) ** t
    rows = g.reshape(-1, space.n)
    out = np.zeros_like(rows)
    for order, dz, vol in zip(*_sorted_rows(space)):
        avg = np.cumsum(rows[:, order] * space.mu[order], axis=-1) / vol
        # only prefixes ending strictly before the next distance value are
        # genuine balls (ties cannot be split by a radius)
        valid = np.empty(space.n, dtype=bool)
        valid[:-1] = dz[:-1] < dz[1:]
        valid[-1] = True
        avg = np.where(valid, avg, -np.inf)
        # max over balls from here out
        best = np.maximum.accumulate(avg[:, ::-1], axis=-1)[:, ::-1]
        out[:, order] = np.maximum(out[:, order], best ** (1.0 / t))
    return out.reshape(g.shape)


def fs_maximal_probe(family, p, q, t, space: ModelSpace) -> dict:
    """Vector-valued maximal ratio: ||(sum_nu (M_t f_nu)^q)^{1/q}||_p over
    ||(sum_nu |f_nu|^q)^{1/q}||_p."""
    if not (0 < t < min(p, q)):
        raise ValueError("need 0 < t < min(p, q)")
    fam = np.asarray(family, dtype=float)
    rhs = space.lp_norm(_lq(fam, q, axis=0), p)
    if rhs == 0:
        return {"ratio": 0.0}
    mfam = maximal_Mt(fam, t, space)
    lhs = space.lp_norm(_lq(mfam, q, axis=0), p)
    return {"ratio": float(lhs / rhs)}


# ---------------------------------------------------------------------------
# Hardy-type window sums


def hardy_check(a, gamma: float, q: float, b: float = 2.0) -> dict:
    """Both window forms of the discrete Hardy inequality, for a sequence
    or a (k, m) table of sequences, one per row.

    down: (sum_j (sum_{m>=j} b^{-(m-j)gamma} a_m)^q)^{1/q} <= c ||a||_q
    up:   (sum_j (sum_{m<=j} b^{-(j-m)gamma} a_m)^q)^{1/q} <= c ||a||_q
    Returns the two measured ratios, one per row (floats for a sequence);
    a zero sequence reads 0.  The window sums add one offset m - j at a
    time, entrywise, so a row's ratios do not depend on the rows beside it
    and no k x m x m table is formed.
    """
    if gamma <= 0 or q <= 0:
        raise ValueError("need gamma > 0, q > 0")
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("sequence must be nonnegative")
    A = np.atleast_2d(a)
    m = A.shape[1]
    down, up = np.zeros_like(A), np.zeros_like(A)
    for off, w in enumerate(b ** (-gamma * np.arange(m))):  # off = |m - j|
        down[:, :m - off] += w * A[:, off:]
        up[:, off:] += w * A[:, :m - off]
    rhs = _lq(A, q, axis=1)
    out = {key: np.divide(_lq(sums, q, axis=1), rhs, out=np.zeros_like(rhs),
                          where=rhs > 0)
           for key, sums in (("down", down), ("up", up))}
    if a.ndim == 1:
        return {key: float(v[0]) for key, v in out.items()}
    return out


# ---------------------------------------------------------------------------
# frame characterization


def check_frame_characterization(battery, params: SpaceParams, frame,
                                 dual) -> dict:
    """Measured equivalence of coefficient and function norms over a battery
    (one function per row), taken on one table; the hierarchy and spectrum
    are the frame's, and so is the band of the function norm (frame_norm).

    Reports min/max of ||coeff||_seq / ||f||_func with dual-frame analysis
    and the worst reconstruction residual, over the samples: the functions
    with a nonzero norm.
    """
    spec, hier = frame.spec, frame.hierarchy
    space = spec.space
    F = spec.project_mean_zero(np.asarray(battery, dtype=float).T)
    fn = frame_norm(F, params, frame)
    live = fn > 0
    F, fn = F[:, live], fn[live]
    c1 = dual.analyze(F)
    r1 = seq_norm(c1, params, hier) / fn
    resid = space.norm2(frame.synthesize(c1) - F) / space.norm2(F)
    return {
        "ratio_band": (r1.min(initial=np.inf), r1.max(initial=0.0)),
        "reconstruction_residual": resid.max(initial=0.0),
        "samples": int(live.sum()),
    }


def random_battery(spec: SpectralData, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic battery of count mean-zero test functions, one per row:
    white noise scaled by mu^{-1/2}, projected mean-zero.  sqrt(mu) E is
    orthonormal, so the spectral coefficients are white for any mu, and the
    battery does not depend on the choice of eigenbasis."""
    space = spec.space
    G = np.random.default_rng(seed).standard_normal((count, space.n))
    return spec.project_mean_zero((G / np.sqrt(space.mu)).T).T
