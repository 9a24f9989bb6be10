"""Finite metric-measure models, doubling geometry, nets and partitions.

A model is a finite point set with a distance table, per-point measure
weights and a symmetric PSD operator that kills constants.  All geometric
quantities (balls, doubling constants, nets, partitions) are computed
exhaustively; the counting and summation inequalities are checked with the
measured constants, never assumed.
"""

import math
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelSpace:
    """Finite metric-measure space with a compatible operator.

    Attributes:
        name: human-readable model tag, e.g. "C_64".
        dist: (n, n) symmetric distance table, zero diagonal.
        mu: (n,) positive point weights.
        L: (n, n) operator table, symmetric in the mu-inner product,
           positive semidefinite, annihilating constants.
    """

    name: str
    dist: np.ndarray
    mu: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        _validate_model(self)
        # exactly symmetric, which addiag.lemma64_grid relies on; bit for
        # bit a no-op on a table that already is
        object.__setattr__(self, "dist", (self.dist + self.dist.T) / 2)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def norm2(self, f):
        return self.lp_norm(f, 2.0)

    def lp_norm(self, f, p):
        """L^p norm against mu along axis 0; p = inf gives the sup norm.

        A vector gives a float and an (n, k) table gives k norms.  Each
        column is summed as one contiguous row, so a table's norms equal
        its columns' norms bit for bit.
        """
        a = np.abs(np.asarray(f, dtype=float))
        rows = np.ascontiguousarray(a.reshape(a.shape[0], -1).T)
        if np.isinf(p):
            out = rows.max(axis=1, initial=0.0)
        else:
            out = np.sum(rows**p * self.mu, axis=1) ** (1.0 / p)
        return float(out[0]) if a.ndim == 1 else out


def _validate_model(space: ModelSpace) -> None:
    d, mu, L = space.dist, space.mu, space.L
    n = d.shape[0]
    if d.shape != (n, n) or L.shape != (n, n) or mu.shape != (n,):
        raise ValueError("inconsistent table shapes")
    if np.any(mu <= 0):
        raise ValueError("measure weights must be positive")
    if not np.allclose(d, d.T):
        raise ValueError("distance table must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("distance diagonal must be zero")
    off = d + np.eye(n) * (d.max() + 1.0)
    if np.any(off <= 0):
        raise ValueError("distinct points must have positive distance")
    if not np.isfinite(d).all():
        raise ValueError("disconnected model: infinite distances")
    # triangle inequality, exhaustive, in one min-plus pass in two buffers:
    # low = min_k fl(d[:, k] + d[k, :]); rounding is monotone, so d >
    # fl(low + 1e-12) just where d > fl(fl(d[:, k] + d[k, :]) + 1e-12) at a k
    low, step = off, np.empty_like(d)
    np.add(d[:, 0, None], d[None, 0, :], out=low)
    for k in range(1, n):
        np.add(d[:, k, None], d[None, k, :], out=step)
        np.minimum(low, step, out=low)
    low += 1e-12
    if np.any(d > low):
        raise ValueError("triangle inequality violated")
    del low, step, off
    # symmetry of L w.r.t. mu:  diag(mu) L must be symmetric
    ML = mu[:, None] * L
    if not np.allclose(ML, ML.T, atol=1e-10 * max(1.0, np.abs(ML).max())):
        raise ValueError("L is not symmetric in the mu-inner product")
    if np.abs(L @ np.ones(n)).max() > 1e-10 * max(1.0, np.abs(L).max()):
        raise ValueError("L does not annihilate constants")
    # PSD in the mu-inner product via the symmetrized form
    s = np.sqrt(mu)
    H = s[:, None] * L / s[None, :]
    w = np.linalg.eigvalsh((H + H.T) / 2)
    if w.min() < -1e-9 * max(1.0, w.max()):
        raise ValueError("L is not positive semidefinite")


def _graph_model(name, n, edges, mu=None, l_scale=1.0):
    """Assemble a ModelSpace from a weighted undirected edge list.

    Edge weights act as lengths for the distance and as conductances for
    the operator; parallel edges give the shortest length and the summed
    conductance.  The operator is L = M^{-1}(D - W) * l_scale, with W the
    conductances, D their row sums and M = diag(mu): it is symmetric in
    the mu-inner product and kills constants.
    """
    dist = np.full((n, n), np.inf)  # inf: no edge
    np.fill_diagonal(dist, 0.0)
    L = np.zeros((n, n))  # the conductances W, made into L in place below
    for u, v, w in edges:
        dist[u, v] = dist[v, u] = min(dist[u, v], w)
        L[u, v] += w
        L[v, u] += w
    # Floyd-Warshall: after step k, dist holds the shortest paths whose
    # inner points are all at most k
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    mu = np.ones(n) if mu is None else np.asarray(mu, dtype=float)
    # L = (diag(W 1) - W) * l_scale / mu with no n x n temporary; 0 - W
    # keeps the zeros +0.0, as diag(W 1) - W does
    degree = L.sum(axis=1)
    np.subtract(0.0, L, out=L)
    L[np.diag_indices(n)] += degree
    L *= l_scale
    L /= mu[:, None]
    return ModelSpace(name=name, dist=dist, mu=mu, L=L)


def _is_number(v):
    """A finite JSON number; true and false are not numbers here."""
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or isinstance(v, float) and math.isfinite(v)


def _is_count(v, least):
    return _is_number(v) and v == int(v) and v >= least


# the model names parse_model reads; an object describes a custom model
MODEL_NAME = re.compile(r"([CP])_([1-9]\d*)|T_([1-9]\d*)(?:x([1-9]\d*))?")


def parse_model(desc):
    """Check a model description; return (name, n, edges, mu, l_scale).

    desc is a name C_<n>, P_<n>, T_<a> or T_<a>x<b> (T_a is T_axa), or an
    object with keys kind (cycle | path | torus | tree), n (a torus takes
    nx, or n, and an optional ny), optional mu and l_scale and, for trees,
    edges: n - 1 lists [u, v, w].  Builds nothing.  Raises ValueError
    unless the keys and types are these, the edges connect the n points
    and some two points share no edge (hop diameter >= 2): below that the
    measured doubling dimension d is 0 and the norms divide by it.
    """
    if isinstance(desc, str) and (match := MODEL_NAME.fullmatch(desc)):
        cp, n, a, b = match.groups()
        obj = {"kind": {"C": "cycle", "P": "path"}[cp], "n": int(n)} if cp \
            else {"kind": "torus", "nx": int(a), "ny": int(b or a)}
    elif isinstance(desc, dict):
        obj = desc
    else:
        raise ValueError("model must be a name like C_64, P_10, T_8 or "
                         f"T_8x4, or an object, got {desc!r}")
    kind = obj.get("kind")
    if kind not in ("cycle", "path", "torus", "tree"):
        raise ValueError('model.kind must be "cycle", "path", "torus" or '
                         f'"tree", got {kind!r}')
    size_keys = ["nx" if "nx" in obj else "n", "ny"] if kind == "torus" \
        else ["n"]
    unknown = sorted(set(obj) - set(size_keys) - {"kind", "mu", "l_scale"}
                     - ({"edges"} if kind == "tree" else set()))
    if unknown:
        raise ValueError(f"unknown keys of a {kind} model: {unknown}")
    # a torus without ny is square
    sizes = [obj.get(k, obj.get(size_keys[0])) for k in size_keys]
    for k, v in zip(size_keys, sizes):
        if not _is_count(v, 1):
            raise ValueError(f"model.{k} must be a positive integer, got {v!r}")
    sizes = [int(v) for v in sizes]
    n = math.prod(sizes)
    edges = obj.get("edges")
    if kind == "tree" and not (
            isinstance(edges, list) and len(edges) == n - 1 and all(
                isinstance(e, list) and len(e) == 3 and _is_number(e[2])
                and e[2] > 0 and all(_is_count(u, 0) and u < n for u in e[:2])
                for e in edges)):
        raise ValueError(f"model.edges must be n - 1 = {n - 1} lists "
                         "[u, v, w] with 0 <= u, v < n and w > 0")
    mu, scale = obj.get("mu"), obj.get("l_scale", 1.0)
    if "mu" in obj and not (isinstance(mu, list) and len(mu) == n and all(
            _is_number(x) and x > 0 for x in mu)):
        raise ValueError(f"model.mu must be a list of {n} positive numbers")
    if not (_is_number(scale) and scale > 0):
        raise ValueError("model.l_scale must be a positive number")
    if kind == "cycle":
        name, edges = f"C_{n}", [(i, (i + 1) % n, 1.0) for i in range(n)]
    elif kind == "path":
        name, edges = f"P_{n}", [(i, i + 1, 1.0) for i in range(n - 1)]
    elif kind == "torus":
        nx, ny = sizes
        name = f"T_{nx}x{ny}"
        edges = [(i * ny + j, k, 1.0) for i in range(nx) for j in range(ny)
                 for k in ((i + 1) % nx * ny + j, i * ny + (j + 1) % ny)]
    else:
        name, edges = f"tree_{n}", [(int(u), int(v), w) for u, v, w in edges]
    # union-find over the edges: one root means the points are connected
    root = list(range(n))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for u, v, _ in edges:
        root[find(u)] = find(v)
    if len({find(u) for u in range(n)}) > 1:
        raise ValueError(f"model edges must connect all {n} points, "
                         f"got {desc!r}")
    if len({(min(u, v), max(u, v)) for u, v, _ in edges if u != v}) \
            == n * (n - 1) // 2:
        raise ValueError(
            "a model needs diameter >= 2 (n//2 for C_n and cycles, n-1 for "
            "P_n and paths, a//2 + b//2 for T_axb and tori, n >= 3 for "
            f"trees), got {desc!r} of diameter {min(n - 1, 1)}")
    return name, n, edges, mu, float(scale)


def build_model(desc) -> ModelSpace:
    """Build the model that parse_model reads from desc; ValueError, with
    parse_model's message, when it rejects desc."""
    return _graph_model(*parse_model(desc))


# ---------------------------------------------------------------------------
# balls and doubling


def ball_volumes(space: ModelSpace, r) -> np.ndarray:
    """Vector of |B(x, r)| for every x (open balls)."""
    inside = space.dist < r
    return inside @ space.mu


def _distinct(values) -> np.ndarray:
    """The sorted distinct entries of a table of finite values: np.unique's
    values, without the numpy.ma import that np.unique makes."""
    v = np.sort(values, axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _sorted_rows(space: ModelSpace):
    """Every point's distance row sorted once, ties in index order: returns
    (order, rows, vols) with rows[x] = dist[x, order[x]] and vols[x] the
    cumulative mu along it, so |B(x, r)| is vols[x] at the last entry of
    rows[x] below r."""
    order = np.argsort(space.dist, axis=1, kind="stable")
    return (order, np.take_along_axis(space.dist, order, axis=1),
            np.cumsum(space.mu[order], axis=1))


@dataclass(frozen=True)
class DoublingProfile:
    c0: float
    d: float
    c2: float
    dstar: float
    ahlfors_band: float  # max |B(x, r)| / r^d over min, over x and r
    truncated: bool = False  # some radii skipped because 2r > diameter


def measure_doubling(space: ModelSpace) -> DoublingProfile:
    """Measure doubling and reverse-doubling constants exhaustively, and
    the Ahlfors band of the two-sided power bound |B(x, r)| ~ r^d.

    Scans every point and every distinct positive distance value (plus the
    half values, where open balls change).  Radii with 2r beyond the
    diameter are excluded and flagged as truncation.  The same sweep of the
    rows of _sorted_rows queries every distinct distance r as r(1 + 1e-12),
    a closed ball: the band is max |B(x, r)| / r^d over min, over all x and
    r, at the measured d.
    """
    diam = space.diameter
    vals = _distinct(space.dist[space.dist > 0])
    radii = _distinct(np.concatenate([vals, vals / 2.0]))
    truncated = bool(np.any(2 * radii > diam))
    radii = radii[2 * radii <= diam]
    if radii.size == 0:
        raise ValueError("no admissible radii")
    _, rows, vols = _sorted_rows(space)
    c0, c2, k = 1.0, np.inf, radii.size
    query = np.concatenate([radii, 2 * radii, vals * (1 + 1e-12)])
    big, small = np.zeros(vals.size), np.full(vals.size, np.inf)
    for row, vol in zip(rows, vols):
        # the last entry below each query; rho(x, x) = 0 < r
        v = vol[np.searchsorted(row, query) - 1]
        ratios = v[k:2 * k] / v[:k]
        c0, c2 = max(c0, float(ratios.max())), min(c2, float(ratios.min()))
        np.maximum(big, v[2 * k:], out=big)
        np.minimum(small, v[2 * k:], out=small)
    d = float(np.log2(c0))
    power = vals ** d
    band = float((big / power).max() / (small / power).min())
    return DoublingProfile(c0=c0, d=d, c2=c2, dstar=float(np.log2(c2)),
                           ahlfors_band=band, truncated=truncated)


# ---------------------------------------------------------------------------
# maximal nets and partitions


def build_maximal_net(space: ModelSpace, delta: float) -> np.ndarray:
    """Greedy maximal delta-net: insert points in index order whenever
    they are >= delta away from every already-chosen center."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    centers = []
    free = np.ones(space.n, dtype=bool)  # >= delta from every center so far
    for x in range(space.n):
        if free[x]:
            centers.append(x)
            free &= space.dist[x] >= delta
    return np.array(centers, dtype=int)


def build_partition(space: ModelSpace, centers, delta: float) -> np.ndarray:
    """Nearest-center assignment with lowest-index tie-break.

    Returns owner[x] = index into `centers`.  Asserts the sandwich
    B(xi, delta/2) subset A_xi subset B(xi, delta).
    """
    centers = np.asarray(centers, dtype=int)
    D = space.dist[:, centers]
    owner = np.argmin(D, axis=1)  # argmin takes the first (lowest) minimizer
    _check_sandwich(D, owner, delta)
    return owner


def _check_sandwich(D, owner, delta) -> None:
    """Raise unless B(xi, delta/2) subset A_xi subset B(xi, delta) for every
    centre, given D[x, k] = rho(x, xi_k) and A_xi = {x: owner[x] = k}: each
    point lies within delta of its own centre and delta/2 of no other."""
    own = (np.arange(len(owner)), owner)
    if D[own].max() >= delta:
        raise AssertionError("partition cell escapes B(xi, delta); "
                             "net is not maximal for this delta")
    inner = D < delta / 2.0
    inner[own] = False
    if inner.any():
        raise AssertionError("B(xi, delta/2) not contained in A_xi")


@dataclass(frozen=True)
class Net:
    """Level net with its partition and derived volume tables."""

    level: int
    delta: float
    centers: np.ndarray  # point indices of the centers
    owner: np.ndarray    # owner[x] = position of the owning center
    ell: float           # b^{-level}
    a_vol: np.ndarray    # |A_xi| per center
    b_vol: np.ndarray    # |B(xi, delta)| per center
    s_vol: np.ndarray    # |B(xi, ell)| per center, the level-scale ball

    @property
    def size(self) -> int:
        return len(self.centers)


def build_net(space: ModelSpace, level: int, b: float, gamma: float) -> Net:
    delta = gamma * b ** (-level - 2)
    ell = b ** (-level)
    centers = build_maximal_net(space, delta)
    owner = build_partition(space, centers, delta)
    a_vol = np.array([space.mu[owner == k].sum() for k in range(len(centers))])
    return Net(level=level, delta=delta, centers=centers, owner=owner,
               ell=ell, a_vol=a_vol, b_vol=ball_volumes(space, delta)[centers],
               s_vol=ball_volumes(space, ell)[centers])


@dataclass(frozen=True)
class NetHierarchy:
    """Ordered family of level nets sharing one base and density constant.

    The flat index enumerates every center, level by level; frames,
    coefficient sequences and net matrices all index against it.  The flat
    arrays (xi_*) and blocks, the slice of the flat index on each level,
    are derived from the nets.
    """

    space: ModelSpace
    b: float
    gamma: float
    mode: str  # "homogeneous" | "inhomogeneous"
    levels: tuple  # of Net, one per level j_min, j_min + 1, ..., j_max

    def __post_init__(self):
        if [net.level for net in self.levels] != list(
                range(self.j_min, self.j_min + len(self.levels))):
            raise ValueError("levels must be consecutive and ascending")
        sizes = [net.size for net in self.levels]
        ends = np.cumsum([0] + sizes).tolist()
        derived = {
            "blocks": tuple(map(slice, ends[:-1], ends[1:])),
            "xi_level": np.repeat([net.level for net in self.levels], sizes),
            "xi_point": np.concatenate([net.centers for net in self.levels]),
            "xi_ell": np.repeat([float(net.ell) for net in self.levels],
                                sizes),
            "xi_avol": np.concatenate([net.a_vol for net in self.levels]),
            "xi_bvol": np.concatenate([net.b_vol for net in self.levels]),
            "xi_svol": np.concatenate([net.s_vol for net in self.levels]),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def j_min(self) -> int:
        return self.levels[0].level

    @property
    def j_max(self) -> int:
        return self.levels[-1].level

    @property
    def size(self) -> int:
        return len(self.xi_level)

    def _offset(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise KeyError(f"level {j} not in hierarchy")
        return j - self.j_min

    def net(self, j: int) -> Net:
        return self.levels[self._offset(j)]


def build_hierarchy(space: ModelSpace, b: float, gamma: float,
                    j_min: int, j_max: int, mode="homogeneous") -> NetHierarchy:
    if mode not in ("homogeneous", "inhomogeneous"):
        raise ValueError("mode must be homogeneous or inhomogeneous")
    if mode == "inhomogeneous":
        j_min = max(j_min, 0)
    if j_min > j_max:
        raise ValueError(f"empty level window [{j_min}, {j_max}]")
    return NetHierarchy(
        space=space, b=b, gamma=gamma, mode=mode,
        levels=tuple(build_net(space, j, b, gamma)
                     for j in range(j_min, j_max + 1)))


# ---------------------------------------------------------------------------
# geometric lemma checks


def check_net_count(space: ModelSpace, net_centers, delta, delta_star,
                    profile: DoublingProfile) -> float:
    """Counting bound: #(net ∩ B(x, delta*)) <= c0 * 6^d * (delta*/delta)^d
    for every x, with measured (c0, d).  Returns left side over right side;
    the bound holds when it is at most 1."""
    if delta > delta_star:
        raise ValueError("requires delta <= delta_star")
    centers = np.asarray(net_centers, dtype=int)
    counts = (space.dist[:, centers] < delta_star).sum(axis=1)
    lhs = int(counts.max())
    rhs = profile.c0 * 6.0**profile.d * (delta_star / delta) ** profile.d
    return lhs / rhs


def _geom_series_const(c0, d, sigma):
    # explicit admissible constant for the one-sided net sum bound
    if sigma <= d:
        raise ValueError("requires sigma > d")
    return c0 * 6.0**d * 2.0**sigma / (1.0 - 2.0 ** (d - sigma))


def check_discrete_sum(space: ModelSpace, net_centers, sigma,
                       delta, delta1, delta2,
                       profile: DoublingProfile) -> float:
    """Net summation bounds with explicit constants; returns the worst left
    side over right side of both forms, which hold when it is at most 1.

    One-sided form: sum over centers of (1 + rho(x,xi)/delta*)^{-sigma}
    <= C_L * (delta*/delta)^d with C_L = c0*6^d*2^sigma/(1-2^(d-sigma)),
    exhaustive in x (delta* = delta1).

    Two-sided form: for every (x, y),
      sum_xi [(1+rho(x,xi)/delta1)^sigma (1+rho(y,xi)/delta2)^sigma]^{-1}
      <= c * (delta1/delta)^d / (1+rho(x,y)/delta2)^sigma
    with c = 2^(2*sigma+1) * C_L.
    """
    if sigma <= profile.d:
        raise ValueError("hypothesis sigma > d violated")
    if not (delta <= delta1 <= delta2):
        raise ValueError("requires delta <= delta1 <= delta2")
    centers = np.asarray(net_centers, dtype=int)
    CL = _geom_series_const(profile.c0, profile.d, sigma)
    d = profile.d

    wx = (1.0 + space.dist[:, centers] / delta1) ** (-sigma)   # (n, m)
    wy = (1.0 + space.dist[:, centers] / delta2) ** (-sigma)   # (n, m)

    # one-sided, delta* = delta1
    ratio_one = wx.sum(axis=1).max() / (CL * (delta1 / delta) ** d)

    # two-sided, exhaustive double loop in vectorized form
    lhs = wx @ wy.T                                            # (n, n)
    c2s = 2.0 ** (2 * sigma + 1) * CL
    rhs = c2s * (delta1 / delta) ** d / (1.0 + space.dist / delta2) ** sigma
    ratio_two = (lhs / rhs).max()

    return float(np.maximum(ratio_one, ratio_two))  # a NaN ratio is kept


def check_peetre_integrals(space: ModelSpace, sigma1, sigma2,
                           delta1, delta2,
                           profile: DoublingProfile) -> float:
    """Weighted-sum bounds against ball volumes, with explicit constants;
    returns the worst left side over right side of both forms, which hold
    when it is at most 1.

    Single-center form: sum_u (1+rho(x,u)/delta)^{-sigma} mu(u)
      <= c28(sigma) * |B(x,delta)|,  c28 = 1 + c0*2^sigma*2^(d-sigma)/(1-2^(d-sigma)).
    Two-center form: I(x,y) = sum_u (1+rho(x,u)/delta1)^{-sigma1}
      (1+rho(y,u)/delta2)^{-sigma2} mu(u)
      <= c * [ |B(x,delta1)| / (1+rho(x,y)/delta2)^{sigma2}
             + |B(y,delta2)| / (1+rho(x,y)/delta1)^{sigma1} ]
    with c = 2^{max(sigma1,sigma2)} * max(c28(sigma1), c28(sigma2)).
    """
    d = profile.d
    if sigma1 <= d or sigma2 <= d:
        raise ValueError("hypothesis sigma > d violated")

    def c28(sig):
        return 1.0 + profile.c0 * 2.0**sig * 2.0 ** (d - sig) / (1.0 - 2.0 ** (d - sig))

    w1 = (1.0 + space.dist / delta1) ** (-sigma1)
    w2 = (1.0 + space.dist / delta2) ** (-sigma2)
    vx = ball_volumes(space, delta1)
    vy = ball_volumes(space, delta2)

    # single-center form at both (sigma1, delta1) and (sigma2, delta2)
    ratios = [(w @ space.mu / (c28(sig) * v)).max()
              for w, sig, v in ((w1, sigma1, vx), (w2, sigma2, vy))]

    I = (w1 * space.mu[None, :]) @ w2.T    # I[x, y]
    c = 2.0 ** max(sigma1, sigma2) * max(c28(sigma1), c28(sigma2))
    rhs = c * (vx[:, None] / (1.0 + space.dist / delta2) ** sigma2
               + vy[None, :] / (1.0 + space.dist / delta1) ** sigma1)
    ratios.append((I / rhs).max())
    return float(np.max(ratios))  # a NaN ratio is kept


def verify_net_invariants(space: ModelSpace, net: Net) -> None:
    """Brute-force separation, maximality and sandwich checks; raises on
    any violation."""
    c = net.centers
    D = space.dist[np.ix_(c, c)]
    m = len(c)
    off = D + np.eye(m) * (2 * net.delta)
    if off.min() < net.delta:
        raise AssertionError("net separation violated")
    if space.dist[:, c].min(axis=1).max() >= net.delta:
        raise AssertionError("net maximality violated")
    # partition: disjoint cover is structural (owner is a function)
    _check_sandwich(space.dist[:, c], net.owner, net.delta)
