"""Finite metric-measure models, doubling geometry, nets and partitions.

A model is a finite point set with a distance table, per-point measure
weights and a symmetric PSD operator that kills constants.  All geometric
quantities (balls, doubling constants, nets, partitions) are computed
exhaustively; the counting and summation inequalities are checked with the
measured constants, never assumed.
"""

from dataclasses import dataclass, field

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

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def total_mass(self) -> float:
        return float(self.mu.sum())

    def inner(self, f, g):
        """mu-weighted inner product <f, g>."""
        return float(np.sum(np.conj(f) * g * self.mu).real)

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
    # triangle inequality, exhaustive (n <= a few hundred at desk scale)
    for k in range(n):
        if np.any(d > d[:, [k]] + d[[k], :] + 1e-12):
            raise ValueError("triangle inequality violated")
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
    the operator; for the bundled unit-weight graphs the two conventions
    coincide.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    rows, cols, wts = [], [], []
    for u, v, w in edges:
        rows += [u, v]
        cols += [v, u]
        wts += [w, w]
    adj = csr_matrix((wts, (rows, cols)), shape=(n, n))
    dist = shortest_path(adj, method="D", directed=False)
    if not np.isfinite(dist).all():
        raise ValueError("disconnected graph rejected")
    W = np.zeros((n, n))
    for u, v, w in edges:
        W[u, v] += w
        W[v, u] += w
    L = (np.diag(W.sum(axis=1)) - W) * l_scale
    if mu is None:
        mu = np.ones(n)
    return ModelSpace(name=name, dist=np.asarray(dist, dtype=float),
                      mu=np.asarray(mu, dtype=float), L=L)


def cycle(n, mu=None, l_scale=1.0) -> ModelSpace:
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return _graph_model(f"C_{n}", n, edges, mu=mu, l_scale=l_scale)


def path(n, mu=None, l_scale=1.0) -> ModelSpace:
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    return _graph_model(f"P_{n}", n, edges, mu=mu, l_scale=l_scale)


def grid_torus(nx, ny=None, mu=None, l_scale=1.0) -> ModelSpace:
    if ny is None:
        ny = nx
    n = nx * ny

    def idx(i, j):
        return (i % nx) * ny + (j % ny)

    edges = []
    for i in range(nx):
        for j in range(ny):
            edges.append((idx(i, j), idx(i + 1, j), 1.0))
            edges.append((idx(i, j), idx(i, j + 1), 1.0))
    return _graph_model(f"T_{nx}x{ny}", n, edges, mu=mu, l_scale=l_scale)


def weighted_tree(n, edges, mu=None, l_scale=1.0) -> ModelSpace:
    """Tree from an explicit weighted edge list [(u, v, w), ...]."""
    if len(edges) != n - 1:
        raise ValueError("a tree on n points needs exactly n-1 edges")
    return _graph_model(f"tree_{n}", n, list(edges), mu=mu, l_scale=l_scale)


def build_model(spec) -> ModelSpace:
    """Build a bundled model from a description.

    Accepts either a name string ("C_64", "P_10", "T_8x8") or a dict with
    keys kind (cycle | path | torus | tree), n (or nx/ny), optional mu,
    l_scale and, for trees, edges.
    """
    if isinstance(spec, str):
        kind, _, size = spec.partition("_")
        if kind == "C":
            return cycle(int(size))
        if kind == "P":
            return path(int(size))
        if kind == "T":
            a, _, b = size.partition("x")
            return grid_torus(int(a), int(b) if b else None)
        raise ValueError(f"unknown model name {spec!r}")
    kind = spec["kind"]
    mu = np.asarray(spec["mu"], dtype=float) if "mu" in spec else None
    scale = float(spec.get("l_scale", 1.0))
    if kind == "cycle":
        return cycle(int(spec["n"]), mu=mu, l_scale=scale)
    if kind == "path":
        return path(int(spec["n"]), mu=mu, l_scale=scale)
    if kind == "torus":
        return grid_torus(int(spec.get("nx", spec.get("n"))),
                          int(spec["ny"]) if "ny" in spec else None,
                          mu=mu, l_scale=scale)
    if kind == "tree":
        return weighted_tree(int(spec["n"]), spec["edges"], mu=mu, l_scale=scale)
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# balls and doubling


def ball(space: ModelSpace, x: int, r: float):
    """Open ball: indices {y : dist(x,y) < r} and their mu-volume."""
    if r <= 0:
        raise ValueError("radius must be positive")
    members = np.nonzero(space.dist[x] < r)[0]
    return members, float(space.mu[members].sum())


def ball_volumes(space: ModelSpace, r) -> np.ndarray:
    """Vector of |B(x, r)| for every x (open balls)."""
    inside = space.dist < r
    return inside @ space.mu


@dataclass(frozen=True)
class DoublingProfile:
    c0: float
    d: float
    c2: float
    dstar: float
    radius_range: tuple
    truncated: bool = False  # some radii skipped because 2r > diameter


def measure_doubling(space: ModelSpace, radius_range=None) -> DoublingProfile:
    """Measure doubling and reverse-doubling constants exhaustively.

    Scans every point and every distinct positive distance value (plus the
    half values, where open balls change) inside radius_range.  Radii with
    2r beyond the diameter are excluded and flagged as truncation.
    """
    diam = space.diameter
    if radius_range is None:
        radius_range = (0.0, diam)
    lo, hi = radius_range
    if not (0 <= lo < hi):
        raise ValueError("degenerate radius range")
    vals = np.unique(space.dist[space.dist > 0])
    radii = np.unique(np.concatenate([vals, vals / 2.0]))
    radii = radii[(radii > lo) & (radii <= hi)]
    truncated = bool(np.any(2 * radii > diam))
    radii = radii[2 * radii <= diam]
    if radii.size == 0:
        raise ValueError("no admissible radii in range")
    c0, c2 = 1.0, np.inf
    for r in radii:
        v1 = ball_volumes(space, r)
        v2 = ball_volumes(space, 2 * r)
        ratios = v2 / v1
        c0 = max(c0, float(ratios.max()))
        c2 = min(c2, float(ratios.min()))
    return DoublingProfile(
        c0=c0, d=float(np.log2(c0)), c2=c2, dstar=float(np.log2(c2)),
        radius_range=(float(lo), float(hi)), truncated=truncated)


# ---------------------------------------------------------------------------
# maximal nets and partitions


def build_maximal_net(space: ModelSpace, delta: float, order=None) -> np.ndarray:
    """Greedy maximal delta-net: insert points in the given order whenever
    they are >= delta away from every already-chosen center."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if order is None:
        order = range(space.n)
    centers = []
    for x in order:
        if all(space.dist[x, c] >= delta for c in centers):
            centers.append(int(x))
    return np.array(sorted(centers), dtype=int)


def build_partition(space: ModelSpace, centers, delta: float) -> np.ndarray:
    """Nearest-center assignment with lowest-index tie-break.

    Returns owner[x] = index into `centers`.  Asserts the sandwich
    B(xi, delta/2) subset A_xi subset B(xi, delta).
    """
    centers = np.asarray(centers, dtype=int)
    D = space.dist[:, centers]
    owner = np.argmin(D, axis=1)  # argmin takes the first (lowest) minimizer
    # safety: the partition must satisfy the net sandwich
    chosen = D[np.arange(space.n), owner]
    if chosen.max() >= delta:
        raise AssertionError("partition cell escapes B(xi, delta); "
                             "net is not maximal for this delta")
    for k, xi in enumerate(centers):
        inner = np.nonzero(space.dist[xi] < delta / 2.0)[0]
        if not np.all(owner[inner] == k):
            raise AssertionError("B(xi, delta/2) not contained in A_xi")
    return owner


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

    @property
    def size(self) -> int:
        return len(self.centers)


def build_net(space: ModelSpace, level: int, b: float, gamma: float) -> Net:
    delta = gamma * b ** (-level - 2)
    centers = build_maximal_net(space, delta)
    owner = build_partition(space, centers, delta)
    a_vol = np.array([space.mu[owner == k].sum() for k in range(len(centers))])
    b_vol = np.array([ball(space, xi, delta)[1] for xi in centers])
    return Net(level=level, delta=delta, centers=centers, owner=owner,
               ell=b ** (-level), a_vol=a_vol, b_vol=b_vol)


@dataclass(frozen=True)
class NetHierarchy:
    """Ordered family of level nets sharing one base and density constant.

    Flattened index arrays (xi_*) enumerate the full center set across
    levels; frames, coefficient sequences and net matrices all index
    against this flattening.
    """

    space: ModelSpace
    b: float
    gamma: float
    mode: str  # "homogeneous" | "inhomogeneous"
    levels: tuple  # of Net, ordered by level ascending
    j_min: int
    j_max: int
    xi_level: np.ndarray = field(default=None)   # level j per flat index
    xi_point: np.ndarray = field(default=None)   # center point per flat index
    xi_ell: np.ndarray = field(default=None)
    xi_avol: np.ndarray = field(default=None)
    xi_bvol: np.ndarray = field(default=None)

    @property
    def size(self) -> int:
        return len(self.xi_level)

    def level_slice(self, j: int) -> slice:
        start = 0
        for net in self.levels:
            if net.level == j:
                return slice(start, start + net.size)
            start += net.size
        raise KeyError(f"level {j} not in hierarchy")

    def net(self, j: int) -> Net:
        for net in self.levels:
            if net.level == j:
                return net
        raise KeyError(f"level {j} not in hierarchy")


def build_hierarchy(space: ModelSpace, b: float, gamma: float,
                    j_min: int, j_max: int, mode="homogeneous") -> NetHierarchy:
    if mode not in ("homogeneous", "inhomogeneous"):
        raise ValueError("mode must be homogeneous or inhomogeneous")
    if mode == "inhomogeneous":
        j_min = max(j_min, 0)
    nets = tuple(build_net(space, j, b, gamma) for j in range(j_min, j_max + 1))
    lv, pt, el, av, bv = [], [], [], [], []
    for net in nets:
        lv += [net.level] * net.size
        pt += list(net.centers)
        el += [net.ell] * net.size
        av += list(net.a_vol)
        bv += list(net.b_vol)
    return NetHierarchy(
        space=space, b=b, gamma=gamma, mode=mode, levels=nets,
        j_min=j_min, j_max=j_max,
        xi_level=np.array(lv, dtype=int), xi_point=np.array(pt, dtype=int),
        xi_ell=np.array(el, dtype=float), xi_avol=np.array(av, dtype=float),
        xi_bvol=np.array(bv, dtype=float))


# ---------------------------------------------------------------------------
# geometric lemma checks


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    lhs_max: float
    rhs_min: float
    worst_ratio: float
    detail: dict = field(default_factory=dict)


def check_net_count(space: ModelSpace, net_centers, delta, delta_star,
                    profile: DoublingProfile) -> CheckReport:
    """Counting bound: #(net ∩ B(x, delta*)) <= c0 * 6^d * (delta*/delta)^d
    for every x, with measured (c0, d)."""
    if delta > delta_star:
        raise ValueError("requires delta <= delta_star")
    centers = np.asarray(net_centers, dtype=int)
    counts = (space.dist[:, centers] < delta_star).sum(axis=1)
    lhs = int(counts.max())
    rhs = profile.c0 * 6.0**profile.d * (delta_star / delta) ** profile.d
    argmax = int(np.argmax(counts))
    return CheckReport(passed=lhs <= rhs, lhs_max=float(lhs), rhs_min=rhs,
                       worst_ratio=lhs / rhs, detail={"argmax_x": argmax})


def _geom_series_const(c0, d, sigma):
    # explicit admissible constant for the one-sided net sum bound
    if sigma <= d:
        raise ValueError("requires sigma > d")
    return c0 * 6.0**d * 2.0**sigma / (1.0 - 2.0 ** (d - sigma))


def check_discrete_sum(space: ModelSpace, net_centers, sigma,
                       delta, delta1, delta2,
                       profile: DoublingProfile) -> CheckReport:
    """Net summation bounds with explicit constants.

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

    # one-sided, delta* = delta1
    one = ((1.0 + space.dist[:, centers] / delta1) ** (-sigma)).sum(axis=1)
    rhs_one = CL * (delta1 / delta) ** d
    ratio_one = one.max() / rhs_one

    # two-sided, exhaustive double loop in vectorized form
    wx = (1.0 + space.dist[:, centers] / delta1) ** (-sigma)   # (n, m)
    wy = (1.0 + space.dist[:, centers] / delta2) ** (-sigma)   # (n, m)
    lhs = wx @ wy.T                                            # (n, n)
    c2s = 2.0 ** (2 * sigma + 1) * CL
    rhs = c2s * (delta1 / delta) ** d / (1.0 + space.dist / delta2) ** sigma
    ratio_two = float((lhs / rhs).max())

    passed = (ratio_one <= 1.0) and (ratio_two <= 1.0)
    return CheckReport(
        passed=bool(passed), lhs_max=float(lhs.max()), rhs_min=float(rhs.min()),
        worst_ratio=max(float(ratio_one), ratio_two),
        detail={"one_sided_ratio": float(ratio_one),
                "two_sided_ratio": ratio_two,
                "C_L": CL, "c_two_sided": c2s})


def check_peetre_integrals(space: ModelSpace, sigma1, sigma2,
                           delta1, delta2,
                           profile: DoublingProfile) -> CheckReport:
    """Weighted-sum bounds against ball volumes, with explicit constants.

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

    # single-center form at both (sigma1, delta1) and (sigma2, delta2)
    worst_single = 0.0
    for sig, dl in ((sigma1, delta1), (sigma2, delta2)):
        w = (1.0 + space.dist / dl) ** (-sig)
        lhs = w @ space.mu
        rhs = c28(sig) * ball_volumes(space, dl)
        worst_single = max(worst_single, float((lhs / rhs).max()))

    w1 = (1.0 + space.dist / delta1) ** (-sigma1)
    w2 = (1.0 + space.dist / delta2) ** (-sigma2)
    I = (w1 * space.mu[None, :]) @ w2.T    # I[x, y]
    vx = ball_volumes(space, delta1)
    vy = ball_volumes(space, delta2)
    c = 2.0 ** max(sigma1, sigma2) * max(c28(sigma1), c28(sigma2))
    rhs = c * (vx[:, None] / (1.0 + space.dist / delta2) ** sigma2
               + vy[None, :] / (1.0 + space.dist / delta1) ** sigma1)
    worst_two = float((I / rhs).max())
    passed = worst_single <= 1.0 and worst_two <= 1.0
    return CheckReport(passed=bool(passed), lhs_max=float(I.max()),
                       rhs_min=float(rhs.min()),
                       worst_ratio=max(worst_single, worst_two),
                       detail={"single_ratio": worst_single,
                               "two_center_ratio": worst_two})


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
    # partition: disjoint cover is structural (owner is a function); sandwich:
    for k, xi in enumerate(c):
        cell = np.nonzero(net.owner == k)[0]
        if space.dist[xi, cell].max() >= net.delta:
            raise AssertionError("A_xi escapes B(xi, delta)")
        inner = np.nonzero(space.dist[xi] < net.delta / 2)[0]
        if not np.all(net.owner[inner] == k):
            raise AssertionError("B(xi, delta/2) not inside A_xi")
