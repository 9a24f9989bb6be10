"""Frame construction: primal multiscale frame, its dual via a per-level
Neumann correction summed on the level's sampling Gram, and a compactly
supported variant built from per-level polynomials in L.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from mmframes import addiag
from mmframes.space import NetHierarchy, build_hierarchy, build_model
from mmframes.calculus import (
    SpectralData,
    eigendecompose,
    make_cutoff,
    level_window,
    level_bands,
    effective_support_radius,
    neumann_series,
    nonzero_span,
)

MAX_GAMMA_HALVINGS = 8   # halvings of gamma before the hierarchy gives up
COMPACT_SUP_ERR = 1e-6   # a compact level's polynomial error, relative sup


@dataclass(frozen=True)
class Frame:
    """Net-indexed family psi_xi, held per level in the eigenbasis: level k
    is the band symbol s_k = symbols[:, k] at its centres, psi_xi =
    |A_xi|^{1/2} s_k(sqrt(L))(., xi), whose coefficients E^T M psi_xi are
    |A_xi|^{1/2} s_k E[xi, :]^T (_level_coeffs), or, for k in tables, its
    stored (n, m_k) coefficient table.  With an (n, n) map H, each
    coefficient column is H times that.

    The symbols and tables are read-only; spans holds each level's [lo, hi)
    from the first to the last nonzero row of its symbol or table.
    rmatvec and matvec take every symbol level whose centres are all the
    points in one product with E, read at the centres, and each other
    level's block over its span (E's rows gathered at the centres of a
    symbol level): no (n, m) table is formed, and block and table form the
    coefficients on demand."""

    spec: SpectralData
    hierarchy: NetHierarchy
    symbols: np.ndarray
    tables: dict = field(default_factory=dict)
    H: np.ndarray = None
    spans: list = field(init=False, repr=False, compare=False)
    _flat: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.symbols, *self.tables.values()):
            a.flags.writeable = False
        hier = self.hierarchy
        if self.symbols.shape != (len(self.symbols), len(hier.levels)):
            raise ValueError("symbols must hold one column per level")
        object.__setattr__(self, "spans", [
            nonzero_span(self.tables[k].any(axis=1)) if k in self.tables
            else nonzero_span(self.symbols[:, k])
            for k in range(len(hier.levels))])
        # the symbol levels whose centres are every point, in order: their
        # symbols and flat indices; |A_xi|^{1/2}; and the other levels
        n, flat = len(self.symbols), np.arange(hier.size)
        every = [k for k, net in enumerate(hier.levels) if k not in
                 self.tables and np.array_equal(net.centers, np.arange(n))]
        object.__setattr__(self, "_flat", (
            np.ascontiguousarray(self.symbols[:, every]),
            np.concatenate([flat[:0]] + [flat[hier.blocks[k]] for k in every]),
            np.sqrt(hier.xi_avol)[:, None],
            [k for k in range(len(hier.levels)) if k not in every]))

    def _own(self, k: int) -> tuple:
        """block(k) before H."""
        lo, hi = self.spans[k]
        if k in self.tables:
            return lo, hi, self.tables[k][lo:hi]
        return lo, hi, _level_coeffs(self.spec, self.hierarchy.levels[k],
                                     self.symbols[lo:hi, k], lo, hi)

    def block(self, k: int) -> tuple:
        """(lo, hi, B): level k's (hi - lo, m_k) coefficients on the rows
        [lo, hi), outside which they are 0, formed on each call."""
        lo, hi, B = self._own(k)
        if self.H is None:
            return lo, hi, B
        return 0, len(self.H), self.H[:, lo:hi] @ B

    def table(self) -> np.ndarray:
        """The (n, m) coefficient table, E^T M psi_xi in column xi, formed
        from the level blocks on each call."""
        out = np.zeros((len(self.symbols), self.hierarchy.size))
        for k, sl in enumerate(self.hierarchy.blocks):
            lo, hi, B = self.block(k)
            out[lo:hi, sl] = B
        return out

    @property
    def columns(self) -> np.ndarray:
        """The (n, m) column table, synthesised on each read."""
        return self.spec.synthesize(self.table())

    def rmatvec(self, c) -> np.ndarray:
        """Coefficients^T c for eigenbasis coefficients c, (n,) or (n, k)."""
        c = np.asarray(c)
        if self.H is not None:
            c = self.H.T @ c
        E, c2, hier = self.spec.eigenfunctions, c.reshape(len(c), -1), \
            self.hierarchy
        S, idx, root, rest = self._flat
        out = np.empty((hier.size, c2.shape[1]))
        # E (S (.) c) by (level, point, column): these levels' centres are
        # every point, in order
        Y = (E @ (S[:, :, None] * c2[:, None]).reshape(len(E), -1)).reshape(
            len(E), len(S.T), len(c2.T)).transpose(1, 0, 2)
        out[idx] = root[idx] * Y.reshape(len(idx), len(c2.T))
        for k in rest:
            lo, hi, B = self._own(k)
            out[hier.blocks[k]] = B.T @ c2[lo:hi]
        return out.reshape(out.shape[:1] + c.shape[1:])

    def matvec(self, x) -> np.ndarray:
        """Coefficients x for net coefficients x, (m,) or (m, k)."""
        x = np.asarray(x)
        E, x2, hier = self.spec.eigenfunctions, x.reshape(len(x), -1), \
            self.hierarchy
        S, idx, root, rest = self._flat
        # |A|^{1/2} x by (point, level, column), through E^T, times S
        W = (root[idx] * x2[idx]).reshape(
            S.shape[1], len(E), x2.shape[1]).transpose(1, 0, 2)
        out = np.einsum("il,ilk->ik", S, (E.T @ W.reshape(len(E), -1))
                        .reshape(W.shape))
        for k in rest:
            lo, hi, B = self._own(k)
            out[lo:hi] += B @ x2[hier.blocks[k]]
        out = out.reshape(out.shape[:1] + x.shape[1:])
        return out if self.H is None else self.H @ out

    def analyze(self, f) -> np.ndarray:
        """Coefficients <f, psi_xi> in the mu-inner product; an (n, k) table
        of functions gives an (m, k) table, one column per function."""
        return self.rmatvec(self.spec.coefficients(f))

    def synthesize(self, coeffs) -> np.ndarray:
        """sum_xi c_xi psi_xi, column by column for an (m, k) table."""
        return self.spec.synthesize(self.matvec(coeffs))


@dataclass(frozen=True)
class DualBuildReport:
    neumann_terms: int             # max series length over levels
    neumann_tail: float            # worst relative tail norm


def hierarchy_bands(spec: SpectralData, hierarchy: NetHierarchy) -> tuple:
    """(Psi, g) of calculus.level_bands over the hierarchy's levels, with the
    low-pass cutoff at its base b."""
    return level_bands(spec, make_cutoff("a", hierarchy.b),
                       (hierarchy.j_min, hierarchy.j_max))


def _level_coeffs(spec: SpectralData, net, vals, lo=0, hi=None):
    """Rows [lo, hi) of the level's table of |A_xi|^{1/2} s(sqrt(L))(., xi),
    for vals the symbol s on those rows."""
    return (vals[:, None] * spec.eigenfunctions[net.centers, lo:hi].T) \
        * np.sqrt(net.a_vol)[None, :]


def build_frame1(spec: SpectralData, hierarchy: NetHierarchy) -> Frame:
    """Primal frame psi_xi = |A_xi|^{1/2} Psi_j(sqrt(L))(., xi), with Psi_j
    the level's primal band symbol (hierarchy_bands)."""
    return Frame(spec, hierarchy, hierarchy_bands(spec, hierarchy)[0])


def _sampling_gram(spec: SpectralData, hierarchy: NetHierarchy, j: int):
    """Gram of the sampling form on the spectral space sel = {sqrt(lambda)
    <= b^{j+2}} (never empty: lambda = 0 lies in it): returns (sel, X, G),
    X = E[centres, sel] and G = X^T diag(|A_xi|) X, symmetrised."""
    net = hierarchy.net(j)
    sel = np.sqrt(spec.eigenvalues) <= hierarchy.b ** (j + 2)
    X = spec.eigenfunctions.take(net.centers, 0).take(np.nonzero(sel)[0], 1)
    G = X.T @ (net.a_vol[:, None] * X)
    return sel, X, (G + G.T) / 2


def check_sampling(spec: SpectralData, hierarchy: NetHierarchy, j: int):
    """Extremal constants of the sampling quadratic form on the spectral
    space {sqrt(lambda) <= b^{j+2}}: returns (lower, upper) with
    lower*||f||^2 <= sum |A_xi||f(xi)|^2 <= upper*||f||^2, the extreme
    eigenvalues of the level's sampling Gram."""
    w = np.linalg.eigvalsh(_sampling_gram(spec, hierarchy, j)[2])
    return float(w[0]), float(w[-1])


def build_standard_hierarchy(spec: SpectralData, b: float = 2.0,
                             gamma: float = 0.5, mode: str = "homogeneous"):
    """Hierarchy over the default spectral window with gamma halved, at most
    MAX_GAMMA_HALVINGS times, until every level passes the sampling check
    with epsilon < 1/2."""
    j_min, j_max = level_window(spec, b)
    for _ in range(MAX_GAMMA_HALVINGS + 1):
        hier = build_hierarchy(spec.space, b, gamma, j_min, j_max, mode=mode)
        eps = {}
        for net in hier.levels:
            lo, hi = check_sampling(spec, hier, net.level)
            eps[net.level] = max(1.0 - lo, hi - 1.0)
        if not any(e >= 0.5 for e in eps.values()):
            return hier, eps
        gamma /= 2.0
    raise RuntimeError("sampling epsilon < 1/2 unreachable; gamma exhausted")


def build_dual_frame(spec: SpectralData, hierarchy: NetHierarchy, eps):
    """Dual frame via the per-level correction operator; returns (Frame,
    DualBuildReport), the report over the levels that sum a series.

    Per level j the dual band symbol g = g_j (hierarchy_bands) equals 1 on
    the primal band and vanishes beyond b^{j+2}; with sampling weights
    w_eta = |A_eta|/(1+eps_j) the operator R = g^2 - V (V the sampled
    quadrature of g^2) inverts the sampling defect through
    T = I + sum_k R^k, and the dual elements are
    psi~_xi = |A_xi|^{1/2}/(1+eps_j) * T[g_j(sqrt(L))(., xi)].

    The eigenfunctions E are mu-orthonormal, so on the spectral space sel
    of the level's sampling Gram G, R M = E K E^T M with
    K = diag(g^2) - (g g^T * G)/(1+eps_j), and the series is summed on K.
    K = diag(g) (I - G/(1+eps_j)) diag(g) with |g| <= 1 and the spectrum
    of G in [1-eps_j, 1+eps_j], so ||K||_2 <= 2 eps_j/(1+eps_j) < 2/3 and
    the series converges whenever eps_j < 1/2.  eps, the {level: eps_j} of
    build_standard_hierarchy, was measured on these Grams.  The level's
    table is T (g X^T) on sel's rows, scaled per centre: 0 where g is.

    On a level whose centres are all the points, A_xi = {xi}, so G is
    E^T M E = I restricted to sel, K = 0 and T = I: the level is its
    symbol g_j, held as such, with no series and no (1 + eps_j) factor.
    Its eps_j is still measured by build_standard_hierarchy, and thm4.2's
    basis_defect, ||E^T M E - I||_inf, bounds what that exactness drops.
    """
    n, bands = len(spec.eigenvalues), hierarchy_bands(spec, hierarchy)[1]
    tables, worst_terms, worst_tail = {}, 0, 0.0

    for k, (net, g) in enumerate(zip(hierarchy.levels, bands.T)):
        j, e = net.level, eps[net.level]
        if e >= 0.5:
            raise RuntimeError(f"sampling precondition failed at level {j}: eps={e}")
        if np.array_equal(net.centers, np.arange(n)):
            continue  # every point: T = I
        sel, X, G = _sampling_gram(spec, hierarchy, j)

        g = g[sel]
        K = np.diag(g**2) - np.outer(g, g) * G / (1.0 + e)
        T, terms, tail = neumann_series(K)
        worst_terms = max(worst_terms, terms)
        worst_tail = max(worst_tail, tail)

        tables[k] = np.zeros((n, net.size))
        tables[k][sel] = (T @ (g[:, None] * X.T)) \
            * (np.sqrt(net.a_vol) / (1.0 + e))[None, :]

    frame = Frame(spec, hierarchy, bands, tables)
    report = DualBuildReport(neumann_terms=worst_terms, neumann_tail=worst_tail)
    return frame, report


def band_leak(frame: Frame, bands) -> float:
    """The largest |coefficient| where its level's band symbol (a column of
    hierarchy_bands' table) is 0, over the largest; each level's block is
    formed over its span (Frame.block), and is 0 outside it."""
    leak = top = 0.0
    for k, band in enumerate(bands.T):
        lo, hi, B = frame.block(k)
        B = np.abs(B)
        leak = max(leak, B[band[lo:hi] == 0].max(initial=0.0))
        top = max(top, B.max(initial=0.0))
    return float(leak / max(top, 1e-300))


def reconstruct(frame: Frame, dual: Frame, f) -> np.ndarray:
    """sum_xi <f, dual_xi> frame_xi."""
    return frame.synthesize(dual.analyze(f))


def frame_bounds_probe(frame: Frame, dual: Frame, battery) -> dict:
    """Measured two-sided L2 frame bounds of the dual coefficient map and the
    worst reconstruction residual on a battery of mean-zero functions (one
    per row), over the samples: the functions with a nonzero norm."""
    space = frame.hierarchy.space
    F = np.asarray(battery, dtype=float).T
    nf = space.norm2(F)
    live = nf > 0
    A = dual.analyze(F)
    quad = np.sum(np.ascontiguousarray(A.T) ** 2, axis=1)
    resid = np.maximum(space.norm2(frame.synthesize(A) - F),
                       space.norm2(reconstruct(dual, frame, F) - F))
    quad, resid = quad[live] / nf[live] ** 2, resid[live] / nf[live]
    return {"lower": quad.min(initial=np.inf), "upper": quad.max(initial=0.0),
            "residual": resid.max(initial=0.0), "samples": int(live.sum())}


# ---------------------------------------------------------------------------
# compactly supported frame: per-level polynomials in L


@dataclass(frozen=True)
class CompactLevel:
    """One level of the compact frame (build_compact_frame); degree 0 marks
    a level that keeps its band symbol Psi_j."""

    degree: int
    reach: float     # degree * e: a polynomial level's kernel ends there
    support: float   # effective support radius of the level's columns
    sup_err: float   # max |p - Psi_j| / max |Psi_j| over the spectrum


def longest_edge(space) -> float:
    """Largest rho(x, y) over the pairs x != y with L(x, y) != 0: one
    application of L moves a kernel's support by at most this much."""
    edges = space.L != 0
    np.fill_diagonal(edges, False)
    return float(space.dist[edges].max())


def _level_polynomial(lam, vander, psi, band):
    """Least k for which p(lambda) = lambda q(lambda), q the Chebyshev
    interpolant of degree k - 1 of band(lambda)/lambda on [0, lambda_max],
    is within COMPACT_SUP_ERR * max |psi| of psi = band(lam) on the spectrum
    lam; returns (k, p(lam), that error relative to max |psi|), or
    (0, psi, 0.0), the band symbol itself, when the highest degree on
    offer, vander's column count, misses it: one fit settles such a level.
    vander is chebvander(2 lam / lambda_max - 1, K - 1), so p(lam) is
    lam * (vander[:, :k] @ q).
    """
    from numpy.polynomial.chebyshev import chebinterpolate

    half = lam[-1] / 2.0
    scale = np.abs(psi).max()

    def target(t):
        # Chebyshev points lie inside (-1, 1), so lambda > 0 here
        mu = (t + 1.0) * half
        return band(mu) / mu

    def fit(k):
        p = lam * (vander[:, :k] @ chebinterpolate(target, k - 1))
        return p, np.abs(p - psi).max()

    top = vander.shape[1]
    if fit(top)[1] > COMPACT_SUP_ERR * scale:
        return 0, psi, 0.0
    for k in range(1, top + 1):
        p, err = fit(k)
        if err <= COMPACT_SUP_ERR * scale:
            return k, p, float(err / scale) if scale > 0 else 0.0


def build_compact_frame(spec: SpectralData, hierarchy: NetHierarchy) -> tuple:
    """Compactly supported frame theta_xi = |A_xi|^{1/2} p_j(L)(., xi);
    returns (Frame, {level: CompactLevel}).

    p_j is the least-degree lambda q_j(lambda) within COMPACT_SUP_ERR of the
    level's primal band symbol Psi_j (hierarchy_bands) on the spectrum
    (_level_polynomial).  L has the graph's sparsity, so the
    kernel of a degree-k polynomial in L vanishes beyond k edges, that is
    beyond k e in rho: an exact finite speed.  A level that no degree with
    k e below the diameter fits keeps Psi_j, so its block is build_frame1's.
    The factor lambda makes every column mean-zero.
    """
    from numpy.polynomial.chebyshev import chebvander

    b, space, lam = hierarchy.b, spec.space, spec.eigenvalues
    Psi = make_cutoff("b", b)
    edge = longest_edge(space)
    # the degrees k with k e below the diameter.  Every accepted model has
    # diameter above e: unit edges with hop diameter >= 2, or a tree, where
    # the heaviest edge continues into a longer path
    vander = chebvander(2.0 * lam / lam[-1] - 1.0,
                        int(np.ceil(space.diameter / edge)) - 2)
    symbols = hierarchy_bands(spec, hierarchy)[0]
    levels = {}
    for net, vals in zip(hierarchy.levels, symbols.T):
        j = net.level
        # vals is the level's column of symbols: p_j is written into it
        degree, vals[:], err = _level_polynomial(
            lam, vander, vals, lambda mu: Psi(b ** -j * np.sqrt(mu)))
        levels[j] = CompactLevel(
            degree=degree, reach=degree * edge, sup_err=err,
            support=effective_support_radius(spec.kernel(vals, net.centers),
                                             space, net.centers))
    return Frame(spec, hierarchy, symbols), levels


def build_compact_dual(frame1: Frame, dual: Frame, compact: Frame, params):
    """Dual of the compact frame and the perturbation ||I - A||_eps.

    With D_{xi,eta} = <psi_eta - theta_eta, psi~_xi> the transfer operator
    T f = sum <f, psi~_xi> theta_xi satisfies coeff((I-T)g) = D coeff(g),
    so T is invertible under Thm 6.3's precondition ||D||_eps <
    addiag.NEUMANN_THRESHOLD at eps = addiag.NEUMANN_EPSILON, and the dual
    is psi~ ((I - D)^{-1} B)^T, B = U~^T V, with U~, V, V_theta the tables
    of psi~, psi, theta.  D = U~^T P, P = V - V_theta, has rank <= n, so by
    push-through the dual's table is H U~ with the n x n map
    H = (U~ V^T) (I_n - U~ P^T)^{-1}: it is held as psi~ and H
    (Frame.H), and analyses as psi~.rmatvec(H^T c).

    psi and theta are symbol frames at the same centres, so P is the symbol
    frame Psi_j - p_j, 0 on every level that keeps Psi_j; U~ V^T is summed
    over psi's level blocks, and no n x m table is formed after P.
    """
    hier, U = frame1.hierarchy, dual.table()
    P = replace(frame1, symbols=frame1.symbols - compact.symbols).table()
    delta_hat = addiag.ad_norm(hier, params, U.T, P, addiag.NEUMANN_EPSILON)
    if not delta_hat < addiag.NEUMANN_THRESHOLD:  # a NaN fails too
        raise RuntimeError(
            f"compact-dual precondition failed: ||I - A||_eps = "
            f"{delta_hat:.4g} is not below {addiag.NEUMANN_THRESHOLD}")
    A = np.eye(len(U)) - U @ P.T
    del P
    B = np.zeros_like(A)
    for k, sl in enumerate(hier.blocks):
        lo, hi, V = frame1.block(k)
        B[:, lo:hi] += U[:, sl] @ V.T
    H = np.linalg.solve(A.T, B.T).T
    return replace(dual, H=H), delta_hat


def default_frames(model_name: str, b: float = 2.0, gamma: float = 0.5):
    """One-call setup: model, spectrum, hierarchy, primal and dual frames."""
    space = build_model(model_name)
    spec = eigendecompose(space)
    hier, eps = build_standard_hierarchy(spec, b=b, gamma=gamma)
    frame = build_frame1(spec, hier)
    dual, report = build_dual_frame(spec, hier, eps)
    return space, spec, hier, make_cutoff("a", hier.b), frame, dual, report
