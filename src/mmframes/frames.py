"""Frame construction: primal multiscale frame, its dual via a per-level
Neumann correction summed on the level's sampling Gram, and a compactly
supported variant built from a band-limited surrogate symbol.
"""

from dataclasses import dataclass

import numpy as np

from mmframes import addiag
from mmframes.space import NetHierarchy, build_hierarchy, build_model
from mmframes.calculus import (
    SpectralData,
    Cutoff,
    eigendecompose,
    make_cutoff,
    band_symbols,
    level_window,
    _smooth_step,
    effective_support_radius,
    neumann_series,
)

MAX_GAMMA_HALVINGS = 8        # halvings of gamma before the hierarchy gives up
COMPACT_DUAL_THRESHOLD = 0.5  # the compact dual needs ||I - A||_eps below this


@dataclass(frozen=True)
class Frame:
    """Net-indexed family of functions with per-level spectral bands.

    columns[:, k] is the element attached to flat net index k.
    """

    hierarchy: NetHierarchy
    columns: np.ndarray
    bands: dict  # level -> (lo, hi) in sqrt(L) units (None for compact kinds)

    def analyze(self, f) -> np.ndarray:
        """Coefficients <f, psi_xi> in the mu-inner product; an (n, k) table
        of functions gives an (m, k) table, one column per function."""
        mu = self.hierarchy.space.mu
        return self.columns.T @ (mu * np.asarray(f).T).T

    def synthesize(self, coeffs) -> np.ndarray:
        """sum_xi c_xi psi_xi, column by column for an (m, k) table."""
        return self.columns @ np.asarray(coeffs)


@dataclass(frozen=True)
class DualBuildReport:
    neumann_terms: int             # max series length over levels
    neumann_tail: float            # worst relative tail norm
    sampling_ratios: dict          # level -> (lower, upper) of the sampling form


def build_frame1(spec: SpectralData, hierarchy: NetHierarchy, Phi: Cutoff) -> Frame:
    """Primal frame psi_xi = |A_xi|^{1/2} Psi_j(sqrt(L))(., xi), with
    Psi(u) = Phi(u) - Phi(b u)."""
    if Phi.kind != "a":
        raise ValueError("frame generator must be a low-pass (type a) cutoff")
    if abs(Phi.b - hierarchy.b) > 0:
        raise ValueError("hierarchy/cutoff base mismatch")
    b = hierarchy.b
    psi = band_symbols(spec, Phi, b, (hierarchy.j_min, hierarchy.j_max))
    cols = []
    bands = {}
    for net, vals in zip(hierarchy.levels, psi.T):
        j = net.level
        block = spec.kernel(vals, net.centers) * np.sqrt(net.a_vol)[None, :]
        cols.append(block)
        bands[j] = (b ** (j - 1), b ** (j + 1))
    return Frame(hierarchy=hierarchy, columns=np.hstack(cols), bands=bands)


def _sampling_gram(spec: SpectralData, hierarchy: NetHierarchy, j: int):
    """Gram of the sampling form on the spectral space sel = {sqrt(lambda)
    <= b^{j+2}} (never empty: lambda = 0 lies in it): returns (sel, X, G),
    X = E[centres, sel] and G = X^T diag(|A_xi|) X, symmetrised."""
    net = hierarchy.net(j)
    sel = np.sqrt(spec.eigenvalues) <= hierarchy.b ** (j + 2)
    X = spec.eigenfunctions[np.ix_(net.centers, np.nonzero(sel)[0])]
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


def build_dual_frame(spec: SpectralData, hierarchy: NetHierarchy,
                     Phi: Cutoff):
    """Dual frame via the per-level correction operator.

    Per level j the band symbol g(u) = Phi(b^{-2}u) - Phi(b u) scaled to
    level j equals 1 on the primal band and vanishes beyond b^{j+2}; with
    sampling weights w_eta = |A_eta|/(1+eps_j) the operator R = g^2 - V
    (V the sampled quadrature of g^2) inverts the sampling defect through
    T = I + sum_k R^k, and the dual elements are
    psi~_xi = |A_xi|^{1/2}/(1+eps_j) * T[g_j(sqrt(L))(., xi)].

    The eigenfunctions E are mu-orthonormal, so on the spectral space sel
    of the level's sampling Gram G, R M = E K E^T M with
    K = diag(g^2) - (g g^T * G)/(1+eps_j), and the series is summed on K.
    K = diag(g) (I - G/(1+eps_j)) diag(g) with |g| <= 1 and the spectrum
    of G in [1-eps_j, 1+eps_j], so ||K||_2 <= 2 eps_j/(1+eps_j) < 2/3 and
    the series converges whenever eps_j < 1/2.
    """
    if abs(Phi.b - hierarchy.b) > 0:
        raise ValueError("hierarchy/cutoff base mismatch")
    b = hierarchy.b
    cols = []
    bands = {}
    ratios = {}
    worst_terms, worst_tail = 0, 0.0

    for net in hierarchy.levels:
        j = net.level
        sel, X, G = _sampling_gram(spec, hierarchy, j)
        w = np.linalg.eigvalsh(G)
        lo, hi = ratios[j] = float(w[0]), float(w[-1])
        eps = max(1.0 - lo, hi - 1.0)
        if eps >= 0.5:
            raise RuntimeError(f"sampling precondition failed at level {j}: eps={eps}")

        # scale so the plateau [1, b^2] covers the primal band [b^{j-1}, b^{j+1}]
        g = (spec.symbol(Phi, b ** (-j - 1))
             - spec.symbol(Phi, b ** (-j + 2)))[sel]
        K = np.diag(g**2) - np.outer(g, g) * G / (1.0 + eps)
        T, terms, tail = neumann_series(K)
        worst_terms = max(worst_terms, terms)
        worst_tail = max(worst_tail, tail)

        block = spec.eigenfunctions[:, sel] @ (T @ (g[:, None] * X.T))
        cols.append(block * (np.sqrt(net.a_vol) / (1.0 + eps))[None, :])
        bands[j] = (b ** (j - 2), b ** (j + 2))

    frame = Frame(hierarchy=hierarchy, columns=np.hstack(cols), bands=bands)
    report = DualBuildReport(neumann_terms=worst_terms, neumann_tail=worst_tail,
                             sampling_ratios=ratios)
    return frame, report


def check_band_containment(spec: SpectralData, frame: Frame) -> float:
    """Worst coefficient of any frame element on eigenfunctions outside its
    level band; construction should keep it at rounding level."""
    worst = 0.0
    roots = np.sqrt(spec.eigenvalues)
    coeffs = spec.coefficients(frame.columns)
    scale = np.abs(coeffs).max()
    hier = frame.hierarchy
    for net, sl in zip(hier.levels, hier.blocks):
        lo, hi = frame.bands[net.level]
        outside = (roots < lo - 1e-12) | (roots > hi + 1e-12)
        if np.any(outside):
            worst = max(worst, float(np.abs(coeffs[outside, sl]).max()))
    return worst / max(scale, 1e-300)


def reconstruct(frame: Frame, dual: Frame, f) -> np.ndarray:
    """sum_xi <f, dual_xi> frame_xi."""
    return frame.synthesize(dual.analyze(f))


def frame_bounds_probe(frame: Frame, dual: Frame, spec: SpectralData,
                       battery) -> dict:
    """Measured two-sided L2 frame bounds of the dual coefficient map and the
    worst reconstruction residual on a battery of mean-zero functions (one
    per row), over the samples: the functions with a nonzero norm."""
    space = spec.space
    F = np.asarray(battery, dtype=float).T
    nf = space.norm2(F)
    live = nf > 0
    quad = np.sum(np.ascontiguousarray(dual.analyze(F).T) ** 2, axis=1)
    resid = np.maximum(space.norm2(reconstruct(frame, dual, F) - F),
                       space.norm2(reconstruct(dual, frame, F) - F))
    quad, resid = quad[live] / nf[live] ** 2, resid[live] / nf[live]
    return {"lower": quad.min(initial=np.inf), "upper": quad.max(initial=0.0),
            "residual": resid.max(initial=0.0), "samples": int(live.sum())}


# ---------------------------------------------------------------------------
# band-limited surrogate symbol and compactly supported frame


@dataclass(frozen=True)
class ThetaSymbol:
    """Even symbol given by a cosine series over nodes in [0, R].

    Its transform is supported in [-R, R] by construction, and the jet
    correction forces derivatives at 0 to vanish through order N + K - 1,
    which keeps u^{-m} Theta band-limited for m <= N + K.
    """

    R: float
    nodes: np.ndarray
    coeffs: np.ndarray
    eps_target: float
    eps_achieved: float
    passed: bool
    N: int
    K: int
    jet_residuals: tuple = ()

    def __call__(self, u):
        """Theta(u) for u of any shape: with t_k = k dt the series is
        sum_k c_k T_k(cos(dt u)), one Clenshaw pass over all points."""
        from numpy.polynomial.chebyshev import chebval

        u = np.asarray(u, dtype=float)
        out = chebval(np.cos(self.nodes[1] * u), self.coeffs)
        return float(out) if u.ndim == 0 else out


def _dct1(x) -> np.ndarray:
    """DCT-I, y_k = x_0 + (-1)^k x_{N-1} + 2 sum_{0<i<N-1} x_i cos(pi k i/(N-1)):
    the real FFT of the even extension of x."""
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]])).real


def _dst1(x) -> np.ndarray:
    """DST-I, y_k = 2 sum_i x_i sin(pi (k+1)(i+1)/(N+1)): the real FFT of the
    odd extension of x."""
    z = np.zeros(1)
    return -np.fft.rfft(np.concatenate([z, x, z, -x[::-1]])).imag[1:-1]


def _cosine_transform(Psi, support: float, n: int, dt: float,
                      du_max: float) -> np.ndarray:
    """2 int_0^support Psi(u) cos(k dt u) du for k = 0..n-1.

    Trapezoid rule with step du = pi/(M dt) <= du_max, M a power of two, so
    that cos(k dt u_i) = cos(pi k i / M) and the whole transform is one
    DCT-I (an FFT of length 2M) of the zero-padded samples Psi(u_i),
    i = 0..M.  The integrand is a smooth bump, so the rule is spectrally
    accurate once du resolves the oscillation.
    """
    # the least power of two M with pi/(M dt) <= du_max
    M = 1 << (int(np.ceil(np.pi / (dt * du_max))) - 1).bit_length()
    du = np.pi / (M * dt)
    samples = np.zeros(M + 1)
    live = int(support / du) + 1
    samples[:live] = np.asarray(Psi(np.arange(live) * du), dtype=float)
    return _dct1(samples)[:n] * du


def build_band_limited_theta(Psi, Psi_derivs, N: int, K: int, eps: float,
                             b: float = 2.0, R0: float = 1024.0,
                             R_max: float = 4096.0) -> ThetaSymbol:
    """Band-limited surrogate for the band symbol Psi, whose derivatives of
    orders 0..K are the callables Psi_derivs[0..K].

    Truncates the cosine transform of Psi to [0, R] with a smooth window,
    adds a small band-limited jet correction so that derivatives at 0
    vanish through order N + K - 1, and grows R until
    |Psi^(nu) - Theta^(nu)| <= eps u^N/(1+u)^{2N} holds for nu <= K on a
    dense grid.  Returns the best attempt when the tolerance is
    unreachable below R_max (caller inspects .passed).

    The nodes t_k = k dt are uniform, so both transforms are DCT-I/DST-I
    evaluations.  The forward transform samples Psi at u_i = i du,
    i = 0..M, with dt du = pi/M.  The validation grid is
    u_j = j pi/(L dt), j = 0..L, which spans [0, pi/dt] with spacing no
    coarser than (4b - 0.05)/3999; the bound is checked on its points in
    [0.05, 4b].
    """
    if not (N >= K >= 1):
        raise ValueError("need N >= K >= 1")
    jet = N + K
    u_lo, u_hi = 0.05, 4.0 * b
    psi_support = 1.25 * b  # band symbol vanishes beyond b
    dt = min(0.08, np.pi / (4.0 * u_hi))
    R = R0
    best = None
    while R <= R_max:
        t = np.arange(0.0, R + dt, dt)
        hhat = _cosine_transform(Psi, psi_support, len(t), dt,
                                 min(0.25 / R, 2.5e-4))
        win = _smooth_step((t - R / 2.0) / (R / 2.0))
        coeffs = hhat * win * dt / np.pi
        coeffs[0] *= 0.5
        coeffs[-1] *= 0.5

        # jet correction: even derivatives at 0 are (+-) sum c_k t_k^o, so
        # kill sum c_k t_k^o for even o < jet with a band-limited basis
        # (odd derivatives vanish by evenness); two extra even orders keep
        # the validated ratio from plateauing near u = 0
        orders = [2 * j for j in range((jet + 1) // 2 + 2)]
        bump = _smooth_step((np.abs(t - R / 2.0) - R / 8.0) / (R / 8.0))
        basis = np.array([(t / R) ** (2 * m) * bump for m in range(len(orders))])
        Mmat = np.array([[float(np.sum(bvec * (t / R) ** o)) for bvec in basis]
                         for o in orders])
        # refinement pass soaks up roundoff in the solve
        for _ in range(2):
            jets = np.array([float(np.sum(coeffs * (t / R) ** o)) for o in orders])
            coeffs = coeffs - np.linalg.solve(Mmat, jets) @ basis
        jet_resid = tuple(
            float(abs(np.sum(coeffs * (t / R) ** o))
                  / max(np.sum(np.abs(coeffs) * (t / R) ** o), 1e-300))
            for o in orders)

        # validation grid: near u = 0 the bound is covered analytically by
        # the vanishing jets (the error is O(u^{jet+4-nu}) there), so the
        # grid starts where the target envelope clears float64 noise
        L = max(len(t), int(np.ceil(3999 * np.pi / (dt * (u_hi - u_lo)))))
        ug = np.arange(L + 1) * (np.pi / (L * dt))
        keep = (ug >= u_lo) & (ug <= u_hi)
        ug = ug[keep]
        weight = ug**N / (1.0 + ug) ** (2 * N)
        worst = 0.0
        for nu in range(0, K + 1):
            # Theta^(nu)(u_j) = (-1)^{ceil(nu/2)} sum_k c_k t_k^nu
            # {cos, sin}(pi k j / L) for nu {even, odd}
            a = np.zeros(L + 1)
            a[:len(t)] = coeffs * t**nu
            if nu % 2 == 0:
                vals = (_dct1(a) + a[0]) / 2.0
            else:
                vals = np.pad(_dst1(a[1:L]), 1) / 2.0
            vals = (-1.0) ** ((nu + 1) // 2) * vals[keep]
            ref = np.asarray(Psi_derivs[nu](ug), dtype=float)
            worst = max(worst, float((np.abs(vals - ref) / weight).max()))
        theta = ThetaSymbol(R=R, nodes=t, coeffs=coeffs, eps_target=eps,
                            eps_achieved=worst, passed=worst <= eps, N=N,
                            K=K, jet_residuals=jet_resid)
        if best is None or worst < best.eps_achieved:
            best = theta
        if worst <= eps:
            return theta
        R *= 2.0
    return best


def build_compact_frame(spec: SpectralData, hierarchy: NetHierarchy,
                        theta: ThetaSymbol) -> tuple:
    """Compactly supported frame theta_xi = |A_xi|^{1/2} Theta(b^{-j}
    sqrt(L))(., xi); returns (Frame, per-level effective support radii)."""
    scales = np.array([hierarchy.b ** (-net.level)
                       for net in hierarchy.levels])
    cols = []
    supports = {}
    for net, vals in zip(hierarchy.levels, spec.symbol(theta, scales).T):
        P = spec.kernel(vals)
        supports[net.level] = effective_support_radius(P, spec.space)
        cols.append(P[:, net.centers] * np.sqrt(net.a_vol)[None, :])
    frame = Frame(hierarchy=hierarchy, columns=np.hstack(cols),
                  bands={n.level: None for n in hierarchy.levels})
    return frame, supports


def build_compact_dual(spec: SpectralData, frame1: Frame, dual: Frame,
                       compact: Frame, params):
    """Dual of the compact frame and the perturbation ||I - A||_eps.

    With D_{xi,eta} = <psi_eta - theta_eta, psi~_xi> the transfer operator
    T f = sum <f, psi~_xi> theta_xi satisfies coeff((I-T)g) = D coeff(g),
    so T is invertible when ||D||_eps < COMPACT_DUAL_THRESHOLD at decay
    eps = 1, and the dual columns are psi~ ((I - D)^{-1} B)^T with B the
    primal/dual cross Gram.  D = Q^T M P has rank <= n (Q = psi~,
    P = psi - theta, M = diag(mu)), so by push-through
    (I - D)^{-1} B = Q^T (I_n - M P Q^T)^{-1} M psi, and the dual columns
    are (Q psi^T M) solve(I_n - Q P^T M, Q): one n x n solve.
    """
    mu = spec.space.mu
    hier = frame1.hierarchy
    Q = dual.columns
    Dm = Q.T @ (mu[:, None] * (frame1.columns - compact.columns))
    delta_hat = addiag.ad_norm(
        addiag.NetMatrix(hierarchy=hier, entries=Dm, params=params), 1.0)
    del Dm
    if delta_hat >= COMPACT_DUAL_THRESHOLD:
        raise RuntimeError(
            f"compact-dual precondition failed: ||I - A||_eps = "
            f"{delta_hat:.3g} >= threshold; shrink eps in the "
            "band-limited symbol")
    QP = Q @ (frame1.columns - compact.columns).T
    G = np.linalg.solve(np.eye(len(mu)) - QP * mu[None, :], Q)
    X = (Q @ frame1.columns.T) * mu[None, :]
    compact_dual = Frame(hierarchy=hier, columns=X @ G,
                         bands={n.level: None for n in hier.levels})
    return compact_dual, delta_hat


def default_frames(model_name: str, b: float = 2.0, gamma: float = 0.5):
    """One-call setup: model, spectrum, hierarchy, primal and dual frames."""
    space = build_model(model_name)
    spec = eigendecompose(space)
    hier, eps = build_standard_hierarchy(spec, b=b, gamma=gamma)
    Phi = make_cutoff("a", b)
    frame = build_frame1(spec, hier, Phi)
    dual, report = build_dual_frame(spec, hier, Phi)
    return space, spec, hier, Phi, frame, dual, report
