"""Frame construction: primal multiscale frame, its dual via a per-level
Neumann correction operator, and a compactly supported variant built from a
band-limited surrogate symbol.
"""

from dataclasses import dataclass, field

import numpy as np

from mmframes.space import ModelSpace, NetHierarchy, build_hierarchy
from mmframes.calculus import (
    SpectralData,
    Cutoff,
    make_cutoff,
    level_window,
    _smooth_step,
    effective_support_radius,
    Kernel,
)


@dataclass(frozen=True)
class Frame:
    """Net-indexed family of functions with per-level spectral bands.

    columns[:, k] is the element attached to flat net index k.
    """

    hierarchy: NetHierarchy
    columns: np.ndarray
    kind: str  # primal | dual | compact | compact_dual
    bands: dict  # level -> (lo, hi) in sqrt(L) units (None for compact kinds)

    @property
    def size(self) -> int:
        return self.columns.shape[1]

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
    epsilon: float                 # worst sampling epsilon across levels
    gamma: float
    neumann_terms: int             # max series length over levels
    neumann_tail: float            # worst relative tail norm
    sampling_ratios: dict          # level -> (lower, upper) of the sampling form
    level_epsilons: dict           # level -> epsilon


def build_frame1(spec: SpectralData, hierarchy: NetHierarchy, Phi: Cutoff) -> Frame:
    """Primal frame psi_xi = |A_xi|^{1/2} Psi_j(sqrt(L))(., xi), with
    Psi(u) = Phi(u) - Phi(b u)."""
    if Phi.kind != "a":
        raise ValueError("frame generator must be a low-pass (type a) cutoff")
    if abs(Phi.b - hierarchy.b) > 0:
        raise ValueError("hierarchy/cutoff base mismatch")
    b = hierarchy.b
    cols = []
    bands = {}
    for net in hierarchy.levels:
        j = net.level
        vals = spec.symbol(Phi, b ** (-j)) - spec.symbol(Phi, b ** (-j + 1))
        block = spec.kernel(vals, net.centers) * np.sqrt(net.a_vol)[None, :]
        cols.append(block)
        bands[j] = (b ** (j - 1), b ** (j + 1))
    return Frame(hierarchy=hierarchy, columns=np.hstack(cols), kind="primal", bands=bands)


def check_sampling(spec: SpectralData, hierarchy: NetHierarchy, j: int):
    """Extremal constants of the sampling quadratic form on the spectral
    space {sqrt(lambda) <= b^{j+2}}: returns (lower, upper) with
    lower*||f||^2 <= sum |A_xi||f(xi)|^2 <= upper*||f||^2, or None when the
    spectral space is empty."""
    b = hierarchy.b
    net = hierarchy.net(j)
    sel = np.sqrt(spec.eigenvalues) <= b ** (j + 2)
    if not np.any(sel):
        return None
    Es = spec.eigenfunctions[np.ix_(net.centers, np.nonzero(sel)[0])]
    G = Es.T @ (net.a_vol[:, None] * Es)
    w = np.linalg.eigvalsh((G + G.T) / 2)
    return float(w[0]), float(w[-1])


def build_standard_hierarchy(spec: SpectralData, b: float = 2.0,
                             gamma: float = 0.5, mode: str = "homogeneous",
                             max_halvings: int = 8):
    """Hierarchy over the default spectral window with gamma auto-halved
    until every level passes the sampling check with epsilon < 1/2."""
    j_min, j_max = level_window(spec, b)
    for _ in range(max_halvings + 1):
        hier = build_hierarchy(spec.space, b, gamma, j_min, j_max, mode=mode)
        eps = {}
        ok = True
        for net in hier.levels:
            res = check_sampling(spec, hier, net.level)
            if res is None:
                continue
            lo, hi = res
            e = max(1.0 - lo, hi - 1.0)
            eps[net.level] = e
            if e >= 0.5:
                ok = False
        if ok:
            return hier, eps
        gamma /= 2.0
    raise RuntimeError("sampling epsilon < 1/2 unreachable; gamma exhausted")


def build_dual_frame(spec: SpectralData, hierarchy: NetHierarchy,
                     Phi: Cutoff, tail_tol: float = 1e-12):
    """Dual frame via the per-level correction operator.

    Per level j the band symbol G(u) = Phi(b^{-2}u) - Phi(b u) scaled to
    level j equals 1 on the primal band; with sampling weights
    w_eta = |A_eta|/(1+eps_j) the operator R = G^2 - V (V the sampled
    quadrature of G^2) has small norm, T = I + sum_k R^k inverts the
    sampling defect, and the dual elements are
    psi~_xi = |A_xi|^{1/2}/(1+eps_j) * T[G_j(., xi)].
    """
    b = hierarchy.b
    mu = spec.space.mu
    cols = []
    bands = {}
    ratios, epsilons = {}, {}
    worst_terms, worst_tail = 0, 0.0

    for net in hierarchy.levels:
        j = net.level
        res = check_sampling(spec, hierarchy, j)
        if res is None:
            lo_hi = (1.0, 1.0)
            eps = 0.0
        else:
            lo_hi = res
            eps = max(1.0 - lo_hi[0], lo_hi[1] - 1.0)
        ratios[j] = lo_hi
        epsilons[j] = eps
        if eps >= 0.5:
            raise RuntimeError(f"sampling precondition failed at level {j}: eps={eps}")

        # scale so the plateau [1, b^2] covers the primal band [b^{j-1}, b^{j+1}]
        gvals = spec.symbol(Phi, b ** (-j - 1)) - \
            spec.symbol(Phi, b ** (-j + 2))
        G = spec.kernel(gvals)
        G2 = spec.kernel(gvals**2)
        w = net.a_vol / (1.0 + eps)
        Gc = G[:, net.centers]
        V = (Gc * w[None, :]) @ Gc.T
        R = G2 - V

        # Neumann sum S = sum_{k>=1} R^k under kernel composition
        term = R.copy()
        S = np.zeros_like(R)
        first = np.linalg.norm(term)
        terms, tail = 0, 0.0
        stall = 0
        prev = first
        if first > 0:
            for k in range(1, 500):
                S += term
                terms = k
                term = term @ (mu[:, None] * R)
                cur = np.linalg.norm(term)
                tail = cur / first if first > 0 else 0.0
                if cur > 0.999 * prev:
                    stall += 1
                    if stall >= 5:
                        raise RuntimeError(
                            f"Neumann divergence at level {j}; gamma too coarse")
                else:
                    stall = 0
                prev = cur
                if tail < tail_tol:
                    break
            else:
                raise RuntimeError(f"Neumann series did not settle at level {j}")
        worst_terms = max(worst_terms, terms)
        worst_tail = max(worst_tail, tail)

        TG = Gc + S @ (mu[:, None] * Gc)
        block = TG * (np.sqrt(net.a_vol) / (1.0 + eps))[None, :]
        cols.append(block)
        bands[j] = (b ** (j - 2), b ** (j + 2))

    frame = Frame(hierarchy=hierarchy, columns=np.hstack(cols), kind="dual",
                  bands=bands)
    report = DualBuildReport(
        epsilon=max(epsilons.values()) if epsilons else 0.0,
        gamma=hierarchy.gamma, neumann_terms=worst_terms,
        neumann_tail=worst_tail, sampling_ratios=ratios,
        level_epsilons=epsilons)
    return frame, report


def check_band_containment(spec: SpectralData, frame: Frame, tol=1e-10) -> float:
    """Worst coefficient of any frame element on eigenfunctions outside its
    level band; construction should keep it at rounding level."""
    worst = 0.0
    roots = np.sqrt(spec.eigenvalues)
    coeffs = spec.coefficients(frame.columns)
    scale = np.abs(coeffs).max()
    for k in range(frame.size):
        j = frame.hierarchy.xi_level[k]
        lo, hi = frame.bands[j]
        outside = (roots < lo - 1e-12) | (roots > hi + 1e-12)
        if np.any(outside):
            worst = max(worst, float(np.abs(coeffs[outside, k]).max()))
    return worst / max(scale, 1e-300)


def reconstruct(frame: Frame, dual: Frame, f) -> np.ndarray:
    """sum_xi <f, dual_xi> frame_xi."""
    return frame.synthesize(dual.analyze(f))


def frame_bounds_probe(frame: Frame, dual: Frame, spec: SpectralData,
                       n_samples: int = 20, seed: int = 0) -> dict:
    """Measured two-sided L2 frame bounds of the dual coefficient map on
    random mean-zero functions."""
    rng = np.random.default_rng(seed)
    space = spec.space
    F = spec.project_mean_zero(rng.standard_normal((n_samples, space.n)).T)
    nf = space.norm2(F)
    quad = np.sum(np.ascontiguousarray(dual.analyze(F).T) ** 2, axis=1) \
        / nf**2
    resid = np.maximum(space.norm2(reconstruct(frame, dual, F) - F),
                       space.norm2(reconstruct(dual, frame, F) - F)) / nf
    return {"lower": quad.min(initial=np.inf), "upper": quad.max(initial=0.0),
            "residual": resid.max(initial=0.0)}


# ---------------------------------------------------------------------------
# band-limited surrogate symbol and compactly supported frame


@dataclass(frozen=True)
class ThetaSymbol:
    """Even symbol given by a cosine series over nodes in [0, R].

    Its transform is supported in [-R, R] by construction, and the jet
    correction forces derivatives at 0 to vanish through order jet_order-1,
    which keeps u^{-m} Theta band-limited for m <= jet_order.
    """

    R: float
    nodes: np.ndarray
    coeffs: np.ndarray
    jet_order: int
    eps_target: float
    eps_achieved: float
    passed: bool
    N: int
    K: int
    jet_residuals: tuple = ()

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(np.abs(u))
        out = np.cos(np.outer(u, self.nodes)) @ self.coeffs
        return float(out[0]) if scalar else out

    def deriv(self, u, nu: int):
        """Exact nu-th derivative via the cosine representation."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        phase = nu * np.pi / 2.0
        osc = np.cos(np.outer(u, self.nodes) + phase)
        return osc @ (self.coeffs * self.nodes**nu)


def _num_derivative(vals, du, nu):
    out = vals
    for _ in range(nu):
        out = np.gradient(out, du)
    return out


def _cosine_transform(Psi, support: float, n: int, dt: float,
                      du_max: float) -> np.ndarray:
    """2 int_0^support Psi(u) cos(k dt u) du for k = 0..n-1.

    Trapezoid rule with step du = pi/(M dt) <= du_max, so that
    cos(k dt u_i) = cos(pi k i / M) and the whole transform is one DCT-I of
    the zero-padded samples Psi(u_i), i = 0..M.  The integrand is a smooth
    bump, so the rule is spectrally accurate once du resolves the
    oscillation.
    """
    from scipy import fft

    M = int(np.ceil(np.pi / (dt * du_max)))
    du = np.pi / (M * dt)
    samples = np.zeros(M + 1)
    live = int(support / du) + 1
    samples[:live] = np.asarray(Psi(np.arange(live) * du), dtype=float)
    return fft.dct(samples, type=1)[:n] * du


def build_band_limited_theta(Psi, N: int, K: int, eps: float,
                             b: float = 2.0, R0: float = 1024.0,
                             R_max: float = 4096.0,
                             Psi_derivs=None) -> ThetaSymbol:
    """Band-limited surrogate for the band symbol Psi.

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
    from scipy import fft

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
        if Psi_derivs is None:
            psi_vals = np.asarray(Psi(ug), dtype=float)
        worst = 0.0
        for nu in range(0, K + 1):
            # Theta^(nu)(u_j) = (-1)^{ceil(nu/2)} sum_k c_k t_k^nu
            # {cos, sin}(pi k j / L) for nu {even, odd}
            a = np.zeros(L + 1)
            a[:len(t)] = coeffs * t**nu
            if nu % 2 == 0:
                vals = (fft.dct(a, type=1) + a[0]) / 2.0
            else:
                vals = np.pad(fft.dst(a[1:L], type=1), 1) / 2.0
            vals = (-1.0) ** ((nu + 1) // 2) * vals[keep]
            if Psi_derivs is not None:
                ref = np.asarray(Psi_derivs[nu](ug), dtype=float)
            else:
                ref = psi_vals if nu == 0 else \
                    _num_derivative(psi_vals, ug[1] - ug[0], nu)
            worst = max(worst, float((np.abs(vals - ref) / weight).max()))
        theta = ThetaSymbol(R=R, nodes=t, coeffs=coeffs, jet_order=jet,
                            eps_target=eps, eps_achieved=worst,
                            passed=worst <= eps, N=N, K=K,
                            jet_residuals=jet_resid)
        if best is None or worst < best.eps_achieved:
            best = theta
        if worst <= eps:
            return theta
        R *= 2.0
    return best


def build_compact_frame(spec: SpectralData, hierarchy: NetHierarchy,
                        theta: ThetaSymbol, threshold: float = 1e-9) -> tuple:
    """Compactly supported frame theta_xi = |A_xi|^{1/2} Theta(b^{-j}
    sqrt(L))(., xi); returns (Frame, per-level effective support radii)."""
    b = hierarchy.b
    cols = []
    supports = {}
    for net in hierarchy.levels:
        j = net.level
        P = spec.kernel(spec.symbol(theta, b ** (-j)))
        supports[j] = effective_support_radius(
            Kernel(table=P, band=(0.0, 0.0)), spec.space, threshold)
        cols.append(P[:, net.centers] * np.sqrt(net.a_vol)[None, :])
    frame = Frame(hierarchy=hierarchy, columns=np.hstack(cols),
                  kind="compact", bands={n.level: None for n in hierarchy.levels})
    return frame, supports


@dataclass(frozen=True)
class CompactDualReport:
    perturbation_ad_norm: float
    neumann_terms: int
    duality_residual: float
    coeff_matrix: np.ndarray = field(repr=False, default=None)


def build_compact_dual(spec: SpectralData, frame1: Frame, dual: Frame,
                       compact: Frame, params, epsilon: float = 1.0,
                       delta_threshold: float = 0.5,
                       n_probe: int = 10, seed: int = 0):
    """Dual of the compact frame, computed wholly at coefficient level.

    With D_{xi,eta} = <psi_eta - theta_eta, psi~_xi> the transfer operator
    T f = sum <f, psi~_xi> theta_xi satisfies coeff((I-T)g) = D coeff(g),
    so T^{-1} comes from the Neumann inverse of A = I - D.  The dual
    coefficients are t = (A^{-1} B) s with B the primal/dual cross Gram and
    s the dual-frame coefficients of f.
    """
    from mmframes import addiag

    space = spec.space
    mu = space.mu
    hier = frame1.hierarchy
    Dm = dual.columns.T @ (mu[:, None] * (frame1.columns - compact.columns))
    A = addiag.NetMatrix(hierarchy=hier, entries=np.eye(hier.size) - Dm,
                         params=params)
    try:
        Ainv, inv_report = addiag.neumann_invert(A, epsilon, delta_threshold)
    except addiag.NeumannPreconditionError as exc:
        raise RuntimeError(
            f"compact-dual precondition failed: ||I - A||_eps = "
            f"{exc.delta_hat:.3g} >= threshold; shrink eps in the "
            "band-limited symbol") from exc
    B = dual.columns.T @ (mu[:, None] * frame1.columns)
    C = Ainv.entries @ B

    dual_cols = dual.columns @ C.T
    compact_dual = Frame(hierarchy=hier, columns=dual_cols, kind="compact_dual",
                         bands={n.level: None for n in hier.levels})

    rng = np.random.default_rng(seed)
    F = spec.project_mean_zero(rng.standard_normal((n_probe, space.n)).T)
    resid = space.norm2(compact.synthesize(C @ dual.analyze(F)) - F) \
        / space.norm2(F)
    report = CompactDualReport(perturbation_ad_norm=inv_report["delta_hat"],
                               neumann_terms=inv_report["terms"],
                               duality_residual=resid.max(initial=0.0),
                               coeff_matrix=C)
    return compact_dual, report


def default_frames(model_name: str, b: float = 2.0, gamma: float = 0.5,
                   mode: str = "homogeneous"):
    """One-call setup: model, spectrum, hierarchy, primal and dual frames."""
    from mmframes.space import build_model
    from mmframes.calculus import eigendecompose

    space = build_model(model_name)
    spec = eigendecompose(space)
    hier, eps = build_standard_hierarchy(spec, b=b, gamma=gamma, mode=mode)
    Phi = make_cutoff("a", b)
    frame = build_frame1(spec, hier, Phi)
    dual, report = build_dual_frame(spec, hier, Phi)
    return space, spec, hier, Phi, frame, dual, report
