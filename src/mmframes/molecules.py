"""Molecule and atom validators, Gram almost-diagonality, molecular
synthesis/analysis operators and the atomic decomposition.

A molecule family is a set of functions indexed by the hierarchy, one per
net center, obeying localized size, smoothness (powers of L) and
cancellation (L^{+-k} factorization) bounds.  Validators measure the
smallest constant making each bound hold, exhaustively over all centers
and points; atoms additionally carry a compact-support certificate.
"""

from dataclasses import dataclass, field

import numpy as np

from mmframes.space import NetHierarchy
from mmframes.calculus import SpectralData, apply_L_power
from mmframes.seqspace import SpaceParams, seq_norm, function_norm


# ---------------------------------------------------------------------------
# order bookkeeping


@dataclass(frozen=True)
class MoleculeOrders:
    """Integer orders governing the molecule conditions.

    K drives the cancellation factorization, N the smoothness order; each
    is None when the corresponding condition is void at these parameters.
    M_threshold is the strict lower bound for the admissible decay rate.
    """

    flavor: str                  # classical | tilde
    J: float
    K: int
    N: int
    K_void: bool
    N_void: bool
    M_threshold: float
    smoothness_cap: float        # largest s for which cancellation applies
    boundary_agreement: bool = True

    def __post_init__(self):
        if self.K is not None and self.K < 0:
            raise ValueError("negative order K")
        if self.N is not None and self.N < 0:
            raise ValueError("negative order N")


def compute_orders(params: SpaceParams, flavor: str = "classical") -> MoleculeOrders:
    """Exact integer orders for the molecule conditions.

    classical: K = floor((J-s)/2)+1 for s <= J, N = floor(s/2)+1 for
    s >= 0, decay must exceed J.  tilde: the cancellation cap becomes
    J*d/dstar, K switches formula at s = 0, and decay must exceed J+|s|.
    """
    if flavor not in ("classical", "tilde"):
        raise ValueError("flavor must be classical or tilde")
    s, J, d = params.s, params.J, params.d
    boundary = True
    if flavor == "classical":
        cap = J
        K_void = s > cap
        K = int(np.floor((J - s) / 2.0)) + 1 if not K_void else None
        thresh = J
    else:
        cap = J * d / params.dstar if params.dstar > 0 else np.inf
        K_void = s > cap
        if K_void:
            K = None
        elif s < 0:
            K = int(np.floor((J - s) / 2.0)) + 1
        else:
            K = int(np.floor((J - s * params.dstar / d) / 2.0)) + 1
        # at s = 0 the two K branches must coincide
        k_neg_limit = int(np.floor((J - 0.0) / 2.0)) + 1
        k_pos_limit = int(np.floor((J - 0.0 * params.dstar / d) / 2.0)) + 1
        boundary = k_neg_limit == k_pos_limit
        thresh = J + abs(s)
    N_void = s < 0
    N = int(np.floor(s / 2.0)) + 1 if not N_void else None
    return MoleculeOrders(flavor=flavor, J=J, K=K, N=N, K_void=K_void,
                          N_void=N_void, M_threshold=thresh,
                          smoothness_cap=cap, boundary_agreement=boundary)


# ---------------------------------------------------------------------------
# validators


@dataclass(frozen=True)
class MoleculeCertificate:
    flavor: str            # synthesis | analysis
    space_flavor: str      # classical | tilde
    orders: MoleculeOrders
    M: float
    constants: dict
    passed: bool
    budget: float
    companion: np.ndarray = field(repr=False, default=None)
    factorization_residual: float = 0.0


def _as_columns(family, hier: NetHierarchy) -> np.ndarray:
    cols = np.asarray(family, dtype=float)
    if cols.shape != (hier.space.n, hier.size):
        raise ValueError("family must be an (n, hierarchy size) column table")
    return cols


def _envelope(hier: NetHierarchy, decay: float) -> np.ndarray:
    """(n, size) table of |B_xi|^{-1/2} (1 + rho(x,xi)/l(xi))^{-decay}."""
    rho = hier.space.dist[:, hier.xi_point]
    ell = hier.xi_ell[None, :]
    return hier.xi_bvol[None, :] ** -0.5 * (1.0 + rho / ell) ** (-decay)


def _ladder(spec: SpectralData, cols: np.ndarray, top: int):
    """L^nu cols for nu = 0..top, each from the one before."""
    for nu in range(top + 1):
        yield cols
        if nu < top:
            cols = apply_L_power(spec, cols, 1, mod_nullspace=True)


def _companion(spec: SpectralData, cols, K: int, companions, hier,
               mask) -> tuple:
    """Cancellation companion h with L^K h = cols, spectral L^{-K} cols
    unless given (K = 0 gives cols itself), and the relative factorization
    residual |L^K h - cols| over the centers in mask."""
    if K == 0:
        return cols.copy(), 0.0
    if companions is None:
        companion = apply_L_power(spec, cols, -K, mod_nullspace=True)
    else:
        companion = _as_columns(companions, hier)
    rebuilt = apply_L_power(spec, companion, K, mod_nullspace=True)
    scale = max(1.0, np.abs(cols).max())
    resid = float(np.abs(rebuilt - cols)[:, mask].max() / scale) \
        if mask.any() else 0.0
    return companion, resid


def _worst_constant(cols, env, mask=None) -> float:
    R = np.abs(cols) / env
    if mask is not None:
        R = R[:, mask]
        if R.size == 0:
            return 0.0
    return float(R.max())


def validate_molecule(family, hier: NetHierarchy, flavor: str,
                      space_flavor: str, params: SpaceParams,
                      spec: SpectralData, M: float, companions=None,
                      budget: float = 1.0,
                      inhomogeneous: bool = False) -> MoleculeCertificate:
    """Smallest constants making the molecule bounds hold for the family.

    flavor selects synthesis or analysis conditions; space_flavor selects
    the classical or tilde order rules.  Cancellation companions default
    to spectral negative powers of L applied to the family (requires
    mean-zero columns); pass companions explicitly for adversarial tests.
    In inhomogeneous mode the cancellation condition is skipped for
    centers at level 0.
    """
    if flavor not in ("synthesis", "analysis"):
        raise ValueError("flavor must be synthesis or analysis")
    orders = compute_orders(params, space_flavor)
    if not (M > orders.M_threshold):
        raise ValueError("decay rate must exceed the flavor threshold")
    cols = _as_columns(family, hier)
    s = params.s
    decay = M if flavor == "synthesis" else M + params.d
    env = _envelope(hier, decay)
    ell2 = hier.xi_ell[None, :] ** 2

    constants = {"size": _worst_constant(cols, env)}
    companion = None
    fact_resid = 0.0

    # which centers the cancellation condition applies to
    canc_mask = np.ones(hier.size, dtype=bool)
    if inhomogeneous:
        canc_mask = hier.xi_level != 0

    # synthesis: smoothness through L^N when s >= 0 (from nu = 1 in the
    # classical flavor), cancellation through L^K when s is below the cap
    # (and s >= 0 in the tilde flavor); analysis: smoothness through L^K
    # and cancellation through L^N
    classical = space_flavor == "classical"
    if flavor == "synthesis":
        smooth, lo = (None if orders.N_void else orders.N), int(classical)
        canc = None if orders.K_void or (not classical and s < 0) \
            else orders.K
        canc_top = None if canc is None else canc - int(classical)
    else:
        smooth, lo = (None if orders.K_void else orders.K), 0
        canc = canc_top = None if orders.N_void else orders.N
    if smooth is not None:
        constants["smoothness"] = max(
            _worst_constant(g * ell2**nu, env)
            for nu, g in enumerate(_ladder(spec, cols, smooth)) if nu >= lo)
    if canc is not None:
        companion, fact_resid = _companion(spec, cols, canc, companions,
                                           hier, canc_mask)
        constants["companion_size"] = max(
            _worst_constant(g / ell2 ** (canc - nu), env, canc_mask)
            for nu, g in enumerate(_ladder(spec, companion, canc_top)))

    passed = all(c <= budget for c in constants.values()) and \
        fact_resid <= 1e-9
    return MoleculeCertificate(flavor=flavor, space_flavor=space_flavor,
                               orders=orders, M=M, constants=constants,
                               passed=passed, budget=budget,
                               companion=companion,
                               factorization_residual=fact_resid)


def scaling_for_budget(cert: MoleculeCertificate) -> float:
    """The largest c such that scaling the family by c passes the budget."""
    worst = max(cert.constants.values())
    return np.inf if worst == 0 else cert.budget / worst


# ---------------------------------------------------------------------------
# Gram matrices


def gram(synth_family, anal_family, hier: NetHierarchy,
         params: SpaceParams, deltas=None):
    """Cross Gram a_{xi,eta} = <m_eta, m~_xi>_mu with a decay certificate.

    Scans a delta grid and reports the smallest measured c with
    |a_{xi,eta}| <= c omega_{xi,eta}(delta), together with the delta
    attaining it.  Returns (NetMatrix, certificate dict).
    """
    from mmframes import addiag

    ms = _as_columns(synth_family, hier)
    ma = _as_columns(anal_family, hier)
    mu = hier.space.mu
    A = addiag.NetMatrix(hierarchy=hier, entries=ma.T @ (mu[:, None] * ms),
                         params=params)
    if deltas is None:
        deltas = (0.125, 0.25, 0.5, 1.0, 2.0)
    best = None
    scan = {}
    for delta in deltas:
        c = addiag.ad_norm(A, delta).value
        scan[delta] = c
        if best is None or c < best[1]:
            best = (delta, c)
    cert = {"delta": best[0], "c": best[1], "scan": scan,
            "passed": np.isfinite(best[1])}
    return A, cert


# ---------------------------------------------------------------------------
# synthesis / analysis operators


def _per_column(x, out, report):
    """(out, report) for the table form of x, or for its one column when x
    is a vector: out's column and the report's values as floats."""
    if np.ndim(x) == 2:
        return out, report
    return out[:, 0], {k: float(v[0]) for k, v in report.items()}


def _ratio(num, den):
    """num / den per column, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0)


def molecular_synthesis(t, family, hier: NetHierarchy, params: SpaceParams,
                        spec: SpectralData, phi, b: float = 2.0,
                        window=None):
    """f = sum_xi t_xi m_xi with the measured norm ratio
    ||f||_F / ||t||_f; an (m, k) table of sequences gives k functions and
    k of each report value."""
    cols = _as_columns(family, hier)
    t = np.asarray(t, dtype=float)
    if t.ndim not in (1, 2) or t.shape[0] != hier.size:
        raise ValueError("coefficient sequence does not match the hierarchy")
    T = t.reshape(hier.size, -1)
    f = cols @ T
    tn = seq_norm(T, params, hier)
    fn = function_norm(f, params, spec, phi, b, window)
    return _per_column(t, f, {"function_norm": fn, "seq_norm": tn,
                              "ratio": _ratio(fn, tn)})


def molecular_analysis(f, anal_family, frame, dual, hier: NetHierarchy,
                       params: SpaceParams, spec: SpectralData, phi,
                       b: float = 2.0, window=None):
    """Coefficients <f, m~_xi> through the frame expansion
    sum_eta <m~_xi, psi_eta> <f, psi~_eta>, with the measured ratio
    ||coeffs||_f / ||f||_F; an (n, k) table of functions gives an (m, k)
    table and k of each report value, from one Gram product.

    On a finite model the expansion collapses to the direct mu-inner
    product for mean-zero f; the residual between the two is reported.
    """
    cols = _as_columns(anal_family, hier)
    mu = hier.space.mu[:, None]
    F = spec.project_mean_zero(
        np.asarray(f, dtype=float).reshape(hier.space.n, -1))
    A = cols.T @ (mu * frame.columns)             # <m~_xi, psi_eta>
    coeffs = A @ dual.analyze(F)                  # <f, psi~_eta>
    direct = cols.T @ (mu * F)
    scale = np.maximum(1.0, np.abs(direct).max(axis=0, initial=0.0))
    fn = function_norm(F, params, spec, phi, b, window)
    cn = seq_norm(coeffs, params, hier)
    return _per_column(f, coeffs, {
        "seq_norm": cn, "function_norm": fn, "ratio": _ratio(cn, fn),
        "identity_residual": np.abs(coeffs - direct).max(axis=0, initial=0.0)
        / scale})


# ---------------------------------------------------------------------------
# atoms


@dataclass(frozen=True)
class AtomCertificate:
    K: int
    K_tilde: int
    constants: dict
    support_constant: float
    support_radii: dict
    passed: bool
    budget: float
    companion: np.ndarray = field(repr=False, default=None)


def minimal_atom_orders(params: SpaceParams) -> tuple:
    """(K, K~) lower bounds for the atom factorization and smoothness."""
    K = max(int(np.floor((params.J - params.s) / 2.0)) + 1, 0)
    Kt = max(int(np.floor(params.s / 2.0)) + 2, 0)
    return K, Kt


def validate_atoms(family, hier: NetHierarchy, params: SpaceParams,
                   spec: SpectralData, K: int = None, K_tilde: int = None,
                   budget: float = 1.0, support_threshold: float = 1e-9,
                   companions=None) -> AtomCertificate:
    """Atom certificate: factorization through L^K, plain (undecayed) size
    bounds for powers of L, and the compact-support constant.

    The support constant is the smallest c with every effective support
    (relative threshold support_threshold) inside c B_xi.
    """
    K_min, Kt_min = minimal_atom_orders(params)
    K = K_min if K is None else K
    K_tilde = Kt_min if K_tilde is None else K_tilde
    if K < K_min or K_tilde < Kt_min:
        raise ValueError("orders below the admissible thresholds")
    cols = _as_columns(family, hier)
    ell2 = hier.xi_ell[None, :] ** 2
    base = hier.xi_bvol[None, :] ** -0.5

    constants = {"smoothness": max(
        _worst_constant(g * ell2**nu, base)
        for nu, g in enumerate(_ladder(spec, cols, K_tilde)))}
    companion, fact_resid = _companion(spec, cols, K, companions, hier,
                                       np.ones(hier.size, dtype=bool))

    worst = 0.0
    supp_c = 0.0
    radii = {}
    dist = hier.space.dist
    for nu, g in enumerate(_ladder(spec, companion, K)):
        worst = max(worst, _worst_constant(g / ell2 ** (K - nu), base))
        gmax = np.abs(g).max(axis=0)
        level_worst = {}
        for net in hier.levels:
            sl = hier.level_slice(net.level)
            rmax = 0.0
            for k, center in enumerate(net.centers):
                col = np.abs(g[:, sl][:, k])
                tol = support_threshold * max(gmax[sl][k], 1e-300)
                live = col > tol
                if live.any():
                    r = float(dist[live, center].max())
                    rmax = max(rmax, r)
                    supp_c = max(supp_c, r / net.delta)
            level_worst[net.level] = rmax
        radii[nu] = level_worst
    constants["companion_size"] = worst

    passed = all(c <= budget for c in constants.values()) and \
        fact_resid <= 1e-9
    return AtomCertificate(K=K, K_tilde=K_tilde, constants=constants,
                           support_constant=supp_c, support_radii=radii,
                           passed=passed, budget=budget, companion=companion)


def atomic_decompose(f, compact, compact_dual, hier: NetHierarchy,
                     params: SpaceParams, spec: SpectralData, phi,
                     b: float = 2.0, window=None, cstar: float = None,
                     atom_cert: AtomCertificate = None):
    """f = sum_xi t_xi a_xi with atoms a_xi = cstar theta_xi from the
    compact frame and t_xi = <f, theta~_xi> / cstar; an (n, k) table of
    functions gives an (m, k) table t and k of each report value.

    Reports the reconstruction residual relative to l2_norm, the L^2 norm
    of f, and both measured norm constants ||t||_f / ||f||_F and
    ||sum t a|| / ||t||.
    """
    space = spec.space
    F = spec.project_mean_zero(np.asarray(f, dtype=float).reshape(space.n, -1))
    raw = compact_dual.analyze(F)
    nf = space.norm2(F)
    residual = _ratio(space.norm2(compact.synthesize(raw) - F), nf)
    if cstar is None:
        if atom_cert is not None:
            worst = max(atom_cert.constants.values())
            cstar = atom_cert.budget / worst if worst > 0 else 1.0
        else:
            cstar = 1.0
    t = raw / cstar
    atoms = compact.columns * cstar
    fn = function_norm(F, params, spec, phi, b, window)
    tn = seq_norm(t, params, hier)
    t, report = _per_column(f, t, {
        "residual": residual, "l2_norm": nf,
        "analysis_constant": _ratio(tn, fn),
        "synthesis_constant": _ratio(
            function_norm(atoms @ t, params, spec, phi, b, window), tn),
    })
    report["cstar"] = cstar
    return t, atoms, report
