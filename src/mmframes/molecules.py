"""Molecule and atom validators, Gram almost-diagonality, molecular
synthesis/analysis operators and the atomic decomposition.

A molecule family is a set of functions indexed by the hierarchy, one per
net center, obeying localized size, smoothness (powers of L) and
cancellation (L^{+-k} factorization) bounds.  Validators measure the
smallest constant making each bound hold, exhaustively over all centers
and points; atoms additionally carry a compact-support certificate.
"""

from dataclasses import dataclass

import numpy as np

from mmframes import addiag
from mmframes.space import NetHierarchy
from mmframes.calculus import SpectralData, SUPPORT_THRESHOLD, apply_L_power
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
    M_threshold: float
    smoothness_cap: float        # largest s for which cancellation applies

    def __post_init__(self):
        if self.K is not None and self.K < 0:
            raise ValueError("negative order K")
        if self.N is not None and self.N < 0:
            raise ValueError("negative order N")


def compute_orders(params: SpaceParams) -> MoleculeOrders:
    """Exact integer orders for the molecule conditions in params' flavor.

    classical: K = floor((J-s)/2)+1 for s <= J, N = floor(s/2)+1 for
    s >= 0, decay must exceed J.  tilde: the cancellation cap becomes
    J*d/dstar, K switches formula at s = 0, and decay must exceed J+|s|.
    """
    flavor, s, J, d = params.flavor, params.s, params.J, params.d
    if flavor == "classical":
        cap = J
        K = int(np.floor((J - s) / 2.0)) + 1 if s <= cap else None
        thresh = J
    else:
        cap = J * d / params.dstar if params.dstar > 0 else np.inf
        if s > cap:
            K = None
        elif s < 0:
            K = int(np.floor((J - s) / 2.0)) + 1
        else:
            K = int(np.floor((J - s * params.dstar / d) / 2.0)) + 1
        thresh = J + abs(s)
    N = int(np.floor(s / 2.0)) + 1 if s >= 0 else None
    return MoleculeOrders(flavor=flavor, J=J, K=K, N=N, M_threshold=thresh,
                          smoothness_cap=cap)


# ---------------------------------------------------------------------------
# validators


@dataclass(frozen=True)
class MoleculeCertificate:
    flavor: str            # synthesis | analysis
    orders: MoleculeOrders
    M: float
    constants: dict
    passed: bool
    factorization_residual: float


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


def _worst(ladder: dict, powers, ell2, env, mask=slice(None)) -> float:
    """Largest |L^mu cols| l(xi)^(2 mu) / env over mu in powers and the
    centers in mask, reading L^mu cols from ladder[mu]; 0 on no centers."""
    return max(float((np.abs(ladder[mu][:, mask]) * ell2[:, mask] ** mu
                      / env[:, mask]).max(initial=0.0)) for mu in powers)


def _factorization_residual(rebuilt, cols, mask) -> float:
    """|L^K h - cols| over the centers in mask, relative to max(1, |cols|),
    for rebuilt = L^K h."""
    scale = max(1.0, np.abs(cols).max())
    return float(np.abs(rebuilt - cols)[:, mask].max(initial=0.0) / scale)


def validate_molecule(family, hier: NetHierarchy, flavor: str,
                      params: SpaceParams, spec: SpectralData,
                      companions=None) -> MoleculeCertificate:
    """Smallest constants making the molecule bounds hold for the family,
    which passes when none exceeds 1.

    flavor selects synthesis or analysis conditions; params.flavor selects
    the classical or tilde order rules, and the decay rate M is half above
    their threshold, M_threshold + 1/2.  Cancellation companions default
    to spectral negative powers of L applied to the family (requires
    mean-zero columns); pass companions explicitly for adversarial tests.
    On an inhomogeneous hierarchy the cancellation condition is skipped
    for centers at level 0.
    """
    if flavor not in ("synthesis", "analysis"):
        raise ValueError("flavor must be synthesis or analysis")
    orders = compute_orders(params)
    M = orders.M_threshold + 0.5
    cols = _as_columns(family, hier)
    s = params.s
    decay = M if flavor == "synthesis" else M + params.d
    env = _envelope(hier, decay)
    ell2 = hier.xi_ell[None, :] ** 2

    # which centers the cancellation condition applies to
    canc_mask = hier.xi_level != 0 if hier.mode == "inhomogeneous" \
        else slice(None)

    # synthesis: smoothness through L^N when s >= 0 (from mu = 1 in the
    # classical flavor), cancellation through L^-K when s is below the cap
    # (and s >= 0 in the tilde flavor, up to mu = -1 in the classical one);
    # analysis: smoothness through L^K and cancellation through L^-N.  Every
    # power is read from one ladder of the family, the companion h = L^-K
    # cols among them, unless the companions are given
    classical = orders.flavor == "classical"
    if flavor == "synthesis":
        smooth, lo = orders.N, int(classical)
        canc = None if not classical and s < 0 else orders.K
        canc_hi = -int(classical)
    else:
        smooth, lo = orders.K, 0
        canc, canc_hi = orders.N, 0
    depth = canc if canc is not None and companions is None else 0
    ladder = apply_L_power(spec, cols, -depth, smooth or 0)
    constants = {"size": _worst(ladder, [0], ell2, env)}
    if smooth is not None:
        constants["smoothness"] = _worst(ladder, range(lo, smooth + 1),
                                         ell2, env)
    fact_resid = 0.0
    if canc is not None:
        if companions is None:
            rebuilt = apply_L_power(spec, ladder[-canc], canc, canc)[canc]
        else:
            ladder = {nu - canc: g for nu, g in apply_L_power(
                spec, _as_columns(companions, hier), 0, canc).items()}
            rebuilt = ladder[0]
        fact_resid = _factorization_residual(rebuilt, cols, canc_mask)
        constants["companion_size"] = _worst(
            ladder, range(-canc, canc_hi + 1), ell2, env, canc_mask)

    passed = all(c <= 1.0 for c in constants.values()) and \
        fact_resid <= 1e-9
    return MoleculeCertificate(flavor=flavor, orders=orders, M=M,
                               constants=constants, passed=passed,
                               factorization_residual=fact_resid)


def scaling_for_budget(cert) -> float:
    """The largest c such that scaling the family by c keeps every constant
    within 1, from a MoleculeCertificate or an AtomCertificate."""
    worst = max(cert.constants.values())
    return np.inf if worst == 0 else 1.0 / worst


# ---------------------------------------------------------------------------
# Gram matrices


def gram(synth_family, anal_family, hier: NetHierarchy, params: SpaceParams):
    """Cross Gram a_{xi,eta} = <m_eta, m~_xi>_mu with a decay certificate.

    Reports the least c with |a_{xi,eta}| <= c omega_{xi,eta}(delta) at
    delta = 1/8: ||A||_delta cannot fall as delta grows, since log omega(delta)
    = log omega(0) - delta (G + |lam|) with G + |lam| >= 0.  Returns the
    certificate dict; A = ma^T M ms is formed a level block at a time, never
    whole.
    """
    ms = _as_columns(synth_family, hier)
    ma = _as_columns(anal_family, hier)
    c = addiag.ad_norm(hier, params, ma.T, hier.space.mu[:, None] * ms, 0.125)
    return {"delta": 0.125, "c": c, "passed": np.isfinite(c)}


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
                        spec: SpectralData, phi):
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
    fn = function_norm(f, params, spec, phi)
    return _per_column(t, f, {"function_norm": fn, "seq_norm": tn,
                              "ratio": _ratio(fn, tn)})


def molecular_analysis(f, anal_family, frame, dual, params: SpaceParams,
                       spec: SpectralData, phi):
    """Coefficients <f, m~_xi> through the frame expansion
    sum_eta <m~_xi, psi_eta> <f, psi~_eta>, with the measured ratio
    ||coeffs||_f / ||f||_F; an (n, k) table of functions gives an (m, k)
    table and k of each report value.  The expansion is taken as
    <m~_xi, sum_eta <f, psi~_eta> psi_eta>, so no m x m Gram is formed.

    On a finite model the expansion collapses to the direct mu-inner
    product for mean-zero f; the residual between the two is reported.
    """
    hier = frame.hierarchy
    cols = _as_columns(anal_family, hier)
    mu = hier.space.mu[:, None]
    F = spec.project_mean_zero(
        np.asarray(f, dtype=float).reshape(hier.space.n, -1))
    coeffs = cols.T @ (mu * frame.synthesize(dual.analyze(F)))
    direct = cols.T @ (mu * F)
    scale = np.maximum(1.0, np.abs(direct).max(axis=0, initial=0.0))
    fn = function_norm(F, params, spec, phi)
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


def minimal_atom_orders(params: SpaceParams) -> tuple:
    """(K, K~) lower bounds for the atom factorization and smoothness."""
    K = max(int(np.floor((params.J - params.s) / 2.0)) + 1, 0)
    Kt = max(int(np.floor(params.s / 2.0)) + 2, 0)
    return K, Kt


def validate_atoms(family, hier: NetHierarchy, params: SpaceParams,
                   spec: SpectralData) -> AtomCertificate:
    """Atom certificate at the minimal orders (K, K~): factorization through
    L^K, plain (undecayed) size bounds for powers of L up to K~, and the
    compact-support constant; it passes when no constant exceeds 1.

    The support constant is the smallest c with every effective support
    (relative threshold SUPPORT_THRESHOLD) inside c B_xi.
    """
    K, K_tilde = minimal_atom_orders(params)
    cols = _as_columns(family, hier)
    ell2 = hier.xi_ell[None, :] ** 2
    base = hier.xi_bvol[None, :] ** -0.5

    # one ladder L^mu cols, mu = -K..K~: the companion h = L^-K cols and
    # its powers L^nu h = L^(nu-K) cols are the rungs mu <= 0
    ladder = apply_L_power(spec, cols, -K, K_tilde)
    constants = {"smoothness": _worst(ladder, range(K_tilde + 1), ell2, base),
                 "companion_size": _worst(ladder, range(-K, 1), ell2, base)}
    fact_resid = _factorization_residual(
        apply_L_power(spec, ladder[-K], K, K)[K], cols, slice(None))

    supp_c = 0.0
    radii = {}
    dist = hier.space.dist[:, hier.xi_point]
    delta = np.repeat([net.delta for net in hier.levels],
                      [net.size for net in hier.levels])
    for nu in range(K + 1):
        g = np.abs(ladder[nu - K])
        live = g > SUPPORT_THRESHOLD * np.maximum(g.max(axis=0), 1e-300)
        r = np.where(live, dist, 0.0).max(axis=0, initial=0.0)
        supp_c = max(supp_c, float((r / delta).max(initial=0.0)))
        radii[nu] = {net.level: float(r[sl].max(initial=0.0))
                     for net, sl in zip(hier.levels, hier.blocks)}

    passed = all(c <= 1.0 for c in constants.values()) and \
        fact_resid <= 1e-9
    return AtomCertificate(K=K, K_tilde=K_tilde, constants=constants,
                           support_constant=supp_c, support_radii=radii,
                           passed=passed)


def atomic_decompose(f, compact, compact_dual, params: SpaceParams,
                     spec: SpectralData, phi, cstar: float = 1.0):
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
    t = raw / cstar
    atoms = compact.columns * cstar
    fn = function_norm(F, params, spec, phi)
    tn = seq_norm(t, params, compact.hierarchy)
    t, report = _per_column(f, t, {
        "residual": residual, "l2_norm": nf,
        "analysis_constant": _ratio(tn, fn),
        "synthesis_constant": _ratio(
            function_norm(atoms @ t, params, spec, phi), tn),
    })
    report["cstar"] = cstar
    return t, atoms, report
