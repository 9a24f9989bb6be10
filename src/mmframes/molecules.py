"""Molecule and atom validators, molecular synthesis/analysis operators
and the atomic decomposition.

A molecule family is a set of functions indexed by the hierarchy, one per
net center, obeying localized size, smoothness (powers of L) and
cancellation (L^{+-k} factorization) bounds.  Validators measure the
smallest constant making each bound hold, exhaustively over all centers
and points; atoms additionally carry a compact-support certificate.  A
family is a Frame: its hierarchy, spectrum and level spans are read from
it, and every product runs over the spans (Frame.matvec, Frame.rmatvec,
and _ladder, on each level's block formed on demand).
"""

from dataclasses import dataclass, replace

import numpy as np

from mmframes.calculus import SUPPORT_THRESHOLD
from mmframes.seqspace import SpaceParams, seq_norm, frame_norm


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
    """One flavour's constants for one family; the factorization residual
    is factorization_defect = max |L^K h - cols| over max(1, max |cols|)."""
    flavor: str            # synthesis | analysis
    orders: MoleculeOrders
    M: float
    constants: dict
    factorization_defect: float
    column_max: float      # max |cols|

    @property
    def factorization_residual(self) -> float:
        return self.factorization_defect / max(1.0, self.column_max)

    @property
    def passed(self) -> bool:
        return all(c <= 1.0 for c in self.constants.values()) and \
            self.factorization_residual <= 1e-9

    def scaled(self, c: float):
        """The certificate of the family times c > 0."""
        return replace(self, column_max=c * self.column_max,
                       factorization_defect=c * self.factorization_defect,
                       constants={k: c * v for k, v in self.constants.items()})


def _column_max(X, env) -> np.ndarray:
    """max over x (the first axis) of |X| / env."""
    A = np.abs(X)
    A /= env
    return A.max(axis=0, initial=0.0)


def _ladder(families, mus):
    """(sl, i, Y, defect) for each level sl and Frame i of families, which
    share one hierarchy: Y[:, r] is L^mus[r] of its columns a on sl,
    lambda^mu coeffs (0^0 = 1, else 0 on the nullspace) synthesised over the
    frame's span on the level (Frame.block), in one buffer reused at the
    next yield;
    defect is the column maxima of |a's nullspace part| = |L^K h - a|,
    h = L^-K a."""
    hier, spec = families[0].hierarchy, families[0].spec
    if any(f.hierarchy is not hier or f.spec is not spec for f in families):
        raise ValueError("families must share one hierarchy and spectrum")
    lam, E, k0 = spec.eigenvalues, spec.eigenfunctions, spec.nullspace_dim
    pw = np.zeros((len(lam), len(mus)))
    pw[lam > 0] = lam[lam > 0, None] ** mus
    pw[lam == 0] = np.asarray(mus) == 0
    buf = np.empty(len(lam) * len(mus) * max(
        sl.stop - sl.start for sl in hier.blocks))
    for k, sl in enumerate(hier.blocks):
        shape = (len(mus), sl.stop - sl.start)
        out = buf[:len(lam) * np.prod(shape)].reshape(len(lam), -1)
        for i, fam in enumerate(families):
            lo, hi, B = fam.block(k)
            Y = np.matmul(E[:, lo:hi], (pw[lo:hi, :, None] * B[:, None])
                          .reshape(hi - lo, np.prod(shape)),
                          out=out).reshape(-1, *shape)
            z = max(min(k0, hi) - lo, 0)  # B's rows on the nullspace
            null = E[:, lo:lo + z] @ B[:z]
            yield sl, i, Y, np.abs(null).max(axis=0, initial=0.0)


def validate_molecule(families, params: SpaceParams) -> list:
    """{flavor: MoleculeCertificate}, synthesis and analysis, per Frame of
    families, which share one hierarchy.  One passes when no constant
    exceeds 1 and the factorization residual is at most 1e-9;
    M = M_threshold + 1/2 (M + d for analysis).

    One ladder per family serves both flavours: L^mu of its columns,
    mu = -max(K, N) .. max(K, N), a level at a time (_ladder).  Each
    (rung, flavour) reduces to the column maxima of |L^mu cols| /
    envelope, times l(xi)^(2 mu); each constant is a maximum of those.  The
    defect, L^K h - cols, is the family's nullspace part; an inhomogeneous
    hierarchy waives it and cancellation at level 0."""
    orders = compute_orders(params)
    M = orders.M_threshold + 0.5
    # powers[flavor][constant] = (lowest, highest) mu, a void one left out.
    # Synthesis: smoothness through L^N when s >= 0 (from mu = 1 in the
    # classical flavour), cancellation through L^-K when s is below the cap
    # (and s >= 0 in the tilde flavour, to mu = -1 in the classical one);
    # analysis: smoothness through L^K and cancellation through L^-N
    c, K, N = int(orders.flavor == "classical"), orders.K, orders.N
    canc = None if not c and params.s < 0 else K
    powers = {flavor: {name: mus for name, mus in conds.items()
                       if None not in mus} for flavor, conds in (
        ("synthesis", {"size": (0, 0), "smoothness": (c, N),
                       "companion_size": (canc and -canc, -c)}),
        ("analysis", {"size": (0, 0), "smoothness": (0, K),
                      "companion_size": (N and -N, 0)}))}
    depth = max(K or 0, N or 0)
    mus = np.arange(-depth, depth + 1)

    hier = families[0].hierarchy
    # maxima[i, flavour, depth + mu, xi], synthesis then analysis
    maxima = np.empty((len(families), 2, len(mus), hier.size))
    defect = np.empty((len(families), hier.size))
    top = np.zeros(len(families))
    for sl, i, Y, d in _ladder(families, mus):
        defect[i, sl] = d
        top[i] = max(top[i], np.abs(Y[:, depth]).max(initial=0.0))
        if i == 0:
            # |B_xi|^{-1/2} (1 + rho(x, xi)/l(xi))^{-decay} on the level
            grow = 1.0 + hier.space.dist[:, hier.xi_point[sl]] \
                / hier.xi_ell[sl]
            env = [hier.xi_bvol[sl] ** -0.5 * grow ** -decay
                   for decay in (M, M + params.d)]
        for f, e in enumerate(env):
            maxima[i, f, :, sl] = _column_max(Y, e[:, None])
    maxima *= (hier.xi_ell ** 2) ** mus[:, None]

    canc_mask = hier.xi_level != 0 if hier.mode == "inhomogeneous" \
        else slice(None)
    return [{flavor: MoleculeCertificate(
        flavor=flavor, orders=orders, M=M,
        factorization_defect=float(d[canc_mask].max(initial=0.0)),
        column_max=float(col_max),
        constants={name: float(v[depth + a:depth + b + 1, canc_mask if
                                 name == "companion_size" else slice(None)]
                               .max(initial=0.0))
                   for name, (a, b) in powers[flavor].items()})
        for flavor, v in zip(powers, fam)}
        for fam, col_max, d in zip(maxima, top, defect)]


def scaling_for_budget(cert) -> float:
    """The largest c such that scaling the family by c keeps every constant
    within 1, from a MoleculeCertificate or an AtomCertificate."""
    worst = max(cert.constants.values())
    return np.inf if worst == 0 else 1.0 / worst


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


def molecular_synthesis(t, family, params: SpaceParams):
    """f = sum_xi t_xi m_xi, m the Frame family, with the measured ratio
    ||f||_F / ||t||_f; an (m, k) table of sequences gives k functions and
    k of each report value."""
    hier = family.hierarchy
    t = np.asarray(t, dtype=float)
    if t.ndim not in (1, 2) or t.shape[0] != hier.size:
        raise ValueError("coefficient sequence does not match the hierarchy")
    T = t.reshape(hier.size, -1)
    f = family.synthesize(T)
    tn = seq_norm(T, params, hier)
    fn = frame_norm(f, params, family)
    return _per_column(t, f, {"function_norm": fn, "seq_norm": tn,
                              "ratio": _ratio(fn, tn)})


def molecular_analysis(f, anal_family, frame, dual, params: SpaceParams):
    """Coefficients <f, m~_xi> through the frame expansion
    sum_eta <m~_xi, psi_eta> <f, psi~_eta>, m~ the Frame anal_family, with
    the measured ratio ||coeffs||_f / ||f||_F; an (n, k) table of functions
    gives an (m, k) table and k of each report value.  The expansion is
    taken on the tables as m~^T (V (U~^T c)), c the coefficients of f, so
    no m x m Gram is formed.  On a finite model it collapses to the direct
    m~^T c for mean-zero f; the residual between the two is reported.
    """
    hier, spec = frame.hierarchy, frame.spec
    F = spec.project_mean_zero(
        np.asarray(f, dtype=float).reshape(hier.space.n, -1))
    c = spec.coefficients(F)
    coeffs = anal_family.rmatvec(frame.matvec(dual.rmatvec(c)))
    direct = anal_family.rmatvec(c)
    scale = np.maximum(1.0, np.abs(direct).max(axis=0, initial=0.0))
    fn = frame_norm(F, params, frame)
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


def validate_atoms(family, params: SpaceParams) -> AtomCertificate:
    """Atom certificate of a Frame family at the minimal orders (K, K~):
    factorization through L^K, undecayed size bounds for powers of L up to
    K~ and the compact-support constant; it passes when none exceeds 1.

    The support constant is the smallest c with every effective support
    (relative threshold SUPPORT_THRESHOLD) inside c B_xi.
    """
    K, K_tilde = minimal_atom_orders(params)
    hier, spec = family.hierarchy, family.spec
    # powers below 0 are taken modulo the nullspace
    null = top = 0.0
    for k in range(len(hier.levels)) if K else ():
        lo, hi, B = family.block(k)
        B = np.abs(B)
        null = max(null, B[:max(spec.nullspace_dim - lo, 0)].max(initial=0.0))
        top = max(top, B.max(initial=0.0))
    if null > 1e-10 * max(1.0, top):
        raise ValueError("negative power on a function with nullspace component")
    base = hier.xi_bvol ** -0.5
    mus = np.arange(-K, K_tilde + 1)
    maxima, defect = np.empty((len(mus), hier.size)), np.empty(hier.size)
    top = 0.0
    supp_c, radii = 0.0, {nu: {} for nu in range(K + 1)}

    # one ladder L^mu a, mu = -K..K~, a level at a time (_ladder): the
    # companion h = L^-K a and its powers L^nu h = L^(nu-K) a are the rungs
    # mu <= 0, and rung 0 is the family a itself
    for (sl, _, Y, d), net in zip(_ladder([family], mus), hier.levels):
        maxima[:, sl], defect[sl] = _column_max(Y, base[sl]), d
        live = np.abs(Y[:, :K + 1])
        top = max(top, live[:, K].max(initial=0.0))
        live = live > SUPPORT_THRESHOLD * np.maximum(live.max(axis=0), 1e-300)
        r = np.where(live, hier.space.dist[:, None, hier.xi_point[sl]],
                     0.0).max(axis=0, initial=0.0)
        supp_c = max(supp_c, float((r / net.delta).max(initial=0.0)))
        for nu in range(K + 1):
            radii[nu][net.level] = float(r[nu].max(initial=0.0))
    maxima *= (hier.xi_ell ** 2) ** mus[:, None]
    constants = {"smoothness": float(maxima[K:].max(initial=0.0)),
                 "companion_size": float(maxima[:K + 1].max(initial=0.0))}
    # at K = 0, h is a itself: nothing is factored
    fact_resid = defect.max() / max(1.0, top) if K else 0.0

    passed = all(c <= 1.0 for c in constants.values()) and \
        fact_resid <= 1e-9
    return AtomCertificate(K=K, K_tilde=K_tilde, constants=constants,
                           support_constant=supp_c, support_radii=radii,
                           passed=passed)


def atomic_decompose(f, compact, compact_dual, params: SpaceParams,
                     cstar: float = 1.0):
    """f = sum_xi t_xi a_xi with atoms a_xi = cstar theta_xi from the
    compact frame and t_xi = <f, theta~_xi> / cstar, as (t, report); an
    (n, k) table of functions gives an (m, k) table t and k of each report
    value.

    Reports the reconstruction sum t a's residual relative to l2_norm, the
    L^2 norm of f, and both measured norm constants ||t||_f / ||f||_F and
    ||sum t a|| / ||t||.
    """
    spec, space = compact.spec, compact.hierarchy.space
    F = spec.project_mean_zero(np.asarray(f, dtype=float).reshape(space.n, -1))
    raw = compact_dual.analyze(F)
    nf = space.norm2(F)
    recon = compact.synthesize(raw)
    residual = _ratio(space.norm2(recon - F), nf)
    t = raw / cstar
    fn = frame_norm(F, params, compact)
    tn = seq_norm(t, params, compact.hierarchy)
    t, report = _per_column(f, t, {
        "residual": residual, "l2_norm": nf,
        "analysis_constant": _ratio(tn, fn),
        "synthesis_constant": _ratio(
            frame_norm(recon, params, compact), tn),
    })
    return t, report
