"""Almost-diagonal operator machinery over a net hierarchy: decay weights,
the weighted sup norm, composition bounds and Neumann inversion.
"""

from dataclasses import dataclass

import numpy as np

from mmframes.space import NetHierarchy
from mmframes.seqspace import SpaceParams, seq_norm


@dataclass(frozen=True)
class NetMatrix:
    hierarchy: NetHierarchy
    entries: np.ndarray
    params: SpaceParams

    def __post_init__(self):
        m = self.hierarchy.size
        if self.entries.shape != (m, m):
            raise ValueError("entry table does not match the hierarchy")


@dataclass(frozen=True)
class AdNorm:
    delta: float
    value: float
    argmax: tuple


class NeumannPreconditionError(RuntimeError):
    """||I - A||_epsilon = delta_hat is not below neumann_invert's threshold."""

    def __init__(self, delta_hat, threshold):
        super().__init__(f"Neumann precondition failed: ||I-A||_eps = "
                         f"{delta_hat:.4g} >= {threshold}")
        self.delta_hat = delta_hat


def _level_term(lam, gamma, J, out=None):
    """min{gamma lam, -(J+gamma) lam}, the level term of log omega; out may
    be lam itself."""
    g = gamma * lam
    return np.minimum(g, np.multiply(lam, -(J + gamma), out=out), out=out)


def _log_omega(t, lr, lc, br, bc, beta, gamma, params, buf=None):
    """log omega_{xi,eta}(beta, gamma) of Def 6.1 from t = rho/max(l_xi, l_eta)
    and the logs of l and |B| at xi (lr, br) and at eta (lc, bc).

    Classical: s lam + lb/2 - (J+beta) log1p(t)
               + min{gamma lam, -(J+gamma) lam},
    with lam = lr - lc and lb = br - bc; tilde: the level term becomes
    (s/d + 1/2) lb.  Every term is exactly 0 when xi = eta.  gamma=None
    leaves out the min{...} term.  For a table, the logs are an (m,1) and a
    (1,m) vector, t is overwritten and buf is one more scratch table, so the
    build needs two beyond t; for one pair all are scalars and buf is None.
    """
    W = np.log1p(t, out=None if buf is None else t)
    W *= -(params.J + beta)
    head = np.subtract(br, bc, out=buf)
    if params.flavor == "classical":
        head *= 0.5
        lam = lr - lc
        lam *= params.s
        head += lam
    else:
        head *= params.s / params.d + 0.5
    W += head
    if gamma is not None:
        lam = np.subtract(lr, lc, out=buf)
        W += _level_term(lam, gamma, params.J, out=buf)
    return W


def _weight_table(hier, beta, gamma, params):
    """omega(beta, gamma) for every ordered pair, built in place; without
    its level term when gamma is None."""
    ell, pts = hier.xi_ell, hier.xi_point
    le, lb = np.log(ell), np.log(hier.xi_bvol)
    W = hier.space.dist[np.ix_(pts, pts)]
    buf = np.maximum(ell[:, None], ell[None, :])
    W /= buf
    W = _log_omega(W, le[:, None], le[None, :], lb[:, None], lb[None, :],
                   beta, gamma, params, buf)
    return np.exp(W, out=W)


def omega2_matrix(hier: NetHierarchy, beta: float, gamma: float,
                  params: SpaceParams) -> np.ndarray:
    """Def 6.1 decay weight omega_{xi,eta}(beta, gamma) for every ordered
    pair (xi, eta)."""
    if beta <= 0 or gamma <= 0:
        raise ValueError("beta, gamma must be positive")
    return _weight_table(hier, beta, gamma, params)


def omega_matrix(hier: NetHierarchy, delta: float, params: SpaceParams) -> np.ndarray:
    return omega2_matrix(hier, delta, delta, params)


def omega(hier: NetHierarchy, i: int, k: int, delta: float,
          params: SpaceParams) -> float:
    """Single-pair weight (one-parameter form)."""
    return omega2(hier, i, k, delta, delta, params)


def omega2(hier: NetHierarchy, i: int, k: int, beta: float, gamma: float,
           params: SpaceParams) -> float:
    ell, bv = hier.xi_ell, hier.xi_bvol
    rho = hier.space.dist[hier.xi_point[i], hier.xi_point[k]]
    return float(np.exp(_log_omega(
        rho / max(ell[i], ell[k]), np.log(ell[i]), np.log(ell[k]),
        np.log(bv[i]), np.log(bv[k]), beta, gamma, params)))


def ad_norm(A: NetMatrix, delta: float) -> AdNorm:
    W = omega_matrix(A.hierarchy, delta, A.params)
    R = np.abs(A.entries) / W
    idx = np.unravel_index(np.argmax(R), R.shape)
    return AdNorm(delta=delta, value=float(R[idx]), argmax=(int(idx[0]), int(idx[1])))


def apply(A: NetMatrix, h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (A.hierarchy.size,):
        raise ValueError("sequence does not match the hierarchy")
    return A.entries @ h


def boundedness_probe(A: NetMatrix, delta: float, battery,
                      spq=None) -> dict:
    """Measured boundedness ratio max ||A h|| / (||A||_delta ||h||) over a
    battery of sequences (one per row), for each of the four sequence-space
    flavors; sequences of norm 0 are left out."""
    nrm = ad_norm(A, delta).value
    if nrm == 0:
        return {"b": 0.0, "b~": 0.0, "f": 0.0, "f~": 0.0, "ad_norm": 0.0}
    s, p, q = (A.params.s, A.params.p, A.params.q) if spq is None else spq
    H = np.asarray(battery, dtype=float).T
    AH = A.entries @ H
    out = {"ad_norm": nrm}
    for key, family, flavor in (("b", "besov", "classical"),
                                ("b~", "besov", "tilde"),
                                ("f", "triebel_lizorkin", "classical"),
                                ("f~", "triebel_lizorkin", "tilde")):
        prm = SpaceParams(s=s, p=p, q=q, flavor=flavor, family=family,
                          d=A.params.d, dstar=A.params.dstar)
        denom = seq_norm(H, prm, A.hierarchy)
        live = denom > 0
        ratios = seq_norm(AH[:, live], prm, A.hierarchy) / (nrm * denom[live])
        out[key] = float(ratios.max(initial=0.0))
    return out


def compose(A: NetMatrix, B: NetMatrix) -> NetMatrix:
    if A.hierarchy is not B.hierarchy:
        raise ValueError("operands indexed by different hierarchies")
    return NetMatrix(hierarchy=A.hierarchy, entries=A.entries @ B.entries,
                     params=A.params)


def _lemma64(hier, params, beta, pairs):
    """lemma64_grid for nonempty pairs; also returns K, the level slices of
    the flat index and lam, the split below of omega(beta, .).

    l is constant on a level (ValueError if not), so the level term of
    log omega depends on the pair only through lam = log(l_j/l_l), one value
    per level pair: omega(beta, gamma) = K (.) E_gamma[j, l] with K the
    m x m weights without it.  On level blocks, (W1 @ W2)[j, q] =
    sum_l E1[j,l] E2[l,q] K[j,l] @ K[l,q], so every pair shares the products
    K[j,l] @ K[l,:], one m^3 in all.  Row level j holds them transposed, an
    (m, m_j) table per l, so that column level q is one strided 2-D view.
    """
    for gamma1, gamma2 in pairs:
        if beta <= 0 or gamma1 <= 0 or gamma2 <= 0:
            raise ValueError("beta, gamma must be positive")
        if gamma1 == gamma2:
            raise ValueError("requires gamma1 != gamma2")
        if not (beta < gamma1 + gamma2):
            raise ValueError("requires beta < gamma1 + gamma2")
    le = np.log(hier.xi_ell)
    blocks = [hier.level_slice(net.level) for net in hier.levels]
    if any(np.any(le[sl] != le[sl.start]) for sl in blocks):
        raise ValueError("xi_ell is not constant on a level")
    lev = le[[sl.start for sl in blocks]]
    lam = lev[:, None] - lev[None, :]
    K = _weight_table(hier, beta, None, params)
    E = {g: np.exp(_level_term(lam, g, params.J)) for p in pairs for g in p}
    E1 = np.array([E[g1] for g1, _ in pairs])
    E2 = np.array([E[g2] for _, g2 in pairs])
    Emin = np.array([E[min(p)] for p in pairs])
    L, m = len(blocks), hier.size
    buf = np.empty(L * m * max(sl.stop - sl.start for sl in blocks))
    best = [(-np.inf, None)] * len(pairs)
    for j, rj in enumerate(blocks):
        mj = rj.stop - rj.start
        Pt = buf[:L * m * mj].reshape(L, m, mj)
        for l, rl in enumerate(blocks):
            np.matmul(K[rl].T, K[rj, rl].T, out=Pt[l])
        for q, rq in enumerate(blocks):
            R = (E1[:, j, :] * E2[:, :, q]) @ Pt[:, rq].reshape(L, -1)
            R /= K[rj, rq].T.reshape(-1)
            for p, a in enumerate(np.argmax(R, axis=1)):
                v = R[p, a] / Emin[p, j, q]
                if v > best[p][0] or v != v:  # a NaN is kept, as argmax does
                    aq, aj = divmod(int(a), mj)
                    best[p] = (v, (rj.start + aj, rq.start + aq))
    res = [{"max_ratio": float(v), "argmax": idx} for v, idx in best]
    return res, K, blocks, lam


def lemma64_grid(hier: NetHierarchy, params: SpaceParams, beta: float,
                 pairs) -> list:
    """Brute-force convolution bound for the decay weights, for every
    (gamma1, gamma2) in pairs at one beta.

    W = Omega(beta,gamma1) @ Omega(beta,gamma2) entrywise against
    omega(beta, min(gamma1,gamma2)); one {"max_ratio", "argmax"} per pair.
    Hypotheses gamma1 != gamma2 and beta < gamma1 + gamma2 are enforced,
    and l must be constant on every level (as build_hierarchy makes it).
    """
    return _lemma64(hier, params, beta, pairs)[0] if pairs else []


def lemma64_check(hier: NetHierarchy, params: SpaceParams, beta: float,
                  gamma1: float, gamma2: float) -> dict:
    """lemma64_grid for the one pair (gamma1, gamma2)."""
    return lemma64_grid(hier, params, beta, [(gamma1, gamma2)])[0]


def neumann_invert(A: NetMatrix, epsilon: float, delta_threshold: float,
                   eps1: float = None, tail_tol: float = 1e-12,
                   max_terms: int = 10000):
    """Invert A = I - D through the geometric series, certifying the decay
    of the terms in the eps1-weighted norm.

    Preconditions: ||I - A||_epsilon < delta_threshold and
    delta_threshold * c* < 1 with the measured composition constant c*:
    Omega(eps1,epsilon) @ Omega(eps1,eps1) <= c* omega(eps1) entrywise.
    """
    if eps1 is None:
        eps1 = epsilon / 2.0
    hier, params = A.hierarchy, A.params
    D = np.eye(hier.size) - A.entries
    dn = ad_norm(NetMatrix(hierarchy=hier, entries=D, params=params), epsilon)
    delta_hat = dn.value
    if delta_hat >= delta_threshold:
        raise NeumannPreconditionError(delta_hat, delta_threshold)
    # c* as in lemma64_check; its K times the eps1 level term is omega(eps1)
    (res,), W, blocks, lam = _lemma64(hier, params, eps1, [(epsilon, eps1)])
    cstar = res["max_ratio"]
    E = np.exp(_level_term(lam, eps1, params.J))
    for j, rj in enumerate(blocks):
        for l, rl in enumerate(blocks):
            W[rj, rl] *= E[j, l]
    term = D.copy()
    total = np.eye(hier.size)
    first = np.linalg.norm(term)
    term_ad_norms = []
    terms = 0
    stall, prev = 0, first
    if first > 0:
        for n in range(1, max_terms):
            total += term
            terms = n
            term_ad_norms.append(float((np.abs(term) / W).max()))
            term = term @ D
            cur = np.linalg.norm(term)
            if cur > 0.999 * prev:
                stall += 1
                if stall >= 5:
                    raise RuntimeError("Neumann series divergence detected")
            else:
                stall = 0
            prev = cur
            if cur / first < tail_tol:
                break
        else:
            raise RuntimeError("Neumann series did not settle")
    Ainv = NetMatrix(hierarchy=hier, entries=total, params=params)
    resid = max(
        np.abs(A.entries @ total - np.eye(hier.size)).max(),
        np.abs(total @ A.entries - np.eye(hier.size)).max(),
    )
    # certified decay: ||D^n||_{eps1} <= delta_hat^n * c*^{n-1}
    geometric_ok = all(
        term_ad_norms[n - 1] <= delta_hat**n * cstar ** (n - 1) * (1.0 + 1e-9)
        for n in range(1, len(term_ad_norms) + 1))
    report = {
        "delta_hat": delta_hat,
        "c_star": cstar,
        "terms": terms,
        "residual": float(resid),
        "inverse_ad_norm": float((np.abs(total) / W).max()),
        "term_ad_norms": term_ad_norms,
        "geometric_decay_ok": bool(geometric_ok),
    }
    return Ainv, report
