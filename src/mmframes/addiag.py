"""Almost-diagonal operator machinery over a net hierarchy: decay weights,
the weighted sup norm, composition bounds and Neumann inversion.
"""

from dataclasses import dataclass, replace

import numpy as np

from mmframes.calculus import neumann_series
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


class NeumannPreconditionError(RuntimeError):
    """||D||_epsilon = delta_hat is not below neumann_invert's threshold."""

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
    build needs two beyond t; for a list of pairs, all are scalars or
    arrays of the pairs' shape and buf is None.
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


def omega(hier: NetHierarchy, i, k, delta, params: SpaceParams):
    """One-parameter form omega2(hier, i, k, delta, delta, params)."""
    return omega2(hier, i, k, delta, delta, params)


def omega2(hier: NetHierarchy, i, k, beta, gamma, params: SpaceParams):
    """Def 6.1 weight omega_{xi_i, xi_k}(beta, gamma) for flat indices i and
    k; each of i, k, beta and gamma is a scalar or an array, and they
    broadcast together."""
    ell, bv = hier.xi_ell, hier.xi_bvol
    rho = hier.space.dist[hier.xi_point[i], hier.xi_point[k]]
    return np.exp(_log_omega(
        rho / np.maximum(ell[i], ell[k]), np.log(ell[i]), np.log(ell[k]),
        np.log(bv[i]), np.log(bv[k]), beta, gamma, params))


def ad_norm(A: NetMatrix, delta: float) -> float:
    """||A||_delta = max |a_{xi,eta}| / omega_{xi,eta}(delta)."""
    W = omega_matrix(A.hierarchy, delta, A.params)
    np.divide(np.abs(A.entries), W, out=W)
    return float(W.max())


def boundedness_probe(A: NetMatrix, delta: float, battery) -> dict:
    """Measured boundedness ratio max ||A h|| / (||A||_delta ||h||) over a
    battery of sequences (one per row), for each of the four sequence-space
    flavors; sequences of norm 0 are left out."""
    nrm = ad_norm(A, delta)
    if nrm == 0:
        return {"b": 0.0, "b~": 0.0, "f": 0.0, "f~": 0.0, "ad_norm": 0.0}
    H = np.asarray(battery, dtype=float).T
    AH = A.entries @ H
    out = {"ad_norm": nrm}
    for key, family, flavor in (("b", "besov", "classical"),
                                ("b~", "besov", "tilde"),
                                ("f", "triebel_lizorkin", "classical"),
                                ("f~", "triebel_lizorkin", "tilde")):
        prm = replace(A.params, flavor=flavor, family=family)
        denom = seq_norm(H, prm, A.hierarchy)
        live = denom > 0
        ratios = seq_norm(AH[:, live], prm, A.hierarchy) / (nrm * denom[live])
        out[key] = float(ratios.max(initial=0.0))
    return out


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


def neumann_invert(D: NetMatrix, epsilon: float, delta_threshold: float):
    """Invert I - D through the geometric series I + D + D^2 + ...,
    certifying the decay of the terms in the eps1-weighted norm, eps1 =
    epsilon/2.

    Preconditions: ||D||_epsilon < delta_threshold and
    delta_threshold * c* < 1 with the measured composition constant c*:
    Omega(eps1,epsilon) @ Omega(eps1,eps1) <= c* omega(eps1) entrywise.
    """
    delta_hat = ad_norm(D, epsilon)
    if delta_hat >= delta_threshold:
        raise NeumannPreconditionError(delta_hat, delta_threshold)
    eps1 = epsilon / 2.0
    hier, params, D = D.hierarchy, D.params, D.entries
    # c* is lemma64_grid's ratio for the one pair (epsilon, eps1); its K
    # times the eps1 level term is omega(eps1)
    (res,), W, blocks, lam = _lemma64(hier, params, eps1, [(epsilon, eps1)])
    cstar = res["max_ratio"]
    E = np.exp(_level_term(lam, eps1, params.J))
    for j, rj in enumerate(blocks):
        for l, rl in enumerate(blocks):
            W[rj, rl] *= E[j, l]
    term_ad_norms = []

    def on_term(term):
        q = np.abs(term)
        q /= W
        term_ad_norms.append(float(q.max()))

    total = np.eye(hier.size)
    terms, _ = neumann_series(total, D, D, on_term)
    del W
    # |(I - D) T - I| = |D T - T + I|, and likewise on the right, one at a time
    resid = 0.0
    for left, right in ((D, total), (total, D)):
        P = left @ right
        P -= total
        P.flat[::hier.size + 1] += 1.0
        resid = max(resid, np.abs(P, out=P).max())
        del P
    # certified decay: ||D^n||_{eps1} <= delta_hat^n * c*^{n-1}
    geometric_ok = all(
        term_ad_norms[n - 1] <= delta_hat**n * cstar ** (n - 1) * (1.0 + 1e-9)
        for n in range(1, len(term_ad_norms) + 1))
    report = {
        "delta_hat": delta_hat,
        "c_star": cstar,
        "terms": terms,
        "residual": float(resid),
        "term_ad_norms": term_ad_norms,
        "geometric_decay_ok": bool(geometric_ok),
    }
    return NetMatrix(hierarchy=hier, entries=total, params=params), report
