"""Almost-diagonal operator machinery over a net hierarchy: decay weights,
the weighted sup norm, composition bounds and Neumann inversion.
"""

from dataclasses import replace

import numpy as np

from mmframes.calculus import neumann_series
from mmframes.space import NetHierarchy
from mmframes.seqspace import SpaceParams, seq_norm

NEUMANN_EPSILON = 1.0    # neumann_invert's decay epsilon; eps1 = epsilon/2
NEUMANN_THRESHOLD = 0.5  # neumann_invert needs ||D||_epsilon below this
_RATIO_CHUNK = 8192      # columns per lemma64_grid ratio chunk


class NeumannPreconditionError(RuntimeError):
    """||D||_epsilon = delta_hat is not below NEUMANN_THRESHOLD."""

    def __init__(self, delta_hat):
        super().__init__(f"Neumann precondition failed: ||I-A||_eps = "
                         f"{delta_hat:.4g} >= {NEUMANN_THRESHOLD}")
        self.delta_hat = delta_hat


def _level_term(lam, gamma, J):
    """min{gamma lam, -(J+gamma) lam} = -J lam^+ - gamma |lam|, the level
    term of log omega."""
    return np.minimum(gamma * lam, -(J + gamma) * lam)


def _head(ell, bvol, params):
    """h with log omega_{xi,eta} = h_xi - h_eta + (terms in rho and lam):
    s log l + log|B|/2 (classical) or (s/d + 1/2) log|B| (tilde)."""
    if params.flavor == "classical":
        return params.s * np.log(ell) + 0.5 * np.log(bvol)
    return (params.s / params.d + 0.5) * np.log(bvol)


def _scaled_log1p(rho, ell, scale, out):
    """scale log1p(rho / ell) entrywise: G's entries where the larger of the
    two level scales is ell, times scale."""
    out = np.divide(rho, ell, out=out)
    np.log1p(out, out=out)
    out *= scale
    return out


def _log_table(hier, scale, shift=None):
    """scale G + shift(lam) for every ordered pair (xi, eta), with
    G = log1p(rho / max(l_xi, l_eta)) and lam = log l_xi - log l_eta.

    l falls by level, so max(l_xi, l_eta) = l_k on column level k against
    row levels >= k and on row level k against column levels > k; those
    blocks are gathered from one n x n table scale log1p(rho / l_k).
    """
    ell, pts, blocks = hier.xi_ell, hier.xi_point, hier.blocks
    le = np.log(ell)
    T, S = np.empty((hier.size, hier.size)), np.empty(hier.space.dist.shape)
    for k, rk in enumerate(blocks):
        _scaled_log1p(hier.space.dist, ell[rk.start], scale, out=S)
        X = S.take(pts[rk], 1)
        for r in blocks[k:]:
            X.take(pts[r], 0, out=T[r, rk])
        X = S.take(pts[rk], 0)
        for c in blocks[k + 1:]:
            X.take(pts[c], 1, out=T[rk, c])
    if shift is not None:
        for sl in blocks:
            T[sl] += shift(le[sl.start] - le)
    return T


def _log_omega(hier: NetHierarchy, beta: float, gamma: float,
               params: SpaceParams) -> np.ndarray:
    """log omega_{xi,eta}(beta, gamma) of Def 6.1 for every ordered pair
    (xi, eta): h_xi - h_eta - (J+beta) G + min{gamma lam, -(J+gamma) lam},
    every term exactly 0 on the diagonal."""
    if beta <= 0 or gamma <= 0:
        raise ValueError("beta, gamma must be positive")
    J = params.J
    W = _log_table(hier, -(J + beta), lambda lam: _level_term(lam, gamma, J))
    h = _head(hier.xi_ell, hier.xi_bvol, params)
    W += h[:, None]
    W -= h
    return W


def omega2_matrix(hier: NetHierarchy, beta: float, gamma: float,
                  params: SpaceParams) -> np.ndarray:
    """Def 6.1 decay weight omega_{xi,eta}(beta, gamma) for every ordered
    pair (xi, eta); the diagonal is exactly 1."""
    W = _log_omega(hier, beta, gamma, params)
    return np.exp(W, out=W)


def omega2(hier: NetHierarchy, i, k, beta, gamma, params: SpaceParams):
    """Def 6.1 weight omega_{xi_i, xi_k}(beta, gamma) for flat indices i and
    k; each of i, k, beta and gamma is a scalar or an array, and they
    broadcast together.  The same formula as omega2_matrix, pair by pair."""
    ell, bv, pts = hier.xi_ell, hier.xi_bvol, hier.xi_point
    rho = hier.space.dist.take(pts[i] * hier.space.n + pts[k])  # flat gather
    W = np.log1p(rho / np.maximum(ell[i], ell[k]))
    W = W * -(params.J + beta) + _level_term(np.log(ell[i]) - np.log(ell[k]),
                                             gamma, params.J)
    return np.exp(W + _head(ell[i], bv[i], params)
                  - _head(ell[k], bv[k], params))


def column_spans(hier: NetHierarchy, table) -> list:
    """[lo, hi) from the first to the last nonzero row of table on each
    column level, or (0, 0) on a level that is all 0."""
    rows = [np.flatnonzero(table[:, sc].any(axis=1)) for sc in hier.blocks]
    return [(int(r[0]), int(r[-1]) + 1) if r.size else (0, 0) for r in rows]


def _level_spans(hier: NetHierarchy, left, right) -> list:
    """(sl, sc, lo, hi) for the blocks of left @ right, row level sl by
    column levels sc: left's nonzero column span on the row level met with
    right's nonzero row span on the column level, each read once.  Outside
    [lo, hi) one factor of every term is 0, so the block is
    left[sl, lo:hi] @ right[lo:hi, sc], and exactly 0 when lo = hi = 0.
    Neighbouring column levels with the same span share one block.

    The frames' coefficient factors are exactly 0 off each level's band,
    and eigenvalues ascend, so a level's span is its band's index range; a
    dense factor spans everything, and its row levels are whole slabs."""
    m = hier.size
    if left.shape[0] != m or right.shape[1] != m:
        raise ValueError("entry table does not match the hierarchy")
    rows, out = column_spans(hier, right), []
    for sl, (a, b) in zip(hier.blocks, column_spans(hier, left.T)):
        for sc, (c, d) in zip(hier.blocks, rows):
            span = (max(a, c), min(b, d)) if max(a, c) < min(b, d) else (0, 0)
            if sc.start and out[-1][2:] == span:
                sc = slice(out.pop()[1].start, sc.stop)
            out.append((sl, sc) + span)
    return out


def _level_blocks(hier: NetHierarchy, left, right):
    """(sl, sc, X) for each level block of left @ right (_level_spans): X
    the block formed over its span in one reused buffer, or None for a
    block that is exactly 0, which is not formed.  The m x m table is never
    formed whole."""
    spans = _level_spans(hier, left, right)
    buf = np.empty(max(sl.stop - sl.start for sl in hier.blocks) * hier.size)
    for sl, sc, lo, hi in spans:
        if lo == hi:
            yield sl, sc, None
            continue
        shape = (sl.stop - sl.start, sc.stop - sc.start)
        X = buf[:shape[0] * shape[1]].reshape(shape)
        yield sl, sc, np.matmul(left[sl, lo:hi], right[lo:hi, sc], out=X)


def _max_ratio(left, right, log_w, hier: NetHierarchy) -> tuple:
    """(max |a| / omega, max |a|) for a = left @ right and a log omega table,
    a level block at a time; the ratio is exp(max(log|a| - log omega)).  A
    zero entry has log 0 = -inf, so a block that is exactly 0 is skipped,
    and an all-zero table gives (0, 0)."""
    best, a_max = -np.inf, 0.0
    with np.errstate(divide="ignore"):
        for sl, sc, X in _level_blocks(hier, left, right):
            if X is None:
                continue
            np.abs(X, out=X)
            a_max = max(a_max, X.max())
            np.log(X, out=X)
            X -= log_w[sl, sc]
            best = np.maximum(best, X.max())
    return float(np.exp(best)), float(a_max)


def max_abs(hier: NetHierarchy, left, right, C=None):
    """(max |A|, max |A - C|) for A = left @ right, a level block at a time;
    C = None reads as 0, and on a block of A that is exactly 0, C is
    compared alone."""
    a_max = d_max = 0.0
    for sl, sc, X in _level_blocks(hier, left, right):
        if X is None:
            if C is not None:
                d_max = max(d_max, C[sl, sc].max(), -C[sl, sc].min())
            continue
        a_max = max(a_max, X.max(), -X.min())
        if C is not None:
            X -= C[sl, sc]
        d_max = max(d_max, np.abs(X, out=X).max())
    return float(a_max), float(d_max)


def ad_norm(hier: NetHierarchy, params: SpaceParams, left, right,
            delta: float) -> float:
    """||A||_delta = max |a_{xi,eta}| / omega_{xi,eta}(delta, delta) for the
    m x m table A = left @ right, formed a level block at a time over the
    factors' spans (_level_spans); a dense A is passed as (A, np.eye(m)),
    whose column levels span only themselves."""
    return _max_ratio(left, right, _log_omega(hier, delta, delta, params),
                      hier)[0]


def boundedness_probe(hier: NetHierarchy, params: SpaceParams, left, right,
                      delta: float, battery) -> dict:
    """Measured boundedness ratio max ||A h|| / (||A||_delta ||h||) of
    A = left @ right over a battery of sequences (one per row), for each of
    the four sequence-space flavors; sequences of norm 0 are left out."""
    nrm = ad_norm(hier, params, left, right, delta)
    if nrm == 0:
        return {"b": 0.0, "b~": 0.0, "f": 0.0, "f~": 0.0, "ad_norm": 0.0}
    H = np.asarray(battery, dtype=float).T
    AH = left @ (right @ H)
    out = {"ad_norm": nrm}
    for key, family, flavor in (("b", "besov", "classical"),
                                ("b~", "besov", "tilde"),
                                ("f", "triebel_lizorkin", "classical"),
                                ("f~", "triebel_lizorkin", "tilde")):
        prm = replace(params, flavor=flavor, family=family)
        denom = seq_norm(H, prm, hier)
        live = denom > 0
        ratios = seq_norm(AH[:, live], prm, hier) / (nrm * denom[live])
        out[key] = float(ratios.max(initial=0.0))
    return out


def lemma64_grid(hier: NetHierarchy, params: SpaceParams, beta: float,
                 pairs) -> list:
    """Brute-force convolution bound for the decay weights, for every
    (gamma1, gamma2) in pairs at one beta.

    W = Omega(beta,gamma1) @ Omega(beta,gamma2) entrywise against
    omega(beta, min(gamma1,gamma2)); one {"max_ratio", "argmax"} per pair.
    Hypotheses gamma1 != gamma2 and beta < gamma1 + gamma2 are enforced.

    The head h_xi - h_eta of log omega cancels in that ratio, and l is
    constant on a level, so the level term depends on the pair only through
    lam = log(l_j/l_l), one value per level pair: up to the head,
    omega(beta, gamma) = K (.) E_gamma[j, l] with K = exp(-(J+beta) G),
    which is symmetric.  On level blocks, (W1 @ W2)[q, j] =
    sum_l E1[q,l] E2[l,j] K[q,l] @ K[l,j], so every pair shares the
    products K[q,l] @ K[l,j]; block (j, q) is block (q, j)'s products
    transposed, so only q >= j is formed, L^2 (L+1)/2 products.

    K is never formed whole: K[q,l] = S_min(q,l)[X_q, X_l] with
    S_k = exp(-(J+beta) log1p(rho / l_k)) on the n points and X_k level k's
    centres, so a product depends on (q, l, j) only through the key
    (min(q,l), min(l,j), X_q, X_l, X_j).  Levels with equal centres share
    an id; each block S_k[X_r, X_c] is formed once, from rho[X_r, X_c], and
    each key's product once, then freed after the last level pair (q, j)
    that reads it.  The level pairs run in the order j, then q >= j, and
    every product is the one formed from a dense K, bit for bit.
    """
    if not pairs:
        return []
    for gamma1, gamma2 in pairs:
        if beta <= 0 or gamma1 <= 0 or gamma2 <= 0:
            raise ValueError("beta, gamma must be positive")
        if gamma1 == gamma2:
            raise ValueError("requires gamma1 != gamma2")
        if not (beta < gamma1 + gamma2):
            raise ValueError("requires beta < gamma1 + gamma2")
    blocks, pts = hier.blocks, [net.centers for net in hier.levels]
    lev = np.log([net.ell for net in hier.levels])
    lam = lev[:, None] - lev[None, :]
    E = {g: np.exp(_level_term(lam, g, params.J)) for p in pairs for g in p}
    E1 = np.array([E[g1] for g1, _ in pairs])
    E2 = np.array([E[g2] for _, g2 in pairs])
    Emin = np.array([E[min(p)] for p in pairs])
    L, rows = len(blocks), np.arange(len(pairs))
    # levels with the same centres share one id, so their blocks do too
    ids = [next(i for i in range(k + 1) if np.array_equal(pts[i], pts[k]))
           for k in range(L)]
    S = {}

    def block(k, r, c):
        """S_k[X_r, X_c], K's block (r, c) when min(r, c) = k"""
        if (k, ids[r], ids[c]) not in S:
            T = hier.space.dist[np.ix_(pts[r], pts[c])]
            _scaled_log1p(T, hier.levels[k].ell, -(params.J + beta), out=T)
            S[k, ids[r], ids[c]] = np.exp(T, out=T)
        return S[k, ids[r], ids[c]]

    order = [(q, j) for j in range(L) for q in range(j, L)]
    keys = [[(min(q, l), min(l, j), ids[q], ids[l], ids[j]) for l in range(L)]
            for q, j in order]
    last = {k: t for t, ks in enumerate(keys) for k in ks}
    prods = {}
    width = max(sl.stop - sl.start for sl in blocks) ** 2
    chunk = min(_RATIO_CHUNK, width)
    cbuf, rbuf = np.empty((L, chunk)), np.empty((len(pairs), chunk))
    tops = np.empty((2, -(-width // chunk), len(pairs)))
    ats = np.empty(tops.shape, dtype=np.intp)
    best = [(-np.inf, None)] * len(pairs)
    for t, ((q, j), ks) in enumerate(zip(order, keys)):
        for l, k in enumerate(ks):
            if k not in prods:
                prods[k] = block(k[0], q, l) @ block(k[1], l, j)
        P = [prods[k].reshape(-1) for k in ks]
        Kqj = block(j, q, j).reshape(-1)
        # block (q, j) reads the products as they are, block (j, q) as
        # their transposes, in column chunks of their stack over l: the
        # argmax of the chunks' row maxima is the row's
        orient = ((q, j), (j, q))[:1 + (q > j)]
        Wrc = [E1[:, r, :] * E2[:, :, c] for r, c in orient]
        for ci, s in enumerate(range(0, len(Kqj), chunk)):
            kc = Kqj[s:s + chunk]
            Pc = cbuf[:, :len(kc)]
            for l, f in enumerate(P):
                Pc[l] = f[s:s + len(kc)]
            for o, W in enumerate(Wrc):
                R = np.matmul(W, Pc, out=rbuf[:, :len(kc)])
                R /= kc
                a = R.argmax(axis=1)
                tops[o, ci] = R[rows, a]
                ats[o, ci] = a + s
        mj, nc = pts[j].size, ci + 1
        for o, (r, c) in enumerate(orient):
            for p, k in enumerate(tops[o, :nc].argmax(axis=0)):
                v = tops[o, k, p] / Emin[p, r, c]
                if v > best[p][0] or v != v:  # a NaN is kept, as argmax does
                    aq, aj = divmod(int(ats[o, k, p]), mj)
                    xi, eta = blocks[q].start + aq, blocks[j].start + aj
                    best[p] = (v, (xi, eta) if r == q else (eta, xi))
        for k in ks:
            if last[k] == t:
                prods.pop(k, None)
    return [{"max_ratio": float(v), "argmax": idx} for v, idx in best]


def neumann_invert(hier: NetHierarchy, params: SpaceParams, left, right,
                   cstar: float):
    """(I - D)^{-1} - I for D = left @ right (a dense D is passed as (D, I)),
    as C = left (I - G)^{-1} right with G = right @ left (push-through), the
    series summed on G; each power D^{n+1} = left G^n right is formed a level
    block at a time, and its decay certified in the eps1-weighted norm, eps1
    = epsilon/2 with epsilon = NEUMANN_EPSILON.  The inverse is I + C; C is
    returned without I, so its small entries do not round at 1.  The
    report's residual is the larger of |(I - D)(I + C) - I| and
    |(I + C)(I - D) - I| over max|D| (0 when D is 0): C = 0 reads 1.

    Preconditions: delta_hat = ||D||_epsilon < NEUMANN_THRESHOLD
    (NeumannPreconditionError otherwise), and delta_hat * c* < 1 with the
    caller's composition constant c* = cstar, which must be
    lemma64_grid(hier, params, eps1, [(epsilon, eps1)])[0]["max_ratio"]:
    Omega(eps1,epsilon) @ Omega(eps1,eps1) <= c* omega(eps1) entrywise.
    The report's dhat_cstar is delta_hat * c*; the certified bound
    ||D^n||_{eps1} <= delta_hat^n c*^(n-1) decays only while it is below
    1, so geometric_decay_ok is false when it is not.
    """
    delta_hat, d_max = _max_ratio(left, right, _log_omega(
        hier, NEUMANN_EPSILON, NEUMANN_EPSILON, params), hier)
    if delta_hat >= NEUMANN_THRESHOLD:
        raise NeumannPreconditionError(delta_hat)
    eps1 = NEUMANN_EPSILON / 2.0
    log_w = _log_omega(hier, eps1, eps1, params)
    term_ad_norms = [_max_ratio(left, right, log_w, hier)[0]]
    core, terms, _ = neumann_series(
        G := right @ left, lambda g: term_ad_norms.append(_max_ratio(
            left @ g, right, log_w, hier)[0]))
    # C = (left core) right in log_w's table, reused, over the same spans;
    # an empty span writes 0
    C, lc = log_w, left @ core
    for sl, sc, lo, hi in _level_spans(hier, lc, right):
        np.matmul(lc[sl, lo:hi], right[lo:hi, sc], out=C[sl, sc])
    # |(I-D)(I+C) - I| = |left (right + G core right) - C| and
    # |(I+C)(I-D) - I| = |(left + left core G) right - C|, pushed through
    resid = max(max_abs(hier, left, right + (G @ core) @ right, C)[1],
                max_abs(hier, left + left @ (core @ G), right, C)[1])
    resid = resid / d_max if d_max > 0 else 0.0
    # certified decay: ||D^n||_{eps1} <= delta_hat^n * c*^{n-1}
    dhat_cstar = delta_hat * cstar
    geometric_ok = dhat_cstar < 1 and all(
        term_ad_norms[n - 1] <= delta_hat**n * cstar ** (n - 1) * (1.0 + 1e-9)
        for n in range(1, len(term_ad_norms) + 1))
    report = {
        "delta_hat": delta_hat,
        "c_star": cstar,
        "dhat_cstar": dhat_cstar,
        "terms": terms + 1,
        "residual": resid,
        "term_ad_norms": term_ad_norms,
        "geometric_decay_ok": bool(geometric_ok),
    }
    return C, report
