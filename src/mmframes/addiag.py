"""Almost-diagonal operator machinery over a net hierarchy: decay weights,
the weighted sup norm, composition bounds and Neumann inversion.
"""

from dataclasses import replace

import numpy as np

from mmframes.calculus import neumann_series, nonzero_span
from mmframes.space import NetHierarchy
from mmframes.seqspace import FLAVOURS, SpaceParams, seq_norm

NEUMANN_EPSILON = 1.0    # neumann_invert's decay epsilon; eps1 = epsilon/2
NEUMANN_THRESHOLD = 0.5  # neumann_invert needs ||D||_epsilon below this
CORE_LEAK_GATE = 1e-10   # neumann_invert keeps G's diagonal up to this leak
_RATIO_CHUNK = 8192      # columns per lemma64_grid ratio chunk


class NeumannPreconditionError(RuntimeError):
    """||D||_epsilon = delta_hat is not below NEUMANN_THRESHOLD."""

    def __init__(self, delta_hat):
        super().__init__(f"Neumann precondition failed: ||I-A||_eps = "
                         f"{delta_hat:.4g} is not below {NEUMANN_THRESHOLD}")
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


def _log_rho(hier: NetHierarchy, k, scale, rows, cols):
    """scale log1p(rho[rows, cols] / l_k) on the points rows by cols: G's
    entries, times scale, where level k is the coarser of the two centres'
    levels (l falls by level, so max(l_xi, l_eta) = l_k there)."""
    T = hier.space.dist.take(rows, 0).take(cols, 1)
    np.divide(T, hier.levels[k].ell, out=T)
    np.log1p(T, out=T)
    T *= scale
    return T


def _log_omega(hier: NetHierarchy, beta: float, gamma: float,
               params: SpaceParams):
    """block(i, j): log omega_{xi,eta}(beta, gamma) of Def 6.1 on row level
    i by column level j, h_xi - h_eta - (J+beta) G + min{gamma lam,
    -(J+gamma) lam} with G = log1p(rho / max(l_xi, l_eta)) and lam = log l_xi
    - log l_eta, every term exactly 0 on the diagonal.

    G's block is gathered from level k = min(i, j)'s slab -(J+beta)
    log1p(rho / l_k) on every point by level k's centres, built on first use
    and kept for the call: its rows at level i's centres for j <= i, and, rho
    being exactly symmetric, the transpose of its rows at level j's centres
    for j > i.  The m x m table is never formed."""
    if beta <= 0 or gamma <= 0:
        raise ValueError("beta, gamma must be positive")
    J, pts, blocks = params.J, hier.xi_point, hier.blocks
    le = np.log(hier.xi_ell)
    h = _head(hier.xi_ell, hier.xi_bvol, params)
    every, slabs = np.arange(hier.space.n), {}

    def block(i, j):
        ri, rj = blocks[i], blocks[j]
        k = min(i, j)
        if k not in slabs:
            slabs[k] = _log_rho(hier, k, -(J + beta), every, pts[blocks[k]])
        if j <= i:
            W = slabs[j].take(pts[ri], 0)
        else:
            W = slabs[i].take(pts[rj], 0).T
        W += _level_term(le[ri.start] - le[rj], gamma, J)
        W += h[ri, None]
        W -= h[rj]
        return W
    return block


def omega2_rows(hier: NetHierarchy, beta: float, gamma: float,
                params: SpaceParams):
    """(sl, omega[sl, :]) for each row level sl of omega2_matrix's table,
    from log omega's level blocks (_log_omega), one row level at a time."""
    log_w = _log_omega(hier, beta, gamma, params)
    for i, sl in enumerate(hier.blocks):
        W = np.empty((sl.stop - sl.start, hier.size))
        for j, sc in enumerate(hier.blocks):
            W[:, sc] = log_w(i, j)
        yield sl, np.exp(W, out=W)


def omega2_matrix(hier: NetHierarchy, beta: float, gamma: float,
                  params: SpaceParams) -> np.ndarray:
    """Def 6.1 decay weight omega_{xi,eta}(beta, gamma) for every ordered
    pair (xi, eta); the diagonal is exactly 1.  A library and test entry
    point: no run forms it."""
    return np.concatenate([W for _, W in omega2_rows(hier, beta, gamma,
                                                     params)])


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
    return [nonzero_span(table[:, sc].any(axis=1)) for sc in hier.blocks]


def _block_pass(hier: NetHierarchy, left, right) -> tuple:
    """(column_spans(hier, right), a buffer for the widest level block):
    what a pass over the level blocks of left @ right needs, once that
    product is checked to be an m x m table."""
    if left.shape[0] != hier.size or right.shape[1] != hier.size:
        raise ValueError("entry table does not match the hierarchy")
    width = max(sl.stop - sl.start for sl in hier.blocks)
    return column_spans(hier, right), np.empty(width * width)


def _row_blocks(hier: NetHierarchy, rows, right, spans, buf):
    """X for each column level's block of rows @ right, rows one row
    level's slab of a left factor and (spans, buf) = _block_pass: X is
    rows[:, lo:hi] @ right[lo:hi, sc], formed in buf, over the span [lo, hi)
    where rows' nonzero columns meet right's nonzero rows on the column
    level; outside it one factor of every term is 0, so an empty span
    yields None, for a block that is exactly 0 and not formed.

    The frames' coefficient factors are exactly 0 off each level's band,
    and eigenvalues ascend, so a level's span is its band's index range; a
    dense factor spans everything."""
    a, b = nonzero_span(rows.any(axis=0))
    for sc, (c, d) in zip(hier.blocks, spans):
        lo, hi = max(a, c), min(b, d)
        if lo >= hi:
            yield None
            continue
        shape = (len(rows), sc.stop - sc.start)
        yield np.matmul(rows[:, lo:hi], right[lo:hi, sc],
                        out=buf[:shape[0] * shape[1]].reshape(shape))


def max_abs(hier: NetHierarchy, left, right) -> float:
    """max |A| for A = left @ right, a level block at a time over the
    factors' spans (_row_blocks); a block that is exactly 0 is not formed."""
    cols, buf = _block_pass(hier, left, right)
    top = 0.0
    for sl in hier.blocks:
        for X in _row_blocks(hier, left[sl], right, cols, buf):
            if X is not None:
                top = max(top, X.max(), -X.min())
    return float(top)


def ad_norm(hier: NetHierarchy, params: SpaceParams, left, right,
            delta: float) -> float:
    """||A||_delta = max |a_{xi,eta}| / omega_{xi,eta}(delta, delta) for the
    m x m table A = left @ right, formed a level block at a time over the
    factors' spans (_row_blocks); a dense A is passed as (A, np.eye(m)),
    whose column levels span only themselves."""
    return _max_ratio(hier, left, right,
                      _log_omega(hier, delta, delta, params))[0][0]


def boundedness_probe(hier: NetHierarchy, params: SpaceParams, left, right,
                      delta: float, battery) -> dict:
    """Measured boundedness ratio max ||A h|| / (||A||_delta ||h||) of
    A = left @ right over a battery of sequences (one per row), for each of
    the four sequence-space flavors; sequences of norm 0 are left out."""
    nrm = ad_norm(hier, params, left, right, delta)
    if nrm == 0:
        return {**{key: 0.0 for key, _, _ in FLAVOURS}, "ad_norm": 0.0}
    H = np.asarray(battery, dtype=float).T
    AH = left @ (right @ H)
    out = {"ad_norm": nrm}
    for key, family, flavor in FLAVOURS:
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
    that reads it.  The level pairs run coarse-first (j, then q from L-1
    down to j), so the blocks that hold the maxima come first, and every
    product is the one formed from a dense K, bit for bit.
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
            T = _log_rho(hier, k, -(params.J + beta), pts[r], pts[c])
            S[k, ids[r], ids[c]] = np.exp(T, out=T)
        return S[k, ids[r], ids[c]]

    order = [(q, j) for j in range(L) for q in range(L - 1, j - 1, -1)]
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
        # argmax of the chunks' row maxima is the row's.  W, P/K >= 0, so a
        # chunk whose bound W @ (P/K's row maxima) is below every pair's
        # floor (its best so far, or an earlier chunk's top) by more than
        # the sums' rounding cannot win and is skipped; NaN never skips
        orient = ((q, j), (j, q))[:1 + (q > j)]
        Wrc = [E1[:, r, :] * E2[:, :, c] for r, c in orient]
        floor = [np.array([v for v, _ in best]) * Emin[:, r, c]
                 for r, c in orient]
        for ci, s in enumerate(range(0, len(Kqj), chunk)):
            cw = min(chunk, len(Kqj) - s)
            inv = np.divide(1.0, Kqj[s:s + cw], out=rbuf[0, :cw])  # 1/K once
            Pc = cbuf[:, :cw]
            for l, f in enumerate(P):
                np.multiply(f[s:s + cw], inv, out=Pc[l])
            qmax = Pc.max(axis=1)
            for o, W in enumerate(Wrc):
                if np.all((W @ qmax) * (1 + 1e-12) <= floor[o]):
                    tops[o, ci] = -np.inf
                    continue
                R = np.matmul(W, Pc, out=rbuf[:, :cw])
                a = R.argmax(axis=1)
                tops[o, ci] = R[rows, a]
                ats[o, ci] = a + s
                np.maximum(floor[o], tops[o, ci], out=floor[o])
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


def _max_ratio(hier: NetHierarchy, left, right, log_w, G=None,
               terms=0) -> list:
    """[(max |a| / omega, max |a|)] for a = left G^t right, t = 0, ...,
    terms (a = left @ right alone by default; a 1-D G is a diagonal core,
    which scales the columns), against a log omega block
    builder (_log_omega), one level pair at a time; the ratio is
    exp(max(log|a| - log omega)).  On each row level the rows of left G^t
    are formed from those of left G^(t-1), and each block of log omega is
    built once, beside the first product block that reads it, and kept for
    the row level's later powers.  A block is formed over its span
    (_row_blocks); a zero entry has log 0 = -inf, so a block that is exactly
    0 is skipped, and an all-zero table gives (0, 0)."""
    cols, buf = _block_pass(hier, left, right)
    best, a_max = [-np.inf] * (terms + 1), [0.0] * (terms + 1)
    with np.errstate(divide="ignore"):
        for i, sl in enumerate(hier.blocks):
            W, rows = {}, left[sl]
            for t in range(terms + 1):
                if t and G.ndim == 1:
                    rows = rows * G
                elif t:
                    a, b = nonzero_span(rows.any(axis=0))
                    rows = rows[:, a:b] @ G[a:b]
                for j, X in enumerate(_row_blocks(hier, rows, right, cols,
                                                  buf)):
                    if X is None:
                        continue
                    np.abs(X, out=X)
                    a_max[t] = max(a_max[t], X.max())
                    np.log(X, out=X)
                    w = W.get(j)
                    if w is None:
                        w = log_w(i, j)
                        if t < terms:  # kept for the powers still to come
                            W[j] = w
                    X -= w
                    best[t] = np.maximum(best[t], X.max())
    return [(float(np.exp(v)), float(x)) for v, x in zip(best, a_max)]


def _dropped(left, right, E, core) -> tuple:
    """Bounds on what a diagonal core drops from the pushed-through defects
    of neumann_invert, max|left E core right| and max|left core E right|,
    for E = |G| off its diagonal and core the diagonal, a vector.  By
    Cauchy-Schwarz each
    entry is at most left's largest row 2-norm times right's largest column
    2-norm times the Frobenius norm of E core, or of core E; each factor is
    read once, and no m x n table is formed."""
    s = np.sqrt(np.einsum("ij,ij->i", left, left).max()
                * np.einsum("ij,ij->j", right, right).max())
    E2, k2 = E * E, core ** 2
    return (float(s * np.sqrt(np.einsum("kl,l->", E2, k2))),
            float(s * np.sqrt(np.einsum("kl,k->", E2, k2))))


def neumann_invert(hier: NetHierarchy, params: SpaceParams, left, right,
                   cstar: float):
    """(I - D)^{-1} - I for D = left @ right (a dense D is passed as (D, I)),
    as C = left (I - G)^{-1} right with G = right @ left (push-through), the
    series summed on G; C is returned as its factors (left @ core, right),
    never formed whole.  Each power D^{n+1} = left G^n right is formed a
    level block at a time, and its decay certified in the eps1-weighted
    norm, eps1 = epsilon/2 with epsilon = NEUMANN_EPSILON, all powers in
    one sweep (_max_ratio).  The inverse is I + C; C is returned without
    I, so its small entries do not round at 1.  The report's residual is
    the larger of |(I - D)(I + C) - I| and |(I + C)(I - D) - I| over max|D|
    (0 when D is 0), each with what a diagonal core drops bounded in: C = 0
    reads 1.

    The core leak, G's largest off-diagonal |entry| over max|G|, is
    measured once and reported.  At most CORE_LEAK_GATE, as on the frames'
    factors, where G = V U diag(c m) is diagonal up to rounding (Thm 4.2's
    V U = I - e0 e0^T), the core is G's diagonal, kept as a vector: every
    product with it is a row or column scaling, so each power and table
    keeps left's zero columns and right's zero rows, and each pass skips
    the blocks off the factors' band spans.  Above it, the full core is
    kept.  Both sides of the residual are one table on the core kept,
    which commutes with G, taken with the larger of the bounds on what a
    diagonal core drops from each side (_dropped), so the residual
    certifies both forms.

    Preconditions: delta_hat = ||D||_epsilon < NEUMANN_THRESHOLD
    (NeumannPreconditionError otherwise), and delta_hat * c* < 1 with the
    caller's composition constant c* = cstar, which must be
    lemma64_grid(hier, params, eps1, [(epsilon, eps1)])[0]["max_ratio"]:
    Omega(eps1,epsilon) @ Omega(eps1,eps1) <= c* omega(eps1) entrywise.
    The report's dhat_cstar is delta_hat * c*; the certified bound
    ||D^n||_{eps1} <= delta_hat^n c*^(n-1) decays only while it is below
    1, so geometric_decay_ok is false when it is not.
    """
    [(delta_hat, d_max)] = _max_ratio(hier, left, right, _log_omega(
        hier, NEUMANN_EPSILON, NEUMANN_EPSILON, params))
    if not delta_hat < NEUMANN_THRESHOLD:  # a NaN fails too
        raise NeumannPreconditionError(delta_hat)
    eps1 = NEUMANN_EPSILON / 2.0
    G = right @ left
    E = np.abs(G)
    top = float(E.max())
    np.fill_diagonal(E, 0.0)
    leak = float(E.max()) / top if top > 0 else 0.0
    diagonal = leak <= CORE_LEAK_GATE
    if diagonal:
        G = G.diagonal().copy()
    core, terms, _ = neumann_series(G)
    drop = max(_dropped(left, right, E, core)) if diagonal else 0.0
    del E
    term_ad_norms = [r for r, _ in _max_ratio(
        hier, left, right, _log_omega(hier, eps1, eps1, params), G, terms)]
    # (I-D)(I+C) - I = left (core - I - G core) right, pushed through, and
    # the core is a polynomial in G (neumann_series), so G core = core G
    # and (I+C)(I-D) - I is the same table: one defect, differenced on the
    # k x k core (on a diagonal core, the scaling core - 1 - G core) and
    # taken in one pass over its blocks.  What a diagonal core drops does
    # not commute with it, so the larger of both sides' bounds is added
    if diagonal:
        resid = max_abs(hier, left * (core - 1.0 - G * core), right)
        c_left = left * core
    else:
        resid = max_abs(hier, left @ (core - np.eye(len(core)) - G @ core),
                        right)
        c_left = left @ core
    resid = (resid + drop) / d_max if d_max > 0 else 0.0
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
        "core_leak": leak,
    }
    return (c_left, right), report
