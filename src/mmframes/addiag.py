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


def _log_omega(lam, lb, t, beta, gamma, params):
    """log omega_{xi,eta}(beta, gamma) of Def 6.1, from lam = log(l_xi/l_eta),
    lb = log(|B_xi|/|B_eta|) and t = rho/max(l_xi, l_eta); broadcasts.

    Classical: s lam + lb/2 - (J+beta) log1p(t)
               + min{gamma lam, -(J+gamma) lam};
    tilde: the level term becomes (s/d + 1/2) lb.  Every term is exactly 0
    when xi = eta.
    """
    if params.flavor == "classical":
        head = params.s * lam + 0.5 * lb
    else:
        head = (params.s / params.d + 0.5) * lb
    J = params.J
    return (head - (J + beta) * np.log1p(t)
            + np.minimum(gamma * lam, -(J + gamma) * lam))


def omega2_matrix(hier: NetHierarchy, beta: float, gamma: float,
                  params: SpaceParams) -> np.ndarray:
    """Def 6.1 decay weight omega_{xi,eta}(beta, gamma) for every ordered
    pair (xi, eta)."""
    if beta <= 0 or gamma <= 0:
        raise ValueError("beta, gamma must be positive")
    ell, pts = hier.xi_ell, hier.xi_point
    le, lb = np.log(ell), np.log(hier.xi_bvol)
    t = hier.space.dist[np.ix_(pts, pts)]
    t /= np.maximum(ell[:, None], ell[None, :])
    W = _log_omega(le[:, None] - le[None, :], lb[:, None] - lb[None, :], t,
                   beta, gamma, params)
    return np.exp(W, out=W)


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
        np.log(ell[i]) - np.log(ell[k]), np.log(bv[i]) - np.log(bv[k]),
        rho / max(ell[i], ell[k]), beta, gamma, params)))


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
    battery of sequences, for each of the four sequence-space flavors."""
    nrm = ad_norm(A, delta).value
    if nrm == 0:
        return {"b": 0.0, "b~": 0.0, "f": 0.0, "f~": 0.0, "ad_norm": 0.0}
    s, p, q = (A.params.s, A.params.p, A.params.q) if spq is None else spq
    out = {"ad_norm": nrm}
    for key, family, flavor in (("b", "besov", "classical"),
                                ("b~", "besov", "tilde"),
                                ("f", "triebel_lizorkin", "classical"),
                                ("f~", "triebel_lizorkin", "tilde")):
        prm = SpaceParams(s=s, p=p, q=q, flavor=flavor, family=family,
                          d=A.params.d, dstar=A.params.dstar)
        worst = 0.0
        for h in battery:
            denom = seq_norm(h, prm, A.hierarchy)
            if denom == 0:
                continue
            worst = max(worst, seq_norm(A.entries @ h, prm, A.hierarchy)
                        / (nrm * denom))
        out[key] = worst
    return out


def compose(A: NetMatrix, B: NetMatrix) -> NetMatrix:
    if A.hierarchy is not B.hierarchy:
        raise ValueError("operands indexed by different hierarchies")
    return NetMatrix(hierarchy=A.hierarchy, entries=A.entries @ B.entries,
                     params=A.params)


def lemma64_check(hier: NetHierarchy, params: SpaceParams, beta: float,
                  gamma1: float, gamma2: float) -> dict:
    """Brute-force convolution bound for the decay weights.

    W = Omega(beta,gamma1) @ Omega(beta,gamma2) entrywise against
    omega(beta, min(gamma1,gamma2)); hypotheses gamma1 != gamma2 and
    beta < gamma1 + gamma2 are enforced.
    """
    if gamma1 == gamma2:
        raise ValueError("requires gamma1 != gamma2")
    if not (beta < gamma1 + gamma2):
        raise ValueError("requires beta < gamma1 + gamma2")
    W1 = omega2_matrix(hier, beta, gamma1, params)
    W2 = omega2_matrix(hier, beta, gamma2, params)
    R = W1 @ W2
    R /= W1 if gamma1 < gamma2 else W2
    idx = np.unravel_index(np.argmax(R), R.shape)
    return {"max_ratio": float(R[idx]), "argmax": (int(idx[0]), int(idx[1]))}


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
        raise RuntimeError(
            f"Neumann precondition failed: ||I-A||_eps = {delta_hat:.4g} >= "
            f"{delta_threshold}")
    cstar = lemma64_check(hier, params, eps1, epsilon, eps1)["max_ratio"]
    W = omega_matrix(hier, eps1, params)
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
