import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmframes import addiag as ad, cli
from mmframes import calculus as ca, frames as fr, space as sp
from mmframes import seqspace as sq


def test_omega_diagonal_is_one(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    assert np.abs(np.diag(W) - 1.0).max() == 0.0


def test_omega2_collapses_to_omega(hierarchies, params022):
    # the one-parameter weight omega(delta) is omega2 at (delta, delta): the
    # pairwise form there matches the (delta, delta) table
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        i, k = rng.integers(0, hier.size, size=2)
        v1 = W[i, k]
        v2 = ad.omega2(hier, int(i), int(k), 0.5, 0.5, params022)
        assert abs(v1 - v2) <= 1e-14 * max(v1, 1e-300)


def test_omega_matrix_matches_entrywise(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 0.7, 0.3, params022)
    rng = np.random.default_rng(1)
    for _ in range(200):
        i, k = (int(v) for v in rng.integers(0, hier.size, size=2))
        assert abs(W[i, k] - ad.omega2(hier, i, k, 0.7, 0.3, params022)) \
            <= 1e-14 * max(W[i, k], 1e-300)
    # arrays of indices and of (beta, gamma) against one call per pair
    I, K = rng.integers(0, hier.size, (2, 200))
    B, G = rng.uniform(0.05, 2.0, (2, 200))
    ref = [ad.omega2(hier, i, k, b, g, params022)
           for i, k, b, g in zip(I, K, B, G)]
    assert np.allclose(ad.omega2(hier, I, K, B, G, params022), ref,
                       rtol=1e-14, atol=0)


@pytest.mark.parametrize("flavor", ["classical", "tilde"])
def test_omega2_matrix_matches_def61_power_form(flavor, hierarchies,
                                                 params022):
    # the literal Def 6.1 product of powers, against the log-space build
    hier, _ = hierarchies["C_64"]
    prm = dataclasses.replace(params022, s=0.75, flavor=flavor)
    beta, gamma, J = 0.7, 0.3, prm.J
    ell, bv = hier.xi_ell, hier.xi_bvol
    rho = hier.space.dist[np.ix_(hier.xi_point, hier.xi_point)]
    lr = ell[:, None] / ell[None, :]
    br = bv[:, None] / bv[None, :]
    if flavor == "classical":
        head = lr**prm.s * br**0.5
    else:
        head = br ** (prm.s / prm.d + 0.5)
    dist_f = (1.0 + rho / np.maximum(ell[:, None], ell[None, :])) \
        ** (-(J + beta))
    ref = head * dist_f * np.minimum(lr**gamma, (1.0 / lr) ** (J + gamma))
    W = ad.omega2_matrix(hier, beta, gamma, prm)
    assert np.abs(W / ref - 1.0).max() <= 1e-13
    assert np.all(np.diag(W) == 1.0)


def test_omega_monotone_in_beta(hierarchies, params022):
    # larger beta means faster decay, so entrywise smaller weights
    hier, _ = hierarchies["C_64"]
    rng = np.random.default_rng(2)
    W_small = ad.omega2_matrix(hier, 0.25, 0.25, params022)
    W_big = ad.omega2_matrix(hier, 1.0, 1.0, params022)
    for _ in range(1000):
        i, k = rng.integers(0, hier.size, size=2)
        assert W_big[i, k] <= W_small[i, k] * (1.0 + 1e-12)


def test_omega_rejects_bad_exponents(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError):
        ad.omega2_matrix(hier, -0.5, -0.5, params022)


def test_ad_norm_shape_check(hierarchies, params022):
    # an (m, 1) table would broadcast against the m x m log omega table
    hier, _ = hierarchies["C_64"]
    m = hier.size
    for shape in ((m + 1, m + 1), (m, 1)):
        with pytest.raises(ValueError,
                           match="entry table does not match the hierarchy"):
            ad.ad_norm(hier, params022, np.ones(shape),
                       np.eye(shape[1]), 0.5)


def test_ad_norm_scales_linearly(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    E = np.random.default_rng(3).standard_normal((hier.size, hier.size))
    I = np.eye(hier.size)
    na = ad.ad_norm(hier, params022, E, I, 0.5)
    nb = ad.ad_norm(hier, params022, 3.0 * E, I, 0.5)
    assert abs(nb - 3.0 * na) <= 1e-9 * nb


def test_ad_norm_of_scaled_omega_is_scale(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    assert abs(ad.ad_norm(hier, params022, 0.3 * W, np.eye(hier.size), 0.5)
               - 0.3) < 1e-12


# ---------------------------------------------------------------------------
# convolution bound for the weights


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(min_value=0.1, max_value=2.0),
       g1=st.floats(min_value=0.1, max_value=2.0),
       g2=st.floats(min_value=0.1, max_value=2.0))
def test_lemma64_hypotheses_enforced(beta, g1, g2, hierarchies, params022):
    hier, _ = hierarchies["C_32"]
    if g1 == g2 or beta >= g1 + g2:
        with pytest.raises(ValueError):
            ad.lemma64_grid(hier, params022, beta, [(g1, g2)])
    else:
        res = ad.lemma64_grid(hier, params022, beta, [(g1, g2)])[0]
        assert np.isfinite(res["max_ratio"]) and res["max_ratio"] > 0


def test_lemma64_grid_stable_under_refinement(hierarchies, params022):
    betas = (0.25, 0.5, 1.0)
    g1s = (0.3, 0.6, 1.2)
    g2s = (0.4, 0.8, 1.5)
    worst = {}
    for name in ("C_32", "C_64"):
        hier, _ = hierarchies[name]
        vals = []
        for beta in betas:
            for g1 in g1s:
                for g2 in g2s:
                    if beta < g1 + g2:
                        vals.append(ad.lemma64_grid(
                            hier, params022, beta, [(g1, g2)])[0]["max_ratio"])
        worst[name] = max(vals)
    assert worst["C_64"] <= 2.0 * worst["C_32"]


@pytest.fixture(scope="module")
def p64_hierarchy():
    # ball volumes vary per point on P_64, so the weights' head term does too
    from mmframes import calculus as ca, frames as fr, space as sp
    return fr.build_standard_hierarchy(
        ca.eigendecompose(sp.build_model("P_64")))[0]


@pytest.fixture(scope="module")
def skewed_hierarchy():
    # C_32 with one distance 1e-15 off its mirror: the model stores the
    # table exactly symmetric, which the grid's transposed blocks read
    from mmframes import calculus as ca, frames as fr, space as sp
    m = sp.build_model("C_32")
    dist = m.dist.copy()
    dist[0, 1] += 1e-15
    assert dist[0, 1] != dist[1, 0]
    space = sp.ModelSpace(name="C_32~", dist=dist, mu=m.mu, L=m.L)
    assert np.array_equal(space.dist, space.dist.T)
    return fr.build_standard_hierarchy(ca.eigendecompose(space))[0]


@pytest.fixture(scope="module")
def mu_hierarchy():
    # a ramp measure on a 9-cycle: ball volumes differ from point to point
    from mmframes import calculus as ca, frames as fr, space as sp
    from test_space import MU_MODELS
    return fr.build_standard_hierarchy(
        ca.eigendecompose(sp.build_model(MU_MODELS[1])))[0]


def _grid_hierarchy(model, hierarchies, p64_hierarchy, skewed_hierarchy,
                    mu_hierarchy):
    return {"P_64": p64_hierarchy, "C_32~": skewed_hierarchy,
            "mu_9": mu_hierarchy}.get(model) or hierarchies[model][0]


# T_8x8's levels all hold every point, so every level pair shares products
_GRID_MODELS = ["C_64", "P_64", "C_32~", "T_8x8", "mu_9"]


@pytest.mark.parametrize("flavor", ["classical", "tilde"])
@pytest.mark.parametrize("model", _GRID_MODELS)
def test_lemma64_grid_matches_dense_products(model, flavor, hierarchies,
                                             p64_hierarchy, skewed_hierarchy,
                                             mu_hierarchy, params022):
    # the level-block grid against (W1 @ W2) / omega(beta, min gamma) built
    # densely, over the whole grid of the lemma6.4-W-bound suite
    from mmframes.cli import _LEMMA64_GRID
    hier = _grid_hierarchy(model, hierarchies, p64_hierarchy,
                           skewed_hierarchy, mu_hierarchy)
    prm = dataclasses.replace(params022, s=0.75, flavor=flavor)
    betas, g1s, g2s = _LEMMA64_GRID
    for beta in betas:
        W = {g: ad.omega2_matrix(hier, beta, g, prm) for g in g1s + g2s}
        pairs = [(g1, g2) for g1 in g1s for g2 in g2s if beta < g1 + g2]
        for (g1, g2), res in zip(pairs, ad.lemma64_grid(hier, prm, beta,
                                                        pairs)):
            R = (W[g1] @ W[g2]) / W[min(g1, g2)]
            assert abs(res["max_ratio"] / R.max() - 1.0) <= 1e-13
            assert abs(R[res["argmax"]] / R.max() - 1.0) <= 1e-13


@pytest.mark.parametrize("flavor", ["classical", "tilde"])
@pytest.mark.parametrize("model", _GRID_MODELS)
def test_lemma64_grid_chunks_are_invisible(model, flavor, monkeypatch,
                                           hierarchies, p64_hierarchy,
                                           skewed_hierarchy, mu_hierarchy,
                                           params022):
    # ratio chunks of 7 columns, narrower than any level block, give every
    # max_ratio and argmax of the default chunk bit for bit
    from mmframes.cli import _LEMMA64_GRID
    hier = _grid_hierarchy(model, hierarchies, p64_hierarchy,
                           skewed_hierarchy, mu_hierarchy)
    prm = dataclasses.replace(params022, s=0.75, flavor=flavor)
    betas, g1s, g2s = _LEMMA64_GRID
    for beta in betas:
        pairs = [(g1, g2) for g1 in g1s for g2 in g2s if beta < g1 + g2]
        want = ad.lemma64_grid(hier, prm, beta, pairs)
        with monkeypatch.context() as mp:
            mp.setattr(ad, "_RATIO_CHUNK", 7)
            assert ad.lemma64_grid(hier, prm, beta, pairs) == want


def _scaled_G(hier, scale):
    """scale G = scale log1p(rho / max(l_xi, l_eta)) for every ordered pair
    (xi, eta), taken on the whole gathered rho table."""
    ell, pts = hier.xi_ell, hier.xi_point
    return scale * np.log1p(hier.space.dist[np.ix_(pts, pts)]
                            / np.maximum.outer(ell, ell))


def _grid_reference(hier, params, beta, pairs):
    """lemma64_grid's result from the dense K = exp(-(J+beta) G), with
    every block product K[q,l] @ K[l,j] formed directly and each block's
    ratios taken whole, in the grid's block, orientation and row order."""
    K = np.exp(_scaled_G(hier, -(params.J + beta)))
    lev = np.log([net.ell for net in hier.levels])
    lam = lev[:, None] - lev[None, :]
    E = {g: np.exp(ad._level_term(lam, g, params.J)) for p in pairs
         for g in p}
    E1, E2 = (np.array([E[p[i]] for p in pairs]) for i in (0, 1))
    blocks, best = hier.blocks, [(-np.inf, None)] * len(pairs)
    for j, rj in enumerate(blocks):
        for q in range(j, len(blocks)):
            rq = blocks[q]
            P = np.array([(K[rq, rl] @ K[rl, rj]).ravel() for rl in blocks])
            for r, c in ((q, j), (j, q))[:1 + (q > j)]:
                R = (E1[:, r, :] * E2[:, :, c]) @ P / K[rq, rj].ravel()
                for p, a in enumerate(np.argmax(R, axis=1)):
                    v = R[p, a] / E[min(pairs[p])][r, c]
                    if v > best[p][0] or v != v:
                        aq, aj = divmod(int(a), rj.stop - rj.start)
                        xi, eta = rq.start + aq, rj.start + aj
                        best[p] = (v, (xi, eta) if r == q else (eta, xi))
    return [{"max_ratio": float(v), "argmax": idx} for v, idx in best]


@pytest.mark.parametrize("model", ["C_64", "C_128", "T_8x8"])
def test_lemma64_grid_shared_products_are_the_direct_ones(model, hierarchies,
                                                          params022):
    # each distinct block product is formed once, from its K blocks, and
    # read by every level pair with its key: every max_ratio and argmax
    # equal those of the products formed one by one, bit for bit
    from mmframes.cli import _LEMMA64_GRID, _lemma64_pairs
    hier = hierarchies[model][0]
    for beta in _LEMMA64_GRID[0]:
        pairs = _lemma64_pairs(beta) + [(1.0, 0.5)]
        assert ad.lemma64_grid(hier, params022, beta, pairs) \
            == _grid_reference(hier, params022, beta, pairs)


def test_lemma64_grid_holds_no_m_by_m_table(hierarchies, params022):
    # C_128 (m = 736): the level-scale blocks, the live products and the
    # ratio buffers stay below one m x m table
    from mmframes.cli import _lemma64_pairs
    import numpy.random  # noqa: F401  (numpy imports it on first use)
    hier = hierarchies["C_128"][0]
    tracemalloc.start()
    try:
        ad.lemma64_grid(hier, params022, 0.5, _lemma64_pairs(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hier.size ** 2 * 8, peak / (hier.size ** 2 * 8)


@pytest.mark.parametrize("flavor", ["classical", "tilde"])
@pytest.mark.parametrize("model", ["C_64", "mu_9"])
def test_ad_norm_matches_the_literal_ratio(model, flavor, hierarchies,
                                           mu_hierarchy, params022):
    # the log-space pass against max |a| / omega(delta) on the built table
    hier = mu_hierarchy if model == "mu_9" else hierarchies[model][0]
    prm = dataclasses.replace(params022, s=0.75, flavor=flavor)
    rng = np.random.default_rng(8)
    E = ad.omega2_matrix(hier, 1.0, 1.0, prm) \
        * rng.uniform(-1, 1, (hier.size,) * 2)
    E[rng.random(E.shape) < 0.2] = 0.0
    I = np.eye(hier.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (0.125, 0.25, 0.5, 1.0, 2.0):
            nrm = ad.ad_norm(hier, prm, E, I, d)
            assert type(nrm) is float
            W = ad.omega2_matrix(hier, d, d, prm)
            assert np.all(np.diag(W) == 1.0)
            assert abs(nrm / (np.abs(E) / W).max() - 1.0) <= 1e-13
        # an all-zero matrix has norm 0, and log 0 warns of nothing
        assert ad.ad_norm(hier, prm, np.zeros_like(E), I, 0.5) == 0.0


@pytest.mark.parametrize("model", ["C_32~", "mu_9", "C_64 b=1.5", "C_64",
                                   "T_8x8"])
def test_log_table_is_the_direct_formula(model, hierarchies, spectra,
                                         skewed_hierarchy, mu_hierarchy,
                                         params022):
    # log omega's level blocks, each gathered from its coarser level's slab
    # (the transposed rows right of the diagonal), assembled, against
    # -(J+beta) log1p(rho / max(l, l')) + the level term + the heads taken
    # on the whole gathered rho table, in that order: bit for bit
    hier = {"C_32~": skewed_hierarchy, "mu_9": mu_hierarchy}.get(model) \
        or (fr.build_standard_hierarchy(spectra["C_64"], b=1.5)[0]
            if model == "C_64 b=1.5" else hierarchies[model][0])
    le, L = np.log(hier.xi_ell), len(hier.blocks)
    for flavor in ("classical", "tilde"):
        prm = dataclasses.replace(params022, s=0.75, flavor=flavor)
        h = ad._head(hier.xi_ell, hier.xi_bvol, prm)
        direct = _scaled_G(hier, -(prm.J + 0.7)) \
            + ad._level_term(np.subtract.outer(le, le), 0.3, prm.J) \
            + h[:, None] - h[None, :]
        block = ad._log_omega(hier, 0.7, 0.3, prm)
        assert np.array_equal(np.block([[block(i, j) for j in range(L)]
                                        for i in range(L)]), direct)
        # and omega2_matrix is its exp, row level by row level
        assert np.array_equal(ad.omega2_matrix(hier, 0.7, 0.3, prm),
                              np.exp(direct))


def _frame_factors(spec, frame, dual):
    """(U diag(m), V) of the frames' A_m = psi~^T M m(sqrt(L)) psi at
    m(sqrt(lambda)) = 1/(1 + lambda), U = psi~^T M E and V = E^T M psi."""
    U, V = spec.coefficients(dual.columns).T, spec.coefficients(frame.columns)
    return U * (1.0 / (1.0 + spec.eigenvalues)), V


@pytest.mark.parametrize("model", ["C_64", "T_16x16"])
def test_factored_ad_norm_equals_the_formed_table(model, spectra, hierarchies,
                                                  frame_sets, params022):
    # dense factors span every level, so each block left[sl] @ right[:, sc]
    # is the formed table's block bit for bit, and the norm from the
    # factors is the dense norm exactly
    if model == "T_16x16":
        spec = ca.eigendecompose(sp.build_model(model))
        hier, eps = fr.build_standard_hierarchy(spec)
        frame, dual = (fr.build_frame1(spec, hier),
                       fr.build_dual_frame(spec, hier, eps)[0])
    else:
        spec, (hier, _) = spectra[model], hierarchies[model]
        frame, dual, _ = frame_sets[model]
    left, right = _frame_factors(spec, frame, dual)
    A, I = left @ right, np.eye(hier.size)
    for d in (0.125, 0.5, 1.0):
        assert ad.ad_norm(hier, params022, left, right, d) \
            == ad.ad_norm(hier, params022, A, I, d)


def _traced_peak(fn):
    """The peak traced allocation while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_factored_norms_hold_no_formed_product(spectra, hierarchies,
                                               frame_sets, params022):
    # C_128 (m = 736, n = 128): ad_norm holds log omega's n x m level-scale
    # slabs and a row level's product block, never an m x m table;
    # neumann_invert holds C as its factors and n x m sums, and no table
    spec, (hier, _) = spectra["C_128"], hierarchies["C_128"]
    frame, dual, _ = frame_sets["C_128"]
    left, right = _frame_factors(spec, frame, dual)
    table = 8.0 * hier.size ** 2
    assert _traced_peak(lambda: ad.ad_norm(
        hier, params022, left, right, 1.0)) < 0.6 * table
    cstar = ad.lemma64_grid(hier, params022, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    left /= 2.0 * cstar * ad.ad_norm(hier, params022, left, right, 1.0)
    assert _traced_peak(lambda: ad.neumann_invert(
        hier, params022, left, right, cstar)) < 0.9 * table


# ---------------------------------------------------------------------------
# boundedness and inversion


def test_boundedness_probe_all_flavors(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    rng = np.random.default_rng(6)
    battery = rng.standard_normal((100, hier.size))
    rep = ad.boundedness_probe(hier, params022, 0.5 * W, np.eye(hier.size),
                               0.5, battery)
    for key in ("b", "b~", "f", "f~"):
        assert 0 < rep[key] < np.inf


def test_boundedness_probe_matches_per_vector_loop(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    rng = np.random.default_rng(6)
    W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    A = W * rng.uniform(-1, 1, W.shape)
    battery = rng.standard_normal((100, hier.size))
    battery[3] = 0.0
    I = np.eye(hier.size)
    rep = ad.boundedness_probe(hier, params022, A, I, 0.5, battery)
    nrm = ad.ad_norm(hier, params022, A, I, 0.5)
    AH = A @ battery.T
    for key, family, flavor in (("b", "besov", "classical"),
                                ("b~", "besov", "tilde"),
                                ("f", "triebel_lizorkin", "classical"),
                                ("f~", "triebel_lizorkin", "tilde")):
        prm = dataclasses.replace(params022, family=family, flavor=flavor)
        # the loop the probe replaced, one mat-vec per sequence
        worst = 0.0
        for h in battery:
            denom = sq.seq_norm(h, prm, hier)
            if denom == 0:
                continue
            worst = max(worst, sq.seq_norm(A @ h, prm, hier)
                        / (nrm * denom))
        # one mat-vec and one matrix product sum in different orders, so
        # the two agree to rounding; on the product's columns, exactly
        assert abs(rep[key] - worst) <= 1e-14 * worst
        on_columns = max(sq.seq_norm(AH[:, i], prm, hier)
                         / (nrm * sq.seq_norm(h, prm, hier))
                         for i, h in enumerate(battery) if h.any())
        assert rep[key] == on_columns


def test_boundedness_probe_stable_under_refinement(hierarchies, params022):
    rng = np.random.default_rng(7)
    worst = {}
    for name in ("C_64", "C_128"):
        hier, _ = hierarchies[name]
        W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
        battery = rng.standard_normal((100, hier.size))
        rep = ad.boundedness_probe(hier, params022, 0.5 * W,
                                   np.eye(hier.size), 0.5, battery)
        worst[name] = max(rep[k] for k in ("b", "b~", "f", "f~"))
    assert worst["C_128"] <= 2.0 * worst["C_64"]


def test_neumann_inversion_of_small_perturbation(hierarchies, params022):
    # ||D||_1 = 0.01, so delta_hat * c* is about 0.51 < 1
    hier, _ = hierarchies["C_64"]
    D = 0.01 * ad.omega2_matrix(hier, 1.0, 1.0, params022)
    cstar = ad.lemma64_grid(hier, params022, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    I = np.eye(hier.size)
    (left, right), rep = ad.neumann_invert(hier, params022, D, I, cstar)
    assert rep["residual"] <= 1e-9
    assert np.abs((I - D) @ (I + left @ right) - I).max() <= 1e-9
    assert rep["geometric_decay_ok"]
    assert rep["delta_hat"] < 0.5
    assert rep["dhat_cstar"] == rep["delta_hat"] * rep["c_star"] < 1
    # c* = max (Omega(1/2, 1) @ Omega(1/2, 1/2)) / omega(1/2) is Lemma 6.4's
    # grid ratio for the one pair (1, 1/2); the dense product sums in
    # another order, so it agrees to rounding
    assert rep["c_star"] == cstar
    W1 = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    dense = ((ad.omega2_matrix(hier, 0.5, 1.0, params022) @ W1) / W1).max()
    assert abs(rep["c_star"] / dense - 1.0) <= 1e-13
    norms = rep["term_ad_norms"]
    assert all(b < a for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("model, scale, delta", [("T_8x8", 0.03, 1.0),
                                                  ("C_64", 0.01, 0.5)])
def test_neumann_certificate_needs_dhat_cstar_below_one(model, scale, delta,
                                                        hierarchies,
                                                        profiles):
    # delta_hat < 1/2 passes the threshold, and the series still inverts
    # I - D, but delta_hat * c* >= 1: the certified bound does not decay
    hier, _ = hierarchies[model]
    prof = profiles[model]
    prm = sq.SpaceParams(s=0.0, p=2.0, q=2.0, d=prof.d,
                         dstar=max(prof.dstar, 0.0))
    E = scale * ad.omega2_matrix(hier, delta, delta, prm)
    cstar = ad.lemma64_grid(hier, prm, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    if model == "T_8x8":
        # random signs, rescaled to delta_hat = 1.5 / c* (c* = 22.4), so
        # that delta_hat c* >= 1 is forced whatever c* the model measures
        E *= np.random.default_rng(0).uniform(-1, 1, E.shape)
        E *= 1.5 / (cstar * ad.ad_norm(hier, prm, E, np.eye(hier.size), 1.0))
    _, rep = ad.neumann_invert(hier, prm, E, np.eye(hier.size), cstar)
    assert rep["residual"] <= 1e-9 and rep["delta_hat"] < 0.5
    assert rep["dhat_cstar"] == rep["delta_hat"] * rep["c_star"] >= 1
    assert not rep["geometric_decay_ok"]


def test_neumann_rejects_large_perturbation(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    D = 0.6 * W
    cstar = ad.lemma64_grid(hier, params022, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    with pytest.raises(ad.NeumannPreconditionError) as err:
        ad.neumann_invert(hier, params022, D, np.eye(hier.size), cstar)
    assert err.value.delta_hat == ad.ad_norm(hier, params022, D,
                                             np.eye(hier.size), 1.0) >= 0.5


def test_neumann_rejects_a_nan_entry(hierarchies, params022):
    # one NaN in left makes delta_hat NaN, which is not below the
    # threshold: the precondition fails before any series is summed
    hier, _ = hierarchies["C_64"]
    D = 0.01 * ad.omega2_matrix(hier, 0.5, 0.5, params022)
    D[3, 5] = np.nan
    cstar = ad.lemma64_grid(hier, params022, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    with pytest.raises(ad.NeumannPreconditionError) as err:
        ad.neumann_invert(hier, params022, D, np.eye(hier.size), cstar)
    assert np.isnan(err.value.delta_hat)
    assert str(err.value) == ("Neumann precondition failed: ||I-A||_eps = "
                              "nan is not below 0.5")


def _resolvent_probe(model, spectra, hierarchies, frame_sets, profiles):
    """thm6.3-neumann's probe D = c A_m, A_m = U diag(m) V with
    U = psi~^T M E, V = E^T M psi and m(sqrt(lambda)) = 1/(1 + lambda),
    scaled to ||D||_1 = 1/(2 c*); returns (hier, params, U, V, c m, c*)."""
    spec, (hier, _) = spectra[model], hierarchies[model]
    frame, dual, _ = frame_sets[model]
    prof = profiles[model]
    prm = sq.SpaceParams(s=0.0, p=2.0, q=2.0, d=prof.d,
                         dstar=max(prof.dstar, 0.0))
    U, V = spec.coefficients(dual.columns).T, spec.coefficients(frame.columns)
    m = 1.0 / (1.0 + spec.eigenvalues)
    cstar = ad.lemma64_grid(hier, prm, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    c = 1.0 / (2.0 * cstar * ad.ad_norm(hier, prm, U * m, V, 1.0))
    return hier, prm, U, V, c * m, cstar


def test_factored_neumann_matches_dense_powers(spectra, hierarchies,
                                               frame_sets, profiles,
                                               monkeypatch):
    # the series summed on the frame factors' diagonal core, and on a dense
    # D passed as (D, I), whose full core G = D is kept, against the powers
    # of D and the inverse of I - D taken densely
    hier, prm, U, V, cm, cstar = _resolvent_probe(
        "C_64", spectra, hierarchies, frame_sets, profiles)
    D = (U * cm) @ V
    I = np.eye(hier.size)
    ref = np.linalg.inv(I - D)
    steps, series = [], ad.neumann_series

    def recorded(step):
        steps.append(step.ndim == 1)  # a diagonal core is held as a vector
        return series(step)

    monkeypatch.setattr(ad, "neumann_series", recorded)
    for left, right, diagonal in ((U * cm, V, True), (D, I, False)):
        C, rep = ad.neumann_invert(hier, prm, left, right, cstar)
        assert steps.pop() == diagonal
        assert (rep["core_leak"] <= ad.CORE_LEAK_GATE) == diagonal
        # C is returned as its factors (left @ core, right)
        assert C[0].shape == (hier.size, len(right)) and C[1] is right
        assert np.abs(I + C[0] @ C[1] - ref).max() <= 1e-12
        # the residual is relative to max|D|: at most 1e-15 absolute, and
        # within rounding of max|D|
        assert rep["geometric_decay_ok"]
        assert rep["residual"] * np.abs(D).max() <= 1e-15
        assert rep["residual"] <= 1e-13
        assert len(rep["term_ad_norms"]) == rep["terms"] >= 2
        power = D
        for got in rep["term_ad_norms"]:
            want = ad.ad_norm(hier, prm, power, I, 0.5)
            assert abs(got / want - 1.0) <= 1e-12
            power = power @ D
    # with the gate at 1, (D, I) keeps only D's diagonal, so C is wrong;
    # the residual bounds what that core drops, so it is at least the true
    # defect, taken densely as C - D - D C and C - D - C D
    monkeypatch.setattr(ad, "CORE_LEAK_GATE", 1.0)
    C, rep = ad.neumann_invert(hier, prm, D, I, cstar)
    assert steps.pop()
    X = C[0] @ C[1]
    true = max(np.abs(X - D - D @ X).max(),
               np.abs(X - D - X @ D).max()) / np.abs(D).max()
    assert 1e-5 < true <= rep["residual"]


@pytest.mark.parametrize("model", ["C_64", "T_8x8"])
def test_neumann_inverse_is_the_algebra_closed_form(model, spectra,
                                                    hierarchies, frame_sets,
                                                    profiles):
    # A_m1 A_m2 = A_{m1 m2} on the frames' matrices, so
    # (I - c A_m)^{-1} - I = A_{cm/(1-cm)}; C is taken before I is added,
    # so the two agree to rounding at C's own scale
    hier, prm, U, V, cm, cstar = _resolvent_probe(
        model, spectra, hierarchies, frame_sets, profiles)
    (left, right), rep = ad.neumann_invert(hier, prm, U * cm, V, cstar)
    closed = (U * (cm / (1.0 - cm))) @ V
    err = np.abs(left @ right - closed).max()
    assert err <= np.finfo(float).eps
    assert err <= 1e-13 * np.abs(closed).max()
    assert abs(rep["dhat_cstar"] - 0.5) <= 1e-14 and rep["geometric_decay_ok"]


def test_neumann_head_pass_and_pushed_through_defects(
        spectra, hierarchies, frame_sets, profiles, monkeypatch):
    # one pass over D's level blocks takes delta_hat and max|D|, one sweep
    # each power's eps1 norm, and one max_abs pass each of the two defects,
    # each one table differenced on the core; every block of each weight is
    # built at most once
    hier, prm, U, V, cm, cstar = _resolvent_probe(
        "C_64", spectra, hierarchies, frame_sets, profiles)
    passes, built = [], []
    max_ratio, max_abs = ad._max_ratio, ad.max_abs
    log_omega = ad._log_omega

    def counted(*args):
        passes.append(args[4:])
        return max_ratio(*args)

    def defect(hier, left, right):
        passes.append(("defect", left.shape, right.shape))
        return max_abs(hier, left, right)

    def recorded(hier, beta, gamma, params):
        block = log_omega(hier, beta, gamma, params)

        def logged(i, j):
            built.append((beta, i, j))
            return block(i, j)
        return logged

    with monkeypatch.context() as mp:
        mp.setattr(ad, "_max_ratio", counted)
        mp.setattr(ad, "max_abs", defect)
        mp.setattr(ad, "_log_omega", recorded)
        _, rep = ad.neumann_invert(hier, prm, U * cm, V, cstar)
    assert rep["terms"] >= 3 and len(rep["term_ad_norms"]) == rep["terms"]
    assert passes[:2] == [(), (passes[1][0], rep["terms"] - 1)]
    k = len(V)
    assert passes[2:] == [("defect", (hier.size, k), (k, hier.size))] * 2
    assert len(built) == len(set(built))
    assert {beta for beta, _, _ in built} == {1.0, 0.5}
    assert rep["residual"] <= 1e-13
    # a wrong core makes a wrong C, and the defects pushed through the
    # core still see it; the frame factors' core is G's diagonal
    assert rep["core_leak"] <= ad.CORE_LEAK_GATE
    series = ad.neumann_series

    def wrong(step):
        core, terms, tail = series(step)
        assert core.ndim == 1  # the diagonal, as a vector
        return core + 1e-6, terms, tail

    monkeypatch.setattr(ad, "neumann_series", wrong)
    _, rep = ad.neumann_invert(hier, prm, U * cm, V, cstar)
    assert rep["residual"] > 1e-7


# ---------------------------------------------------------------------------
# the frame factors on their spectral bands


@pytest.fixture(scope="module")
def band_contexts(skewed_hierarchy):
    """Run contexts on C_64, C_32~, mu_9 and T_8x8 with the frames built,
    whose factors (U, V) (cli._factors) give A_m = U diag(m) V,
    U = psi~^T M E, V = E^T M psi."""
    from test_space import MU_MODELS
    out = {}
    for name, model in (("C_64", "C_64"), ("C_32~", "C_32"),
                        ("mu_9", MU_MODELS[1]), ("T_8x8", "T_8x8")):
        ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model=model))
        if name == "C_32~":
            ctx._cache["space"] = skewed_hierarchy.space
        ctx.get("frame"), ctx.get("dual")
        out[name] = ctx
    return out


@pytest.mark.parametrize("model", ["C_64", "C_32~", "mu_9", "T_8x8"])
def test_factors_zero_only_rounding_noise(model, band_contexts):
    # the factors are the frames' own tables, formed afresh on each call,
    # equal to the analysis of their synthesised columns to rounding; where
    # the table is exactly 0 and the analysis is not, the analysed value is
    # noise
    ctx = band_contexts[model]
    spec = ctx.get("spec")
    U, V = cli._factors(ctx)
    assert V is not cli._factors(ctx)[1]
    assert np.array_equal(V, ctx.get("frame").table())
    assert np.array_equal(U.T, ctx.get("dual").table())
    measured = (spec.coefficients(ctx.get("dual").columns).T,
                spec.coefficients(ctx.get("frame").columns))
    for table, raw in zip((U, V), measured):
        zeroed = (table == 0) & (raw != 0)
        assert zeroed.any()
        assert np.abs(table - raw).max() <= 1e-13 * np.abs(raw).max()
        assert np.abs(raw[zeroed]).max() <= 1e-13 * np.abs(raw).max()


def _blocks(hier, left, right):
    """(i, j, X) for each level block of left @ right, a row level at a
    time from _row_blocks: X is None for a block it does not form."""
    spans, buf = ad._block_pass(hier, left, right)
    for i, sl in enumerate(hier.blocks):
        for j, X in enumerate(ad._row_blocks(hier, left[sl], right, spans,
                                             buf)):
            yield i, j, X


def _dense_blocks(hier, left, right):
    """left @ right from _row_blocks, with the blocks it skips as 0."""
    A = np.full((hier.size, hier.size), np.nan)
    for i, j, X in _blocks(hier, left, right):
        A[hier.blocks[i], hier.blocks[j]] = 0.0 if X is None else X
    return A


@pytest.mark.parametrize("model", ["C_64", "T_8x8", "mu_9"])
def test_level_blocks_are_the_dense_product(model, band_contexts):
    # each block is formed over the span where both factors are nonzero,
    # and equals the dense product of the same factors bit for bit; a
    # column level whose factor is all 0 forms no block and reads 0
    ctx = band_contexts[model]
    hier = ctx.get("hier")
    U, V = cli._factors(ctx)
    left = U * (1.0 / (1.0 + ctx.get("spec").eigenvalues))
    # the span of block (i, j): left's nonzero columns on row level i met
    # with V's nonzero rows on column level j
    spans = [(max(a, c), min(b, d)) for a, b in ad.column_spans(hier, left.T)
             for c, d in ad.column_spans(hier, V)]
    assert any(lo >= hi for lo, hi in spans)
    assert any(0 < hi - lo < len(V) for lo, hi in spans)
    assert [X is None for *_, X in _blocks(hier, left, V)] == \
        [lo >= hi for lo, hi in spans]
    assert np.array_equal(_dense_blocks(hier, left, V), left @ V)
    right = V.copy()
    right[:, hier.blocks[-2]] = 0.0
    L = len(hier.blocks)
    assert all(X is None for i, j, X in _blocks(hier, left, right)
               if j == L - 2)
    A = _dense_blocks(hier, left, right)
    assert np.array_equal(A, left @ right)
    assert not A[:, hier.blocks[-2]].any()
    # the norms read the same blocks: equal to those of the dense table
    I = np.eye(hier.size)
    for r in (V, right):
        want = np.abs(left @ r).max()
        assert ad.max_abs(hier, left, r) == want
        assert ad.max_abs(hier, left @ r, I) == want
        assert ad.ad_norm(hier, ctx.get("params"), left, r, 0.5) \
            == ad.ad_norm(hier, ctx.get("params"), left @ r, I, 0.5)


def test_compact_dual_on_c64_forms_no_block(band_contexts, monkeypatch):
    # C_64 has no polynomial level, so psi - theta is exactly 0 and the
    # compact dual's ||D||_eps reads 0 without forming any block: a weight
    # block is built beside the first product block of its level pair, and
    # none is built
    ctx = band_contexts["C_64"]
    assert not any(lv.degree for lv in ctx.get("compact_supports").values())
    calls, built = [], []
    log_omega = ad._log_omega

    def recorded(*args):
        calls.append(args[1:3])
        block = log_omega(*args)
        return lambda i, j: built.append((i, j)) or block(i, j)

    monkeypatch.setattr(ad, "_log_omega", recorded)
    _, delta_hat = fr.build_compact_dual(ctx.get("frame"), ctx.get("dual"),
                                         ctx.get("compact"),
                                         ctx.get("params"))
    assert delta_hat == 0.0 and calls == [(ad.NEUMANN_EPSILON,) * 2]
    assert not built


def test_neumann_writes_zero_on_blocks_it_does_not_form(band_contexts):
    # with an all-zero column level in right, that level's blocks of C have
    # an empty span: C's factors leave them exactly 0, they are not formed,
    # and C is the dense inverse's
    ctx = band_contexts["C_64"]
    hier, prm = ctx.get("hier"), ctx.get("params")
    U, V = cli._factors(ctx)
    right = V.copy()
    right[:, hier.blocks[-2]] = 0.0
    cstar = ctx.get("lemma64_half")[-1]["max_ratio"]
    left = U * (1.0 / (1.0 + ctx.get("spec").eigenvalues))
    left /= 2.0 * cstar * ad.ad_norm(hier, prm, left, right, 1.0)
    (c_left, c_right), rep = ad.neumann_invert(hier, prm, left, right, cstar)
    I = np.eye(hier.size)
    C = _dense_blocks(hier, c_left, c_right)
    L = len(hier.blocks)
    assert all(X is None for i, j, X in _blocks(hier, c_left, c_right)
               if j == L - 2)
    assert not C[:, hier.blocks[-2]].any()
    assert np.array_equal(C, c_left @ c_right)
    assert np.abs(I + C - np.linalg.inv(I - left @ right)).max() <= 1e-12
    assert rep["residual"] <= 1e-13 and rep["geometric_decay_ok"]


def test_neumann_suite_work_is_at_most_one_band_pass_per_pass(band_contexts,
                                                              monkeypatch):
    # thm6.3-neumann on C_64 makes 2 + terms + 2 + 2 passes over level
    # blocks: the scale and the head pass, one per power, one per defect
    # and two for the closed form (its difference and its max), each over
    # one table.  Every pass keeps the band spans of the frame factors, so
    # its multiply-adds through _row_blocks are at most one band pass over
    # A_m each; a dense core spreads every power across all n eigen-indices
    ctx = band_contexts["C_64"]
    hier = ctx.get("hier")
    U, V = cli._factors(ctx)
    ctx.get("lemma64_half")
    work, row_blocks = [], ad._row_blocks

    def counted(hier, rows, right, spans, buf):
        a, b = ca.nonzero_span(rows.any(axis=0))
        work.append(sum(len(rows) * max(0, min(b, d) - max(a, c))
                        * (sc.stop - sc.start)
                        for sc, (c, d) in zip(hier.blocks, spans)))
        return row_blocks(hier, rows, right, spans, buf)

    monkeypatch.setattr(ad, "_row_blocks", counted)
    ad.max_abs(hier, U, V)
    band_pass, work[:] = sum(work), []
    status, out = cli.SUITES["thm6.3-neumann"][2](ctx)
    assert status == "pass"
    passes = len(work) // len(hier.blocks)
    assert len(work) == passes * len(hier.blocks)
    assert passes == 2 + out["terms"] + 2 + 2 == 11
    assert sum(work) <= passes * band_pass
