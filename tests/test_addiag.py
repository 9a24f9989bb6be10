import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmframes import addiag as ad
from mmframes import seqspace as sq
from mmframes.addiag import NetMatrix


def test_omega_diagonal_is_one(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega_matrix(hier, 0.5, params022)
    assert np.abs(np.diag(W) - 1.0).max() == 0.0


def test_omega2_collapses_to_omega(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        i, k = rng.integers(0, hier.size, size=2)
        v1 = ad.omega(hier, int(i), int(k), 0.5, params022)
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
    W_small = ad.omega_matrix(hier, 0.25, params022)
    W_big = ad.omega_matrix(hier, 1.0, params022)
    for _ in range(1000):
        i, k = rng.integers(0, hier.size, size=2)
        assert W_big[i, k] <= W_small[i, k] * (1.0 + 1e-12)


def test_omega_rejects_bad_exponents(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError):
        ad.omega_matrix(hier, -0.5, params022)


def test_netmatrix_shape_check(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError):
        NetMatrix(hierarchy=hier, entries=np.eye(hier.size + 1),
                  params=params022)


def test_ad_norm_scales_linearly(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    E = np.random.default_rng(3).standard_normal((hier.size, hier.size))
    A = NetMatrix(hierarchy=hier, entries=E, params=params022)
    B = NetMatrix(hierarchy=hier, entries=3.0 * E, params=params022)
    na, nb = ad.ad_norm(A, 0.5), ad.ad_norm(B, 0.5)
    assert abs(nb.value - 3.0 * na.value) <= 1e-9 * nb.value
    assert na.argmax == nb.argmax


def test_ad_norm_of_scaled_omega_is_scale(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega_matrix(hier, 0.5, params022)
    A = NetMatrix(hierarchy=hier, entries=0.3 * W, params=params022)
    assert abs(ad.ad_norm(A, 0.5).value - 0.3) < 1e-12


def test_apply_and_compose(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    rng = np.random.default_rng(4)
    E1 = rng.standard_normal((hier.size, hier.size))
    E2 = rng.standard_normal((hier.size, hier.size))
    A = NetMatrix(hierarchy=hier, entries=E1, params=params022)
    B = NetMatrix(hierarchy=hier, entries=E2, params=params022)
    h = rng.standard_normal(hier.size)
    assert np.allclose(ad.apply(ad.compose(A, B), h), E1 @ (E2 @ h))


def test_compose_requires_same_hierarchy(hierarchies, params022):
    h1, _ = hierarchies["C_64"]
    h2, _ = hierarchies["C_32"]
    A = NetMatrix(hierarchy=h1, entries=np.eye(h1.size), params=params022)
    B = NetMatrix(hierarchy=h2, entries=np.eye(h2.size), params=params022)
    with pytest.raises(ValueError):
        ad.compose(A, B)


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
            ad.lemma64_check(hier, params022, beta, g1, g2)
    else:
        res = ad.lemma64_check(hier, params022, beta, g1, g2)
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
                        vals.append(ad.lemma64_check(hier, params022,
                                                     beta, g1, g2)["max_ratio"])
        worst[name] = max(vals)
    assert worst["C_64"] <= 2.0 * worst["C_32"]


@pytest.fixture(scope="module")
def p64_hierarchy():
    # ball volumes vary per point on P_64, so the weights' head term does too
    from mmframes import calculus as ca, frames as fr, space as sp
    return fr.build_standard_hierarchy(
        ca.eigendecompose(sp.build_model("P_64")))[0]


@pytest.mark.parametrize("flavor", ["classical", "tilde"])
@pytest.mark.parametrize("model", ["C_64", "P_64"])
def test_lemma64_grid_matches_dense_products(model, flavor, hierarchies,
                                             p64_hierarchy, params022):
    # the level-block grid against (W1 @ W2) / omega(beta, min gamma) built
    # densely, over the whole grid of the lemma6.4-W-bound suite
    from mmframes.cli import _LEMMA64_GRID
    hier = p64_hierarchy if model == "P_64" else hierarchies[model][0]
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


def test_lemma64_check_is_the_one_pair_grid(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    for beta, g1, g2 in ((0.5, 1.0, 0.6), (1.0, 0.5, 2.4)):
        assert ad.lemma64_check(hier, params022, beta, g1, g2) \
            == ad.lemma64_grid(hier, params022, beta, [(g1, g2)])[0]
    assert ad.lemma64_grid(hier, params022, 0.5, []) == []


def test_lemma64_grid_requires_constant_ell_per_level(hierarchies,
                                                      params022):
    hier, _ = hierarchies["C_64"]
    sl = hier.level_slice(hier.levels[-1].level)
    ell = hier.xi_ell.copy()
    ell[sl.start] *= 1.5
    bad = dataclasses.replace(hier, xi_ell=ell)
    with pytest.raises(ValueError, match="not constant"):
        ad.lemma64_grid(bad, params022, 0.5, [(1.0, 0.6)])


# ---------------------------------------------------------------------------
# boundedness and inversion


def test_boundedness_probe_all_flavors(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega_matrix(hier, 0.5, params022)
    A = NetMatrix(hierarchy=hier, entries=0.5 * W, params=params022)
    rng = np.random.default_rng(6)
    battery = rng.standard_normal((100, hier.size))
    rep = ad.boundedness_probe(A, 0.5, battery)
    for key in ("b", "b~", "f", "f~"):
        assert 0 < rep[key] < np.inf


def test_boundedness_probe_matches_per_vector_loop(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    rng = np.random.default_rng(6)
    W = ad.omega_matrix(hier, 0.5, params022)
    A = NetMatrix(hierarchy=hier, entries=W * rng.uniform(-1, 1, W.shape),
                  params=params022)
    battery = rng.standard_normal((100, hier.size))
    battery[3] = 0.0
    rep = ad.boundedness_probe(A, 0.5, battery)
    nrm = ad.ad_norm(A, 0.5).value
    AH = A.entries @ battery.T
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
            worst = max(worst, sq.seq_norm(A.entries @ h, prm, hier)
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
        W = ad.omega_matrix(hier, 0.5, params022)
        A = NetMatrix(hierarchy=hier, entries=0.5 * W, params=params022)
        battery = rng.standard_normal((100, hier.size))
        rep = ad.boundedness_probe(A, 0.5, battery)
        worst[name] = max(rep[k] for k in ("b", "b~", "f", "f~"))
    assert worst["C_128"] <= 2.0 * worst["C_64"]


def test_neumann_inversion_of_small_perturbation(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega_matrix(hier, 0.5, params022)
    A = NetMatrix(hierarchy=hier, entries=np.eye(hier.size) - 0.01 * W,
                  params=params022)
    Ainv, rep = ad.neumann_invert(A, epsilon=1.0, delta_threshold=0.5)
    assert rep["residual"] <= 1e-9
    assert rep["geometric_decay_ok"]
    assert rep["delta_hat"] < 0.5
    assert rep["c_star"] == ad.lemma64_check(hier, params022, 0.5, 1.0,
                                             0.5)["max_ratio"]
    norms = rep["term_ad_norms"]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_neumann_rejects_large_perturbation(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega_matrix(hier, 0.5, params022)
    A = NetMatrix(hierarchy=hier, entries=np.eye(hier.size) - 0.6 * W,
                  params=params022)
    with pytest.raises(ad.NeumannPreconditionError) as err:
        ad.neumann_invert(A, epsilon=1.0, delta_threshold=0.5)
    D = NetMatrix(hierarchy=hier, entries=np.eye(hier.size) - A.entries,
                  params=params022)
    assert err.value.delta_hat == ad.ad_norm(D, 1.0).value >= 0.5
