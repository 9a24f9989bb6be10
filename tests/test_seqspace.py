import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmframes import calculus as ca
from mmframes import seqspace as sq
from mmframes import space as sp


def test_params_validation():
    with pytest.raises(ValueError):
        sq.SpaceParams(s=0, p=2, q=2, flavor="weird")
    with pytest.raises(ValueError):
        sq.SpaceParams(s=0, p=np.inf, q=2, family="triebel_lizorkin")
    with pytest.raises(ValueError):
        sq.SpaceParams(s=0, p=-1, q=2)


def test_smoothness_threshold_J():
    pb = sq.SpaceParams(s=0, p=0.5, q=2, family="besov", d=2.0)
    assert pb.J == 4.0
    pf = sq.SpaceParams(s=0, p=2, q=0.5, family="triebel_lizorkin", d=2.0)
    assert pf.J == 4.0


def test_s0_p2_q2_norm_is_L2(spectra):
    # with an exact quadratic partition of unity the (0, 2, 2) norm equals
    # the plain mu-weighted L2 norm of the mean-zero part
    spec = spectra["C_64"]
    phi = ca.make_cutoff("c", 2.0)
    params = sq.SpaceParams(s=0.0, p=2.0, q=2.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = spec.project_mean_zero(rng.standard_normal(64))
        fn = sq.function_norm(f, params, spec, phi)
        assert abs(fn - spec.space.norm2(f)) <= 1e-9 * spec.space.norm2(f)


def test_besov_and_tl_agree_when_p_equals_q(spectra):
    spec = spectra["C_64"]
    psi = ca.make_cutoff("b", 2.0)
    f = spec.project_mean_zero(np.cos(np.arange(64.0)))
    for s, p in ((0.0, 2.0), (1.0, 1.0)):
        pb = sq.SpaceParams(s=s, p=p, q=p, family="besov")
        pf = sq.SpaceParams(s=s, p=p, q=p, family="triebel_lizorkin")
        nb = sq.function_norm(f, pb, spec, psi)
        nf = sq.function_norm(f, pf, spec, psi)
        assert abs(nb - nf) <= 1e-9 * nb


@pytest.mark.parametrize("family", ["besov", "triebel_lizorkin"])
def test_norm_base_defaults_to_the_cutoffs_own(family, spectra):
    # a base-3 cutoff with b left out takes the base-3 level window, not
    # base 2's, bit for bit as with b = 3 passed
    spec = spectra["C_64"]
    psi = ca.make_cutoff("b", 3.0)
    prm = sq.SpaceParams(s=1.0, p=2.0, q=2.0, family=family)
    F = spec.project_mean_zero(
        np.random.default_rng(4).standard_normal((64, 5)))
    out = sq.function_norm(F, prm, spec, psi)
    assert np.array_equal(out, sq.function_norm(F, prm, spec, psi, 3.0))
    assert not np.allclose(out, sq.function_norm(F, prm, spec, psi, 2.0))
    norm = sq.besov_norm if family == "besov" else sq.tl_norm
    assert np.array_equal(norm(F, prm, spec, psi), out)


def test_seq_norm_small_hand_oracle(hierarchies):
    # one-hot sequence: the norm reduces to the single-term weight
    hier, _ = hierarchies["C_64"]
    params = sq.SpaceParams(s=1.0, p=2.0, q=2.0, family="besov")
    a = np.zeros(hier.size)
    net, sl = hier.levels[3], hier.blocks[3]
    a[sl.start] = 2.0
    vol = sp.ball_volumes(hier.space, hier.b ** (-net.level))[net.centers[0]]
    expected = hier.b ** (net.level * 1.0) * 2.0 * vol ** (1.0 / 2.0 - 0.5)
    assert abs(sq.seq_norm(a, params, hier) - expected) < 1e-12


def test_seq_norm_rejects_wrong_length(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError):
        sq.seq_norm(np.zeros(hier.size + 1), params022, hier)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=0.01, max_value=100.0),
       seed=st.integers(min_value=0, max_value=50))
def test_seq_norm_homogeneity(c, seed, hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    a = np.random.default_rng(seed).standard_normal(hier.size)
    n1 = sq.seq_norm(a, params022, hier)
    assert abs(sq.seq_norm(c * a, params022, hier) - c * n1) <= 1e-9 * c * n1


# (family, flavor, s, p, q): both families and flavors, s != 0, q = inf and
# Besov p = inf
TABLE_CASES = [
    ("besov", "classical", 0.5, 2.0, 2.0),
    ("besov", "tilde", -0.5, 1.0, np.inf),
    ("besov", "classical", 0.75, np.inf, 1.5),
    ("besov", "tilde", 0.5, np.inf, np.inf),
    ("triebel_lizorkin", "classical", 0.5, 2.0, np.inf),
    ("triebel_lizorkin", "tilde", -0.75, 1.5, 1.0),
]


@pytest.mark.parametrize("family,flavor,s,p,q", TABLE_CASES)
def test_norms_of_a_table_match_column_by_column(family, flavor, s, p, q,
                                                 spectra, hierarchies,
                                                 params022):
    spec = spectra["C_64"]
    hier, _ = hierarchies["C_64"]
    prm = dataclasses.replace(params022, family=family, flavor=flavor,
                              s=s, p=p, q=q)
    psi = ca.make_cutoff("b", 2.0)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((hier.size, 7))
    F = rng.standard_normal((spec.space.n, 7))
    for table, norm in ((A, lambda x: sq.seq_norm(x, prm, hier)),
                        (F, lambda x: sq.function_norm(x, prm, spec, psi))):
        out = norm(table)
        cols = np.array([norm(table[:, i]) for i in range(table.shape[1])])
        assert out.shape == (7,) and type(norm(table[:, 0])) is float
        assert np.all(cols > 0)
        assert np.abs(out - cols).max() <= 1e-14 * cols.max()


@pytest.mark.parametrize("family,flavor,s,p,q", TABLE_CASES)
def test_zero_column_has_norm_zero(family, flavor, s, p, q, spectra,
                                   hierarchies, params022):
    spec = spectra["C_64"]
    hier, _ = hierarchies["C_64"]
    prm = dataclasses.replace(params022, family=family, flavor=flavor,
                              s=s, p=p, q=q)
    psi = ca.make_cutoff("b", 2.0)
    rng = np.random.default_rng(12)
    A = rng.standard_normal((hier.size, 3))
    F = rng.standard_normal((spec.space.n, 3))
    A[:, 1] = F[:, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = sq.seq_norm(A, prm, hier)
        f = sq.function_norm(F, prm, spec, psi)
        one = sq.seq_norm(A[:, 1], prm, hier)
    for out in (a, f):
        assert out[1] == 0.0 and np.all(out[[0, 2]] > 0)
    assert one == 0.0


@pytest.mark.parametrize("s", [0.0, 0.75])
@pytest.mark.parametrize("flavor", ["classical", "tilde"])
@pytest.mark.parametrize("family", ["besov", "triebel_lizorkin"])
def test_function_norm_matches_an_explicitly_weighted_reference(
        family, flavor, s, spectra, params022):
    # level by level: |psi(2^{-j} sqrt(L)) f| times the weight table
    # 2^{js} (classical) or |B(x, 2^{-j})|^{-s/d} (tilde), applied also
    # where it is 1
    spec = spectra["C_64"]
    space = spec.space
    prm = dataclasses.replace(params022, family=family, flavor=flavor,
                              s=s, p=1.5, q=3.0)
    psi = ca.make_cutoff("b", 2.0)
    F = spec.project_mean_zero(
        np.random.default_rng(13).standard_normal((space.n, 4)))
    j_min, j_max = ca.level_window(spec, 2.0)
    pieces = []
    for j in range(j_min, j_max + 1):
        vals = spec.symbol(psi, 2.0 ** (-j))
        vals[: spec.nullspace_dim] = 0.0
        if flavor == "classical":
            weight = np.full(space.n, 2.0 ** (j * s))
        else:
            weight = sp.ball_volumes(space, 2.0 ** (-j)) ** (-s / prm.d)
        pieces.append(weight[:, None] * np.abs(spec.apply(vals, F)))
    pieces = np.array(pieces)  # (L, n, k)
    if family == "besov":
        terms = np.array([space.lp_norm(piece, prm.p) for piece in pieces])
        ref = (terms**prm.q).sum(axis=0) ** (1.0 / prm.q)
    else:
        ref = space.lp_norm((pieces**prm.q).sum(axis=0) ** (1.0 / prm.q),
                            prm.p)
    out = sq.function_norm(F, prm, spec, psi)
    assert np.all(ref > 0)
    assert np.abs(out - ref).max() <= 1e-13 * ref.max()


# ---------------------------------------------------------------------------
# maximal operator


def _maximal_brute(f, t, space):
    g = np.abs(f) ** t
    out = np.zeros(space.n)
    radii = np.unique(space.dist) + 0.5
    for z in range(space.n):
        for r in radii:
            members = np.nonzero(space.dist[z] < r)[0]
            w = space.mu[members]
            avg = (g[members] * w).sum() / w.sum()
            val = avg ** (1.0 / t)
            out[members] = np.maximum(out[members], val)
    return out


def test_maximal_matches_brute_force(models):
    rng = np.random.default_rng(5)
    for name in ("C_8", "P_10"):
        m = models[name]
        f = rng.standard_normal(m.n)
        F = rng.standard_normal((3, m.n))
        for t in (0.5, 1.0, 2.0):
            fast = sq.maximal_Mt(f, t, m)
            slow = _maximal_brute(f, t, m)
            assert np.abs(fast - slow).max() < 1e-10
            # a (k, n) table gives each row's maximal function, bit for bit
            assert np.array_equal(sq.maximal_Mt(F, t, m),
                                  [sq.maximal_Mt(row, t, m) for row in F])


def test_maximal_dominates_function(models):
    m = models["C_32"]
    f = np.random.default_rng(2).standard_normal(m.n)
    M = sq.maximal_Mt(f, 1.0, m)
    assert np.all(M >= np.abs(f) - 1e-12)


def test_maximal_rejects_bad_t(models):
    with pytest.raises(ValueError):
        sq.maximal_Mt(np.ones(8), 0.0, models["C_8"])


def test_fs_maximal_ratio_at_least_one(models):
    m = models["C_32"]
    fam = np.random.default_rng(3).standard_normal((4, m.n))
    rep = sq.fs_maximal_probe(fam, 2.0, 2.0, 1.0, m)
    assert rep["ratio"] >= 1.0
    with pytest.raises(ValueError):
        sq.fs_maximal_probe(fam, 2.0, 2.0, 3.0, m)


# ---------------------------------------------------------------------------
# Hardy window sums


def _hardy_brute(a, gamma, q, b):
    m = len(a)
    down = np.array([sum(b ** (-(k - j) * gamma) * a[k] for k in range(j, m))
                     for j in range(m)])
    up = np.array([sum(b ** (-(j - k) * gamma) * a[k] for k in range(j + 1))
                   for j in range(m)])
    rhs = (a**q).sum() ** (1.0 / q)
    return (down**q).sum() ** (1.0 / q) / rhs, (up**q).sum() ** (1.0 / q) / rhs


def test_hardy_matches_double_loop():
    a = np.random.default_rng(9).random(12)
    rep = sq.hardy_check(a, gamma=0.5, q=2.0)
    d, u = _hardy_brute(a, 0.5, 2.0, 2.0)
    assert abs(rep["down"] - d) < 1e-12
    assert abs(rep["up"] - u) < 1e-12


def test_hardy_bound_is_window_free():
    # the constant 1/(1 - b^-gamma) bounds both forms at any length
    rng = np.random.default_rng(4)
    cbound = 1.0 / (1.0 - 2.0 ** -0.5)
    for m in (10, 20, 40):
        a = rng.random(m)
        rep = sq.hardy_check(a, gamma=0.5, q=2.0)
        assert max(rep["down"], rep["up"]) <= cbound


def test_hardy_table_matches_its_rows():
    # one call on a (k, m) table gives each row's ratios exactly as one call
    # per row does, and a zero row reads 0
    A = np.abs(np.random.default_rng(5).standard_normal((50, 20)))
    A[7] = 0.0
    rep = sq.hardy_check(A, gamma=0.5, q=2.0, b=3.0)
    rows = [sq.hardy_check(a, gamma=0.5, q=2.0, b=3.0) for a in A]
    for key in ("down", "up"):
        assert rep[key].shape == (50,) and rep[key][7] == 0.0
        assert all(type(row[key]) is float for row in rows)
        assert np.array_equal(rep[key], [row[key] for row in rows])


def test_hardy_rejects_bad_input():
    with pytest.raises(ValueError):
        sq.hardy_check(np.array([1.0, -1.0]), 0.5, 2.0)
    with pytest.raises(ValueError):
        sq.hardy_check(np.ones(4), -1.0, 2.0)


# ---------------------------------------------------------------------------
# frame characterization


def test_characterization_bands_finite_and_stable(spectra, frame_sets,
                                                  params022):
    bands = {}
    for name in ("C_64", "C_128"):
        spec = spectra[name]
        frame, dual, _ = frame_sets[name]
        battery = sq.random_battery(spec, 20, seed=0)
        rep = sq.check_frame_characterization(battery, params022, frame,
                                              dual)
        lo, hi = rep["ratio_band"]
        assert 0 < lo <= hi < np.inf
        assert rep["reconstruction_residual"] <= 1e-9
        bands[name] = hi / lo
    # refining the model must not blow the equivalence band up
    assert bands["C_128"] <= 2.0 * bands["C_64"]


def test_random_battery_is_deterministic_and_mean_zero(models, spectra):
    m, spec = models["C_32"], spectra["C_32"]
    b1 = sq.random_battery(spec, 5, seed=3)
    b2 = sq.random_battery(spec, 5, seed=3)
    assert np.array_equal(b1, b2)
    assert np.abs(b1 @ m.mu).max() < 1e-10


@pytest.mark.parametrize("model", [
    "C_16", {"kind": "cycle", "n": 16, "mu": [1 + i % 2 for i in range(16)]}],
    ids=["C_16", "alternating_mu_C_16"])
def test_random_battery_ignores_the_eigenbasis(model):
    space = sp.build_model(model)
    spec = ca.eigendecompose(space)
    # rotate every 2-D eigenspace by 0.7 rad: another mu-orthonormal
    # eigenbasis that LAPACK could as well have returned
    E = spec.eigenfunctions.copy()
    lam = spec.eigenvalues
    c, s = np.cos(0.7), np.sin(0.7)
    pairs = [i for i in range(len(lam) - 1)
             if abs(lam[i + 1] - lam[i]) <= 1e-9 * spec.lambda_max]
    assert pairs
    for i in pairs:
        E[:, [i, i + 1]] = E[:, [i, i + 1]] @ np.array([[c, s], [-s, c]])
    rotated = dataclasses.replace(spec, eigenfunctions=E)
    assert np.allclose(rotated.kernel(lam), spec.kernel(lam), atol=1e-12)
    b1 = sq.random_battery(spec, 20, seed=3)
    b2 = sq.random_battery(rotated, 20, seed=3)
    assert np.abs(b2 - b1).max() <= 1e-12 * np.abs(b1).max()
