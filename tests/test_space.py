import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmframes import calculus as ca
from mmframes import cli
from mmframes import space as sp


def test_cycle_distances_are_hop_counts():
    m = sp.build_model("C_8")
    assert m.dist[0, 4] == 4.0
    assert m.dist[0, 7] == 1.0
    assert m.diameter == 4.0


def test_torus_distance_is_wrapped_l1():
    m = sp.build_model("T_8x8")
    # node (0,0) to (4,4): 4 + 4 hops
    assert m.dist[0, 4 * 8 + 4] == 8.0
    # a side of 2 has parallel wrap edges: the shorter length counts, so
    # the diameter is a//2 + b//2
    assert sp.build_model("T_2x2").diameter == 2.0
    assert sp.build_model("T_3x2").diameter == 2.0


def test_validation_rejects_asymmetric_measure():
    m = sp.build_model("C_8")
    bad = np.array(m.L)
    bad[0, 1] *= 2.0
    with pytest.raises(ValueError):
        sp.ModelSpace(name="bad", dist=m.dist, mu=m.mu, L=bad)


def test_laplacian_annihilates_constants(models):
    for m in models.values():
        assert np.abs(m.L @ np.ones(m.n)).max() < 1e-12


# cycles and a weighted tree with non-constant measure
MU_MODELS = [
    {"kind": "cycle", "n": 16, "mu": [1 + i % 2 for i in range(16)]},
    {"kind": "cycle", "n": 9, "mu": [1.0 + i / 4 for i in range(9)]},
    {"kind": "tree", "n": 4, "mu": [3, 1, 0.5, 2], "l_scale": 2.0,
     "edges": [[0, 1, 2.0], [1, 2, 1.0], [1, 3, 0.5]]},
]


@pytest.mark.parametrize("desc", MU_MODELS)
def test_operator_divides_by_the_measure(desc):
    m = sp.build_model(desc)
    mu = np.asarray(desc["mu"], dtype=float)
    assert np.array_equal(m.mu, mu)
    # mu-symmetric: diag(mu) L is symmetric, and L kills constants
    ML = mu[:, None] * m.L
    assert np.abs(ML - ML.T).max() <= 1e-14 * np.abs(ML).max()
    assert np.abs(m.L @ np.ones(m.n)).max() <= 1e-14 * np.abs(m.L).max()
    # diag(mu) L is the operator of the same graph under counting measure
    plain = sp.build_model({k: v for k, v in desc.items() if k != "mu"})
    assert np.abs(ML - plain.L).max() <= 1e-14 * np.abs(ML).max()


@pytest.mark.parametrize("desc", MU_MODELS)
def test_eigenbasis_is_mu_orthonormal_and_scales_with_mu(desc):
    spec = ca.eigendecompose(sp.build_model(desc))
    E, mu = spec.eigenfunctions, spec.space.mu
    assert np.abs(E.T @ (mu[:, None] * E) - np.eye(len(mu))).max() < 1e-12
    # scaling mu by c scales the spectrum by 1/c
    c = 4.0
    scaled = ca.eigendecompose(sp.build_model(
        {**desc, "mu": [c * x for x in desc["mu"]]}))
    assert np.allclose(scaled.eigenvalues, spec.eigenvalues / c,
                       rtol=1e-12, atol=1e-12 * spec.lambda_max)


def test_ball_volumes_are_open_balls():
    # at r = 1 on C_8 each open ball holds only its center
    m = sp.build_model("C_8")
    assert np.array_equal(sp.ball_volumes(m, 1.0), np.ones(8))


def test_doubling_profile_oracle_cycle(profiles):
    # on a cycle every ball of radius r has 2*ceil(r)-1 points, so the
    # worst doubling quotient is |B(x,2)|/|B(x,1)| = 3
    prof = profiles["C_64"]
    assert prof.c0 == 3.0
    assert abs(prof.d - np.log2(3.0)) < 1e-12
    assert prof.c2 >= 1.0
    assert prof.truncated


def test_doubling_radii_exclude_degenerate_doubles(models):
    m = models["C_8"]
    prof = sp.measure_doubling(m)
    # radii with 2r > diameter carry no information; their exclusion is
    # flagged as truncation
    assert prof.truncated


_WEIGHTED_TREE = {"kind": "tree", "n": 6,
                  "edges": [[0, 1, 1.0], [1, 2, 0.7], [1, 3, 2.5],
                            [3, 4, 0.3], [3, 5, 1.1]]}


@pytest.mark.parametrize("desc", ["C_64", "P_64", "T_8x8", _WEIGHTED_TREE]
                         + MU_MODELS, ids=str)
def test_doubling_profile_is_the_ball_volume_scan(desc):
    # the sorted distance rows with cumulative mu give every ratio
    # |B(x, 2r)| / |B(x, r)| of the scan over (rho < r) @ mu at each radius,
    # so c0 and c2 are the scan's bit for bit
    m = sp.build_model(desc)
    vals = np.unique(m.dist[m.dist > 0])
    radii = np.unique(np.concatenate([vals, vals / 2.0]))
    radii = radii[2 * radii <= m.diameter]
    ratios = np.array([sp.ball_volumes(m, 2 * r) / sp.ball_volumes(m, r)
                       for r in radii])
    prof = sp.measure_doubling(m)
    assert (prof.c0, prof.c2) == (max(1.0, ratios.max()), ratios.min())


@pytest.mark.parametrize("desc", [
    "C_64", "P_64", "T_16x16",
    {"kind": "path", "n": 64, "mu": [1 + i / 63 for i in range(64)]},
    {"kind": "torus", "nx": 8, "ny": 4,
     "mu": np.random.default_rng(3).uniform(0.5, 2.0, 32).tolist()}],
    ids=["C_64", "P_64", "T_16x16", "ramp_64", "random_mu_8x4"])
def test_ahlfors_band_is_the_ball_volume_scan(desc):
    # the band the doubling sweep reads from the sorted rows is the one of
    # a scan over (rho < r(1 + 1e-12)) @ mu at every distinct distance r,
    # at the profile's d; only the order of the mu sums differs
    m = sp.build_model(desc)
    prof = sp.measure_doubling(m)
    hi, lo = 0.0, np.inf
    for r in np.unique(m.dist[m.dist > 0]):
        ratio = sp.ball_volumes(m, r * (1 + 1e-12)) / r ** prof.d
        hi, lo = max(hi, ratio.max()), min(lo, ratio.min())
    assert abs(prof.ahlfors_band - hi / lo) <= 1e-14 * hi / lo


def test_net_invariants_brute_force(models, hierarchies):
    for name in ("C_32", "C_64", "T_8x8"):
        hier, _ = hierarchies[name]
        for net in hier.levels:
            sp.verify_net_invariants(models[name], net)


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(min_value=0.5, max_value=16.0))
def test_maximal_net_properties(delta):
    m = sp.build_model("C_32")
    centers = sp.build_maximal_net(m, delta)
    D = m.dist[np.ix_(centers, centers)]
    off = D + np.eye(len(centers)) * 2 * delta
    assert off.min() >= delta          # separation
    assert m.dist[:, centers].min(axis=1).max() < delta   # maximality


def _greedy_net_loop(space, delta):
    # the greedy loop build_maximal_net replaced: a point joins when it is
    # >= delta away from every center chosen before it
    centers = []
    for x in range(space.n):
        if all(space.dist[x, c] >= delta for c in centers):
            centers.append(x)
    return np.array(centers, dtype=int)


def _weighted_tree(n, seed):
    rng = np.random.default_rng(seed)
    return {"kind": "tree", "n": n,
            "edges": [[int(rng.integers(0, i)), i, float(rng.uniform(0.25, 2))]
                      for i in range(1, n)]}


@pytest.mark.parametrize("model", ["C_64", "P_64", "T_16x16", "C_256",
                                   _weighted_tree(48, 11)],
                         ids=["C_64", "P_64", "T_16x16", "C_256", "tree_48"])
def test_maximal_net_matches_greedy_loop(model):
    m = sp.build_model(model)
    radii = [0.3, 0.5, 1.0, 1.5, 2.0, 4.0, 7.5, m.diameter / 2, m.diameter,
             *np.unique(m.dist)[1:6]]
    for delta in radii:
        assert np.array_equal(sp.build_maximal_net(m, delta),
                              _greedy_net_loop(m, delta))


def test_partition_tie_break_is_first_minimizer():
    m = sp.build_model("C_8")
    centers = np.array([0, 4])
    owner = sp.build_partition(m, centers, 4.0)
    # node 2 is equidistant; the lower-index center wins
    assert owner[2] == 0
    assert owner[6] == 0 or owner[6] == 1  # 6 is equidistant too
    assert owner[6] == 0


def test_partition_sandwich(models):
    m = models["C_32"]
    delta = 2.0
    centers = sp.build_maximal_net(m, delta)
    owner = sp.build_partition(m, centers, delta)
    for k, xi in enumerate(centers):
        cell = np.nonzero(owner == k)[0]
        inner = np.nonzero(m.dist[xi] < delta / 2.0)[0]
        assert set(inner) <= set(cell)
        assert m.dist[xi, cell].max() < delta


def test_net_count_bound_all_models(models, profiles):
    for name in ("C_8", "C_64", "P_10", "T_8x8"):
        m, prof = models[name], profiles[name]
        for delta in (1.0, 2.0):
            centers = sp.build_maximal_net(m, delta)
            for mult in (1.0, 2.0, 4.0):
                ratio = sp.check_net_count(m, centers, delta, mult * delta,
                                           prof)
                assert ratio <= 1.0


def test_discrete_sum_bound_all_models(models, profiles):
    for name in ("C_8", "C_64", "P_10", "T_8x8"):
        m, prof = models[name], profiles[name]
        sigma = prof.d + 1.0
        for delta in (1.0, 2.0):
            centers = sp.build_maximal_net(m, delta)
            ratio = sp.check_discrete_sum(m, centers, sigma, delta, delta,
                                          2.0 * delta, prof)
            assert ratio <= 1.0


def test_discrete_sum_rejects_bad_hypotheses(models, profiles):
    m, prof = models["C_8"], profiles["C_8"]
    centers = sp.build_maximal_net(m, 1.0)
    with pytest.raises(ValueError):
        sp.check_discrete_sum(m, centers, prof.d - 0.5, 1.0, 1.0, 2.0, prof)
    with pytest.raises(ValueError):
        sp.check_discrete_sum(m, centers, prof.d + 1.0, 2.0, 1.0, 4.0, prof)


def test_peetre_bounds(models, profiles):
    for name in ("C_64", "P_10", "T_8x8"):
        m, prof = models[name], profiles[name]
        ratio = sp.check_peetre_integrals(m, prof.d + 1.0, prof.d + 2.0,
                                          1.0, 2.0, prof)
        assert ratio <= 1.0


def test_hierarchy_flat_arrays_consistent(hierarchies):
    # every flat array and level slice is derived from the nets, also when
    # the hierarchy is rebuilt through dataclasses.replace
    built, _ = hierarchies["C_64"]
    for hier in (built, dataclasses.replace(built, mode="inhomogeneous")):
        assert [f.name for f in dataclasses.fields(hier)] == \
            ["space", "b", "gamma", "mode", "levels"]
        assert (hier.j_min, hier.j_max) == (hier.levels[0].level,
                                            hier.levels[-1].level)
        assert hier.size == sum(net.size for net in hier.levels)
        assert hier.blocks[0].start == 0
        assert hier.blocks[-1].stop == hier.size
        for arr in (hier.xi_level, hier.xi_point, hier.xi_ell, hier.xi_avol,
                    hier.xi_bvol, hier.xi_svol):
            assert arr.shape == (hier.size,)
        for net, sl in zip(hier.levels, hier.blocks):
            assert hier.net(net.level) is net
            assert sl.stop - sl.start == net.size
            assert net.ell == hier.b ** (-net.level)
            assert np.all(hier.xi_level[sl] == net.level)
            assert np.all(hier.xi_ell[sl] == net.ell)
            assert np.array_equal(hier.xi_point[sl], net.centers)
            assert np.array_equal(hier.xi_avol[sl], net.a_vol)
            assert np.array_equal(hier.xi_bvol[sl], net.b_vol)
            assert np.array_equal(hier.xi_svol[sl], net.s_vol)
            assert np.array_equal(net.b_vol, sp.ball_volumes(
                hier.space, net.delta)[net.centers])
            assert np.array_equal(net.s_vol, sp.ball_volumes(
                hier.space, net.ell)[net.centers])


def test_hierarchy_lookups_outside_the_window(hierarchies):
    hier, _ = hierarchies["C_64"]
    for j in (hier.j_min - 1, hier.j_max + 1):
        with pytest.raises(KeyError, match=f"level {j} not in hierarchy"):
            hier.net(j)
    # the lookups index by j - j_min, so a gap in the levels is refused
    with pytest.raises(ValueError, match="consecutive"):
        dataclasses.replace(hier, levels=hier.levels[::2])


def test_empty_level_window_is_refused(models):
    with pytest.raises(ValueError, match=r"empty level window \[3, 2\]"):
        sp.build_hierarchy(models["C_64"], 2.0, 0.5, 3, 2)
    # the inhomogeneous mode starts at level 0
    with pytest.raises(ValueError, match=r"empty level window \[0, -1\]"):
        sp.build_hierarchy(models["C_64"], 2.0, 0.5, -4, -1,
                           mode="inhomogeneous")


@pytest.mark.parametrize("desc", ["C_64", MU_MODELS[0]], ids=["C_64", "mu_16"])
def test_hierarchy_holds_level_scale_ball_volumes(desc):
    spec = ca.eigendecompose(sp.build_model(desc))
    hier = sp.build_hierarchy(spec.space, 2.0, 0.5, *ca.level_window(spec))
    for net, sl in zip(hier.levels, hier.blocks):
        vols = sp.ball_volumes(spec.space, 2.0 ** (-net.level))
        assert np.array_equal(hier.xi_svol[sl], vols[net.centers])


def test_partition_of_a_net_too_dense_for_delta_is_refused():
    # C_32's maximal 1-net holds every point, and every cell is a single
    # point, inside B(xi, 4); but B(xi, 2) holds the neighbours too
    m = sp.build_model("C_32")
    centers = sp.build_maximal_net(m, 1.0)
    assert len(centers) == 32
    with pytest.raises(AssertionError,
                       match=r"B\(xi, delta/2\) not contained in A_xi"):
        sp.build_partition(m, centers, 4.0)
    # two centres 1 apart on C_8 at delta = 4: point 0 lies in B(1, 2)
    with pytest.raises(AssertionError, match="not contained in A_xi"):
        sp.build_partition(sp.build_model("C_8"), [0, 1], 4.0)


def test_net_invariants_refuse_a_point_moved_to_another_cell(models):
    # delta = 4 on C_32: centres 0, 4, 8, ...; point 1 handed to centre 4
    # stays within delta of it, but lies within delta/2 of centre 0
    net = sp.build_net(models["C_32"], -5, 2.0, 0.5)
    assert net.delta == 4.0 and list(net.centers[:2]) == [0, 4]
    sp.verify_net_invariants(models["C_32"], net)
    owner = net.owner.copy()
    owner[1] = 1
    with pytest.raises(AssertionError, match="not contained in A_xi"):
        sp.verify_net_invariants(models["C_32"],
                                 dataclasses.replace(net, owner=owner))


def _violates_triangle_per_k(d):
    # the per-k loop that the min-plus pass replaced
    return any(np.any(d > d[:, [k]] + d[[k], :] + 1e-12)
               for k in range(d.shape[0]))


def _with_table(m, dist):
    return sp.ModelSpace(name="hand", dist=dist, mu=m.mu, L=m.L)


@pytest.mark.parametrize("raise_by, refused", [(2e-12, True), (5e-13, False)])
def test_triangle_check_against_its_slack(raise_by, refused):
    # rho(0, 2) = 2 = rho(0, 1) + rho(1, 2) on C_32; the check allows 1e-12
    m = sp.build_model("C_32")
    d = m.dist.copy()
    d[0, 2] = d[2, 0] = 2.0 + raise_by
    assert _violates_triangle_per_k(d) == refused
    if refused:
        with pytest.raises(ValueError, match="triangle inequality violated"):
            _with_table(m, d)
    else:
        assert _with_table(m, d).dist[0, 2] == 2.0 + raise_by


@pytest.mark.parametrize("desc", ["C_16", "P_12", _weighted_tree(12, 5)],
                         ids=["C_16", "P_12", "tree_12"])
def test_triangle_check_matches_the_per_k_loop(desc):
    # a few symmetric pairs moved by about the slack, up or down, to the
    # ulp: the one min-plus pass refuses exactly the tables the loop refused
    m = sp.build_model(desc)
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(40):
        d = m.dist.copy()
        for _ in range(rng.integers(1, 4)):
            i, j = rng.choice(m.n, 2, replace=False)
            step = rng.choice([0.5, 1.0, 1.5, 2.0]) * 1e-12 \
                + rng.integers(-4, 5) * 2.0 ** -52
            d[i, j] = d[j, i] = d[i, j] + rng.choice([-1, 1]) * step
        refused = _violates_triangle_per_k(d)
        verdicts.add(refused)
        try:
            _with_table(m, d)
        except ValueError as exc:
            assert refused and str(exc) == "triangle inequality violated"
        else:
            assert not refused
    assert verdicts == {True, False}


GEOMETRIC_PATH = {"kind": "path", "n": 32,
                  "mu": np.geomspace(1.0, 50.0, 32).tolist()}


@pytest.mark.parametrize("desc", [
    *MU_MODELS, GEOMETRIC_PATH, _weighted_tree(48, 11),
    {"kind": "path", "n": 64, "mu": [1 + i / 63 for i in range(64)]}],
    ids=str)
def test_distinct_values_are_np_unique(desc):
    m = sp.build_model(desc)
    vals = m.dist[m.dist > 0]
    vols = np.cumsum(m.mu[np.argsort(m.dist, axis=1)], axis=1)
    for table in (vals, np.concatenate([vals, vals / 2.0]), m.dist, vols):
        assert np.array_equal(sp._distinct(table), np.unique(table))


def test_weighted_tree_edges_set_both_metric_and_operator():
    m = sp.build_model({"kind": "tree", "n": 3,
                        "edges": [[0, 1, 2.0], [1, 2, 1.0]]})
    assert m.dist[0, 2] == 3.0
    assert m.L[0, 1] != 0.0


def _dijkstra(n, edges):
    from scipy.sparse.csgraph import shortest_path

    length = np.full((n, n), np.inf)
    for u, v, w in edges:
        length[u, v] = length[v, u] = min(length[u, v], w)
    return shortest_path(length, method="D", directed=False)


@pytest.mark.parametrize("name", ["C_64", "P_64", "T_16x16", "C_256",
                                  "C_512"])
def test_floyd_warshall_matches_dijkstra_on_named_models(name):
    _, n, edges, mu, scale = sp.parse_model(name)
    m = sp._graph_model(name, n, edges, mu, scale)
    assert np.array_equal(m.dist, _dijkstra(n, edges))


def test_floyd_warshall_matches_dijkstra_on_a_weighted_tree():
    rng = np.random.default_rng(3)
    n = 120
    edges = [[int(rng.integers(i)), i, float(rng.uniform(0.1, 3.0))]
             for i in range(1, n)]
    m = sp.build_model({"kind": "tree", "n": n, "edges": edges})
    ref = _dijkstra(n, edges)
    assert np.abs(m.dist - ref).max() <= 1e-12 * ref.max()


# T_1x4 has self-loops, whose conductance cancels on the diagonal
@pytest.mark.parametrize("desc", ["C_64", "T_16x16", "T_1x4", "T_3x2",
                                  *MU_MODELS])
def test_operator_built_in_place_equals_the_dense_formula(desc):
    _, n, edges, mu, scale = sp.parse_model(desc)
    W = np.zeros((n, n))
    for u, v, w in edges:
        W[u, v] += w
        W[v, u] += w
    mu = np.ones(n) if mu is None else np.asarray(mu, dtype=float)
    ref = (np.diag(W.sum(axis=1)) - W) * scale / mu[:, None]
    L = sp.build_model(desc).L
    assert L.tobytes() == ref.tobytes()


# every model description the config rejects; build_model rejects it too,
# with the config's message
@pytest.mark.parametrize("desc", [
    "C_064", "T_8x", "P_+5", "Q_5", 64,
    {"kind": "foo"},
    {"kind": "cycle"},
    {"kind": "cycle", "n": 8, "mu": [1, 2]},
    {"kind": "cycle", "n": 8, "nx": 8},
    {"kind": "cycle", "n": 8.5},
    {"kind": "cycle", "n": 8, "l_scale": "1"},
    {"kind": "tree", "n": 3, "edges": [[0, 1, 1.0]]},
    {"kind": "tree", "n": 3, "edges": [[0, 1, 1.0], [1, 3, 1.0]]},
    {"kind": "tree", "n": 4, "edges": [[0, 1, 1.0], [0, 1, 1.0], [2, 3, 1.0]]},
    {"kind": "tree", "n": 2, "edges": [[0, 1, 1.0]]},
    {"kind": "torus", "nx": 3, "ny": 1},
    {"kind": "path", "n": 2},
    "C_1", "C_2", "C_3", "P_1", "P_2", "T_1", "T_2x1", "T_3x1", "T_1x3",
])
def test_build_model_rejects_what_the_config_rejects(tmp_path, desc):
    with pytest.raises(ValueError) as built:
        sp.build_model(desc)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": desc}))
    with pytest.raises(cli.ConfigError) as loaded:
        cli.load_config(str(p))
    assert str(loaded.value) == str(built.value)
