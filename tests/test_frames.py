import dataclasses

import numpy as np
import pytest

from mmframes import addiag as ad
from mmframes import calculus as ca
from mmframes import frames as fr
from mmframes import molecules as mo
from mmframes import multiplier as mp
from mmframes import seqspace as sq
from mmframes import space as sp
from test_space import MU_MODELS
from conftest import table_frame


def test_standard_hierarchy_sampling_epsilons(hierarchies):
    for name in ("C_64", "T_8x8"):
        hier, eps = hierarchies[name]
        assert max(eps.values()) < 0.5
        assert set(eps) == {net.level for net in hier.levels}


def test_frame_analysis_synthesis_shapes(frame_sets, spectra):
    frame, dual, _ = frame_sets["C_64"]
    f = spectra["C_64"].project_mean_zero(np.arange(64.0))
    c = frame.analyze(f)
    assert c.shape == (frame.hierarchy.size,)
    assert frame.synthesize(c).shape == (64,)


def test_two_sided_reconstruction(frame_sets, spectra):
    for name in ("C_64", "T_8x8"):
        frame, dual, _ = frame_sets[name]
        spec = spectra[name]
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = spec.project_mean_zero(rng.standard_normal(spec.space.n))
            nf = spec.space.norm2(f)
            r1 = spec.space.norm2(fr.reconstruct(frame, dual, f) - f)
            r2 = spec.space.norm2(fr.reconstruct(dual, frame, f) - f)
            assert max(r1, r2) <= 1e-9 * nf


def test_dual_bands_exact(frame_sets, spectra, compact_pipeline):
    # each frame's table is written exactly 0 off its own band, Psi_j for
    # the primal and g_j for the dual, so its leak reads 0, and it is the
    # analysis of its synthesised columns to rounding, which off the band
    # is noise the table does not hold; the compact pipeline's frames are
    # at b = 4
    cp = compact_pipeline
    frames = [(spectra[name], frame_sets[name][:2]) for name in
              ("C_64", "T_8x8")] + [(cp.spec, (cp.frame, cp.dual))]
    for spec, pair in frames:
        bands = fr.hierarchy_bands(spec, pair[0].hierarchy)
        for frame, band in zip(pair, bands):
            table, raw = frame.table(), spec.coefficients(frame.columns)
            assert fr.band_leak(frame, band) == 0.0
            assert np.abs(table - raw).max() <= 1e-13 * np.abs(raw).max()
            assert ((table == 0) & (raw != 0)).any()
            for sl, col in zip(frame.hierarchy.blocks, band.T):
                assert not table[col == 0, sl].any()


def test_primal_table_analyses_the_kernel_columns(frame_sets, spectra):
    # level j's table is Psi_j(sqrt(lambda)) E[xi, :]^T |A_xi|^{1/2}: the
    # coefficients of the kernel columns |A_xi|^{1/2} Psi_j(sqrt(L))(., xi)
    for name in ("C_64", "T_8x8"):
        frame, spec = frame_sets[name][0], spectra[name]
        hier = frame.hierarchy
        psi = fr.hierarchy_bands(spec, hier)[0]
        for net, sl, vals in zip(hier.levels, hier.blocks, psi.T):
            cols = spec.kernel(vals, net.centers) * np.sqrt(net.a_vol)
            assert np.abs(frame.columns[:, sl] - cols).max() <= \
                1e-13 * np.abs(cols).max()


def test_frame_bounds_probe_finite(frame_sets, spectra):
    frame, dual, _ = frame_sets["C_64"]
    spec = spectra["C_64"]
    battery = sq.random_battery(spec, 20, seed=0)
    probe = fr.frame_bounds_probe(frame, dual, battery)
    assert 0 < probe["lower"] <= probe["upper"] < np.inf
    assert probe["residual"] <= 1e-9
    assert probe["samples"] == 20
    # a zero function is left out of every ratio, not counted as a sample
    battery[3] = 0.0
    probe = fr.frame_bounds_probe(frame, dual, battery)
    assert probe["samples"] == 19 and 0 < probe["lower"]
    empty = fr.frame_bounds_probe(frame, dual, 0.0 * battery)
    assert empty == {"lower": np.inf, "upper": 0.0, "residual": 0.0,
                     "samples": 0}


def test_frame_column_norms_track_ball_volumes(frame_sets, spectra):
    # every level's band meets the spectrum, so no column is zero
    frame, _, _ = frame_sets["C_64"]
    spec = spectra["C_64"]
    hier = frame.hierarchy
    from mmframes.space import ball_volumes
    norms = np.linalg.norm(frame.columns, axis=0)
    assert (norms > 1e-12).all()
    for p in (1.0, 2.0):
        ratios = []
        for k in range(hier.size):
            j = int(hier.xi_level[k])
            xi = int(hier.xi_point[k])
            vol = ball_volumes(spec.space, hier.b ** (-j))[xi]
            ratios.append(spec.space.lp_norm(frame.columns[:, k], p)
                          / vol ** (1.0 / p - 0.5))
        ratios = np.array(ratios)
        assert 0 < ratios.min() <= ratios.max() < np.inf
        assert ratios.max() / ratios.min() < 50.0


def test_dual_report_contents(frame_sets, hierarchies, spectra):
    # the dual reads the hierarchy's eps_j, which are check_sampling's
    for name in ("C_64", "C_128", "T_8x8"):
        _, _, report = frame_sets[name]
        hier, eps = hierarchies[name]
        assert report.neumann_tail <= 1e-10
        assert sorted(eps) == [net.level for net in hier.levels]
        for j in eps:
            lo, hi = fr.check_sampling(spectra[name], hier, j)
            assert max(1.0 - lo, hi - 1.0) == eps[j] < 0.5


def _dual_on_kernel_tables(spec, hier, Phi):
    """Reference dual of Thm 4.2 on n x n kernel tables composed under M:
    R = G2 - V, S = R + R M R + ..., columns (G_c + S M G_c) scaled per
    centre; returns (columns, the longest series over the levels whose
    centres are not every point: the builder sums none on the others)."""
    mu, b = spec.space.mu, hier.b
    cols, most = [], 0
    for net in hier.levels:
        j = net.level
        lo, hi = fr.check_sampling(spec, hier, j)
        eps = max(1.0 - lo, hi - 1.0)
        g = spec.symbol(Phi, b ** (-j - 1)) - spec.symbol(Phi, b ** (-j + 2))
        G, G2 = spec.kernel(g), spec.kernel(g**2)
        Gc = G[:, net.centers]
        R = G2 - (Gc * (net.a_vol / (1.0 + eps))[None, :]) @ Gc.T
        S, term, first, terms = np.zeros_like(R), R, np.linalg.norm(R), 0
        while first > 0 and terms < ca.NEUMANN_CAP:
            S += term
            terms += 1
            term = term @ (mu[:, None] * R)
            if np.linalg.norm(term) < ca.NEUMANN_TAIL * first:
                break
        if net.size < spec.space.n:
            most = max(most, terms)
        TG = Gc + S @ (mu[:, None] * Gc)
        cols.append(TG * (np.sqrt(net.a_vol) / (1.0 + eps))[None, :])
    return np.hstack(cols), most


RAMP_PATH = {"kind": "path", "n": 64,
             "mu": np.linspace(1.0, 8.0, 64).tolist()}


@pytest.mark.parametrize("desc", ["C_64", "T_8x8", MU_MODELS[0], RAMP_PATH],
                         ids=["C_64", "T_8x8", "mu_16", "ramp_path_64"])
def test_dual_on_the_sampling_gram_matches_kernel_tables(desc, Phi):
    spec = ca.eigendecompose(sp.build_model(desc))
    hier, eps = fr.build_standard_hierarchy(spec)
    dual, report = fr.build_dual_frame(spec, hier, eps)
    ref, terms = _dual_on_kernel_tables(spec, hier, Phi)
    err = np.abs(dual.columns - ref).max() / np.abs(ref).max()
    assert err <= 1e-12
    assert report.neumann_terms == terms
    # the level's table is T (g X^T) on the rows of sel: exactly the
    # analysis of the kernel-table dual up to rounding
    ref = spec.coefficients(ref)
    assert np.abs(dual.table() - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dual_frame_composes_no_kernel_table(monkeypatch, spectra,
                                             hierarchies, frame_sets):
    _, ref, _ = frame_sets["C_64"]

    def no_kernel(*args, **kwargs):
        raise AssertionError("the dual frame built a kernel table")

    monkeypatch.setattr(ca.SpectralData, "kernel", no_kernel)
    dual, _ = fr.build_dual_frame(spectra["C_64"], *hierarchies["C_64"])
    assert np.array_equal(dual.table(), ref.table())


def test_dual_frame_takes_no_sampling_spectrum(monkeypatch, spectra,
                                               hierarchies, frame_sets):
    # the dual reads eps_j from the hierarchy, which measured them
    _, ref, _ = frame_sets["T_8x8"]

    def no_spectrum(*args, **kwargs):
        raise AssertionError("the dual frame took a Gram's spectrum")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    dual, _ = fr.build_dual_frame(spectra["T_8x8"], *hierarchies["T_8x8"])
    assert np.array_equal(dual.table(), ref.table())


def test_dual_frame_refuses_eps_of_one_half(spectra, hierarchies):
    hier, eps = hierarchies["C_64"]
    j = hier.j_max
    with pytest.raises(RuntimeError,
                       match=f"sampling precondition failed at level {j}"):
        fr.build_dual_frame(spectra["C_64"], hier, {**eps, j: 0.5})


# ---------------------------------------------------------------------------
# compact frame: per-level polynomials in L


def _level_symbols(spec, frame):
    """{level: values on the spectrum} of the symbol behind each level's
    block |A_xi|^{1/2} s(L)(., xi): row i of its coefficients is s_i v_i
    with v_i = E[centres, i] |A|^{1/2}."""
    coeffs = frame.table()
    hier = frame.hierarchy
    out = {}
    for net, sl in zip(hier.levels, hier.blocks):
        v = spec.eigenfunctions[net.centers].T * np.sqrt(net.a_vol)
        out[net.level] = np.sum(coeffs[:, sl] * v, axis=1) \
            / np.sum(v * v, axis=1)
    return out


def test_theta_reproduces_band_symbol(compact_pipeline):
    # every polynomial level's symbol is within COMPACT_SUP_ERR of Psi_j on
    # the spectrum, relative to max |Psi_j|, and sup_err reports that error
    cp = compact_pipeline
    hier = cp.hier
    psi = ca.level_bands(cp.spec, cp.Phi, (hier.j_min, hier.j_max))[0]
    symbols = _level_symbols(cp.spec, cp.compact)
    assert max(lv.degree for lv in cp.levels.values()) > 1
    for col, net in enumerate(hier.levels):
        lv, ref = cp.levels[net.level], psi[:, col]
        err = np.abs(symbols[net.level] - ref).max()
        scale = max(np.abs(ref).max(), 1.0)
        if lv.degree:
            assert lv.sup_err <= fr.COMPACT_SUP_ERR
            assert abs(err - lv.sup_err * np.abs(ref).max()) <= 1e-12 * scale
        else:
            assert lv.sup_err == 0.0 and err <= 1e-12 * scale


def test_theta_jets_vanish(compact_pipeline):
    # the factor lambda: every symbol vanishes at 0, so every column is
    # mean-zero and factors through L: its table's nullspace rows are 0,
    # and its analysed columns' to rounding
    cp = compact_pipeline
    assert not cp.compact.table()[:cp.spec.nullspace_dim].any()
    coeffs = cp.spec.coefficients(cp.compact.columns)
    null = coeffs[:cp.spec.nullspace_dim]
    assert np.abs(null).max() <= 1e-13 * np.abs(coeffs).max()


def test_compact_frame_supports_within_speed_bound(compact_pipeline):
    # a degree-k level's kernel ends k edges out, so its radius is at most
    # k e (e = 1 on a cycle); on C_64 at b = 4 level 1 reaches exactly 31,
    # below the diameter 32
    cp = compact_pipeline
    poly = [lv for lv in cp.levels.values() if lv.degree]
    assert poly
    for lv in poly:
        assert lv.reach == lv.degree * fr.longest_edge(cp.spec.space)
        assert lv.support <= lv.reach
    assert any(lv.support == lv.reach < cp.spec.space.diameter for lv in poly)


def test_fallback_level_block_is_the_primal_block(compact_pipeline):
    cp = compact_pipeline
    fallback = 0
    for net, sl in zip(cp.hier.levels, cp.hier.blocks):
        same = np.array_equal(cp.compact.table()[:, sl],
                              cp.frame.table()[:, sl])
        if cp.levels[net.level].degree == 0:
            fallback += 1
            assert same
        else:
            assert not same
    assert fallback


def test_polynomial_kernel_vanishes_beyond_its_reach():
    # P_128 at b = 2: level 1 is a polynomial of degree 81 < diameter 127,
    # and every column is below SUPPORT_THRESHOLD of its largest entry
    # beyond 81 hops
    spec = ca.eigendecompose(sp.build_model("P_128"))
    hier, _ = fr.build_standard_hierarchy(spec)
    compact, levels = fr.build_compact_frame(spec, hier)
    assert fr.longest_edge(spec.space) == 1.0
    assert 0 < levels[1].degree < spec.space.diameter
    for net, sl in zip(hier.levels, hier.blocks):
        lv = levels[net.level]
        if not lv.degree:
            continue
        cols = np.abs(compact.columns[:, sl])
        beyond = spec.space.dist[:, net.centers] > lv.reach
        peak = cols.max(axis=0)
        assert np.all(cols <= np.where(beyond, ca.SUPPORT_THRESHOLD * peak,
                                       np.inf))
    # the longest edge of a weighted tree is its heaviest edge
    tree = sp.build_model({"kind": "tree", "n": 3,
                           "edges": [[0, 1, 1.0], [1, 2, 2.5]]})
    assert fr.longest_edge(tree) == 2.5


def test_compact_dual_reconstructs(compact_pipeline):
    cp = compact_pipeline
    assert 0 < cp.delta_hat < 0.5
    spec = cp.spec
    F = sq.random_battery(spec, 10, seed=0).T
    resid = spec.space.norm2(fr.reconstruct(cp.compact, cp.cdual, F) - F) \
        / spec.space.norm2(F)
    assert resid.max() <= 1e-6
    rng = np.random.default_rng(11)
    f = spec.project_mean_zero(rng.standard_normal(64))
    t = cp.cdual.analyze(f)
    recon = cp.compact.synthesize(t)
    assert spec.space.norm2(recon - f) <= 1e-6 * spec.space.norm2(f)


# C_64 at b = 4 has a polynomial level; mu_16 keeps every band symbol, so
# its D is 0
@pytest.mark.parametrize("desc, b", [("C_64", 4.0), (MU_MODELS[0], 2.0)],
                         ids=["C_64", "mu_16"])
def test_compact_dual_matches_the_dense_and_certified_inverses(desc, b):
    # the n x n route against two m x m references, in coefficients: the
    # dense solve(I - D, B) and the certified Neumann inverse of Thm 6.3(ii)
    spec = ca.eigendecompose(sp.build_model(desc))
    hier, eps = fr.build_standard_hierarchy(spec, b=b)
    prof = sp.measure_doubling(spec.space)
    params = sq.SpaceParams(s=0.0, p=2.0, q=2.0, d=prof.d,
                            dstar=max(prof.dstar, 0.0))
    frame = fr.build_frame1(spec, hier)
    dual, _ = fr.build_dual_frame(spec, hier, eps)
    compact, _ = fr.build_compact_frame(spec, hier)
    cdual, delta_hat = fr.build_compact_dual(frame, dual, compact, params)
    # D = U~^T (V - V_theta), passed to the Neumann route as its factors,
    # and B = U~^T V
    left = dual.table().T
    right = dataclasses.replace(frame, symbols=frame.symbols
                                - compact.symbols).table()
    D = left @ right
    B = left @ frame.table()
    cstar = ad.lemma64_grid(hier, params, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    (c_left, c_right), rep = ad.neumann_invert(hier, params, left, right,
                                               cstar)
    dense = dual.table() @ np.linalg.solve(np.eye(hier.size) - D, B).T
    certified = dual.table() @ (B + c_left @ (c_right @ B)).T
    for ref in (dense, certified):
        err = np.abs(cdual.table() - ref).max() / np.abs(ref).max()
        assert err <= 1e-12, err
    assert delta_hat == rep["delta_hat"]
    assert (delta_hat > 0) == (desc == "C_64")


def test_default_frames_one_call():
    space, spec, hier, Phi, frame, dual, report = fr.default_frames("C_32")
    # the returned cutoff is the one every builder takes at the base
    assert Phi.b == hier.b
    assert np.array_equal(fr.build_frame1(spec, hier).table(), frame.table())
    f = spec.project_mean_zero(np.sin(np.arange(32.0)))
    r = spec.space.norm2(fr.reconstruct(frame, dual, f) - f)
    assert r <= 1e-9 * spec.space.norm2(f)
    # the contract a caller reads: the longest per-level series, none on
    # C_32, whose every level holds every point
    assert all(net.size == 32 for net in hier.levels)
    assert type(report.neumann_terms) is int and report.neumann_terms == 0


def test_compact_dual_precondition_message(compact_pipeline, params022):
    cp = compact_pipeline
    # a scaled compact frame moves D = <psi - theta, psi~> far from 0
    scaled = dataclasses.replace(cp.compact, symbols=3.0 * cp.compact.symbols)
    with pytest.raises(RuntimeError,
                       match="compact-dual precondition failed"):
        fr.build_compact_dual(cp.frame, cp.dual, scaled, params022)


def test_compact_dual_rejects_a_nan(frame_sets, spectra, hierarchies,
                                    params022):
    # one NaN in C_64's compact symbols makes ||I - A||_eps NaN, which is
    # not below the threshold: no NaN map is returned
    spec, (hier, _) = spectra["C_64"], hierarchies["C_64"]
    frame, dual, _ = frame_sets["C_64"]
    compact, _ = fr.build_compact_frame(spec, hier)
    symbols = compact.symbols.copy()
    symbols[5, 0] = np.nan
    with pytest.raises(RuntimeError) as err:
        fr.build_compact_dual(frame, dual, dataclasses.replace(
            compact, symbols=symbols), params022)
    assert str(err.value) == ("compact-dual precondition failed: "
                              "||I - A||_eps = nan is not below 0.5")


TORUS_FRAMES = ("frame", "dual", "compact", "compact_dual")


@pytest.fixture(scope="module")
def torus_context():
    """A run context on T_16x16 with its four frames built: every level
    holds every point, so the dual holds no table, and the compact dual is
    the dual with a dense n x n map."""
    from mmframes import cli
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="T_16x16"))
    for name in TORUS_FRAMES:
        ctx.get(name)
    return ctx


@pytest.mark.parametrize("name", TORUS_FRAMES)
def test_span_products_are_the_dense_products(torus_context, name):
    # rmatvec and matvec, for one vector and for a table, against the
    # products of the table formed from the level blocks
    frame = torus_context.get(name)
    table = frame.table()
    n, m = table.shape
    rng = np.random.default_rng(3)
    for k in ((), (5,)):
        c, a = rng.standard_normal((n,) + k), rng.standard_normal((m,) + k)
        for got, want in ((frame.rmatvec(c), table.T @ c),
                          (frame.matvec(a), table @ a)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


GEO_PATH = {"kind": "path", "n": 64,
            "mu": [10 ** (6 * i / 63) for i in range(64)]}


def _neumann_level_table(spec, hier, eps, k):
    """Level k's dual table summed on its sampling Gram, as build_dual_frame
    sums it on a subsampled level: T (g X^T) |A|^{1/2} / (1 + eps_j)."""
    net = hier.levels[k]
    g = fr.hierarchy_bands(spec, hier)[1][:, k]
    sel, X, G = fr._sampling_gram(spec, hier, net.level)
    e = eps[net.level]
    K = np.diag(g[sel] ** 2) - np.outer(g[sel], g[sel]) * G / (1.0 + e)
    out = np.zeros((len(g), net.size))
    out[sel] = ca.neumann_series(K)[0] @ (g[sel, None] * X.T) \
        * (np.sqrt(net.a_vol) / (1.0 + e))
    return out


@pytest.mark.parametrize("desc", ["C_64", "P_64", "T_16x16", GEO_PATH],
                         ids=["C_64", "P_64", "T_16x16", "geo_path_64"])
def test_symbol_products_are_the_level_table_products(desc):
    # each frame's products against those of the table built level by
    # level with _level_coeffs from its symbols (and the dual's subsampled
    # tables), for one vector and for an (n, 5) table.  On every level at
    # every point, the dual's symbol block g_j is the table that the
    # Neumann series builds there, to 1e-13; the others are subsampled
    spec = ca.eigendecompose(sp.build_model(desc))
    hier, eps = fr.build_standard_hierarchy(spec)
    n = spec.space.n
    frame = fr.build_frame1(spec, hier)
    dual, _ = fr.build_dual_frame(spec, hier, eps)
    compact, _ = fr.build_compact_frame(spec, hier)
    every = [k for k, net in enumerate(hier.levels)
             if np.array_equal(net.centers, np.arange(n))]
    assert sorted(dual.tables) == sorted(set(range(len(hier.levels)))
                                         - set(every))
    assert (len(every) < len(hier.levels)) == (desc != "T_16x16")
    rng = np.random.default_rng(8)
    for fam in (frame, dual, compact):
        table = np.hstack([
            fam.tables[k] if k in fam.tables else
            fr._level_coeffs(spec, net, fam.symbols[:, k])
            for k, net in enumerate(hier.levels)])
        for k in ((), (5,)):
            c = rng.standard_normal((n,) + k)
            a = rng.standard_normal((hier.size,) + k)
            for got, want in ((fam.rmatvec(c), table.T @ c),
                              (fam.matvec(a), table @ a)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= \
                    1e-13 * np.abs(want).max()
    for k in every:
        ref = _neumann_level_table(spec, hier, eps, k)
        lo, hi, B = dual.block(k)
        got = np.zeros_like(ref)
        got[lo:hi] = B
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_frame_symbols_and_tables_are_read_only(frame_sets):
    frame, dual, _ = frame_sets["C_64"]
    assert dual.tables and not frame.tables
    for array in (frame.symbols, dual.symbols, *dual.tables.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    with pytest.raises(ValueError, match="one column per level"):
        fr.Frame(frame.spec, frame.hierarchy, frame.table())


@pytest.mark.parametrize("name", ["frame", "dual"])
def test_span_products_read_a_planted_entry(torus_context, name):
    # one coefficient of 1e-3 max|table| planted in the first column of the
    # lowest level, one row past that level's span: the replaced frame's
    # span takes it in, so analyze reads it as the dense product does and
    # the multiplier's frame route leaves direct calculus.  A span taken
    # from the band symbol would skip it
    ctx = torus_context
    spec, frames = ctx.get("spec"), {k: ctx.get(k) for k in ("frame", "dual")}
    frame = frames[name]
    (lo, hi), xi = frame.spans[0], frame.hierarchy.blocks[0].start
    coeffs = frame.table().copy()
    assert hi < len(coeffs) and coeffs[hi, xi] == 0
    coeffs[hi, xi] = 1e-3 * np.abs(coeffs).max()
    frames[name] = table_frame(frame.spec, frame.hierarchy, coeffs)
    assert frames[name].spans == [(lo, hi + 1)] + frame.spans[1:]
    f = spec.project_mean_zero(
        np.random.default_rng(5).standard_normal(spec.space.n))
    want = coeffs.T @ spec.coefficients(f)
    assert np.abs(frames[name].analyze(f) - want).max() \
        <= 1e-13 * np.abs(want).max()
    sym = mp.check_mihlin("rational", 4, ctx.get("params"), spec)
    with pytest.raises(RuntimeError, match="frame route disagrees"):
        mp.apply_multiplier(sym, f, frames["frame"], frames["dual"], spec)


def test_frame_products_read_only_the_spans(torus_context):
    # the spans cover at most 0.40 n m of the primal table and 0.70 n m of
    # the dual's (0.37 and 0.68 measured).  Held as tables with every entry
    # off the spans set to 1 once the spans are recorded, analysis,
    # synthesis, the multiplier's frame route, molecular synthesis and
    # molecular analysis, its analysing family included, give what they
    # give on the same tables without those entries: no table level's
    # product reads the whole table
    ctx = torus_context
    spec, params = ctx.get("spec"), ctx.get("params")
    n, m = ctx.get("frame").table().shape
    for name, bound in (("frame", 0.40), ("dual", 0.70)):
        fr_ = ctx.get(name)
        assert sum((hi - lo) * (sl.stop - sl.start) for sl, (lo, hi) in zip(
            fr_.hierarchy.blocks, fr_.spans)) <= bound * n * m
    frame, dual = (table_frame(spec, ctx.get("hier"), ctx.get(name).table())
                   for name in ("frame", "dual"))

    def off_span_ones(fr_):
        table = np.ones((n, m))
        for k, (sl, (lo, hi)) in enumerate(zip(fr_.hierarchy.blocks,
                                               fr_.spans)):
            table[lo:hi, sl] = fr_.tables[k][lo:hi]
        probe = table_frame(spec, fr_.hierarchy, table)
        object.__setattr__(probe, "spans", fr_.spans)
        return probe

    probe, probe_dual = off_span_ones(frame), off_span_ones(dual)
    F = spec.project_mean_zero(
        np.random.default_rng(9).standard_normal((spec.space.n, 3)))
    a = dual.analyze(F)
    assert np.array_equal(probe_dual.analyze(F), a)
    assert np.array_equal(probe.synthesize(a), frame.synthesize(a))
    sym = mp.check_mihlin("rational", 4, params, spec)
    mp.apply_multiplier(sym, F, probe, probe_dual, spec)
    got, want = (mo.molecular_analysis(F, *fams, params)[0]
                 for fams in ((probe_dual, probe, probe_dual),
                              (dual, frame, dual)))
    assert np.array_equal(got, want)
    got, want = (mo.molecular_synthesis(a, fam, params)[0]
                 for fam in (probe, frame))
    assert np.array_equal(got, want)
