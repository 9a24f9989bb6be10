import numpy as np
import pytest

from mmframes import calculus as ca
from mmframes import space as sp


def test_cycle_eigenvalues_match_closed_form(spectra):
    # the cycle operator has eigenvalues 2 - 2 cos(2 pi k / n)
    n = 32
    spec = spectra["C_32"]
    expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(np.sort(spec.eigenvalues), expected, atol=1e-10)


def test_eigenfunctions_are_mu_orthonormal(spectra):
    spec = spectra["T_8x8"]
    E, mu = spec.eigenfunctions, spec.space.mu
    G = E.T @ (mu[:, None] * E)
    assert np.abs(G - np.eye(spec.space.n)).max() < 1e-9


def test_eigendecompose_is_deterministic(models):
    a = ca.eigendecompose(models["C_32"])
    b = ca.eigendecompose(models["C_32"])
    assert np.array_equal(a.eigenfunctions, b.eigenfunctions)


@pytest.mark.parametrize("desc", [
    "C_64", "T_8x8", {"kind": "cycle", "n": 16, "mu": [1, 2] * 8}])
def test_eigendecompose_kernels_match_scipy_eigh(monkeypatch, desc):
    from scipy.linalg import eigh

    space = sp.build_model(desc)
    ours = ca.eigendecompose(space)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    ref = ca.eigendecompose(space)
    lam = ref.eigenvalues
    assert np.abs(ours.eigenvalues - lam).max() <= 1e-12 * lam.max()
    # kernels do not depend on the basis inside an eigenspace
    for fn in (lambda u: np.exp(-(u**2)), lambda u: u**2):
        K = ref.kernel(ref.symbol(fn))
        assert np.abs(ours.kernel(ours.symbol(fn)) - K).max() \
            <= 1e-12 * np.abs(K).max()


def test_kernel_convention_identity(spectra):
    # the identity symbol gives the reproducing kernel of the whole space:
    # applying it against mu returns the function unchanged
    spec = spectra["C_32"]
    K = spec.kernel(spec.symbol(lambda u: 1.0))
    rng = np.random.default_rng(0)
    f = rng.standard_normal(spec.space.n)
    assert np.allclose(K @ (spec.space.mu * f), f, atol=1e-9)


def test_symbol_application_routes_agree(spectra):
    spec = spectra["C_64"]
    g = np.sin(np.arange(64) / 5.0)
    sym = lambda u: np.exp(-(u**2))
    vals = spec.symbol(sym)
    via_kernel = spec.kernel(vals) @ (spec.space.mu * g)
    direct = spec.apply(vals, g)
    assert np.allclose(via_kernel, direct, atol=1e-10)
    assert np.allclose(spec.kernel(vals, [3, 7]),
                       spec.kernel(vals)[:, [3, 7]], atol=1e-14)
    # a table of functions is applied column by column; the square table
    # catches values broadcast along the wrong axis
    rng = np.random.default_rng(0)
    for k in (3, 64):
        G = rng.standard_normal((64, k))
        cols = np.column_stack([spec.apply(vals, G[:, i]) for i in range(k)])
        assert np.allclose(spec.apply(vals, G), cols, atol=1e-12)
    # a table of symbols applied to one function gives one column each
    table = np.column_stack([spec.symbol(sym, d) for d in (0.5, 1.0, 2.0)])
    cols = np.column_stack([spec.apply(spec.symbol(sym, d), g)
                            for d in (0.5, 1.0, 2.0)])
    assert np.allclose(spec.apply(table, g), cols, atol=1e-12)
    # a scalar symbol is broadcast over the spectrum
    assert np.array_equal(spec.symbol(lambda u: 2.0), np.full(64, 2.0))


# ---------------------------------------------------------------------------
# cutoffs


def test_lowpass_cutoff_plateau_and_support():
    Phi = ca.make_cutoff("a", 2.0)
    u = np.linspace(0.0, 1.0, 101)
    assert np.abs(Phi(u) - 1.0).max() == 0.0
    v = np.linspace(2.0, 10.0, 101)
    assert np.abs(Phi(v)).max() == 0.0
    mid = Phi(np.linspace(1.05, 1.95, 50))
    assert np.all((mid > 0) & (mid < 1))


def test_band_cutoff_support():
    psi = ca.make_cutoff("b", 2.0)
    assert psi(0.25) == 0.0
    assert psi(4.0) == 0.0
    assert psi(1.0) > 0.0


def test_quadratic_partition_is_exact():
    phi = ca.make_cutoff("c", 2.0)
    t = np.geomspace(1e-4, 1e4, 400)
    total = np.zeros_like(t)
    for j in range(-40, 41):
        total += phi(2.0 ** (-j) * t) ** 2
    assert np.abs(total - 1.0).max() < 1e-10


@pytest.mark.parametrize("b", [2.0, 3.0])
def test_type_c_cutoff_sums_the_nearby_levels_only(b):
    # the five levels around floor(log_b u) give the sum over every level
    # bit for bit: the others add exact zeros
    band = ca.make_cutoff("b", b)
    u = np.geomspace(1e-6, 1e6, 1001)
    total = np.zeros_like(u)
    for j in np.arange(-30.0, 31.0):
        total += band(b ** (-j) * u) ** 2
    assert np.array_equal(ca.make_cutoff("c", b)(u), band(u) / np.sqrt(total))


def test_cutoffs_are_even():
    for kind in ("a", "b", "c"):
        f = ca.make_cutoff(kind, 2.0)
        u = np.linspace(0.1, 3.0, 37)
        assert np.array_equal(f(u), f(-u))


def test_cutoff_rejects_bad_base():
    with pytest.raises(ValueError):
        ca.make_cutoff("a", 1.0)


# ---------------------------------------------------------------------------
# windows, telescoping, localization


def test_level_window_covers_spectrum(spectra, Phi):
    # both end bands (b^{j-1}, b^{j+1}) meet the spectrum, and the window's
    # bands still sum to 1 on the nonzero spectrum
    assert ca.level_window(spectra["C_64"], 2.0) == (-4, 1)
    for spec in spectra.values():
        j_min, j_max = ca.level_window(spec, 2.0)
        top, bottom = np.sqrt(spec.lambda_max), np.sqrt(spec.lambda_2)
        assert 2.0 ** (j_max - 1) < top <= 2.0 ** j_max
        assert 2.0 ** j_min <= bottom < 2.0 ** (j_min + 1)
        total = ca.level_bands(spec, Phi, (j_min, j_max))[0].sum(axis=1)
        assert np.abs(total[spec.nullspace_dim:] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("model, window", [
    ("T_2x2", (1, 2)),
    ({"kind": "tree", "n": 20, "edges": [[0, i, 1.0] for i in range(1, 20)]},
     (0, 3))])
def test_level_window_puts_a_power_of_b_on_the_band_edge(model, window):
    # sqrt(lambda_2) is 2 on the 2x2 torus and 1 on the 20-point star, up
    # to rounding: a band edge, so the level whose band ends there is not
    # in the window, and both end bands are nonzero on the spectrum
    spec = ca.eigendecompose(sp.build_model(model))
    assert ca.level_window(spec, 2.0) == window
    bands = ca.level_bands(spec, ca.make_cutoff("a", 2.0), window)[0]
    assert np.abs(bands[:, [0, -1]]).max(axis=0).min() > 1e-6


@pytest.mark.parametrize("b", [1.5, 2.0, 3.0, 4.0])
def test_level_bands_live_on_their_open_bands(spectra, b):
    # Psi_j is exactly 0 off (b^{j-1}, b^{j+1}) and g_j off (b^{j-2},
    # b^{j+2}), band edges included; g_j is exactly 1 wherever Psi_j is
    # nonzero, which build_dual_frame assumes; the Psi_j sum to 1 on the
    # nonzero spectrum.  The 2x2 torus and the 20-point star put sqrt(lambda)
    # on a power of 2
    star = {"kind": "tree", "n": 20,
            "edges": [[0, i, 1.0] for i in range(1, 20)]}
    specs = list(spectra.values()) + [
        ca.eigendecompose(sp.build_model(m)) for m in ("T_2x2", star)]
    for spec in specs:
        window = ca.level_window(spec, b)
        psi, g = ca.level_bands(spec, ca.make_cutoff("a", b), window)
        roots = np.sqrt(spec.eigenvalues)[:, None]
        j = np.arange(window[0], window[1] + 1)
        assert psi.shape == g.shape == (spec.space.n, len(j))
        assert not psi[(roots <= b ** (j - 1)) | (roots >= b ** (j + 1))].any()
        assert not g[(roots <= b ** (j - 2)) | (roots >= b ** (j + 2))].any()
        assert np.all(g[psi != 0] == 1.0)
        total = psi.sum(axis=1)
        assert np.abs(total[spec.nullspace_dim:] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("kind", ["a", "b", "c", "scalar"])
def test_symbol_of_many_scales_stacks_the_single_scales(spectra, kind):
    # one call over an array of scales gives the (n, L) table of the
    # per-scale calls, bit for bit
    spec = spectra["T_8x8"]
    fn = (lambda u: 2.5) if kind == "scalar" else ca.make_cutoff(kind, 2.0)
    scales = np.array([2.0 ** (-j) for j in range(-6, 4)] + [0.3, 1.7])
    table = spec.symbol(fn, scales)
    assert table.shape == (spec.space.n, len(scales))
    assert np.array_equal(
        table, np.stack([spec.symbol(fn, s) for s in scales], axis=1))


def test_telescoping_identity(spectra, Phi):
    spec = spectra["C_64"]
    window = ca.level_window(spec, 2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = spec.project_mean_zero(rng.standard_normal(64))
        out = ca.telescope(spec, Phi, window, f)
        assert spec.space.norm2(out - f) <= 1e-10 * spec.space.norm2(f)


def test_localization_ladder_increases_with_order(spectra):
    spec = spectra["C_64"]
    kern = spec.kernel(spec.symbol(lambda u: np.exp(-(u**2))))
    out = ca.measure_localization(kern, 1.0, (1.0, 2.0, 4.0), spec.space)
    assert out[1.0] <= out[2.0] <= out[4.0]


def test_finite_speed_saturates_on_small_models():
    from mmframes import cli

    # the Prop 2.1 support bound as the CLI checks it. On C_64 no degree
    # below the diameter 32 fits a live band, so there is no polynomial
    # level and the suite only records; on P_128 level 1's degree-81
    # kernel reaches exactly its 81 hops
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG))
    assert not any(lv.degree for lv in ctx.get("compact_supports").values())
    assert cli._speed_checks(ctx) == []
    status, metrics = cli._suite_finite_speed(ctx)
    assert (status, metrics) == ("record", {"levels": 0})
    ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model="P_128"))
    poly = [lv for lv in ctx.get("compact_supports").values() if lv.degree]
    assert [(lv.degree, lv.support) for lv in poly] == [(81, 81.0)]
    assert cli._speed_checks(ctx) == [(1.0, True)]


def test_effective_support_radius_of_identity(spectra):
    spec = spectra["C_32"]
    assert ca.effective_support_radius(np.eye(32), spec.space) == 0.0


def test_neumann_series_of_a_zero_term_adds_nothing():
    total, terms, tail = ca.neumann_series(np.zeros((4, 4)))
    assert np.array_equal(total, np.eye(4)) and (terms, tail) == (0, 0.0)


def test_neumann_series_sums_the_geometric_series():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    step = 0.5 * q
    total, terms, tail = ca.neumann_series(step)
    # ||step^k||_F / ||step||_F = 0.5^(k-1) < NEUMANN_TAIL stops the series
    # at 40 terms
    assert terms == 40 and tail < ca.NEUMANN_TAIL
    assert np.allclose(total, np.linalg.inv(np.eye(5) - step),
                       rtol=0, atol=1e-11)


def test_neumann_series_matches_the_plain_product_loop():
    # each power is the one before it @ step, as in the loop below, so the
    # sum agrees with the loop's to terms n eps (the bound holds for any
    # summation order BLAS takes)
    n = 300
    rng = np.random.default_rng(3)
    step = rng.uniform(-1, 1, (n, n)) / 60
    total, terms, tail = ca.neumann_series(step)
    assert terms > 3
    ref, term = np.eye(n), step
    for _ in range(terms):
        ref += term
        term = term @ step
    assert np.abs(total - ref).max() <= terms * n * np.finfo(float).eps
    assert tail < ca.NEUMANN_TAIL
    assert abs(tail / (np.linalg.norm(term) / np.linalg.norm(step)) - 1) <= 1e-6


def test_neumann_series_rejects_a_series_that_does_not_shrink():
    with pytest.raises(RuntimeError, match="diverges"):
        ca.neumann_series(np.eye(3))


def _smooth_step_formula(t):
    """The step as g(1 - t) / (g(1 - t) + g(t)), its exps taken at every
    point: the reference for _smooth_step."""
    t = np.asarray(t, dtype=float)

    def g(u):
        return np.where(u > 1 / 708, np.exp(-1.0 / np.maximum(u, 1 / 708)),
                        0.0)

    a, bq = g(1.0 - t), g(t)
    with np.errstate(invalid="ignore"):
        return a / (a + bq)


def test_smooth_step_is_its_formula_bit_for_bit():
    # the exps are taken only on the transition 1/708 < t < 1 - 1/708, and
    # elsewhere the step writes the exact 1 and 0 that its formula yields:
    # equal on a fine grid, at the transition's edges and one ulp either
    # side, at the extremes, for a 0-d input, and NaN on a NaN
    c = 1 / 708
    edges = [0.0, -0.0, 1.0, c, 1.0 - c, 5e-324, np.inf, -np.inf]
    edges += [np.nextafter(x, y) for x in (c, 1.0 - c) for y in (0.0, 2.0)]
    t = np.concatenate([np.linspace(-3.0, 4.0, 2_000_001), edges])
    assert np.array_equal(ca._smooth_step(t), _smooth_step_formula(t))
    for x in edges:
        got = ca._smooth_step(x)
        assert np.ndim(got) == 0 and got == _smooth_step_formula(x)
    assert np.isnan(ca._smooth_step(np.nan))
    assert np.isnan(ca._smooth_step(np.array([0.5, np.nan]))[1])


def test_neumann_series_of_a_vector_is_the_diagonal_series(frame_sets,
                                                           spectra):
    # a 1-D step is a diagonal matrix's diagonal, summed elementwise: the
    # core is the n x n diagonal series' diagonal, and the term count its,
    # bit for bit, on a random diagonal and on the frames' push-through
    # core G = V U diag(m) of C_64, whose off-diagonal entries are rounding
    frame, dual, _ = frame_sets["C_64"]
    m = 1.0 / (1.0 + spectra["C_64"].eigenvalues)
    G = (frame.table() @ dual.table().T) * m / 2.0
    rng = np.random.default_rng(5)
    for d in (rng.uniform(-0.5, 0.5, 200), G.diagonal().copy()):
        core, terms, _ = ca.neumann_series(d)
        full, full_terms, _ = ca.neumann_series(np.diag(d))
        assert core.shape == d.shape and terms == full_terms >= 5
        assert np.array_equal(core, full.diagonal())
        assert not (full - np.diag(core)).any()
