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


def test_kernel_convention_identity(spectra):
    # the identity symbol gives the reproducing kernel of the whole space:
    # applying it against mu returns the function unchanged
    spec = spectra["C_32"]
    K = ca.apply_symbol(spec, lambda u: 1.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(spec.space.n)
    assert np.allclose(K.apply(spec.space, f), f, atol=1e-9)


def test_symbol_application_routes_agree(spectra):
    spec = spectra["C_64"]
    g = np.sin(np.arange(64) / 5.0)
    sym = lambda u: np.exp(-(u**2))
    vals = spec.symbol(sym)
    via_kernel = ca.apply_symbol(spec, sym).apply(spec.space, g)
    direct = spec.apply(vals, g)
    assert np.allclose(via_kernel, direct, atol=1e-10)
    assert np.allclose(spec.kernel(vals, [3, 7]),
                       ca.apply_symbol(spec, sym).table[:, [3, 7]], atol=1e-14)
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


def test_L_power_roundtrip(spectra):
    spec = spectra["C_32"]
    f = spec.project_mean_zero(np.sin(np.arange(32)))
    g = ca.apply_L_power(spec, f, 2)
    back = ca.apply_L_power(spec, g, -2, mod_nullspace=True)
    assert np.allclose(back, f, atol=1e-8)
    F = spec.project_mean_zero(
        np.random.default_rng(1).standard_normal((32, 32)))
    G = ca.apply_L_power(spec, F, 2)
    back = ca.apply_L_power(spec, G, -2, mod_nullspace=True)
    assert np.allclose(back, F, atol=1e-8)


def test_negative_power_requires_flag_and_mean_zero(spectra):
    spec = spectra["C_32"]
    f = np.ones(32)
    with pytest.raises(ValueError):
        ca.apply_L_power(spec, f, -1)
    with pytest.raises(ValueError):
        ca.apply_L_power(spec, f, -1, mod_nullspace=True)


def test_apply_L_power_matches_matrix_action(spectra):
    spec = spectra["C_32"]
    f = np.cos(np.arange(32) / 3.0)
    assert np.allclose(ca.apply_L_power(spec, f, 1), spec.space.L @ f,
                       atol=1e-9)
    cols = np.random.default_rng(2).standard_normal((32, 5))
    assert np.allclose(ca.apply_L_power(spec, cols, 1), spec.space.L @ cols,
                       atol=1e-9)


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


def test_cutoffs_are_even():
    for kind in ("a", "b", "c"):
        f = ca.make_cutoff(kind, 2.0)
        u = np.linspace(0.1, 3.0, 37)
        assert np.array_equal(f(u), f(-u))


def test_cutoff_rejects_bad_base():
    with pytest.raises(ValueError):
        ca.make_cutoff("a", 1.0)


def test_lowpass_derivatives_match_gradient():
    derivs = ca.lowpass_derivatives(2.0, 2)
    u = np.linspace(0.5, 3.0, 4001)
    du = u[1] - u[0]
    num = np.gradient(np.asarray(derivs[0](u)), du)
    inner = (u > 1.05) & (u < 1.95)
    assert np.abs(num - derivs[1](u))[inner].max() < 1e-4


def test_band_derivatives_chain_rule():
    Phi = ca.make_cutoff("a", 2.0)
    derivs = ca.band_derivatives(2.0, 1)
    u = np.linspace(0.3, 2.5, 1001)
    psi = Phi(u) - Phi(2.0 * u)
    assert np.abs(np.asarray(derivs[0](u)) - psi).max() < 1e-12


def test_closed_form_derivatives_match_sympy():
    import sympy

    b = 2.0
    u = sympy.symbols("u")
    t = (u - 1) / (b - 1)
    g = lambda x: sympy.exp(-1 / x)
    low = sympy.Piecewise((1, u <= 1), (g(1 - t) / (g(1 - t) + g(t)), u < b),
                          (0, True))
    band = low - low.subs(u, b * u)
    x = np.linspace(0.3, 3.0, 2001)
    for closed, expr in ((ca.lowpass_derivatives(b, 4), low),
                         (ca.band_derivatives(b, 4), band)):
        for k in range(5):
            with np.errstate(all="ignore"):
                ref = sympy.lambdify(u, sympy.diff(expr, u, k), "numpy")(x)
            ref = np.asarray(ref, dtype=float) + 0.0 * x
            err = np.abs(closed[k](x) - ref).max()
            assert err <= 1e-10 * np.abs(ref).max(), (k, err)


# ---------------------------------------------------------------------------
# windows, telescoping, localization


def test_level_window_covers_spectrum(spectra):
    spec = spectra["C_64"]
    j_min, j_max = ca.level_window(spec, 2.0)
    assert (j_min, j_max) == (-5, 2)
    assert 2.0 ** (j_max - 1) >= np.sqrt(spec.lambda_max)
    assert 2.0 ** (j_min + 1) <= np.sqrt(spec.lambda_2)


def test_telescoping_identity(spectra, Phi):
    spec = spectra["C_64"]
    window = ca.level_window(spec, 2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = spec.project_mean_zero(rng.standard_normal(64))
        out = ca.telescope(spec, Phi, 2.0, window, f)
        assert spec.space.norm2(out - f) <= 1e-10 * spec.space.norm2(f)


def test_localization_ladder_increases_with_order(spectra):
    spec = spectra["C_64"]
    kern = ca.apply_symbol(spec, lambda u: np.exp(-(u**2)))
    out = ca.measure_localization(kern, 1.0, (1.0, 2.0, 4.0), spec.space)
    assert out[1.0] <= out[2.0] <= out[4.0]


def test_speed_constant_is_order_one(spectra):
    ct = ca.fit_speed_constant(spectra["C_64"])
    assert 0.5 < ct < 20.0


def test_finite_speed_saturates_on_small_models():
    from mmframes import cli

    # the Prop 2.1 support bound as the CLI checks it, on C_64
    checks = cli._speed_checks(cli.Context(dict(cli.DEFAULT_CONFIG)))
    assert checks and all(passed for _, passed in checks)


def test_effective_support_radius_of_identity(spectra):
    spec = spectra["C_32"]
    K = ca.Kernel(table=np.eye(32), band=(0.0, 0.0))
    assert ca.effective_support_radius(K, spec.space) == 0.0
