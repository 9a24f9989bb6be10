import numpy as np
import pytest
import sympy

from mmframes import multiplier as mp
from mmframes import seqspace as sq
from conftest import table_frame


@pytest.mark.parametrize("name, source", [
    ("one", "1"), ("rational", "lam**2/(1 + lam**2)")],
    ids=["one", "rational"])
def test_builtin_jets_match_sympy(spectra, name, source):
    # on check_mihlin's grid, weighted by lam^nu and relative to the
    # weighted sup: a pointwise relative bound fails near sign changes
    spec = spectra["C_64"]
    grid = np.geomspace(np.sqrt(spec.lambda_2) / 4.0,
                        4.0 * np.sqrt(spec.lambda_max), 4000)
    lam = sympy.Symbol("lam", real=True)
    expr = sympy.sympify(source, locals={"lam": lam})
    for nu in range(5):
        ref = sympy.lambdify(lam, sympy.diff(expr, lam, nu), "numpy")(grid)
        ref = np.broadcast_to(np.asarray(ref, dtype=float), grid.shape)
        got = mp.BUILTIN_SYMBOLS[name](grid, nu)
        scale = max(1.0, float(np.abs(grid**nu * ref).max()))
        assert np.abs(grid**nu * (got - ref)).max() <= 1e-13 * scale


def test_unknown_symbol_name_lists_the_builtins(spectra, params022):
    # a callable is refused like an unknown name: symbols are read only
    # through the closed-form jets
    for m in ("heat", lambda u: u**2):
        with pytest.raises(ValueError, match="one, rational$"):
            mp.check_mihlin(m, 4, params022, spectra["C_64"])


def test_constant_symbol_sups(spectra, params022):
    sym = mp.check_mihlin("one", 4, params022, spectra["C_64"])
    assert sym.mihlin_sup == 1.0
    assert sym.order_sups[0] == 1.0
    assert all(v == 0.0 for v in sym.order_sups[1:])


def test_rational_symbol_closed_form_sups(spectra, params022):
    # m(lam) = lam^2/(1+lam^2): sup |m| -> 1 at the high end of the grid
    # and sup |lam m'(lam)| = 1/2 attained at lam = 1
    sym = mp.check_mihlin("rational", 4, params022, spectra["C_64"])
    g = np.geomspace(*sym.grid, 200000)
    m0 = g**2 / (1 + g**2)
    m1 = 2 * g / (1 + g**2) ** 2
    assert abs(sym.order_sups[0] - m0.max()) < 1e-9
    assert abs(sym.order_sups[1] - 0.5) < 1e-6
    assert abs((g * m1).max() - 0.5) < 1e-6
    # the unweighted derivative sup is a different number
    assert abs(m1.max() - 3 * np.sqrt(3) / 8) < 1e-6


def test_threshold_enforced(spectra, params022):
    with pytest.raises(ValueError):
        mp.check_mihlin("one", 1, params022, spectra["C_64"])


def test_sups_stable_under_refinement(spectra, params022):
    sups = {}
    for name in ("C_64", "C_128"):
        sym = mp.check_mihlin("rational", 4, params022, spectra[name])
        sups[name] = sym.mihlin_sup
    assert sups["C_128"] <= 2.0 * sups["C_64"]


def test_frame_route_agrees_with_calculus(spectra, frame_sets, params022):
    spec = spectra["C_64"]
    frame, dual, _ = frame_sets["C_64"]
    sym = mp.check_mihlin("rational", 4, params022, spec)
    f = np.sin(np.arange(64.0) / 2.0)
    out = mp.apply_multiplier(sym, f, frame, dual, spec)
    assert out.shape == (64,)
    # a dual that no longer reconstructs must trip the cross-check
    bad = table_frame(dual.spec, dual.hierarchy, dual.table() * (1.0 + 1e-6))
    with pytest.raises(RuntimeError, match="frame route disagrees"):
        mp.apply_multiplier(sym, f, frame, bad, spec)


def test_frame_route_rejects_a_nan(spectra, frame_sets, params022):
    # one NaN in the dual's table, inside its lowest level's span, makes
    # the frame route and its residual NaN: the cross-check fails it
    spec = spectra["C_64"]
    frame, dual, _ = frame_sets["C_64"]
    sym = mp.check_mihlin("rational", 4, params022, spec)
    coeffs = dual.table().copy()
    coeffs[dual.spans[0][0], dual.hierarchy.blocks[0].start] = np.nan
    bad = table_frame(dual.spec, dual.hierarchy, coeffs)
    with pytest.raises(RuntimeError, match="frame route disagrees"):
        mp.apply_multiplier(sym, np.sin(np.arange(64.0) / 2.0), frame, bad,
                            spec)


def test_l2_ratio_below_symbol_sup(spectra, frame_sets, params022):
    # on F^0_{2,2} the operator norm is at most sup |m| on the spectrum
    spec = spectra["C_64"]
    sym = mp.check_mihlin("rational", 4, params022, spec)
    battery = sq.random_battery(spec, 30, seed=1)
    rep = mp.boundedness_report(sym, params022, battery,
                                frame_sets["C_64"][0])
    roots = np.sqrt(spec.eigenvalues)
    sup_on_spec = np.abs(np.asarray(sym(roots[1:]))).max()
    assert rep["f"]["ratio"] <= sup_on_spec + 1e-9
    for key in ("f", "f~", "b", "b~"):
        assert rep[key]["order_ok"]
        assert rep[key]["ratio"] > 0


def test_multiplicativity(spectra):
    spec = spectra["C_64"]
    m1 = lambda u: np.exp(-np.asarray(u) ** 2)
    m2 = lambda u: np.asarray(u) ** 2 / (1.0 + np.asarray(u) ** 2)
    f = np.cos(np.arange(64.0) / 4.0)
    assert mp.multiplicativity_residual(m1, m2, f, spec) <= 1e-10


def test_ahlfors_scan_cycle(models):
    scan = mp.ahlfors_scan(models["C_64"], 1.0)
    assert scan["band"] <= 50.0
    assert scan["c4"] >= 1.0
