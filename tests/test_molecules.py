import dataclasses

import numpy as np
import pytest

from mmframes import addiag as ad
from mmframes import calculus as ca
from mmframes import molecules as mo
from mmframes import multiplier as mp
from mmframes import seqspace as sq
from mmframes.seqspace import SpaceParams
from conftest import table_frame


def certificate(family, flavor, params):
    """The flavour's certificate for one Frame family."""
    return mo.validate_molecule([family], params)[0][flavor]


def scaled(family, c):
    """The Frame family times c."""
    return table_frame(family.spec, family.hierarchy, c * family.table())


def test_orders_oracle_d1():
    # d = 1, p = q = 2 gives J = 1
    p0 = SpaceParams(s=0.0, p=2.0, q=2.0, d=1.0)
    o = mo.compute_orders(p0)
    assert (o.J, o.K, o.N) == (1.0, 1, 1)
    assert o.M_threshold == 1.0

    p3 = SpaceParams(s=3.0, p=2.0, q=2.0, d=1.0)
    o3 = mo.compute_orders(p3)
    assert o3.K is None
    assert o3.N == 2

    pm = SpaceParams(s=-1.0, p=2.0, q=2.0, d=1.0)
    om = mo.compute_orders(pm)
    assert om.N is None
    assert om.K == 2


def test_tilde_orders_boundary_agreement():
    p = SpaceParams(s=0.0, p=2.0, q=2.0, d=2.0, dstar=1.0, flavor="tilde")
    o = mo.compute_orders(p)
    assert o.flavor == "tilde"
    assert o.smoothness_cap == p.J * 2.0 / 1.0
    assert o.M_threshold == p.J
    # with no reverse-doubling information the cancellation cap is open
    p2 = SpaceParams(s=5.0, p=2.0, q=2.0, d=2.0, dstar=0.0, flavor="tilde")
    assert mo.compute_orders(p2).K is not None


def test_zero_family_passes(hierarchies, spectra, params022):
    hier, _ = hierarchies["C_64"]
    zeros = table_frame(spectra["C_64"], hier, np.zeros((64, hier.size)))
    cert = certificate(zeros, "synthesis", params022)
    assert cert.passed
    assert max(cert.constants.values()) == 0.0
    assert mo.scaling_for_budget(cert) == np.inf


@pytest.fixture(scope="module")
def molecule_setup(frame_sets, hierarchies, spectra, params022):
    frame, dual, _ = frame_sets["C_64"]
    hier, _ = hierarchies["C_64"]
    spec = spectra["C_64"]
    raw = certificate(frame, "synthesis", params022)
    c = mo.scaling_for_budget(raw) * (1.0 - 1e-9)
    return frame, dual, hier, spec, c


def test_rescaled_frame_is_a_molecule_family(molecule_setup, params022):
    frame, dual, hier, spec, c = molecule_setup
    cert = certificate(scaled(frame, c), "synthesis", params022)
    assert cert.passed
    assert cert.factorization_residual <= 1e-9
    raw = certificate(dual, "analysis", params022)
    ca = mo.scaling_for_budget(raw) * (1.0 - 1e-9)
    anal = certificate(scaled(dual, ca), "analysis", params022)
    assert anal.passed


def test_constants_scale_exactly(molecule_setup, params022):
    frame, _, hier, spec, c = molecule_setup
    c1 = certificate(frame, "synthesis", params022)
    c2 = certificate(scaled(frame, 5.0), "synthesis", params022)
    for key in c1.constants:
        assert abs(c2.constants[key] - 5.0 * c1.constants[key]) \
            <= 1e-9 * max(c2.constants[key], 1e-300)


def test_oversized_family_fails_budget(molecule_setup, params022):
    frame, _, hier, spec, c = molecule_setup
    cert = certificate(scaled(frame, 10.0 * c), "synthesis", params022)
    assert not cert.passed


def test_molecule_certificate_analyses_nothing(molecule_setup, params022,
                                               monkeypatch):
    # every power of L, the companion and the factorization residual's
    # L^K h among them, is synthesised from the frame's coefficient table
    frame, _, hier, spec, _ = molecule_setup
    calls = []
    analyse = ca.SpectralData.coefficients

    def counted(self, f):
        calls.append(np.shape(f))
        return analyse(self, f)

    monkeypatch.setattr(ca.SpectralData, "coefficients", counted)
    certs = mo.validate_molecule([frame], params022)[0]
    assert set(certs["synthesis"].constants) == \
        {"size", "smoothness", "companion_size"}
    assert calls == []


@pytest.fixture(scope="module")
def factor_contexts():
    """Run contexts on C_64 and T_16x16 with the primal and dual frames
    built."""
    from mmframes import cli
    out = {}
    for model in ("C_64", "T_16x16"):
        ctx = cli.Context(dict(cli.DEFAULT_CONFIG, model=model))
        ctx.get("dual")
        out[model] = ctx
    return out


@pytest.mark.parametrize("model", ["C_64", "T_16x16"])
def test_band_coefficients_and_columns_give_one_certificate(model,
                                                            factor_contexts):
    # psi and psi~ from their tables, exactly 0 off each level's band,
    # against the same families analysed from their synthesised columns:
    # the tables agree to rounding, and every constant of both flavours
    # agrees
    ctx = factor_contexts[model]
    params, spec = ctx.get("params"), ctx.get("spec")
    families = [ctx.get("frame"), ctx.get("dual")]
    for family, certs in zip(families, mo.validate_molecule(families,
                                                            params)):
        assert set(certs) == {"synthesis", "analysis"}
        analysed = table_frame(spec, family.hierarchy,
                               spec.coefficients(family.columns))
        for flavor, cert in certs.items():
            assert cert.factorization_residual <= 1e-12
            ref = certificate(analysed, flavor, params)
            assert cert.constants.keys() == ref.constants.keys()
            for key, value in cert.constants.items():
                assert abs(value - ref.constants[key]) <= \
                    1e-9 * ref.constants[key]


def test_an_off_band_coefficient_fails_the_factorization_residual(
        factor_contexts):
    # one entry of 1e-6 on the nullspace row of psi's table V, the
    # constant's, which is off every band: the family is no longer
    # mean-zero, no companion L^-K h reproduces it, and the certificate
    # fails through its factorization residual alone
    ctx = factor_contexts["C_64"]
    hier, params, spec = ctx.get("hier"), ctx.get("params"), ctx.get("spec")
    frame = ctx.get("frame")
    V = frame.table().copy()
    sl = hier.blocks[2]
    assert spec.nullspace_dim == 1 and not V[0].any()
    V[0, sl.start] = 1e-6
    certs = mo.validate_molecule([table_frame(frame.spec, frame.hierarchy, V)],
                                 params)[0]
    for cert in certs.values():
        assert not cert.passed and cert.factorization_residual > 1e-9
        assert all(np.isfinite(v) for v in cert.constants.values())
    # scaled within budget, every constant is at most 1 and the synthesis
    # family still fails
    cert = certs["synthesis"]
    scaled = cert.scaled(mo.scaling_for_budget(cert) * (1.0 - 1e-9))
    assert max(scaled.constants.values()) <= 1.0 and not scaled.passed


def test_families_must_share_one_hierarchy(molecule_setup, compact_pipeline,
                                           params022):
    # C_64's frames at b = 2 and at b = 4 hold 352 and 256 columns: the
    # ladder reads one hierarchy's levels, so it refuses the pair
    frame = molecule_setup[0]
    with pytest.raises(ValueError, match="share one hierarchy"):
        mo.validate_molecule([frame, compact_pipeline.frame], params022)


def test_inhomogeneous_mode_skips_level_zero(hierarchies, spectra, params022):
    hier, _ = hierarchies["C_64"]
    spec = spectra["C_64"]
    # a tiny constant family on level-0 centers, all in the nullspace, so
    # no companion L^-K h reproduces it: cancellation fails in homogeneous
    # mode and is waived otherwise
    fam = np.zeros((64, hier.size))
    sl = hier.blocks[-hier.j_min]  # level 0
    fam[:, sl] = 1e-6
    table = spec.coefficients(fam)
    hom = certificate(table_frame(spec, hier, table), "synthesis", params022)
    assert hom.factorization_residual == pytest.approx(1e-6, rel=1e-12)
    assert not hom.passed
    inh_hier = dataclasses.replace(hier, mode="inhomogeneous")
    inh = certificate(table_frame(spec, inh_hier, table), "synthesis",
                      params022)
    assert inh.factorization_residual <= 1e-9
    assert inh.passed


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_certificate(molecule_setup, params022):
    # lemma7.3's Gram A = psi~^T M psi is U V, the frames' tables (U, V) =
    # (psi~^T M E, E^T M psi), each exactly 0 off its band: its ||A||_1/8
    # agrees with the certificate taken on the column factors, cannot fall
    # as delta grows, and A obeys entrywise Cauchy-Schwarz
    frame, dual, hier, spec, c = molecule_setup
    U, V = dual.table().T, frame.table()
    mu = hier.space.mu
    cert = ad.ad_norm(hier, params022, U, V, 0.125)
    dense = ad.ad_norm(hier, params022, dual.columns.T,
                       mu[:, None] * frame.columns, 0.125)
    assert np.isfinite(cert) and abs(cert - dense) <= 1e-13 * dense
    norms = [ad.ad_norm(hier, params022, U, V, d)
             for d in (0.125, 0.25, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    A = U @ V
    ns = np.sqrt(np.sum(mu[:, None] * frame.columns**2, axis=0))
    na = np.sqrt(np.sum(mu[:, None] * dual.columns**2, axis=0))
    assert np.all(np.abs(A) <= np.outer(na, ns) + 1e-12)


# ---------------------------------------------------------------------------
# synthesis / analysis operators


def test_molecular_analysis_identity(molecule_setup, params022):
    frame, dual, hier, spec, c = molecule_setup
    f = spec.project_mean_zero(np.cos(np.arange(64.0) / 3.0))
    coeffs, rep = mo.molecular_analysis(f, dual, frame, dual, params022)
    assert rep["identity_residual"] <= 1e-9
    assert np.allclose(coeffs, dual.analyze(f), atol=1e-10)
    assert rep["ratio"] > 0


def test_molecular_analysis_of_a_table_matches_columns(molecule_setup,
                                                       params022):
    frame, dual, hier, spec, c = molecule_setup
    F = np.random.default_rng(9).standard_normal((64, 5))
    F[:, 2] = 0.0
    coeffs, rep = mo.molecular_analysis(F, dual, frame, dual, params022)
    assert coeffs.shape == (hier.size, 5)
    assert rep["function_norm"][2] == 0.0 and rep["ratio"][2] == 0.0
    for i in range(5):
        ci, ri = mo.molecular_analysis(F[:, i], dual, frame, dual,
                                       params022)
        assert np.abs(coeffs[:, i] - ci).max() <= \
            1e-12 * max(np.abs(ci).max(), 1.0)
        for key, value in ri.items():
            assert isinstance(value, float)
            # the identity residual is itself rounding, so held absolutely
            scale = 1.0 if key == "identity_residual" else abs(value)
            assert abs(rep[key][i] - value) <= 1e-12 * scale


def test_molecular_round_trip(molecule_setup, params022):
    frame, dual, hier, spec, c = molecule_setup
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = spec.project_mean_zero(rng.standard_normal(64))
        coeffs, _ = mo.molecular_analysis(f, dual, frame, dual, params022)
        g, rep = mo.molecular_synthesis(coeffs, frame, params022)
        assert spec.space.norm2(g - f) <= 1e-9 * spec.space.norm2(f)
        assert rep["ratio"] > 0


def test_synthesis_rejects_wrong_length(molecule_setup, params022):
    frame, _, hier, spec, c = molecule_setup
    with pytest.raises(ValueError):
        mo.molecular_synthesis(np.zeros(3), frame, params022)


# ---------------------------------------------------------------------------
# the L-power ladder


def _ladder_tables(hier, spec, cols, mus):
    """({mu: L^mu cols}, defect) assembled from _ladder's level slices on
    the coefficients of cols."""
    rungs, defect = np.empty((len(mus),) + cols.shape), np.empty(hier.size)
    family = table_frame(spec, hier, spec.coefficients(cols))
    for sl, i, Y, d in mo._ladder([family], mus):
        assert i == 0 and Y.shape == (len(cols), len(mus), sl.stop - sl.start)
        rungs[:, :, sl] = Y.transpose(1, 0, 2)
        defect[sl] = d
    return dict(zip(mus.tolist(), rungs)), defect


def test_L_power_ladder_roundtrip(spectra, hierarchies):
    # L^2 and then L^-2 on a mean-zero table; the ladder's rung 0 is its
    # input, synthesised from its coefficients, to rounding
    spec, (hier, _) = spectra["C_32"], hierarchies["C_32"]
    F = spec.project_mean_zero(
        np.random.default_rng(1).standard_normal((32, hier.size)))
    up, defect = _ladder_tables(hier, spec, F, np.arange(0, 3))
    assert sorted(up) == [0, 1, 2] and np.allclose(up[0], F, atol=1e-13)
    assert defect.max() <= 1e-12
    back, _ = _ladder_tables(hier, spec, up[2], np.arange(-2, 1))
    assert np.allclose(back[-2], F, atol=1e-8)


def test_L_power_ladder_matches_matrix_action(spectra, hierarchies):
    # rung 1 is L @ cols and rung 2 is L @ L @ cols; the defect is the size
    # of cols' nullspace part, and positive powers take the constant to 0
    spec, (hier, _) = spectra["C_32"], hierarchies["C_32"]
    cols = np.random.default_rng(2).standard_normal((32, hier.size))
    cols[:, 0] = np.cos(np.arange(32) / 3.0)
    L = spec.space.L
    ladder, defect = _ladder_tables(hier, spec, cols, np.arange(0, 3))
    assert np.allclose(ladder[1], L @ cols, atol=1e-9)
    assert np.allclose(ladder[2], L @ (L @ cols), atol=1e-9)
    null = np.abs(cols - spec.project_mean_zero(cols)).max(axis=0)
    assert np.allclose(defect, null, rtol=0.0, atol=1e-12) and null.min() > 0
    ones, _ = _ladder_tables(hier, spec, np.ones((32, hier.size)),
                             np.arange(0, 2))
    assert np.abs(ones[1]).max() <= 1e-12


# ---------------------------------------------------------------------------
# atoms


def test_minimal_atom_orders(params022):
    K, Kt = mo.minimal_atom_orders(params022)
    assert K == int(np.floor(params022.J / 2.0)) + 1
    assert Kt == 2
    pm = SpaceParams(s=-6.0, p=2.0, q=2.0, d=1.0)
    assert mo.minimal_atom_orders(pm)[1] == 0


def test_atom_certificate_and_decomposition(compact_pipeline, params022):
    cp = compact_pipeline
    compact, cdual, spec = cp.compact, cp.cdual, cp.spec
    raw = mo.validate_atoms(compact, params022)
    scale = 1.0 / max(raw.constants.values()) * (1.0 - 1e-9)
    cert = mo.validate_atoms(scaled(compact, scale), params022)
    assert cert.passed
    assert cert.support_constant > 0
    # on this small model the supports may fill the whole space, but never
    # exceed its diameter
    for level_radii in cert.support_radii.values():
        assert max(level_radii.values()) <= spec.space.diameter

    cstar = mo.scaling_for_budget(cert)
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = spec.project_mean_zero(rng.standard_normal(64))
        t, rep = mo.atomic_decompose(f, compact, cdual, params022,
                                     cstar=cstar)
        assert rep["residual"] <= 1e-6
        recon = compact.synthesize(cstar * t)
        assert spec.space.norm2(recon - f) <= 1e-6 * spec.space.norm2(f)
        assert rep["analysis_constant"] > 0
        assert rep["synthesis_constant"] > 0


def test_negative_power_ladder_requires_mean_zero(compact_pipeline,
                                                 params022):
    # below mu = 0 the atom ladder takes powers modulo the nullspace, so at
    # K >= 1 a family with a nullspace part is refused; at K = 0 (s > J +
    # 2) it stays at mu >= 0, factors nothing, and takes the family
    cp = compact_pipeline
    ones = table_frame(cp.spec, cp.hier,
                       cp.spec.coefficients(np.ones((64, cp.hier.size))))
    assert mo.minimal_atom_orders(params022)[0] >= 1
    with pytest.raises(ValueError, match="nullspace component"):
        mo.validate_atoms(ones, params022)
    high = dataclasses.replace(params022, s=params022.J + 3.0)
    cert = mo.validate_atoms(scaled(ones, 1e-6), high)
    assert cert.K == 0 and sorted(cert.support_radii) == [0]
    assert cert.passed


def test_probes_read_the_base_from_their_frame(compact_pipeline, params022):
    # C_64 at b = 4: each probe's function norm is function_norm's at the
    # frame's own base, so the level window and the weights b^{js} are
    # base 4's, not base 2's
    cp = compact_pipeline
    spec, hier = cp.spec, cp.hier
    psi = ca.make_cutoff("b", 4.0)
    F = spec.project_mean_zero(
        np.random.default_rng(13).standard_normal((64, 3)))
    P = spec.project_mean_zero(F)  # what each probe measures
    T = np.random.default_rng(14).standard_normal((hier.size, 3))
    sym = mp.check_mihlin("rational", 4, params022, spec, b=4.0)
    G = spec.apply(spec.symbol(sym), P)
    for prm in (params022, dataclasses.replace(params022, s=1.0)):
        def norm(X, prm=prm):
            return sq.function_norm(X, prm, spec, psi, 4.0)

        f, rep = mo.molecular_synthesis(T, cp.frame, prm)
        assert np.array_equal(rep["function_norm"], norm(f))
        _, rep = mo.molecular_analysis(F, cp.dual, cp.frame, cp.dual, prm)
        assert np.array_equal(rep["function_norm"], norm(P))
        t, rep = mo.atomic_decompose(F, cp.compact, cp.cdual, prm)
        tn = sq.seq_norm(t, prm, hier)
        assert np.array_equal(rep["analysis_constant"], tn / norm(P))
        assert np.array_equal(rep["synthesis_constant"],
                              norm(cp.compact.synthesize(t)) / tn)
        rep = sq.check_frame_characterization(F.T, prm, cp.frame, cp.dual)
        r = sq.seq_norm(cp.dual.analyze(P), prm, hier) / norm(P)
        assert rep["ratio_band"] == (r.min(), r.max())
        rep = mp.boundedness_report(sym, prm, F.T, cp.frame)
        for key, family, flavor in sq.FLAVOURS:
            fam = dataclasses.replace(prm, family=family, flavor=flavor)
            assert rep[key]["ratio"] == (norm(G, fam) / norm(P, fam)).max()
            assert rep[key]["required_order"] == sym.threshold + (
                abs(prm.s) if flavor == "tilde" else 0.0)
