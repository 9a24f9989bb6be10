import numpy as np
import pytest

from mmframes import molecules as mo
from mmframes.seqspace import SpaceParams


def test_orders_oracle_d1():
    # d = 1, p = q = 2 gives J = 1
    p0 = SpaceParams(s=0.0, p=2.0, q=2.0, d=1.0)
    o = mo.compute_orders(p0)
    assert (o.J, o.K, o.N) == (1.0, 1, 1)
    assert not o.K_void and not o.N_void
    assert o.M_threshold == 1.0

    p3 = SpaceParams(s=3.0, p=2.0, q=2.0, d=1.0)
    o3 = mo.compute_orders(p3)
    assert o3.K_void and o3.K is None
    assert o3.N == 2

    pm = SpaceParams(s=-1.0, p=2.0, q=2.0, d=1.0)
    om = mo.compute_orders(pm)
    assert om.N_void and om.N is None
    assert om.K == 2


def test_tilde_orders_boundary_agreement():
    p = SpaceParams(s=0.0, p=2.0, q=2.0, d=2.0, dstar=1.0, flavor="tilde")
    o = mo.compute_orders(p, flavor="tilde")
    assert o.boundary_agreement
    assert o.smoothness_cap == p.J * 2.0 / 1.0
    assert o.M_threshold == p.J
    # with no reverse-doubling information the cancellation cap is open
    p2 = SpaceParams(s=5.0, p=2.0, q=2.0, d=2.0, dstar=0.0)
    assert not mo.compute_orders(p2, flavor="tilde").K_void


def test_orders_reject_bad_flavor(params022):
    with pytest.raises(ValueError):
        mo.compute_orders(params022, flavor="other")


def test_decay_threshold_enforced(frame_sets, hierarchies, spectra, params022):
    frame, _, _ = frame_sets["C_64"]
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError):
        mo.validate_molecule(frame.columns, hier, "synthesis", "classical",
                             params022, spectra["C_64"], M=params022.J)


def test_zero_family_passes(hierarchies, spectra, params022):
    hier, _ = hierarchies["C_64"]
    zeros = np.zeros((64, hier.size))
    cert = mo.validate_molecule(zeros, hier, "synthesis", "classical",
                                params022, spectra["C_64"],
                                M=params022.J + 1.0)
    assert cert.passed
    assert max(cert.constants.values()) == 0.0
    assert mo.scaling_for_budget(cert) == np.inf


@pytest.fixture(scope="module")
def molecule_setup(frame_sets, hierarchies, spectra, params022):
    frame, dual, _ = frame_sets["C_64"]
    hier, _ = hierarchies["C_64"]
    spec = spectra["C_64"]
    M = params022.J + 1.0
    raw = mo.validate_molecule(frame.columns, hier, "synthesis", "classical",
                               params022, spec, M=M, budget=1.0)
    c = mo.scaling_for_budget(raw) * (1.0 - 1e-9)
    return frame, dual, hier, spec, M, c


def test_rescaled_frame_is_a_molecule_family(molecule_setup, params022):
    frame, dual, hier, spec, M, c = molecule_setup
    cert = mo.validate_molecule(c * frame.columns, hier, "synthesis",
                                "classical", params022, spec, M=M)
    assert cert.passed
    assert cert.factorization_residual <= 1e-9
    raw = mo.validate_molecule(dual.columns, hier, "analysis", "classical",
                               params022, spec, M=M, budget=1.0)
    ca = mo.scaling_for_budget(raw) * (1.0 - 1e-9)
    anal = mo.validate_molecule(ca * dual.columns, hier, "analysis",
                                "classical", params022, spec, M=M)
    assert anal.passed


def test_constants_scale_exactly(molecule_setup, params022):
    frame, _, hier, spec, M, c = molecule_setup
    c1 = mo.validate_molecule(frame.columns, hier, "synthesis", "classical",
                              params022, spec, M=M)
    c2 = mo.validate_molecule(5.0 * frame.columns, hier, "synthesis",
                              "classical", params022, spec, M=M)
    for key in c1.constants:
        assert abs(c2.constants[key] - 5.0 * c1.constants[key]) \
            <= 1e-9 * max(c2.constants[key], 1e-300)


def test_oversized_family_fails_budget(molecule_setup, params022):
    frame, _, hier, spec, M, c = molecule_setup
    cert = mo.validate_molecule(10.0 * c * frame.columns, hier, "synthesis",
                                "classical", params022, spec, M=M)
    assert not cert.passed


def test_inhomogeneous_mode_skips_level_zero(hierarchies, spectra, params022):
    hier, _ = hierarchies["C_64"]
    spec = spectra["C_64"]
    # a tiny family supported only on level-0 centers, with no companions:
    # cancellation fails in homogeneous mode and is waived otherwise
    fam = np.zeros((64, hier.size))
    sl = hier.level_slice(0)
    fam[:, sl] = 1e-6
    zeros = np.zeros_like(fam)
    hom = mo.validate_molecule(fam, hier, "synthesis", "classical",
                               params022, spec, M=params022.J + 1.0,
                               companions=zeros)
    assert not hom.passed
    inh = mo.validate_molecule(fam, hier, "synthesis", "classical",
                               params022, spec, M=params022.J + 1.0,
                               companions=zeros, inhomogeneous=True)
    assert inh.factorization_residual <= 1e-9
    assert inh.passed


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_certificate(molecule_setup, params022):
    frame, dual, hier, spec, M, c = molecule_setup
    A, cert = mo.gram(frame.columns, dual.columns, hier, params022)
    assert cert["passed"]
    assert cert["c"] == min(cert["scan"].values())
    # entrywise Cauchy-Schwarz sanity
    mu = hier.space.mu
    ns = np.sqrt(np.sum(mu[:, None] * frame.columns**2, axis=0))
    na = np.sqrt(np.sum(mu[:, None] * dual.columns**2, axis=0))
    assert np.all(np.abs(A.entries) <= np.outer(na, ns) + 1e-12)


# ---------------------------------------------------------------------------
# synthesis / analysis operators


def test_molecular_analysis_identity(molecule_setup, params022, Phi):
    frame, dual, hier, spec, M, c = molecule_setup
    psi = lambda u: Phi(u) - Phi(2.0 * np.asarray(u))
    f = spec.project_mean_zero(np.cos(np.arange(64.0) / 3.0))
    coeffs, rep = mo.molecular_analysis(f, dual.columns, frame, dual, hier,
                                        params022, spec, psi)
    assert rep["identity_residual"] <= 1e-9
    assert np.allclose(coeffs, dual.analyze(f), atol=1e-10)
    assert rep["ratio"] > 0


def test_molecular_analysis_of_a_table_matches_columns(molecule_setup,
                                                       params022, Phi):
    frame, dual, hier, spec, M, c = molecule_setup
    psi = lambda u: Phi(u) - Phi(2.0 * np.asarray(u))
    F = np.random.default_rng(9).standard_normal((64, 5))
    F[:, 2] = 0.0
    coeffs, rep = mo.molecular_analysis(F, dual.columns, frame, dual, hier,
                                        params022, spec, psi)
    assert coeffs.shape == (hier.size, 5)
    assert rep["function_norm"][2] == 0.0 and rep["ratio"][2] == 0.0
    for i in range(5):
        ci, ri = mo.molecular_analysis(F[:, i], dual.columns, frame, dual,
                                       hier, params022, spec, psi)
        assert np.abs(coeffs[:, i] - ci).max() <= \
            1e-12 * max(np.abs(ci).max(), 1.0)
        for key, value in ri.items():
            assert isinstance(value, float)
            # the identity residual is itself rounding, so held absolutely
            scale = 1.0 if key == "identity_residual" else abs(value)
            assert abs(rep[key][i] - value) <= 1e-12 * scale


def test_molecular_round_trip(molecule_setup, params022, Phi):
    frame, dual, hier, spec, M, c = molecule_setup
    psi = lambda u: Phi(u) - Phi(2.0 * np.asarray(u))
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = spec.project_mean_zero(rng.standard_normal(64))
        coeffs, _ = mo.molecular_analysis(f, dual.columns, frame, dual,
                                          hier, params022, spec, psi)
        g, rep = mo.molecular_synthesis(coeffs, frame.columns, hier,
                                        params022, spec, psi)
        assert spec.space.norm2(g - f) <= 1e-9 * spec.space.norm2(f)
        assert rep["ratio"] > 0


def test_synthesis_rejects_wrong_length(molecule_setup, params022, Phi):
    frame, _, hier, spec, M, c = molecule_setup
    with pytest.raises(ValueError):
        mo.molecular_synthesis(np.zeros(3), frame.columns, hier, params022,
                               spec, Phi)


# ---------------------------------------------------------------------------
# atoms


def test_minimal_atom_orders(params022):
    K, Kt = mo.minimal_atom_orders(params022)
    assert K == int(np.floor(params022.J / 2.0)) + 1
    assert Kt == 2
    pm = SpaceParams(s=-6.0, p=2.0, q=2.0, d=1.0)
    assert mo.minimal_atom_orders(pm)[1] == 0


def test_atom_certificate_and_decomposition(compact_pipeline, hierarchies,
                                            spectra, params022, Phi):
    compact, supports, cdual, _ = compact_pipeline
    hier, _ = hierarchies["C_64"]
    spec = spectra["C_64"]
    raw = mo.validate_atoms(compact.columns, hier, params022, spec,
                            budget=1e12)
    scale = 1.0 / max(raw.constants.values()) * (1.0 - 1e-9)
    cert = mo.validate_atoms(scale * compact.columns, hier, params022, spec)
    assert cert.passed
    assert cert.support_constant > 0
    # on this small model the supports may fill the whole space, but never
    # exceed its diameter
    for level_radii in cert.support_radii.values():
        assert max(level_radii.values()) <= spec.space.diameter

    psi = lambda u: Phi(u) - Phi(2.0 * np.asarray(u))
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = spec.project_mean_zero(rng.standard_normal(64))
        t, atoms, rep = mo.atomic_decompose(f, compact, cdual, hier,
                                            params022, spec, psi,
                                            atom_cert=cert)
        assert rep["residual"] <= 1e-6
        recon = atoms @ t
        assert spec.space.norm2(recon - f) <= 1e-6 * spec.space.norm2(f)
        assert rep["analysis_constant"] > 0
        assert rep["synthesis_constant"] > 0


def test_validate_atoms_rejects_low_orders(compact_pipeline, hierarchies,
                                           spectra, params022):
    compact, _, _, _ = compact_pipeline
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError):
        mo.validate_atoms(compact.columns, hier, params022, spectra["C_64"],
                          K_tilde=0)
