import numpy as np
import pytest

from mmframes import space as sp
from mmframes import calculus as ca
from mmframes import frames as fr
from mmframes.seqspace import SpaceParams


MODEL_NAMES = ("C_8", "C_32", "C_64", "C_128", "P_10", "T_8x8")


@pytest.fixture(scope="session")
def models():
    return {name: sp.build_model(name) for name in MODEL_NAMES}


@pytest.fixture(scope="session")
def profiles(models):
    return {name: sp.measure_doubling(m) for name, m in models.items()}


@pytest.fixture(scope="session")
def spectra(models):
    return {name: ca.eigendecompose(m)
            for name, m in models.items() if name != "C_8"}


@pytest.fixture(scope="session")
def hierarchies(spectra):
    out = {}
    for name in ("C_32", "C_64", "C_128", "T_8x8"):
        hier, eps = fr.build_standard_hierarchy(spectra[name])
        out[name] = (hier, eps)
    return out


@pytest.fixture(scope="session")
def Phi():
    return ca.make_cutoff("a", 2.0)


@pytest.fixture(scope="session")
def frame_sets(spectra, hierarchies, Phi):
    """Primal and dual frames per model."""
    out = {}
    for name in ("C_64", "C_128", "T_8x8"):
        spec = spectra[name]
        hier, _ = hierarchies[name]
        frame = fr.build_frame1(spec, hier, Phi)
        dual, report = fr.build_dual_frame(spec, hier, Phi)
        out[name] = (frame, dual, report)
    return out


@pytest.fixture(scope="session")
def params022(profiles):
    prof = profiles["C_64"]
    return SpaceParams(s=0.0, p=2.0, q=2.0, d=prof.d,
                       dstar=max(prof.dstar, 0.0))


@pytest.fixture(scope="session")
def theta(Phi):
    """The band-limited surrogate symbol; built once, reused everywhere."""
    Psi = lambda u: Phi(u) - Phi(np.asarray(u) * 2.0)
    derivs = ca.band_derivatives(2.0, 2)
    th = fr.build_band_limited_theta(Psi, N=4, K=2, eps=1e-3,
                                     Psi_derivs=derivs)
    assert th.passed
    return th


@pytest.fixture(scope="session")
def compact_pipeline(spectra, hierarchies, frame_sets, theta, params022):
    spec = spectra["C_64"]
    hier, _ = hierarchies["C_64"]
    frame, dual, _ = frame_sets["C_64"]
    compact, supports = fr.build_compact_frame(spec, hier, theta)
    cdual, delta_hat = fr.build_compact_dual(spec, frame, dual, compact,
                                             params022)
    return compact, supports, cdual, delta_hat
