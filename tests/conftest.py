from types import SimpleNamespace

import numpy as np
import pytest

from mmframes import space as sp
from mmframes import calculus as ca
from mmframes import frames as fr
from mmframes.seqspace import SpaceParams


MODEL_NAMES = ("C_8", "C_32", "C_64", "C_128", "P_10", "T_8x8")


def table_frame(spec, hier, table):
    """A Frame that holds every level as its block of the (n, m)
    coefficient table."""
    return fr.Frame(spec, hier, np.zeros((len(table), len(hier.levels))),
                    {k: np.array(table[:, sl])
                     for k, sl in enumerate(hier.blocks)})


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
def frame_sets(spectra, hierarchies):
    """Primal and dual frames per model."""
    out = {}
    for name in ("C_64", "C_128", "T_8x8"):
        spec = spectra[name]
        hier, eps = hierarchies[name]
        frame = fr.build_frame1(spec, hier)
        dual, report = fr.build_dual_frame(spec, hier, eps)
        out[name] = (frame, dual, report)
    return out


@pytest.fixture(scope="session")
def params022(profiles):
    prof = profiles["C_64"]
    return SpaceParams(s=0.0, p=2.0, q=2.0, d=prof.d,
                       dstar=max(prof.dstar, 0.0))


@pytest.fixture(scope="session")
def compact_pipeline(spectra, params022):
    """The compact frame and its dual on C_64 at b = 4, where level 1 is a
    polynomial of degree 31 below the diameter 32; at b = 2 every level
    of C_64 keeps its band symbol."""
    spec = spectra["C_64"]
    hier, eps = fr.build_standard_hierarchy(spec, b=4.0)
    frame = fr.build_frame1(spec, hier)
    dual, _ = fr.build_dual_frame(spec, hier, eps)
    compact, levels = fr.build_compact_frame(spec, hier)
    cdual, delta_hat = fr.build_compact_dual(frame, dual, compact, params022)
    return SimpleNamespace(spec=spec, hier=hier,
                           Phi=ca.make_cutoff("a", hier.b), frame=frame,
                           dual=dual, compact=compact, levels=levels,
                           cdual=cdual, delta_hat=delta_hat)
