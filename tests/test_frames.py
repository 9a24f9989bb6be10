import dataclasses

import numpy as np
import pytest

from mmframes import addiag as ad
from mmframes import calculus as ca
from mmframes import frames as fr
from mmframes import seqspace as sq
from mmframes import space as sp
from test_space import MU_MODELS


def test_standard_hierarchy_sampling_epsilons(hierarchies):
    for name in ("C_64", "T_8x8"):
        hier, eps = hierarchies[name]
        assert max(eps.values()) < 0.5
        assert set(eps) == {net.level for net in hier.levels}


def test_frame1_requires_lowpass_cutoff(spectra, hierarchies):
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError):
        fr.build_frame1(spectra["C_64"], hier, ca.make_cutoff("b", 2.0))


def test_dual_frame_requires_the_hierarchy_base(spectra, hierarchies):
    # the series runs on {sqrt(lambda) <= b^{j+2}}, where a cutoff of a
    # larger base would not vanish
    hier, _ = hierarchies["C_64"]
    with pytest.raises(ValueError, match="base mismatch"):
        fr.build_dual_frame(spectra["C_64"], hier, ca.make_cutoff("a", 3.0))


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


def test_dual_bands_exact(frame_sets, spectra):
    for name in ("C_64", "T_8x8"):
        _, dual, _ = frame_sets[name]
        leak = fr.check_band_containment(spectra[name], dual)
        assert leak <= 1e-10


def test_frame_bounds_probe_finite(frame_sets, spectra):
    frame, dual, _ = frame_sets["C_64"]
    spec = spectra["C_64"]
    battery = sq.random_battery(spec.space, spec, 20, seed=0)
    probe = fr.frame_bounds_probe(frame, dual, spec, battery)
    assert 0 < probe["lower"] <= probe["upper"] < np.inf
    assert probe["residual"] <= 1e-9
    assert probe["samples"] == 20
    # a zero function is left out of every ratio, not counted as a sample
    battery[3] = 0.0
    probe = fr.frame_bounds_probe(frame, dual, spec, battery)
    assert probe["samples"] == 19 and 0 < probe["lower"]
    empty = fr.frame_bounds_probe(frame, dual, spec, 0.0 * battery)
    assert empty == {"lower": np.inf, "upper": 0.0, "residual": 0.0,
                     "samples": 0}


def test_frame_column_norms_track_ball_volumes(frame_sets, spectra):
    # the edge levels of the hierarchy carry zero columns (their bands
    # miss the finite spectrum), so compare norms on the interior only
    frame, _, _ = frame_sets["C_64"]
    spec = spectra["C_64"]
    hier = frame.hierarchy
    from mmframes.space import ball_volumes
    norms = np.linalg.norm(frame.columns, axis=0)
    live = norms > 1e-12
    assert live.any() and not live.all()
    for p in (1.0, 2.0):
        ratios = []
        for k in np.nonzero(live)[0]:
            j = int(hier.xi_level[k])
            xi = int(hier.xi_point[k])
            vol = ball_volumes(spec.space, hier.b ** (-j))[xi]
            ratios.append(spec.space.lp_norm(frame.columns[:, k], p)
                          / vol ** (1.0 / p - 0.5))
        ratios = np.array(ratios)
        assert 0 < ratios.min() <= ratios.max() < np.inf
        assert ratios.max() / ratios.min() < 50.0


def test_dual_report_contents(frame_sets, hierarchies):
    for name in ("C_64", "C_128", "T_8x8"):
        _, _, report = frame_sets[name]
        _, eps = hierarchies[name]
        assert report.neumann_tail <= 1e-10
        assert sorted(report.sampling_ratios) == sorted(eps)
        for j, (lo, hi) in report.sampling_ratios.items():
            assert max(1.0 - lo, hi - 1.0) == eps[j] < 0.5


def _dual_on_kernel_tables(spec, hier, Phi):
    """Reference dual of Thm 4.2 on n x n kernel tables composed under M:
    R = G2 - V, S = R + R M R + ..., columns (G_c + S M G_c) scaled per
    centre; returns (columns, the longest series)."""
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
    hier, _ = fr.build_standard_hierarchy(spec)
    dual, report = fr.build_dual_frame(spec, hier, Phi)
    ref, terms = _dual_on_kernel_tables(spec, hier, Phi)
    err = np.abs(dual.columns - ref).max() / np.abs(ref).max()
    assert err <= 1e-12
    assert report.neumann_terms == terms


def test_dual_frame_composes_no_kernel_table(monkeypatch, spectra,
                                             hierarchies, frame_sets, Phi):
    _, ref, _ = frame_sets["C_64"]

    def no_kernel(*args, **kwargs):
        raise AssertionError("the dual frame built a kernel table")

    monkeypatch.setattr(ca.SpectralData, "kernel", no_kernel)
    dual, _ = fr.build_dual_frame(spectra["C_64"], hierarchies["C_64"][0], Phi)
    assert np.array_equal(dual.columns, ref.columns)


# ---------------------------------------------------------------------------
# band-limited surrogate symbol


def _dense_theta_deriv(theta, u, nu):
    """Theta^(nu)(u) = sum_k c_k t_k^nu cos(t_k u + nu pi/2), from the dense
    cosine table."""
    osc = np.cos(np.outer(u, theta.nodes) + nu * np.pi / 2.0)
    return osc @ (theta.coeffs * theta.nodes**nu)


def test_theta_reproduces_band_symbol(theta, Phi):
    u = np.linspace(0.05, 8.0, 500)
    psi = Phi(u) - Phi(2.0 * u)
    err = np.abs(theta(u) - psi)
    weight = u**theta.N / (1.0 + u) ** (2 * theta.N)
    assert (err / weight).max() <= theta.eps_target


def test_theta_jets_vanish(theta):
    assert abs(theta(0.0)) < 1e-12
    assert max(theta.jet_residuals) < 1e-12


def test_theta_derivative_matches_finite_difference(theta):
    u = np.linspace(0.5, 3.0, 101)
    h = 1e-5
    num = (theta(u + h) - theta(u - h)) / (2 * h)
    assert np.abs(_dense_theta_deriv(theta, u, 1) - num).max() < 1e-5


def test_theta_clenshaw_matches_dense_sum(theta):
    # the Chebyshev route against the dense cosine sum over [0, 256], with
    # the points u = k pi/dt where cos(dt u) = +-1
    dt = theta.nodes[1]
    u = np.concatenate([np.linspace(0.0, 256.0, 4001),
                        np.arange(int(256.0 * dt / np.pi) + 1) * np.pi / dt])
    dense = _dense_theta_deriv(theta, u, 0)
    tol = 1e-12 * np.abs(dense).max()
    assert np.abs(theta(u) - dense).max() <= tol
    # an (n, L) table, as build_compact_frame passes it, keeps its shape
    table = u[:4000].reshape(400, 10)
    assert theta(table).shape == (400, 10)
    assert np.abs(theta(table) - dense[:4000].reshape(400, 10)).max() <= tol
    assert theta(u[7]) == theta(u[7:8])[0]


@pytest.mark.parametrize("size", [2, 3, 16, 17, 1000, 19755])
def test_numpy_dct1_dst1_match_scipy(size):
    from scipy import fft

    # two FFT libraries agree to rounding, a few ulps of the input scale
    x = np.random.default_rng(size).standard_normal(size)
    tol = 1e-14 * np.abs(x).sum()
    assert np.abs(fr._dct1(x) - fft.dct(x, type=1)).max() <= tol
    assert np.abs(fr._dst1(x) - fft.dst(x, type=1)).max() <= tol


def test_theta_transform_band_is_certified(theta):
    assert theta.nodes.max() <= theta.R
    assert theta.passed
    assert theta.eps_achieved <= theta.eps_target


def test_cosine_transform_matches_dense_sum(Phi):
    # the DCT-I route against the direct cosine sum on its grid u_i = i du:
    # du_max = 2.5e-4 (the step used at R = 64) gives M = 2^18 and
    # du = pi/(M dt)
    Psi = lambda u: Phi(u) - Phi(np.asarray(u) * 2.0)
    dt = 0.08
    t = np.arange(0.0, 64.0 + dt, dt)
    du = np.pi / (2**18 * dt)
    u = np.arange(int(2.5 / du) + 1) * du
    dense = 2.0 * (np.cos(np.outer(t, u)) @ (Psi(u) * du))
    fast = fr._cosine_transform(Psi, 2.5, len(t), dt, 2.5e-4)
    assert np.abs(fast - dense).max() <= 1e-15


def test_theta_eps_achieved_matches_dense_evaluation(theta, Phi):
    # rebuild the validation grid u_j = j pi/(L dt) restricted to [0.05, 8]
    # and evaluate the (6.16) ratio with the dense cosine representation
    dt = theta.nodes[1]
    L = max(len(theta.nodes), int(np.ceil(3999 * np.pi / (dt * 7.95))))
    u = np.arange(L + 1) * (np.pi / (L * dt))
    u = u[(u >= 0.05) & (u <= 8.0)]
    assert u[1] - u[0] <= 7.95 / 3999
    derivs = ca.band_derivatives(2.0, theta.K)
    weight = u**theta.N / (1.0 + u) ** (2 * theta.N)
    worst, floor = 0.0, 0.0
    for nu in range(theta.K + 1):
        ratio = np.concatenate([
            np.abs(_dense_theta_deriv(theta, u[blk], nu) - derivs[nu](u[blk]))
            / weight[blk]
            for blk in np.array_split(np.arange(len(u)), 16)])
        if ratio.max() > worst:
            # either sum rounds at eps * sum |c_k| t_k^nu, seen through the
            # weight at the worst point
            worst = float(ratio.max())
            floor = np.finfo(float).eps * float(
                np.sum(np.abs(theta.coeffs) * theta.nodes**nu)) \
                / weight[ratio.argmax()]
    assert abs(theta.eps_achieved - worst) <= 10.0 * floor
    assert 10.0 * floor <= 1e-6 * worst


def test_theta_rejects_bad_orders(Phi):
    Psi = lambda u: Phi(u) - Phi(np.asarray(u) * 2.0)
    with pytest.raises(ValueError):
        fr.build_band_limited_theta(Psi, ca.band_derivatives(2.0, 2),
                                    N=1, K=2, eps=1e-3)


# ---------------------------------------------------------------------------
# compact frame and its dual


def test_compact_frame_supports_within_speed_bound(compact_pipeline,
                                                   spectra, theta):
    _, supports, _, _ = compact_pipeline
    spec = spectra["C_64"]
    ct = ca.fit_speed_constant(spec)
    for j, r in supports.items():
        bound = ct * theta.R * 2.0 ** (-j)
        assert r <= bound or bound >= spec.space.diameter


def test_compact_dual_reconstructs(compact_pipeline, spectra):
    compact, _, cdual, delta_hat = compact_pipeline
    assert delta_hat < 0.5
    spec = spectra["C_64"]
    F = sq.random_battery(spec.space, spec, 10, seed=0).T
    resid = spec.space.norm2(fr.reconstruct(compact, cdual, F) - F) \
        / spec.space.norm2(F)
    assert resid.max() <= 1e-6
    rng = np.random.default_rng(11)
    f = spec.project_mean_zero(rng.standard_normal(64))
    t = cdual.analyze(f)
    recon = compact.synthesize(t)
    assert spec.space.norm2(recon - f) <= 1e-6 * spec.space.norm2(f)


@pytest.mark.parametrize("desc", ["C_64", MU_MODELS[0]], ids=["C_64", "mu_16"])
def test_compact_dual_matches_the_dense_and_certified_inverses(desc, theta,
                                                               Phi):
    # the n x n route against two m x m references: the dense
    # solve(I - D, B) and the certified Neumann inverse of Thm 6.3(ii)
    spec = ca.eigendecompose(sp.build_model(desc))
    hier, _ = fr.build_standard_hierarchy(spec)
    prof = sp.measure_doubling(spec.space)
    params = sq.SpaceParams(s=0.0, p=2.0, q=2.0, d=prof.d,
                            dstar=max(prof.dstar, 0.0))
    frame = fr.build_frame1(spec, hier, Phi)
    dual, _ = fr.build_dual_frame(spec, hier, Phi)
    compact, _ = fr.build_compact_frame(spec, hier, theta)
    cdual, delta_hat = fr.build_compact_dual(spec, frame, dual, compact,
                                             params)
    mu = spec.space.mu
    D = dual.columns.T @ (mu[:, None] * (frame.columns - compact.columns))
    B = dual.columns.T @ (mu[:, None] * frame.columns)
    Ainv, rep = ad.neumann_invert(
        ad.NetMatrix(hierarchy=hier, entries=D, params=params),
        1.0, fr.COMPACT_DUAL_THRESHOLD)
    dense = dual.columns @ np.linalg.solve(np.eye(hier.size) - D, B).T
    certified = dual.columns @ (Ainv.entries @ B).T
    for ref in (dense, certified):
        err = np.abs(cdual.columns - ref).max() / np.abs(ref).max()
        assert err <= 1e-12, err
    assert delta_hat == rep["delta_hat"]


def test_default_frames_one_call():
    space, spec, hier, Phi, frame, dual, report = fr.default_frames("C_32")
    f = spec.project_mean_zero(np.sin(np.arange(32.0)))
    r = spec.space.norm2(fr.reconstruct(frame, dual, f) - f)
    assert r <= 1e-9 * spec.space.norm2(f)
    # the contract a caller reads: the longest per-level series
    assert type(report.neumann_terms) is int and report.neumann_terms >= 1


def test_compact_dual_precondition_message(compact_pipeline, spectra,
                                           frame_sets, params022):
    compact = compact_pipeline[0]
    frame, dual, _ = frame_sets["C_64"]
    # scaled compact columns move D = <psi - theta, psi~> far from 0
    scaled = dataclasses.replace(compact, columns=3.0 * compact.columns)
    with pytest.raises(RuntimeError,
                       match="compact-dual precondition failed"):
        fr.build_compact_dual(spectra["C_64"], frame, dual, scaled, params022)
