"""Acceptance gate: one test per release criterion, at the stated
tolerances and scales."""

import ast
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mmframes import addiag as ad
from mmframes import calculus as ca
from mmframes import frames as fr
from mmframes import molecules as mo
from mmframes import multiplier as mp
from mmframes import seqspace as sq
from mmframes import space as sp
from mmframes.seqspace import SpaceParams
from test_molecules import certificate, scaled


def test_criterion_01_exact_geometry_suite(models, profiles):
    t0 = time.monotonic()
    for name in ("C_8", "C_64", "P_10", "T_8x8"):
        m, prof = models[name], profiles[name]
        assert prof.c0 >= 1.0 and np.isfinite(prof.d)
        for delta in (1.0, 2.0):
            centers = sp.build_maximal_net(m, delta)
            for mult in (1.0, 2.0, 4.0):
                assert sp.check_net_count(m, centers, delta, mult * delta,
                                          prof) <= 1.0
            assert sp.check_discrete_sum(m, centers, prof.d + 1.0, delta,
                                         delta, 2.0 * delta, prof) <= 1.0
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_net_invariants(models, hierarchies):
    for name in ("C_32", "C_64", "C_128", "T_8x8"):
        hier, eps = hierarchies[name]
        for net in hier.levels:
            sp.verify_net_invariants(models[name], net)
        assert max(eps.values()) < 0.5


def test_criterion_03_telescoping(spectra, Phi):
    t0 = time.monotonic()
    spec = spectra["C_64"]
    window = ca.level_window(spec, 2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = spec.project_mean_zero(rng.standard_normal(64))
        out = ca.telescope(spec, Phi, window, f)
        assert spec.space.norm2(out - f) <= 1e-10 * spec.space.norm2(f)
    assert time.monotonic() - t0 < 5.0


def test_criterion_04_frame_duality(frame_sets, spectra):
    for name in ("C_64", "T_8x8"):
        frame, dual, _ = frame_sets[name]
        spec = spectra[name]
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = spec.project_mean_zero(rng.standard_normal(spec.space.n))
            nf = spec.space.norm2(f)
            assert spec.space.norm2(fr.reconstruct(frame, dual, f) - f) \
                <= 1e-9 * nf
            assert spec.space.norm2(fr.reconstruct(dual, frame, f) - f) \
                <= 1e-9 * nf
        probe = fr.frame_bounds_probe(
            frame, dual, sq.random_battery(spec, 20))
        assert 0 < probe["lower"] <= probe["upper"] < np.inf


def test_criterion_05_dual_bands_exact(frame_sets, spectra):
    for name in ("C_64", "T_8x8"):
        _, dual, _ = frame_sets[name]
        g = fr.hierarchy_bands(spectra[name], dual.hierarchy)[1]
        assert fr.band_leak(dual, g) == 0.0
        assert spectra[name].basis_defect() <= 1e-10


def test_criterion_06_norm_equivalence_suites(spectra, frame_sets,
                                              profiles):
    prof = profiles["C_64"]
    d, dstar = prof.d, max(prof.dstar, 0.0)
    widths = {}
    for name in ("C_64", "C_128"):
        spec = spectra[name]
        frame, dual, _ = frame_sets[name]
        battery = sq.random_battery(spec, 50, seed=2)
        worst = 0.0
        for s in (-1.0, 0.0, 1.0):
            for p in (1.0, 2.0):
                for q in (1.0, 2.0):
                    for flavor in ("classical", "tilde"):
                        for family in ("besov", "triebel_lizorkin"):
                            prm = SpaceParams(s=s, p=p, q=q, flavor=flavor,
                                              family=family, d=d, dstar=dstar)
                            rep = sq.check_frame_characterization(
                                battery, prm, frame, dual)
                            lo, hi = rep["ratio_band"]
                            assert 0 < lo <= hi < np.inf
                            worst = max(worst, hi / lo)
        widths[name] = worst
    assert widths["C_128"] <= 2.0 * widths["C_64"]
    assert widths["C_64"] <= 2.0 * widths["C_128"]


def test_criterion_07_omega_identities(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
    assert np.abs(np.diag(W) - 1.0).max() == 0.0
    rng = np.random.default_rng(3)
    for _ in range(1000):
        i, k = (int(v) for v in rng.integers(0, hier.size, size=2))
        eps = float(rng.uniform(0.1, 2.0))
        beta = float(rng.uniform(0.05, 1.0)) * eps
        gamma = float(rng.uniform(0.05, 1.0)) * eps
        v_eps = ad.omega2(hier, i, k, eps, eps, params022)
        v_bg = ad.omega2(hier, i, k, beta, gamma, params022)
        assert abs(ad.omega2(hier, i, k, 0.5, 0.5, params022) - W[i, k]) \
            <= 1e-14 * max(W[i, k], 1e-300)
        assert v_eps <= v_bg * (1.0 + 1e-12)


def test_criterion_08_weight_composition_grid(hierarchies, params022):
    t0 = time.monotonic()
    worst = {}
    for name in ("C_32", "C_64"):
        hier, _ = hierarchies[name]
        vals = []
        for beta in (0.25, 0.5, 1.0):
            for g1 in (0.3, 0.6, 1.2):
                for g2 in (0.4, 0.8, 1.5):
                    if beta < g1 + g2 and g1 != g2:
                        res = ad.lemma64_grid(hier, params022, beta,
                                              [(g1, g2)])[0]
                        assert np.isfinite(res["max_ratio"])
                        vals.append(res["max_ratio"])
        worst[name] = max(vals)
    assert worst["C_64"] <= 2.0 * worst["C_32"]
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_boundedness_probe(hierarchies, params022):
    ratios = {}
    rng = np.random.default_rng(4)
    for name in ("C_64", "C_128"):
        hier, _ = hierarchies[name]
        W = ad.omega2_matrix(hier, 0.5, 0.5, params022)
        I = np.eye(hier.size)
        assert abs(ad.ad_norm(hier, params022, W, I, 0.5) - 1.0) < 1e-12
        battery = rng.standard_normal((100, hier.size))
        rep = ad.boundedness_probe(hier, params022, W, I, 0.5, battery)
        vals = [rep[k] for k in ("b", "b~", "f", "f~")]
        assert all(np.isfinite(v) and v > 0 for v in vals)
        ratios[name] = max(vals)
    assert ratios["C_128"] <= 2.0 * ratios["C_64"]


def test_criterion_10_neumann_inversion(hierarchies, params022):
    hier, _ = hierarchies["C_64"]
    W = ad.omega2_matrix(hier, 1.0, 1.0, params022)
    cstar = ad.lemma64_grid(hier, params022, 0.5, [(1.0, 0.5)])[0]["max_ratio"]
    I = np.eye(hier.size)
    (left, right), rep = ad.neumann_invert(hier, params022, -0.01 * W, I,
                                           cstar)
    assert rep["residual"] <= 1e-9
    # C comes back as its factors; I + C inverts I + 0.01 W
    assert np.abs((I + 0.01 * W) @ (I + left @ right) - I).max() <= 1e-9
    assert rep["geometric_decay_ok"]
    for n, val in enumerate(rep["term_ad_norms"], start=1):
        assert val <= rep["delta_hat"] ** n * rep["c_star"] ** (n - 1) \
            * (1.0 + 1e-9)


def test_criterion_11_molecule_and_gram_constants(frame_sets, hierarchies,
                                                  params022):
    frame, dual, _ = frame_sets["C_64"]
    hier, _ = hierarchies["C_64"]
    for family, flavor in ((frame, "synthesis"), (dual, "analysis")):
        raw = certificate(family, flavor, params022)
        assert raw.M == params022.J + 0.5
        assert all(np.isfinite(v) for v in raw.constants.values())
        c = mo.scaling_for_budget(raw) * (1.0 - 1e-9)
        assert certificate(scaled(family, c), flavor, params022).passed
    # the Gram psi~^T M psi from the frames' coefficient tables
    c = ad.ad_norm(hier, params022, dual.table().T, frame.table(), 0.125)
    assert 0 < c < np.inf


def test_criterion_12_atomic_decomposition(compact_pipeline, params022):
    cp = compact_pipeline
    spec = cp.spec
    raw = mo.validate_atoms(cp.compact, params022)
    scale = (1.0 - 1e-9) / max(raw.constants.values())
    cert = mo.validate_atoms(scaled(cp.compact, scale), params022)
    assert cert.passed
    # the atoms' effective support is within k e at every polynomial level:
    # level 1 is a polynomial of degree 31 on C_64 at b = 4.  Their
    # companions L^{-nu} a, nu > 0, are taken mean-zero, which adds a
    # constant, so only the atoms themselves (the ladder's last rung) are
    # compact
    poly = {j: lv for j, lv in cp.levels.items() if lv.degree}
    assert any(lv.degree > 1 for lv in poly.values())
    for j, lv in poly.items():
        assert cert.support_radii[cert.K][j] <= lv.reach

    cstar = mo.scaling_for_budget(cert)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = spec.project_mean_zero(rng.standard_normal(64))
        t, rep = mo.atomic_decompose(f, cp.compact, cp.cdual, params022,
                                     cstar=cstar)
        assert rep["residual"] <= 1e-6
        atoms_t = cp.compact.synthesize(cstar * t)
        assert spec.space.norm2(atoms_t - f) <= 1e-6 * spec.space.norm2(f)


def test_criterion_13_multiplier(spectra, frame_sets, params022):
    ratios = {}
    for name in ("C_64", "C_128"):
        spec = spectra[name]
        frame, dual, _ = frame_sets[name]
        sym = mp.check_mihlin("rational", 4, params022, spec)
        f = np.sin(np.arange(spec.space.n) / 3.0)
        mp.apply_multiplier(sym, f, frame, dual, spec)
        battery = sq.random_battery(spec, 30, seed=6)
        rep = mp.boundedness_report(sym, params022, battery, frame)
        ratios[name] = rep["f"]["ratio"]
        roots = np.sqrt(spec.eigenvalues)
        sup_m = np.abs(np.asarray(sym(roots[1:]))).max()
        assert rep["f"]["ratio"] <= sup_m + 1e-9
    assert ratios["C_128"] <= 2.0 * ratios["C_64"]


def test_criterion_14_hardy_suite():
    rng = np.random.default_rng(7)
    worst = {10: 0.0, 20: 0.0, 40: 0.0}
    for m in worst:
        for _ in range(334):
            a = np.abs(rng.standard_normal(m))
            rep = sq.hardy_check(a, gamma=0.5, q=2.0)
            assert np.isfinite(rep["down"]) and np.isfinite(rep["up"])
            worst[m] = max(worst[m], rep["down"], rep["up"])
    vals = list(worst.values())
    assert max(vals) / min(vals) < 2.0


def test_criterion_15_deterministic_reports(tmp_path):
    # separate processes, so that nothing keyed on the process (string
    # hashing, say) can hide; the default C_64 config runs clean: no suite
    # fails, errors or skips
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"cfg_{tag}.json"
        cfg.write_text(json.dumps({"seed": 0, "output_dir": str(out)}))
        res = subprocess.run(
            [sys.executable, "-m", "mmframes.cli", "run", str(cfg)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stdout + res.stderr
        reports.append((out / "report.txt").read_bytes())
        statuses = {line.split(" status=")[1].split()[0]
                    for line in reports[-1].decode().splitlines()[1:]}
        assert statuses <= {"pass", "record"}, statuses
    assert reports[0] == reports[1]


def test_modules_import_only_those_listed_before_them():
    # README's "Modules, in dependency order" table names every module, and
    # no module imports, anywhere in its body, one listed after it
    root = Path(__file__).resolve().parents[1]
    order = re.findall(r"^\| `(\w+)` +\|", (root / "README.md").read_text(),
                       re.M)
    package = root / "src" / "mmframes"
    assert sorted(order) == sorted(
        p.stem for p in package.glob("*.py") if p.stem != "__init__")
    for k, name in enumerate(order):
        imported = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "mmframes":
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        imported = {m.removeprefix("mmframes.") for m in imported}
        assert not imported & set(order[k:]), name
