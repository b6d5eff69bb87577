"""Acceptance suite: one test per criterion, fixed tolerances, PASS/FAIL lines.

Statistical criteria are seeded (master seed 21 unless stated); the seeds are
part of the pinned configuration, as the bounds are confidence-style bands.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from homoglab.config import parse_config
from homoglab.experiments import (
    run_homogenization_sweep,
    run_nonergodic_study,
    run_quenched_vs_mean,
    run_regularization_diagram,
)
from homoglab.integrand import IntegrandSpec
from homoglab.medium import DiscreteValues, EnsembleSpec, sample_realization
from homoglab.meshing import build_mesh
from homoglab.solver import assemble_energy, cell_problem, effective_integrand, minimize
from homoglab.twoscale import (
    FieldRecipe,
    PairingVector,
    build_dictionary,
    metric_distance,
    unfold_isometry_check,
)

from exact1d import dirichlet_energy

V2 = IntegrandSpec(p=2.0)
CB1 = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)
CB2 = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_unfolding_isometry():
    t0 = time.perf_counter()
    reals = [sample_realization(CB2, i) for i in range(1000)]
    recipe = FieldRecipe(probes=((0, 0),), fn=lambda vals, x: vals[0], name="coef")
    worst = 0.0
    ok = True
    for eps in (1.0, 1 / 4, 1 / 16):
        rep = unfold_isometry_check(reals, recipe, eps=eps, p=2.0)
        ok &= rep.defect_rel <= 2.0 * rep.stderr_rel
        worst = max(worst, rep.defect_rel)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(1, "unfolding isometry defect <= 2 se, N=1e3", ok, f"worst defect {worst:.4f}, {elapsed:.1f}s")


def test_criterion_02_metric_axioms():
    t0 = time.perf_counter()
    dico = build_dictionary(CB2, 1, 2, 2.0, max_entries=16)

    def vec(vals):
        return PairingVector(values=vals, eps=0.5, norm=1.0, tag="t", dico=dico)

    rng = np.random.default_rng(21)
    ok = True
    for _ in range(1000):
        a, b, c = (vec(rng.normal(scale=10, size=16)) for _ in range(3))
        dab, dba = metric_distance(a, b), metric_distance(b, a)
        ok &= dab == dba
        ok &= dab <= metric_distance(a, c) + metric_distance(c, b) + 1e-12
        ok &= metric_distance(a, a) == 0.0
    w = np.zeros(16)
    w[0] = 1.0
    hand = metric_distance(vec(np.zeros(16)), vec(w))
    ok &= hand == pytest.approx(0.25, abs=1e-15)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(2, "metric axioms on 1e3 triples + hand value 0.25", ok, f"{elapsed:.2f}s")


def test_criterion_03_1d_homogenization_oracle():
    t0 = time.perf_counter()
    r = sample_realization(CB1, 0)
    val = cell_problem(r, 64, V2, [1.0], n_per_cell=8).value
    cell_ok = abs(val - 0.8) <= 0.03 * 0.8
    cfg = parse_config(
        """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
seed = 21

[study]
kind = sweep
eps = 1/8, 1/16, 1/32, 1/64
L = 256
n_realizations = 8

[dictionary]
max_entries = 16
"""
    )
    rep = run_homogenization_sweep(cfg)
    _, gaps = rep.series["median energy gap"]
    mono = all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    elapsed = time.perf_counter() - t0
    ok = cell_ok and mono and elapsed < 60.0
    report(
        3,
        "1d oracle: cell value 0.8 (3%) + monotone median gaps",
        ok,
        f"value {val:.4f}, gaps {[f'{g:.4f}' for g in gaps]}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def duality_rows():
    rows = {}
    for L in (4, 8, 16):
        rows[L] = effective_integrand(
            CB2, L, V2, [[1.0, 0.0]], n_samples=8, n_per_cell=8, tol=1e-9
        )[0]
    return rows


def test_criterion_04_2d_duality_oracle(duality_rows):
    t0 = time.perf_counter()
    row = duality_rows[16]
    tol = 0.05 * 1.0 + 2.0 * row.stderr
    ok = abs(row.mean - 1.0) <= tol
    elapsed = time.perf_counter() - t0
    report(
        4,
        "2d duality: value(e1; L=16) within 5% + 2 se of 1.0",
        ok and elapsed < 300.0,
        f"mean {row.mean:.4f}, stderr {row.stderr:.4f}",
    )


def test_criterion_05_voigt_reuss_bracketing(duality_rows):
    ok = True
    detail = []
    for L, row in duality_rows.items():
        c = 2.0 * row.mean
        ok &= 1.6 <= c <= 2.5
        detail.append(f"L={L}: {c:.3f}")
    report(5, "Voigt-Reuss: coefficient in [1.6, 2.5] at every L", ok, ", ".join(detail))


def test_criterion_06_regularization_diagram():
    t0 = time.perf_counter()
    r = sample_realization(
        EnsembleSpec(dimension=1, cells=DiscreteValues((1.0,), (1.0,)), seed=21), 0
    )
    lam = EnsembleSpec(dimension=1, cells=DiscreteValues((0.05, 1.0), (0.5, 0.5)), seed=21)
    Vdeg = IntegrandSpec(p=2.0, form="degenerate-weighted", lambda_cells=lam)
    vals = [
        cell_problem(r, 64, Vdeg, [1.0], delta=d, n_per_cell=8).value
        for d in (0.2, 0.05, 0.0125, 0.0)
    ]
    mono = all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))
    cfg = parse_config(
        """
[ensemble]
dimension = 1
values = 1
probs = 1
seed = 21

[integrand]
form = degenerate-weighted
p = 2
lambda_distribution = discrete
lambda_values = 0.05, 1
lambda_probs = 0.5, 0.5

[study]
kind = diagram
eps = 1/8, 1/16, 1/32
delta = 0.2, 0.05, 0.0125
L = 256
n_realizations = 32
"""
    )
    rep = run_regularization_diagram(cfg)
    rel = rep.summary["rel_disagreement"]
    elapsed = time.perf_counter() - t0
    ok = mono and rel <= 0.05 and elapsed < 600.0
    report(
        6,
        "regularized cell values monotone + diagram paths agree (5%)",
        ok,
        f"values {[f'{v:.4f}' for v in vals]}, disagreement {rel:.3%}, {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def qvm_report():
    cfg = parse_config(
        """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
seed = 21

[study]
kind = quenched-vs-mean
eps = 1/8, 1/16, 1/32, 1/64
L = 64
n_realizations = 16
"""
    )
    return run_quenched_vs_mean(cfg)


def test_criterion_07_young_measure_dichotomy(qvm_report):
    t0 = time.perf_counter()
    erg_ok = (
        qvm_report.summary["n_clusters"] == 1
        and qvm_report.summary["cluster_diameter"] <= 0.05
    )
    cfg = parse_config(
        """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
period = 1
seed = 21

[study]
kind = nonergodic
eps = 1/16, 1/32, 1/64
L = 1
n_realizations = 16
"""
    )
    rep = run_nonergodic_study(cfg)
    weights = [float(t) for t in rep.summary["weights"].split(",")]
    per_ok = rep.summary["n_clusters"] == 2 and all(0.2 < w < 0.8 for w in weights)
    elapsed = time.perf_counter() - t0
    ok = erg_ok and per_ok and elapsed < 600.0
    report(
        7,
        "Young dichotomy: ergodic k=1 (diam<=0.05), L=1 wrap k=2",
        ok,
        f"diam {qvm_report.summary['cluster_diameter']:.4f}, weights {weights}",
    )


def test_criterion_08_quenched_vs_mean_consistency(qvm_report):
    # bit-exact stacked average + metric contraction at every eps
    per_eps: dict[float, dict[str, dict[int, float]]] = {}
    for seed, eps, j, phi, val in qvm_report.pairing_rows:
        if eps == 0.0:
            continue
        per_eps.setdefault(eps, {}).setdefault(str(seed), {})[j] = val
    exact = bool(per_eps)
    for eps, by_seed in per_eps.items():
        mean_vec = by_seed.pop("mean")
        js = sorted(mean_vec)
        stack = np.stack([[by_seed[s][j] for j in js] for s in sorted(by_seed, key=int)])
        exact &= bool(
            np.array_equal(stack.mean(axis=0), np.array([mean_vec[j] for j in js]))
        )
    _, mean_d = qvm_report.series["distance(mean, limit)"]
    _, max_d = qvm_report.series["max distance(quenched, limit)"]
    contraction = all(m <= M for m, M in zip(mean_d, max_d))
    ok = exact and contraction and qvm_report.summary["mean_contraction_ok"]
    report(
        8,
        "mean pairing bit-exact + distance(mean) <= max quenched",
        ok,
        f"mean dists {[f'{v:.4f}' for v in mean_d]}",
    )


def test_criterion_09_solver_correctness():
    t0 = time.perf_counter()
    # 2D coupled block-spectral CG: three identical realizations under a
    # variance penalty share the linear-CG minimizer of one
    r = sample_realization(CB2, 0)
    mesh = build_mesh(2, 32)
    single = minimize(assemble_energy([r], 1 / 8, mesh, V2, load=1.0), tol=1e-10)
    coupled = minimize(
        assemble_energy([r, r, r], 1 / 8, mesh, V2, load=1.0, delta=0.5), tol=1e-10
    )
    gap = abs(single.energy - coupled.energy)
    # 1D, nonlinear CG (p != 2; monotone decrease asserted inside) and linear
    # CG, against the exact discrete minimum (flux integration)
    m1 = build_mesh(1, 16)
    for p in (1.5, 2.0, 3.0):
        E = assemble_energy([sample_realization(CB1, 0)], 1 / 4, m1, IntegrandSpec(p=p), load=1.0)
        exact = dirichlet_energy(E.coef[0], E.load_values, p, m1.h)
        gap = max(gap, abs(minimize(E, tol=1e-10).energy - exact))
    # h^2 rate to the continuum -1/24, of the computed and the exact discrete energies
    one = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0,), (1.0,)), seed=1)
    errs, exact_errs = [], []
    for n in (16, 32, 64, 128):
        m1 = build_mesh(1, n)
        E = assemble_energy([sample_realization(one, 0)], 1.0, m1, V2, load=1.0)
        exact = dirichlet_energy(E.coef[0], E.load_values, 2.0, m1.h)
        res = minimize(E, tol=1e-13)
        gap = max(gap, abs(res.energy - exact))
        errs.append(res.energy - (-1.0 / 24.0))
        exact_errs.append(exact - (-1.0 / 24.0))
    rates = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    exact_rates = np.log2(np.asarray(exact_errs[:-1]) / np.asarray(exact_errs[1:]))
    second_order = np.all(np.abs(rates - 2.0) < 0.1) and np.all(np.abs(exact_rates - 2.0) < 0.1)
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-8 and bool(second_order)
    report(
        9,
        "coupled == single CG and exact 1D minima to 1e-8, monotone energy, h^2 convergence",
        ok,
        f"|gap| {gap:.1e}, rates {[f'{x:.2f}' for x in rates]}, {elapsed:.0f}s",
    )


def test_criterion_10_reproducibility(tmp_path):
    from homoglab.cli import main as cli_main

    cfg_text = """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
seed = 21

[study]
kind = sweep
eps = 1/8, 1/16
L = 32
n_realizations = 4

[dictionary]
max_entries = 8
"""
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg_text)
    blobs = []
    for k in (1, 2, 8):
        out = tmp_path / f"w{k}"
        code = cli_main(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", str(k)]
        )
        assert code == 0
        blobs.append((out / "report.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(10, "report.csv byte-identical at 1/2/8 workers", ok, f"{len(blobs[0])} bytes")
