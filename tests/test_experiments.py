"""Studies, CSV/SVG outputs, CLI behavior, reproducibility."""

import csv
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from homoglab import experiments
from homoglab.cli import main as cli_main
from homoglab.config import ConfigError, parse_config
from homoglab.experiments import (
    run_cell_table,
    run_homogenization_sweep,
    run_nonergodic_study,
    run_quenched_vs_mean,
    run_regularization_diagram,
    run_solve,
    run_study,
    write_outputs,
)
from homoglab.reporting import CELL_HEADER, REPORT_HEADER

SWEEP_SMALL = """
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

CONST_SWEEP = """
[ensemble]
dimension = 1
values = 2
probs = 1
seed = 1

[study]
kind = sweep
eps = 1/8, 1/16, 1/32
L = 4
n_realizations = 3

[dictionary]
max_entries = 8
"""

QVM_SMALL = """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
seed = 21

[study]
eps = 1/8, 1/16
L = 16
n_realizations = 4

[dictionary]
max_entries = 8
"""

NONERGODIC_SMALL = """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
period = 1
seed = 21

[study]
eps = 1/16, 1/32
L = 1
n_realizations = 6
"""

DIAGRAM_SMALL = """
[ensemble]
dimension = 1
values = 1
probs = 1
seed = 21

[integrand]
form = degenerate-weighted
lambda_values = 0.05, 1
lambda_probs = 0.5, 0.5

[study]
kind = diagram
eps = 1/8
delta = 0.2, 0.05
L = 16
n_realizations = 2
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSweep:
    def test_constant_medium_gap_is_discretization_only(self):
        cfg = parse_config(CONST_SWEEP)
        rep = run_homogenization_sweep(cfg)
        # all realizations identical: per-eps rows agree exactly
        for eps in cfg.eps_list:
            gaps = [r.energy_gap for r in rep.rows if r.eps == eps]
            assert max(gaps) - min(gaps) == 0.0
            # gap is bounded by the P1 energy defect h^2/(24 c) of the run mesh
            h = 1.0 / cfg.mesh_n(eps)
            assert max(gaps) <= h * h / (24.0 * 2.0) * 1.5 + 1e-12

    def test_rows_and_rates_present(self):
        rep = run_homogenization_sweep(parse_config(SWEEP_SMALL))
        assert len(rep.rows) == 2 * 4
        assert any(q == "median_energy_gap" for _, q, _, _ in rep.rate_rows)
        assert "median energy gap" in rep.series

    def test_refuses_unresolved_mesh(self):
        cfg = parse_config(SWEEP_SMALL + "\n[solver]\nh_over_eps = 2\n")
        with pytest.raises(ConfigError):
            run_homogenization_sweep(cfg)
        with pytest.warns(UserWarning):
            run_homogenization_sweep(cfg, force=True)  # override runs


class TestDiagram:
    def test_constant_weight_collapses_paths(self):
        # lambda = 1: the regularization is inert, both routes meet the
        # classical value; eps_min chosen so run and reference meshes match
        cfg = parse_config(
            """
[ensemble]
dimension = 1
values = 2
probs = 1
seed = 3

[integrand]
form = degenerate-weighted
lambda_values = 1
lambda_probs = 1

[study]
kind = diagram
eps = 1/8, 1/32
delta = 0.2, 0.05
L = 4
n_realizations = 2

[solver]
fine_n = 256
"""
        )
        rep = run_regularization_diagram(cfg)
        assert rep.summary["disagreement"] <= 1e-6 + cfg.tol
        assert rep.summary["c_monotone"]

    def test_monotone_cell_values_in_delta(self):
        cfg = parse_config(
            """
[ensemble]
dimension = 1
values = 1
probs = 1
seed = 21

[integrand]
form = degenerate-weighted
lambda_values = 0.05, 1
lambda_probs = 0.5, 0.5

[study]
kind = diagram
eps = 1/8
delta = 0.2, 0.05, 0.0125
L = 64
n_realizations = 4
"""
        )
        rep = run_regularization_diagram(cfg)
        assert rep.summary["c_monotone"]
        assert rep.summary["moment"] > 0
        # finite-eps corners: energy ordering min E_{eps,delta} >= min E_{eps,0}
        for eps in cfg.eps_list:
            vals = {r.delta: r.min_energy for r in rep.rows if r.eps == eps and r.seed == "mean"}
            assert all(vals[d] >= vals[0.0] - 1e-12 for d in cfg.delta_list)

    def test_needs_delta_list(self):
        with pytest.raises(ConfigError):
            run_regularization_diagram(parse_config(SWEEP_SMALL))

    def test_cli_exit_two_when_paths_disagree(self, tmp_path, capsys):
        cfgp = tmp_path / "diagram.ini"
        cfgp.write_text(DIAGRAM_SMALL + "tol_diagram = 1e-12\n")
        assert cli_main(["diagram", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert "tol_diagram" in capsys.readouterr().err
        assert "paths_agree = False" in (tmp_path / "o" / "summary.txt").read_text()
        cfgp.write_text(DIAGRAM_SMALL + "tol_diagram = 0.5\n")
        assert cli_main(["diagram", "--config", str(cfgp), "--out", str(tmp_path / "p")]) == 0
        assert "paths_agree = True" in (tmp_path / "p" / "summary.txt").read_text()


class TestNonergodic:
    def test_two_values_split_into_two_clusters(self):
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
        assert rep.summary["n_clusters"] == 2
        assert rep.summary["n_clusters_limit"] == 2
        w = [float(t) for t in rep.summary["weights"].split(",")]
        assert all(0.2 < x < 0.8 for x in w)

    def test_equal_values_collapse_to_one_cluster(self):
        cfg = parse_config(
            """
[ensemble]
dimension = 1
values = 2, 2
probs = 0.5, 0.5
period = 1
seed = 4

[study]
kind = nonergodic
eps = 1/16, 1/32, 1/64
L = 1
n_realizations = 8
"""
        )
        rep = run_nonergodic_study(cfg)
        assert rep.summary["n_clusters"] == 1

    def test_period_two_counts_cell_multisets(self):
        # distinct multisets of the 2 fundamental cells <-> harmonic means {1, 1.6, 4}
        cfg = parse_config(
            """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
period = 2
seed = 3

[study]
kind = nonergodic
eps = 1/32, 1/64
L = 2
n_realizations = 16
linkage_tol = 0.005

[solver]
n_per_cell = 64
"""
        )
        rep = run_nonergodic_study(cfg)
        cs = sorted(
            round(-1.0 / (24.0 * r.min_energy), 3) for r in rep.rows if r.eps == 0.0
        )
        expected = len(set(cs))
        assert set(cs) <= {1.0, 1.6, 4.0}
        assert rep.summary["n_clusters_limit"] == expected

    def test_requires_periodized_ensemble(self):
        with pytest.raises(ConfigError):
            run_nonergodic_study(parse_config(SWEEP_SMALL))


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
n_realizations = 8

[dictionary]
max_entries = 16
"""
    )
    return run_quenched_vs_mean(cfg)


class TestQuenchedVsMean:
    def test_single_cluster_matches_limit(self, qvm_report):
        assert qvm_report.summary["n_clusters"] == 1
        assert qvm_report.summary["cluster_diameter"] <= 0.05
        assert qvm_report.summary["barycenter_to_limit"] <= 0.01

    def test_mean_distance_below_max_quenched(self, qvm_report):
        assert qvm_report.summary["mean_contraction_ok"]
        _, mean_d = qvm_report.series["distance(mean, limit)"]
        _, max_d = qvm_report.series["max distance(quenched, limit)"]
        assert all(m <= M for m, M in zip(mean_d, max_d))

    def test_mean_row_is_average_of_quenched_rows(self, qvm_report):
        # bit-exact: the recorded mean pairing is the stacked realization
        # average, reproduced here with the same reduction
        per_eps: dict[float, dict[str, dict[int, float]]] = {}
        for seed, eps, j, phi, val in qvm_report.pairing_rows:
            if eps == 0.0:
                continue
            per_eps.setdefault(eps, {}).setdefault(str(seed), {})[j] = val
        assert per_eps
        for eps, by_seed in per_eps.items():
            mean_vec = by_seed.pop("mean")
            order = sorted(by_seed, key=int)
            js = sorted(mean_vec)
            stack = np.stack([[by_seed[s][j] for j in js] for s in order])
            recomputed = stack.mean(axis=0)
            assert np.array_equal(recomputed, np.array([mean_vec[j] for j in js]))

    def test_rejects_periodized_ensemble(self):
        cfg = parse_config(
            "[ensemble]\nperiod = 1\n\n[study]\nkind = quenched-vs-mean\n"
        )
        with pytest.raises(ConfigError):
            run_quenched_vs_mean(cfg)


class TestOutputsAndCLI:
    def test_report_csv_byte_identical_across_threads(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SWEEP_SMALL)
        outs = {}
        for k in (1, 2):
            out = tmp_path / f"t{k}"
            assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", str(k)]) == 0
            outs[k] = (out / "report.csv").read_bytes()
        assert outs[1] == outs[2]

    def test_solve_cell_csv_identical_across_threads(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SWEEP_SMALL)
        tables = []
        for k in (1, 2):
            out = tmp_path / f"t{k}"
            assert cli_main(["solve", "--config", str(cfg_path), "--out", str(out), "--threads", str(k)]) == 0
            rows = read_rows(out / "cell.csv")
            keep = [i for i, col in enumerate(rows[0]) if col != "wall_ms"]
            tables.append([[row[i] for i in keep] for row in rows])
        assert len(tables[0]) > 1
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "command, config, files",
        [
            ("quenched-vs-mean", QVM_SMALL, ("report.csv", "pairings.csv", "young.csv", "summary.txt")),
            # a nonergodic study writes no pairings.csv
            ("nonergodic", NONERGODIC_SMALL, ("report.csv", "young.csv", "summary.txt")),
        ],
        ids=["quenched-vs-mean", "nonergodic"],
    )
    def test_pool_studies_identical_across_threads(self, tmp_path, command, config, files):
        # the limit tasks run in the pool beside the quenched tasks
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(config)
        runs = []
        for k in (1, 2):
            out = tmp_path / f"t{k}"
            assert cli_main([command, "--config", str(cfg_path), "--out", str(out), "--threads", str(k)]) == 0
            rows = read_rows(out / "timings.csv")
            keep = [i for i, col in enumerate(rows[0]) if col != "wall_ms"]
            timings = [[row[i] for i in keep] for row in rows]
            runs.append(([(out / name).read_bytes() for name in files], timings))
        assert len(runs[0][1]) > 1
        assert runs[0] == runs[1]

    def test_rerun_is_byte_identical_and_svg_structural(self, tmp_path):
        cfg = parse_config(SWEEP_SMALL)
        rep1 = run_study(cfg)
        rep2 = run_study(cfg)
        p1 = write_outputs(rep1, cfg, str(tmp_path / "a"))
        p2 = write_outputs(rep2, cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()
        svg1 = [p for p in p1 if p.endswith(".svg")]
        svg2 = [p for p in p2 if p.endswith(".svg")]
        assert svg1 and svg2
        t1, t2 = ET.parse(svg1[0]).getroot(), ET.parse(svg2[0]).getroot()

        def strip(e):
            return (e.tag, sorted(e.attrib.items()), [strip(c) for c in e])

        assert strip(t1) == strip(t2)

    def test_report_schema(self, tmp_path):
        cfg = parse_config(SWEEP_SMALL)
        write_outputs(run_study(cfg), cfg, str(tmp_path))
        rows = read_rows(tmp_path / "report.csv")
        assert rows[0] == REPORT_HEADER
        assert (tmp_path / "config.resolved").exists()
        assert not os.path.exists(tmp_path / "wall_ms")  # no timing columns inside
        assert "wall" not in ",".join(rows[0])

    def test_cell_and_solve_schema(self, tmp_path):
        cfg = parse_config(
            "[ensemble]\nvalues = 1, 4\nprobs = 0.5, 0.5\nseed = 21\n"
            "\n[study]\nkind = cell\nL = 4, 8\nn_realizations = 2\neps = 1/8\n"
        )
        rep = run_cell_table(cfg)
        write_outputs(rep, cfg, str(tmp_path / "cell"))
        rows = read_rows(tmp_path / "cell" / "cell.csv")
        assert rows[0] == CELL_HEADER
        assert len(rows) == 1 + 2  # one row per L
        rep2 = run_solve(parse_config(SWEEP_SMALL))
        write_outputs(rep2, parse_config(SWEEP_SMALL), str(tmp_path / "solve"))
        rows2 = read_rows(tmp_path / "solve" / "cell.csv")
        assert rows2[0] == CELL_HEADER

    def test_solve_kind_writes_the_solved_delta(self, tmp_path):
        # solve minimizes the unregularized energy whatever the delta list says
        cfg = parse_config(SWEEP_SMALL.replace("kind = sweep", "kind = solve\ndelta = 0.2"))
        rep = run_study(cfg)
        assert rep.kind == "solve"
        write_outputs(rep, cfg, str(tmp_path))
        rows = read_rows(tmp_path / "cell.csv")
        col = rows[0].index("delta")
        assert len(rows) == 1 + len(cfg.eps_list) * cfg.n_realizations
        assert all(float(row[col]) == 0.0 for row in rows[1:])

    def test_cell_plot_emitted_only_with_multiple_L(self, tmp_path):
        cfg = parse_config(
            "[ensemble]\nvalues = 1, 4\nprobs = 0.5, 0.5\n"
            "\n[study]\nkind = cell\nL = 4\nn_realizations = 1\n"
        )
        paths = write_outputs(run_cell_table(cfg), cfg, str(tmp_path))
        assert not any(p.endswith(".svg") for p in paths)

    def test_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[study]\nkind = wat\n")
        assert cli_main(["sweep", "--config", str(bad)]) == 1
        assert cli_main(["sweep", "--config", str(tmp_path / "missing.ini")]) == 3
        coarse = tmp_path / "coarse.ini"
        coarse.write_text(SWEEP_SMALL + "\n[solver]\nh_over_eps = 2\n")
        assert cli_main(["sweep", "--config", str(coarse), "--out", str(tmp_path / "x")]) == 1

    def test_cli_runs_young_on_periodized(self, tmp_path):
        cfgp = tmp_path / "noe.ini"
        cfgp.write_text(
            "[ensemble]\nvalues = 1, 4\nprobs = 0.5, 0.5\nperiod = 1\nseed = 21\n"
            "\n[study]\nkind = nonergodic\neps = 1/16, 1/32\nL = 1\nn_realizations = 8\n"
        )
        out = tmp_path / "young"
        assert cli_main(["nonergodic", "--config", str(cfgp), "--out", str(out)]) == 0
        rows = read_rows(out / "young.csv")
        assert rows[0] == ["cluster", "weight", "diameter", "entry_j", "barycenter_value"]
        clusters = {r[0] for r in rows[1:]}
        assert len(clusters) == 2

    def test_pairings_csv_written(self, tmp_path):
        cfgp = tmp_path / "pair.ini"
        cfgp.write_text(
            "[ensemble]\nvalues = 1, 4\nprobs = 0.5, 0.5\nseed = 21\n"
            "\n[study]\nkind = quenched-vs-mean\neps = 1/8, 1/16\nL = 16\nn_realizations = 2\n"
            "\n[dictionary]\nmax_entries = 8\n"
        )
        out = tmp_path / "pair"
        assert cli_main(["quenched-vs-mean", "--config", str(cfgp), "--out", str(out)]) == 0
        rows = read_rows(out / "pairings.csv")
        assert rows[0] == ["seed", "eps", "j", "phi_id", "value"]
        assert len(rows) > 10

    def test_subcommand_sets_kind_before_defaults(self, tmp_path):
        # the study-kind defaults (linkage_tol) follow the subcommand, not "sweep"
        cfgp = tmp_path / "nokind.ini"
        cfgp.write_text(
            "[ensemble]\nvalues = 1, 4\nprobs = 0.5, 0.5\nseed = 21\n"
            "\n[study]\neps = 1/8\nL = 2\nn_realizations = 2\n"
            "\n[dictionary]\nmax_entries = 4\n"
        )
        out = tmp_path / "qvm"
        assert cli_main(["quenched-vs-mean", "--config", str(cfgp), "--out", str(out)]) == 0
        resolved = (out / "config.resolved").read_text()
        assert "kind = quenched-vs-mean\n" in resolved
        assert "linkage_tol = 0.05\n" in resolved

    def test_period_conflicting_with_L_is_a_config_error(self, tmp_path, capsys):
        cfgp = tmp_path / "conflict.ini"
        cfgp.write_text("[ensemble]\nperiod = 4\n\n[study]\nkind = cell\nL = 8\n")
        assert cli_main(["cell", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_import_does_not_load_scipy(self):
        import homoglab

        src = os.path.dirname(os.path.dirname(os.path.abspath(homoglab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, homoglab, homoglab.cli, homoglab.experiments\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_pool_never_larger_than_task_count(self, monkeypatch):
        import homoglab.experiments as exp_mod

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(exp_mod, "ProcessPoolExecutor", RecordingPool)
        assert exp_mod._pmap([(abs, -1), (abs, -2)], 64) == [1, 2]
        assert exp_mod._pmap([(abs, -3)], 64) == [3]
        assert exp_mod._pmap([(abs, -4), (abs, -5), (abs, -6)], 2) == [4, 5, 6]
        assert sizes == [2, 2]  # the one-task call ran serially


# 2D configs whose inner products are long enough for a threaded BLAS to
# split them (interior dofs > 10^4 on the sweep mesh, 10^4 elements in the cell)
_BLAS_SWEEP = """
[ensemble]
dimension = 2
values = 1, 4
probs = 0.5, 0.5
seed = 21

[study]
eps = 1/16
L = 4
n_realizations = 2

[solver]
h_over_eps = 8

[dictionary]
max_entries = 4
"""

_BLAS_CELL = """
[ensemble]
dimension = 2
values = 1, 4
probs = 0.5, 0.5
seed = 21

[integrand]
p = 1.5

[study]
L = 9
n_realizations = 1
F = 1, 0
"""

# variance-coupled p = 2 solves of 32 stacked realizations
_BLAS_DIAGRAM = """
[ensemble]
dimension = 1
values = 1
probs = 1
seed = 21

[integrand]
form = degenerate-weighted
p = 2
lambda_values = 0.05, 1
lambda_probs = 0.5, 0.5

[study]
eps = 1/16
delta = 0.2, 0.05, 0.0125
L = 16
n_realizations = 32
"""


class TestBlasThreadIndependence:
    @pytest.mark.parametrize(
        "command, config, table",
        [
            ("sweep", _BLAS_SWEEP, "report.csv"),
            ("cell", _BLAS_CELL, "cell.csv"),
            ("diagram", _BLAS_DIAGRAM, "report.csv"),
        ],
        ids=["sweep", "cell", "diagram"],
    )
    def test_outputs_identical_for_one_and_two_blas_threads(
        self, tmp_path, command, config, table
    ):
        import homoglab

        src = os.path.dirname(os.path.dirname(os.path.abspath(homoglab.__file__)))
        cfgp = tmp_path / "study.ini"
        cfgp.write_text(config)
        tables = []
        for n in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                OPENBLAS_NUM_THREADS=n,
                OMP_NUM_THREADS=n,
            )
            out = tmp_path / f"blas{n}"
            args = ["-m", "homoglab.cli", command, "--config", str(cfgp), "--out", str(out)]
            subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
            rows = read_rows(out / table)
            keep = [i for i, col in enumerate(rows[0]) if col != "wall_ms"]
            tables.append([[row[i] for i in keep] for row in rows])
        assert len(tables[0]) > 1
        assert tables[0] == tables[1]


class TestSpecExamples2D:
    def test_sweep_gap_shrinks_from_eps16_to_eps64(self):
        # Dykhne reference coefficient ~2.0; median gap shrinks across a
        # 4-fold eps refinement (N=8 seeds)
        cfg = parse_config(
            """
[ensemble]
dimension = 2
values = 1, 4
probs = 0.5, 0.5
seed = 21

[study]
kind = sweep
eps = 1/16, 1/64
L = 16
n_realizations = 8

[dictionary]
max_entries = 8
"""
        )
        rep = run_homogenization_sweep(cfg, threads=2)
        assert abs(rep.summary["c_hom"] - 2.0) < 0.15
        _, gaps = rep.series["median energy gap"]
        assert gaps[1] < gaps[0]


class TestSidecars:
    def test_realizations_logged(self, tmp_path):
        cfg = parse_config(SWEEP_SMALL)
        write_outputs(run_study(cfg), cfg, str(tmp_path))
        rows = read_rows(tmp_path / "realizations.csv")
        assert rows[0] == ["index", "seed", "offset", "period"]
        assert len(rows) == 1 + cfg.n_realizations

    def test_growth_constants_in_summary(self, tmp_path):
        cfg = parse_config(SWEEP_SMALL)
        write_outputs(run_study(cfg), cfg, str(tmp_path))
        text = (tmp_path / "summary.txt").read_text()
        assert "growth_c_high" in text and "satisfies_p_growth" in text

    def test_mean_trajectory_cauchy_bounded(self, qvm_report):
        assert qvm_report.summary["mean_cauchy_ok"]
        assert (
            qvm_report.summary["mean_cauchy_defect"]
            <= qvm_report.summary["max_cauchy_defect"]
        )

    def test_svg_ticks_at_powers_of_two(self, tmp_path):
        cfg = parse_config(SWEEP_SMALL)
        paths = write_outputs(run_study(cfg), cfg, str(tmp_path))
        svg = next(p for p in paths if p.endswith(".svg"))
        text = open(svg).read()
        assert "2^-" in text  # log ticks labeled as powers of two
        assert f"config={cfg.config_hash}" in text

    def test_cli_exit_two_on_nonconvergence(self, tmp_path):
        cfgp = tmp_path / "hard.ini"
        cfgp.write_text(SWEEP_SMALL + "\n[solver]\nmax_iter = 1\ntol = 1e-14\n")
        code = cli_main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_exit_two_when_a_pool_task_fails(self, tmp_path, threads):
        # the load overflows the norm of every right-hand side, so every limit
        # and quenched solve stops at once, not converged, in-process or in a
        # worker
        cfgp = tmp_path / "overflow.ini"
        cfgp.write_text(
            NONERGODIC_SMALL.replace("[study]\n", "[study]\nload = 1e300\n")
            + "\n[solver]\nmax_iter = 20\n"
        )
        args = ["nonergodic", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        assert cli_main(args + ["--threads", str(threads)]) == 2

    def test_overflowing_load_reports_nonconvergence(self, tmp_path):
        # without an iteration cap the linear CG stops on the non-finite norm
        # instead of running out its budget, and the outputs are written
        cfgp = tmp_path / "overflow.ini"
        cfgp.write_text(NONERGODIC_SMALL.replace("[study]\n", "[study]\nload = 1e300\n"))
        out = tmp_path / "o"
        assert cli_main(["nonergodic", "--config", str(cfgp), "--out", str(out)]) == 2
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_exit_two_when_a_task_raises(self, tmp_path, monkeypatch, threads):
        # a solver failure inside a task, in-process or in a (forked) worker
        def failing(*args, **kwargs):
            raise FloatingPointError("energy evaluated to a non-finite value")

        monkeypatch.setattr(experiments, "minimize", failing)
        cfgp = tmp_path / "small.ini"
        cfgp.write_text(NONERGODIC_SMALL)
        args = ["nonergodic", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        assert cli_main(args + ["--threads", str(threads)]) == 2
        assert not (tmp_path / "o" / "report.csv").exists()

    def test_cli_exit_two_on_nonconverged_cell_problems(self, tmp_path):
        # cell tables solve only cell problems; [solver] max_iter caps them too
        cfgp = tmp_path / "cell.ini"
        cfgp.write_text(
            "[ensemble]\nvalues = 1, 4\nprobs = 0.5, 0.5\nseed = 21\n"
            "\n[integrand]\np = 1.5\n"
            "\n[study]\nkind = cell\nL = 2\nn_realizations = 2\n"
            "\n[solver]\nn_per_cell = 4\nmax_iter = 1\n"
        )
        out = tmp_path / "o"
        assert cli_main(["cell", "--config", str(cfgp), "--out", str(out)]) == 2
        rows = read_rows(out / "cell.csv")
        assert int(rows[1][rows[0].index("iters")]) <= 2
