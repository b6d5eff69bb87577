"""Config parsing, defaults, validation, resolved echo."""

import pytest

from homoglab.config import ConfigError, parse_config
from homoglab.medium import DiscreteValues, UniformValues

FULL = """
[ensemble]
dimension = 2
distribution = discrete
values = 1, 4
probs = 0.5, 0.5
shift_sampling = true
seed = 21

[integrand]
form = weighted-p-dirichlet
p = 2

[study]
kind = sweep
eps = 1/8, 1/16
delta = 0.2, 0.05
L = 8, 16
n_realizations = 4
load = 1.0
out = runs/demo

[solver]
tol = 1e-9
n_per_cell = 8

[dictionary]
probe_radius = 1
cosine_degree = 2
max_entries = 16
"""


class TestParsing:
    def test_full_document(self):
        cfg = parse_config(FULL)
        assert cfg.ensemble.dimension == 2
        assert isinstance(cfg.ensemble.cells, DiscreteValues)
        assert cfg.eps_list == (1 / 8, 1 / 16)
        assert cfg.delta_list == (0.2, 0.05)
        assert cfg.L_list == (8, 16)
        assert cfg.tol == 1e-9
        assert cfg.seed == 21

    def test_fraction_values(self):
        cfg = parse_config("[study]\neps = 1/64\n")
        assert cfg.eps_list == (1 / 64,)

    def test_defaults_fill_in(self):
        cfg = parse_config("")
        assert cfg.ensemble.dimension == 1
        assert cfg.integrand.p == 2.0
        assert cfg.fine_n == 256
        assert cfg.tol == 1e-8  # p = 2 default
        assert cfg.F_grid == ((1.0,),)

    def test_ptwo_vs_general_tolerance_default(self):
        cfg = parse_config("[integrand]\np = 3\n")
        assert cfg.tol == 1e-6

    def test_uniform_distribution(self):
        cfg = parse_config("[ensemble]\ndistribution = uniform\nlo = 0.0\nhi = 2.0\n")
        assert isinstance(cfg.ensemble.cells, UniformValues)

    def test_degenerate_lambda_block(self):
        cfg = parse_config(
            "[integrand]\nform = degenerate-weighted\n"
            "lambda_values = 0.05, 1\nlambda_probs = 0.5, 0.5\n"
        )
        assert cfg.integrand.degenerate
        assert cfg.integrand.lambda_cells.cells.values == (0.05, 1.0)

    def test_F_vectors(self):
        cfg = parse_config("[ensemble]\ndimension = 2\n\n[study]\nF = 1, 0; 0, 1\n")
        assert cfg.F_grid == ((1.0, 0.0), (0.0, 1.0))

    def test_resolved_echo_contains_defaults(self):
        cfg = parse_config(FULL)
        assert "[solver]" in cfg.resolved_text
        assert "h_over_eps" in cfg.resolved_text
        assert "mc_samples" in cfg.resolved_text
        assert len(cfg.config_hash) == 16

    def test_resolved_echo_is_stable(self):
        assert parse_config(FULL).resolved_text == parse_config(FULL).resolved_text


class TestValidation:
    @pytest.mark.parametrize(
        "text",
        [
            "[study]\nkind = frobnicate\n",
            "[mystery]\nx = 1\n",
            "[study]\nspeed = 9\n",
            "[ensemble]\ndimension = 3\n",
            "[ensemble]\nvalues = 1, -4\n",
            "[ensemble]\ndistribution = zipf\n",
            "[study]\neps = 0\n",
            "[study]\nn_realizations = 0\n",
            "[study]\nkind = diagram\ndelta = 0.5\nn_realizations = 1\n",
            "[study]\nL = 0\n",
            "[study]\nkind = solve\neps =\n",
            "[study]\nkind = pair\n",
            "[study]\nkind = young\n",
            "[ensemble]\nperiod = 4\n\n[study]\nL = 8, 4\n",
            "[solver]\nrve_bc = dirichlet\n",
            "[integrand]\nform = degenerate-weighted\n",
            "[ensemble]\ndimension = 2\n\n[study]\nF = 1\n",
            "[study]\neps = nan\n",
            "[study]\neps = 1/8, inf\n",
            "[study]\nload = nan\n",
            "[solver]\ntol = nan\n",
            "[solver]\ntol = -1\n",
            "[solver]\nn_per_cell = 2\n",
            "[solver]\nmax_iter = 0\n",
            "[solver]\nfine_n = 1\n",
            "[dictionary]\ncosine_degree = -1\n",
            "[dictionary]\nprobe_radius = -1\n",
            "[dictionary]\nmax_entries = 0\n",
            "[dictionary]\nmc_samples = -1\n",
            "[study]\nL = 2.7\n",
            "[study]\nkind = cell\nL = 4, 8.5\n",
            "[study]\nkind = diagram\ndelta = 0.1, 0\n",
            "[study]\nkind = diagram\ndelta = 0.2, 0.05, 0.2\n",
            "[study]\nkind = cell\ndelta = 0, 0.1, 0\n",
            "[study]\neps = 1/8, 0.125\n",
            "[study]\nL = 8, 4, 8\n",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)
