"""Workload definitions: study configs, process counts and expected call counts.

Each workload is a study config template filled with the workload seed
(`[ensemble] seed`).  NOTES.md gives the reason for each choice.  The
`smoke` workloads exist for selftest.py and are not part of BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # INI text with a {seed} placeholder
    processes: int  # worker processes passed to run_study
    pin_blas: bool  # set OPENBLAS/OMP_NUM_THREADS=1 for the program
    # traced call counts that must hold at the pinned seed 21
    expected_calls: dict[str, int] = field(default_factory=dict)

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)


PINNED_SEED = 21

_SWEEP2D = """
[ensemble]
dimension = 2
values = 1, 4
probs = 0.5, 0.5
seed = {seed}

[study]
kind = sweep
eps = 1/8, 1/32
L = 12
n_realizations = 8

[solver]
h_over_eps = 6

[dictionary]
max_entries = 8
"""

_DIAGRAM1D = """
[ensemble]
dimension = 1
values = 1
probs = 1
seed = {seed}

[integrand]
form = degenerate-weighted
p = 2
lambda_distribution = discrete
lambda_values = 0.05, 1
lambda_probs = 0.5, 0.5

[study]
kind = diagram
eps = 1/16, 1/32
delta = 0.2, 0.05, 0.0125
L = 64
n_realizations = 16

[solver]
h_over_eps = 4
"""

_QVM2D = """
[ensemble]
dimension = 2
values = 1, 4
probs = 0.5, 0.5
seed = {seed}

[study]
kind = quenched-vs-mean
eps = 1/8, 1/16, 1/32
L = 8
n_realizations = 16

[solver]
h_over_eps = 4
"""

_CELL2D = """
[ensemble]
dimension = 2
values = 1, 4
probs = 0.5, 0.5
seed = {seed}

[integrand]
p = 1.5

[study]
kind = cell
L = 9
n_realizations = 4
F = 1, 0; 1, 1
"""

_SMOKE = """
[ensemble]
dimension = 1
values = 1, 4
probs = 0.5, 0.5
seed = {seed}

[study]
kind = sweep
eps = 1/8, 1/16
L = 32
n_realizations = 4

[dictionary]
max_entries = 8
"""

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep2d",
            _SWEEP2D,
            processes=2,
            pin_blas=True,
            # 2 eps x 8 realizations + 1 homogenized solve; 2 directions x 8
            expected_calls={
                "solver.minimize": 17,
                "solver.cell_problem": 16,
                "twoscale.quenched_pairing": 16,
            },
        ),
        Workload(
            "diagram1d",
            _DIAGRAM1D,
            processes=1,
            pin_blas=False,
            # 2 eps x 4 deltas + 4 homogenized corners + 1 extrapolated;
            # 4 deltas x 16 realizations
            expected_calls={"solver.minimize": 13, "solver.cell_problem": 64},
        ),
        Workload(
            "qvm2d",
            _QVM2D,
            processes=2,
            pin_blas=True,
            # 3 eps x 16 realizations (+1 homogenized solve); the 32 corrector
            # cell problems are solved twice (sample_correctors and the
            # reference coefficient)
            expected_calls={
                "solver.minimize": 49,
                "solver.cell_problem": 64,
                "twoscale.quenched_pairing": 48,
            },
        ),
        Workload(
            "cell2d",
            _CELL2D,
            processes=1,
            pin_blas=False,
            # 2 F x 4 realizations
            expected_calls={"solver.minimize": 0, "solver.cell_problem": 8},
        ),
        Workload("smoke", _SMOKE, processes=1, pin_blas=True),
        # same settings as test_cli_exit_two_on_nonconvergence
        Workload(
            "smoke-nonconv",
            _SMOKE + "\n[solver]\nmax_iter = 1\ntol = 1e-14\n",
            processes=1,
            pin_blas=True,
        ),
        # h_over_eps below 4 makes run_study raise ConfigError
        Workload("smoke-raise", _SMOKE + "\n[solver]\nh_over_eps = 2\n", processes=1, pin_blas=True),
    )
}

BENCH_WORKLOADS = ("sweep2d", "diagram1d", "qvm2d", "cell2d")
