"""Random medium: determinism, group laws, periodization, averaging."""

import numpy as np
import pytest
from scipy import stats

from homoglab.medium import (
    TAG_REALIZATION,
    _cell_values,
    _mix,
    _offsets,
    _splitmix64,
    _splitmix64_int,
    DiscreteValues,
    EnsembleSpec,
    ObservableSpec,
    UniformValues,
    birkhoff_average,
    eval_coefficient,
    observable_abs_moment,
    observable_expectation,
    periodize,
    sample_realization,
    shift,
)

CB2 = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=42)
CB1 = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=42)
UNIT_BOX2 = [(0.0, 1.0), (0.0, 1.0)]


def rand_points(n, d, lo=-5.0, hi=5.0, seed=0):
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, d))


class TestSampling:
    def test_same_index_bitwise_identical(self):
        r1 = sample_realization(CB2, 0)
        r2 = sample_realization(CB2, 0)
        pts = rand_points(1000, 2)
        assert np.array_equal(eval_coefficient(r1, pts), eval_coefficient(r2, pts))

    def test_different_indices_differ(self):
        r1 = sample_realization(CB2, 0)
        r2 = sample_realization(CB2, 1)
        pts = rand_points(200, 2)
        assert not np.array_equal(eval_coefficient(r1, pts), eval_coefficient(r2, pts))

    def test_offset_in_unit_cell(self):
        r = sample_realization(CB2, 3)
        assert all(0.0 <= y < 1.0 for y in r.offset)
        r0 = sample_realization(
            EnsembleSpec(dimension=2, cells=CB2.cells, shift_sampling=False, seed=1), 0
        )
        assert r0.offset == (0.0, 0.0)

    def test_empirical_mean_binomial_ci(self):
        # 10^4 cells, mean 2.5, sigma 1.5: 3 sigma / 100 band
        r = sample_realization(CB2, 0)
        grid = np.stack(
            np.meshgrid(np.arange(100) + 0.5, np.arange(100) + 0.5, indexing="ij"), axis=-1
        ) + np.asarray(r.offset)
        vals = eval_coefficient(r, grid.reshape(-1, 2))
        assert abs(vals.mean() - 2.5) <= 3.0 * 1.5 / 100.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            DiscreteValues((1.0, -2.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteValues((1.0, 2.0), (0.6, 0.6))
        with pytest.raises(ValueError):
            UniformValues(1.0, 0.5)
        with pytest.raises(ValueError):
            EnsembleSpec(dimension=3, cells=CB2.cells)
        with pytest.raises(ValueError):
            EnsembleSpec(dimension=2, cells=CB2.cells, period=0)


_SEEDS = [0, 2**63 + 7, 2**64 - 1]


class TestScalarHash:
    """`_mix` without an array part runs on Python ints: the same bits as the array path."""

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("scalar", [int, np.int64, np.uint64])
    def test_matches_array_path(self, seed, scalar):
        for part in (0, 5, 2**31 - 1, -3 if scalar is np.int64 else 2**62):
            one = _mix(seed, TAG_REALIZATION, scalar(part))
            arr = _mix(seed, TAG_REALIZATION, np.array([part], dtype=np.int64).view(np.uint64))
            assert isinstance(one, np.uint64) and one == arr[0]
            assert _mix(scalar(part)) == _mix(np.array([part], dtype=np.int64).view(np.uint64))[0]

    def test_round_wraps_like_the_masked_int_round(self):
        # the uint64 round has no mask: its sums and products wrap at 2^64
        out = _splitmix64(np.array(_SEEDS, dtype=np.uint64))
        assert out.dtype == np.uint64
        assert [int(v) for v in out] == [_splitmix64_int(x) for x in _SEEDS]

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_offsets_match_array_path(self, seed, d):
        spec = EnsembleSpec(dimension=d, cells=DiscreteValues((1.0,), (1.0,)), seed=seed)
        for index in (0, 1, 2**31 - 1):
            r = sample_realization(spec, index)
            assert r.seed == int(_mix(seed, TAG_REALIZATION, np.array([index], dtype=np.uint64))[0])
            assert r.offset == tuple(_offsets(np.uint64(r.seed), d).tolist())


class TestShift:
    def test_zero_shift_identity(self):
        r = sample_realization(CB2, 0)
        pts = rand_points(500, 2)
        assert np.array_equal(
            eval_coefficient(shift(r, [0.0, 0.0]), pts), eval_coefficient(r, pts)
        )

    def test_group_composition_exact(self):
        r = sample_realization(CB2, 1)
        a, b = np.array([0.7, -1.3]), np.array([2.1, 0.4])
        left = shift(shift(r, a), b)
        right = shift(r, a + b)
        assert left.translation == right.translation

    def test_inverse_restores_field(self):
        r = sample_realization(CB2, 2)
        pts = rand_points(500, 2)
        back = shift(shift(r, [1.0, 0.0]), [-1.0, 0.0])
        assert np.array_equal(eval_coefficient(back, pts), eval_coefficient(r, pts))

    def test_shift_translates_evaluation(self):
        r = sample_realization(CB2, 3)
        v = np.array([0.37, -2.41])
        pts = rand_points(500, 2)
        assert np.array_equal(
            eval_coefficient(shift(r, v), pts), eval_coefficient(r, pts + v)
        )

    def test_stationarity_under_shift_ks(self):
        # distribution of the origin value is shift invariant (KS at 1%)
        v = np.array([0.613, 1.27])
        origin = np.zeros(2)
        a = np.array(
            [float(eval_coefficient(sample_realization(CB2, i), origin)) for i in range(10_000)]
        )
        b = np.array(
            [
                float(eval_coefficient(shift(sample_realization(CB2, i), v), origin))
                for i in range(10_000)
            ]
        )
        assert stats.ks_2samp(a, b).pvalue >= 0.01


def per_point_coefficient(r, x):
    """The field hashed point by point: each point's cell floor(x + t - y),
    the period applied, through `_cell_values`."""
    pts = np.asarray(x, dtype=float)
    cells = [
        np.floor(pts[..., a] + t - y).astype(np.int64)
        for a, (t, y) in enumerate(zip(r.translation, r.offset))
    ]
    vals = _cell_values(r.spec.cells, r.seed, r.period, cells)
    return float(vals) if pts.ndim == 1 else vals


class TestBoxTable:
    """eval_coefficient's box table against per-point hashing, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("cells", [CB2.cells, UniformValues(0.0, 3.0)])
    def test_matches_per_point_hashing(self, d, cells):
        ens = EnsembleSpec(dimension=d, cells=cells, seed=9)
        rng = np.random.default_rng(d)
        for i in range(3):
            r = sample_realization(ens, i)
            for field in (r, shift(r, rng.normal(size=d) * 3), periodize(r, 3), periodize(r, 1)):
                for pts in (
                    rand_points(2000, d, -2.0, 9.0, seed=i),  # a box table
                    rand_points(10, d, -60.0, 60.0, seed=i),  # per point: box larger than n
                    rand_points(600, d, 0.0, 4.0, seed=i).reshape(20, 30, d),
                    rand_points(1, d, seed=i)[0],
                    np.zeros((0, d)),
                ):
                    got, want = eval_coefficient(field, pts), per_point_coefficient(field, pts)
                    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
                    assert isinstance(got, float) == (pts.ndim == 1)


class TestPeriodize:
    def test_agrees_on_fundamental_cell_when_unshifted(self):
        ens = EnsembleSpec(dimension=2, cells=CB2.cells, shift_sampling=False, seed=5)
        r = sample_realization(ens, 0)
        rp = periodize(r, 2)
        pts = rand_points(100, 2, lo=0.0, hi=2.0, seed=3)
        assert np.array_equal(eval_coefficient(rp, pts), eval_coefficient(r, pts))

    def test_agrees_on_shifted_fundamental_domain(self):
        r = sample_realization(CB2, 4)
        rp = periodize(r, 3)
        pts = rand_points(100, 2, lo=0.0, hi=3.0, seed=4) + np.asarray(r.offset)
        assert np.array_equal(eval_coefficient(rp, pts), eval_coefficient(r, pts))

    def test_exact_periodicity_thousand_probes(self):
        r = periodize(sample_realization(CB2, 5), 2)
        pts = rand_points(1000, 2, seed=7)
        rng = np.random.default_rng(8)
        z = rng.integers(-3, 4, size=(1000, 2))
        assert np.array_equal(eval_coefficient(r, pts), eval_coefficient(r, pts + 2.0 * z))

    def test_period_one_freezes_single_cell(self):
        r = periodize(sample_realization(CB2, 6), 1)
        pts = rand_points(300, 2, seed=9)
        vals = eval_coefficient(r, pts)
        assert np.all(vals == vals[0])

    def test_average_over_period_is_cell_mean(self):
        ens = EnsembleSpec(dimension=2, cells=CB2.cells, shift_sampling=False, seed=11)
        rp = periodize(sample_realization(ens, 0), 2)
        cells = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        cell_mean = eval_coefficient(rp, cells).mean()
        avg = birkhoff_average(rp, ObservableSpec.value_at((0, 0)), [(0, 2), (0, 2)], 1.0)
        assert avg / 4.0 == pytest.approx(cell_mean, abs=1e-12)

    def test_rejects_bad_period_and_double_wrap(self):
        r = sample_realization(CB2, 0)
        with pytest.raises(ValueError):
            periodize(r, 0)
        with pytest.raises(ValueError):
            periodize(periodize(r, 2), 2)


class TestBirkhoff:
    def test_constant_observable_gives_volume(self):
        r = sample_realization(CB2, 0)
        for eps in (1.0, 1 / 3, 1 / 16):
            v = birkhoff_average(r, ObservableSpec.identity(2), UNIT_BOX2, eps)
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_value_observable_clt_band(self):
        # eps = 1/64: error bound sqrt(Var/N), N = 64^2, Var = 2.25
        r = sample_realization(CB2, 1)
        v = birkhoff_average(r, ObservableSpec.value_at((0, 0)), UNIT_BOX2, 1 / 64)
        assert abs(v - 2.5) <= 0.15

    def test_ergodic_error_band_over_eps(self):
        obs = ObservableSpec.value_at((0, 0))
        var = 2.25
        for eps in (1 / 16, 1 / 64, 1 / 256):
            errs = []
            for i in range(4):
                r = sample_realization(CB2, 100 + i)
                errs.append(abs(birkhoff_average(r, obs, UNIT_BOX2, eps) - 2.5))
            assert max(errs) <= 4.0 * np.sqrt(var * eps**2 * 1.0)

    def test_periodized_is_constant_in_eps(self):
        r = periodize(sample_realization(CB2, 2), 1)
        obs = ObservableSpec.value_at((0, 0))
        vals = [birkhoff_average(r, obs, UNIT_BOX2, eps) for eps in (1.0, 0.5, 0.125)]
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
        assert vals[0] == pytest.approx(vals[2], abs=1e-12)

    def test_nonergodic_average_sticks_to_cell_mean(self):
        # the L=1 wrap converges to the frozen cell value, not the ensemble mean
        obs = ObservableSpec.value_at((0, 0))
        hit_gap = False
        for i in range(8):
            r = periodize(sample_realization(CB2, 300 + i), 1)
            frozen = float(eval_coefficient(r, np.zeros(2)))
            avg = birkhoff_average(r, obs, UNIT_BOX2, 1 / 32)
            assert avg == pytest.approx(frozen, abs=1e-12)
            hit_gap |= abs(frozen - 2.5) > 1.0
        assert hit_gap  # at least one realization sits away from the mean


class TestObservables:
    def test_identity_requires_no_probes(self):
        obs = ObservableSpec.identity(2)
        r = sample_realization(CB2, 0)
        out = obs.evaluate(r, rand_points(10, 2))
        assert np.all(out == 1.0)

    def test_exact_expectation_discrete(self):
        obs = ObservableSpec.value_at((0, 0))
        assert observable_expectation(obs, CB2) == pytest.approx(2.5, abs=1e-14)
        assert observable_abs_moment(obs, CB2, 2.0) == pytest.approx(8.5, abs=1e-14)

    def test_indicator_expectation(self):
        obs = ObservableSpec.indicator_at((1, 0), 4.0)
        assert observable_expectation(obs, CB2) == pytest.approx(0.5, abs=1e-14)

    def test_uniform_moment_closed_form(self):
        ens = EnsembleSpec(dimension=1, cells=UniformValues(0.0, 1.0), seed=3)
        obs = ObservableSpec.value_at((0,))
        assert observable_expectation(obs, ens) == pytest.approx(0.5, abs=1e-14)
        assert observable_abs_moment(obs, ens, 2.0) == pytest.approx(1 / 3, abs=1e-14)
