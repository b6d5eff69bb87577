"""Densities: values, analytic gradients vs finite differences, growth, moments."""

from dataclasses import replace

import numpy as np
import pytest

from homoglab.integrand import (
    FORM_DEGENERATE,
    IntegrandSpec,
    _growth_samples,
    density_gradient,
    evaluate_density,
    moment_estimate,
    verify_growth,
)
from homoglab.medium import (
    DiscreteValues,
    EnsembleSpec,
    UniformValues,
    sample_realization,
)

ONE = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0,), (1.0,)), seed=1)
TWO = EnsembleSpec(dimension=2, cells=DiscreteValues((2.0,), (1.0,)), seed=1)
CB = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=1)
X0 = np.array([0.5, 0.5])


def fd_gradient(spec, r, x, F, h=1e-6):
    out = np.empty_like(F)
    for c in range(len(F)):
        e = np.zeros_like(F)
        e[c] = h
        out[c] = (
            evaluate_density(spec, r, x, F + e) - evaluate_density(spec, r, x, F - e)
        ) / (2 * h)
    return out


class TestDensity:
    def test_weighted_dirichlet_hand_value(self):
        r = sample_realization(TWO, 0)
        assert evaluate_density(IntegrandSpec(p=2.0), r, X0, np.array([1.0, 0.0])) == 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            IntegrandSpec(p=2.0),
            IntegrandSpec(p=1.5),
            IntegrandSpec(p=3.0),
            IntegrandSpec(p=2.0, form=FORM_DEGENERATE, lambda_cells=CB),
        ],
    )
    def test_zero_gradient_gives_zero(self, spec):
        r = sample_realization(CB, 0)
        assert evaluate_density(spec, r, X0, np.zeros(2)) == 0.0

    def test_convexity_probe(self):
        r = sample_realization(CB, 1)
        spec = IntegrandSpec(p=3.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            F, G = rng.normal(size=2), rng.normal(size=2)
            mid = evaluate_density(spec, r, X0, (F + G) / 2)
            assert mid <= 0.5 * evaluate_density(spec, r, X0, F) + 0.5 * evaluate_density(
                spec, r, X0, G
            ) + 1e-14

    def test_p_homogeneity_exact(self):
        r = sample_realization(CB, 2)
        spec = IntegrandSpec(p=2.5)
        F = np.array([0.3, -1.2])
        for t in (2.0, 0.5, 8.0):
            a = evaluate_density(spec, r, X0, t * F)
            b = t**spec.p * evaluate_density(spec, r, X0, F)
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_degenerate_lower_bound_by_construction(self):
        lam = EnsembleSpec(dimension=2, cells=UniformValues(0.0, 1.0), seed=9)
        spec = IntegrandSpec(p=2.0, form=FORM_DEGENERATE, lambda_cells=lam)
        r = sample_realization(ONE, 3)
        rng = np.random.default_rng(1)
        from homoglab.integrand import lambda_field
        from homoglab.medium import eval_coefficient

        pts = rng.uniform(0, 1, size=(200, 2))
        Fs = rng.normal(size=(200, 2))
        vals = evaluate_density(spec, r, pts, Fs)
        lam_vals = eval_coefficient(lambda_field(spec, r), pts)
        lower = lam_vals * np.linalg.norm(Fs, axis=-1) ** 2 / 2
        assert np.all(vals >= lower - 1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegrandSpec(p=5.0)
        with pytest.raises(ValueError):
            IntegrandSpec(p=3.0, form="two-phase-quadratic")
        with pytest.raises(ValueError):
            IntegrandSpec(p=2.0, form="two-phase-quadratic")
        with pytest.raises(ValueError):
            IntegrandSpec(p=2.0, form=FORM_DEGENERATE)


class TestGradient:
    def test_quadratic_identity(self):
        r = sample_realization(ONE, 0)
        g = density_gradient(IntegrandSpec(p=2.0), r, X0, np.array([3.0, 4.0]))
        assert np.allclose(g, [3.0, 4.0], atol=1e-14)

    def test_zero_at_origin_all_p(self):
        r = sample_realization(CB, 0)
        for p in (1.5, 2.0, 3.0):
            g = density_gradient(IntegrandSpec(p=p), r, X0, np.zeros(2))
            assert np.all(g == 0.0)

    def test_cubic_hand_value_and_fd(self):
        r = sample_realization(TWO, 0)
        spec = IntegrandSpec(p=3.0)
        F = np.array([1.0, 0.0])
        g = density_gradient(spec, r, X0, F)
        assert np.allclose(g, [2.0, 0.0], atol=1e-12)
        assert np.allclose(g, fd_gradient(spec, r, X0, F), rtol=1e-6)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 4.0])
    def test_matches_finite_differences_in_bulk(self, p):
        # rel err <= 1e-6 away from the origin (|F| >= 1e-3)
        spec = IntegrandSpec(p=p)
        r = sample_realization(CB, 5)
        rng = np.random.default_rng(int(10 * p))
        for _ in range(250):
            x = rng.uniform(0, 1, size=2)
            F = rng.normal(size=2)
            F *= max(np.linalg.norm(F), 1e-3) / np.linalg.norm(F)
            g = density_gradient(spec, r, x, F)
            fd = fd_gradient(spec, r, x, F)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


def _growth_by_loop(spec, ensemble, n):
    """verify_growth's (c_low, c_high), one realization and density call per sample."""
    x, mag, F, idx = _growth_samples(ensemble, n)
    vals = np.empty(n)
    for i in range(n):
        r = sample_realization(ensemble, int(idx[i]))
        vals[i] = evaluate_density(spec, r, x[i : i + 1], F[i : i + 1])[0]
    t = mag**spec.p / spec.p
    return (
        float(np.max(0.5 * (-vals + np.sqrt(vals**2 + 4.0 * t)))),
        float(np.max(vals / (t + 1.0))),
    )


_LAM2 = EnsembleSpec(dimension=2, cells=UniformValues(0.0, 1.0), seed=2)
_GROWTH_CASES = {
    "1d": (IntegrandSpec(p=2.0), replace(CB, dimension=1)),
    "2d-unshifted": (IntegrandSpec(p=1.5), replace(CB, shift_sampling=False)),
    "2d-degenerate": (IntegrandSpec(p=3.0, form=FORM_DEGENERATE, lambda_cells=_LAM2), CB),
    "1d-periodic-degenerate": (
        IntegrandSpec(
            p=2.0,
            form=FORM_DEGENERATE,
            lambda_cells=EnsembleSpec(dimension=1, cells=DiscreteValues((0.05, 1.0), (0.5, 0.5))),
        ),
        EnsembleSpec(dimension=1, cells=UniformValues(0.5, 2.0), period=2, seed=4),
    ),
    "2d-periodic-degenerate": (
        IntegrandSpec(p=2.5, form=FORM_DEGENERATE, lambda_cells=replace(_LAM2, period=3)),
        EnsembleSpec(dimension=2, cells=UniformValues(0.1, 3.0), period=4, seed=3),
    ),
}


class TestGrowth:
    @pytest.mark.parametrize("case", list(_GROWTH_CASES))
    def test_matches_per_sample_loop(self, case):
        # one large draw, and single draws whose constants are one sample's
        spec, ensemble = _GROWTH_CASES[case]
        for n, seed in [(2000, ensemble.seed)] + [(1, s) for s in range(30)]:
            ens = replace(ensemble, seed=seed)
            rep = verify_growth(spec, ens, n)
            assert (rep.c_low, rep.c_high) == _growth_by_loop(spec, ens, n)

    @pytest.mark.parametrize("d", [1, 2])
    def test_samples_cover_their_ranges(self, d):
        # the loop above shares the sampler, so check the samples themselves
        x, mag, F, idx = _growth_samples(replace(CB, dimension=d), 4000)
        assert x.shape == (4000, d) and np.all((x >= 0) & (x < 1))
        assert np.all((mag >= 1e-2) & (mag <= 1e2))
        assert abs(np.mean(np.log10(mag))) < 0.1  # log-uniform: mean exponent 0
        assert np.allclose(np.linalg.norm(F, axis=-1), mag, rtol=1e-15)
        assert abs(np.mean(F[:, 0] / mag)) < 0.05  # no preferred direction
        assert idx.dtype == np.uint64 and idx.max() < 2**31 and len(set(idx.tolist())) == 4000

    def test_unit_coefficient_constants_near_one(self):
        rep = verify_growth(IntegrandSpec(p=2.0), ONE, 2000)
        assert rep.c_low == pytest.approx(1.0, abs=5e-3)
        assert rep.c_high == pytest.approx(1.0, abs=5e-3)
        assert rep.satisfies_growth and rep.passed

    def test_two_phase_upper_constant(self):
        rep = verify_growth(IntegrandSpec(p=2.0), CB, 2000)
        assert rep.c_high >= 4.0 / 2.0

    def test_degenerate_flagged(self):
        lam = EnsembleSpec(dimension=2, cells=UniformValues(0.0, 1.0), seed=2)
        spec = IntegrandSpec(p=2.0, form=FORM_DEGENERATE, lambda_cells=lam)
        rep = verify_growth(spec, ONE, 500)
        assert not rep.satisfies_growth and not rep.passed

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            verify_growth(IntegrandSpec(p=2.0), ONE, 0)


class TestMoments:
    def test_constant_weight_exact(self):
        lam = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0,), (1.0,)), seed=5)
        est = moment_estimate(lam, 2.0, 100)
        assert est.value == 1.0 and not est.diverging

    def test_uniform_band_closed_form(self):
        # <1/lambda> for lambda ~ U[1/e, 1] is 1/(1 - 1/e)
        lam = EnsembleSpec(dimension=1, cells=UniformValues(np.exp(-1.0), 1.0), seed=5)
        est = moment_estimate(lam, 2.0, 100_000)
        assert est.value == pytest.approx(1.0 / (1.0 - np.exp(-1.0)), abs=0.01)
        assert not est.diverging

    def test_divergent_weight_flagged(self):
        lam = EnsembleSpec(dimension=1, cells=UniformValues(0.0, 1.0), seed=5)
        assert moment_estimate(lam, 2.0, 20_000).diverging

    def test_validation(self):
        lam = EnsembleSpec(dimension=1, cells=UniformValues(0.0, 1.0), seed=5)
        with pytest.raises(ValueError):
            moment_estimate(lam, 1.0, 100)
        with pytest.raises(ValueError):
            moment_estimate(lam, 2.0, 0)
