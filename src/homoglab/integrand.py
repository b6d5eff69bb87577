"""Convex densities with p-growth or degenerate weighted growth.

All supported forms are weighted p-th powers of the gradient norm,
V = (w/p) |F|^p, where the weight w combines the random coefficient field
and an optional independent degenerate weight field.  This keeps the
gradient w |F|^{p-2} F analytic and makes p = 2 the standard quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medium import (
    TAG_LAMBDA,
    TAG_REALIZATION,
    EnsembleSpec,
    Realization,
    _bits_to_unit,
    _cell_values,
    _mix,
    _offsets,
    derived_realization,
    eval_coefficient,
    mix_seed,
)

__all__ = [
    "IntegrandSpec",
    "GrowthReport",
    "MomentEstimate",
    "evaluate_density",
    "density_gradient",
    "verify_growth",
    "moment_estimate",
    "FORM_P_DIRICHLET",
    "FORM_DEGENERATE",
]

FORM_P_DIRICHLET = "weighted-p-dirichlet"
FORM_DEGENERATE = "degenerate-weighted"
_FORMS = (FORM_P_DIRICHLET, FORM_DEGENERATE)


@dataclass(frozen=True)
class IntegrandSpec:
    """Convex density (w/p)|F|^p with weight w = a * [lambda].

    The a-field comes from the realization passed at evaluation time; the
    degenerate weight field (form degenerate-weighted) is an independent
    companion field derived deterministically from that realization's seed.
    """

    p: float
    form: str = FORM_P_DIRICHLET
    lambda_cells: EnsembleSpec | None = None

    def __post_init__(self):
        if not (1.5 <= self.p <= 4.0):
            raise ValueError("exponent p must lie in [1.5, 4]")
        if self.form not in _FORMS:
            raise ValueError(f"unknown integrand form {self.form!r}")
        if self.form == FORM_DEGENERATE and self.lambda_cells is None:
            raise ValueError("degenerate-weighted form needs a lambda ensemble")

    @property
    def degenerate(self) -> bool:
        return self.form == FORM_DEGENERATE


def lambda_field(spec: IntegrandSpec, r: Realization) -> Realization:
    """The degenerate weight realization paired with the a-field realization."""
    if spec.lambda_cells is None:
        raise ValueError("integrand has no lambda ensemble")
    return derived_realization(r, spec.lambda_cells, TAG_LAMBDA)


def combined_weight(spec: IntegrandSpec, r: Realization, x: np.ndarray) -> np.ndarray:
    """Pointwise weight w(x) so that V = (w/p)|F|^p, shape (..., d) -> (...)."""
    w = np.asarray(eval_coefficient(r, x), dtype=float)
    if spec.degenerate:
        w = w * eval_coefficient(lambda_field(spec, r), x)
    return w


def _norm_powers(g: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """|g|^2 and |g|^(p-2) over the last (length-d) axis, the power 0 where g = 0."""
    sq = g[..., 0] * g[..., 0]
    s = np.empty(sq.shape)
    if g.shape[-1] == 2:
        sq += np.multiply(g[..., 1], g[..., 1], out=s)
    with np.errstate(divide="ignore"):  # 0 to a negative power, zeroed next
        np.power(sq, 0.5 * p - 1.0, out=s)
    s[sq == 0] = 0.0
    return sq, s


def _scaled(s: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """s[..., None] * g, one component at a time (a length-d inner loop is slow);
    `out` may be g itself."""
    if out is None:
        out = np.empty(g.shape)
    for a in range(g.shape[-1]):
        np.multiply(s, g[..., a], out=out[..., a])
    return out


def _density(w: np.ndarray, F: np.ndarray, p: float) -> np.ndarray:
    """(w/p) |F|^p, formed as the solver's objective forms it: w |F|^(p-2) |F|^2 / p."""
    sq, s = _norm_powers(F, p)
    return (w * s) * sq / p


def evaluate_density(
    spec: IntegrandSpec, r: Realization, x: np.ndarray, F: np.ndarray
) -> np.ndarray | float:
    """Density value(s) at macroscopic point(s) x and gradient(s) F."""
    F = np.asarray(F, dtype=float)
    out = _density(combined_weight(spec, r, x), F, spec.p)
    return float(out) if F.ndim == 1 else out


def density_gradient(
    spec: IntegrandSpec, r: Realization, x: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """dV/dF = w |F|^{p-2} F, with the minimal-norm subgradient 0 at F = 0."""
    F = np.asarray(F, dtype=float)
    _, s = _norm_powers(F, spec.p)
    return _scaled(combined_weight(spec, r, x) * s, F)


@dataclass(frozen=True)
class GrowthReport:
    """Tightest empirical constants for the two-sided p-growth bound.

    Bounds are against the p-normalized template
        (1/C)(|F|^p / p) - C <= V <= C (|F|^p / p + 1).
    satisfies_growth is False for degenerate-weighted integrands regardless of
    the sampled constants: weights near zero break the uniform lower bound.
    """

    c_low: float
    c_high: float
    n_samples: int
    bound: float
    passed: bool
    satisfies_growth: bool


# stream tags of the sampled diagnostics
_TAG_GROWTH = 0x47524F57
_TAG_MOMENT = 0x4D4F4D54


def _hashed_unit(seed: int, stream: int, n: int) -> np.ndarray:
    """n uniforms in [0, 1) from the counter hash, one stream per quantity."""
    return _bits_to_unit(_mix(seed, stream, np.arange(n, dtype=np.uint64)))


def _growth_samples(
    ensemble: EnsembleSpec, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (x, |F|, F, realization index) samples of `verify_growth`.

    x is uniform on the unit cell, |F| log-uniform in [1e-2, 1e2], the
    direction of F uniform on the circle (2D) or +-1 (1D), the realization
    index uniform in [0, 2^31); every quantity is its own hash stream.
    """
    seed = mix_seed(ensemble.seed, _TAG_GROWTH)
    d = ensemble.dimension
    x = _hashed_unit(seed, 0, n * d).reshape(n, d)
    lo, hi = math.log(1e-2), math.log(1e2)
    mag = np.exp(lo + (hi - lo) * _hashed_unit(seed, 1, n))
    u = _hashed_unit(seed, 2, n)
    if d == 1:
        dirs = np.where(u < 0.5, 1.0, -1.0)[:, None]
    else:
        dirs = np.stack([np.cos(2.0 * math.pi * u), np.sin(2.0 * math.pi * u)], axis=-1)
    idx = _mix(seed, 3, np.arange(n, dtype=np.uint64)) >> np.uint64(33)
    return x, mag, mag[:, None] * dirs, idx


def verify_growth(
    spec: IntegrandSpec, ensemble: EnsembleSpec, n: int, bound: float = 100.0
) -> GrowthReport:
    """Sample (realization, x, F) triples and fit the growth constants.

    The samples come from the counter hash (`_growth_samples`): |F| is
    log-uniform in [1e-2, 1e2], directions uniform on the sphere.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    d = ensemble.dimension
    x, mag, F, idx = _growth_samples(ensemble, n)

    # evaluate_density(spec, sample_realization(ensemble, idx[i]), x[i], F[i])
    # for every i at once: the same seeds, offsets and cell hashes, vectorized
    seeds = _mix(ensemble.seed, TAG_REALIZATION, idx)
    y = _offsets(seeds, d) if ensemble.shift_sampling else 0.0
    cells = np.floor(x - y).astype(np.int64).T
    w = _cell_values(ensemble.cells, seeds, ensemble.period, cells)
    if spec.degenerate:
        lam = spec.lambda_cells
        period = ensemble.period if lam.period is None else lam.period
        w = w * _cell_values(lam.cells, _mix(seeds, TAG_LAMBDA), period, cells)
    vals = _density(w, F, spec.p)

    t = mag**spec.p / spec.p
    c_high = float(np.max(vals / (t + 1.0)))
    # smallest C with (1/C) t - C <= V, per sample: positive root of C^2 + V C - t
    c_low = float(np.max(0.5 * (-vals + np.sqrt(vals**2 + 4.0 * t))))
    ok = not spec.degenerate
    return GrowthReport(
        c_low=c_low,
        c_high=c_high,
        n_samples=n,
        bound=bound,
        passed=ok and c_low <= bound and c_high <= bound,
        satisfies_growth=ok,
    )


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate of <lambda^{-1/(p-1)}>^{p-1} with stability flag."""

    value: float
    stderr: float
    n_samples: int
    diverging: bool


def moment_estimate(lam_ensemble: EnsembleSpec, p: float, n: int) -> MomentEstimate:
    """Estimate the inverse-moment condition constant for a weight ensemble.

    The divergence flag is a diagnostic, not a proof: it fires when the
    running estimate moves more than 10% over the last doubling of n.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if n < 1:
        raise ValueError("need at least one sample")
    lam = lam_ensemble.cells.from_unit(_hashed_unit(lam_ensemble.seed, _TAG_MOMENT, n))
    z = lam ** (-1.0 / (p - 1.0))
    m = float(np.mean(z))
    value = m ** (p - 1.0)
    # delta method for the outer power
    sd = float(np.std(z, ddof=1)) / np.sqrt(n) if n > 1 else np.inf
    stderr = abs((p - 1.0) * m ** (p - 2.0)) * sd
    # scan the last three doublings: a heavy tail keeps kicking the mean around
    diverging = False
    prev = None
    for k in (8, 4, 2, 1):
        if n // k < 2:
            continue
        est = float(np.mean(z[: n // k])) ** (p - 1.0)
        if prev is not None and abs(est - prev) > 0.10 * abs(est):
            diverging = True
        prev = est
    return MomentEstimate(value=value, stderr=stderr, n_samples=n, diverging=diverging)
