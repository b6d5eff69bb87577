"""Stationary random coefficient fields on the unit lattice.

A realization is a checkerboard-type field: i.i.d. cell values attached to
the integer lattice, shifted by a per-realization offset y that is drawn
uniformly from the unit cell.  Cell values are produced by a counter-based
hash of (seed, cell index), so the infinite lattice never needs storage and
the shift action is exact.  Optionally the lattice index is wrapped modulo a
period L, which freezes the L^d fundamental cells and extends them
periodically (the representative-volume ensemble).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .meshing import _dot

__all__ = [
    "DiscreteValues",
    "UniformValues",
    "EnsembleSpec",
    "Realization",
    "ObservableSpec",
    "sample_realization",
    "eval_coefficient",
    "shift",
    "periodize",
    "birkhoff_average",
    "observable_expectation",
    "observable_abs_moment",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_U_GOLDEN, _U_M1, _U_M2 = np.uint64(_GOLDEN), np.uint64(_M1), np.uint64(_M2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)

# stream tags for deriving independent sub-seeds from one master seed
TAG_REALIZATION = 0x52454132
TAG_OFFSET = 0x4F464653
TAG_LAMBDA = 0x4C414D42
TAG_PROBE = 0x50524F42


def _splitmix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """One SplitMix64 mixing round (vectorized; uint64 arithmetic wraps, unmasked)."""
    with np.errstate(over="ignore"):
        z = x + _U_GOLDEN
        z = (z ^ (z >> _U30)) * _U_M1
        z = (z ^ (z >> _U27)) * _U_M2
        return z ^ (z >> _U31)


def _splitmix64_int(z: int) -> int:
    """`_splitmix64` on one Python int in [0, 2^64)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def _mix(*parts: int | np.ndarray) -> np.ndarray | np.uint64:
    """`mix_seed` without the conversion to int; uint64 array parts broadcast.

    Without an array part the rounds run on Python ints, the same bits as
    the array path without numpy's per-scalar overhead.
    """
    if not any(isinstance(p, np.ndarray) for p in parts):
        h = 0
        for p in parts:
            h = _splitmix64_int(h ^ (int(p) & _MASK64))
        return np.uint64(h)
    h = np.uint64(0)
    for p in parts:
        h = _splitmix64(h ^ (p if isinstance(p, np.ndarray) else np.uint64(p & _MASK64)))
    return h


def mix_seed(*parts: int) -> int:
    """Fold integers into a single 64-bit seed, order-sensitively."""
    return int(_mix(*parts))


def _bits_to_unit(bits: np.ndarray | np.uint64):
    """Map 64 hash bits to a float in [0, 1) with 53-bit resolution."""
    return (bits >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class DiscreteValues:
    """Finite cell-value distribution: values v_k > 0 with probabilities p_k."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be nonempty and equally long")
        if any(v <= 0 for v in self.values):
            raise ValueError("cell values must be positive")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 (tolerance 1e-12)")
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0  # `from_unit`'s table, made once
        object.__setattr__(self, "_table", (cum, np.asarray(self.values)))

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        cum, values = self._table
        return values[np.searchsorted(cum, u, side="right")]

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def abs_moment(self, q: float) -> float:
        return float(np.dot(np.abs(self.values) ** q, self.probs))


@dataclass(frozen=True)
class UniformValues:
    """Continuous cell-value distribution, uniform on (lo, hi].

    Samples never hit lo exactly, so lo = 0 models weights that come
    arbitrarily close to zero without producing a literal zero.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError("uniform cell values need 0 <= lo < hi")

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        return self.hi - u * (self.hi - self.lo)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def abs_moment(self, q: float) -> float:
        lo, hi = self.lo, self.hi
        return (hi ** (q + 1.0) - lo ** (q + 1.0)) / ((q + 1.0) * (hi - lo))


CellDistribution = DiscreteValues | UniformValues


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a stationary checkerboard ensemble.

    period=None is the ergodic i.i.d. ensemble; period=L wraps the lattice
    index modulo L, the stationary nonergodic representative-volume ensemble.
    """

    dimension: int
    cells: CellDistribution
    shift_sampling: bool = True
    period: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.period is not None and self.period < 1:
            raise ValueError("period must be >= 1 when present")


@dataclass(frozen=True)
class Realization:
    """One sampled field: deterministic function of (spec, seed, y, t, period).

    t accumulates translations, so shifted copies evaluate the same lattice
    values at translated points; the group laws hold exactly.
    """

    spec: EnsembleSpec
    seed: int
    offset: tuple[float, ...]
    translation: tuple[float, ...]
    period: int | None

    @property
    def dimension(self) -> int:
        return self.spec.dimension


def sample_realization(spec: EnsembleSpec, index: int) -> Realization:
    """Draw realization `index` of the ensemble (deterministic in spec.seed)."""
    seed = mix_seed(spec.seed, TAG_REALIZATION, index)
    d = spec.dimension
    if spec.shift_sampling:  # `_offsets(seed, d)`, by the scalar path of `_mix`
        y = tuple((int(_mix(seed, TAG_OFFSET, a)) >> 11) * 2.0**-53 for a in range(d))
    else:
        y = (0.0,) * d
    return Realization(spec=spec, seed=seed, offset=y, translation=(0.0,) * d, period=spec.period)


def _offsets(seed: int | np.ndarray, d: int) -> np.ndarray:
    """Lattice offsets y of the realizations with these seeds, (...) -> (..., d)."""
    axes = np.arange(d, dtype=np.uint64)
    return _bits_to_unit(_mix(np.asarray(seed, dtype=np.uint64)[..., None], TAG_OFFSET, axes))


def _cell_values(
    dist: CellDistribution, seed: int | np.ndarray, period: int | None, cells: Sequence[np.ndarray]
) -> np.ndarray:
    """Hash integer cell indices, one array per axis, to values of `dist`.

    `seed` is a realization seed, or a uint64 array of them; it and the
    index arrays broadcast together.
    """
    h = np.asarray(seed, dtype=np.uint64)
    for c in cells:
        if period is not None:
            c = np.mod(c, period)
        h = _splitmix64(h ^ np.asarray(c, dtype=np.int64).view(np.uint64))
    return dist.from_unit(_bits_to_unit(h))


def eval_coefficient(r: Realization, x: Sequence[float] | np.ndarray) -> np.ndarray | float:
    """Value of the field at point(s) x, shape (..., d) -> (...).

    The cell containing x is floor(x + t - y): cells are the translates
    i + y + [0,1)^d of the shifted unit lattice.  When the points' cells
    span a box of no more cells than there are points, each cell of the box
    is hashed once (the period applied to its indices) and the points take
    their values from that table by one flat index.
    """
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    if pts.shape[-1] != r.dimension:
        raise ValueError(f"points must have trailing dimension {r.dimension}")
    if not np.isfinite(pts).all():
        raise ValueError("evaluation points must be finite")
    flat = pts.reshape(-1, r.dimension)
    n = len(flat)
    cells = []
    c = np.empty(n)  # one float buffer for every axis
    for a, (t, y) in enumerate(zip(r.translation, r.offset)):
        np.add(flat[:, a], t, out=c)
        c -= y
        cells.append(np.floor(c, out=c).astype(np.int64))
    del c
    lo = [int(c.min()) for c in cells] if n else []
    extent = [int(c.max()) - l + 1 for c, l in zip(cells, lo)]
    if n and math.prod(extent) <= n:
        # the box's index axes, shaped to broadcast to the (extent) grid
        box = [
            np.arange(l, l + e).reshape((e,) + (1,) * (r.dimension - 1 - a))
            for a, (l, e) in enumerate(zip(lo, extent))
        ]
        table = _cell_values(r.spec.cells, r.seed, r.period, box).ravel()
        index = cells[0]
        index -= lo[0]
        for c, l, e in zip(cells[1:], lo[1:], extent[1:]):
            index *= e
            index += c
            index -= l
        vals = table.take(index)
    else:
        vals = _cell_values(r.spec.cells, r.seed, r.period, cells)
    vals = vals.reshape(pts.shape[:-1])
    return float(vals) if scalar else vals


def shift(r: Realization, x: Sequence[float]) -> Realization:
    """Translate the field: shift(r, v) evaluated at x equals r at x + v."""
    v = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("shift vector must be finite")
    t = tuple(float(a + b) for a, b in zip(r.translation, v))
    return replace(r, translation=t)


def periodize(r: Realization, period: int) -> Realization:
    """Freeze the fundamental cells 0..L-1 per axis and extend periodically.

    The returned field agrees with r on the shifted fundamental domain
    y + [0,L)^d (verbatim on [0,L)^d when y = 0) and is exactly L-periodic.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if r.period is not None:
        raise ValueError("realization is already periodized")
    return replace(r, period=period)


def derived_realization(r: Realization, spec: EnsembleSpec, tag: int) -> Realization:
    """Independent-valued companion field sharing r's offset and translation.

    Used e.g. for the degenerate weight field: same geometry, fresh values.
    """
    return Realization(
        spec=spec,
        seed=mix_seed(r.seed, tag),
        offset=r.offset,
        translation=r.translation,
        period=r.period if spec.period is None else spec.period,
    )


def _g_const(vals: np.ndarray) -> np.ndarray:
    return np.ones(vals.shape[1:])


def _g_value(vals: np.ndarray) -> np.ndarray:
    return vals[0]


def _g_indicator(vals: np.ndarray, target: float) -> np.ndarray:
    near = vals[0] - target
    np.abs(near, out=near)
    np.copyto(near, near < 1e-12)  # 1.0 where vals[0] is the target, else 0.0
    return near


@dataclass(frozen=True)
class ObservableSpec:
    """Local observable g(field at z_1 + s, ..., field at z_k + s).

    probes are lattice points near the origin; g maps the stacked probe
    values (k, ...) to (...) and must stay bounded on the value range.
    Evaluating at shift s realizes the stationary extension: the observable
    of the field translated by s.
    """

    probes: tuple[tuple[int, ...], ...]
    g: Callable[[np.ndarray], np.ndarray]
    name: str
    g_args: tuple = field(default=())

    @staticmethod
    def identity(dimension: int) -> "ObservableSpec":
        return ObservableSpec(probes=(), g=_g_const, name="one")

    @staticmethod
    def value_at(z: tuple[int, ...]) -> "ObservableSpec":
        return ObservableSpec(probes=(tuple(z),), g=_g_value, name=f"val{tuple(z)}")

    @staticmethod
    def indicator_at(z: tuple[int, ...], value: float) -> "ObservableSpec":
        return ObservableSpec(
            probes=(tuple(z),),
            g=_g_indicator,
            name=f"ind{tuple(z)}={value:g}",
            g_args=(value,),
        )

    def evaluate(self, r: Realization, shifts: np.ndarray) -> np.ndarray:
        """Observable of the s-shifted field, vectorized over shifts (..., d)."""
        shifts = np.asarray(shifts, dtype=float)
        if not self.probes:
            return np.ones(shifts.shape[:-1])
        pts = np.stack([shifts + np.asarray(z, dtype=float) for z in self.probes])
        return self.g(eval_coefficient(r, pts), *self.g_args)


def _clipped_cells(box: Sequence[tuple[float, float]], offset: np.ndarray):
    """Exact decomposition of a box into unit-lattice cells shifted by offset.

    Returns (midpoints (m, d), areas (m,)): per-cell intersection midpoints
    and measures; zero-measure slivers are dropped.
    """
    d = len(box)
    axes_mid, axes_len, axes_idx = [], [], []
    for a in range(d):
        lo, hi = box[a]
        i0 = int(np.floor(lo - offset[a]))
        i1 = int(np.ceil(hi - offset[a]))
        idx = np.arange(i0, i1)
        cl = np.maximum(lo, idx + offset[a])
        ch = np.minimum(hi, idx + offset[a] + 1.0)
        keep = ch > cl
        axes_idx.append(idx[keep])
        axes_mid.append(0.5 * (cl[keep] + ch[keep]))
        axes_len.append((ch - cl)[keep])
    grids_mid = np.meshgrid(*axes_mid, indexing="ij")
    grids_len = np.meshgrid(*axes_len, indexing="ij")
    mids = np.stack([g.ravel() for g in grids_mid], axis=-1)
    areas = np.ones(mids.shape[0])
    for g in grids_len:
        areas *= g.ravel()
    return mids, areas


def birkhoff_average(
    r: Realization,
    obs: ObservableSpec,
    box: Sequence[tuple[float, float]],
    eps: float,
) -> float:
    """Integral over the box of the observable of the x/eps-shifted field.

    Midpoint quadrature on the eps-scaled lattice cells intersected with the
    box; exact for piecewise-constant observables.  Converges to
    |box| * <observable> as eps -> 0 in the ergodic case.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = r.dimension
    if len(box) != d:
        raise ValueError("box dimension mismatch")
    # work in s = x/eps coordinates; the field cells sit at i + y - t + unit cell
    sbox = [(lo / eps, hi / eps) for lo, hi in box]
    offset = np.asarray(r.offset) - np.asarray(r.translation)
    mids, areas = _clipped_cells(sbox, offset)
    vals = obs.evaluate(r, mids)
    return float(eps**d * _dot(areas, vals))


def observable_expectation(
    obs: ObservableSpec, spec: EnsembleSpec, mc_samples: int = 10_000
) -> float:
    """Ensemble mean of the observable, exact where enumeration is possible."""
    return _observable_moment(obs, spec, power=1.0, mc_samples=mc_samples)


def observable_abs_moment(
    obs: ObservableSpec, spec: EnsembleSpec, q: float, mc_samples: int = 10_000
) -> float:
    """Ensemble mean of |observable|^q (the q-th absolute moment)."""
    return _observable_moment(obs, spec, power=q, mc_samples=mc_samples, absolute=True)


def _observable_moment(
    obs: ObservableSpec,
    spec: EnsembleSpec,
    power: float,
    mc_samples: int,
    absolute: bool = False,
) -> float:
    if not obs.probes:
        return 1.0
    k = len(obs.probes)
    cells = spec.cells
    if obs.g is _g_value and k == 1:
        # cell values are positive, so the absolute moment is the plain one
        return cells.abs_moment(power)
    if isinstance(cells, DiscreteValues) and len(cells.values) ** k <= 4096:
        # exact enumeration over the product distribution of the probe cells
        grids = np.meshgrid(*([np.asarray(cells.values)] * k), indexing="ij")
        pgrids = np.meshgrid(*([np.asarray(cells.probs)] * k), indexing="ij")
        vals = obs.g(np.stack([g.ravel() for g in grids]), *obs.g_args)
        probs = np.ones(vals.shape)
        for pg in pgrids:
            probs *= pg.ravel()
        body = np.abs(vals) ** power if absolute else vals**power
        return float(np.dot(probs, body))
    # Monte Carlo fallback on hashed uniforms (deterministic in the spec seed)
    bits = _splitmix64(
        np.uint64(mix_seed(spec.seed, TAG_PROBE))
        ^ np.arange(mc_samples * k, dtype=np.uint64)
    )
    draws = cells.from_unit(_bits_to_unit(bits)).reshape(k, mc_samples)
    vals = obs.g(draws, *obs.g_args)
    body = np.abs(vals) ** power if absolute else vals**power
    return float(np.mean(body))
