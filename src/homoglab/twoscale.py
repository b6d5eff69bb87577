"""Two-scale convergence diagnostics.

Builds countable test dictionaries phi(omega, x) = phi_Omega(omega) phi_Q(x)
(lattice observables times tensor cosines), evaluates quenched and mean
pairings of discrete fields against them, measures distances in the
truncated weighted metric on pairing vectors, checks the unfolding isometry
empirically, and clusters per-realization pairing trajectories into an
empirical Young measure.

The tensor cosines phi_Q at a mesh's barycenters are tabulated once per
mesh (`Mesh.tabulate`), so every pairing on a shared mesh reuses them.  A
pairing evaluates the field once per distinct probe set and derives every
observable on those probes (the value and the indicators) from that one
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .medium import (
    DiscreteValues,
    EnsembleSpec,
    ObservableSpec,
    Realization,
    birkhoff_average,
    eval_coefficient,
    observable_abs_moment,
    observable_expectation,
)
from .meshing import DiscreteField, Mesh, _dot

__all__ = [
    "Dictionary",
    "PairingVector",
    "YoungMeasureReport",
    "ClusterSummary",
    "IsometryReport",
    "FieldRecipe",
    "CorrectorSet",
    "build_dictionary",
    "quenched_pairing",
    "mean_pairing",
    "limit_pairing",
    "sample_correctors",
    "metric_distance",
    "unfold_isometry_check",
    "empirical_young_measure",
]


def cosine_eval(k: tuple[int, ...], pts: np.ndarray) -> np.ndarray:
    """Tensor cosine prod_i cos(pi k_i x_i); k = 0 is the constant 1."""
    out = np.ones(pts.shape[:-1])
    for axis, ka in enumerate(k):
        if ka > 0:
            out = out * np.cos(np.pi * ka * pts[..., axis])
    return out


def _cosine_table(mesh: Mesh, k: tuple[int, ...]) -> np.ndarray:
    """The tensor cosine k at the mesh's barycenters, tabulated once per mesh."""
    return mesh.tabulate(("cosine", k), lambda m: cosine_eval(k, m.barycenters))


def cosine_lq_norm(k: tuple[int, ...], q: float) -> float:
    """L^q(0,1)^d norm of the tensor cosine (closed form via the Beta integral)."""
    # int_0^1 |cos(pi k t)|^q dt = Gamma((q+1)/2) / (sqrt(pi) Gamma(q/2 + 1)), k >= 1
    c = math.gamma((q + 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(q / 2.0 + 1.0))
    m = sum(1 for ka in k if ka > 0)
    return c ** (m / q)


@dataclass(frozen=True)
class DictEntry:
    obs: ObservableSpec
    cos_k: tuple[int, ...]
    norm: float
    phi_id: str


@dataclass
class Dictionary:
    """Ordered, normalized test dictionary (the enumeration fixes the metric)."""

    entries: list[DictEntry]
    p: float
    q: float
    ensemble: EnsembleSpec

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def norms(self) -> np.ndarray:
        return np.asarray([e.norm for e in self.entries])

    @property
    def phi_ids(self) -> tuple[str, ...]:
        return tuple(e.phi_id for e in self.entries)


def _probe_points(dimension: int, radius: int) -> list[tuple[int, ...]]:
    """Lattice points with sup-norm < radius, ordered by (|z|_inf, lex)."""
    if radius <= 0:
        return []
    rng = range(-(radius - 1), radius)
    if dimension == 1:
        pts = [(z,) for z in rng]
    else:
        pts = [(a, b) for a in rng for b in rng]
    return sorted(pts, key=lambda z: (max(abs(c) for c in z), z))


def _cosine_modes(dimension: int, degree: int) -> list[tuple[int, ...]]:
    if dimension == 1:
        modes = [(k,) for k in range(degree + 1)]
    else:
        modes = [(a, b) for a in range(degree + 1) for b in range(degree + 1)]
    return sorted(modes, key=lambda k: (sum(k), k))


def build_dictionary(
    ensemble: EnsembleSpec,
    max_probe_radius: int,
    max_cosine_degree: int,
    p: float,
    mc_samples: int = 10_000,
    max_entries: int | None = None,
) -> Dictionary:
    """Enumerate normalized products phi_Omega * phi_Q in a fixed diagonal order.

    phi_Omega: the identity first, then per lattice probe the cell value and
    (for discrete ensembles) the indicators of each value.  phi_Q: the
    constant first, then tensor cosines ordered by total degree.  The first
    entry is always the constant test function.
    """
    if max_probe_radius < 0 or max_cosine_degree < 0:
        raise ValueError("probe radius and cosine degree must be >= 0")
    d = ensemble.dimension
    q = p / (p - 1.0)
    observables: list[ObservableSpec] = [ObservableSpec.identity(d)]
    for z in _probe_points(d, max_probe_radius):
        observables.append(ObservableSpec.value_at(z))
        if isinstance(ensemble.cells, DiscreteValues):
            for v in ensemble.cells.values:
                observables.append(ObservableSpec.indicator_at(z, v))
    modes = _cosine_modes(d, max_cosine_degree)
    obs_norms = [
        observable_abs_moment(o, ensemble, q, mc_samples) ** (1.0 / q) for o in observables
    ]
    entries: list[DictEntry] = []
    for s in range(len(observables) + len(modes) - 1):
        for i in range(min(s, len(observables) - 1) + 1):
            j = s - i
            if j >= len(modes):
                continue
            obs, k = observables[i], modes[j]
            norm = obs_norms[i] * cosine_lq_norm(k, q)
            if norm <= 0 or not np.isfinite(norm):
                raise ValueError(f"degenerate normalization for {obs.name}*cos{k}")
            entries.append(
                DictEntry(obs=obs, cos_k=k, norm=norm, phi_id=f"{obs.name}*cos{k}")
            )
            if max_entries is not None and len(entries) >= max_entries:
                return Dictionary(entries=entries, p=p, q=q, ensemble=ensemble)
    return Dictionary(entries=entries, p=p, q=q, ensemble=ensemble)


@dataclass
class PairingVector:
    """Evaluations of a functional against the dictionary, with scale and norm.

    eps = 0 marks a limit object.  blocks > 1 stacks the function block
    followed by one block per gradient component, all against the same
    dictionary.  Values are raw (unnormalized); the metric divides by the
    recorded normalization constants.
    """

    values: np.ndarray
    eps: float
    norm: float
    tag: str
    dico: Dictionary
    blocks: int = 1
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if self.eps < 0 or self.norm < 0:
            raise ValueError("eps and norm bound must be nonnegative")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("pairing values must be finite")
        if len(self.values) != self.blocks * len(self.dico):
            raise ValueError("value count does not match dictionary and blocks")


def _observable_values(
    observables: Sequence[ObservableSpec], r: Realization, shifts: np.ndarray
) -> dict[str, np.ndarray]:
    """`ObservableSpec.evaluate` of each observable at the shifts, by name,
    with the field evaluated once per distinct probe set."""
    probe_vals: dict[tuple, np.ndarray] = {}
    out: dict[str, np.ndarray] = {}
    for obs in observables:
        if obs.name in out:
            continue
        if not obs.probes:
            out[obs.name] = obs.evaluate(r, shifts)
            continue
        if obs.probes not in probe_vals:
            pts = np.stack([shifts + np.asarray(z, dtype=float) for z in obs.probes])
            probe_vals[obs.probes] = eval_coefficient(r, pts)
        out[obs.name] = obs.g(probe_vals[obs.probes], *obs.g_args)
    return out


def _stacked_norm(blocks: np.ndarray, p: float, vol: np.ndarray) -> float:
    """(sum over the blocks (k, n_elements) of the quadrature of |block|^p)^(1/p)."""
    return float(_dot(np.abs(blocks) ** p, vol).sum()) ** (1.0 / p)


def _field_blocks(u: DiscreteField, include_gradient: bool) -> np.ndarray:
    """Barycenter values, then (with include_gradient) the gradient components: (k, n_elements)."""
    if not include_gradient:
        return u.at_barycenters()[None]
    g = u.gradients()
    blocks = np.empty((1 + g.shape[1], len(g)))  # row-major, as `_dot` reads it fastest
    blocks[0] = u.at_barycenters()
    blocks[1:] = g.T
    return blocks


def quenched_pairing(
    u: DiscreteField,
    r: Realization,
    eps: float,
    dico: Dictionary,
    include_gradient: bool = False,
) -> PairingVector:
    """Pair a field on Q against the dictionary along the fixed realization.

    Entry j is the quadrature of u(x) phi_Omega(tau_{x/eps} omega) phi_Q(x);
    with include_gradient the d gradient component blocks follow.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    mesh = u.mesh
    blocks = _field_blocks(u, include_gradient)
    # each distinct observable times the blocks, then one contraction per
    # entry of that observable against its cosine; the (uniform) element
    # volume comes last
    ovals = _observable_values([e.obs for e in dico.entries], r, mesh.barycenters / eps)
    vals = np.empty((len(blocks), len(dico)))
    for name, ov in ovals.items():
        obs_block = ov * blocks
        for j, e in enumerate(dico.entries):
            if e.obs.name == name:
                vals[:, j] = _dot(obs_block, _cosine_table(mesh, e.cos_k))
    return PairingVector(
        values=(vals * mesh.volumes[0]).ravel(),
        eps=eps,
        norm=_stacked_norm(blocks, dico.p, mesh.volumes),
        tag=f"seed={r.seed}",
        dico=dico,
        blocks=len(blocks),
    )


def mean_pairing(
    fields: Sequence[tuple[Realization, DiscreteField]],
    eps: float,
    dico: Dictionary,
    include_gradient: bool = False,
) -> PairingVector:
    """Arithmetic mean of quenched pairings across the sample."""
    if not fields:
        raise ValueError("need at least one (realization, field) pair")
    mesh0 = fields[0][1].mesh
    if any(f.mesh is not mesh0 and f.mesh.n != mesh0.n for _, f in fields):
        raise ValueError("fields must share one mesh")
    vecs = [quenched_pairing(f, r, eps, dico, include_gradient) for r, f in fields]
    return _average_pairings(vecs, eps)


def _average_pairings(vecs: Sequence[PairingVector], eps: float) -> PairingVector:
    """Entry-wise mean of pairing vectors on one dictionary, with per-entry stderr."""
    stack = np.stack([v.values for v in vecs])
    n = len(vecs)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else None
    return PairingVector(
        values=stack.mean(axis=0),
        eps=eps,
        norm=float(np.mean([v.norm for v in vecs])),
        tag="mean",
        dico=vecs[0].dico,
        blocks=vecs[0].blocks,
        stderr=stderr,
    )


@dataclass
class CorrectorSet:
    """Unit-direction corrector gradients of one realization on its torus."""

    realization: Realization
    mesh: Mesh
    grad_fields: np.ndarray  # (d, n_elements, d)
    converged: bool


def sample_correctors(
    ensemble: EnsembleSpec,
    L: int,
    integrand,
    n_samples: int,
    n_per_cell: int = 8,
    delta: float = 0.0,
    tol: float = 1e-9,
    max_iter: int = 50_000,
) -> list[CorrectorSet]:
    """Solve unit-direction cell problems for n_samples realizations."""
    from .medium import periodize, sample_realization
    from .solver import cell_problem

    out = []
    d = ensemble.dimension
    for s in range(n_samples):
        r = sample_realization(ensemble, s)
        cells = [
            cell_problem(r, L, integrand, np.eye(d)[c], delta, n_per_cell, tol, max_iter)
            for c in range(d)
        ]
        rp = r if r.period is not None else periodize(r, L)
        out.append(
            CorrectorSet(
                realization=rp,
                mesh=cells[0].corrector.mesh,
                grad_fields=np.stack([res.corrector.gradients() for res in cells]),
                converged=all(res.converged for res in cells),
            )
        )
    return out


def _conditional_expectation(obs: ObservableSpec, r: Realization) -> float:
    """Average of the observable over the realization's fundamental torus."""
    L = r.period
    if L is None:
        raise ValueError("conditional expectation needs a periodized realization")
    box = [(0.0, float(L))] * r.dimension
    return birkhoff_average(r, obs, box, eps=1.0) / float(L) ** r.dimension


def limit_pairing(
    u_hom: DiscreteField,
    dico: Dictionary,
    mode: str = "function",
    corrector_sets: Sequence[CorrectorSet] | None = None,
    realizations: Sequence[Realization] | None = None,
    mc_samples: int = 10_000,
) -> PairingVector:
    """Pairing vector of a deterministic limit (eps = 0).

    mode "function": pairs u_hom; the observable expectation is exact for the
    ergodic ensemble, or the per-realization invariant conditional average
    when `realizations` (periodized) are supplied.
    mode "gradient": pairs (u_hom, grad u_hom + corrector); the corrector
    enters through unit-direction cell correctors assumed to combine linearly
    in the macroscopic gradient (exact at p = 2).
    """
    if mode not in ("function", "gradient"):
        raise ValueError(f"unknown limit pairing mode {mode!r}")
    if mode == "gradient" and not corrector_sets:
        raise ValueError("gradient mode needs corrector samples")
    mesh = u_hom.mesh
    blocks = _field_blocks(u_hom, mode == "gradient")
    # distinct observables and cosines
    obs_list: dict[str, ObservableSpec] = {}
    for e in dico.entries:
        obs_list.setdefault(e.obs.name, e.obs)
    exp_obs: dict[str, float] = {}
    for name, obs in obs_list.items():
        if realizations is not None:
            exp_obs[name] = float(
                np.mean([_conditional_expectation(obs, r) for r in realizations])
            )
        else:
            exp_obs[name] = observable_expectation(obs, dico.ensemble, mc_samples)
    # integral of every block against each distinct cosine
    cos_int: dict[tuple[int, ...], np.ndarray] = {}
    for e in dico.entries:
        if e.cos_k not in cos_int:
            cos_int[e.cos_k] = _dot(blocks, _cosine_table(mesh, e.cos_k)) * mesh.volumes[0]
    values = [np.array([exp_obs[e.obs.name] * cos_int[e.cos_k][0] for e in dico.entries])]
    d = mesh.dimension
    if mode == "gradient":
        # kappa[name][c', c] = < corrector-gradient component c for direction c',
        # paired with the observable > , estimated by torus averages
        kappa: dict[str, np.ndarray] = {name: np.zeros((d, d)) for name in obs_list}
        for cs in corrector_sets:
            ovals = _observable_values(list(obs_list.values()), cs.realization, cs.mesh.barycenters)
            for name, ov in ovals.items():
                for cp in range(d):
                    kappa[name][cp] += _dot(ov, cs.grad_fields[cp]) / len(ov)
        for name in kappa:
            kappa[name] /= len(corrector_sets)
        for c in range(d):
            vals = []
            for e in dico.entries:
                grad_int = cos_int[e.cos_k][1:]  # integrals of d_c' u_hom * phi_Q
                fluct = sum(kappa[e.obs.name][cp, c] * grad_int[cp] for cp in range(d))
                vals.append(exp_obs[e.obs.name] * grad_int[c] + fluct)
            values.append(np.asarray(vals))
    return PairingVector(
        values=np.concatenate(values),
        eps=0.0,
        norm=_stacked_norm(blocks, dico.p, mesh.volumes),
        tag="limit",
        dico=dico,
        blocks=len(blocks),
    )


def metric_distance(U: PairingVector, V: PairingVector) -> float:
    """Truncated metric sum_j 2^{-j} t_j/(1+t_j) on normalized entries.

    The truncation error of the untruncated series is below 2^{-J}.  Terms
    are doubles, so a term below the smallest subnormal (2^-1074) is zero:
    entries whose normalized difference t_j lies below about 2^(j - 1074)
    do not separate two vectors, and d is a metric on vectors up to that
    floor.
    """
    if U.blocks != V.blocks or U.dico.phi_ids != V.dico.phi_ids:
        raise ValueError("pairing vectors use different dictionaries")
    norms = np.tile(U.dico.norms, U.blocks)
    t = np.abs(U.values - V.values) / norms
    j = np.arange(1, len(t) + 1)
    return float(np.sum(2.0 ** (-j) * t / (1.0 + t)))


@dataclass(frozen=True)
class FieldRecipe:
    """Closed-form random field u(omega, x) = fn(field values near x/eps, x).

    probes lists the lattice offsets sampled at x/eps; fn maps the stacked
    probe values (k, m) and points (m, d) to field values (m,).  The unfolded
    field freezes the probe argument at the origin offsets.
    """

    probes: tuple[tuple[int, ...], ...]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str


@dataclass(frozen=True)
class IsometryReport:
    norm_original: float
    norm_unfolded: float
    defect_rel: float
    stderr_rel: float
    n_samples: int


def unfold_isometry_check(
    realizations: Sequence[Realization],
    recipe: FieldRecipe,
    eps: float,
    p: float,
    box: Sequence[tuple[float, float]] | None = None,
) -> IsometryReport:
    """Relative defect between the norms of a field and its unfolding.

    Both norms use the same exact cell quadrature and the same realizations,
    so the defect is pure sampling error of the measure-preserving shift.
    """
    from .medium import _clipped_cells

    if eps <= 0:
        raise ValueError("eps must be positive")
    if not realizations:
        raise ValueError("need at least one realization")
    d = realizations[0].dimension
    if box is None:
        box = [(0.0, 1.0)] * d
    sbox = [(lo / eps, hi / eps) for lo, hi in box]
    a_vals = np.empty(len(realizations))
    b_vals = np.empty(len(realizations))
    for i, r in enumerate(realizations):
        offset = np.asarray(r.offset) - np.asarray(r.translation)
        mids, areas = _clipped_cells(sbox, offset)
        x_pts = eps * mids
        if recipe.probes:
            moving = np.stack(
                [eval_coefficient(r, mids + np.asarray(z, float)) for z in recipe.probes]
            )
            frozen_1pt = np.stack(
                [eval_coefficient(r, np.asarray(z, float)[None, :]) for z in recipe.probes]
            )
            frozen = np.broadcast_to(frozen_1pt, moving.shape)
        else:
            moving = frozen = np.zeros((0, mids.shape[0]))
        u_vals = recipe.fn(moving, x_pts)
        t_vals = recipe.fn(frozen, x_pts)
        a_vals[i] = eps**d * _dot(areas, np.abs(u_vals) ** p)
        b_vals[i] = eps**d * _dot(areas, np.abs(t_vals) ** p)
    mean_a, mean_b = float(a_vals.mean()), float(b_vals.mean())
    norm_a, norm_b = mean_a ** (1.0 / p), mean_b ** (1.0 / p)
    defect = abs(norm_a - norm_b) / norm_a if norm_a > 0 else 0.0
    n = len(realizations)
    se_diff = float((a_vals - b_vals).std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    stderr_rel = se_diff / (p * mean_a) if mean_a > 0 else 0.0
    return IsometryReport(
        norm_original=norm_a,
        norm_unfolded=norm_b,
        defect_rel=defect,
        stderr_rel=stderr_rel,
        n_samples=n,
    )


@dataclass
class ClusterSummary:
    weight: float
    barycenter: PairingVector
    diameter: float
    members: tuple[str, ...]


@dataclass
class YoungMeasureReport:
    """Single-linkage clustering of final-scale pairing vectors.

    The cluster weights are the empirical realization fractions; the Cauchy
    defect per trajectory (max metric step between consecutive scales)
    diagnoses non-convergence of the proxy.
    """

    n_clusters: int
    clusters: list[ClusterSummary]
    min_separation: float
    cauchy_defects: dict[str, float]

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(c.weight for c in self.clusters)


def empirical_young_measure(
    trajectories: Mapping[str, Sequence[PairingVector]],
    linkage_tol: float,
) -> YoungMeasureReport:
    """Cluster the final-scale pairing vectors of per-realization trajectories."""
    if not trajectories:
        raise ValueError("no trajectories given")
    keys = sorted(trajectories.keys())
    finals = []
    cauchy = {}
    for key in keys:
        traj = sorted(trajectories[key], key=lambda v: -v.eps)
        if not traj:
            raise ValueError(f"empty trajectory {key!r}")
        finals.append(traj[-1])
        steps = [metric_distance(a, b) for a, b in zip(traj, traj[1:])]
        cauchy[key] = max(steps) if steps else 0.0
    n = len(finals)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = metric_distance(finals[i], finals[j])
    # single linkage at threshold = connected components of the tol graph
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= linkage_tol:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    members_sorted = sorted(groups.values(), key=lambda g: (-len(g), keys[g[0]]))
    clusters = []
    for gi, grp in enumerate(members_sorted):
        vals = np.mean([finals[i].values for i in grp], axis=0)
        bary = PairingVector(
            values=vals,
            eps=float(np.mean([finals[i].eps for i in grp])),
            norm=float(np.mean([finals[i].norm for i in grp])),
            tag=f"cluster{gi}",
            dico=finals[0].dico,
            blocks=finals[0].blocks,
        )
        diam = max((dist[i, j] for i in grp for j in grp), default=0.0)
        clusters.append(
            ClusterSummary(
                weight=len(grp) / n,
                barycenter=bary,
                diameter=float(diam),
                members=tuple(keys[i] for i in grp),
            )
        )
    min_sep = np.inf
    for a in range(len(members_sorted)):
        for b in range(a + 1, len(members_sorted)):
            for i in members_sorted[a]:
                for j in members_sorted[b]:
                    min_sep = min(min_sep, dist[i, j])
    return YoungMeasureReport(
        n_clusters=len(clusters),
        clusters=clusters,
        min_separation=float(min_sep),
        cauchy_defects=cauchy,
    )
