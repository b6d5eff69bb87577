"""Uniform P1 meshes on boxes and constrained nodal fields.

d = 1: intervals; d = 2: squares split along the main diagonal into two
triangles.  Gradients are piecewise constant; quadrature is one point per
element (the barycenter).  Two constraint kinds are supported: zero trace on
the boundary, and periodic identification of opposite faces with zero nodal
mean (the corrector space of the cell problems).  No connectivity is stored:
every operator is a stencil on the nodal grid, node ix + (n+1) iy being its
row-major [iy, ix] entry.  Elements are numbered per square (interval),
row-major; a square's lower triangle (v00, v10, v11) comes before its upper
one (v00, v11, v01), vertex vab being node (ix + a, iy + b).

A mesh depends on (dimension, n, size) alone, so `build_mesh` hands every
caller in a process one shared, immutable `Mesh` per key from a small LRU
cache.  Every array it hands out is read-only: the tables of the mesh
alone (its barycenters and volumes, and others such as the two-scale test
cosines at the barycenters) are computed on first use by `Mesh.tabulate`
and live exactly as long as the mesh.  A pickled mesh unpickles to the
receiving process's shared instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Hashable

import numpy as np

__all__ = ["Mesh", "DiscreteField", "build_mesh", "DIRICHLET_ZERO", "PERIODIC_MEAN_ZERO"]

DIRICHLET_ZERO = "dirichlet-zero"
PERIODIC_MEAN_ZERO = "periodic-mean-zero"

# 2D gradient component `axis` of element `tri` (0 lower, 1 upper) is the
# difference along its leg, indexed among x-edges (n+1, n) or y-edges (n, n+1)
_LEGS = (
    (0, 0, np.s_[..., :-1, :]),  # v00-v10
    (0, 1, np.s_[..., 1:]),  # v10-v11
    (1, 0, np.s_[..., 1:, :]),  # v01-v11
    (1, 1, np.s_[..., :-1]),  # v00-v01
)

# vertex slices of the nodal grid, one tuple per element of a square
# (interval), in the element order of the module docstring
_SIMPLICES = {
    1: ((np.s_[:-1], np.s_[1:]),),
    2: (
        (np.s_[:-1, :-1], np.s_[:-1, 1:], np.s_[1:, 1:]),  # lower
        (np.s_[:-1, :-1], np.s_[1:, 1:], np.s_[1:, :-1]),  # upper
    ),
}


def _vertex_mean(d: int, n: int, values: np.ndarray) -> np.ndarray:
    """Mean over each element's vertices, summed in vertex order,
    (n_nodes, ...) -> (n_elements, ...)."""
    u = values.reshape((n + 1,) * d + values.shape[1:])
    means = [reduce(np.add, [u[v] for v in s]) / len(s) for s in _SIMPLICES[d]]
    return np.stack(means, axis=d).reshape((-1,) + values.shape[1:])


def _vertex_sum(d: int, n: int, q: np.ndarray) -> np.ndarray:
    """Transpose of the vertex gather: per-element q summed onto the element
    vertices one term at a time, (n_elements,) -> (n_nodes,)."""
    q = q.reshape((n,) * d + (-1,))
    out = np.zeros((n + 1,) * d)
    for k, simplex in enumerate(_SIMPLICES[d]):
        for v in simplex:
            out[v] += q[..., k]
    return out.ravel()


def _barycenters(mesh: "Mesh") -> np.ndarray:
    return _vertex_mean(mesh.dimension, mesh.n, mesh.nodes)


def _volumes(mesh: "Mesh") -> np.ndarray:
    h = mesh.h
    return np.full(mesh.n_elements, h if mesh.dimension == 1 else 0.5 * h * h)


@dataclass(frozen=True, eq=False)
class Mesh:
    dimension: int
    n: int
    size: float
    _tables: dict = field(init=False, repr=False, default_factory=dict)

    def __reduce__(self):
        return _shared_mesh, (self.dimension, self.n, self.size)

    def tabulate(self, key: Hashable, make: Callable[["Mesh"], np.ndarray]) -> np.ndarray:
        """make(self), computed on the first request for key and kept,
        read-only, for the life of the mesh: for tables of the mesh alone."""
        table = self._tables.get(key)
        if table is None:
            table = make(self)
            table.flags.writeable = False
            self._tables[key] = table
        return table

    @property
    def barycenters(self) -> np.ndarray:
        """Element barycenters (n_elements, d), the one quadrature point each."""
        return self.tabulate("barycenters", _barycenters)

    @property
    def volumes(self) -> np.ndarray:
        """Element measures (n_elements,), all equal."""
        return self.tabulate("volumes", _volumes)

    @property
    def h(self) -> float:
        return self.size / self.n

    @property
    def n_nodes(self) -> int:
        return (self.n + 1) ** self.dimension

    @property
    def n_elements(self) -> int:
        return len(_SIMPLICES[self.dimension]) * self.n**self.dimension

    @property
    def nodes(self) -> np.ndarray:
        """Node coordinates (n_nodes, d), row-major on the grid."""
        n, h = self.n, self.h
        if self.dimension == 1:
            return (np.arange(n + 1) * h)[:, None]
        iy, ix = np.divmod(np.arange((n + 1) ** 2), n + 1)
        return np.stack([ix * h, iy * h], axis=1)

    def element_gradients(self, values: np.ndarray) -> np.ndarray:
        """Per-element gradients of P1 fields, (..., n_nodes) -> (..., n_elements, d)."""
        lead = values.shape[:-1]
        if self.dimension == 1:
            return (np.diff(values, axis=-1) / self.h)[..., None]
        u = values.reshape(lead + (self.n + 1, self.n + 1))
        diffs = [np.diff(u, axis=-1) / self.h, np.diff(u, axis=-2) / self.h]
        g = np.empty(lead + (self.n, self.n, 2, 2))
        for tri, a, leg in _LEGS:
            g[..., tri, a] = diffs[a][leg]
        return g.reshape(lead + (self.n_elements, 2))


def build_mesh(dimension: int, n: int, size: float = 1.0) -> Mesh:
    """Uniform mesh of [0, size]^d with n subdivisions per axis, shared per process."""
    if n < 2:
        raise ValueError("need at least 2 subdivisions per axis")
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    return _shared_mesh(dimension, n, size)


@lru_cache(maxsize=16)
def _shared_mesh(dimension: int, n: int, size: float) -> Mesh:
    """The process's one mesh per (dimension, n, size), least recently used evicted."""
    return Mesh(dimension=dimension, n=n, size=size)


def _leg_sums(mesh: Mesh, q: np.ndarray) -> list[np.ndarray]:
    """Sum per-element values q (..., n_elements, d) onto the element legs:
    one array per axis a, holding the edges along grid axis -1 - a."""
    if mesh.dimension == 1:
        return [q[..., 0]]
    n, lead = mesh.n, q.shape[:-2]
    q = q.reshape(lead + (n, n, 2, 2))
    edges = [np.zeros(lead + (n + 1, n)), np.zeros(lead + (n, n + 1))]
    for tri, a, leg in _LEGS:
        edges[a][leg] += q[..., tri, a]
    return edges


# einsum subscripts of `_dot` by (a.ndim, b.ndim)
_DOT_SUBSCRIPTS = {
    (na, nb): f"{'abc'[: na - 1]}z,z{'xyw'[: nb - 1]}->{'abc'[: na - 1]}{'xyw'[: nb - 1]}"
    for na in range(1, 4)
    for nb in range(1, 4)
}


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a contracted with b over a's last and b's first axis (tensordot, axes=1).

    Every reduction whose result reaches an output goes through here.
    `np.einsum` without `optimize` runs numpy's own sum-of-products loops and
    never calls BLAS, so the summation order, and with it every bit of the
    result, does not depend on the BLAS library or its thread count.
    """
    return np.einsum(_DOT_SUBSCRIPTS[a.ndim, b.ndim], a, b)


def _along(axis: int, sl: slice) -> tuple:
    """Index applying `sl` to the negative `axis` of an array."""
    return (Ellipsis, sl) + (slice(None),) * (-1 - axis)


def _to_nodes(edges: list[np.ndarray], sign: float = -1.0) -> np.ndarray:
    """Sum per-axis edge values onto the nodes: along each axis node i gets
    e[i-1] + sign * e[i], so sign = -1 is the transpose of np.diff."""
    out = np.zeros(edges[0].shape[:-1] + (edges[0].shape[-1] + 1,))
    for a, e in enumerate(edges):
        out[_along(-1 - a, slice(None, -1))] += sign * e
        out[_along(-1 - a, slice(1, None))] += e
    return out


def _gradient_adjoint(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Transpose of `Mesh.element_gradients`: (..., n_elements, d) -> (..., n_nodes)."""
    nodal = _to_nodes(_leg_sums(mesh, q)) / mesh.h
    return nodal.reshape(q.shape[:-2] + (mesh.n_nodes,))


class Constraint:
    """Reduced parametrization of a constrained nodal space.

    Reduced dofs are the (n-1)^d interior nodes (zero trace) or the n^d torus
    nodes.  expand zero-pads, or wraps onto the far faces; its transpose
    reduce_adjoint slices the interior, or folds the far faces back.  Both
    act on the last axis.  The periodic zero-mean direction is handled by the
    solvers (energies are gradient-only) and normalized away after the solve.
    """

    def __init__(self, mesh: Mesh, kind: str):
        if kind not in (DIRICHLET_ZERO, PERIODIC_MEAN_ZERO):
            raise ValueError(f"unknown constraint kind {kind!r}")
        self.mesh = mesh
        self.kind = kind
        d = mesh.dimension
        m = mesh.n - 1 if kind == DIRICHLET_ZERO else mesh.n
        self._shape = (m,) * d
        self._inner = (...,) + (slice(1, -1) if kind == DIRICHLET_ZERO else slice(0, -1),) * d
        self.n_dofs = m**d

    def expand(self, z: np.ndarray) -> np.ndarray:
        lead, d = z.shape[:-1], self.mesh.dimension
        u = np.zeros(lead + (self.mesh.n + 1,) * d)
        u[self._inner] = z.reshape(lead + self._shape)
        if self.kind == PERIODIC_MEAN_ZERO:
            for ax in range(-d, 0):
                u[_along(ax, slice(-1, None))] = u[_along(ax, slice(0, 1))]
        return u.reshape(lead + (self.mesh.n_nodes,))

    def reduce_adjoint(self, g_full: np.ndarray) -> np.ndarray:
        lead, d = g_full.shape[:-1], self.mesh.dimension
        u = g_full.reshape(lead + (self.mesh.n + 1,) * d)
        if self.kind == DIRICHLET_ZERO:
            u = u[self._inner]
        else:
            for ax in range(-d, 0):
                folded = u[_along(ax, slice(None, -1))].copy()
                folded[_along(ax, slice(0, 1))] += u[_along(ax, slice(-1, None))]
                u = folded
        return u.reshape(lead + (self.n_dofs,))

    def normalize(self, z: np.ndarray) -> np.ndarray:
        """Project onto the constraint's normal form (zero mean if periodic)."""
        if self.kind == PERIODIC_MEAN_ZERO:
            return z - z.mean(axis=-1, keepdims=True)
        return z


@dataclass
class DiscreteField:
    """Nodal P1 function with a constraint kind."""

    mesh: Mesh
    values: np.ndarray
    constraint: str = DIRICHLET_ZERO

    @staticmethod
    def zeros(mesh: Mesh, constraint: str = DIRICHLET_ZERO) -> "DiscreteField":
        return DiscreteField(mesh=mesh, values=np.zeros(mesh.n_nodes), constraint=constraint)

    def check(self, tol: float = 1e-12) -> None:
        """Verify the constraint holds on the nodal values."""
        c = Constraint(self.mesh, self.constraint)
        z = self.reduced(c)
        if np.max(np.abs(c.expand(z) - self.values)) > tol:
            raise ValueError(f"field violates the {self.constraint} constraint")
        if self.constraint == PERIODIC_MEAN_ZERO and abs(z.mean()) > tol:
            raise ValueError("field violates the zero-mean constraint")

    def reduced(self, constraint: "Constraint") -> np.ndarray:
        grid = self.values.reshape((self.mesh.n + 1,) * self.mesh.dimension)
        return grid[constraint._inner].flatten()

    def gradients(self) -> np.ndarray:
        return self.mesh.element_gradients(self.values)

    def at_barycenters(self) -> np.ndarray:
        return _vertex_mean(self.mesh.dimension, self.mesh.n, self.values)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the P1 interpolant at arbitrary points (..., d)."""
        pts = np.asarray(points, dtype=float)
        mesh = self.mesh
        h, n = mesh.h, mesh.n
        if mesh.dimension == 1:
            x = pts[..., 0]
            i = np.clip(np.floor(x / h).astype(int), 0, n - 1)
            lx = x - i * h
            u = self.values
            return u[i] + (u[i + 1] - u[i]) * lx / h
        x, y = pts[..., 0], pts[..., 1]
        ix = np.clip(np.floor(x / h).astype(int), 0, n - 1)
        iy = np.clip(np.floor(y / h).astype(int), 0, n - 1)
        lx, ly = x - ix * h, y - iy * h
        u = self.values.reshape(n + 1, n + 1)
        u00, u10, u01, u11 = u[iy, ix], u[iy, ix + 1], u[iy + 1, ix], u[iy + 1, ix + 1]
        return np.where(
            ly <= lx,
            u00 + (u10 - u00) * lx / h + (u11 - u10) * ly / h,
            u00 + (u11 - u01) * lx / h + (u01 - u00) * ly / h,
        )


def lp_distance(a: DiscreteField, b: DiscreteField, p: float) -> float:
    """Discrete L^p distance, quadrature taken on a's mesh."""
    pts = a.mesh.barycenters
    diff = np.abs(a.at_barycenters() - b.eval(pts)) ** p
    return float(_dot(a.mesh.volumes, diff)) ** (1.0 / p)
