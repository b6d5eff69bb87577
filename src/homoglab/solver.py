"""Assembly and minimization of oscillatory convex energies.

Covers the quenched single-realization energy, the sample-averaged energy
over several realizations, the variance-regularized coupled energy (penalty
on the deviation of each realization's gradient from the empirical mean
gradient), and the periodic cell problems that produce effective integrand
values and correctors on representative volumes.

p = 2 uncoupled problems go through conjugate gradients on the assembled SPD
system, preconditioned by the exact inverse of the unit-coefficient
stiffness (a DST-I solve for zero trace, an FFT solve on the torus), so the
iteration count does not grow with the mesh; everything else is minimized
by Polak-Ribiere nonlinear CG with Armijo backtracking on the reduced
(constrained) variables.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .integrand import IntegrandSpec, combined_weight
from .medium import EnsembleSpec, Realization, periodize, sample_realization
from .meshing import (
    DIRICHLET_ZERO,
    PERIODIC_MEAN_ZERO,
    Constraint,
    DiscreteField,
    Mesh,
    build_mesh,
)

__all__ = [
    "EnergyFunctional",
    "MinimizeResult",
    "CellResult",
    "EffectiveValue",
    "assemble_energy",
    "minimize",
    "cell_problem",
    "effective_integrand",
]

Load = float | Callable[[np.ndarray], np.ndarray] | None


@dataclass
class EnergyFunctional:
    """Discretized energy, ready for minimization.

    coef[i, e] holds the density weight of realization i at element e,
    sampled at barycenter/eps.  delta > 0 with coupled=True adds the
    empirical-variance penalty; with a "corrector" penalty (cell problems)
    it penalizes each gradient individually, see `_Objective`.
    """

    realizations: list[Realization]
    weights: np.ndarray
    eps: float
    mesh: Mesh
    integrand: IntegrandSpec
    coef: np.ndarray
    load_values: np.ndarray
    delta: float
    coupled: bool
    constraint: str = DIRICHLET_ZERO
    gradient_offset: np.ndarray | None = None
    penalty: str = "variance"
    scale: float = 1.0

    @property
    def n_realizations(self) -> int:
        return len(self.realizations)


def assemble_energy(
    realizations: Sequence[Realization],
    eps: float,
    mesh: Mesh,
    integrand: IntegrandSpec,
    load: Load = None,
    delta: float = 0.0,
    coupled: bool | None = None,
) -> EnergyFunctional:
    """Build the sample-averaged oscillatory energy on the given mesh.

    The random coefficient is sampled at tau_{x_e/eps}, one point per element
    barycenter x_e; the load stays at macroscopic coordinates.
    """
    realizations = list(realizations)
    if not realizations:
        raise ValueError("need at least one realization")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if coupled is None:
        coupled = delta > 0 and len(realizations) > 1
    if coupled and delta > 0 and len(realizations) < 2:
        raise ValueError("variance coupling needs at least 2 realizations")
    if mesh.h > eps / 4 + 1e-12:
        warnings.warn(f"mesh h={mesh.h:g} does not resolve eps={eps:g} (want h <= eps/4)")
    bary = mesh.barycenters
    coef = np.stack([combined_weight(integrand, r, bary / eps) for r in realizations])
    if load is None:
        f_e = np.zeros(mesh.n_elements)
    elif callable(load):
        f_e = np.asarray(load(bary), dtype=float) * np.ones(mesh.n_elements)
    else:
        f_e = np.full(mesh.n_elements, float(load))
    return EnergyFunctional(
        realizations=realizations,
        weights=np.full(len(realizations), 1.0 / len(realizations)),
        eps=eps,
        mesh=mesh,
        integrand=integrand,
        coef=coef,
        load_values=f_e,
        delta=delta,
        coupled=coupled,
    )


@dataclass
class MinimizeResult:
    fields: list[DiscreteField]
    mean_field: DiscreteField | None
    energy: float
    iterations: int
    grad_norm: float
    wall_ms: float
    converged: bool
    method: str


class _Objective:
    """Value and gradient of the reduced energy.

    Variables are the stacked reduced dofs of all N fields.  Element
    gradients optionally get a constant offset (cell problems); penalties:
    "variance" couples realizations through the empirical mean gradient,
    "corrector" penalizes each gradient norm individually.
    """

    def __init__(self, E: EnergyFunctional):
        self.E = E
        self.mesh = E.mesh
        self.constraint = Constraint(E.mesh, E.constraint)
        self.N = E.n_realizations
        self.G = E.mesh.gradient_matrix()
        self.GT = self.G.T.tocsr()
        self.M = E.mesh.barycenter_matrix()
        self.vol = E.mesh.volumes
        self.d = E.mesh.dimension
        self.p = E.integrand.p
        # load vector in reduced coordinates, one per realization (shared)
        self.load_red = self.constraint.reduce_adjoint(self.M.T @ (self.vol * E.load_values))
        self.n_dofs = self.constraint.n_dofs

    def stiffness(self, w: np.ndarray) -> sp.spmatrix:
        """Reduced P1 stiffness matrix of the element weights w (one per element)."""
        B, G = self.constraint.matrix, self.G
        return B.T @ (G.T @ sp.diags(np.repeat(self.vol * w, self.d)) @ G) @ B

    def precond_diag(self) -> np.ndarray:
        """Diagonal of the p=2-type Hessian surrogate for the stacked system."""
        E = self.E
        pen = 0.0
        if E.delta > 0:
            pen = 2.0 * E.delta * (1.0 - 1.0 / self.N if E.penalty == "variance" else 1.0)
        out = np.empty((self.N, self.n_dofs))
        for i in range(self.N):
            out[i] = E.weights[i] * E.scale * self.stiffness(E.coef[i] + pen).diagonal()
        flat = out.ravel()
        return np.where(flat > 0, flat, 1.0)

    def unpack(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.N, self.n_dofs)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        E = self.E
        p = self.p
        U = self.constraint.matrix @ self.unpack(x).T  # (n_nodes, N) nodal fields
        graw = (self.G @ U).T.reshape(self.N, self.mesh.n_elements, self.d)
        g = graw if E.gradient_offset is None else graw + E.gradient_offset[None]
        norms = np.linalg.norm(g, axis=-1)
        dens = (E.coef / p) * norms**p
        value = float(np.dot(E.weights, dens @ self.vol))
        # dV/dg per realization and element
        scale = np.zeros_like(norms)
        nz = norms > 0
        scale[nz] = E.coef[nz] * norms[nz] ** (p - 2.0)
        dV = scale[..., None] * g
        if E.delta > 0:
            if E.penalty == "variance":
                gbar = np.tensordot(E.weights, g, axes=(0, 0))
                dev = g - gbar
                dn = np.linalg.norm(dev, axis=-1)
                value += E.delta * float(np.dot(E.weights, dn**p @ self.vol))
                s = np.zeros_like(dn)
                nz = dn > 0
                s[nz] = p * dn[nz] ** (p - 2.0)
                pen = s[..., None] * dev
                pen_mean = np.tensordot(E.weights, pen, axes=(0, 0))
                dV = dV + E.delta * (pen - pen_mean)
            else:  # corrector penalty delta |grad phi|^p (offset excluded)
                nraw = np.linalg.norm(graw, axis=-1)
                value += E.delta * float(np.dot(E.weights, nraw**p @ self.vol))
                s = np.zeros_like(nraw)
                nz = nraw > 0
                s[nz] = p * nraw[nz] ** (p - 2.0)
                dV = dV + E.delta * s[..., None] * graw
        # chain rule back to reduced dofs
        flat = (self.vol[None, :, None] * dV).reshape(self.N, -1)
        grad = E.weights[:, None] * self.constraint.reduce_adjoint(self.GT @ flat.T).T
        # load
        ubar = (self.M @ U).T
        value -= float(np.dot(E.weights, ubar @ (self.vol * E.load_values)))
        grad -= np.outer(E.weights, self.load_red)
        value *= E.scale
        grad *= E.scale
        if not np.isfinite(value):
            raise FloatingPointError("energy evaluated to a non-finite value")
        return value, grad.ravel()


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along one axis: y_k = sum_j x_j sin(pi j k / (m + 1))."""
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    y = -0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1 : m + 1]
    return np.moveaxis(y, -1, axis)


def _laplacian_inverse(mesh: Mesh, kind: str) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the unit-coefficient reduced stiffness of `mesh`.

    On the uniform box the P1 stiffness of the unit weight is h^(d-2) times
    the 3-point (1D) or 5-point (2D) stencil.  Zero trace diagonalizes it by
    DST-I on the (n-1)^d interior grid, eigenvalues
    sum_axes (2 - 2 cos(pi j / n)); the torus by the FFT on the n^d grid,
    eigenvalues sum_axes (2 - 2 cos(2 pi j / n)), with the constant mode
    (the kernel) sent to 0.
    """
    n, d = mesh.n, mesh.dimension
    scale = mesh.h ** (d - 2)
    if kind == DIRICHLET_ZERO:
        shape = (n - 1,) * d
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n)
        eig = scale * sum(np.ix_(*([lam] * d)))
        # DST-I squared is (n/2) times the identity along each axis
        inv = (2.0 / n) ** d / eig

        def apply(r: np.ndarray) -> np.ndarray:
            y = r.reshape(shape)
            for ax in range(d):
                y = _dst1(y, ax)
            y = y * inv
            for ax in range(d):
                y = _dst1(y, ax)
            return y.ravel()

        return apply
    shape = (n,) * d
    axes = tuple(range(d))
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    grids = [lam] * (d - 1) + [lam[: n // 2 + 1]]  # rfftn halves the last axis
    eig = scale * sum(np.ix_(*grids))
    inv = np.zeros_like(eig)
    np.divide(1.0, eig, out=inv, where=eig > 0)

    def apply(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfftn(r.reshape(shape), axes=axes) * inv
        return np.fft.irfftn(y, s=shape, axes=axes).ravel()

    return apply


def _pcg(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float,
    max_iter: int,
    precond: Callable[[np.ndarray], np.ndarray],
):
    """Preconditioned conjugate gradients, relative residual stop.

    `precond` applies an SPD approximation of A^-1 (on the torus, of its
    pseudo-inverse on mean-zero vectors); `_linear_spd_solve` passes the
    unit-coefficient inverse of `_laplacian_inverse`.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0, True
    r = b.copy()
    z = precond(r)
    pvec = z.copy()
    rz = float(r @ z)
    it = 0
    while it < max_iter:
        Ap = A @ pvec
        alpha = rz / float(pvec @ Ap)
        x += alpha * pvec
        r -= alpha * Ap
        it += 1
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it, float(np.linalg.norm(r)), True
        z = precond(r)
        rz_new = float(r @ z)
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return x, it, float(np.linalg.norm(r)), False


def _ncg(fun, x0: np.ndarray, tol: float, max_iter: int, precond: np.ndarray | None = None):
    """Polak-Ribiere nonlinear CG with restarts and Armijo backtracking.

    The first trial step comes from a Barzilai-Borwein estimate; one quadratic
    interpolation along the search direction sharpens it (exact line search on
    quadratic energies), then Armijo backtracking (c = 1e-4, factor 0.5)
    guards the decrease.  An optional diagonal preconditioner rescales the
    steepest-descent direction.
    """
    dinv = 1.0 / precond if precond is not None else None

    def prec(v):
        return dinv * v if dinv is not None else v

    x = x0.copy()
    f, g = fun(x)
    gnorm = float(np.linalg.norm(g))
    z = prec(g)
    d = -z
    it = 0
    s_prev = y_prev = None

    def armijo(alpha, slope):
        # the epsilon term keeps the test decidable once decreases reach the
        # floating-point resolution of the energy
        floor = 4e-16 * (1.0 + abs(f))
        for _ in range(60):
            cand = x + alpha * d
            f_c, g_c = fun(cand)
            if f_c <= f + 1e-4 * alpha * slope + floor:
                return cand, f_c, g_c, alpha
            alpha *= 0.5
        return None

    while gnorm > tol * (1.0 + abs(f)) and it < max_iter:
        restarted = float(g @ d) >= 0.0
        if restarted:
            d = -z  # restart on a non-descent direction
        slope = float(g @ d)
        dnorm = float(np.linalg.norm(d))
        if s_prev is not None and float(s_prev @ y_prev) > 0:
            bb = float(s_prev @ s_prev) / float(s_prev @ y_prev)
            alpha = bb * gnorm / max(dnorm, 1e-300)
        else:
            alpha = 1.0 / max(dnorm, 1.0)
        # secant step on the directional derivative: exact on quadratics and
        # immune to the value cancellation that stalls interpolation on f
        _, g_t = fun(x + alpha * d)
        slope_t = float(g_t @ d)
        if slope_t > slope:
            alpha = float(np.clip(alpha * slope / (slope - slope_t), 1e-3 * alpha, 1e3 * alpha))
        else:
            alpha *= 4.0  # nonconvex sample along d: expand
        hit = armijo(alpha, slope)
        if hit is None:
            if restarted or np.array_equal(d, -z):
                break  # no descent at line-search resolution
            d = -z
            continue
        x_new, f_new, g_new, alpha = hit
        if not f_new <= f + 1e-11 * (1.0 + abs(f)):
            raise FloatingPointError("energy increased along an accepted step")
        s_prev = x_new - x
        y_prev = g_new - g
        z_new = prec(g_new)
        beta = max(0.0, float(g_new @ (z_new - z)) / max(float(g @ z), 1e-300))
        d = -z_new + beta * d
        x, f, g, z = x_new, f_new, g_new, z_new
        gnorm = float(np.linalg.norm(g))
        it += 1
    return x, f, it, gnorm, gnorm <= tol * (1.0 + abs(f))


def _linear_spd_solve(obj: _Objective, tol: float, max_iter: int):
    """p = 2, no coupling: solve each realization's SPD system by spectral PCG."""
    E = obj.E
    extra = 2.0 * E.delta if (E.delta > 0 and E.penalty == "corrector") else 0.0
    Z = np.empty((obj.N, obj.n_dofs))
    precond = _laplacian_inverse(obj.mesh, E.constraint)
    iters = 0
    ok = True
    for i in range(obj.N):
        K = obj.stiffness(E.coef[i] + extra).tocsr()
        b = obj.load_red.copy()
        if E.gradient_offset is not None:
            flat = (obj.vol[:, None] * E.coef[i][:, None] * E.gradient_offset).ravel()
            b = b - obj.constraint.reduce_adjoint(obj.GT @ flat)
        z, it, _, conv = _pcg(K, b, tol, max_iter, precond)
        Z[i] = z
        iters += it
        ok = ok and conv
    f, g = obj.value_and_grad(Z.ravel())
    return Z.ravel(), f, iters, float(np.linalg.norm(g)), ok


def _solve(
    E: EnergyFunctional, tol: float, max_iter: int, method: str | None = None
) -> MinimizeResult:
    """Minimize E by linear CG (uncoupled p = 2) or nonlinear CG; see `minimize`."""
    t0 = time.perf_counter()
    obj = _Objective(E)
    linear_ok = E.integrand.p == 2.0 and not (E.coupled and E.delta > 0)
    if method is None:
        method = "cg" if linear_ok else "ncg"
    if method == "cg":
        if not linear_ok:
            raise ValueError("linear path needs p = 2 and no variance coupling")
        x, f, iters, gnorm, conv = _linear_spd_solve(obj, tol, max_iter)
    else:
        x0 = np.zeros(obj.N * obj.n_dofs)
        x, f, iters, gnorm, conv = _ncg(
            obj.value_and_grad, x0, tol, max_iter, precond=obj.precond_diag()
        )
    fields = []
    for z in obj.unpack(x):
        values = obj.constraint.expand(obj.constraint.normalize(z))
        fields.append(DiscreteField(mesh=E.mesh, values=values, constraint=E.constraint))
    mean_field = None
    if obj.N > 1:
        mv = np.tensordot(E.weights, np.stack([fl.values for fl in fields]), axes=(0, 0))
        mean_field = DiscreteField(mesh=E.mesh, values=mv, constraint=E.constraint)
    return MinimizeResult(
        fields=fields,
        mean_field=mean_field,
        energy=float(f),
        iterations=iters,
        grad_norm=gnorm,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        converged=conv,
        method=method,
    )


def minimize(
    E: EnergyFunctional, tol: float = 1e-8, max_iter: int = 20_000, method: str | None = None
) -> MinimizeResult:
    """Minimize the energy over its constrained fields.

    method None picks linear CG for uncoupled p = 2 problems and nonlinear CG
    otherwise; pass "ncg" to force the nonlinear path (used for the
    self-consistency oracle).  Any other method raises ValueError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method not in (None, "cg", "ncg"):
        raise ValueError(f"unknown method {method!r}; use None, 'cg' or 'ncg'")
    return _solve(E, tol, max_iter, method)


@dataclass
class CellResult:
    value: float
    corrector: DiscreteField
    iterations: int
    grad_norm: float
    wall_ms: float
    converged: bool


def cell_problem(
    r: Realization,
    L: int,
    integrand: IntegrandSpec,
    F: Sequence[float],
    delta: float = 0.0,
    n_per_cell: int = 8,
    tol: float = 1e-9,
    max_iter: int = 50_000,
) -> CellResult:
    """Periodic corrector problem on the L-torus.

    Minimizes the cell average of V(omega, F + grad phi) + delta |grad phi|^p
    over periodic mean-zero P1 fields; returns the minimal value (the
    regularized effective integrand at F) and the corrector.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if n_per_cell < 4:
        raise ValueError("need at least 4 subdivisions per unit cell")
    F = np.asarray(F, dtype=float)
    if F.shape != (r.dimension,) or not np.all(np.isfinite(F)):
        raise ValueError("F must be a finite vector matching the dimension")
    if r.period is None:
        r = periodize(r, L)
    elif r.period != L:
        raise ValueError(f"realization has period {r.period}, cell problem asked for {L}")
    t0 = time.perf_counter()
    d = r.dimension
    mesh = build_mesh(d, n=L * n_per_cell, size=float(L))
    coef = combined_weight(integrand, r, mesh.barycenters)[None, :]
    E = EnergyFunctional(
        realizations=[r],
        weights=np.ones(1),
        eps=1.0,
        mesh=mesh,
        integrand=integrand,
        coef=coef,
        load_values=np.zeros(mesh.n_elements),
        delta=delta,
        coupled=False,
        constraint=PERIODIC_MEAN_ZERO,
        gradient_offset=np.broadcast_to(F, (mesh.n_elements, d)).copy(),
        penalty="corrector",
        scale=1.0 / float(L) ** d,
    )
    res = _solve(E, tol, max_iter)
    return CellResult(
        value=res.energy,
        corrector=res.fields[0],
        iterations=res.iterations,
        grad_norm=res.grad_norm,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        converged=res.converged,
    )


@dataclass
class EffectiveValue:
    """Monte Carlo summary of the effective integrand at one gradient F."""

    F: tuple[float, ...]
    L: int
    delta: float
    mean: float
    stderr: float
    n_samples: int
    values: tuple[float, ...]
    iterations: int
    grad_norm: float
    wall_ms: float


def effective_integrand(
    ensemble: EnsembleSpec,
    L: int,
    integrand: IntegrandSpec,
    F_grid: Sequence[Sequence[float]],
    delta: float = 0.0,
    n_samples: int = 8,
    n_per_cell: int = 8,
    tol: float = 1e-9,
) -> list[EffectiveValue]:
    """Tabulate cell-problem values over an F grid, averaged over realizations."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rows = []
    for F in F_grid:
        vals = []
        iters = 0
        gmax = 0.0
        wall = 0.0
        for s in range(n_samples):
            r = sample_realization(ensemble, s)
            if r.period is not None and r.period != L:
                raise ValueError("ensemble period conflicts with requested L")
            res = cell_problem(r, L, integrand, F, delta=delta, n_per_cell=n_per_cell, tol=tol)
            vals.append(res.value)
            iters += res.iterations
            gmax = max(gmax, res.grad_norm)
            wall += res.wall_ms
        arr = np.asarray(vals)
        stderr = float(arr.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
        rows.append(
            EffectiveValue(
                F=tuple(float(c) for c in F),
                L=L,
                delta=delta,
                mean=float(arr.mean()),
                stderr=stderr,
                n_samples=n_samples,
                values=tuple(float(v) for v in arr),
                iterations=iters,
                grad_norm=gmax,
                wall_ms=wall,
            )
        )
    return rows
