"""Assembly and minimization of oscillatory convex energies.

Covers the quenched single-realization energy, the sample-averaged energy
over several realizations, the variance-regularized coupled energy (penalty
on the deviation of each realization's gradient from the empirical mean
gradient), and the periodic cell problems that produce effective integrand
values and correctors on representative volumes.

The energy alone picks the minimizer, with no override.  Every p = 2 energy
is quadratic: its N realizations form one stacked system, solved by one
conjugate-gradient run on the weighted P1 stiffness (a 3-/5-point grid
stencil, never assembled), block-preconditioned by the exact unit-coefficient
inverse (DST-I for zero trace, FFT on the torus), so the iteration count does
not grow with the mesh (`_linear_spd_solve`).  p != 2 energies are minimized by
Polak-Ribiere nonlinear CG with Armijo backtracking on the reduced
(constrained) variables.  Every inner product, norm and quadrature
sum goes through the fixed-order `meshing._dot`, never BLAS, so results do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrand import IntegrandSpec, combined_weight
from .medium import EnsembleSpec, Realization, periodize, sample_realization
from .meshing import (
    DIRICHLET_ZERO,
    PERIODIC_MEAN_ZERO,
    Constraint,
    DiscreteField,
    Mesh,
    _dot,
    _gradient_adjoint,
    _leg_sums,
    _to_nodes,
    _vertex_sum,
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


# Keep freed heap for reuse: glibc's adaptive thresholds otherwise return the
# numpy temporaries of every objective evaluation to the OS and fault them back.
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
except (AttributeError, OSError, TypeError):  # not glibc
    pass


@dataclass
class EnergyFunctional:
    """Discretized energy, ready for minimization.

    coef[i, e] holds the density weight of realization i at element e,
    sampled at barycenter/eps.  delta > 0 adds the empirical-variance
    penalty, which couples the realizations; with a "corrector" penalty
    (cell problems) it penalizes each gradient individually, see `_Objective`.
    """

    realizations: list[Realization]
    weights: np.ndarray
    eps: float
    mesh: Mesh
    integrand: IntegrandSpec
    coef: np.ndarray
    load_values: np.ndarray
    delta: float
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
) -> EnergyFunctional:
    """Build the sample-averaged oscillatory energy on the given mesh.

    The random coefficient is sampled at tau_{x_e/eps}, one point per element
    barycenter x_e; the load stays at macroscopic coordinates.  delta > 0
    adds the variance penalty, which needs at least 2 realizations.
    """
    realizations = list(realizations)
    if not realizations:
        raise ValueError("need at least one realization")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta > 0 and len(realizations) < 2:
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


class _Objective:
    """Value and gradient of the reduced energy.

    Variables are the stacked reduced dofs of all N fields.  Element
    gradients optionally get a constant offset (cell problems); penalties:
    "variance" couples realizations through the empirical
    mean gradient, "corrector" penalizes each gradient norm individually.
    """

    def __init__(self, E: EnergyFunctional):
        self.E = E
        self.mesh = E.mesh
        self.constraint = Constraint(E.mesh, E.constraint)
        self.N = E.n_realizations
        self.vol = E.mesh.volumes
        self.vol0 = float(self.vol[0])  # uniform box: every element has this volume
        self.d = E.mesh.dimension
        self.n_dofs = self.constraint.n_dofs
        self.variance = E.delta > 0 and E.penalty == "variance"
        self.corrector = E.delta > 0 and E.penalty == "corrector"
        # reduced load vector (shared): each vertex gets 1/(d+1) of its elements' vol * f
        weights = (self.vol * E.load_values) * (1.0 / (self.d + 1))
        self.load_red = self.constraint.reduce_adjoint(_vertex_sum(self.d, E.mesh.n, weights))
        self.loaded = bool(self.load_red.any())
        # realization weight, element volume and scale folded into one factor
        self.w = (E.weights * (self.vol0 * E.scale))[:, None]
        self.w_coef = self.w * E.coef

    def _edge_weights(self, w: np.ndarray) -> list[np.ndarray]:
        """Per-axis edge weights: vol * w / h^2 summed over the elements with that leg."""
        a = (self.vol * w / self.mesh.h**2)[..., None]
        return _leg_sums(self.mesh, np.broadcast_to(a, a.shape[:-1] + (self.d,)))

    def stiffness(self, w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Matvec of the reduced P1 stiffness of the element weights w (..., n_elements).

        A leading realization axis of w applies realization i's stiffness to row i.
        """
        edges = self._edge_weights(w)
        grid = (self.mesh.n + 1,) * self.d

        def apply(z: np.ndarray) -> np.ndarray:
            lead = z.shape[:-1]
            u = self.constraint.expand(z).reshape(lead + grid)
            Ku = _to_nodes([c * np.diff(u, axis=-1 - a) for a, c in enumerate(edges)])
            return self.constraint.reduce_adjoint(Ku.reshape(lead + (-1,)))

        return apply

    def precond_diag(self) -> np.ndarray:
        """Diagonal of the p=2-type Hessian surrogate for the stacked system."""
        E = self.E
        pen = 0.0
        if self.variance or self.corrector:
            pen = 2.0 * E.delta * (1.0 - 1.0 / self.N if self.variance else 1.0)
        # a node's stiffness diagonal is the sum of its incident edge weights
        diag = _to_nodes(self._edge_weights(E.coef + pen), sign=1.0)
        diag = self.constraint.reduce_adjoint(diag.reshape(self.N, -1))
        flat = ((E.weights * E.scale)[:, None] * diag).ravel()
        return np.where(flat > 0, flat, 1.0)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        E = self.E
        p = E.integrand.p
        Z = x.reshape(self.N, self.n_dofs)
        graw = self.mesh.element_gradients(self.constraint.expand(Z))  # (N, n_elements, d)
        g = graw if E.gradient_offset is None else graw + E.gradient_offset[None]
        w = self.w
        sq, s = _norm_powers(g, p)
        ws = self.w_coef * s  # w a |g|^(p-2): dV/dg = ws g, V = ws |g|^2 / p
        value = float(_dot(ws.ravel(), sq.ravel())) / p
        dV = _scaled(ws, g)
        if self.variance:
            dev = g - _dot(E.weights, g)
            sq, s = _norm_powers(dev, p)
            value += E.delta * float(_dot((w * s).ravel(), sq.ravel()))
            pen = _scaled(s, dev)
            dV += _scaled((E.delta * p) * w, pen - _dot(E.weights, pen))
        elif self.corrector:  # delta |grad phi|^p (offset excluded)
            sq, s = _norm_powers(graw, p)
            ws = w * s
            value += E.delta * float(_dot(ws.ravel(), sq.ravel()))
            dV += _scaled((E.delta * p) * ws, graw)
        # chain rule back to reduced dofs
        grad = self.constraint.reduce_adjoint(_gradient_adjoint(self.mesh, dV))
        if self.loaded:
            wl = E.weights * E.scale
            value -= float(_dot(wl, _dot(Z, self.load_red)))
            grad -= np.outer(wl, self.load_red)
        if not np.isfinite(value):
            raise FloatingPointError("energy evaluated to a non-finite value")
        return value, grad.ravel()


def _norm_powers(g: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """|g|^2 and |g|^(p-2) over the last (length-d) axis, the power 0 where g = 0."""
    sq = g[..., 0] * g[..., 0]
    if g.shape[-1] == 2:
        sq += g[..., 1] * g[..., 1]
    return sq, np.power(sq, 0.5 * p - 1.0, out=np.zeros_like(sq), where=sq > 0)


def _scaled(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s[..., None] * g, one component at a time (a length-d inner loop is slow)."""
    out = np.empty(g.shape)
    for a in range(g.shape[-1]):
        np.multiply(s, g[..., a], out=out[..., a])
    return out


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I along the last axis: y_k = sum_j x_j sin(pi j k / (m + 1))."""
    m = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1 : m + 1]


def _laplacian_inverse(
    mesh: Mesh, kind: str, scale: float | np.ndarray = 1.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the unit-coefficient reduced stiffness of `mesh`, times `scale`.

    On the uniform box the P1 stiffness of the unit weight is h^(d-2) times
    the 3-point (1D) or 5-point (2D) stencil.  Zero trace diagonalizes it by
    DST-I on the (n-1)^d interior grid, eigenvalues
    sum_axes (2 - 2 cos(pi j / n)); the torus by the FFT on the n^d grid,
    eigenvalues sum_axes (2 - 2 cos(2 pi j / n)), with the constant mode
    (the kernel) sent to 0.  Leading axes of the argument are batched; an
    array `scale` (N,) multiplies row i of a leading length-N axis by scale[i]
    inside the spectral multiplier, at no extra pass.
    """
    n, d = mesh.n, mesh.dimension
    hd = mesh.h ** (d - 2)
    if kind == DIRICHLET_ZERO:
        shape = (n - 1,) * d
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n)
        eig = hd * sum(np.ix_(*([lam] * d)))
        # DST-I squared is (n/2) times the identity along each axis
        inv = np.multiply.outer(scale, (2.0 / n) ** d / eig)

        # transform along the last axis, then swap the last two to bring up
        # the next; after d passes the axes are back in order (d <= 2)
        def transform(y: np.ndarray) -> np.ndarray:
            for _ in range(d):
                y = _dst1(y)
                if d == 2:
                    y = y.swapaxes(-1, -2)
            return y

        def apply(r: np.ndarray) -> np.ndarray:
            return transform(transform(r.reshape(r.shape[:-1] + shape)) * inv).reshape(r.shape)

        return apply
    shape = (n,) * d
    axes = tuple(range(-d, 0))
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    grids = [lam] * (d - 1) + [lam[: n // 2 + 1]]  # rfftn halves the last axis
    eig = hd * sum(np.ix_(*grids))
    inv = np.zeros_like(eig)
    np.divide(1.0, eig, out=inv, where=eig > 0)
    inv = np.multiply.outer(scale, inv)

    def apply(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfftn(r.reshape(r.shape[:-1] + shape), axes=axes) * inv
        return np.fft.irfftn(y, s=shape, axes=axes).reshape(r.shape)

    return apply


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, by the fixed-order `_dot`."""
    return float(np.sqrt(_dot(v, v)))


def _pcg(
    A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float,
    max_iter: int,
    precond: Callable[[np.ndarray], np.ndarray],
):
    """Preconditioned conjugate gradients, relative residual stop.

    `A` and `precond` are matvecs: the SPD matrix and an SPD approximation of
    its inverse (on the torus, of its pseudo-inverse on mean-zero vectors),
    here the stacked stiffness and the block-spectral inverse of
    `_linear_spd_solve`.  A non-finite norm of the right-hand side or of a
    residual can never meet the relative stop, so it ends the solve at
    once, not converged.
    """
    bnorm = _norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0, True
    if not np.isfinite(bnorm):
        return x, 0, bnorm, False
    r = b.copy()
    rnorm = bnorm
    z = precond(r)
    pvec = z.copy()
    rz = float(_dot(r, z))
    it = 0
    while it < max_iter:
        Ap = A(pvec)
        alpha = rz / float(_dot(pvec, Ap))
        x += alpha * pvec
        r -= alpha * Ap
        it += 1
        rnorm = _norm(r)
        if rnorm <= tol * bnorm:
            return x, it, rnorm, True
        if not np.isfinite(rnorm):
            return x, it, rnorm, False
        z = precond(r)
        rz_new = float(_dot(r, z))
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return x, it, rnorm, False


def _ncg(fun, x0: np.ndarray, tol: float, max_iter: int, precond: np.ndarray):
    """Polak-Ribiere nonlinear CG with restarts and Armijo backtracking.

    The first trial step comes from a Barzilai-Borwein estimate; one quadratic
    interpolation along the search direction sharpens it (exact line search on
    quadratic energies), then Armijo backtracking (c = 1e-4, factor 0.5)
    guards the decrease.  The diagonal preconditioner `precond` rescales the
    steepest-descent direction.
    """
    dinv = 1.0 / precond
    x = x0.copy()
    f, g = fun(x)
    gnorm = _norm(g)
    z = dinv * g
    gz = float(_dot(g, z))
    d = -z
    it = 0
    sy = ss = None  # curvature pair of the last accepted step

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
        slope = float(_dot(g, d))
        restarted = slope >= 0.0
        if restarted:
            d = -z  # restart on a non-descent direction
            slope = -gz
        dnorm = _norm(d)
        if sy is not None and sy > 0:
            alpha = (ss / sy) * gnorm / max(dnorm, 1e-300)
        else:
            alpha = 1.0 / max(dnorm, 1.0)
        # secant step on the directional derivative: exact on quadratics and
        # immune to the value cancellation that stalls interpolation on f
        _, g_t = fun(x + alpha * d)
        slope_t = float(_dot(g_t, d))
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
        ss, sy = float(_dot(s_prev, s_prev)), float(_dot(s_prev, g_new - g))
        z_new = dinv * g_new
        beta = max(0.0, float(_dot(g_new, z_new - z)) / max(gz, 1e-300))
        d = -z_new + beta * d
        x, f, g, z = x_new, f_new, g_new, z_new
        gz = float(_dot(g, z))
        gnorm = _norm(g)
        it += 1
    return x, f, it, gnorm, gnorm <= tol * (1.0 + abs(f))


def _linear_spd_solve(obj: _Objective, tol: float, max_iter: int):
    """p = 2: the energy is quadratic, so its minimizer solves one SPD system.

    With realization weights w (summing to 1) and zbar = sum_j w_j z_j, the
    stationarity conditions of all N realizations times w_i are the symmetric
    stacked system w_i [K(a_i + e) z_i - c K_1 zbar] = w_i b_i, e = 2 delta
    under either penalty and c = 2 delta under the variance penalty only
    (c = 0 otherwise), solved by one PCG.  Replacing K(a_i) by abar_i K_1,
    abar_i realization i's geometric-mean weight, gives the block-spectral
    preconditioner [diag(w (abar + e)) - c w w^T]^-1 (x) K_1^-1, exact when
    each realization's weight is constant.  w is folded into the stiffness
    edge weights and 1 / (w (abar + e)) into the spectral multiplier; for
    c > 0 the rank-one term is applied by Sherman-Morrison, elementwise and
    by `_dot`, never a dense inverse.
    """
    E, N, n = obj.E, obj.N, obj.n_dofs
    w, e = E.weights, 2.0 * E.delta  # delta > 0 means one of the two penalties
    c = e if obj.variance else 0.0
    rhs = np.broadcast_to(obj.load_red, (N, n))
    if E.gradient_offset is not None:
        flux = (obj.vol * E.coef)[..., None] * E.gradient_offset
        rhs = rhs - obj.constraint.reduce_adjoint(_gradient_adjoint(obj.mesh, flux))
    K = obj.stiffness(w[:, None] * (E.coef + e))
    abar = np.exp(np.log(E.coef).mean(axis=-1))
    q = 1.0 / (abar + e)  # D^-1 w, D = diag(w (abar + e))
    precond = _laplacian_inverse(obj.mesh, E.constraint, q / w)
    if c > 0:
        Kc = obj.stiffness(np.full(obj.mesh.n_elements, c))
        # Sherman-Morrison's 1 - c w^T D^-1 w is sum_i w_i abar_i q_i (c = e,
        # the weights sum to 1), which has no cancellation
        gamma_q = (c / float(_dot(w, abar * q)) * q)[:, None]

    def A(x: np.ndarray) -> np.ndarray:
        Z = x.reshape(N, n)
        KZ = K(Z)
        if c > 0:
            KZ = KZ - w[:, None] * Kc(_dot(w, Z))
        return KZ.ravel()

    def P(r: np.ndarray) -> np.ndarray:
        Y = precond(r.reshape(N, n))
        if c > 0:
            Y = Y + gamma_q * _dot(w, Y)
        return Y.ravel()

    x, iters, _, conv = _pcg(A, (w[:, None] * rhs).ravel(), tol, max_iter, P)
    return x, iters, conv


def _solve(E: EnergyFunctional, tol: float, max_iter: int) -> MinimizeResult:
    """Minimize E by linear CG (p = 2) or nonlinear CG; see `minimize`."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    obj = _Objective(E)
    if E.integrand.p == 2.0:
        x, iters, conv = _linear_spd_solve(obj, tol, max_iter)
        f, g = obj.value_and_grad(x)
        gnorm = _norm(g)
    else:
        x0 = np.zeros(obj.N * obj.n_dofs)
        x, f, iters, gnorm, conv = _ncg(
            obj.value_and_grad, x0, tol, max_iter, precond=obj.precond_diag()
        )
    values = obj.constraint.expand(obj.constraint.normalize(x.reshape(obj.N, obj.n_dofs)))
    fields = [DiscreteField(mesh=E.mesh, values=v, constraint=E.constraint) for v in values]
    mean_field = None
    if obj.N > 1:
        mv = _dot(E.weights, values)
        mean_field = DiscreteField(mesh=E.mesh, values=mv, constraint=E.constraint)
    return MinimizeResult(
        fields=fields,
        mean_field=mean_field,
        energy=float(f),
        iterations=iters,
        grad_norm=gnorm,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        converged=conv,
    )


def minimize(E: EnergyFunctional, tol: float = 1e-8, max_iter: int = 20_000) -> MinimizeResult:
    """Minimize the energy over its constrained fields.

    The energy picks the path, with no override: linear CG for p = 2 (one
    stacked, block-preconditioned system of all realizations), nonlinear CG
    otherwise.
    """
    return _solve(E, tol, max_iter)


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
    if not (np.isfinite(delta) and delta >= 0):
        raise ValueError("delta must be finite and nonnegative")
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
    converged: bool


def effective_integrand(
    ensemble: EnsembleSpec,
    L: int,
    integrand: IntegrandSpec,
    F_grid: Sequence[Sequence[float]],
    delta: float = 0.0,
    n_samples: int = 8,
    n_per_cell: int = 8,
    tol: float = 1e-9,
    max_iter: int = 50_000,
) -> list[EffectiveValue]:
    """Tabulate cell-problem values over an F grid, averaged over realizations."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rows = []
    for F in F_grid:
        cells = []
        for s in range(n_samples):
            r = sample_realization(ensemble, s)
            res = cell_problem(
                r, L, integrand, F, delta=delta, n_per_cell=n_per_cell, tol=tol, max_iter=max_iter
            )
            cells.append(res)
        arr = np.array([res.value for res in cells])
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
                iterations=sum(res.iterations for res in cells),
                grad_norm=max(res.grad_norm for res in cells),
                wall_ms=sum(res.wall_ms for res in cells),
                converged=all(res.converged for res in cells),
            )
        )
    return rows
