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
(constrained) variables, preconditioned by the same block-spectral inverse
(`_Objective.block_inverse`), not a diagonal, so their iteration count barely
grows with the mesh either.  Every inner product, norm and quadrature
sum goes through the fixed-order `meshing._dot`, never BLAS, so results do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .integrand import IntegrandSpec, _norm_powers, _scaled, combined_weight
from .medium import EnsembleSpec, Realization, periodize, sample_realization
from .meshing import (
    DIRICHLET_ZERO,
    PERIODIC_MEAN_ZERO,
    Constraint,
    DiscreteField,
    Mesh,
    _along,
    _dot,
    _gradient_adjoint,
    _leg_sums,
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
        # the penalties' p = 2 Hessian terms e and c (see `block_inverse`)
        self.e = 2.0 * E.delta
        self.c = self.e if self.variance else 0.0
        # reduced load vector (shared): each vertex gets 1/(d+1) of its elements' vol * f
        weights = (self.vol * E.load_values) * (1.0 / (self.d + 1))
        self.load_red = self.constraint.reduce_adjoint(_vertex_sum(self.d, E.mesh.n, weights))
        self.loaded = bool(self.load_red.any())
        # realization weight, element volume and scale folded into one factor
        self.w = (E.weights * (self.vol0 * E.scale))[:, None]

    @cached_property
    def w_coef(self) -> np.ndarray:
        """w times the coefficients, made on the first evaluation: a p = 2
        solve needs it only for its closing one, after the PCG."""
        return self.w * self.E.coef

    def _edge_weights(self, w: np.ndarray) -> list[np.ndarray]:
        """Per-axis edge weights: vol * w / h^2 summed over the elements with that leg."""
        a = (self.vol * w / self.mesh.h**2)[..., None]
        return _leg_sums(self.mesh, np.broadcast_to(a, a.shape[:-1] + (self.d,)))

    def stiffness(self, w: np.ndarray) -> Callable[..., np.ndarray]:
        """Matvec of the reduced P1 stiffness of the element weights w (..., n_elements).

        A leading realization axis of w applies realization i's stiffness to
        row i.  `apply(z, out=None)` writes into `out` when given.  The edge
        fluxes of one axis at a time go onto one node buffer, in `_to_nodes`'
        order.
        """
        edges = self._edge_weights(w)
        grid = (self.mesh.n + 1,) * self.d

        def apply(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            lead = z.shape[:-1]
            u = self.constraint.expand(z).reshape(lead + grid)
            Ku = np.zeros(u.shape)
            for a, c in enumerate(edges):
                flux = np.diff(u, axis=-1 - a)
                flux *= c
                Ku[_along(-1 - a, slice(None, -1))] -= flux
                Ku[_along(-1 - a, slice(1, None))] += flux
                del flux  # before the next axis makes its own
            return self.constraint.reduce_adjoint(Ku.reshape(lead + (-1,)), out=out)

        return apply

    def block_inverse(
        self, scale: float = 1.0, out: np.ndarray | None = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Block-spectral inverse P of the stacked p = 2 system, times 1 / scale.

        With realization weights w (summing to 1), e = 2 delta under either
        penalty and c = 2 delta under the variance penalty only, the p = 2
        Hessian is w_i [K(a_i + e) z_i - c K_1 zbar], zbar = sum_j w_j z_j.
        Replacing K(a_i) by abar_i K_1, abar_i realization i's geometric-mean
        weight, gives P = [diag(w (abar + e)) - c w w^T]^-1 (x) K_1^-1, exact
        when each realization's weight is constant.  1 / (w scale (abar + e))
        goes into the spectral multiplier; for c > 0 the rank-one term is
        applied by Sherman-Morrison, elementwise and by `_dot`, never a dense
        inverse.  `P(r)` takes the stacked vector and returns it flat, written
        into `out` when given, else into a new array.
        """
        E, N, n, e, c = self.E, self.N, self.n_dofs, self.e, self.c
        w = E.weights
        abar = np.exp(np.log(E.coef).mean(axis=-1))
        q = 1.0 / (abar + e)  # D^-1 w, D = diag(w (abar + e))
        spectral = _laplacian_inverse(self.mesh, E.constraint, q / (w * scale))
        if c > 0:
            # Sherman-Morrison's 1 - c w^T D^-1 w is sum_i w_i abar_i q_i (c = e,
            # the weights sum to 1), which has no cancellation
            gamma_q = (c / float(_dot(w, abar * q)) * q)[:, None]

        def P(r: np.ndarray) -> np.ndarray:
            z = spectral(r.reshape(N, n), out=out)
            if c > 0:
                np.add(z, gamma_q * _dot(w, z), out=z)
            return z.ravel()

        return P

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        E = self.E
        p = E.integrand.p
        Z = x.reshape(self.N, self.n_dofs)
        graw = self.mesh.element_gradients(self.constraint.expand(Z))  # (N, n_elements, d)
        g = graw
        if E.gradient_offset is not None:
            if self.corrector:  # its penalty reads graw below
                g = graw + E.gradient_offset[None]
            else:
                g += E.gradient_offset[None]
        w = self.w
        sq, ws = _norm_powers(g, p)
        ws *= self.w_coef  # w a |g|^(p-2): dV/dg = ws g, V = ws |g|^2 / p
        value = float(_dot(ws.ravel(), sq.ravel())) / p
        if self.variance:
            dev = g - _dot(E.weights, g)
        # the element arrays are overwritten once read: dV takes g's place
        dV = _scaled(ws, g, out=g)
        del sq, ws
        if self.variance:
            sq, s = _norm_powers(dev, p)
            value += E.delta * float(_dot((w * s).ravel(), sq.ravel()))
            pen = _scaled(s, dev, out=dev)
            dV += _scaled((E.delta * p) * w, pen - _dot(E.weights, pen))
        elif self.corrector:  # delta |grad phi|^p (offset excluded)
            sq, ws = _norm_powers(graw, p)
            ws *= w
            value += E.delta * float(_dot(ws.ravel(), sq.ravel()))
            ws *= E.delta * p
            dV += _scaled(ws, graw, out=graw)
        # chain rule back to reduced dofs
        grad = self.constraint.reduce_adjoint(_gradient_adjoint(self.mesh, dV))
        if self.loaded:
            wl = E.weights * E.scale
            value -= float(_dot(wl, _dot(Z, self.load_red)))
            grad -= np.outer(wl, self.load_red)
        if not np.isfinite(value):
            raise FloatingPointError("energy evaluated to a non-finite value")
        return value, grad.ravel()


# odd-extension entries per DST-I block, which bounds `_dst1`'s buffers
_DST_BLOCK = 32768


def _dst1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized DST-I along the last axis: y_k = sum_j x_j sin(pi j k / (m + 1)).

    x has at most 3 axes and may be a strided view.  Its rows go through in
    blocks of at most `_DST_BLOCK` odd-extension entries [0, x, 0, -x reversed],
    filled into one reused buffer, and each block's result goes to the same
    rows of `out`, which may be x itself.
    """
    m = x.shape[-1]
    if out is None:
        out = np.empty(x.shape)
    lead = (1,) * (3 - x.ndim)
    rows_in, rows_out = x.reshape(lead + x.shape), out.reshape(lead + x.shape)
    per_block = max(1, _DST_BLOCK // (2 * m + 2))
    odd = np.empty((min(per_block, rows_in.shape[1]), 2 * m + 2))
    odd[:, 0] = 0.0
    odd[:, m + 1] = 0.0
    for src, dst in zip(rows_in, rows_out):
        for start in range(0, len(src), per_block):
            block = src[start : start + per_block]
            k = len(block)
            odd[:k, 1 : m + 1] = block
            np.negative(block[:, ::-1], out=odd[:k, m + 2 :])
            spectrum = np.fft.rfft(odd[:k], axis=-1)
            np.multiply(spectrum.imag[:, 1 : m + 1], -0.5, out=dst[start : start + k])
    return out


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

        # DST-I of src into y along the last axis, then in place along the
        # one before it (d = 2)
        def transform(src: np.ndarray, y: np.ndarray) -> None:
            _dst1(src, out=y)
            if d == 2:
                _dst1(y.swapaxes(-1, -2), out=y.swapaxes(-1, -2))

        def apply(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if out is None:
                out = np.empty(r.shape)
            y = out.reshape(r.shape[:-1] + shape)
            transform(r.reshape(y.shape), y)
            y *= inv
            transform(y, y)
            return out

        return apply
    shape = (n,) * d
    axes = tuple(range(-d, 0))
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    grids = [lam] * (d - 1) + [lam[: n // 2 + 1]]  # rfftn halves the last axis
    eig = hd * sum(np.ix_(*grids))
    inv = np.zeros_like(eig)
    np.divide(1.0, eig, out=inv, where=eig > 0)
    inv = np.multiply.outer(scale, inv)

    def apply(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = np.fft.rfftn(r.reshape(r.shape[:-1] + shape), axes=axes)
        y *= inv
        x = np.fft.irfftn(y, s=shape, axes=axes).reshape(r.shape)
        if out is None:
            return x
        np.copyto(out, x)
        return out

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

    The iteration updates x, the residual and the search direction in place.
    b becomes the residual.  The arrays `A` and `precond` return are read
    before the next call of either and then used as scratch, so both may
    return one shared buffer: the working set is four vectors.
    """
    bnorm = _norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0, True
    if not np.isfinite(bnorm):
        return x, 0, bnorm, False
    r = b
    rnorm = bnorm
    z = precond(r)
    pvec = z.copy()
    rz = float(_dot(r, z))
    it = 0
    while it < max_iter:
        Ap = A(pvec)
        alpha = rz / float(_dot(pvec, Ap))
        Ap *= alpha
        r -= Ap
        x += np.multiply(pvec, alpha, out=Ap)
        it += 1
        rnorm = _norm(r)
        if rnorm <= tol * bnorm:
            return x, it, rnorm, True
        if not np.isfinite(rnorm):
            return x, it, rnorm, False
        z = precond(r)
        rz_new = float(_dot(r, z))
        pvec *= rz_new / rz
        pvec += z
        rz = rz_new
    return x, it, rnorm, False


def _ncg(fun, x0: np.ndarray, tol: float, max_iter: int, precond: Callable[..., np.ndarray]):
    """Polak-Ribiere nonlinear CG with restarts and Armijo backtracking.

    The first trial step comes from a Barzilai-Borwein estimate; one quadratic
    interpolation along the search direction sharpens it (exact line search on
    quadratic energies), then Armijo backtracking (c = 1e-4, factor 0.5)
    guards the decrease.  The descent direction is z = precond(g), here the
    block-spectral inverse of the p = 2 Hessian, not a diagonal.  z is held
    beside the next one, so `precond` must return a new array per call.
    """
    x = x0.copy()
    f, g = fun(x)
    gnorm = _norm(g)
    z = precond(g)
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
        z_new = precond(g_new)
        beta = max(0.0, float(_dot(g_new, z_new - z)) / max(gz, 1e-300))
        d = -z_new + beta * d
        x, f, g, z = x_new, f_new, g_new, z_new
        gz = float(_dot(g, z))
        gnorm = _norm(g)
        it += 1
    return x, f, it, gnorm, gnorm <= tol * (1.0 + abs(f))


def _linear_spd_solve(obj: _Objective, tol: float, max_iter: int):
    """p = 2: the energy is quadratic, so its minimizer solves one SPD system.

    The stationarity conditions of all N realizations times their weights w
    are the symmetric stacked system w_i [K(a_i + e) z_i - c K_1 zbar] =
    w_i b_i of `_Objective.block_inverse`, solved by one PCG preconditioned
    by that block inverse; w is folded into the stiffness edge weights.
    """
    E, N, n, c = obj.E, obj.N, obj.n_dofs, obj.c
    w = E.weights
    rhs = np.broadcast_to(obj.load_red, (N, n))
    if E.gradient_offset is not None:
        flux = (obj.vol * E.coef)[..., None] * E.gradient_offset
        rhs = rhs - obj.constraint.reduce_adjoint(_gradient_adjoint(obj.mesh, flux))
    K = obj.stiffness(w[:, None] * (E.coef + obj.e))
    if c > 0:
        Kc = obj.stiffness(np.full(obj.mesh.n_elements, c))

    # the one buffer both operators write into (see `_pcg`)
    out = np.empty((N, n))

    def A(x: np.ndarray) -> np.ndarray:
        Z = x.reshape(N, n)
        K(Z, out=out)
        if c > 0:
            np.subtract(out, w[:, None] * Kc(_dot(w, Z)), out=out)
        return out.ravel()

    P = obj.block_inverse(out=out)
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
            obj.value_and_grad, x0, tol, max_iter, obj.block_inverse(scale=E.scale)
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
        # F repeated per element: adding a (d,) offset runs a length-d inner
        # loop, about 11x slower per evaluation at 10^4 elements
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
