"""The lean p = 2 working set keeps every bit.

The PCG, the DST-I, the objective and the quenched pairing now update their
arrays in place and reuse buffers.  Each is checked with np.array_equal
against a copy of the allocating code it replaced, kept below as written
before the change.
"""

import math

import numpy as np
import pytest

import homoglab.solver as solver_mod
from homoglab import medium
from homoglab.integrand import FORM_DEGENERATE, IntegrandSpec, combined_weight
from homoglab.medium import (
    DiscreteValues,
    EnsembleSpec,
    UniformValues,
    eval_coefficient,
    periodize,
    sample_realization,
)
from homoglab.meshing import (
    DIRICHLET_ZERO,
    PERIODIC_MEAN_ZERO,
    DiscreteField,
    _dot,
    _gradient_adjoint,
    _to_nodes,
    build_mesh,
)
from homoglab.solver import EnergyFunctional, assemble_energy
from homoglab.twoscale import build_dictionary, quenched_pairing

CB1 = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)
CB2 = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)
UNI2 = EnsembleSpec(dimension=2, cells=UniformValues(0.5, 3.0), seed=4)
PER2 = EnsembleSpec(dimension=2, cells=UniformValues(0.5, 3.0), period=3, seed=8)


# ------------------------------------------------ the code before, verbatim ----


def _norm_powers_before(g, p):
    sq = g[..., 0] * g[..., 0]
    if g.shape[-1] == 2:
        sq += g[..., 1] * g[..., 1]
    with np.errstate(divide="ignore"):
        s = np.power(sq, 0.5 * p - 1.0)
    s[sq == 0] = 0.0
    return sq, s


def _scaled_before(s, g):
    out = np.empty(g.shape)
    for a in range(g.shape[-1]):
        np.multiply(s, g[..., a], out=out[..., a])
    return out


def _value_and_grad_before(obj, x):
    E = obj.E
    p = E.integrand.p
    Z = x.reshape(obj.N, obj.n_dofs)
    graw = obj.mesh.element_gradients(obj.constraint.expand(Z))
    g = graw
    if E.gradient_offset is not None:
        if obj.corrector:
            g = graw + E.gradient_offset[None]
        else:
            g += E.gradient_offset[None]
    w = obj.w
    sq, s = _norm_powers_before(g, p)
    ws = (obj.w * E.coef) * s
    value = float(_dot(ws.ravel(), sq.ravel())) / p
    dV = _scaled_before(ws, g)
    if obj.variance:
        dev = g - _dot(E.weights, g)
        sq, s = _norm_powers_before(dev, p)
        value += E.delta * float(_dot((w * s).ravel(), sq.ravel()))
        pen = _scaled_before(s, dev)
        dV += _scaled_before((E.delta * p) * w, pen - _dot(E.weights, pen))
    elif obj.corrector:
        sq, s = _norm_powers_before(graw, p)
        ws = w * s
        value += E.delta * float(_dot(ws.ravel(), sq.ravel()))
        dV += _scaled_before((E.delta * p) * ws, graw)
    grad = obj.constraint.reduce_adjoint(_gradient_adjoint(obj.mesh, dV))
    if obj.loaded:
        wl = E.weights * E.scale
        value -= float(_dot(wl, _dot(Z, obj.load_red)))
        grad -= np.outer(wl, obj.load_red)
    if not np.isfinite(value):
        raise FloatingPointError("energy evaluated to a non-finite value")
    return value, grad.ravel()


def _dst1_before(x):
    m = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1 : m + 1]


def _laplacian_inverse_before(mesh, kind, scale=1.0):
    n, d = mesh.n, mesh.dimension
    hd = mesh.h ** (d - 2)
    if kind == DIRICHLET_ZERO:
        shape = (n - 1,) * d
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n)
        eig = hd * sum(np.ix_(*([lam] * d)))
        inv = np.multiply.outer(scale, (2.0 / n) ** d / eig)

        def transform(y):
            for _ in range(d):
                y = _dst1_before(y)
                if d == 2:
                    y = y.swapaxes(-1, -2)
            return y

        def apply(r):
            return transform(transform(r.reshape(r.shape[:-1] + shape)) * inv).reshape(r.shape)

        return apply
    shape = (n,) * d
    axes = tuple(range(-d, 0))
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    grids = [lam] * (d - 1) + [lam[: n // 2 + 1]]
    eig = hd * sum(np.ix_(*grids))
    inv = np.zeros_like(eig)
    np.divide(1.0, eig, out=inv, where=eig > 0)
    inv = np.multiply.outer(scale, inv)

    def apply(r):
        y = np.fft.rfftn(r.reshape(r.shape[:-1] + shape), axes=axes) * inv
        return np.fft.irfftn(y, s=shape, axes=axes).reshape(r.shape)

    return apply


def _stiffness_before(obj, w):
    edges = obj._edge_weights(w)
    grid = (obj.mesh.n + 1,) * obj.d

    def apply(z):
        lead = z.shape[:-1]
        u = obj.constraint.expand(z).reshape(lead + grid)
        Ku = _to_nodes([c * np.diff(u, axis=-1 - a) for a, c in enumerate(edges)])
        return obj.constraint.reduce_adjoint(Ku.reshape(lead + (-1,)))

    return apply


def _pcg_before(A, b, tol, max_iter, precond):
    bnorm = solver_mod._norm(b)
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
        rnorm = solver_mod._norm(r)
        if rnorm <= tol * bnorm:
            return x, it, rnorm, True
        if not np.isfinite(rnorm):
            return x, it, rnorm, False
        z = precond(r)
        rz_new = float(_dot(r, z))
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return x, it, rnorm, False


def _linear_spd_solve_before(obj, tol, max_iter):
    E, N, n = obj.E, obj.N, obj.n_dofs
    w, e = E.weights, 2.0 * E.delta
    c = e if obj.variance else 0.0
    rhs = np.broadcast_to(obj.load_red, (N, n))
    if E.gradient_offset is not None:
        flux = (obj.vol * E.coef)[..., None] * E.gradient_offset
        rhs = rhs - obj.constraint.reduce_adjoint(_gradient_adjoint(obj.mesh, flux))
    K = _stiffness_before(obj, w[:, None] * (E.coef + e))
    abar = np.exp(np.log(E.coef).mean(axis=-1))
    q = 1.0 / (abar + e)
    precond = _laplacian_inverse_before(obj.mesh, E.constraint, q / w)
    if c > 0:
        Kc = _stiffness_before(obj, np.full(obj.mesh.n_elements, c))
        gamma_q = (c / float(_dot(w, abar * q)) * q)[:, None]

    def A(x):
        Z = x.reshape(N, n)
        KZ = K(Z)
        if c > 0:
            KZ = KZ - w[:, None] * Kc(_dot(w, Z))
        return KZ.ravel()

    def P(r):
        Y = precond(r.reshape(N, n))
        if c > 0:
            Y = Y + gamma_q * _dot(w, Y)
        return Y.ravel()

    x, iters, _, conv = _pcg_before(A, (w[:, None] * rhs).ravel(), tol, max_iter, P)
    return x, iters, conv


def _g_indicator_before(vals, target):
    return (np.abs(vals[0] - target) < 1e-12).astype(float)


def _eval_coefficient_before(r, x):
    pts = np.asarray(x, dtype=float)
    flat = pts.reshape(-1, r.dimension)
    cells = []
    for a, (t, y) in enumerate(zip(r.translation, r.offset)):
        c = flat[:, a] + t
        c -= y
        cells.append(np.floor(c, out=c).astype(np.int64))
    n = len(flat)
    lo = [int(c.min()) for c in cells]
    extent = [int(c.max()) - l + 1 for c, l in zip(cells, lo)]
    if math.prod(extent) <= n:
        box = [
            np.arange(l, l + e).reshape((e,) + (1,) * (r.dimension - 1 - a))
            for a, (l, e) in enumerate(zip(lo, extent))
        ]
        table = medium._cell_values(r.spec.cells, r.seed, r.period, box).ravel()
        index = cells[0]
        index -= lo[0]
        for c, l, e in zip(cells[1:], lo[1:], extent[1:]):
            index *= e
            index += c
            index -= l
        vals = table.take(index)
    else:
        vals = medium._cell_values(r.spec.cells, r.seed, r.period, cells)
    return vals.reshape(pts.shape[:-1])


def _observable_values_before(observables, r, shifts):
    probe_vals, out = {}, {}
    for obs in observables:
        if obs.name in out:
            continue
        if not obs.probes:
            out[obs.name] = obs.evaluate(r, shifts)
            continue
        if obs.probes not in probe_vals:
            pts = np.stack([shifts + np.asarray(z, dtype=float) for z in obs.probes])
            probe_vals[obs.probes] = _eval_coefficient_before(r, pts)
        g = _g_indicator_before if obs.g is medium._g_indicator else obs.g
        out[obs.name] = g(probe_vals[obs.probes], *obs.g_args)
    return out


def _quenched_pairing_before(u, r, eps, dico, include_gradient):
    from homoglab.twoscale import _cosine_table, _field_blocks

    mesh = u.mesh
    blocks = _field_blocks(u, include_gradient)
    ovals = _observable_values_before([e.obs for e in dico.entries], r, mesh.barycenters / eps)
    vals = np.empty((len(blocks), len(dico)))
    for name, ov in ovals.items():
        obs_block = ov * blocks
        for j, e in enumerate(dico.entries):
            if e.obs.name == name:
                vals[:, j] = _dot(obs_block, _cosine_table(mesh, e.cos_k))
    norm = float(_dot(np.abs(blocks) ** dico.p, mesh.volumes).sum()) ** (1.0 / dico.p)
    return (vals * mesh.volumes[0]).ravel(), norm


# ------------------------------------------------------------------ cases ----


def _energy(d, n, p, penalty, N=1, load=1.0):
    """A stacked energy: Dirichlet with a load, or (corrector/offset) a torus
    cell energy with a gradient offset; penalty None, "variance" or "corrector"."""
    ens = CB1 if d == 1 else CB2
    integrand = IntegrandSpec(p=p)
    if penalty in ("corrector", "offset"):
        L = 3
        r = periodize(sample_realization(ens, 0), L)
        mesh = build_mesh(d, n, size=float(L))
        F = np.array([1.0, -0.5][:d])
        return EnergyFunctional(
            realizations=[r],
            weights=np.ones(1),
            eps=1.0,
            mesh=mesh,
            integrand=integrand,
            coef=combined_weight(integrand, r, mesh.barycenters)[None, :],
            load_values=np.zeros(mesh.n_elements),
            delta=0.3 if penalty == "corrector" else 0.0,
            constraint=PERIODIC_MEAN_ZERO,
            gradient_offset=np.broadcast_to(F, (mesh.n_elements, d)).copy(),
            penalty="corrector",
            scale=1.0 / L**d,
        )
    reals = [sample_realization(ens, i) for i in range(N)]
    delta = 0.25 if penalty == "variance" else 0.0
    return assemble_energy(reals, 1 / 4, build_mesh(d, n), integrand, load=load, delta=delta)


_OBJECTIVE_CASES = [
    (d, p, penalty, N)
    for d in (1, 2)
    for p in (1.5, 2.0, 3.0)
    for penalty, N in ((None, 1), (None, 3), ("variance", 3), ("offset", 1), ("corrector", 1))
]


class TestObjective:
    @pytest.mark.parametrize("d,p,penalty,N", _OBJECTIVE_CASES)
    def test_value_and_grad_matches_allocating_code(self, d, p, penalty, N):
        obj = solver_mod._Objective(_energy(d, 24 if d == 2 else 64, p, penalty, N))
        rng = np.random.default_rng(7)
        for x in (rng.normal(size=obj.N * obj.n_dofs), np.zeros(obj.N * obj.n_dofs)):
            f, g = obj.value_and_grad(x.copy())
            f0, g0 = _value_and_grad_before(obj, x.copy())
            assert f == f0 and np.array_equal(g, g0)


class TestLinearSolve:
    @pytest.mark.parametrize(
        "d,n,penalty,N",
        [
            (d, n, penalty, N)
            for d, n in ((1, 512), (2, 48))
            for penalty, N in ((None, 1), (None, 3), ("variance", 3), ("offset", 1))
        ]
        + [(2, 191, None, 1)],  # several DST blocks per pass
    )
    def test_pcg_solution_and_iterations(self, d, n, penalty, N):
        obj = solver_mod._Objective(_energy(d, n, 2.0, penalty, N))
        x, iters, conv = solver_mod._linear_spd_solve(obj, 1e-10, 500)
        x0, iters0, conv0 = _linear_spd_solve_before(obj, 1e-10, 500)
        assert conv and conv0 and iters == iters0 and np.array_equal(x, x0)

    def test_pcg_on_returned_arrays(self):
        # operators that return fresh arrays, as the test callables do
        rng = np.random.default_rng(3)
        M = rng.normal(size=(30, 30))
        A = M @ M.T + 30 * np.eye(30)
        b = rng.normal(size=30)
        dinv = 1.0 / np.diag(A)
        new = solver_mod._pcg(lambda v: A @ v, b.copy(), 1e-12, 200, lambda r: dinv * r)
        old = _pcg_before(lambda v: A @ v, b.copy(), 1e-12, 200, lambda r: dinv * r)
        assert new[1:] == old[1:] and np.array_equal(new[0], old[0])

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", [DIRICHLET_ZERO, PERIODIC_MEAN_ZERO])
    def test_operators_match(self, d, kind):
        mesh = build_mesh(d, 40 if d == 2 else 300)
        E = assemble_energy([sample_realization(CB2 if d == 2 else CB1, 0)], 1 / 4, mesh, IntegrandSpec(2.0))
        E.constraint = kind
        obj = solver_mod._Objective(E)
        r = np.random.default_rng(5).normal(size=(3, obj.n_dofs))
        scale = np.array([1.0, 0.5, 3.0])
        P, P0 = solver_mod._laplacian_inverse(mesh, kind, scale), _laplacian_inverse_before(mesh, kind, scale)
        K, K0 = obj.stiffness(E.coef), _stiffness_before(obj, E.coef)
        out = np.empty_like(r)
        assert np.array_equal(P(r), P0(r)) and np.array_equal(P(r, out=out), P0(r))
        assert np.array_equal(K(r), K0(r)) and np.array_equal(K(r, out=out), K0(r))


class TestDST:
    @pytest.mark.parametrize("shape", [(7,), (5, 64), (2, 191, 191), (1, 9, 9)])
    def test_matches_concatenating_code(self, shape):
        x = np.random.default_rng(1).normal(size=shape)
        assert np.array_equal(solver_mod._dst1(x), _dst1_before(x))

    def test_blocks_views_and_in_place(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_DST_BLOCK", 100)  # 3 rows per block at m = 15
        x = np.random.default_rng(2).normal(size=(2, 15, 15))
        view = x.swapaxes(-1, -2)
        expect = _dst1_before(view)
        assert np.array_equal(solver_mod._dst1(view), expect)
        solver_mod._dst1(view, out=view)
        assert np.array_equal(view, expect)


class TestPairing:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("include_gradient", [False, True])
    def test_pairing_vector_matches(self, d, include_gradient):
        ens = CB1 if d == 1 else CB2
        n = 96 if d == 1 else 24
        dico = build_dictionary(ens, 2, 2, 2.0, max_entries=24)
        r = sample_realization(ens, 3)
        E = assemble_energy([r], 1 / 4, build_mesh(d, n), IntegrandSpec(2.0), load=1.0)
        u = solver_mod.minimize(E).fields[0]
        pv = quenched_pairing(u, r, 1 / 4, dico, include_gradient=include_gradient)
        values, norm = _quenched_pairing_before(u, r, 1 / 4, dico, include_gradient)
        assert np.array_equal(pv.values, values) and pv.norm == norm

    def test_norm_at_p_other_than_2(self):
        dico = build_dictionary(CB2, 1, 1, 1.5, max_entries=6)
        r = sample_realization(CB2, 1)
        u = DiscreteField(build_mesh(2, 16), np.random.default_rng(4).normal(size=17 * 17))
        pv = quenched_pairing(u, r, 1 / 4, dico, include_gradient=True)
        values, norm = _quenched_pairing_before(u, r, 1 / 4, dico, True)
        assert np.array_equal(pv.values, values) and pv.norm == norm

    @pytest.mark.parametrize("ens", [CB2, UNI2, PER2])
    def test_eval_coefficient_matches(self, ens):
        r = sample_realization(ens, 2)
        pts = np.random.default_rng(6).uniform(-20, 20, size=(3, 500, 2))
        assert np.array_equal(eval_coefficient(r, pts), _eval_coefficient_before(r, pts))
        few = pts[0, :3]  # more cells than points: no box table
        assert np.array_equal(eval_coefficient(r, few), _eval_coefficient_before(r, few))


def test_degenerate_weight_pairing_unchanged():
    # the indicator observables of a two-valued weight field
    lam = EnsembleSpec(dimension=2, cells=DiscreteValues((0.05, 1.0), (0.5, 0.5)), seed=2)
    spec = IntegrandSpec(p=2.0, form=FORM_DEGENERATE, lambda_cells=lam)
    dico = build_dictionary(CB2, 2, 1, 2.0, max_entries=20)
    r = sample_realization(CB2, 0)
    E = assemble_energy([r], 1 / 4, build_mesh(2, 20), spec, load=1.0)
    u = solver_mod.minimize(E).fields[0]
    pv = quenched_pairing(u, r, 1 / 4, dico)
    values, norm = _quenched_pairing_before(u, r, 1 / 4, dico, False)
    assert np.array_equal(pv.values, values) and pv.norm == norm
