"""Energy assembly, minimization paths, cell problems, effective integrands."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import gmean

import homoglab.solver as solver_mod
from homoglab.integrand import FORM_DEGENERATE, IntegrandSpec, combined_weight
from homoglab.medium import DiscreteValues, EnsembleSpec, periodize, sample_realization
from homoglab.meshing import _gradient_adjoint, build_mesh
from homoglab.solver import (
    assemble_energy,
    cell_problem,
    effective_integrand,
    minimize,
)

from exact1d import cell_energy, dirichlet_energy
from triangulation import triangulation

V2 = IntegrandSpec(p=2.0)
ONE1 = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0,), (1.0,)), seed=1)
CB1 = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)
CB2 = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)


def unit_realization(d=1):
    spec = ONE1 if d == 1 else EnsembleSpec(
        dimension=2, cells=DiscreteValues((1.0,), (1.0,)), seed=1
    )
    return sample_realization(spec, 0)


class TestAssembly:
    def test_zero_field_zero_energy(self):
        mesh = build_mesh(1, 8)
        E = assemble_energy([unit_realization()], 1.0, mesh, V2, load=0.0)
        obj = solver_mod._Objective(E)
        f, g = obj.value_and_grad(np.zeros(obj.n_dofs))
        assert f == 0.0 and np.all(g == 0.0)

    def test_hat_function_hand_value(self):
        # a=1, p=2, d=1, n=4, unit hat at the midnode: energy 4
        mesh = build_mesh(1, 4)
        E = assemble_energy([unit_realization()], 1.0, mesh, V2)
        obj = solver_mod._Objective(E)
        z = np.zeros(obj.n_dofs)
        z[1] = 1.0  # midnode of the three interior nodes
        f, _ = obj.value_and_grad(z)
        assert f == pytest.approx(4.0, abs=1e-14)

    def test_identical_fields_kill_variance_term(self):
        reals = [sample_realization(CB1, i) for i in range(3)]
        mesh = build_mesh(1, 32)
        E0 = assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=0.0)
        E1 = assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=7.0)
        o0, o1 = solver_mod._Objective(E0), solver_mod._Objective(E1)
        rng = np.random.default_rng(0)
        z = rng.normal(size=o0.n_dofs)
        Z = np.tile(z, 3)
        assert o1.value_and_grad(Z)[0] == pytest.approx(o0.value_and_grad(Z)[0], abs=1e-13)

    def test_validation(self):
        mesh = build_mesh(1, 8)
        with pytest.raises(ValueError):
            assemble_energy([], 1.0, mesh, V2)
        with pytest.raises(ValueError):
            assemble_energy([unit_realization()], -1.0, mesh, V2)
        with pytest.raises(ValueError, match="at least 2 realizations"):
            assemble_energy([unit_realization()], 1.0, mesh, V2, delta=0.5)

    def test_warns_when_mesh_unresolved(self):
        mesh = build_mesh(1, 8)
        with pytest.warns(UserWarning):
            assemble_energy([unit_realization()], 1 / 64, mesh, V2)


def _reference_value_and_grad(obj, x):
    """The objective written out with np.linalg.norm and masked powers."""
    E, mesh = obj.E, obj.mesh
    p, vol = E.integrand.p, mesh.volumes
    Z = x.reshape(obj.N, obj.n_dofs)
    graw = mesh.element_gradients(obj.constraint.expand(Z))
    g = graw if E.gradient_offset is None else graw + E.gradient_offset

    def power_terms(h, c):
        """sum_i w_i sum_e vol_e c |h|^p / p and d/dh of the summand."""
        hn = np.linalg.norm(h, axis=-1)
        s = np.zeros_like(hn)
        nz = hn > 0
        s[nz] = np.broadcast_to(c, hn.shape)[nz] * hn[nz] ** (p - 2.0)
        return float(E.weights @ ((c / p) * hn**p @ vol)), s[..., None] * h

    value, dV = power_terms(g, E.coef)
    if obj.variance:
        dev = g - np.tensordot(E.weights, g, axes=(0, 0))
        pv, pen = power_terms(dev, p)
        value += E.delta * pv
        dV = dV + E.delta * (pen - np.tensordot(E.weights, pen, axes=(0, 0)))
    elif obj.corrector:
        pv, pen = power_terms(graw, p)
        value += E.delta * pv
        dV = dV + E.delta * pen
    nodal = _gradient_adjoint(mesh, vol[None, :, None] * dV)
    grad = E.weights[:, None] * obj.constraint.reduce_adjoint(nodal)
    value -= float(E.weights @ (Z @ obj.load_red))
    grad -= np.outer(E.weights, obj.load_red)
    return value * E.scale, (grad * E.scale).ravel()


def _penalized_energy(d, p, penalty):
    """Three coupled Dirichlet realizations with a load, or one torus cell."""
    spec = CB1 if d == 1 else CB2
    V = IntegrandSpec(p=p)
    mesh = build_mesh(d, 16 if d == 1 else 8, size=2.0)
    if penalty == "variance":
        reals = [sample_realization(spec, i) for i in range(3)]
        return assemble_energy(reals, 1.0, mesh, V, load=1.0, delta=0.7)
    r = periodize(sample_realization(spec, 0), 2)
    return solver_mod.EnergyFunctional(
        realizations=[r],
        weights=np.ones(1),
        eps=1.0,
        mesh=mesh,
        integrand=V,
        coef=combined_weight(V, r, mesh.barycenters)[None, :],
        load_values=np.zeros(mesh.n_elements),
        delta=0.7,
        constraint="periodic-mean-zero",
        gradient_offset=np.broadcast_to(np.ones(d), (mesh.n_elements, d)).copy(),
        penalty="corrector",
        scale=0.25,
    )


class TestObjective:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("penalty", ["variance", "corrector"])
    def test_matches_reference_with_zero_element_gradients(self, d, p, penalty):
        obj = solver_mod._Objective(_penalized_energy(d, p, penalty))
        assert obj.variance == (penalty == "variance")
        assert obj.corrector == (penalty == "corrector")
        Z = np.random.default_rng(int(10 * p) + d).normal(size=(obj.N, obj.n_dofs))
        # a flat band of leading dofs: exactly zero gradients on the elements
        # between it and the boundary (zero trace) or inside it (torus)
        Z[:, : obj.n_dofs // 3] = 0.0
        x = Z.ravel()
        f, g = obj.value_and_grad(x)
        f_ref, g_ref = _reference_value_and_grad(obj, x)
        raw = obj.mesh.element_gradients(obj.constraint.expand(Z))
        assert np.any(np.all(raw == 0.0, axis=-1))
        assert abs(f - f_ref) <= 1e-13 * abs(f_ref)
        assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()


class TestMinimize:
    def test_1d_poisson_closed_form(self):
        # -u'' = 1 on (0,1), u(0)=u(1)=0: min of (1/2)int u'^2 - int u is -1/24
        mesh = build_mesh(1, 128)
        E = assemble_energy([unit_realization()], 1.0, mesh, V2, load=1.0)
        res = minimize(E, tol=1e-12)
        assert res.converged
        assert res.energy == pytest.approx(-1.0 / 24.0, abs=2e-5)

    def test_zero_load_zero_minimizer(self):
        for eps in (1.0, 1 / 8):
            mesh = build_mesh(1, 64)
            E = assemble_energy([sample_realization(CB1, 0)], eps, mesh, V2)
            res = minimize(E)
            assert res.energy == 0.0
            assert np.all(res.fields[0].values == 0.0)

    def test_mesh_refinement_second_order(self):
        # constant medium, d=1: discrete minimum converges at h^2 in energy
        exact = -1.0 / 24.0
        errs = []
        for n in (8, 16, 32, 64):
            mesh = build_mesh(1, n)
            E = assemble_energy([unit_realization()], 1.0, mesh, V2, load=1.0)
            errs.append(minimize(E, tol=1e-13).energy - exact)
        errs = np.asarray(errs)
        assert np.all(errs > 0)  # conforming approximation from above
        rates = np.log2(errs[:-1] / errs[1:])
        assert np.all(np.abs(rates - 2.0) < 0.1)

    def test_coupled_identical_realizations_match_spsolve(self):
        # three identical realizations under a variance penalty take the
        # coupled linear path; the penalty vanishes at their common minimizer,
        # so the energy is the single realization's direct-solve energy
        r = sample_realization(CB2, 0)
        mesh = build_mesh(2, 32)
        E = assemble_energy([r, r, r], 1 / 8, mesh, V2, load=1.0, delta=0.5)
        assert solver_mod._Objective(E).variance
        res = minimize(E, tol=1e-10)
        assert res.converged
        exact = _spsolve_dirichlet_energy(mesh, E.coef[0])
        assert abs(res.energy - exact) <= 1e-8
        assert res.energy == pytest.approx(exact, rel=1e-12, abs=0)

    def test_max_iter_flags_nonconvergence(self):
        mesh = build_mesh(1, 64)
        E = assemble_energy([sample_realization(CB1, 1)], 1 / 8, mesh, V2, load=1.0)
        res = minimize(E, tol=1e-12, max_iter=2)
        assert not res.converged

    def test_nan_energy_raises(self):
        mesh = build_mesh(1, 8)
        V = IntegrandSpec(p=1.5)  # the nonlinear path
        E = assemble_energy([unit_realization()], 1.0, mesh, V, load=float("nan"))
        with pytest.raises(FloatingPointError):
            minimize(E)

    def test_energy_increase_raises(self):
        # a negative preconditioner turns the search direction uphill and the
        # value grows more slowly than the reported gradient says, so the
        # line search accepts a step that increases the energy
        def fun(x):
            return 1e-5 * float(x.sum()), np.ones_like(x)

        with pytest.raises(FloatingPointError):
            solver_mod._ncg(fun, np.zeros(4), 1e-8, 10, precond=lambda g: -g)

    def test_tol_validation(self):
        mesh = build_mesh(1, 8)
        E = assemble_energy([unit_realization()], 1.0, mesh, V2)
        with pytest.raises(ValueError):
            minimize(E, tol=0.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_general_exponent_converges(self, p):
        mesh = build_mesh(1, 64)
        E = assemble_energy([sample_realization(CB1, 0)], 1 / 8, mesh, IntegrandSpec(p=p), load=1.0)
        res = minimize(E, tol=1e-7)
        assert res.converged and res.energy < 0


class TestCoupled:
    def test_delta_zero_decouples(self):
        # at delta = 0 the sample-averaged energy is the mean of the single ones
        reals = [sample_realization(CB1, i) for i in range(4)]
        mesh = build_mesh(1, 64)
        res = minimize(assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=0.0), tol=1e-11)
        singles = [
            minimize(assemble_energy([r], 1 / 8, mesh, V2, load=1.0), tol=1e-11) for r in reals
        ]
        assert abs(res.energy - np.mean([s.energy for s in singles])) <= 1e-8
        for f, s in zip(res.fields, singles):
            assert np.allclose(f.values, s.fields[0].values, rtol=0, atol=1e-12)

    def test_identical_realizations_replicate_single(self):
        r = sample_realization(CB1, 0)
        mesh = build_mesh(1, 64)
        res = minimize(
            assemble_energy([r, r, r], 1 / 8, mesh, V2, load=1.0, delta=0.5),
            tol=1e-10,
        )
        single = minimize(assemble_energy([r], 1 / 8, mesh, V2, load=1.0), tol=1e-12)
        assert res.energy == pytest.approx(single.energy, abs=1e-8)
        for f in res.fields:
            assert np.allclose(f.values, single.fields[0].values, atol=1e-6)

    def test_gradients_collapse_as_delta_grows(self):
        reals = [sample_realization(CB1, i) for i in range(4)]
        mesh = build_mesh(1, 32)
        prev = None
        for delta in (1.0, 10.0, 1000.0):
            E = assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=delta)
            res = minimize(E, tol=1e-6)
            gbar = res.mean_field.gradients()
            dev = max(
                np.sqrt(np.dot(mesh.volumes, ((f.gradients() - gbar) ** 2).sum(axis=1)))
                for f in res.fields
            )
            assert prev is None or dev < prev
            prev = dev

    def test_requires_two_realizations(self):
        mesh = build_mesh(1, 16)
        with pytest.raises(ValueError):
            minimize(
                assemble_energy([unit_realization()], 1.0, mesh, V2, load=1.0, delta=0.1)
            )


class TestCoupledPCG:
    """Sample-averaged p = 2 solves, coupled (delta > 0) or not (delta = 0): one
    stacked PCG over all realizations, block-spectral preconditioner."""

    @pytest.mark.parametrize("d, n", [(1, 64), (1, 512), (1, 4096), (2, 32), (2, 64), (2, 128)])
    def test_iterations_do_not_grow(self, d, n):
        spec = CB1 if d == 1 else CB2
        reals = [sample_realization(spec, i) for i in range(8)]
        mesh = build_mesh(d, n)
        for delta in (0.0, 0.0125, 0.2, 2.0):
            res = minimize(assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=delta))
            assert res.converged and res.iterations <= 40

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.5])
    def test_energy_matches_stacked_spsolve(self, delta):
        reals = [sample_realization(CB2, i) for i in range(3)]
        mesh = build_mesh(2, 32)
        E = assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=delta)
        res = minimize(E, tol=1e-10)
        assert res.converged
        # sum_i w_i (z_i' K(a_i) z_i / 2 - f' z_i) + delta sum_i w_i |grad(z_i - zbar)|^2
        # is z' A z / 2 - b' z with A = blockdiag(w_i K(a_i + 2 delta)) - 2 delta w w' (x) K(1),
        # blockdiag(w_i K(a_i)) at delta = 0
        _, elements, boundary = triangulation(mesh)
        interior = ~boundary
        m = int(interior.sum())
        dof = _dof_map(mesh, "dirichlet-zero")
        w = E.weights
        blocks = [w[i] * _p1_stiffness(mesh, a + 2.0 * delta, dof, m) for i, a in enumerate(E.coef)]
        K1 = _p1_stiffness(mesh, np.ones(mesh.n_elements), dof, m)
        A = sp.block_diag(blocks) - 2.0 * delta * sp.kron(np.outer(w, w), K1)
        _, area = _barycentric_gradients(mesh)
        f = np.zeros(mesh.n_nodes)
        np.add.at(f, elements, area[:, None] / 3.0)
        b = np.concatenate([wi * f[interior] for wi in w])
        exact = -0.5 * float(b @ spla.spsolve(A.tocsc(), b))
        assert res.energy == pytest.approx(exact, rel=1e-10, abs=0)


class TestCellProblem:
    def test_constant_medium_quadratic_value(self):
        spec = EnsembleSpec(dimension=2, cells=DiscreteValues((3.0,), (1.0,)), seed=2)
        r = sample_realization(spec, 0)
        res = cell_problem(r, 2, V2, [1.0, 0.0], n_per_cell=4)
        assert res.value == pytest.approx(1.5, abs=1e-12)
        assert np.max(np.abs(res.corrector.values)) <= 1e-10

    def test_zero_gradient_zero_value(self):
        r = sample_realization(CB2, 0)
        for delta in (0.0, 0.3):
            res = cell_problem(r, 2, V2, [0.0, 0.0], delta=delta, n_per_cell=4)
            assert res.value == pytest.approx(0.0, abs=1e-14)
            assert np.max(np.abs(res.corrector.values)) <= 1e-12

    def test_1d_harmonic_mean_large_cell(self):
        r = sample_realization(CB1, 0)
        res = cell_problem(r, 64, V2, [1.0], n_per_cell=8)
        assert res.value == pytest.approx(0.8, rel=0.03)
        res.corrector.check(tol=1e-9)

    def test_corrector_gradient_mean_zero(self):
        r = sample_realization(CB2, 3)
        res = cell_problem(r, 4, V2, [1.0, 0.0], n_per_cell=4)
        g = res.corrector.gradients()
        mean_g = res.corrector.mesh.volumes @ g / res.corrector.mesh.volumes.sum()
        assert np.allclose(mean_g, 0.0, atol=1e-12)

    def test_monotone_in_delta(self):
        r = sample_realization(CB1, 2)
        vals = [
            cell_problem(r, 16, V2, [1.0], delta=d, n_per_cell=8).value
            for d in (0.0, 0.0125, 0.05, 0.2)
        ]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))

    def test_validation(self):
        r = sample_realization(CB1, 0)
        with pytest.raises(ValueError):
            cell_problem(r, 0, V2, [1.0])
        with pytest.raises(ValueError):
            cell_problem(r, 4, V2, [1.0], n_per_cell=2)
        with pytest.raises(ValueError):
            cell_problem(periodize(r, 4), 8, V2, [1.0])
        for delta in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                cell_problem(r, 4, V2, [1.0], delta=delta)
        for tol in (0.0, -1e-9, np.nan):
            with pytest.raises(ValueError):
                cell_problem(r, 4, V2, [1.0], tol=tol)


class TestEffectiveIntegrand:
    def test_constant_medium_zero_stderr(self):
        spec = EnsembleSpec(dimension=1, cells=DiscreteValues((2.0,), (1.0,)), seed=0)
        rows = effective_integrand(spec, 4, V2, [[1.0]], n_samples=4, n_per_cell=8)
        assert rows[0].mean == pytest.approx(1.0, abs=1e-12)
        assert rows[0].stderr == pytest.approx(0.0, abs=1e-12)

    def test_voigt_reuss_bracketing_2d(self):
        rows = effective_integrand(CB2, 8, V2, [[1.0, 0.0]], n_samples=4, n_per_cell=8)
        c = 2.0 * rows[0].mean
        slack = 2.0 * rows[0].stderr + 0.05
        assert 1.6 - slack <= c <= 2.5 + slack

    def test_frame_symmetry_isotropic(self):
        rows = effective_integrand(
            CB2, 8, V2, [[1.0, 0.0], [0.0, 1.0]], n_samples=6, n_per_cell=8
        )
        gap = abs(rows[0].mean - rows[1].mean)
        assert gap <= 2.0 * (rows[0].stderr + rows[1].stderr)

    def test_convex_in_F_along_grid(self):
        Fs = [[0.0], [0.5], [1.0], [1.5]]
        rows = effective_integrand(CB1, 16, V2, Fs, n_samples=6, n_per_cell=8)
        for a, b, c in zip(rows, rows[1:], rows[2:]):
            mid = b.mean
            chord = 0.5 * (a.mean + c.mean)
            assert mid <= chord + 2.0 * max(r.stderr for r in (a, b, c)) + 1e-12

    def test_growth_of_effective_values(self):
        # effective values inherit two-sided p-growth with the sampled constants
        from homoglab.integrand import verify_growth

        rep = verify_growth(V2, CB1, 1000)
        Fs = [[0.5], [1.0], [2.0], [4.0]]
        rows = effective_integrand(CB1, 16, V2, Fs, n_samples=4, n_per_cell=8)
        for F, row in zip(Fs, rows):
            t = (F[0] ** 2) / 2.0
            assert row.mean <= rep.c_high * (t + 1.0) + 1e-9
            assert row.mean >= t / rep.c_low - rep.c_low - 1e-9


def _stencil_matrix(matvec, n_dofs):
    """Dense matrix of a matvec, column by column from the identity."""
    return np.stack([matvec(e) for e in np.eye(n_dofs)], axis=1)


class TestSpectralPCG:
    """p = 2 linear CG with the unit-coefficient spectral preconditioner."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["dirichlet-zero", "periodic-mean-zero"])
    def test_preconditioner_inverts_unit_stiffness(self, d, kind):
        mesh = build_mesh(d, 6, size=1.5)
        E = assemble_energy([unit_realization(d)], 4.0, mesh, V2)
        E.constraint = kind
        obj = solver_mod._Objective(E)
        K = _stencil_matrix(obj.stiffness(np.ones(mesh.n_elements)), obj.n_dofs)
        apply = solver_mod._laplacian_inverse(mesh, kind)
        P = np.stack([apply(e) for e in np.eye(obj.n_dofs)], axis=1)
        assert np.allclose(P, np.linalg.pinv(K), rtol=0, atol=1e-13 * np.abs(P).max())

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_2d_dirichlet_iterations_do_not_grow(self, n):
        E = assemble_energy([sample_realization(CB2, 0)], 1 / 8, build_mesh(2, n), V2, load=1.0)
        res = minimize(E)
        assert res.converged and res.iterations <= 30

    @pytest.mark.parametrize("n_per_cell", [4, 8, 16])
    def test_2d_cell_iterations_do_not_grow(self, n_per_cell):
        res = cell_problem(sample_realization(CB2, 0), 8, V2, [1.0, 0.0], n_per_cell=n_per_cell)
        assert res.converged and res.iterations <= 30

    @pytest.mark.parametrize("entry", [np.inf, 1e300])
    def test_nonfinite_norm_stops_at_once(self, entry):
        # an infinite right-hand side, or one whose norm overflows, can never
        # meet the relative stop: not converged after at most one iteration
        b = np.full(16, entry)
        x, iters, rnorm, converged = solver_mod._pcg(lambda v: 2.0 * v, b, 1e-8, 50_000, np.copy)
        assert not converged and iters <= 1 and not np.isfinite(rnorm)

    def test_1d_iterations(self):
        E = assemble_energy([sample_realization(CB1, 0)], 1 / 64, build_mesh(1, 512), V2, load=1.0)
        res = minimize(E)
        assert res.converged and res.iterations <= 5
        cell = cell_problem(sample_realization(CB1, 0), 64, V2, [1.0], n_per_cell=8)
        assert cell.converged and cell.iterations <= 5


class TestSpectralNCG:
    """p != 2 nonlinear CG preconditioned by the block-spectral inverse: the
    outer iteration count stays bounded as the mesh is refined."""

    @pytest.mark.parametrize("p, bound", [(1.5, 100), (3.0, 40)])
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_2d_cell_iterations_stay_bounded(self, p, bound, n):
        # measured 53/53/60/71 (p = 1.5) and 21/22/25/26 (p = 3); a diagonal
        # preconditioner takes 269/629 and 171/341 at n = 32/64
        r = sample_realization(CB2, 0)
        res = cell_problem(r, 4, IntegrandSpec(p=p), [1.0, 0.0], n_per_cell=n // 4, tol=1e-8)
        assert res.converged and res.iterations <= bound

    @pytest.mark.parametrize("n", [32, 64])
    def test_2d_dirichlet_iterations_stay_bounded(self, n):
        # measured 156/190; a diagonal preconditioner takes 1351/3997
        mesh = build_mesh(2, n)
        E = assemble_energy([sample_realization(CB2, 0)], 1 / 8, mesh, IntegrandSpec(p=1.5), load=1.0)
        res = minimize(E)
        assert res.converged and res.iterations <= 250


def _barycentric_gradients(mesh):
    """Gradients of the three barycentric functions of every 2D element,
    shape (n_elements, 3, 2), and the element areas, from the vertices."""
    nodes, elements, _ = triangulation(mesh)
    T = np.concatenate([np.ones(elements.shape + (1,)), nodes[elements]], axis=-1)
    return np.linalg.inv(T)[:, 1:].transpose(0, 2, 1), 0.5 * np.abs(np.linalg.det(T))


def _p1_stiffness(mesh, w, dof_of_node, n_dofs):
    """P1 stiffness sum_e w_e |e| grad(l_i).grad(l_j) on the dofs; nodes
    whose dof is -1 are dropped (zero trace)."""
    grads, area = _barycentric_gradients(mesh)
    local = (w * area)[:, None, None] * grads @ grads.transpose(0, 2, 1)
    dofs = dof_of_node[triangulation(mesh)[1]]
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.csr_matrix((local[keep], (rows[keep], cols[keep])), shape=(n_dofs, n_dofs))


def _dof_map(mesh, kind):
    """Reduced dof of every node; -1 on the boundary for zero trace."""
    n = mesh.n
    nodes, _, boundary = triangulation(mesh)
    idx = np.rint(nodes / mesh.h).astype(int)
    if kind == "dirichlet-zero":
        dof = np.full(mesh.n_nodes, -1)
        dof[~boundary] = np.arange(int((~boundary).sum()))
        return dof
    idx %= n
    return idx[:, 0] if mesh.dimension == 1 else idx[:, 0] + n * idx[:, 1]


def _tridiagonal_stiffness(mesh, w, dof):
    """1D P1 stiffness sum_e (w_e / h) [[1, -1], [-1, 1]], gathered on the dofs."""
    K = np.zeros((dof.max() + 1,) * 2)
    for e, (i, j) in enumerate(triangulation(mesh)[1]):
        for a, b, s in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
            if dof[a] >= 0 and dof[b] >= 0:
                K[dof[a], dof[b]] += s * w[e] / mesh.h
    return K


class TestStencilStiffness:
    """The grid-stencil stiffness against independently assembled matrices."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["dirichlet-zero", "periodic-mean-zero"])
    def test_matvec_and_diagonal_match_assembly(self, d, kind):
        # the name is kept from when the second half checked the Jacobi
        # diagonal; it now checks the block-spectral inverse that replaced it
        mesh = build_mesh(d, 9 if d == 1 else 7, size=1.5)
        reals = [unit_realization(d)] * 2
        E = assemble_energy(reals, 4.0, mesh, V2)
        E.constraint = kind
        E.coef = np.random.default_rng(d).uniform(1.0, 4.0, size=E.coef.shape)
        obj = solver_mod._Objective(E)
        dof = _dof_map(mesh, kind)
        for i in range(2):
            if d == 1:
                K = _tridiagonal_stiffness(mesh, E.coef[i], dof)
            else:
                K = _p1_stiffness(mesh, E.coef[i], dof, obj.n_dofs).toarray()
            S = _stencil_matrix(obj.stiffness(E.coef[i]), obj.n_dofs)
            assert np.abs(S - K).max() <= 1e-13 * np.abs(K).max()
        # block inverse: [diag(w (abar + e)) - c w w^T]^-1 (x) pinv(K_1) / scale,
        # abar the geometric means, e = 2 delta, c = e under the variance penalty
        ones = np.ones(mesh.n_elements)
        if d == 1:
            K1 = _tridiagonal_stiffness(mesh, ones, dof)
        else:
            K1 = _p1_stiffness(mesh, ones, dof, obj.n_dofs).toarray()
        abar = gmean(E.coef, axis=1)
        E.weights = np.array([0.3, 0.7])
        scale = 0.25
        for delta, penalty in [(0.0, "variance"), (0.3, "variance"), (0.3, "corrector")]:
            E.delta, E.penalty = delta, penalty
            e = 2.0 * delta
            c = e if penalty == "variance" else 0.0
            M = np.diag(E.weights * (abar + e)) - c * np.outer(E.weights, E.weights)
            expect = np.kron(np.linalg.inv(M), np.linalg.pinv(K1)) / scale
            P = solver_mod._Objective(E).block_inverse(scale=scale)
            got = _stencil_matrix(P, 2 * obj.n_dofs)
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def _spsolve_dirichlet_energy(mesh, w):
    """Minimal p = 2 energy with weights w and load 1 under zero trace, by a
    direct solve on the test-assembled 2D stiffness."""
    _, elements, boundary = triangulation(mesh)
    interior = ~boundary
    K = _p1_stiffness(mesh, w, _dof_map(mesh, "dirichlet-zero"), int(interior.sum()))
    _, area = _barycentric_gradients(mesh)
    f = np.zeros(mesh.n_nodes)
    np.add.at(f, elements, area[:, None] / 3.0)  # load 1, barycenter quadrature
    u = spla.spsolve(K.tocsc(), f[interior])
    return -0.5 * float(f[interior] @ u)


class TestDirectOracle:
    """p = 2 values against a direct sparse solve on a test-assembled stiffness."""

    @pytest.mark.parametrize("high", [4.0, 1e4])
    def test_dirichlet_energy_matches_spsolve(self, high):
        spec = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, high), (0.5, 0.5)), seed=21)
        mesh = build_mesh(2, 32)
        E = assemble_energy([sample_realization(spec, 0)], 1 / 8, mesh, V2, load=1.0)
        res = minimize(E)
        assert res.converged
        exact = _spsolve_dirichlet_energy(mesh, E.coef[0])
        assert res.energy == pytest.approx(exact, rel=1e-10, abs=0)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_cell_value_matches_spsolve(self, delta):
        L, npc = 4, 8
        F = np.array([1.0, 0.5])
        r = periodize(sample_realization(CB2, 3), L)
        res = cell_problem(r, L, V2, F, delta=delta, n_per_cell=npc)
        assert res.converged
        n = L * npc
        mesh = build_mesh(2, n, size=float(L))
        a = combined_weight(V2, r, mesh.barycenters)
        torus = _dof_map(mesh, "periodic-mean-zero")
        K = _p1_stiffness(mesh, a + 2.0 * delta, torus, n * n)
        # linear term sum_e |e| a_e F . grad(l_i), gathered on the torus dofs
        grads, area = _barycentric_gradients(mesh)
        b = np.zeros(n * n)
        np.add.at(b, torus[triangulation(mesh)[1]], (area * a)[:, None] * (grads @ F))
        # pin dof 0: the energy only sees gradients, so phi(0) = 0 loses nothing
        phi = spla.spsolve(K[1:, 1:].tocsc(), -b[1:])
        quad = 0.5 * float(area @ a) * float(F @ F)
        exact = (quad + 0.5 * float(b[1:] @ phi)) / L**2
        assert res.value == pytest.approx(exact, rel=1e-10, abs=0)


class TestExact1D:
    """1D solves against the exact discrete minima of `exact1d` (flux integration)."""

    @pytest.mark.parametrize(
        "p, n", [(1.5, 32), (2.0, 32), (2.0, 128), (3.0, 32), (3.0, 128)]
    )
    def test_dirichlet_matches_flux_integration(self, p, n):
        # p = 1.5 stays at n = 32 (929 iterations): at n = 512 the Euclidean
        # gradient stop is not met within 20 000 iterations, although the
        # energy already matches to 3e-16
        mesh = build_mesh(1, n)
        E = assemble_energy(
            [sample_realization(CB1, 0)], 1 / 8, mesh, IntegrandSpec(p=p), load=1.0
        )
        res = minimize(E, tol=1e-11)
        assert res.converged
        exact = dirichlet_energy(E.coef[0], E.load_values, p, mesh.h)
        assert res.energy == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_dirichlet_variable_load(self, p):
        mesh = build_mesh(1, 64)
        E = assemble_energy(
            [sample_realization(CB1, 2)],
            1 / 8,
            mesh,
            IntegrandSpec(p=p),
            load=lambda x: 1.0 + 2.0 * np.sin(7.0 * x[:, 0]),
        )
        res = minimize(E, tol=1e-11)
        assert res.converged
        exact = dirichlet_energy(E.coef[0], E.load_values, p, mesh.h)
        assert res.energy == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.3])
    def test_cell_matches_flux_integration(self, p, delta):
        L, npc = 16, 8
        V = IntegrandSpec(p=p)
        r = periodize(sample_realization(CB1, 1), L)
        res = cell_problem(r, L, V, [1.0], delta=delta, n_per_cell=npc, tol=1e-11)
        assert res.converged
        a = combined_weight(V, r, build_mesh(1, L * npc, size=float(L)).barycenters)
        assert res.value == pytest.approx(cell_energy(a, 1.0, p, delta), rel=1e-12, abs=0)

    def test_regularized_degenerate_cell_values(self):
        # the regularized cell values of acceptance criterion 6, at its settings
        r = sample_realization(
            EnsembleSpec(dimension=1, cells=DiscreteValues((1.0,), (1.0,)), seed=21), 0
        )
        lam = EnsembleSpec(dimension=1, cells=DiscreteValues((0.05, 1.0), (0.5, 0.5)), seed=21)
        V = IntegrandSpec(p=2.0, form=FORM_DEGENERATE, lambda_cells=lam)
        rp = periodize(r, 64)
        a = combined_weight(V, rp, build_mesh(1, 64 * 8, size=64.0).barycenters)
        for delta in (0.2, 0.05, 0.0125, 0.0):
            res = cell_problem(r, 64, V, [1.0], delta=delta, n_per_cell=8)
            assert res.converged
            assert res.value == pytest.approx(cell_energy(a, 1.0, 2.0, delta), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_2d_laminate_cell_reduces_to_1d(self, p):
        # 2D nonlinear CG on the torus: a weight that varies only along x
        # (one value per column of elements) has a y-independent minimizer,
        # whose two triangles per square both carry the 1D slope
        L, n = 2, 16
        mesh = build_mesh(2, n, size=float(L))
        columns = np.random.default_rng(5).choice([1.0, 4.0], size=n)
        coef = columns[np.floor(mesh.barycenters[:, 0] / mesh.h).astype(int)]
        V = IntegrandSpec(p=p)
        E = solver_mod.EnergyFunctional(
            realizations=[unit_realization(2)],
            weights=np.ones(1),
            eps=1.0,
            mesh=mesh,
            integrand=V,
            coef=coef[None, :],
            load_values=np.zeros(mesh.n_elements),
            delta=0.0,
            constraint="periodic-mean-zero",
            gradient_offset=np.broadcast_to([1.0, 0.0], (mesh.n_elements, 2)).copy(),
            penalty="corrector",
            scale=1.0 / L**2,
        )
        res = minimize(E, tol=1e-9)
        assert res.converged
        assert res.energy == pytest.approx(cell_energy(columns, 1.0, p), rel=1e-12, abs=0)

    def test_oracle_closed_forms(self):
        # constant weight: no corrector, value a |F|^p / p at every delta;
        # unit weight, p = 2, load 1: the discrete Poisson energy is
        # -(1/24)(1 - h^2) (the P1 solution is nodally exact)
        for delta in (0.0, 0.3):
            assert cell_energy(np.full(8, 3.0), 2.0, 1.5, delta) == pytest.approx(
                3.0 * 2.0**1.5 / 1.5, rel=1e-14
            )
        for n in (4, 16, 64):
            h = 1.0 / n
            got = dirichlet_energy(np.ones(n), np.ones(n), 2.0, h)
            assert got == pytest.approx(-(1.0 - h * h) / 24.0, rel=1e-13)
