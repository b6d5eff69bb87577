"""Energy assembly, minimization paths, cell problems, effective integrands."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import homoglab.solver as solver_mod
from homoglab.integrand import FORM_DEGENERATE, IntegrandSpec, combined_weight
from homoglab.medium import DiscreteValues, EnsembleSpec, periodize, sample_realization
from homoglab.meshing import build_mesh
from homoglab.solver import (
    assemble_energy,
    cell_problem,
    effective_integrand,
    minimize,
)

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
        E1 = assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=7.0, coupled=True)
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
        with pytest.raises(ValueError):
            assemble_energy([unit_realization()], 1.0, mesh, V2, delta=0.5, coupled=True)

    def test_warns_when_mesh_unresolved(self):
        mesh = build_mesh(1, 8)
        with pytest.warns(UserWarning):
            assemble_energy([unit_realization()], 1 / 64, mesh, V2)


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

    def test_ncg_matches_cg_on_random_two_phase(self):
        r = sample_realization(CB2, 0)
        mesh = build_mesh(2, 32)
        E = assemble_energy([r], 1 / 8, mesh, V2, load=1.0)
        a = minimize(E, tol=1e-10)
        b = minimize(E, tol=1e-10, method="ncg")
        assert abs(a.energy - b.energy) <= 1e-8

    def test_max_iter_flags_nonconvergence(self):
        mesh = build_mesh(1, 64)
        E = assemble_energy([sample_realization(CB1, 1)], 1 / 8, mesh, V2, load=1.0)
        res = minimize(E, tol=1e-12, max_iter=2)
        assert not res.converged

    def test_nan_energy_raises(self):
        mesh = build_mesh(1, 8)
        E = assemble_energy([unit_realization()], 1.0, mesh, V2, load=float("nan"))
        with pytest.raises(FloatingPointError):
            minimize(E, method="ncg")

    def test_energy_increase_raises(self):
        # a negative preconditioner turns the search direction uphill and the
        # value grows more slowly than the reported gradient says, so the
        # line search accepts a step that increases the energy
        def fun(x):
            return 1e-5 * float(x.sum()), np.ones_like(x)

        with pytest.raises(FloatingPointError):
            solver_mod._ncg(fun, np.zeros(4), 1e-8, 10, precond=-np.ones(4))

    @pytest.mark.parametrize("method", ["pcg", "CG", "newton", ""])
    def test_unknown_method_rejected(self, method):
        mesh = build_mesh(1, 16)
        E = assemble_energy([unit_realization()], 1.0, mesh, V2, load=1.0)
        with pytest.raises(ValueError, match="unknown method"):
            minimize(E, method=method)

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
        reals = [sample_realization(CB1, i) for i in range(4)]
        mesh = build_mesh(1, 64)
        res_c = minimize(
            assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=0.0, coupled=False), tol=1e-11
        )
        res_d = minimize(assemble_energy(reals, 1 / 8, mesh, V2, load=1.0), tol=1e-11)
        assert abs(res_c.energy - res_d.energy) <= 1e-8

    def test_identical_realizations_replicate_single(self):
        r = sample_realization(CB1, 0)
        mesh = build_mesh(1, 64)
        res = minimize(
            assemble_energy([r, r, r], 1 / 8, mesh, V2, load=1.0, delta=0.5, coupled=True),
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
            E = assemble_energy(reals, 1 / 8, mesh, V2, load=1.0, delta=delta, coupled=True)
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
                assemble_energy([unit_realization()], 1.0, mesh, V2, load=1.0, delta=0.1, coupled=True)
            )


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


class TestSpectralPCG:
    """p = 2 linear CG with the unit-coefficient spectral preconditioner."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["dirichlet-zero", "periodic-mean-zero"])
    def test_preconditioner_inverts_unit_stiffness(self, d, kind):
        mesh = build_mesh(d, 6, size=1.5)
        E = assemble_energy([unit_realization(d)], 4.0, mesh, V2)
        E.constraint = kind
        obj = solver_mod._Objective(E)
        K = obj.stiffness(np.ones(mesh.n_elements)).toarray()
        apply = solver_mod._laplacian_inverse(mesh, kind)
        P = np.stack([apply(e) for e in np.eye(obj.n_dofs)], axis=1)
        assert np.allclose(P, np.linalg.pinv(K), rtol=0, atol=1e-13 * np.abs(P).max())

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_2d_dirichlet_iterations_do_not_grow(self, n):
        E = assemble_energy([sample_realization(CB2, 0)], 1 / 8, build_mesh(2, n), V2, load=1.0)
        res = minimize(E)
        assert res.method == "cg" and res.converged
        assert res.iterations <= 30

    @pytest.mark.parametrize("n_per_cell", [4, 8, 16])
    def test_2d_cell_iterations_do_not_grow(self, n_per_cell):
        res = cell_problem(sample_realization(CB2, 0), 8, V2, [1.0, 0.0], n_per_cell=n_per_cell)
        assert res.converged and res.iterations <= 30

    def test_1d_iterations(self):
        E = assemble_energy([sample_realization(CB1, 0)], 1 / 64, build_mesh(1, 512), V2, load=1.0)
        res = minimize(E)
        assert res.converged and res.iterations <= 5
        cell = cell_problem(sample_realization(CB1, 0), 64, V2, [1.0], n_per_cell=8)
        assert cell.converged and cell.iterations <= 5


def _barycentric_gradients(mesh):
    """Gradients of the three barycentric functions of every 2D element,
    shape (n_elements, 3, 2), and the element areas, from the vertices."""
    T = np.concatenate([np.ones(mesh.elements.shape + (1,)), mesh.nodes[mesh.elements]], axis=-1)
    return np.linalg.inv(T)[:, 1:].transpose(0, 2, 1), 0.5 * np.abs(np.linalg.det(T))


def _p1_stiffness(mesh, w, dof_of_node, n_dofs):
    """P1 stiffness sum_e w_e |e| grad(l_i).grad(l_j) on the dofs; nodes
    whose dof is -1 are dropped (zero trace)."""
    grads, area = _barycentric_gradients(mesh)
    local = (w * area)[:, None, None] * grads @ grads.transpose(0, 2, 1)
    dofs = dof_of_node[mesh.elements]
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.csr_matrix((local[keep], (rows[keep], cols[keep])), shape=(n_dofs, n_dofs))


class TestDirectOracle:
    """p = 2 values against a direct sparse solve on a test-assembled stiffness."""

    @pytest.mark.parametrize("high", [4.0, 1e4])
    def test_dirichlet_energy_matches_spsolve(self, high):
        spec = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, high), (0.5, 0.5)), seed=21)
        mesh = build_mesh(2, 32)
        E = assemble_energy([sample_realization(spec, 0)], 1 / 8, mesh, V2, load=1.0)
        res = minimize(E)
        assert res.converged
        interior = ~mesh.boundary
        dof = np.full(mesh.n_nodes, -1)
        dof[interior] = np.arange(interior.sum())
        K = _p1_stiffness(mesh, E.coef[0], dof, int(interior.sum()))
        _, area = _barycentric_gradients(mesh)
        f = np.zeros(mesh.n_nodes)
        np.add.at(f, mesh.elements, area[:, None] / 3.0)  # load 1, barycenter quadrature
        u = spla.spsolve(K.tocsc(), f[interior])
        exact = -0.5 * float(f[interior] @ u)
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
        ix = np.rint(mesh.nodes[:, 0] / mesh.h).astype(int) % n
        iy = np.rint(mesh.nodes[:, 1] / mesh.h).astype(int) % n
        torus = ix + n * iy
        K = _p1_stiffness(mesh, a + 2.0 * delta, torus, n * n)
        # linear term sum_e |e| a_e F . grad(l_i), gathered on the torus dofs
        grads, area = _barycentric_gradients(mesh)
        b = np.zeros(n * n)
        np.add.at(b, torus[mesh.elements], (area * a)[:, None] * (grads @ F))
        # pin dof 0: the energy only sees gradients, so phi(0) = 0 loses nothing
        phi = spla.spsolve(K[1:, 1:].tocsc(), -b[1:])
        quad = 0.5 * float(area @ a) * float(F @ F)
        exact = (quad + 0.5 * float(b[1:] @ phi)) / L**2
        assert res.value == pytest.approx(exact, rel=1e-10, abs=0)
