"""Meshes, constraints, field evaluation."""

import dataclasses
import pickle

import numpy as np
import pytest

from homoglab.integrand import IntegrandSpec
from homoglab.medium import DiscreteValues, EnsembleSpec, sample_realization
from homoglab.meshing import (
    DIRICHLET_ZERO,
    PERIODIC_MEAN_ZERO,
    Constraint,
    DiscreteField,
    build_mesh,
    lp_distance,
)
from homoglab.solver import _Objective, assemble_energy

from fields import lp_norm
from triangulation import triangulation


class TestBuild:
    def test_counts_1d(self):
        m = build_mesh(1, 4)
        assert m.n_nodes == 5 and m.n_elements == 4

    def test_counts_2d(self):
        m = build_mesh(2, 2)
        assert m.n_nodes == 9 and m.n_elements == 8

    @pytest.mark.parametrize("d,n", [(1, 7), (2, 5)])
    def test_total_measure_is_one(self, d, n):
        m = build_mesh(d, n)
        assert m.volumes.sum() == pytest.approx(1.0, abs=1e-14)

    def test_shared_per_arguments(self):
        m = build_mesh(2, 6)
        assert build_mesh(2, 6) is m and build_mesh(2, 6, 1.0) is m
        assert build_mesh(2, 6, 2.0) is not m and build_mesh(1, 6) is not m
        # a pickled mesh comes back as the process's shared one
        assert pickle.loads(pickle.dumps(m)) is m

    def test_read_only(self):
        m = build_mesh(2, 6)
        with pytest.raises(ValueError):
            m.barycenters[0, 0] = 0.5
        with pytest.raises(ValueError):
            m.volumes[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.n = 7

    def test_tables_made_once(self):
        m = build_mesh(1, 6)
        made = []

        def make(mesh):
            made.append(mesh)
            return mesh.barycenters[:, 0] ** 2

        t = m.tabulate("squares", make)
        assert m.tabulate("squares", make) is t and made == [m]
        assert np.array_equal(t, m.barycenters[:, 0] ** 2)
        with pytest.raises(ValueError):
            t[0] = 0.0

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            build_mesh(1, 1)
        with pytest.raises(ValueError):
            build_mesh(3, 4)

    @pytest.mark.parametrize("d", [1, 2])
    def test_boundary_nodes_exact(self, d):
        m = build_mesh(d, 6)
        _, _, boundary = triangulation(m)
        on_face = np.zeros(m.n_nodes, dtype=bool)
        for axis in range(d):
            on_face |= (m.nodes[:, axis] == 0.0) | (m.nodes[:, axis] == 1.0)
        assert np.array_equal(boundary, on_face)
        # the zero-trace expansion of nonzero dofs vanishes exactly there
        c = Constraint(m, DIRICHLET_ZERO)
        assert np.array_equal(c.expand(np.ones(c.n_dofs)) == 0.0, boundary)

    @pytest.mark.parametrize("d", [1, 2])
    def test_gradient_exact_on_affine(self, d):
        m = build_mesh(d, 5)
        coef = np.arange(1, d + 1, dtype=float)
        u = m.nodes @ coef + 0.7
        g = m.element_gradients(u)
        assert np.allclose(g, coef[None, :], atol=1e-13)

    def test_barycenter_values_of_affine(self):
        m = build_mesh(2, 4)
        u = 2.0 * m.nodes[:, 0] - m.nodes[:, 1]
        vals = DiscreteField(mesh=m, values=u).at_barycenters()
        assert np.allclose(vals, 2.0 * m.barycenters[:, 0] - m.barycenters[:, 1], atol=1e-13)


class TestAgainstTriangulation:
    """The grid gathers and scatters against connectivity, bit for bit."""

    @pytest.mark.parametrize(
        "d, n, size", [(1, 2, 1.0), (1, 48, 1.5), (1, 97, 7.0), (2, 2, 1.0), (2, 13, 1.5), (2, 48, 9.0)]
    )
    def test_barycenters_and_constant_load(self, d, n, size):
        m = build_mesh(d, n, size)
        nodes, elements, _ = triangulation(m)
        assert np.array_equal(m.nodes, nodes)
        assert np.array_equal(m.barycenters, nodes[elements].mean(axis=1))
        u = np.random.default_rng(n).normal(size=m.n_nodes)
        assert np.array_equal(DiscreteField(mesh=m, values=u).at_barycenters(), u[elements].mean(axis=1))
        # load 0.37: each vertex gets 1/(d+1) of its elements' vol * f
        r = sample_realization(EnsembleSpec(dimension=d, cells=DiscreteValues((1.0,), (1.0,))), 0)
        E = assemble_energy([r], 4 * size, m, IntegrandSpec(p=2.0), load=0.37)
        weights = np.repeat(m.volumes * 0.37, d + 1) * (1.0 / (d + 1))
        load = np.bincount(elements.ravel(), weights, m.n_nodes)
        for kind in (DIRICHLET_ZERO, PERIODIC_MEAN_ZERO):
            E.constraint = kind
            expect = Constraint(m, kind).reduce_adjoint(load)
            assert np.array_equal(_Objective(E).load_red, expect)


class TestConstraints:
    def test_dirichlet_expand_zero_on_boundary(self):
        m = build_mesh(2, 4)
        c = Constraint(m, DIRICHLET_ZERO)
        z = np.arange(c.n_dofs, dtype=float) + 1
        full = c.expand(z)
        assert np.all(full[triangulation(m)[2]] == 0.0)
        assert np.count_nonzero(full) == c.n_dofs

    @pytest.mark.parametrize("d", [1, 2])
    def test_periodic_identifies_faces(self, d):
        m = build_mesh(d, 4)
        c = Constraint(m, PERIODIC_MEAN_ZERO)
        assert c.n_dofs == 4**d
        z = np.random.default_rng(0).normal(size=c.n_dofs)
        full = c.expand(z)
        f = DiscreteField(mesh=m, values=full - full.mean(), constraint=PERIODIC_MEAN_ZERO)
        # opposite faces carry the same values
        if d == 1:
            assert f.values[0] == f.values[-1]
        else:
            grid = f.values.reshape(5, 5)
            assert np.array_equal(grid[:, 0], grid[:, -1])
            assert np.array_equal(grid[0, :], grid[-1, :])

    def test_field_check_flags_violations(self):
        m = build_mesh(1, 4)
        bad = DiscreteField(mesh=m, values=np.ones(5), constraint=DIRICHLET_ZERO)
        with pytest.raises(ValueError):
            bad.check()
        c = Constraint(m, PERIODIC_MEAN_ZERO)
        ok = DiscreteField(
            mesh=m, values=c.expand(np.array([1.0, -1.0, 0.5, -0.5])), constraint=PERIODIC_MEAN_ZERO
        )
        ok.check()
        shifted = DiscreteField(mesh=m, values=ok.values + 1.0, constraint=PERIODIC_MEAN_ZERO)
        with pytest.raises(ValueError):
            shifted.check()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Constraint(build_mesh(1, 4), "clamped")


class TestEvaluation:
    @pytest.mark.parametrize("d", [1, 2])
    def test_interpolant_reproduces_affine(self, d):
        m = build_mesh(d, 6)
        coef = np.ones(d)
        f = DiscreteField(mesh=m, values=m.nodes @ coef + 0.25)
        pts = np.random.default_rng(1).uniform(0, 1, size=(200, d))
        assert np.allclose(f.eval(pts), pts @ coef + 0.25, atol=1e-12)

    def test_eval_matches_nodal_values(self):
        m = build_mesh(2, 5)
        f = DiscreteField(mesh=m, values=np.sin(m.nodes[:, 0] * 3 + m.nodes[:, 1]))
        assert np.allclose(f.eval(m.nodes), f.values, atol=1e-13)

    def test_lp_norm_of_constant(self):
        m = build_mesh(2, 8)
        f = DiscreteField(mesh=m, values=np.full(m.n_nodes, 3.0))
        assert lp_norm(f, 2.0) == pytest.approx(3.0, abs=1e-12)
        assert lp_norm(f, 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_lp_distance_between_meshes(self):
        coarse = build_mesh(1, 8)
        fine = build_mesh(1, 64)
        fa = DiscreteField(mesh=coarse, values=coarse.nodes[:, 0])
        fb = DiscreteField(mesh=fine, values=fine.nodes[:, 0])
        assert lp_distance(fa, fb, 2.0) == pytest.approx(0.0, abs=1e-13)
