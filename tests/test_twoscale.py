"""Dictionaries, pairings, the truncated metric, isometry, Young clustering."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoglab import twoscale
from homoglab.integrand import IntegrandSpec
from homoglab.medium import (
    DiscreteValues,
    EnsembleSpec,
    eval_coefficient,
    observable_expectation,
    periodize,
    sample_realization,
)
from homoglab.meshing import DiscreteField, _dot, build_mesh
from homoglab.solver import assemble_energy, minimize
from homoglab.twoscale import (
    FieldRecipe,
    PairingVector,
    _average_pairings,
    build_dictionary,
    cosine_eval,
    cosine_lq_norm,
    empirical_young_measure,
    limit_pairing,
    mean_pairing,
    metric_distance,
    quenched_pairing,
    sample_correctors,
    unfold_isometry_check,
)

from fields import from_function

CB1 = EnsembleSpec(dimension=1, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)
CB2 = EnsembleSpec(dimension=2, cells=DiscreteValues((1.0, 4.0), (0.5, 0.5)), seed=21)
V2 = IntegrandSpec(p=2.0)

DICT2 = build_dictionary(CB2, 1, 2, 2.0, max_entries=16)


def vec(values, eps=0.5, dico=DICT2):
    return PairingVector(
        values=np.asarray(values, dtype=float), eps=eps, norm=1.0, tag="t", dico=dico
    )


class TestDictionary:
    def test_trivial_dictionary_is_constant_only(self):
        d = build_dictionary(CB2, 0, 0, 2.0)
        assert len(d) == 1
        assert d.entries[0].phi_id.startswith("one")
        assert d.entries[0].norm == pytest.approx(1.0, abs=1e-14)  # |Q| = 1

    def test_cosine_l2_norm(self):
        assert cosine_lq_norm((1, 0), 2.0) == pytest.approx(1 / np.sqrt(2), abs=1e-14)
        assert cosine_lq_norm((1, 1), 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_first_entry_is_unit_constant(self):
        assert DICT2.entries[0].phi_id == "one*cos(0, 0)"

    def test_enumeration_is_stable(self):
        again = build_dictionary(CB2, 1, 2, 2.0, max_entries=16)
        assert again.phi_ids == DICT2.phi_ids
        assert np.array_equal(again.norms, DICT2.norms)

    def test_truncation_respected(self):
        d = build_dictionary(CB2, 2, 3, 2.0, max_entries=7)
        assert len(d) == 7

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            build_dictionary(CB2, -1, 0, 2.0)


class TestMetric:
    def test_identity_zero(self):
        u = vec(np.zeros(16))
        assert metric_distance(u, u) == 0.0

    def test_hand_value_quarter(self):
        u = vec(np.zeros(16))
        w = np.zeros(16)
        w[0] = 1.0
        assert metric_distance(u, vec(w)) == pytest.approx(0.25, abs=1e-15)

    def test_bounded_below_one(self):
        u = vec(np.zeros(16))
        w = vec(np.full(16, 1e9))
        assert metric_distance(u, w) < 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=16, max_size=16),
        st.lists(st.floats(-1e6, 1e6), min_size=16, max_size=16),
        st.lists(st.floats(-1e6, 1e6), min_size=16, max_size=16),
    )
    # a difference of one subnormal: its term underflows, so d = 0
    @example(a=[0.0] * 16, b=[0.0] * 15 + [5e-324], c=[0.0] * 16)
    def test_metric_axioms(self, a, b, c):
        U, V, W = vec(a), vec(b), vec(c)
        duv = metric_distance(U, V)
        assert duv == metric_distance(V, U)
        assert duv <= metric_distance(U, W) + metric_distance(W, V) + 1e-12
        # positivity holds above the metric's floor: once t_j >= 2^(j - 1022),
        # entry j's term 2^-j t_j/(1+t_j) is a normal double, so d > 0
        t = np.abs(U.values - V.values) / DICT2.norms
        if np.array_equal(U.values, V.values):
            assert duv == 0.0
        elif np.any(t >= 2.0 ** (np.arange(1, 17) - 1022)):
            assert duv > 0.0

    def test_dictionary_mismatch_rejected(self):
        other = build_dictionary(CB2, 0, 1, 2.0)
        with pytest.raises(ValueError):
            metric_distance(vec(np.zeros(16)), vec(np.zeros(len(other)), dico=other))

    def test_entrywise_averaging_contracts(self):
        rng = np.random.default_rng(0)
        lim = vec(rng.normal(size=16), eps=0.0)
        vs = [vec(rng.normal(size=16)) for _ in range(6)]
        mean = vec(np.mean([v.values for v in vs], axis=0))
        assert metric_distance(mean, lim) <= max(metric_distance(v, lim) for v in vs) + 1e-15


class TestPairings:
    def test_zero_field_zero_vector(self):
        mesh = build_mesh(2, 16)
        pv = quenched_pairing(DiscreteField.zeros(mesh), sample_realization(CB2, 0), 1 / 4, DICT2)
        assert np.all(pv.values == 0.0)
        assert pv.norm == 0.0 and pv.eps == 1 / 4

    def test_identity_entry_is_plain_integral(self):
        mesh = build_mesh(2, 16)
        u = from_function(mesh, lambda x: x[:, 0] * (1 - x[:, 1]))
        pv = quenched_pairing(u, sample_realization(CB2, 1), 1 / 4, DICT2)
        assert pv.values[0] == pytest.approx(
            float(np.dot(mesh.volumes, u.at_barycenters())), abs=1e-14
        )

    def test_unit_field_value_observable_near_mean(self):
        # Birkhoff oracle: entry -> <a> * |Q| = 2.5 within 0.15 at eps = 1/64
        mesh = build_mesh(2, 64)
        one = DiscreteField(mesh=mesh, values=np.ones(mesh.n_nodes))
        pv = quenched_pairing(one, sample_realization(CB2, 2), 1 / 64, DICT2)
        j = DICT2.phi_ids.index("val(0, 0)*cos(0, 0)")
        assert abs(pv.values[j] - 2.5) <= 0.15

    def test_mean_of_single_equals_quenched(self):
        mesh = build_mesh(1, 32)
        dic = build_dictionary(CB1, 1, 2, 2.0, max_entries=8)
        r = sample_realization(CB1, 0)
        u = from_function(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        m = mean_pairing([(r, u)], 1 / 8, dic)
        q = quenched_pairing(u, r, 1 / 8, dic)
        assert np.array_equal(m.values, q.values)

    def test_mean_is_bitwise_average(self):
        mesh = build_mesh(1, 32)
        dic = build_dictionary(CB1, 1, 2, 2.0, max_entries=8)
        pairs = []
        for i in range(5):
            r = sample_realization(CB1, i)
            pairs.append((r, from_function(mesh, lambda x: x[:, 0] ** 2)))
        m = mean_pairing(pairs, 1 / 8, dic)
        stack = np.stack([quenched_pairing(u, r, 1 / 8, dic).values for r, u in pairs])
        assert np.array_equal(m.values, stack.mean(axis=0))
        assert m.stderr is not None and np.all(m.stderr >= 0.0)

    def test_mean_of_pairing_vectors_is_mean_pairing(self):
        # the quenched-vs-mean study averages its task pairings with the
        # helper behind mean_pairing: same values, norm, blocks and stderr
        mesh = build_mesh(2, 16)
        u = from_function(mesh, lambda x: x[:, 0] * x[:, 1])
        pairs = [(sample_realization(CB2, i), u) for i in range(3)]
        m = mean_pairing(pairs, 1 / 4, DICT2, include_gradient=True)
        vecs = [quenched_pairing(u, r, 1 / 4, DICT2, include_gradient=True) for r, u in pairs]
        a = _average_pairings(vecs, 1 / 4)
        assert a.blocks == m.blocks == 3 and a.tag == "mean" and a.norm == m.norm
        assert np.array_equal(a.values, np.stack([v.values for v in vecs]).mean(axis=0))
        assert np.array_equal(a.values, m.values) and np.array_equal(a.stderr, m.stderr)

    def test_mean_stderr_shrinks_with_samples(self):
        mesh = build_mesh(1, 64)
        dic = build_dictionary(CB1, 1, 0, 2.0)
        one = DiscreteField(mesh=mesh, values=np.ones(mesh.n_nodes))
        j = dic.phi_ids.index("val(0,)*cos(0,)")
        small = mean_pairing(
            [(sample_realization(CB1, i), one) for i in range(4)], 1 / 16, dic
        )
        big = mean_pairing(
            [(sample_realization(CB1, i), one) for i in range(16)], 1 / 16, dic
        )
        assert big.stderr[j] < small.stderr[j]
        assert abs(big.values[j] - 2.5) < 0.3

    def test_mismatched_meshes_rejected(self):
        dic = build_dictionary(CB1, 0, 1, 2.0)
        a = DiscreteField.zeros(build_mesh(1, 16))
        b = DiscreteField.zeros(build_mesh(1, 32))
        with pytest.raises(ValueError):
            mean_pairing(
                [(sample_realization(CB1, 0), a), (sample_realization(CB1, 1), b)], 1 / 8, dic
            )


class TestLimitPairing:
    def test_function_mode_identity_entry(self):
        mesh = build_mesh(1, 64)
        dic = build_dictionary(CB1, 1, 2, 2.0, max_entries=8)
        u = from_function(mesh, lambda x: x[:, 0] * (1 - x[:, 0]))
        lim = limit_pairing(u, dic, mode="function")
        assert lim.eps == 0.0
        assert lim.values[0] == pytest.approx(
            float(np.dot(mesh.volumes, u.at_barycenters())), abs=1e-14
        )

    def test_gradient_mode_constant_medium_has_no_corrector(self):
        const = EnsembleSpec(dimension=1, cells=DiscreteValues((2.0,), (1.0,)), seed=3)
        dic = build_dictionary(const, 1, 2, 2.0, max_entries=8)
        csets = sample_correctors(const, 4, V2, n_samples=2, n_per_cell=8)
        mesh = build_mesh(1, 64)
        u = from_function(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        lim = limit_pairing(u, dic, mode="gradient", corrector_sets=csets)
        # gradient block against the identity observable = plain integral
        j = dic.phi_ids.index("one*cos(1,)")
        plain = float(
            np.dot(mesh.volumes, u.gradients()[:, 0] * np.cos(np.pi * mesh.barycenters[:, 0]))
        )
        assert lim.values[len(dic) + j] == pytest.approx(plain, abs=1e-12)

    def test_gradient_identity_entries_unaffected_by_corrector(self):
        # corrector gradients have exact zero torus average
        dic = build_dictionary(CB1, 1, 2, 2.0, max_entries=8)
        csets = sample_correctors(CB1, 16, V2, n_samples=4, n_per_cell=8)
        mesh = build_mesh(1, 64)
        u = from_function(mesh, lambda x: x[:, 0] * (1 - x[:, 0]))
        lim = limit_pairing(u, dic, mode="gradient", corrector_sets=csets)
        j = dic.phi_ids.index("one*cos(1,)")
        plain = float(
            np.dot(mesh.volumes, u.gradients()[:, 0] * np.cos(np.pi * mesh.barycenters[:, 0]))
        )
        assert lim.values[len(dic) + j] == pytest.approx(plain, abs=1e-12)

    def test_gradient_mode_requires_correctors(self):
        dic = build_dictionary(CB1, 0, 1, 2.0)
        u = DiscreteField.zeros(build_mesh(1, 16))
        with pytest.raises(ValueError):
            limit_pairing(u, dic, mode="gradient")


def _oracle_blocks(u, include_gradient):
    rows = [u.at_barycenters()]
    if include_gradient:
        rows += list(u.gradients().T)
    return np.stack(rows)


def _quenched_oracle(u, r, eps, dico, include_gradient):
    """Entry by entry from the definitions: every entry evaluates its own
    observable and cosine, nothing shared between entries or calls."""
    mesh = u.mesh
    blocks = _oracle_blocks(u, include_gradient)
    vals = np.empty((len(blocks), len(dico)))
    for j, e in enumerate(dico.entries):
        obs = e.obs.evaluate(r, mesh.barycenters / eps)
        vals[:, j] = _dot(obs * blocks, cosine_eval(e.cos_k, mesh.barycenters))
    return (vals * mesh.volumes[0]).ravel()


def _limit_oracle(u, dico, corrector_sets=None):
    """limit_pairing entry by entry; the corrector sets add the gradient blocks."""
    mesh, d = u.mesh, u.mesh.dimension
    blocks = _oracle_blocks(u, corrector_sets is not None)
    out = []
    for c in range(len(blocks)):
        for e in dico.entries:
            ints = _dot(blocks, cosine_eval(e.cos_k, mesh.barycenters)) * mesh.volumes[0]
            mean = observable_expectation(e.obs, dico.ensemble)
            if c == 0:
                out.append(mean * ints[0])
                continue
            kappa = np.zeros((d, d))
            for cs in corrector_sets:
                obs = e.obs.evaluate(cs.realization, cs.mesh.barycenters)
                for cp in range(d):
                    kappa[cp] += _dot(obs, cs.grad_fields[cp]) / len(obs)
            kappa /= len(corrector_sets)
            out.append(mean * ints[c] + sum(kappa[cp, c - 1] * ints[1 + cp] for cp in range(d)))
    return np.asarray(out)


class TestPairingOracles:
    """Pairings on shared meshes and tables equal the unshared definitions bit for bit."""

    CASES = {
        1: (CB1, 32, 1 / 8, lambda x: np.sin(np.pi * x[:, 0]) + x[:, 0] ** 2),
        2: (CB2, 16, 1 / 4, lambda x: x[:, 0] * (1 - x[:, 1]) + 0.3 * x[:, 1] ** 2),
    }

    @pytest.mark.parametrize("include_gradient", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_quenched_pairing_matches_oracle(self, d, include_gradient):
        spec, n, eps, fn = self.CASES[d]
        dic = build_dictionary(spec, 2, 2, 2.0, max_entries=40)
        u = from_function(build_mesh(d, n), fn)
        # the second realization pairs against the tables the first one made
        for seed in (0, 1):
            r = sample_realization(spec, seed)
            pv = quenched_pairing(u, r, eps, dic, include_gradient=include_gradient)
            assert np.array_equal(pv.values, _quenched_oracle(u, r, eps, dic, include_gradient))

    @pytest.mark.parametrize("mode", ["function", "gradient"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_limit_pairing_matches_oracle(self, d, mode):
        spec, n, _, fn = self.CASES[d]
        dic = build_dictionary(spec, 2, 2, 2.0, max_entries=40)
        u = from_function(build_mesh(d, n), fn)
        csets = None
        if mode == "gradient":
            csets = sample_correctors(spec, 4, V2, n_samples=2, n_per_cell=4)
        lim = limit_pairing(u, dic, mode=mode, corrector_sets=csets)
        assert np.array_equal(lim.values, _limit_oracle(u, dic, csets))

    def test_field_evaluated_once_per_probe(self, monkeypatch):
        # radius 1: the one probe (0, 0) carries the value and both indicators
        calls = []

        def counting(r, x):
            calls.append(np.shape(x))
            return eval_coefficient(r, x)

        monkeypatch.setattr(twoscale, "eval_coefficient", counting)
        dic = build_dictionary(CB2, 1, 1, 2.0)
        assert {e.obs.name for e in dic.entries} >= {"val(0, 0)", "ind(0, 0)=1", "ind(0, 0)=4"}
        u = from_function(build_mesh(2, 8), lambda x: x[:, 0])
        quenched_pairing(u, sample_realization(CB2, 0), 1 / 2, dic, include_gradient=True)
        assert len(calls) == 1


class TestIsometry:
    def test_deterministic_field_exact(self):
        reals = [sample_realization(CB2, i) for i in range(10)]
        recipe = FieldRecipe(probes=(), fn=lambda vals, x: np.sin(np.pi * x[:, 0]), name="sin")
        rep = unfold_isometry_check(reals, recipe, eps=1 / 4, p=2.0)
        assert rep.defect_rel == 0.0

    def test_coefficient_field_within_two_se(self):
        reals = [sample_realization(CB2, i) for i in range(500)]
        recipe = FieldRecipe(probes=((0, 0),), fn=lambda vals, x: vals[0], name="coef")
        rep = unfold_isometry_check(reals, recipe, eps=1 / 4, p=2.0)
        assert rep.defect_rel <= 2.0 * rep.stderr_rel

    def test_scale_invariance_of_norms(self):
        # isometry holds for every eps: norms statistically indistinguishable
        reals = [sample_realization(CB2, i) for i in range(500)]
        recipe = FieldRecipe(probes=((0, 0),), fn=lambda vals, x: vals[0], name="coef")
        r1 = unfold_isometry_check(reals, recipe, eps=1.0, p=2.0)
        r16 = unfold_isometry_check(reals, recipe, eps=1 / 16, p=2.0)
        se = r1.norm_original * (r1.stderr_rel + r16.stderr_rel)
        assert abs(r1.norm_original - r16.norm_original) <= 3.0 * se


class TestYoungMeasure:
    def test_identical_trajectories_single_cluster(self):
        v = vec(np.arange(16.0))
        traj = {f"{i}": [vec(np.arange(16.0), eps=e) for e in (0.5, 0.25, 0.125)] for i in range(5)}
        rep = empirical_young_measure(traj, linkage_tol=0.01)
        assert rep.n_clusters == 1
        assert rep.weights == (1.0,)
        assert rep.clusters[0].diameter == 0.0
        assert np.array_equal(rep.clusters[0].barycenter.values, v.values)

    def test_two_groups_split_by_unit_gap(self):
        lo, hi = np.zeros(16), np.zeros(16)
        hi[0] = 1.0
        traj = {}
        for i in range(6):
            traj[f"a{i}"] = [vec(lo, eps=e) for e in (0.5, 0.25)]
        for i in range(3):
            traj[f"b{i}"] = [vec(hi, eps=e) for e in (0.5, 0.25)]
        rep = empirical_young_measure(traj, linkage_tol=0.1)
        assert rep.n_clusters == 2
        assert rep.weights == (2 / 3, 1 / 3)
        assert rep.min_separation == pytest.approx(0.25, abs=1e-12)

    def test_cauchy_defect_tracks_consecutive_steps(self):
        a = vec(np.zeros(16), eps=0.5)
        mid = np.zeros(16)
        mid[0] = 3.0
        b = vec(mid, eps=0.25)
        c = vec(np.zeros(16), eps=0.125)
        rep = empirical_young_measure({"x": [a, b, c]}, linkage_tol=0.1)
        assert rep.cauchy_defects["x"] == pytest.approx(0.375, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            empirical_young_measure({}, linkage_tol=0.1)
        with pytest.raises(ValueError):
            empirical_young_measure({"a": []}, linkage_tol=0.1)


class TestConvergenceLemmas:
    def test_strong_convergence_implies_quenched(self):
        # u_eps = u + eps * perturbation: metric distance to the limit decays
        mesh = build_mesh(1, 256)
        dic = build_dictionary(CB1, 1, 2, 2.0, max_entries=8)
        r = sample_realization(CB1, 7)
        u = from_function(mesh, lambda x: x[:, 0] * (1 - x[:, 0]))
        lim = limit_pairing(u, dic, mode="function")
        dists = []
        for eps in (1 / 4, 1 / 16, 1 / 64, 1 / 256):
            pert = from_function(
                mesh, lambda x: x[:, 0] * (1 - x[:, 0]) + eps * np.sin(3 * np.pi * x[:, 0])
            )
            dists.append(metric_distance(quenched_pairing(pert, r, eps, dic), lim))
        assert all(b <= a + 5e-3 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_quenched_minimizer_trajectory_approaches_limit(self):
        # end-to-end: mean pairing of minimizers approaches the corrector limit
        dic = build_dictionary(CB1, 1, 2, 2.0, max_entries=16)
        csets = sample_correctors(CB1, 64, V2, n_samples=8, n_per_cell=8)
        from homoglab.solver import effective_integrand

        rows = effective_integrand(CB1, 64, V2, [[1.0]], n_samples=8, n_per_cell=8)
        c_hom = 2.0 * rows[0].mean
        hom_ens = EnsembleSpec(
            dimension=1, cells=DiscreteValues((c_hom,), (1.0,)), shift_sampling=False, seed=0
        )
        fine = build_mesh(1, 256)
        u_hom = minimize(
            assemble_energy([sample_realization(hom_ens, 0)], 1.0, fine, V2, load=1.0),
            tol=1e-12,
        ).fields[0]
        lim = limit_pairing(u_hom, dic, mode="gradient", corrector_sets=csets)
        dists = []
        for eps in (1 / 8, 1 / 64):
            pairs = []
            mesh = build_mesh(1, int(8 / eps))
            for i in range(8):
                r = sample_realization(CB1, i)
                res = minimize(assemble_energy([r], eps, mesh, V2, load=1.0), tol=1e-10)
                pairs.append((r, res.fields[0]))
            m = mean_pairing(pairs, eps, dic, include_gradient=True)
            dists.append(metric_distance(m, lim))
        assert dists[-1] < dists[0]
        assert dists[-1] < 0.01
