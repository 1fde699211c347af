import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpickle.errors import ConfigError
from rpickle import field_gen as fg
from rpickle import gp_prior as gp
from rpickle import mesh_fv as mf


def prior_basis(mesh, sigma=1.0, length_scale=0.4, n_terms=None, energy=0.95):
    cov = gp.matern52(mesh.cell_centers, mesh.cell_centers, gp.KernelParams(sigma, length_scale))
    prior = gp.ConditionedGP(mean=np.zeros(mesh.n_cells), covariance=cov)
    return gp.build_basis(prior, energy=None if n_terms else energy, n_terms=n_terms)


class TestSampleReference:
    def test_deterministic_per_seed(self):
        mesh = mf.build_structured_mesh(5, 5)
        basis = prior_basis(mesh)
        c1, f1 = fg.sample_reference_field(basis, 11)
        c2, f2 = fg.sample_reference_field(basis, 11)
        c3, f3 = fg.sample_reference_field(basis, 12)
        assert np.array_equal(c1, c2) and np.array_equal(f1, f2)
        assert not np.array_equal(f1, f3)

    def test_coefficients_standard_normal(self):
        mesh = mf.build_structured_mesh(4, 4)
        basis = prior_basis(mesh, n_terms=6)
        draws = np.array([fg.sample_reference_field(basis, s)[0] for s in range(10_000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(draws.var(axis=0, ddof=1), 1.0, atol=0.06)


class TestLocalAverage:
    def test_zero_iterations_identity(self):
        mesh = mf.build_structured_mesh(4, 4)
        y = np.random.default_rng(0).normal(size=16)
        np.testing.assert_array_equal(fg.local_average(mesh, y, 0), y)

    def test_constant_field_fixed_point(self):
        mesh = mf.build_structured_mesh(5, 3)
        y = np.full(15, 1.7)
        np.testing.assert_allclose(fg.local_average(mesh, y, 7), y, atol=1e-14)

    def test_center_cell_single_sweep(self):
        # 3x3 mesh: middle cell 4 averages itself and its face neighbors 1, 3, 5, 7
        mesh = mf.build_structured_mesh(3, 3)
        y = np.arange(9.0)
        out = fg.local_average(mesh, y, 1)
        assert out[4] == pytest.approx((y[4] + y[1] + y[3] + y[5] + y[7]) / 5.0)
        # corner cell 0 has neighbors 1 and 3
        assert out[0] == pytest.approx((y[0] + y[1] + y[3]) / 3.0)

    def test_variance_nonincreasing(self):
        mesh = mf.build_structured_mesh(16, 16)
        _, y = fg.sample_reference_field(prior_basis(mesh, length_scale=0.15), 3)
        variances = [fg.local_average(mesh, y, k).var() for k in range(0, 31, 5)]
        assert np.all(np.diff(variances) <= 1e-12)

    def test_damps_checkerboard_mode(self):
        # The structured adjacency graph is bipartite; without the self term
        # this mode would survive 30 sweeps at nearly full amplitude.
        mesh = mf.build_structured_mesh(8, 8)
        ix = np.arange(64)
        checker = (-1.0) ** (ix % 8 + ix // 8)
        out = fg.local_average(mesh, checker, 30)
        assert np.max(np.abs(out)) < 1e-2

    @settings(deadline=None, max_examples=30)
    @given(shift=st.floats(-10.0, 10.0), k=st.integers(0, 5))
    def test_commutes_with_constant_shift(self, shift, k):
        mesh = mf.build_structured_mesh(4, 3)
        y = np.random.default_rng(1).normal(size=12)
        lhs = fg.local_average(mesh, y + shift, k)
        rhs = fg.local_average(mesh, y, k) + shift
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_is_geometric_mean_in_transmissivity(self):
        mesh = mf.build_structured_mesh(3, 3)
        y = np.random.default_rng(5).normal(size=9)
        out = fg.local_average(mesh, y, 1)
        t_center = np.exp([y[4], y[1], y[3], y[5], y[7]])
        assert np.exp(out[4]) == pytest.approx(np.prod(t_center) ** 0.2, rel=1e-12)

    def test_rejects_negative_iterations(self):
        mesh = mf.build_structured_mesh(2, 2)
        with pytest.raises(ConfigError):
            fg.local_average(mesh, np.zeros(4), -1)


class TestSelectWells:
    def test_basic_properties(self):
        mesh = mf.build_structured_mesh(6, 6)
        cands = np.arange(10, 30)
        wells = fg.select_wells(mesh, cands, 8, seed=4)
        assert wells.shape == (8,)
        assert np.unique(wells).size == 8
        assert np.all(np.isin(wells, cands))
        assert np.array_equal(wells, np.sort(wells))

    def test_deterministic_and_stream_separated(self):
        mesh = mf.build_structured_mesh(6, 6)
        cands = np.arange(36)
        a = fg.select_wells(mesh, cands, 5, seed=9)
        b = fg.select_wells(mesh, cands, 5, seed=9)
        c = fg.select_wells(mesh, cands, 5, seed=9, stream_index=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_selection_frequencies(self):
        mesh = mf.build_structured_mesh(4, 3)
        cands = np.arange(12)
        n_obs, reps = 4, 10_000
        counts = np.zeros(12)
        for s in range(reps):
            counts[fg.select_wells(mesh, cands, n_obs, seed=s)] += 1
        p = n_obs / 12
        se = np.sqrt(reps * p * (1 - p))
        assert np.all(np.abs(counts - reps * p) <= 3 * se)

    def test_too_many_wells_rejected(self):
        mesh = mf.build_structured_mesh(2, 2)
        with pytest.raises(ConfigError):
            fg.select_wells(mesh, [0, 1], 3, seed=0)

    def test_out_of_range_candidates_rejected(self):
        mesh = mf.build_structured_mesh(2, 2)
        with pytest.raises(ConfigError):
            fg.select_wells(mesh, [0, 99], 1, seed=0)


class TestBuildCase:
    def make(self, smoothing=0, seed=17):
        mesh = mf.build_structured_mesh(16, 16)
        bc = mf.boundary_values(mesh, {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0})
        kernel = gp.KernelParams(sigma=1.0, length_scale=0.2)
        case = fg.build_synthetic_case(
            mesh, kernel, bc, n_y_obs=40, n_u_obs=10, seed=seed, smoothing_iterations=smoothing
        )
        return mesh, bc, case

    def test_observations_match_reference(self):
        mesh, bc, case = self.make()
        np.testing.assert_array_equal(case.y_obs.values, case.y_ref[case.y_obs.cells])
        np.testing.assert_array_equal(case.u_obs.values, case.u_ref[case.u_obs.cells])
        r = mf.FlowOperator(mesh, bc).residual(case.y_ref, case.u_ref)
        assert np.max(np.abs(r)) <= 1e-9

    def test_smoothing_reduces_truncation_dimension(self):
        # rougher truth needs more 95%-energy terms than its 30-sweep smoothing
        _, _, rough = self.make(smoothing=0)
        _, _, smooth = self.make(smoothing=30)

        def fitted_terms(case):
            fit = gp.fit_hyperparameters(case.y_obs)
            mesh = mf.build_structured_mesh(16, 16)
            cond = gp.gpr_condition(gp.matern52, fit, case.y_obs, mesh.cell_centers)
            basis = gp.build_basis(cond, energy=0.95)
            return basis.n_terms

        assert fitted_terms(smooth) <= fitted_terms(rough)

    def test_roundtrip(self, tmp_path):
        mesh, _, case = self.make()
        fg.save_case(case, mesh, tmp_path)
        back = fg.load_case(tmp_path, mesh)
        np.testing.assert_array_equal(back.y_ref, case.y_ref)
        np.testing.assert_array_equal(back.u_ref, case.u_ref)
        np.testing.assert_array_equal(back.y_obs.cells, case.y_obs.cells)
        np.testing.assert_array_equal(back.u_obs.values, case.u_obs.values)
        assert back.provenance == case.provenance

    def test_load_rejects_negative_observation_cell(self, tmp_path):
        mesh, _, case = self.make()
        fg.save_case(case, mesh, tmp_path)
        doc = json.loads((tmp_path / "case.json").read_text())
        doc["y_obs"]["cells"][0] = -1
        (tmp_path / "case.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="nonnegative"):
            fg.load_case(tmp_path, mesh)

    def test_load_rejects_non_finite_observation_value(self, tmp_path):
        mesh, _, case = self.make()
        fg.save_case(case, mesh, tmp_path)
        doc = json.loads((tmp_path / "case.json").read_text())
        doc["u_obs"]["values"][0] = float("nan")
        (tmp_path / "case.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="case.json.*finite"):
            fg.load_case(tmp_path, mesh)
