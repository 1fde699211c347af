import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpickle.errors import ConfigError, EnsembleFailureError, IllConditionedError, NumericalError
from rpickle import gp_prior as gp
from rpickle import mesh_fv as mf

import oracles


def unit_square_points(n, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))


def exact_cov_samples(params, points, n_samples, seed):
    """Draw exact zero-mean GP samples by Cholesky of the kernel matrix."""
    cov = gp.matern52(points, points, params)
    cov[np.diag_indices(points.shape[0])] += 1e-10
    chol = np.linalg.cholesky(cov)
    z = np.random.default_rng(seed).standard_normal((points.shape[0], n_samples))
    return (chol @ z).T


class TestMatern52:
    def test_zero_distance_gives_variance(self):
        params = gp.KernelParams(sigma=1.7, length_scale=0.4)
        assert gp.matern52(np.array([0.3, 0.3]), np.array([0.3, 0.3]), params) == pytest.approx(1.7**2)

    def test_unit_hand_value(self):
        # sigma = l = 1, distance 1: (1 + sqrt5 + 5/3) exp(-sqrt5) ~ 0.5240
        params = gp.KernelParams(sigma=1.0, length_scale=1.0)
        value = gp.matern52(np.array([0.0, 0.0]), np.array([1.0, 0.0]), params)
        assert value == pytest.approx(0.5240, abs=5e-4)
        hand = (1.0 + np.sqrt(5.0) + 5.0 / 3.0) * np.exp(-np.sqrt(5.0))
        assert value == pytest.approx(hand, rel=1e-12)

    def test_monotone_decay(self):
        params = gp.KernelParams(sigma=1.0, length_scale=0.5)
        d = np.linspace(0.0, 3.0, 40)
        pts = np.column_stack([d, np.zeros_like(d)])
        row = gp.matern52(np.zeros((1, 2)), pts, params)[0]
        assert np.all(np.diff(row) < 0)

    def test_matrix_shape_and_symmetry(self):
        params = gp.KernelParams(sigma=0.9, length_scale=0.3)
        a = unit_square_points(7, 0)
        b = unit_square_points(4, 1)
        k = gp.matern52(a, b, params)
        assert k.shape == (7, 4)
        kaa = gp.matern52(a, a, params)
        np.testing.assert_allclose(kaa, kaa.T, atol=1e-15)

    @settings(deadline=None, max_examples=100)
    @given(dx=st.floats(0.0, 50.0), sigma=st.floats(0.1, 10.0), ell=st.floats(0.05, 5.0))
    def test_bounded_and_positive(self, dx, sigma, ell):
        params = gp.KernelParams(sigma=sigma, length_scale=ell)
        value = gp.matern52(np.array([0.0, 0.0]), np.array([dx, 0.0]), params)
        assert 0.0 <= value <= sigma**2 * (1.0 + 1e-12)
        if np.sqrt(5.0) * dx / ell < 700:  # exp does not underflow
            assert value > 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            gp.KernelParams(sigma=0.0, length_scale=1.0)
        with pytest.raises(ConfigError):
            gp.KernelParams(sigma=1.0, length_scale=-2.0)


class TestFitHyperparameters:
    def test_recovers_length_scale(self):
        # median relative error over independent synthetic fits
        true = gp.KernelParams(sigma=1.0, length_scale=0.3)
        errors = []
        for rep in range(20):
            pts = unit_square_points(200, 100 + rep)
            values = exact_cov_samples(true, pts, 1, 200 + rep)[0]
            obs = gp.Observations(locations=pts, values=values, cells=np.arange(200))
            fit = gp.fit_hyperparameters(obs)
            errors.append(abs(fit.length_scale - true.length_scale) / true.length_scale)
        assert np.median(errors) < 0.3

    def test_doubling_values_doubles_sigma(self):
        true = gp.KernelParams(sigma=0.8, length_scale=0.25)
        pts = unit_square_points(150, 3)
        values = exact_cov_samples(true, pts, 1, 4)[0]
        obs1 = gp.Observations(locations=pts, values=values, cells=np.arange(150))
        obs2 = gp.Observations(locations=pts, values=2.0 * values, cells=np.arange(150))
        fit1 = gp.fit_hyperparameters(obs1)
        fit2 = gp.fit_hyperparameters(obs2)
        # identical up to refinement wobble around a flat minimum
        assert fit2.length_scale == pytest.approx(fit1.length_scale, rel=1e-4)
        assert fit2.sigma == pytest.approx(2.0 * fit1.sigma, rel=1e-4)

    def test_constant_values_hit_lower_bound(self):
        pts = unit_square_points(20, 5)
        obs = gp.Observations(locations=pts, values=np.full(20, 3.3), cells=np.arange(20))
        with pytest.warns(UserWarning, match="constant"):
            fit = gp.fit_hyperparameters(obs)
        assert fit.sigma == pytest.approx(1e-8)

    def test_needs_two_observations(self):
        obs = gp.Observations(locations=[[0.0, 0.0]], values=[1.0], cells=[0])
        with pytest.raises(ConfigError):
            gp.fit_hyperparameters(obs)


class TestGprCondition:
    def setup_method(self):
        self.params = gp.KernelParams(sigma=1.2, length_scale=0.35)
        self.targets = unit_square_points(30, 7)

    def test_no_observations_returns_prior(self):
        obs = gp.Observations(locations=np.zeros((0, 2)), values=[], cells=[])
        out = gp.gpr_condition(gp.matern52, self.params, obs, self.targets)
        np.testing.assert_allclose(out.mean, 0.0)
        np.testing.assert_allclose(
            out.covariance, gp.matern52(self.targets, self.targets, self.params)
        )

    def test_interpolates_observations(self):
        cells = np.array([2, 11, 25])
        values = np.array([0.4, -1.1, 0.7])
        obs = gp.Observations(locations=self.targets[cells], values=values, cells=cells)
        out = gp.gpr_condition(gp.matern52, self.params, obs, self.targets)
        np.testing.assert_allclose(out.mean[cells], values, atol=1e-5)
        # conditional variance at observed cells collapses to the nugget scale
        assert np.all(np.diag(out.covariance)[cells] <= self.params.effective_nugget + 1e-12)

    def test_variance_never_increases(self):
        cells = np.array([0, 9])
        obs = gp.Observations(locations=self.targets[cells], values=[1.0, 2.0], cells=cells)
        out = gp.gpr_condition(gp.matern52, self.params, obs, self.targets)
        prior_var = np.diag(gp.matern52(self.targets, self.targets, self.params))
        assert np.all(np.diag(out.covariance) <= prior_var + 1e-12)

    def test_covariance_symmetric_psd(self):
        cells = np.array([1, 5, 17])
        obs = gp.Observations(locations=self.targets[cells], values=[0.0, 1.0, -1.0], cells=cells)
        out = gp.gpr_condition(gp.matern52, self.params, obs, self.targets)
        np.testing.assert_allclose(out.covariance, out.covariance.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(out.covariance)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)

    def test_two_point_hand_oracle(self):
        params = gp.KernelParams(sigma=1.0, length_scale=0.5, nugget=1e-8)
        x1, x2 = np.array([0.0, 0.0]), np.array([0.4, 0.0])
        target = np.array([[0.2, 0.1]])
        y1, y2 = 1.0, -0.5
        # explicit 2x2 inverse: K = [[v, c], [c, v]], K^-1 = [[v, -c], [-c, v]] / (v^2 - c^2)
        v = 1.0 + 1e-8
        c = gp.matern52(x1, x2, params)
        k1 = gp.matern52(target[0], x1, params)
        k2 = gp.matern52(target[0], x2, params)
        det = v * v - c * c
        w1 = (k1 * v - k2 * c) / det
        w2 = (k2 * v - k1 * c) / det
        expected_mean = w1 * y1 + w2 * y2
        expected_var = 1.0 - (w1 * k1 + w2 * k2)
        obs = gp.Observations(locations=[x1, x2], values=[y1, y2], cells=[0, 1])
        out = gp.gpr_condition(gp.matern52, params, obs, target)
        assert out.mean[0] == pytest.approx(expected_mean, abs=1e-12)
        assert out.covariance[0, 0] == pytest.approx(expected_var, abs=1e-12)

    def test_duplicate_locations_without_nugget_fail(self):
        params = gp.KernelParams(sigma=1.0, length_scale=0.5, nugget=0.0)
        obs = gp.Observations(
            locations=[[0.1, 0.1], [0.1, 0.1]], values=[1.0, 1.0], cells=[0, 1]
        )
        with pytest.raises(IllConditionedError, match="condition"):
            gp.gpr_condition(gp.matern52, params, obs, self.targets)

    def test_condition_on_cells_matches_kernel_path(self):
        # discrete conditioning on the full kernel covariance reproduces gpr_condition
        params = gp.KernelParams(sigma=1.0, length_scale=0.4)
        cells = np.array([3, 8])
        values = np.array([0.5, -0.2])
        obs = gp.Observations(locations=self.targets[cells], values=values, cells=cells)
        kernel_out = gp.gpr_condition(gp.matern52, params, obs, self.targets)
        prior_cov = gp.matern52(self.targets, self.targets, params)
        discrete = gp.condition_on_cells(
            np.zeros(30), prior_cov, obs, nugget=params.effective_nugget
        )
        np.testing.assert_allclose(discrete.mean, kernel_out.mean, atol=1e-10)
        np.testing.assert_allclose(discrete.covariance, kernel_out.covariance, atol=1e-10)


def truncate(cov, energy=None, n_terms=None):
    """Eigenvalues, eigenvectors and term count that ``build_basis`` keeps for ``cov``."""
    cov = np.asarray(cov, dtype=np.float64)
    prior = gp.ConditionedGP(mean=np.zeros(cov.shape[0]), covariance=cov)
    basis = gp.build_basis(prior, energy=energy, n_terms=n_terms)
    return basis.eigenvalues, basis.eigenvectors, basis.n_terms


class TestTruncatedEig:
    def test_diagonal_energy_rule(self):
        vals, vecs, n = truncate(np.diag([3.0, 2.0, 1.0]), energy=0.95)
        assert n == 3
        np.testing.assert_allclose(vals, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(3), atol=1e-14)

    def test_diagonal_lower_energy(self):
        _, _, n = truncate(np.diag([3.0, 2.0, 1.0]), energy=0.5)
        assert n == 1
        _, _, n = truncate(np.diag([3.0, 2.0, 1.0]), energy=0.83)
        assert n == 2

    def test_rank_one(self):
        v = np.array([1.0, 2.0, -2.0])
        vals, vecs, n = truncate(np.outer(v, v), energy=0.999)
        assert n == 1
        assert vals[0] == pytest.approx(9.0)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.abs(v) / 3.0, atol=1e-12)

    def test_retained_energy_matches_full_spectrum_sum(self):
        mesh = mf.build_structured_mesh(8, 8)
        cov = gp.matern52(mesh.cell_centers, mesh.cell_centers, gp.KernelParams(sigma=0.7, length_scale=0.5))
        basis = gp.build_basis(gp.ConditionedGP(mean=np.zeros(64), covariance=cov), energy=0.95)
        total = np.clip(np.linalg.eigvalsh((cov + cov.T) / 2.0), 0.0, None).sum()
        assert basis.retained_energy == pytest.approx(basis.eigenvalues.sum() / total, rel=1e-12, abs=0)
        assert 0.95 <= basis.retained_energy < 1.0

    def test_explicit_n_terms(self):
        vals, vecs, n = truncate(np.diag([3.0, 2.0, 1.0]), n_terms=2)
        assert n == 2 and vals.shape == (2,) and vecs.shape == (3, 2)

    def test_asymmetric_warns(self):
        cov = np.array([[1.0, 0.3], [0.1, 1.0]])
        with pytest.warns(UserWarning, match="symmetrized"):
            truncate(cov, energy=1.0)

    def test_negative_eigenvalues_clipped_with_warning(self):
        with pytest.warns(UserWarning, match="clipped"):
            vals, _, _ = truncate(np.diag([1.0, -0.01]), energy=1.0)
        assert np.all(vals >= 0.0)

    def test_empirical_covariance_leading_eigenvalue(self):
        params = gp.KernelParams(sigma=1.0, length_scale=0.4)
        pts = unit_square_points(36, 11)
        samples = exact_cov_samples(params, pts, 5000, 12)
        emp = np.cov(samples, rowvar=False, ddof=1)
        exact_vals, _, _ = truncate(gp.matern52(pts, pts, params), n_terms=1)
        emp_vals, _, _ = truncate(emp, n_terms=1)
        assert emp_vals[0] == pytest.approx(exact_vals[0], rel=0.05)


class TestCkleBasis:
    def make_basis(self, n_cells=16, energy=None, n_terms=None, seed=2):
        pts = unit_square_points(n_cells, seed)
        params = gp.KernelParams(sigma=1.0, length_scale=0.5)
        cov = gp.matern52(pts, pts, params)
        mean = np.random.default_rng(seed + 1).normal(size=n_cells)
        return gp.build_basis(gp.ConditionedGP(mean=mean, covariance=cov), energy=energy, n_terms=n_terms), cov

    def test_eval_zero_coeffs_is_mean(self):
        basis, _ = self.make_basis(energy=0.95)
        np.testing.assert_allclose(gp.ckle_eval(basis, np.zeros(basis.n_terms)), basis.mean)

    def test_eval_unit_coeff_adds_scaled_mode(self):
        basis, _ = self.make_basis(energy=0.95)
        e0 = np.zeros(basis.n_terms)
        e0[0] = 1.0
        expected = basis.mean + np.sqrt(basis.eigenvalues[0]) * basis.eigenvectors[:, 0]
        np.testing.assert_allclose(gp.ckle_eval(basis, e0), expected, atol=1e-13)

    def test_eval_linear_in_coeffs(self):
        basis, _ = self.make_basis(energy=0.9)
        rng = np.random.default_rng(0)
        c1, c2 = rng.normal(size=(2, basis.n_terms))
        lhs = gp.ckle_eval(basis, 2.0 * c1 + 0.5 * c2)
        rhs = 2.0 * gp.ckle_eval(basis, c1) + 0.5 * gp.ckle_eval(basis, c2) - 1.5 * basis.mean
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_orthonormal_eigenvectors(self):
        basis, _ = self.make_basis(energy=0.99)
        gram = basis.eigenvectors.T @ basis.eigenvectors
        np.testing.assert_allclose(gram, np.eye(basis.n_terms), atol=1e-10)

    def test_untruncated_reconstruction(self):
        basis, cov = self.make_basis(n_terms=16)
        recon = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
        assert np.linalg.norm(recon - cov) <= 1e-8 * np.linalg.norm(cov)
        assert basis.retained_energy == pytest.approx(1.0)

    def test_sampled_variance_matches_modes(self):
        basis, _ = self.make_basis(n_cells=9, energy=0.95)
        rng = np.random.default_rng(33)
        z = rng.standard_normal((basis.n_terms, 100_000))
        fields = basis.mean[:, None] + basis.modes @ z
        want = (basis.modes**2).sum(axis=1)
        np.testing.assert_allclose(fields.var(axis=1, ddof=1), want, rtol=0.03)

    def test_validation(self):
        with pytest.raises(ConfigError):
            gp.CkleBasis(mean=np.zeros(3), eigenvalues=[1.0, 2.0], eigenvectors=np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            gp.CkleBasis(mean=np.zeros(3), eigenvalues=[-1.0], eigenvectors=np.zeros((3, 1)))

    def test_json_roundtrip(self, tmp_path):
        basis, _ = self.make_basis(energy=0.9)
        path = tmp_path / "basis.json"
        gp.basis_to_json(basis, path, meta={"seed": 3})
        back = gp.basis_from_json(path)
        np.testing.assert_array_equal(back.mean, basis.mean)
        np.testing.assert_array_equal(back.eigenvalues, basis.eigenvalues)
        np.testing.assert_array_equal(back.eigenvectors, basis.eigenvectors)
        assert back.retained_energy == basis.retained_energy
        assert json.loads(path.read_text())["meta"] == {"seed": 3}


class TestMcStatePrior:
    def make_inputs(self, n_cells=12, n_terms=3, seed=5):
        mesh = mf.build_structured_mesh(4, 3)
        pts = mesh.cell_centers
        params = gp.KernelParams(sigma=0.6, length_scale=0.5)
        cov = gp.matern52(pts, pts, params)
        basis = gp.build_basis(gp.ConditionedGP(mean=np.zeros(n_cells), covariance=cov), n_terms=n_terms)
        bc = mf.boundary_values(mesh, {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0})
        return mesh, basis, bc

    def test_linear_surrogate_pushforward(self):
        mesh, basis, bc = self.make_inputs()
        rng = np.random.default_rng(8)
        m = rng.normal(size=(12, 12))
        shift = rng.normal(size=12)

        mean_u, cov_u = gp.mc_state_prior(
            mesh, basis, bc, n_mc=5000, seed=99, solver=lambda _m, y, _b: m @ y + shift
        )
        phi = basis.modes
        exact_cov = m @ (phi @ phi.T) @ m.T
        exact_mean = m @ basis.mean + shift
        assert np.linalg.norm(cov_u - exact_cov) <= 0.10 * np.linalg.norm(exact_cov)
        se = np.sqrt(np.diag(exact_cov) / 5000)
        assert np.all(np.abs(mean_u - exact_mean) <= 4.0 * se + 1e-12)

    def test_degenerate_basis_gives_zero_covariance(self):
        mesh, basis, bc = self.make_inputs()
        flat = gp.CkleBasis(
            mean=basis.mean, eigenvalues=np.zeros(1), eigenvectors=basis.eigenvectors[:, :1]
        )
        _, cov_u = gp.mc_state_prior(mesh, flat, bc, n_mc=16, seed=1)
        np.testing.assert_allclose(cov_u, 0.0, atol=1e-20)

    def test_two_draw_hand_formula(self):
        mesh, basis, bc = self.make_inputs()
        mean_u, cov_u = gp.mc_state_prior(mesh, basis, bc, n_mc=2, seed=21)
        u = [
            mf.FlowOperator(mesh, bc).solve(
                gp.ckle_eval(basis, gp.spawn_rng(21, gp.STREAM_MC_PRIOR, i).standard_normal(basis.n_terms))
            )
            for i in range(2)
        ]
        np.testing.assert_allclose(mean_u, (u[0] + u[1]) / 2.0, atol=1e-14)
        d = (u[0] - u[1]) / np.sqrt(2.0)
        np.testing.assert_allclose(cov_u, np.outer(d, d), atol=1e-14)

    def test_shared_operator_matches_solve_forward(self):
        mesh, basis, bc = self.make_inputs()
        shared = gp.mc_state_prior(mesh, basis, bc, n_mc=64, seed=7)
        per_draw = gp.mc_state_prior(
            mesh, basis, bc, n_mc=64, seed=7, solver=lambda m, y, b: mf.FlowOperator(m, b).solve(y)
        )
        assert np.array_equal(shared[0], per_draw[0])
        assert np.array_equal(shared[1], per_draw[1])

    def test_failure_fraction_aborts(self):
        mesh, basis, bc = self.make_inputs()
        calls = {"n": 0}

        def flaky(_mesh, y, _bc):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise NumericalError("synthetic failure")
            return np.zeros(mesh.n_cells)

        with pytest.raises(EnsembleFailureError, match="state-prior"):
            gp.mc_state_prior(mesh, basis, bc, n_mc=100, seed=3, solver=flaky)

    def test_sparse_failures_are_dropped(self):
        mesh, basis, bc = self.make_inputs()
        calls = {"n": 0}

        def once_flaky(m, y, b):
            calls["n"] += 1
            if calls["n"] == 5:
                raise NumericalError("synthetic failure")
            return mf.FlowOperator(m, b).solve(y)

        mean_u, _ = gp.mc_state_prior(mesh, basis, bc, n_mc=200, seed=13, solver=once_flaky)
        assert np.all(np.isfinite(mean_u))


class TestObservations:
    def test_rejects_duplicate_cells(self):
        with pytest.raises(ConfigError, match="one observation per cell"):
            gp.Observations(locations=np.zeros((2, 2)), values=[1.0, 2.0], cells=[3, 3])

    def test_rejects_negative_cells(self):
        # A -1 would index the last cell of the field from the end.
        with pytest.raises(ConfigError, match="nonnegative"):
            gp.condition_on_cells(
                np.zeros(4),
                np.eye(4),
                gp.Observations(locations=np.zeros((1, 2)), values=[1.0], cells=[-1]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_locations(self, bad):
        with pytest.raises(ConfigError, match="locations must be finite"):
            gp.Observations(locations=[[0.5, bad]], values=[1.0], cells=[0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            gp.Observations(locations=np.zeros((2, 2)), values=[1.0], cells=[0, 1])

    def test_observations_at_cells(self):
        mesh = mf.build_structured_mesh(3, 3)
        field = np.arange(9.0)
        obs = gp.observations_at_cells(mesh, [2, 7], field)
        np.testing.assert_array_equal(obs.values, [2.0, 7.0])
        np.testing.assert_array_equal(obs.locations, mesh.cell_centers[[2, 7]])
