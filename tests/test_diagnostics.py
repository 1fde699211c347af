import json

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from rpickle.diagnostics import (
    Z_975,
    DiagnosticsReport,
    LinearModel,
    convergence_ratios,
    coverage,
    error_norms,
    laplace_posterior,
    linear_oracle,
    lpp,
    posterior_moments,
    report_to_csv,
    report_to_json,
)
from rpickle.errors import ConfigError, NonPsdHessianError
from rpickle.gp_prior import CkleBasis, ConditionedGP, KernelParams, build_basis, matern52
from rpickle.mesh_fv import build_structured_mesh
from rpickle.pickle_map import LossParams, map_optimize
from rpickle.rpickle_sampler import PosteriorEnsemble

import cases
import oracles


def synthetic_ensemble(xi_rows):
    """Wrap raw xi rows as a converged, unfiltered ensemble.

    Two eta columns of noise ride along, which the field moments must ignore.
    """
    xi_rows = np.atleast_2d(xi_rows)
    n = xi_rows.shape[0]
    return PosteriorEnsemble(
        z=np.hstack([xi_rows, np.random.default_rng(0).standard_normal((n, 2))]),
        n_xi=xi_rows.shape[1],
        loss=np.zeros(n),
        log_det_j=None,
        accepted=np.ones(n, dtype=bool),
        converged=np.ones(n, dtype=bool),
        seeds=[f"0/3/{i}" for i in range(n)],
        config={},
        acceptance_rate=None,
    )


def small_basis(n_cells=25, n_terms=4, seed=3):
    mesh = build_structured_mesh(5, 5)
    cov = matern52(mesh.cell_centers, mesh.cell_centers, KernelParams(sigma=1.0, length_scale=0.4))
    mean = np.random.default_rng(seed).standard_normal(n_cells)
    return build_basis(ConditionedGP(mean=mean, covariance=cov), energy=None, n_terms=n_terms)


class _ShiftedQuadratic:
    """R(xi) = xi^2 - c, the smallest model with tunable curvature sign."""

    n_xi = 1
    n_eta = 0
    n_residual = 1

    def __init__(self, shift):
        self.shift = shift

    def residual(self, xi, eta):
        return np.array([xi[0] ** 2 - self.shift])

    def jacobians(self, xi, eta):
        return np.array([[2.0 * xi[0]]]), np.zeros((1, 0))

    def vjp(self, xi, eta, w):
        return np.array([2.0 * xi[0] * w[0]]), np.zeros(0)

    def hessian_contract(self, xi, eta, w):
        return np.array([[2.0 * w[0]]])


class TestLinearOracle:
    def test_identity_model_zero_data(self):
        model = LinearModel(a_matrix=np.eye(3))
        mean, cov = linear_oracle(model, LossParams(sigma_r_sq=1.0))
        np.testing.assert_allclose(mean, 0.0, atol=1e-14)
        np.testing.assert_allclose(cov, 0.5 * np.eye(3), atol=1e-14)

    def test_identity_model_shifts_mean_halfway(self):
        c0 = np.array([2.0, -4.0, 1.0])
        model = LinearModel(a_matrix=np.eye(3), c_vector=c0)
        mean, _ = linear_oracle(model, LossParams(sigma_r_sq=1.0))
        np.testing.assert_allclose(mean, c0 / 2.0, atol=1e-14)

    def test_mean_is_map_minimizer(self):
        rng = np.random.default_rng(40)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.3)
        mean, _ = linear_oracle(model, params)
        result = map_optimize(model, params)
        np.testing.assert_allclose(result.z, mean, atol=1e-6)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(41)
        model = cases.make_random_linear(rng)
        _, cov = linear_oracle(model, LossParams(sigma_r_sq=0.5))
        assert np.max(np.abs(cov - cov.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


class TestPosteriorMoments:
    def test_identical_samples_zero_spread(self):
        basis = small_basis()
        row = np.array([0.3, -1.0, 0.5, 2.0])
        ens = synthetic_ensemble(np.tile(row, (5, 1)))
        mean_f, std_f = posterior_moments(ens, basis)
        np.testing.assert_array_equal(std_f, 0.0)
        np.testing.assert_allclose(mean_f, basis.mean + basis.modes @ row, rtol=1e-14)

    def test_two_samples_midpoint_and_spread(self):
        basis = small_basis()
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 2.0, 0.0, -1.0])
        ens = synthetic_ensemble(np.vstack([a, b]))
        mean_f, std_f = posterior_moments(ens, basis)
        fa = basis.mean + basis.modes @ a
        fb = basis.mean + basis.modes @ b
        np.testing.assert_allclose(mean_f, 0.5 * (fa + fb), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(std_f, np.abs(fa - fb) / np.sqrt(2.0), rtol=1e-12, atol=1e-15)

    def test_prior_ensemble_recovers_analytic_variance(self):
        basis = small_basis()
        rng = np.random.default_rng(42)
        ens = synthetic_ensemble(rng.standard_normal((20_000, basis.n_terms)))
        _, std_f = posterior_moments(ens, basis)
        analytic = np.sum(basis.modes**2, axis=1)
        np.testing.assert_allclose(std_f**2, analytic, rtol=0.03)

    def test_too_few_samples_rejected(self):
        basis = small_basis()
        ens = synthetic_ensemble(np.zeros((1, 4)))
        with pytest.raises(ConfigError, match="two usable"):
            posterior_moments(ens, basis)

    def test_term_count_mismatch_rejected(self):
        basis = small_basis(n_terms=3)
        ens = synthetic_ensemble(np.zeros((3, 4)))
        with pytest.raises(ConfigError, match="terms"):
            posterior_moments(ens, basis)


class TestLpp:
    def test_matched_mean_and_unit_density_scores_zero(self):
        sigma = np.sqrt(1.0 / (2.0 * np.pi))
        assert lpp([1.5], [sigma], [1.5]) == pytest.approx(0.0, abs=1e-14)

    def test_one_sigma_miss(self):
        sigma = 0.7
        expected = -0.5 - 0.5 * np.log(2.0 * np.pi * sigma**2)
        assert lpp([0.0], [sigma], [sigma]) == pytest.approx(expected, rel=1e-14)

    def test_matches_independent_gaussian_densities(self):
        rng = np.random.default_rng(44)
        mu = rng.standard_normal(60)
        sigma = 0.2 + rng.random(60)
        ref = rng.standard_normal(60)
        expected = norm.logpdf(ref, loc=mu, scale=sigma).sum()
        assert lpp(mu, sigma, ref) == pytest.approx(expected, rel=1e-12)

    def test_zero_spread_rejected_with_cell_list(self):
        sigma = np.array([1.0, 0.0, 0.5, 0.0])
        with pytest.raises(ConfigError, match=r"\[1, 3\]"):
            lpp(np.zeros(4), sigma, np.zeros(4))


class TestCoverage:
    def test_reference_equals_mean(self):
        assert coverage(np.ones(8), np.full(8, 0.1), np.ones(8)) == 1.0

    def test_zero_spread_with_mismatch(self):
        assert coverage(np.zeros(8), np.zeros(8), np.ones(8)) == 0.0

    def test_quantile_constant_is_scipys_to_the_bit(self):
        # coverage holds the quantile as a literal so diagnose need not load scipy.special.
        assert Z_975.hex() == float(ndtri(0.975)).hex()

    def test_gaussian_calibration(self):
        rng = np.random.default_rng(46)
        n = 10_000
        mu = rng.standard_normal(n)
        sigma = 0.5 + rng.random(n)
        truth = mu + sigma * rng.standard_normal(n)
        cov = coverage(mu, sigma, truth)
        se = np.sqrt(0.95 * 0.05 / n)
        assert abs(cov - 0.95) <= 3 * se


class TestErrorNorms:
    def test_exact_match(self):
        ref = np.array([1.0, 2.0, -1.0])
        assert error_norms(ref, ref) == (0.0, 0.0)

    def test_single_entry_perturbation(self):
        ref = np.array([3.0, 4.0])
        mean = ref + np.array([0.0, 0.25])
        rel_l2, l_inf = error_norms(mean, ref)
        assert l_inf == 0.25
        assert rel_l2 == pytest.approx(0.25 / 5.0, rel=1e-15)

    def test_doubling_gives_unit_relative_error(self):
        ref = np.array([1.0, -2.0, 0.5])
        rel_l2, _ = error_norms(2.0 * ref, ref)
        assert rel_l2 == pytest.approx(1.0, rel=1e-15)

    def test_zero_reference_rejected(self):
        with pytest.raises(ConfigError, match="zero"):
            error_norms(np.ones(3), np.zeros(3))


class TestConvergenceRatios:
    def test_constant_series(self):
        chain = np.full((50, 1), 3.0)
        mean_r, std_r = convergence_ratios(chain, 0)
        np.testing.assert_array_equal(mean_r, 1.0)
        assert np.isnan(std_r[0])
        np.testing.assert_array_equal(std_r[1:], 1.0)

    def test_final_entry_exactly_one(self):
        rng = np.random.default_rng(48)
        chain = 1.0 + rng.standard_normal((200, 2))
        mean_r, std_r = convergence_ratios(chain, 1)
        assert mean_r[-1] == 1.0
        assert std_r[-1] == 1.0

    def test_iid_normal_std_ratio_band(self):
        rng = np.random.default_rng(77)
        good = 0
        for _ in range(100):
            chain = rng.standard_normal((10_000, 1))
            _, std_r = convergence_ratios(chain, 0)
            good += bool(np.all((std_r[4999:] >= 0.97) & (std_r[4999:] <= 1.03)))
        assert good >= 95

    def test_zero_full_mean_reported_absent(self):
        chain = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        mean_r, std_r = convergence_ratios(chain, 0)
        assert mean_r is None
        assert std_r is not None

    def test_first_std_entry_nan(self):
        chain = np.random.default_rng(49).standard_normal((10, 1))
        _, std_r = convergence_ratios(chain, 0)
        assert np.isnan(std_r[0]) and not np.any(np.isnan(std_r[1:]))


class TestLaplacePosterior:
    def test_pure_prior_is_identity(self):
        model = LinearModel(a_matrix=np.zeros((4, 2)), b_matrix=np.zeros((4, 2)))
        cov, cond, spectrum = laplace_posterior(model, LossParams(sigma_r_sq=1.0), np.zeros(4))
        np.testing.assert_allclose(cov, np.eye(4), atol=1e-14)
        assert cond == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(spectrum, 1.0, atol=1e-14)

    def test_linear_model_matches_oracle_exactly(self):
        rng = np.random.default_rng(51)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.4)
        mean, cov_oracle = linear_oracle(model, params)
        cov, _, spectrum = laplace_posterior(model, params, mean)
        np.testing.assert_allclose(cov, cov_oracle, atol=1e-8)
        assert np.all(np.diff(spectrum) <= 0.0)

    def test_condition_grows_as_observation_noise_shrinks(self):
        conds = []
        for gamma in (1e-1, 1e-2, 1e-4):
            model, params, _ = cases.make_conditioning_case(sigma_r_sq=gamma)
            result = map_optimize(model, params)
            assert result.converged
            _, cond, _ = laplace_posterior(model, params, result.z)
            conds.append(cond)
        assert conds[0] < conds[1] < conds[2]

    def test_condition_grows_with_dimension(self):
        model10, params, _ = cases.make_conditioning_case(n_terms=5)
        model40, _, _ = cases.make_conditioning_case(n_terms=20)
        _, c10, _ = laplace_posterior(model10, params, map_optimize(model10, params).z)
        _, c40, _ = laplace_posterior(model40, params, map_optimize(model40, params).z)
        assert c40 > c10

    def test_matches_finite_difference_hessian(self):
        model, params, _ = cases.make_flow_case()
        result = map_optimize(model, params)
        cov, _, _ = laplace_posterior(model, params, result.z)
        hessian = np.linalg.inv(cov)
        fd = oracles.fd_hessian(
            lambda z: oracles.reference_loss(
                model.mesh, model.bc, model.y_basis, model.u_basis,
                params.sigma_r_sq, z[: model.n_xi], z[model.n_xi :],
            ) / params.sigma_r_sq,
            result.z,
        )
        assert np.linalg.norm(hessian - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_saddle_rejected_with_eigenvalue(self):
        model = _ShiftedQuadratic(shift=2.0)
        with pytest.raises(NonPsdHessianError, match="-3.0"):
            laplace_posterior(model, LossParams(sigma_r_sq=1.0), np.zeros(1))


class TestSamplersAgainstOracle:
    def test_linear_triangle(self, monkeypatch):
        import rpickle.hmc_sampler as hmc

        model, params, ensemble, _ = cases.make_linear_ensemble()
        mean_o, cov_o = linear_oracle(model, params)

        coeffs = ensemble.coefficient_matrix()
        se = coeffs.std(axis=0, ddof=1) / np.sqrt(coeffs.shape[0])
        assert np.all(np.abs(coeffs.mean(axis=0) - mean_o) <= 3 * se)
        cov_r = np.cov(coeffs, rowvar=False, ddof=1)
        assert np.linalg.norm(cov_r - cov_o) <= 0.05 * np.linalg.norm(cov_o)

        monkeypatch.setattr(hmc, "STEP_SIZE", 0.05)
        chains = hmc.run_hmc(model, params, 6667, 3, 800, seed=62)
        states = np.vstack([c.states for c in chains])
        # Batch-means SE per coordinate absorbs the chain autocorrelation.
        batch_means = np.array(
            [
                c.states[b * 833 : (b + 1) * 833].mean(axis=0)
                for c in chains
                for b in range(8)
            ]
        )
        se_h = batch_means.std(axis=0, ddof=1) / np.sqrt(batch_means.shape[0])
        assert np.all(np.abs(states.mean(axis=0) - mean_o) <= 3 * se_h)
        cov_h = np.cov(states, rowvar=False, ddof=1)
        assert np.linalg.norm(cov_h - cov_o) <= 0.05 * np.linalg.norm(cov_o)


class TestLppGridShape:
    def test_interior_maximum_on_truncated_case(self):
        # Five modes cannot resolve the length-0.25 field, so tiny sigma_r_sq
        # makes the ensemble confidently wrong and huge sigma_r_sq ignores the
        # data; the reference log predictive probability peaks in between.
        from rpickle.rpickle_sampler import run_ensemble

        model, _, case = cases.make_conditioning_case()
        y_basis = cases.conditioning_y_basis()
        grid = [1e-5, 1e-4, 1e-2, 1e-1, 1.0]
        scores = []
        for gamma in grid:
            ens = run_ensemble(model, LossParams(sigma_r_sq=gamma), 500, base_seed=21, metropolize=True)
            mean_f, std_f = posterior_moments(ens, y_basis)
            scores.append(lpp(mean_f, std_f, case.y_ref))
        best = int(np.argmax(scores))
        assert 0 < best < len(grid) - 1


class TestReport:
    @staticmethod
    def small_report():
        return DiagnosticsReport(
            mean_field=np.array([1.0, 2.0]),
            std_field=np.array([0.1, 0.2]),
            lpp=-3.5,
            coverage=0.9,
            rel_l2=0.05,
            l_inf=0.2,
            laplace_spectrum=np.array([2.0, 1.0, 0.5]),
            condition_number=4.0,
            convergence_curves={
                0: {"mean": np.array([1.2, 1.0]), "std": np.array([np.nan, 1.0])},
                1: {"mean": None, "std": np.array([np.nan, 1.0])},
            },
        )

    def test_validation(self):
        with pytest.raises(ConfigError, match="coverage"):
            DiagnosticsReport(
                mean_field=np.zeros(2),
                std_field=np.zeros(2),
                lpp=0.0,
                coverage=1.5,
                rel_l2=0.0,
                l_inf=0.0,
                laplace_spectrum=np.ones(2),
                condition_number=1.0,
                convergence_curves={},
            )
        with pytest.raises(ConfigError, match="std_field"):
            DiagnosticsReport(
                mean_field=np.zeros(2),
                std_field=np.array([-0.1, 0.0]),
                lpp=0.0,
                coverage=0.5,
                rel_l2=0.0,
                l_inf=0.0,
                laplace_spectrum=np.ones(2),
                condition_number=1.0,
                convergence_curves={},
            )
        with pytest.raises(ConfigError, match="nonincreasing"):
            DiagnosticsReport(
                mean_field=np.zeros(2),
                std_field=np.zeros(2),
                lpp=0.0,
                coverage=0.5,
                rel_l2=0.0,
                l_inf=0.0,
                laplace_spectrum=np.array([1.0, 2.0]),
                condition_number=1.0,
                convergence_curves={},
            )

    def test_json_writer(self, tmp_path):
        report = self.small_report()
        path = tmp_path / "report.json"
        report_to_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["lpp"] == -3.5
        assert doc["coverage"] == 0.9
        assert doc["laplace_spectrum"] == [2.0, 1.0, 0.5]
        assert doc["n_cells"] == 2

    def test_csv_writer(self, tmp_path):
        report = self.small_report()
        report_to_csv(report, tmp_path)
        fields = (tmp_path / "fields.csv").read_text().splitlines()
        assert fields[0] == "cell,mean,std"
        assert fields[1] == "0,1.0,0.1"
        conv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert conv[0] == "coordinate,m,mean_ratio,std_ratio"
        assert conv[1] == "0,1,1.2,"
        assert conv[2] == "0,2,1.0,1.0"
        assert conv[3] == "1,1,,"

    def test_writers_byte_stable(self, tmp_path):
        report = self.small_report()
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        report_to_csv(report, a)
        report_to_csv(report, b)
        assert (a / "fields.csv").read_bytes() == (b / "fields.csv").read_bytes()
        assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()
