import json

import numpy as np
import pytest

from rpickle.diagnostics import linear_oracle
from rpickle.errors import ConfigError, NumericalError
import rpickle.hmc_sampler as hmc
from rpickle.hmc_sampler import (
    _dual_averaging,
    chains_to_csv,
    leapfrog,
    log_posterior_and_grad,
    run_hmc,
    split_chain_psrf,
    write_hmc_manifest,
)
from rpickle.pickle_map import LossParams, PickleLoss, map_optimize

import cases
import oracles


class _ZeroResidual:
    """R identically zero: the posterior is exactly the coefficient prior."""

    def __init__(self, n_xi=2, n_eta=0):
        self.n_xi = n_xi
        self.n_eta = n_eta
        self.n_residual = 1

    def residual(self, xi, eta):
        return np.zeros(1)

    def jacobians(self, xi, eta):
        return np.zeros((1, self.n_xi)), np.zeros((1, self.n_eta))

    def vjp(self, xi, eta, w):
        return np.zeros(self.n_xi), np.zeros(self.n_eta)

    def misfit_vjp(self, xi, eta, omega):
        m = self.residual(xi, eta) - omega
        return (m, *self.vjp(xi, eta, m))

    def hessian_contract(self, xi, eta, w):
        n = self.n_xi + self.n_eta
        return np.zeros((n, n))


class _HugeResidual(_ZeroResidual):
    def residual(self, xi, eta):
        return np.array([1e300])


def set_constants(monkeypatch, **values):
    """Patch ``hmc_sampler``'s integrator constants, e.g. ``STEP_SIZE=0.05``."""
    for name, value in values.items():
        monkeypatch.setattr(hmc, name, value)


def pooled_batch_se(states, n_batches_per_chain=8):
    """Per-coordinate standard error of the pooled mean from chain batches."""
    batch_means = []
    for chain in states:
        m = chain.shape[0] // n_batches_per_chain
        for b in range(n_batches_per_chain):
            batch_means.append(chain[b * m : (b + 1) * m].mean(axis=0))
    batch_means = np.asarray(batch_means)
    return batch_means.std(axis=0, ddof=1) / np.sqrt(batch_means.shape[0])


class TestLogPosterior:
    def test_value_is_scaled_negative_loss(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(30)
        z = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
        lp, _ = log_posterior_and_grad(model, params, z)
        loss = oracles.reference_loss(
            model.mesh, model.bc, model.y_basis, model.u_basis,
            params.sigma_r_sq, z[: model.n_xi], z[model.n_xi :],
        )
        assert lp == pytest.approx(-loss / params.sigma_r_sq, rel=1e-12)

    def test_gradient_is_scaled_loss_gradient(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(31)
        z = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
        _, grad = log_posterior_and_grad(model, params, z)
        np.testing.assert_allclose(
            grad, -PickleLoss(model, params).value_grad(z)[1], rtol=1e-12, atol=0
        )

    def test_equals_residual_then_vjp_bit_for_bit(self):
        # The fused misfit-and-adjoint evaluation must round exactly as the
        # separate residual and vjp calls do, so chains stay byte-identical.
        # The reference rebuilds the fields as matrix-vector products and
        # calls the operator's residual and vjp separately.
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(34)
        gamma, n_xi = params.sigma_r_sq, model.n_xi
        phi_y, phi_u = model.y_basis.modes, model.u_basis.modes
        for _ in range(20):
            z = 0.5 * rng.standard_normal(n_xi + model.n_eta)
            xi, eta = z[:n_xi], z[n_xi:]
            y = model.y_basis.mean + phi_y @ xi
            u = model.u_basis.mean + phi_u @ eta
            dr = model.operator.residual(y, u)
            gy, gu = model.operator.vjp(y, u, dr)
            g_xi, g_eta = phi_y.T @ gy, phi_u.T @ gu
            # unit prior variances: the loss divides by 1.0, which is exact
            value = 0.5 * (dr @ dr) + 0.5 * gamma * (xi @ xi) + 0.5 * gamma * (eta @ eta)
            grad = np.concatenate([g_xi + gamma * xi, g_eta + gamma * eta])
            lp, lg = log_posterior_and_grad(model, params, z)
            assert lp == -(float(value) / gamma)
            assert np.array_equal(lg, -(grad / gamma))

    def test_gradient_matches_finite_differences(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(32)
        z = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
        _, grad = log_posterior_and_grad(model, params, z)
        g_fd = oracles.fd_gradient(
            lambda v: log_posterior_and_grad(model, params, v)[0], z
        )
        assert np.linalg.norm(grad - g_fd) <= 1e-5 * np.linalg.norm(g_fd)

    def test_map_is_stationary_point(self):
        model, params, _ = cases.make_flow_case()
        result = map_optimize(model, params)
        _, grad = log_posterior_and_grad(model, params, result.z)
        assert np.linalg.norm(grad) <= 1e-7

    def test_doubling_gamma_halves_misfit_differences(self):
        # The prior term is unaffected by gamma, so the halving is exact for
        # point pairs of equal prior norm (here: coordinate permutations).
        model, _, _ = cases.make_flow_case()
        rng = np.random.default_rng(33)
        z_a = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
        z_b = np.roll(z_a, 3)
        p1 = LossParams(sigma_r_sq=1e-2)
        p2 = LossParams(sigma_r_sq=2e-2)
        d1 = log_posterior_and_grad(model, p1, z_a)[0] - log_posterior_and_grad(model, p1, z_b)[0]
        d2 = log_posterior_and_grad(model, p2, z_a)[0] - log_posterior_and_grad(model, p2, z_b)[0]
        assert d2 == pytest.approx(d1 / 2.0, rel=1e-10)


class TestLeapfrog:
    @staticmethod
    def gaussian_grad(z):
        return -z

    def test_reverse_integration_returns_start(self):
        rng = np.random.default_rng(34)
        z0 = rng.standard_normal((1, 3))
        p0 = rng.standard_normal((1, 3))
        z1, p1 = leapfrog(z0, p0, 0.05, 40, self.gaussian_grad)
        z2, p2 = leapfrog(z1, -p1, 0.05, 40, self.gaussian_grad)
        np.testing.assert_allclose(z2, z0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(-p2, p0, rtol=0, atol=1e-10)

    def test_energy_error_scales_quadratically(self):
        def hamiltonian(z, p):
            return 0.5 * float(z @ z) + 0.5 * float(p @ p)

        z0 = np.array([[1.0]])
        p0 = np.array([[0.3]])
        errors = []
        for step in (0.05, 0.025):
            n = int(round(2.0 / step))
            z1, p1 = leapfrog(z0, p0, step, n, self.gaussian_grad)
            errors.append(abs(hamiltonian(z1[0], p1[0]) - hamiltonian(z0[0], p0[0])))
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0

    def test_zero_steps_is_identity(self):
        z0 = np.array([[1.0, -2.0]])
        p0 = np.array([[0.5, 0.5]])
        z1, p1 = leapfrog(z0, p0, 0.1, 0, self.gaussian_grad)
        np.testing.assert_array_equal(z1, z0)
        np.testing.assert_array_equal(p1, p0)

    def test_nonfinite_trajectory_returned_for_caller(self):
        z1, _ = leapfrog(np.array([[1.0]]), np.array([[0.0]]), 1e4, 50, lambda z: -1e8 * z)
        assert not np.all(np.isfinite(z1))

    def test_diverging_row_leaves_the_other_as_if_alone(self):
        # Row 0's step is far past the stability limit of the unit harmonic
        # potential, so it overflows within the 50 steps; row 1's is stable.
        z0 = np.array([[1.0, -0.5], [0.3, 0.7]])
        p0 = np.array([[0.2, 0.1], [-0.4, 0.9]])
        seen = []

        def grad(z):
            seen.append(z.shape[0])
            return -z

        with np.errstate(over="ignore", invalid="ignore"):
            z1, p1 = leapfrog(z0, p0, np.array([1e4, 0.1]), 50, grad)
        assert not np.all(np.isfinite(z1[0]))
        assert seen[0] == 2 and seen[-1] == 1  # the diverged row takes no more calls
        z_row, p_row = leapfrog(z0[1:], p0[1:], np.array([0.1]), 50, self.gaussian_grad)
        assert np.array_equal(z1[1], z_row[0]) and np.array_equal(p1[1], p_row[0])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigError):
            leapfrog(np.zeros((1, 1)), np.zeros((1, 1)), 0.0, 1, self.gaussian_grad)

    @pytest.mark.parametrize("z_shape, p_shape", [((2,), (2,)), ((1, 1, 2), (1, 1, 2)), ((1, 2), (2, 2))])
    def test_rejects_anything_but_matching_rows(self, z_shape, p_shape):
        with pytest.raises(ConfigError, match="rows, dim"):
            leapfrog(np.zeros(z_shape), np.zeros(p_shape), 0.1, 1, self.gaussian_grad)

    @pytest.mark.parametrize("n_steps", [-1, True, 2.5])
    def test_rejects_step_counts_but_nonnegative_integers(self, n_steps):
        # -1 used to return a half-kicked momentum, True to run one step.
        with pytest.raises(ConfigError, match="n_steps"):
            leapfrog(np.array([[1.0]]), np.array([[0.5]]), 0.1, n_steps, self.gaussian_grad)


class TestDualAveraging:
    @staticmethod
    def steps(accept_prob, n_updates=39):
        """The steps of one chain updated with a constant acceptance probability."""
        h_bar, log_step_avg = np.zeros(1), np.full(1, np.log(hmc.STEP_SIZE))
        sizes = []
        for t in range(1, n_updates + 1):
            h_bar, step, log_step_avg = _dual_averaging(t, np.array([accept_prob]), h_bar, log_step_avg)
            sizes.append(float(step[0]))
        return sizes

    def test_acceptance_above_target_raises_step(self):
        sizes = self.steps(0.95)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_acceptance_below_target_lowers_step(self):
        sizes = self.steps(0.2)
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_each_chain_is_the_scalar_recursion(self, monkeypatch):
        # The per-chain arrays must round exactly as one chain's scalar
        # recursion (shrinkage 0.05, offset 10, decay 0.75), written out here.
        set_constants(monkeypatch, TARGET_ACCEPT=0.65, STEP_SIZE=0.07)
        accept = np.random.default_rng(3).uniform(size=(200, 3))
        accept[::7, 1] = 1.0
        h_bar, log_step_avg = np.zeros(3), np.full(3, np.log(0.07))
        for t in range(1, 201):
            h_bar, step, log_step_avg = _dual_averaging(t, accept[t - 1], h_bar, log_step_avg)
        for c in range(3):
            mu, h, avg = np.log(10.0 * 0.07), 0.0, np.log(0.07)
            for t in range(1, 201):
                h += (0.65 - float(accept[t - 1, c]) - h) / (t + 10.0)
                log_step = mu - np.sqrt(t) / 0.05 * h
                eta = t ** (-0.75)
                avg = eta * log_step + (1.0 - eta) * avg
            assert step[c] == float(np.exp(log_step)) and log_step_avg[c] == avg

    def test_empty_history_returns_initial(self, monkeypatch):
        # No burn-in: the step is never adapted and stays the initial one.
        set_constants(monkeypatch, STEP_SIZE=0.3)
        chains = run_hmc(_ZeroResidual(n_xi=2), LossParams(sigma_r_sq=1.0), 2, 1, 0, seed=52)
        np.testing.assert_array_equal(chains.step_sizes, [0.3])
        np.testing.assert_array_equal(chains.adaptation_traces, [[0.3]])

    def test_adapted_chain_hits_target_window(self, monkeypatch):
        model = _ZeroResidual(n_xi=2)
        params = LossParams(sigma_r_sq=1.0)
        set_constants(monkeypatch, STEP_SIZE=0.05)
        chains = run_hmc(model, params, 10_000, 1, 1500, seed=50)
        assert 0.6 <= chains.acceptance_rates[0] <= 0.8


class TestRunHmc:
    def test_standard_gaussian_moments(self):
        model = _ZeroResidual(n_xi=2)
        params = LossParams(sigma_r_sq=1.0)
        states = run_hmc(model, params, 10_000, 1, 1000, seed=51).states[0]
        mean = states.mean(axis=0)
        std = states.std(axis=0, ddof=1)
        assert np.all(np.abs(mean) < 0.05)
        assert np.all((std >= 0.95) & (std <= 1.05))

    def test_linear_model_matches_oracle(self, monkeypatch):
        rng = np.random.default_rng(35)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.5)
        set_constants(monkeypatch, STEP_SIZE=0.05)
        chains = run_hmc(model, params, 4000, 3, 800, seed=52)
        mean, cov = linear_oracle(model, params)
        pooled = chains.states.reshape(-1, chains.states.shape[2])
        se_mean = pooled_batch_se(chains.states)
        assert np.all(np.abs(pooled.mean(axis=0) - mean) <= 3 * se_mean)
        # Std agreement: batch-means SE of the variance, propagated to std.
        batch_vars = []
        for chain in chains.states:
            m = chain.shape[0] // 8
            mu = pooled.mean(axis=0)
            for b in range(8):
                seg = chain[b * m : (b + 1) * m]
                batch_vars.append(((seg - mu) ** 2).mean(axis=0))
        batch_vars = np.asarray(batch_vars)
        se_var = batch_vars.std(axis=0, ddof=1) / np.sqrt(batch_vars.shape[0])
        std = pooled.std(axis=0, ddof=1)
        se_std = se_var / (2 * std)
        assert np.all(np.abs(std - np.sqrt(np.diag(cov))) <= 3 * se_std)

    def test_fixed_seed_reproduces_chains(self, monkeypatch):
        model = _ZeroResidual(n_xi=3)
        params = LossParams(sigma_r_sq=1.0)
        set_constants(monkeypatch, LEAPFROG_STEPS=8)
        a = run_hmc(model, params, 50, 2, 20, seed=53)
        b = run_hmc(model, params, 50, 2, 20, seed=53)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.accepted, b.accepted)
        assert np.array_equal(a.step_sizes, b.step_sizes)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_one_gradient_per_leapfrog_step(self, monkeypatch):
        model = cases.make_random_linear(np.random.default_rng(57), n_res=12, n_xi=3, n_eta=2)
        params = LossParams(sigma_r_sq=0.5)
        set_constants(monkeypatch, STEP_SIZE=0.01)
        rows = []
        counted = hmc.log_posterior_and_grad

        def counting(model, params, z):
            rows.append(np.shape(z)[0])
            return counted(model, params, z)

        monkeypatch.setattr(hmc, "log_posterior_and_grad", counting)
        chains = run_hmc(model, params, 3, 3, 5, seed=57)
        # one batched evaluation of every chain at the initial points, then
        # one per leapfrog step for all chains together
        assert len(rows) == 1 + 32 * (5 + 3)
        assert set(rows) == {3}
        assert np.all(chains.acceptance_rates > 0.5)

    def test_nonfinite_initial_posterior_aborts(self, monkeypatch):
        model = _HugeResidual(n_xi=2)
        params = LossParams(sigma_r_sq=1.0)
        set_constants(monkeypatch, LEAPFROG_STEPS=4)
        with pytest.raises(NumericalError, match="non-finite"):
            run_hmc(model, params, 10, 1, 0, seed=55)

    def test_detailed_balance_on_gaussian_covariance(self, monkeypatch):
        model = _ZeroResidual(n_xi=2)
        params = LossParams(sigma_r_sq=1.0)
        set_constants(monkeypatch, LEAPFROG_STEPS=16, STEP_SIZE=0.2)
        chains = run_hmc(model, params, 50_000, 1, 1000, seed=56)
        emp = np.cov(chains.states[0], rowvar=False, ddof=1)
        rel = np.linalg.norm(emp - np.eye(2)) / np.linalg.norm(np.eye(2))
        assert rel < 0.05

    def test_hmc_and_randomized_means_agree_on_flow_case(self, monkeypatch):
        from rpickle.rpickle_sampler import run_ensemble

        # 4,000 draws per sampler keep the Monte Carlo error of the mean gap
        # near 0.025 std, so noise alone rarely reaches the 0.10 std tolerance.
        model, params, _ = cases.make_flow_case()
        ensemble = run_ensemble(model, params, 4000, base_seed=57)
        set_constants(monkeypatch, STEP_SIZE=0.02)
        states = run_hmc(model, params, 4000, 1, 800, seed=57).states[0]
        mean_r = ensemble.coefficient_matrix().mean(axis=0)
        mean_h = states.mean(axis=0)
        std = states.std(axis=0, ddof=1)
        assert np.all(np.abs(mean_r - mean_h) <= 0.10 * std)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_adapted_step_decreases_with_gamma(self, monkeypatch):
        # PSRF on a 4-sample chain is meaningless; the warning is expected.
        rng = np.random.default_rng(36)
        model = cases.make_random_linear(rng, n_res=20, n_xi=3, n_eta=2)
        set_constants(monkeypatch, LEAPFROG_STEPS=16)
        steps = []
        for gamma in (1e-1, 1e-2, 1e-4):
            chains = run_hmc(model, LossParams(sigma_r_sq=gamma), 4, 1, 600, seed=58)
            steps.append(chains.step_sizes[0])
        assert steps[0] > steps[1] > steps[2]


class TestLockstepAgainstOneChainAtATime:
    """``run_hmc`` against :func:`oracles.reference_hmc_chain`, run chain by chain."""

    @staticmethod
    def reference(model, params, n_samples, n_chains, burn_in, seed):
        from rpickle.seeding import STREAM_HMC, spawn_rng

        return [
            oracles.reference_hmc_chain(
                lambda z: log_posterior_and_grad(model, params, z),
                model.n_xi + model.n_eta,
                spawn_rng(seed, STREAM_HMC, c),
                n_samples,
                burn_in,
                hmc.LEAPFROG_STEPS,
                hmc.STEP_SIZE,
                hmc.TARGET_ACCEPT,
            )
            for c in range(n_chains)
        ]

    @staticmethod
    def models():
        model, params, _ = cases.make_flow_case()
        yield "flow", model, params, 0.02
        yield "linear", cases.make_random_linear(np.random.default_rng(35)), LossParams(sigma_r_sq=0.5), 0.05

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_one_chain_is_bit_for_bit_the_reference(self, monkeypatch):
        for name, model, params, step in self.models():
            set_constants(monkeypatch, STEP_SIZE=step)
            chains = run_hmc(model, params, 80, 1, 120, seed=57)
            ((states, flags, lps, final_step, trace),) = self.reference(model, params, 80, 1, 120, 57)
            assert np.array_equal(chains.states[0], states), name
            assert np.array_equal(chains.accepted[0], flags), name
            assert np.array_equal(chains.log_posteriors[0], lps), name
            assert chains.step_sizes[0] == final_step, name
            assert np.array_equal(chains.adaptation_traces[0], trace), name

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_each_of_three_chains_tracks_its_reference(self, monkeypatch):
        # With no burn-in the step never adapts and the step sizes match
        # exactly, so the batched products' last-bit rounding is the only
        # difference left.
        for name, model, params, step in self.models():
            set_constants(monkeypatch, STEP_SIZE=step)
            chains = run_hmc(model, params, 60, 3, 0, seed=58)
            for c, (states, flags, lps, _, _) in enumerate(self.reference(model, params, 60, 3, 0, 58)):
                assert np.max(np.abs(chains.states[c] - states)) <= 1e-10, name
                assert np.array_equal(chains.accepted[c], flags), name
                np.testing.assert_allclose(chains.log_posteriors[c], lps, rtol=1e-10, atol=0)

    def test_one_row_batch_is_one_vector(self):
        # A single chain rounds exactly as one vector, value included.
        for name, model, params, _ in self.models():
            rng = np.random.default_rng(37)
            for _ in range(5):
                z = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
                lp, grad = log_posterior_and_grad(model, params, z)
                lp_row, grad_row = log_posterior_and_grad(model, params, z[None])
                assert lp_row.shape == (1,) and grad_row.shape == (1, z.size), name
                assert lp_row[0] == lp and np.array_equal(grad_row[0], grad), name


class TestPsrf:
    def test_well_mixed_chains_near_one(self, monkeypatch):
        model = _ZeroResidual(n_xi=2)
        params = LossParams(sigma_r_sq=1.0)
        set_constants(monkeypatch, LEAPFROG_STEPS=16, STEP_SIZE=0.2)
        chains = run_hmc(model, params, 4000, 2, 500, seed=59)
        assert np.max(split_chain_psrf(chains.states)) < 1.05

    def test_drifting_chain_flagged(self):
        drift = np.linspace(0.0, 5.0, 400)[:, None]
        states = drift + 0.01 * np.random.default_rng(0).standard_normal((400, 1))
        assert np.max(split_chain_psrf(states[None])) > 1.05

    def test_halves_are_each_chains_first_and_second_half(self):
        # Three chains of an odd length: each splits into its first 100 and
        # next 100 states, the last one dropped, in chain order.  The
        # statistic is written out from those explicit sequences.
        states = np.random.default_rng(1).standard_normal((3, 201, 2))
        states += np.arange(3)[:, None, None] * np.array([0.3, -0.1])
        states[:, 200] = 1e6  # dropped, so it must not move the statistic
        seqs = []
        for chain in states:
            seqs += [chain[:100], chain[100:200]]
        n = 100
        means = np.array([seq.mean(axis=0) for seq in seqs])
        w = np.mean([seq.var(axis=0, ddof=1) for seq in seqs], axis=0)
        b = n * means.var(axis=0, ddof=1)
        expected = np.sqrt(((n - 1) / n * w + b / n) / w)
        np.testing.assert_allclose(split_chain_psrf(states), expected, rtol=1e-12, atol=0)

    def test_unmixed_chains_draw_warning(self, monkeypatch):
        model = _ZeroResidual(n_xi=2)
        params = LossParams(sigma_r_sq=1.0)
        # A step of 1e-6, never adapted without burn-in, freezes each chain
        # near its own init, so the two chains never meet and the split
        # statistic must flag it.
        set_constants(monkeypatch, LEAPFROG_STEPS=2, STEP_SIZE=1e-6)
        with pytest.warns(UserWarning, match="PSRF"):
            run_hmc(model, params, 30, 2, 0, seed=60)


class TestValidationAndSerialization:
    def test_config_validation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hmc, "log_posterior_and_grad", lambda *args: calls.append(args))
        model, params = _ZeroResidual(n_xi=2), LossParams(sigma_r_sq=1.0)
        for counts, name in (((0, 1, 0), "n_samples"), ((1, 0, 0), "n_chains"), ((1, 1, -1), "burn_in")):
            with pytest.raises(ConfigError, match=name):
                run_hmc(model, params, *counts, seed=0)
        assert calls == []

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_csv_and_manifest(self, tmp_path, monkeypatch):
        # Short chains for format checks; their PSRF warning is expected.
        model = _ZeroResidual(n_xi=2, n_eta=1)
        params = LossParams(sigma_r_sq=1.0)
        set_constants(monkeypatch, LEAPFROG_STEPS=4)
        chains = run_hmc(model, params, 12, 2, 5, seed=61)
        csv_path = tmp_path / "chains.csv"
        chains_to_csv(chains, model.n_xi, csv_path)
        text = csv_path.read_text().splitlines()
        header = text[3].split(",")
        assert header == ["seed", "chain_id", "xi_0", "xi_1", "eta_0", "log_posterior", "accepted"]
        assert len(text) == 4 + 2 * 12
        again = tmp_path / "again.csv"
        chains_to_csv(chains, model.n_xi, again)
        assert csv_path.read_bytes() == again.read_bytes()

        manifest = tmp_path / "hmc.json"
        write_hmc_manifest(chains, manifest, extra={"stage": "unit"})
        doc = json.loads(manifest.read_text())
        assert doc["sampler"] == "hmc-fixed-leapfrog"
        assert "fixed leapfrog" in doc["sampler_note"]
        assert doc["config"] == {
            "n_samples": 12, "n_chains": 2, "burn_in": 5,
            "target_accept": 0.7, "leapfrog_steps": 4, "step_size": 0.1,
        }
        assert len(doc["acceptance_rates"]) == 2
        assert len(doc["adaptation_traces"][0]) == 5 + 1
        assert "timing" not in doc

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_manifest_burn_in_is_the_runs(self, tmp_path, monkeypatch, burn_in):
        # The manifest reads the burn-in off the adaptation traces.
        set_constants(monkeypatch, LEAPFROG_STEPS=4)
        chains = run_hmc(_ZeroResidual(n_xi=2), LossParams(sigma_r_sq=1.0), 6, 2, burn_in, seed=62)
        manifest = tmp_path / "hmc.json"
        write_hmc_manifest(chains, manifest)
        doc = json.loads(manifest.read_text())
        assert doc["config"]["burn_in"] == burn_in
        assert [len(trace) for trace in doc["adaptation_traces"]] == [burn_in + 1] * 2
