from dataclasses import replace

import numpy as np
import pytest

from rpickle import pickle_map
from rpickle.errors import ConfigError, EnsembleFailureError
from rpickle.pickle_map import (
    LossParams,
    PickleLoss,
    map_optimize,
    minimize_batch,
    tolerance,
)
from rpickle.rpickle_sampler import (
    NoiseDraw,
    PosteriorEnsemble,
    draw_noise,
    ensemble_from_csv,
    ensemble_to_csv,
    jacobian_logdet,
    metropolis_filter,
    run_ensemble,
    write_manifest,
)
from rpickle.seeding import STREAM_NOISE, spawn_rng

import cases
import oracles


def zero_noise(model):
    return NoiseDraw(
        omega=np.zeros(model.n_residual),
        alpha=np.zeros(model.n_xi),
        beta=np.zeros(model.n_eta),
        seed="manual",
    )


def shifted_loss(model, params, noise):
    """The randomized loss of one noise draw."""
    return PickleLoss(model, params, noise.omega, noise.alpha, noise.beta)


class _QuadraticResidual:
    """Scalar toy R(xi) = xi^2, no eta block; everything hand-computable."""

    n_xi = 1
    n_eta = 0
    n_residual = 1

    def residual(self, xi, eta):
        return np.array([float(xi[0]) ** 2])

    def jacobians(self, xi, eta):
        return np.array([[2.0 * float(xi[0])]]), np.zeros((1, 0))

    def vjp(self, xi, eta, w):
        return np.array([2.0 * float(xi[0]) * float(w[0])]), np.zeros(0)

    def hessian_contract(self, xi, eta, w):
        return np.array([[2.0 * float(w[0])]])


class _Uniforms:
    """Stand-in RNG that hands out a fixed list of uniforms and counts the draws."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def uniform(self):
        self.drawn += 1
        return self.values[self.drawn - 1]


def hand_ensemble(log_det=None):
    """Four rows of hand-written columns, among them an unconverged row and ``-0.0``.

    ``log_det`` None gives the unfiltered layout.  The rows need not form a
    chain the filter could produce; they exercise the file layout only.
    """
    return PosteriorEnsemble(
        z=[[0.5, -1.0, 2.0], [0.25, 0.0, -3.5], [1e-300, 7.0, 0.1], [-0.0, 1.5, 2.5]],
        n_xi=2,
        loss=[1.5, 2.25, 1e9, 0.0],
        log_det_j=log_det,
        accepted=[True, False, True, True],
        converged=[True, True, False, True],
        seeds=["4/3/0", "4/3/0", "4/3/2", "4/3/3"],
        config={},
        acceptance_rate=None if log_det is None else 0.75,
        n_failed=1,
    )


def assert_same_ensemble(a, b):
    assert a.n_xi == b.n_xi
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.loss, b.loss)
    if a.log_det_j is None:
        assert b.log_det_j is None
    else:
        assert np.array_equal(a.log_det_j, b.log_det_j)
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.converged, b.converged)
    assert a.seeds == b.seeds
    assert a.acceptance_rate == b.acceptance_rate
    assert a.n_failed == b.n_failed


class TestRandomizedLoss:
    def test_zero_noise_is_scaled_loss(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(20)
        z = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
        got, _ = shifted_loss(model, params, zero_noise(model)).value_grad(z)
        want = oracles.reference_loss(
            model.mesh, model.bc, model.y_basis, model.u_basis,
            params.sigma_r_sq, z[: model.n_xi], z[model.n_xi :],
        )
        assert got == pytest.approx(want / params.sigma_r_sq, rel=1e-12)

    def test_exact_fit_gives_zero(self):
        model = cases.make_darcy_model()
        params = LossParams(sigma_r_sq=0.1)
        rng = np.random.default_rng(21)
        xi = rng.standard_normal(model.n_xi)
        eta = rng.standard_normal(model.n_eta)
        noise = NoiseDraw(
            omega=model.residual(xi, eta), alpha=xi, beta=eta, seed="fit"
        )
        assert shifted_loss(model, params, noise).value_grad(np.concatenate([xi, eta]))[0] == 0.0

    def test_matches_independent_evaluation(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(22)
        z = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
        noise = draw_noise(model, params, base_seed=5, index=3)
        want = oracles.reference_randomized_loss(
            model.mesh, model.bc, model.y_basis, model.u_basis, params.sigma_r_sq,
            z[: model.n_xi], z[model.n_xi :], noise.omega, noise.alpha, noise.beta,
        )
        assert shifted_loss(model, params, noise).value_grad(z)[0] == pytest.approx(want, rel=1e-12)

    def test_noise_has_residual_variance_and_unit_prior(self):
        model = cases.make_darcy_model()
        params = LossParams(sigma_r_sq=4.0)
        draws = np.array(
            [
                np.concatenate(
                    [
                        draw_noise(model, params, 0, i).omega,
                        draw_noise(model, params, 0, i).alpha,
                        draw_noise(model, params, 0, i).beta,
                    ]
                )
                for i in range(4000)
            ]
        )
        n, n_xi = model.n_residual, model.n_xi
        assert np.std(draws[:, :n]) == pytest.approx(2.0, rel=0.05)
        assert np.std(draws[:, n : n + n_xi]) == pytest.approx(1.0, rel=0.05)
        assert np.std(draws[:, n + n_xi :]) == pytest.approx(1.0, rel=0.05)


class TestEnsembleSolves:
    """Randomized solves as the ensemble runs them: blocks of rows through the batched solver."""

    def test_linear_closed_form(self):
        rng = np.random.default_rng(23)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.5)
        ensemble = run_ensemble(model, params, 3, base_seed=7, metropolize=False)
        g = np.hstack([model.a_matrix, model.b_matrix])
        lhs = g.T @ g / params.sigma_r_sq + np.eye(9)
        assert ensemble.converged.all()
        for index, z in enumerate(ensemble.z):
            noise = draw_noise(model, params, base_seed=7, index=index)
            rhs = g.T @ (model.c_vector + noise.omega) / params.sigma_r_sq + np.concatenate(
                [noise.alpha, noise.beta]
            )
            np.testing.assert_allclose(z, np.linalg.solve(lhs, rhs), rtol=0, atol=1e-8)

    def test_zero_noise_recovers_map(self):
        model, params, _ = cases.make_flow_case()
        rows = 3
        loss = PickleLoss(
            model,
            params,
            np.zeros((rows, model.n_residual)),
            np.zeros((rows, model.n_xi)),
            np.zeros((rows, model.n_eta)),
        )
        res = minimize_batch(loss, np.zeros((rows, model.n_xi + model.n_eta)))
        result = map_optimize(model, params)
        assert res.converged.all()
        for z in res.z:
            np.testing.assert_allclose(z, result.z, rtol=0, atol=1e-8)

    def test_reruns_bit_identical(self):
        model, params, _ = cases.make_flow_case()
        a = run_ensemble(model, params, 6, base_seed=9)
        b = run_ensemble(model, params, 6, base_seed=9)
        assert_same_ensemble(a, b)

    def test_block_size_changes_rows_only_within_tolerance(self):
        # Solving the same draws as 40 one-row blocks or as one 40-row block
        # changes the batched products' rounding only, so every row converges
        # either way and the two minimizers lie within twice the tolerance.
        model, params, _ = cases.make_flow_case()
        init = map_optimize(model, params).z
        noises = [draw_noise(model, params, base_seed=11, index=i) for i in range(40)]
        targets = [np.array([getattr(nz, name) for nz in noises]) for name in ("omega", "alpha", "beta")]
        loss = PickleLoss(model, params, *targets)
        block = minimize_batch(loss, np.tile(init, (40, 1)))
        for r in range(40):
            alone = minimize_batch(loss.take([r]), init[None, :])
            assert alone.converged[0] == block.converged[r]
            assert np.linalg.norm(alone.z[0] - block.z[r]) <= 2.0 * tolerance(block.loss[r])


def logdet_at_misfit(model, params, z, delta):
    """The log-det at ``z`` of the loss whose target ``omega`` makes the misfit ``delta``."""
    r = model.residual(z[: model.n_xi], z[model.n_xi :])
    loss = PickleLoss(model, params, omega=r - delta)
    return jacobian_logdet(loss, z), r - loss.omega


class TestJacobianLogdet:
    def test_linear_model_constant(self):
        rng = np.random.default_rng(24)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.5)
        values = set()
        for i in range(3):
            z = rng.standard_normal(9)
            delta = rng.standard_normal(model.n_residual)
            values.add(logdet_at_misfit(model, params, z, delta)[0])
        assert len(values) == 1

    def test_zero_delta_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(25)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.3)
        got, misfit = logdet_at_misfit(model, params, np.zeros(9), np.zeros(model.n_residual))
        assert np.all(misfit == 0.0)
        g = np.hstack([model.a_matrix, model.b_matrix])
        m = np.eye(9) + (g.T @ g) / params.sigma_r_sq
        want = float(np.sum(np.log(np.linalg.eigvals(m).real)))
        assert got == pytest.approx(want, abs=1e-10)

    def test_scalar_toy_matches_hand_formula(self):
        model = _QuadraticResidual()
        params = LossParams(sigma_r_sq=0.7)
        # R(0.5) = 0.25, so omega = 0.5 and the misfit -0.25 are exact.
        xi, delta = 0.5, -0.25
        got, misfit = logdet_at_misfit(model, params, np.array([xi]), np.array([delta]))
        assert misfit.tolist() == [delta]
        m = 1.0 + 2.0 * delta / 0.7 + 4.0 * xi**2 / 0.7
        assert got == pytest.approx(np.log(abs(m)), abs=1e-10)

    def test_negative_determinant_uses_absolute_value(self):
        model = _QuadraticResidual()
        params = LossParams(sigma_r_sq=1.0)
        # m = 1 + 2*delta + 4*xi^2 = -1 at xi=1, delta=-3 (omega = 4, exact)
        got, misfit = logdet_at_misfit(model, params, np.array([1.0]), np.array([-3.0]))
        assert misfit.tolist() == [-3.0]
        assert got == pytest.approx(np.log(1.0), abs=1e-12)

    def test_singular_matrix_reports_minus_infinity(self):
        model = _QuadraticResidual()
        params = LossParams(sigma_r_sq=1.0)
        # m = 1 + 2*delta + 4*xi^2 = 0 at xi=1, delta=-5/2 (omega = 7/2, exact)
        got, misfit = logdet_at_misfit(model, params, np.array([1.0]), np.array([-2.5]))
        assert misfit.tolist() == [-2.5]
        assert got == float("-inf")

    def test_darcy_positive_at_map(self):
        model, params, _ = cases.make_flow_case()
        result = map_optimize(model, params)
        value = jacobian_logdet(PickleLoss(model, params), result.z)
        assert np.isfinite(value)


class TestMetropolisFilter:
    def test_equal_logdets_accept_everything(self):
        index, accepted = metropolis_filter(np.full(50, 1.7), np.ones(50, dtype=bool), spawn_rng(0, 4))
        assert accepted.all()
        assert index.tolist() == list(range(50))

    def test_alternating_logdets_accept_at_expected_rate(self):
        n = 100_000
        log_det = np.where(np.arange(n) % 2 == 0, 0.0, -2.0)
        _, flags = metropolis_filter(log_det, np.ones(n, dtype=bool), spawn_rng(1, 4))
        # Every even proposal faces a ratio >= 1; every odd one faces e^{-1}.
        assert flags[0::2].all()
        p = np.exp(-1.0)
        se = np.sqrt(p * (1 - p) / (n / 2))
        assert abs(flags[1::2].mean() - p) <= 3 * se

    def test_rejection_carries_previous_state(self):
        index, accepted = metropolis_filter([0.0, -200.0], [True, True], spawn_rng(2, 4))
        assert index.tolist() == [0, 0]
        assert accepted.tolist() == [True, False]

    def test_single_proposal_accepted(self):
        index, accepted = metropolis_filter([-3.0], [True], spawn_rng(3, 4))
        assert index.tolist() == [0] and accepted.tolist() == [True]

    def test_missing_logdet_aborts(self):
        with pytest.raises(ConfigError):
            metropolis_filter(None, [True], spawn_rng(4, 4))

    @pytest.mark.parametrize(
        "log_det, converged", [([], []), ([0.0, 0.0], [True]), ([[0.0]], [[True]])]
    )
    def test_empty_or_mismatched_inputs_rejected(self, log_det, converged):
        with pytest.raises(ConfigError):
            metropolis_filter(log_det, converged, spawn_rng(4, 4))

    def test_no_converged_proposal_aborts(self):
        with pytest.raises(EnsembleFailureError):
            metropolis_filter([0.0, 0.0], [False, False], spawn_rng(4, 4))

    def test_failed_proposals_rejected_and_backfilled(self):
        # The leading failure holds a copy of the first converged proposal.
        index, accepted = metropolis_filter(
            np.zeros(4), [False, True, False, True], spawn_rng(5, 4)
        )
        assert index.tolist() == [1, 1, 1, 3]
        assert accepted.tolist() == [False, True, False, True]

    def test_one_uniform_per_converged_proposal_after_the_first(self):
        # Hand-built stream: proposal 0 is a failure, 1 the auto-accepted
        # start, 2 faces ratio e^{-1} and draws 0.5 (rejected), 3 is a failure
        # (no draw), 4 faces ratio 1 from the held state and draws 0.99.
        rng = _Uniforms([0.5, 0.99])
        index, accepted = metropolis_filter(
            [0.0, 0.0, -2.0, 5.0, 0.0], [False, True, True, False, True], rng
        )
        assert rng.drawn == 2
        assert index.tolist() == [1, 1, 1, 1, 4]
        assert accepted.tolist() == [False, True, False, False, True]

    def test_minus_infinity_logdets_never_accepted(self):
        # A -inf proposal after a finite state has ratio 0; a -inf start
        # leaves every ratio undefined, so nothing after it is accepted.
        # Each still draws its uniform.
        rng = _Uniforms([0.0, 0.0])
        index, accepted = metropolis_filter([0.0, -np.inf, 0.0], [True] * 3, rng)
        assert index.tolist() == [0, 0, 2] and accepted.tolist() == [True, False, True]
        rng = _Uniforms([0.0, 0.0])
        index, accepted = metropolis_filter([-np.inf, 0.0, -np.inf], [True] * 3, rng)
        assert index.tolist() == [0, 0, 0] and accepted.tolist() == [True, False, False]
        assert rng.drawn == 2

    def test_deterministic_given_rng_seed(self):
        log_det = np.where(np.arange(200) % 2 == 0, 0.0, -1.0)
        a = metropolis_filter(log_det, np.ones(200, dtype=bool), spawn_rng(6, 4))
        b = metropolis_filter(log_det, np.ones(200, dtype=bool), spawn_rng(6, 4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPosteriorEnsemble:
    def test_usable_rows_are_the_converged_ones(self):
        ens = hand_ensemble()
        assert len(ens) == 4 and ens.n_usable == 3 and ens.moments_defined
        np.testing.assert_array_equal(ens.coefficient_matrix(), ens.z[[0, 1, 3]])

    def test_no_usable_rows(self):
        ens = replace(hand_ensemble(), converged=[False] * 4)
        assert not ens.moments_defined
        with pytest.raises(ConfigError, match="usable"):
            ens.coefficient_matrix()

    @pytest.mark.parametrize(
        "change",
        [
            {"z": np.zeros((0, 3))},
            {"loss": [0.0] * 3},
            {"log_det_j": [0.0] * 5},
            {"accepted": [True]},
            {"converged": [True] * 5},
            {"seeds": ["a"]},
            {"n_xi": 4},
            {"z": np.full((4, 3), np.nan)},
        ],
    )
    def test_misaligned_columns_rejected(self, change):
        with pytest.raises(ConfigError):
            replace(hand_ensemble(), **change)


class TestRunEnsemble:
    def test_linear_moments_match_oracle(self):
        from rpickle.diagnostics import linear_oracle

        model, params, ensemble, _ = cases.make_linear_ensemble()
        mean, cov = linear_oracle(model, params)
        draws = ensemble.coefficient_matrix()
        n = draws.shape[0]
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * se)
        emp_cov = np.cov(draws, rowvar=False, ddof=1)
        rel = np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.05

    def test_linear_metropolized_acceptance_is_exactly_one(self):
        _, _, ensemble, _ = cases.make_linear_ensemble()
        assert ensemble.config["metropolize"] is True
        assert ensemble.acceptance_rate == 1.0

    def test_single_sample_ensemble_flagged(self):
        rng = np.random.default_rng(26)
        model = cases.make_random_linear(rng, n_res=10, n_xi=2, n_eta=2)
        params = LossParams(sigma_r_sq=1.0)
        ensemble = run_ensemble(model, params, 1, base_seed=1)
        assert len(ensemble) == 1
        assert ensemble.moments_defined is False

    def test_aborts_when_failures_exceed_limit(self, monkeypatch):
        model = cases.make_darcy_model()
        params = LossParams(sigma_r_sq=1e-4)
        monkeypatch.setattr(pickle_map, "MAXITER", 1)
        monkeypatch.setattr(pickle_map, "POLISH_MAXITER", 0)
        with pytest.raises(EnsembleFailureError, match="did not converge"):
            run_ensemble(model, params, 10, base_seed=2, metropolize=False)

    def test_accepted_samples_are_stationary(self):
        model, params, _ = cases.make_flow_case()
        ensemble = run_ensemble(model, params, 40, base_seed=3)
        rows = zip(ensemble.z, ensemble.loss, ensemble.seeds, ensemble.accepted)
        for z, loss, seed, accepted in rows:
            if not accepted:
                continue
            xi, eta = z[: model.n_xi], z[model.n_xi :]
            noise = draw_noise(model, params, 3, int(seed.split("/")[-1]))
            dr = model.residual(xi, eta) - noise.omega
            g_xi, g_eta = model.vjp(xi, eta, dr / params.sigma_r_sq)
            grad = np.concatenate(
                [
                    g_xi + (xi - noise.alpha),
                    g_eta + (eta - noise.beta),
                ]
            )
            assert np.linalg.norm(grad) <= 1e-6 * (1.0 + loss)

    def test_darcy_acceptance_rate_high(self):
        model, params, _ = cases.make_flow_case()
        ensemble = run_ensemble(model, params, 400, base_seed=4)
        assert ensemble.acceptance_rate is not None
        assert ensemble.acceptance_rate >= 0.9

    def test_delta_invariant_on_flow_samples(self):
        # Each stored log-det is taken at its own row's misfit R(z) - omega,
        # so the filter's index keeps coefficients, seeds and log-dets aligned.
        model, params, _ = cases.make_flow_case()
        ensemble = run_ensemble(model, params, 20, base_seed=5)
        for z, seed, log_det in zip(ensemble.z, ensemble.seeds, ensemble.log_det_j):
            noise = draw_noise(model, params, 5, int(seed.split("/")[-1]))
            assert log_det == jacobian_logdet(shifted_loss(model, params, noise), z)

    def test_unfiltered_statistics_order_invariant(self):
        rng = np.random.default_rng(27)
        model = cases.make_random_linear(rng, n_res=12, n_xi=3, n_eta=2)
        params = LossParams(sigma_r_sq=0.5)
        ensemble = run_ensemble(
            model, params, 200, base_seed=6, metropolize=False
        )
        assert ensemble.acceptance_rate is None
        draws = ensemble.coefficient_matrix()
        perm = np.random.default_rng(0).permutation(draws.shape[0])
        np.testing.assert_allclose(
            draws.mean(axis=0), draws[perm].mean(axis=0), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.cov(draws, rowvar=False), np.cov(draws[perm], rowvar=False),
            rtol=0, atol=1e-12,
        )

    def test_rejects_empty_request(self):
        rng = np.random.default_rng(28)
        model = cases.make_random_linear(rng, n_res=4, n_xi=1, n_eta=1)
        with pytest.raises(ConfigError):
            run_ensemble(model, LossParams(sigma_r_sq=1.0), 0)


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        model, params, _ = cases.make_flow_case()
        path = tmp_path / "ens.csv"
        for metropolize in (True, False):
            ensemble = run_ensemble(model, params, 8, base_seed=8, metropolize=metropolize)
            ensemble_to_csv(ensemble, path)
            assert_same_ensemble(ensemble, ensemble_from_csv(path))

    @pytest.mark.parametrize("log_det", [None, [0.0, 0.0, -np.inf, -1.25]])
    def test_hand_built_roundtrip_keeps_infinities_and_failures(self, tmp_path, log_det):
        ensemble = hand_ensemble(log_det)
        path = tmp_path / "ens.csv"
        ensemble_to_csv(ensemble, path)
        assert_same_ensemble(ensemble, ensemble_from_csv(path))

    def test_csv_rewrite_is_byte_identical(self, tmp_path):
        model, params, _ = cases.make_flow_case()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        ensembles = [
            run_ensemble(model, params, 5, base_seed=9, metropolize=metropolize)
            for metropolize in (True, False)
        ]
        for ensemble in ensembles + [hand_ensemble(), hand_ensemble([0.0, 0.0, -np.inf, -1.25])]:
            ensemble_to_csv(ensemble, first, meta={"config_hash": "abc"})
            ensemble_to_csv(ensemble_from_csv(first), second, meta={"config_hash": "abc"})
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row[:-1],  # a column short
            lambda row: row + ["1"],  # a column too many
            lambda row: row[:-3] + [""] + row[-2:],  # blank log-det on one row only
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, edit):
        path = tmp_path / "ens.csv"
        ensemble_to_csv(hand_ensemble([0.0, 0.0, -np.inf, -1.25]), path)
        lines = path.read_text().splitlines()
        lines[-2] = ",".join(edit(lines[-2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="row|log_det_j"):
            ensemble_from_csv(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            (",0.25,", ",nan,"),
            (",0.25,", ",inf,"),
            (",0.25,", ",abc,"),
            (",2.25,", ",abc,"),
            ("# n_xi=2", "# n_xi=two"),
            ("# n_eta=1", "# n_eta=-1"),
        ],
        ids=["nan-coefficient", "inf-coefficient", "text-coefficient", "text-loss", "text-n_xi", "negative-n_eta"],
    )
    def test_bad_value_rejected_naming_file(self, tmp_path, old, new):
        path = tmp_path / "ens.csv"
        ensemble_to_csv(hand_ensemble(), path)
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(ConfigError, match="ens.csv"):
            ensemble_from_csv(path)

    @pytest.mark.parametrize("flags", [("true", "1"), ("1", "yes"), ("", "0"), ("2", "0")])
    def test_flag_other_than_zero_or_one_rejected(self, tmp_path, flags):
        # Read as False, such a row would silently leave the moments.
        path = tmp_path / "ens.csv"
        ensemble_to_csv(hand_ensemble(), path)
        lines = path.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:-2] + list(flags))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="ens.csv.*must be 0 or 1"):
            ensemble_from_csv(path)

    def test_header_without_block_sizes_rejected(self, tmp_path):
        path = tmp_path / "ens.csv"
        ensemble_to_csv(hand_ensemble(), path)
        path.write_text(path.read_text().replace("# n_eta=1\n", ""))
        with pytest.raises(ConfigError, match="not an ensemble CSV"):
            ensemble_from_csv(path)

    def test_manifest_contents(self, tmp_path):
        import json

        model, params, _ = cases.make_flow_case()
        ensemble = run_ensemble(model, params, 5, base_seed=10)
        path = tmp_path / "manifest.json"
        write_manifest(ensemble, path, extra={"stage": "unit", "gamma": params.sigma_r_sq})
        doc = json.loads(path.read_text())
        assert doc["gamma"] == params.sigma_r_sq
        assert doc["n_ens"] == 5
        assert doc["acceptance_rate"] == ensemble.acceptance_rate
        assert doc["stage"] == "unit"
        assert "timing" not in doc
