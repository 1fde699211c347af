import json

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from rpickle import pickle_map, rpickle_sampler
from rpickle.diagnostics import linear_oracle
from rpickle.errors import ConfigError
from rpickle.gp_prior import CkleBasis
from rpickle.hmc_sampler import log_posterior_and_grad
from rpickle.pickle_map import (
    LossParams,
    PickleLoss,
    ResidualModel,
    map_optimize,
    map_result_to_json,
    minimize_randomized,
    sweep_gammas,
    tolerance,
)
from rpickle.rpickle_sampler import draw_noise, jacobian_logdet, run_ensemble

import cases
import oracles


class _FrozenResidual:
    """Constant residual: derivatives vanish, only prior terms remain."""

    def __init__(self, r0, n_xi, n_eta):
        self.r0 = np.asarray(r0, dtype=float)
        self._n_xi = n_xi
        self._n_eta = n_eta

    @property
    def n_xi(self):
        return self._n_xi

    @property
    def n_eta(self):
        return self._n_eta

    @property
    def n_residual(self):
        return self.r0.size

    def residual(self, xi, eta):
        return self.r0.copy()

    def jacobians(self, xi, eta):
        return np.zeros((self.r0.size, self._n_xi)), np.zeros((self.r0.size, self._n_eta))

    def vjp(self, xi, eta, w):
        return np.zeros(self._n_xi), np.zeros(self._n_eta)

    def misfit_vjp(self, xi, eta, omega):
        m = self.residual(xi, eta) - omega
        return (m, *self.vjp(xi, eta, m))

    def hessian_contract(self, xi, eta, w):
        n = self._n_xi + self._n_eta
        return np.zeros((n, n))


class _CurvedToy:
    """1+1 coefficients, 3 residuals ``R_k = A_k.z + c (B_k.z)^2 - d_k``.

    ``A``, ``B`` and ``d`` are standard normal draws from seed 3.  Its loss
    curvature makes Gauss-Newton converge slowly, and its loss values of
    3-9 put the rounding floor of the value near the gradient tolerance.
    """

    n_xi = n_eta = 1
    n_residual = 3

    def __init__(self, c):
        rng = np.random.default_rng(3)
        self.a = rng.standard_normal((3, 2))
        self.b = rng.standard_normal((3, 2))
        self.d = rng.standard_normal(3)
        self.c = c

    def _jacobian(self, z):
        return self.a + 2.0 * self.c * (self.b @ z)[:, None] * self.b

    def residual(self, xi, eta):
        z = np.concatenate([xi, eta])
        return self.a @ z + self.c * (self.b @ z) ** 2 - self.d

    def jacobians(self, xi, eta):
        j = self._jacobian(np.concatenate([xi, eta]))
        return j[:, :1], j[:, 1:]

    def vjp(self, xi, eta, w):
        g = self._jacobian(np.concatenate([xi, eta])).T @ w
        return g[:1], g[1:]

    def misfit_vjp(self, xi, eta, omega):
        z = np.concatenate([xi, eta], axis=-1)
        bz = z @ self.b.T
        m = z @ self.a.T + self.c * bz**2 - self.d - omega
        g = m @ self.a + (2.0 * self.c * bz * m) @ self.b
        return m, g[..., :1], g[..., 1:]

    def hessian_contract(self, xi, eta, w):
        return 2.0 * self.c * self.b.T @ (np.asarray(w)[:, None] * self.b)


def random_point(model, rng, scale=0.5):
    return scale * rng.standard_normal(model.n_xi + model.n_eta)


class TestPickleLoss:
    def test_matches_independent_evaluation(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(0)
        for _ in range(3):
            z = random_point(model, rng)
            got, _ = PickleLoss(model, params).value_grad(z)
            want = oracles.reference_loss(
                model.mesh, model.bc, model.y_basis, model.u_basis,
                params.sigma_r_sq, z[: model.n_xi], z[model.n_xi :],
            )
            assert got == pytest.approx(want / params.sigma_r_sq, rel=1e-12)

    def test_zero_coefficients_is_half_residual_norm(self):
        model, params, _ = cases.make_flow_case()
        z = np.zeros(model.n_xi + model.n_eta)
        r0 = model.residual(z[: model.n_xi], z[model.n_xi :])
        value, _ = PickleLoss(model, params).value_grad(z)
        assert value == 0.5 * float(r0 @ r0) / params.sigma_r_sq

    def test_zero_when_residual_and_coefficients_vanish(self):
        # Identically zero residual at zero coefficients gives exactly zero.
        params = LossParams(sigma_r_sq=1e-2)
        model = _FrozenResidual(np.zeros(6), n_xi=3, n_eta=2)
        assert PickleLoss(model, params).value_grad(np.zeros(5))[0] == 0.0
        # The small flow model's head mean solves the forward problem at the y
        # mean, so its loss at zero is residual roundoff squared.
        flow = cases.make_darcy_model()
        z = np.zeros(flow.n_xi + flow.n_eta)
        assert PickleLoss(flow, params).value_grad(z)[0] <= 1e-20 / params.sigma_r_sq

    def test_frozen_residual_keeps_only_prior_terms(self):
        rng = np.random.default_rng(1)
        r0 = rng.standard_normal(6)
        model = _FrozenResidual(r0, n_xi=3, n_eta=2)
        params = LossParams(sigma_r_sq=0.25)
        z = rng.standard_normal(5)
        expected = 0.5 * float(r0 @ r0) + 0.125 * float(z @ z)
        value, _ = PickleLoss(model, params).value_grad(z)
        assert value == pytest.approx(expected / params.sigma_r_sq, rel=1e-14)

    def test_rejects_wrong_length(self):
        model = cases.make_darcy_model()
        with pytest.raises(ConfigError):
            PickleLoss(model, LossParams(sigma_r_sq=1.0)).stacked(np.zeros(3))

    def test_permuting_terms_and_coefficients_together(self):
        # With equal eigenvalues the basis stays valid under any column
        # permutation; permuting the coefficients the same way must leave the
        # loss unchanged and permute the xi-gradient accordingly.
        base = cases.make_darcy_model()
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((base.mesh.n_cells, 4)))
        vals = np.full(4, 0.7)
        basis = CkleBasis(mean=np.zeros(base.mesh.n_cells), eigenvalues=vals, eigenvectors=q)
        perm = np.array([2, 0, 3, 1])
        basis_p = CkleBasis(
            mean=np.zeros(base.mesh.n_cells), eigenvalues=vals, eigenvectors=q[:, perm]
        )
        model = ResidualModel(base.mesh, basis, base.u_basis, base.bc)
        model_p = ResidualModel(base.mesh, basis_p, base.u_basis, base.bc)
        params = LossParams(sigma_r_sq=0.1)
        xi = rng.standard_normal(4)
        eta = rng.standard_normal(base.n_eta)
        z = np.concatenate([xi, eta])
        z_p = np.concatenate([xi[perm], eta])
        value, g = PickleLoss(model, params).value_grad(z)
        value_p, g_p = PickleLoss(model_p, params).value_grad(z_p)
        assert value_p == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(g_p[:4], g[:4][perm], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(g_p[4:], g[4:], rtol=1e-10, atol=1e-12)


class TestPickleGrad:
    def test_matches_finite_differences_on_flow_case(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(4)
        for _ in range(3):
            z = random_point(model, rng)
            loss = PickleLoss(model, params)
            g = loss.value_grad(z)[1]
            g_fd = oracles.fd_gradient(lambda v: loss.value_grad(v)[0], z)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)

    def test_matches_finite_differences_small_model(self):
        model = cases.make_darcy_model()
        params = LossParams(sigma_r_sq=0.5)
        rng = np.random.default_rng(5)
        z = random_point(model, rng)
        loss = PickleLoss(model, params)
        g = loss.value_grad(z)[1]
        g_fd = oracles.fd_gradient(lambda v: loss.value_grad(v)[0], z)
        np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-9)

    def test_frozen_zero_residual_gradient_is_gamma_z(self):
        model = _FrozenResidual(np.zeros(6), n_xi=3, n_eta=2)
        params = LossParams(sigma_r_sq=0.04)
        rng = np.random.default_rng(6)
        z = rng.standard_normal(5)
        # The prior term's gradient gamma z, scaled by 1/gamma as value_grad returns it.
        np.testing.assert_allclose(
            PickleLoss(model, params).value_grad(z)[1],
            params.sigma_r_sq * z / params.sigma_r_sq,
            rtol=0,
            atol=0,
        )

    def test_jacobians_match_finite_differences(self):
        model = cases.make_darcy_model()
        rng = np.random.default_rng(7)
        xi = 0.4 * rng.standard_normal(model.n_xi)
        eta = 0.4 * rng.standard_normal(model.n_eta)
        j_xi, j_eta = model.jacobians(xi, eta)
        j_fd = oracles.fd_jacobian(
            lambda v: model.residual(v[: model.n_xi], v[model.n_xi :]),
            np.concatenate([xi, eta]),
        )
        np.testing.assert_allclose(j_xi, j_fd[:, : model.n_xi], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(j_eta, j_fd[:, model.n_xi :], rtol=1e-6, atol=1e-9)

    def test_vjp_agrees_with_jacobians(self):
        model = cases.make_darcy_model()
        rng = np.random.default_rng(8)
        xi = rng.standard_normal(model.n_xi)
        eta = rng.standard_normal(model.n_eta)
        w = rng.standard_normal(model.n_residual)
        j_xi, j_eta = model.jacobians(xi, eta)
        g_xi, g_eta = model.vjp(xi, eta, w)
        np.testing.assert_allclose(g_xi, j_xi.T @ w, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(g_eta, j_eta.T @ w, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kind", ["flow", "linear"])
    def test_misfit_vjp_matches_residual_then_vjp(self, kind):
        # One row reproduces residual-then-vjp bit for bit; in a block the
        # basis products are matrix products and may round differently.
        rng = np.random.default_rng(29)
        model = cases.make_flow_case()[0] if kind == "flow" else cases.make_random_linear(rng)
        rows = 8
        xi = 0.5 * rng.standard_normal((rows, model.n_xi))
        eta = 0.5 * rng.standard_normal((rows, model.n_eta))
        omega = rng.standard_normal((rows, model.n_residual))
        batch = model.misfit_vjp(xi, eta, omega)
        for r in range(rows):
            m = model.residual(xi[r], eta[r]) - omega[r]
            want = (m, *model.vjp(xi[r], eta[r], m))
            for got, ref in zip(model.misfit_vjp(xi[r], eta[r], omega[r]), want):
                assert np.array_equal(got, ref)
            for got, ref in zip(batch, want):
                assert np.max(np.abs(got[r] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nx", [8, 32, None], ids=["8", "32", "linear"])
    def test_one_row_batch_rounds_as_one_vector(self, nx):
        # A one-row batch reproduces one vector bit for bit through the
        # fields, the operator, the basis products and the loss's sums of
        # squares, so the MAP solve, the ensemble and HMC share one rounding.
        # nx None is the linear model.
        if nx is None:
            model, params = cases.make_random_linear(np.random.default_rng(35)), LossParams(sigma_r_sq=0.5)
        else:
            model, params, _ = cases.make_flow_case(nx=nx, ny=nx, n_mc=200)
        loss = PickleLoss(model, params, omega=np.random.default_rng(nx or 0).standard_normal(model.n_residual))
        rng = np.random.default_rng(39)
        for _ in range(5 if nx else 20):
            z = 0.5 * rng.standard_normal(loss.size)
            xi, eta = z[: model.n_xi], z[model.n_xi :]
            one = model.misfit_vjp(xi, eta, loss.omega)
            row = model.misfit_vjp(xi[None], eta[None], loss.omega)
            for got, ref in zip(row, one):
                assert got.shape == (1,) + ref.shape and np.array_equal(got[0], ref)
            value, grad = loss.value_grad(z)
            value_row, grad_row = loss.value_grad(z[None])
            assert np.array_equal(grad_row[0], grad)
            assert value_row.shape == (1,) and value_row[0] == value

    def test_hessian_contract_matches_finite_differences(self):
        model = cases.make_darcy_model()
        rng = np.random.default_rng(9)
        xi = 0.3 * rng.standard_normal(model.n_xi)
        eta = 0.3 * rng.standard_normal(model.n_eta)
        w = rng.standard_normal(model.n_residual)
        h = model.hessian_contract(xi, eta, w)
        np.testing.assert_allclose(h, h.T, rtol=0, atol=0)
        h_fd = oracles.fd_hessian(
            lambda v: float(w @ model.residual(v[: model.n_xi], v[model.n_xi :])),
            np.concatenate([xi, eta]),
        )
        np.testing.assert_allclose(h, h_fd, rtol=1e-4, atol=1e-6)
        # eta-eta block is exactly zero: the residual is linear in the head.
        assert np.all(h[model.n_xi :, model.n_xi :] == 0.0)

    def test_hessian_with_noise_targets_matches_finite_differences(self):
        # A row of a randomized block loss has nonzero targets, so the
        # Hessian's curvature term contracts against R(z) - omega, not R(z).
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(30)
        noises = [draw_noise(model, params, base_seed=8, index=i) for i in range(3)]
        targets = [np.array([getattr(nz, name) for nz in noises]) for name in ("omega", "alpha", "beta")]
        row = PickleLoss(model, params, *targets).take(1)
        z = random_point(model, rng)
        h = row.hessian(z)
        np.testing.assert_array_equal(h, h.T)
        h_fd = oracles.fd_hessian(lambda v: row.value_grad(v)[0], z)
        assert np.linalg.norm(h - h_fd) <= 1e-4 * np.linalg.norm(h_fd)

    @pytest.mark.parametrize("kind", ["flow", "flow32", "linear"])
    def test_gauss_newton_is_jacobian_gram_plus_identity(self, kind):
        # Built from the model's forward-mode Jacobian blocks; the reference
        # builds J one residual at a time from misfit_vjp with unit misfits,
        # and the targets do not enter.
        rng = np.random.default_rng(31)
        if kind == "flow":
            model, params, _ = cases.make_flow_case()
        elif kind == "flow32":
            model, params, _ = cases.make_flow_case(nx=32, ny=32, n_mc=200)
        else:
            model, params = cases.make_random_linear(rng), LossParams(sigma_r_sq=0.5)
        z = random_point(model, rng)
        g = PickleLoss(model, params, omega=rng.standard_normal(model.n_residual)).gauss_newton(z)
        want = oracles.gauss_newton_by_unit_misfits(model, z, params.sigma_r_sq)
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        np.linalg.cholesky(g)

    @pytest.mark.parametrize("kind", ["flow", "toy"])
    def test_hessian_is_gauss_newton_plus_curvature(self, kind):
        # J'J is formed once, in gauss_newton; the Hessian adds the
        # misfit-weighted curvature over gamma.
        rng = np.random.default_rng(34)
        if kind == "flow":
            model, params, _ = cases.make_flow_case()
        else:
            model, params = _CurvedToy(0.2), LossParams(sigma_r_sq=0.1)
        loss = PickleLoss(model, params, omega=rng.standard_normal(model.n_residual))
        z = random_point(model, rng)
        xi, eta = z[: model.n_xi], z[model.n_xi :]
        curvature = model.hessian_contract(xi, eta, model.residual(xi, eta) - loss.omega)
        h = loss.hessian(z)
        np.testing.assert_allclose(
            h - loss.gauss_newton(z), curvature / params.sigma_r_sq, rtol=0, atol=1e-13 * np.max(np.abs(h))
        )

    def test_gauss_newton_is_the_hessian_on_a_linear_model(self):
        model, params = cases.make_random_linear(np.random.default_rng(32)), LossParams(sigma_r_sq=0.5)
        loss = PickleLoss(model, params)
        z = random_point(model, np.random.default_rng(33))
        np.testing.assert_allclose(loss.gauss_newton(z), loss.hessian(z), rtol=1e-13, atol=0)


class TestMapOptimize:
    def test_linear_matches_posterior_mean(self):
        rng = np.random.default_rng(10)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.5)
        mean, _ = linear_oracle(model, params)
        mean_ref, _ = oracles.linear_posterior(
            model.a_matrix, model.b_matrix, model.c_vector, params.sigma_r_sq
        )
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-10, atol=1e-12)
        result = map_optimize(model, params)
        assert result.converged
        assert np.max(np.abs(result.z - mean)) <= 1e-6

    def test_large_gamma_shrinks_to_zero(self):
        model, _, _ = cases.make_flow_case()
        gamma = 1e6
        params = LossParams(sigma_r_sq=gamma)
        zeros = np.zeros(model.n_xi + model.n_eta)
        r0 = model.residual(zeros[: model.n_xi], zeros[model.n_xi :])
        g_xi, g_eta = model.vjp(zeros[: model.n_xi], zeros[model.n_xi :], r0)
        bound = np.linalg.norm(np.concatenate([g_xi, g_eta])) / gamma
        result = map_optimize(model, params)
        z_norm = np.linalg.norm(result.z)
        assert z_norm <= 1.1 * bound
        assert z_norm <= 1e-4

    def test_init_at_solution_returns_immediately(self):
        rng = np.random.default_rng(11)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.2)
        first = map_optimize(model, params)
        second = map_optimize(model, params, init=first.z)
        assert second.n_iter <= 1
        np.testing.assert_allclose(second.z, first.z, rtol=0, atol=1e-10)

    def test_unique_minimum_from_random_inits(self):
        rng = np.random.default_rng(12)
        model = cases.make_random_linear(rng)
        params = LossParams(sigma_r_sq=0.1)
        solutions = []
        for _ in range(10):
            init = 3.0 * rng.standard_normal(model.n_xi + model.n_eta)
            result = map_optimize(model, params, init=init)
            assert result.converged
            solutions.append(result.z)
        for a in range(len(solutions)):
            for b in range(a + 1, len(solutions)):
                assert np.max(np.abs(solutions[a] - solutions[b])) < 1e-6

    def test_scaled_and_unscaled_share_argmin(self):
        # map_optimize works on the loss divided by gamma; an independent
        # minimizer of the unscaled loss must land at the same point.
        rng = np.random.default_rng(13)
        model = cases.make_random_linear(rng, n_res=20, n_xi=4, n_eta=3)
        params = LossParams(sigma_r_sq=0.5)
        result = map_optimize(model, params)
        g = np.hstack([model.a_matrix, model.b_matrix])

        def unscaled(z):
            r = g @ z - model.c_vector
            return 0.5 * r @ r + 0.5 * params.sigma_r_sq * z @ z, g.T @ r + params.sigma_r_sq * z

        res = scipy_minimize(
            unscaled,
            np.zeros(model.n_xi + model.n_eta),
            jac=True,
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        np.testing.assert_allclose(result.z, res.x, rtol=0, atol=1e-6)

    def test_flow_case_map_is_stationary(self):
        model, params, _ = cases.make_flow_case()
        result = map_optimize(model, params)
        assert result.converged
        assert result.grad_norm <= max(1e-8, 1e-8 * (1.0 + result.loss))
        zeros = np.zeros(model.n_xi + model.n_eta)
        assert result.loss < PickleLoss(model, params).value_grad(zeros)[0]

    def test_sweep_gammas_shrinks_with_regularization(self):
        rng = np.random.default_rng(14)
        model = cases.make_random_linear(rng)
        grid = [1e-4, 1e-2, 1.0, 1e2]
        results = sweep_gammas(model, grid)
        assert [g for g, _ in results] == grid
        norms = [np.linalg.norm(r.z) for _, r in results]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_json_output(self, tmp_path):
        rng = np.random.default_rng(15)
        model = cases.make_random_linear(rng, n_res=8, n_xi=2, n_eta=2)
        params = LossParams(sigma_r_sq=0.25)
        result = map_optimize(model, params)
        path = tmp_path / "map.json"
        map_result_to_json(result, model.n_xi, params.sigma_r_sq, path, meta={"case": "unit"})
        doc = json.loads(path.read_text())
        assert doc["xi"] == result.z[: model.n_xi].tolist()
        assert doc["eta"] == result.z[model.n_xi :].tolist()
        # The file holds the unscaled loss L; the solve's loss is L / gamma.
        assert doc["loss"] == result.loss * params.sigma_r_sq
        assert doc["converged"] is True
        assert doc["meta"] == {"case": "unit"}
        assert doc["n_iter"] == result.n_iter


class TestRandomizedObjective:
    def test_zero_noise_minimizer_matches_map(self):
        model, params, _ = cases.make_flow_case()
        rng = np.random.default_rng(16)
        res = minimize_randomized(
            model,
            params,
            omega=np.zeros(model.n_residual),
            alpha=np.zeros(model.n_xi),
            beta=np.zeros(model.n_eta),
            init=random_point(model, rng, scale=0.2),
        )
        result = map_optimize(model, params)
        assert res.converged
        np.testing.assert_allclose(res.z, result.z, rtol=0, atol=1e-7)
        assert res.loss == pytest.approx(result.loss, rel=1e-9)

    def test_linear_noise_shift_has_closed_form(self):
        rng = np.random.default_rng(17)
        model = cases.make_random_linear(rng, n_res=15, n_xi=3, n_eta=3)
        params = LossParams(sigma_r_sq=0.3)
        omega = rng.standard_normal(model.n_residual)
        alpha = rng.standard_normal(model.n_xi)
        beta = rng.standard_normal(model.n_eta)
        res = minimize_randomized(model, params, omega, alpha, beta)
        g = np.hstack([model.a_matrix, model.b_matrix])
        lhs = g.T @ g / params.sigma_r_sq + np.eye(6)
        rhs = g.T @ (model.c_vector + omega) / params.sigma_r_sq + np.concatenate([alpha, beta])
        np.testing.assert_allclose(res.z, np.linalg.solve(lhs, rhs), rtol=0, atol=1e-8)

    def test_rejects_mismatched_noise_shapes(self):
        model = cases.make_darcy_model()
        params = LossParams(sigma_r_sq=1.0)
        with pytest.raises(ConfigError):
            minimize_randomized(
                model, params,
                omega=np.zeros(model.n_residual + 1),
                alpha=np.zeros(model.n_xi),
                beta=np.zeros(model.n_eta),
            )


class TestGaussNewtonPolish:
    """One quasi-Newton iteration stops above tolerance; the polish must finish the solve."""

    def test_finishes_truncated_map_solve(self, monkeypatch):
        model, params, _ = cases.make_flow_case()
        full = map_optimize(model, params)
        monkeypatch.setattr(pickle_map, "MAXITER", 1)
        result = map_optimize(model, params)
        assert result.converged
        np.testing.assert_allclose(result.z, full.z, rtol=0, atol=1e-7)
        monkeypatch.setattr(pickle_map, "POLISH_MAXITER", 0)
        assert not map_optimize(model, params).converged

    def test_finishes_truncated_randomized_solve(self, monkeypatch):
        model, params, _ = cases.make_flow_case()
        noise = draw_noise(model, params, base_seed=4, index=2)
        targets = (noise.omega, noise.alpha, noise.beta)
        full = minimize_randomized(model, params, *targets)
        monkeypatch.setattr(pickle_map, "MAXITER", 1)
        result = minimize_randomized(model, params, *targets)
        assert result.converged and full.converged
        # Both solves stop with a gradient norm below the tolerance and the
        # scaled Hessian's eigenvalues are near or above the unit prior
        # precision, so the minimizers lie within about twice the tolerance.
        assert np.linalg.norm(result.z - full.z) <= 2.0 * tolerance(full.loss)
        monkeypatch.setattr(pickle_map, "POLISH_MAXITER", 0)
        assert not minimize_randomized(model, params, *targets).converged

    @pytest.mark.parametrize("c, sigma_r_sq", [(0.1, 0.1), (1.0, 0.3)])
    def test_finishes_solves_at_the_rounding_floor(self, c, sigma_r_sq, monkeypatch):
        # Some of these 4,000 solves stop where the loss no longer resolves
        # a step's improvement, with the gradient still just above the
        # tolerance.  The polish must finish every one of them: the earlier
        # L-BFGS-B solver with a Gauss-Newton polish left 2 (c = 0.1) and 41
        # (c = 1.0) of them unconverged.
        model = _CurvedToy(c)
        params = LossParams(sigma_r_sq=sigma_r_sq)
        monkeypatch.setattr(rpickle_sampler, "MAX_FAILURE_FRACTION", 1.0)
        ensemble = run_ensemble(model, params, 4000, base_seed=0, metropolize=False)
        assert ensemble.n_failed == 0


class TestValidation:
    def test_loss_params_must_be_positive(self):
        with pytest.raises(ConfigError):
            LossParams(sigma_r_sq=0.0)

    def test_stacked_requires_finite(self):
        model = cases.make_random_linear(np.random.default_rng(27))
        params = LossParams(sigma_r_sq=0.5)
        z = np.zeros(model.n_xi + model.n_eta)
        z[-1] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            PickleLoss(model, params).stacked(z)
        with pytest.raises(ConfigError, match="finite"):
            map_optimize(model, params, init=z)

    def test_residual_model_rejects_mismatched_basis(self):
        base = cases.make_darcy_model()
        small = cases.make_darcy_model(nx=4, ny=4)
        with pytest.raises(ConfigError):
            ResidualModel(base.mesh, small.y_basis, base.u_basis, base.bc)

    @pytest.mark.parametrize("shape", [(8,), (10,), (9, 1)], ids=["short", "long", "column"])
    @pytest.mark.parametrize(
        "entry", ["pickle_loss", "randomized_loss", "log_posterior_and_grad", "jacobian_logdet"]
    )
    def test_wrong_length_coefficients_rejected(self, entry, shape):
        model = cases.make_random_linear(np.random.default_rng(27))
        params = LossParams(sigma_r_sq=0.5)
        noise = draw_noise(model, params, 0, 0)
        # The two loss entries start a minimization of that loss at ``z``.
        calls = {
            "pickle_loss": lambda z: map_optimize(model, params, init=z),
            "randomized_loss": lambda z: minimize_randomized(
                model, params, noise.omega, noise.alpha, noise.beta, init=z
            ),
            "log_posterior_and_grad": lambda z: log_posterior_and_grad(model, params, z),
            "jacobian_logdet": lambda z: jacobian_logdet(PickleLoss(model, params), z),
        }
        with pytest.raises(ConfigError):
            calls[entry](np.zeros(shape))
