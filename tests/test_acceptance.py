"""Acceptance suite: one test per shipped guarantee, at its hard tolerance.

Every test here states a user-facing contract of the package: exactness of
the randomized sampler on linear-Gaussian models, HMC agreement on the
nonlinear Darcy case, solver and gradient fidelity, posterior conditioning
and model-selection trends, and byte-level determinism of the pipeline.
The nonlinear instances are the shared frozen cases from cases.py, so the
numbers match the per-module suites; timed tests bound the wall clock of
the work they perform themselves.
"""

import json
import os
import time

import numpy as np
import pytest

from rpickle import cli
from rpickle import gp_prior as gp
from rpickle import mesh_fv as mf
from rpickle.diagnostics import laplace_posterior, linear_oracle, lpp, posterior_moments
from rpickle.hmc_sampler import log_posterior_and_grad, run_hmc
from rpickle.pickle_map import LossParams, PickleLoss, map_optimize
from rpickle.rpickle_sampler import run_ensemble

import cases
import oracles


# -- linear-Gaussian exactness ------------------------------------------------


def test_linear_ensemble_matches_gaussian_posterior():
    # On a linear model the randomized optimizer is an exact sampler, so the
    # ensemble must reproduce the closed-form posterior up to Monte Carlo
    # error: every mean coordinate within 3 standard errors, covariance
    # within 5% relative Frobenius.  The 2e4-sample run itself must be fast.
    model, params, ensemble, elapsed = cases.make_linear_ensemble()
    mean_o, cov_o = linear_oracle(model, params)

    coeffs = ensemble.coefficient_matrix()
    se = coeffs.std(axis=0, ddof=1) / np.sqrt(coeffs.shape[0])
    assert np.all(np.abs(coeffs.mean(axis=0) - mean_o) <= 3 * se)
    cov_s = np.cov(coeffs, rowvar=False, ddof=1)
    assert np.linalg.norm(cov_s - cov_o) <= 0.05 * np.linalg.norm(cov_o)
    assert elapsed < 120.0


def test_map_point_matches_posterior_mode():
    model, params, _, _ = cases.make_linear_ensemble()
    mean_o, _ = linear_oracle(model, params)
    result = map_optimize(model, params)
    assert result.converged
    np.testing.assert_allclose(result.z, mean_o, atol=1e-6)


def test_linear_metropolis_accepts_every_proposal():
    # The noise-to-sample map of a linear model has constant Jacobian, so the
    # accept/reject ratio is identically one: exact equality, not a bound.
    model, params, _, _ = cases.make_linear_ensemble()
    ens = run_ensemble(model, params, 1000, base_seed=7, metropolize=True)
    assert ens.acceptance_rate == 1.0


# -- nonlinear Darcy case -----------------------------------------------------


@pytest.fixture(scope="module")
def darcy_runs():
    """Full-scale Metropolized ensemble and HMC baseline on the flow case."""
    model, params, _ = cases.make_flow_case()
    start = time.perf_counter()
    ens = run_ensemble(model, params, 10_000, base_seed=0, metropolize=True)
    chains = run_hmc(model, params, 3334, 3, 10_000, seed=101)
    elapsed = time.perf_counter() - start
    return ens, chains, elapsed


def test_samplers_agree_on_darcy_posterior(darcy_runs):
    ens, chains, elapsed = darcy_runs
    zs = ens.coefficient_matrix()
    hs = chains.states.reshape(-1, chains.states.shape[2])
    pooled = np.sqrt(0.5 * (zs.var(axis=0, ddof=1) + hs.var(axis=0, ddof=1)))
    assert np.max(np.abs(zs.mean(axis=0) - hs.mean(axis=0)) / pooled) < 0.10
    assert np.max(np.abs(zs.std(axis=0, ddof=1) - hs.std(axis=0, ddof=1)) / pooled) < 0.15
    assert elapsed < 1800.0


def test_darcy_metropolis_acceptance_stays_high(darcy_runs):
    # High acceptance is what licenses reading the filtered ensemble as
    # posterior samples despite the approximate correction ratio.
    ens, _, _ = darcy_runs
    assert ens.acceptance_rate >= 0.90


def test_loss_gradients_match_finite_differences():
    model, params, _ = cases.make_flow_case()
    rng = np.random.default_rng(77)
    for _ in range(20):
        z = 0.5 * rng.standard_normal(model.n_xi + model.n_eta)
        loss = PickleLoss(model, params)
        g = loss.value_grad(z)[1]
        g_fd = oracles.fd_gradient(lambda v: loss.value_grad(v)[0], z)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)
        _, lg = log_posterior_and_grad(model, params, z)
        lg_fd = oracles.fd_gradient(lambda v: log_posterior_and_grad(model, params, v)[0], z)
        assert np.linalg.norm(lg - lg_fd) <= 1e-5 * np.linalg.norm(lg_fd)


# -- forward solver -----------------------------------------------------------


def test_forward_solver_exact_on_strip_and_dense_oracle():
    # Uniform transmissivity on a 1-D strip gives an exactly linear head.
    mesh = mf.build_structured_mesh(8, 1, 8.0, 1.0)
    bc = mf.boundary_values(mesh, {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0})
    u = mf.FlowOperator(mesh, bc).solve(np.full(8, -0.3))
    np.testing.assert_allclose(u, 1.0 - mesh.cell_centers[:, 0] / 8.0, atol=1e-12)

    mesh = mf.build_structured_mesh(8, 8)
    bc = mf.boundary_values(mesh, {"west": 1.0, "east": 0.0, "south": 0.05, "north": -0.05})
    op = mf.FlowOperator(mesh, bc)
    for seed in (42, 43, 44):
        y = np.random.default_rng(seed).normal(scale=0.8, size=mesh.n_cells)
        u = op.solve(y)
        dirichlet, neumann = oracles.bc_by_face(mesh, bc)
        a, b = oracles.dense_forward_system(mesh, y, dirichlet, neumann)
        np.testing.assert_allclose(u, np.linalg.solve(a, b), atol=1e-10)


# -- posterior geometry trends ------------------------------------------------


def test_posterior_conditioning_tracks_noise_and_dimension():
    conds = []
    for gamma in (1e-1, 1e-2, 1e-4):
        model, params, _ = cases.make_conditioning_case(sigma_r_sq=gamma)
        point = map_optimize(model, params).z
        _, cond, _ = laplace_posterior(model, params, point)
        conds.append(cond)
    assert conds[0] < conds[1] < conds[2]

    model10, params, _ = cases.make_conditioning_case(n_terms=5)
    model40, _, _ = cases.make_conditioning_case(n_terms=20)
    _, c10, _ = laplace_posterior(model10, params, map_optimize(model10, params).z)
    _, c40, _ = laplace_posterior(model40, params, map_optimize(model40, params).z)
    assert c40 > c10


def test_reference_lpp_peaks_inside_noise_grid():
    # Too little assumed noise makes the truncated ensemble confidently
    # wrong, too much washes out the data, so the reference log predictive
    # probability must peak strictly inside a wide sigma_r_sq grid.
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


# -- regression and expansion building blocks ---------------------------------


def test_gp_regression_and_expansion_properties():
    mesh = mf.build_structured_mesh(6, 5)
    params = gp.KernelParams(sigma=1.2, length_scale=0.35)
    cells = np.array([2, 11, 25])
    values = np.array([0.4, -1.1, 0.7])
    obs = gp.Observations(locations=mesh.cell_centers[cells], values=values, cells=cells)
    post = gp.gpr_condition(gp.matern52, params, obs, mesh.cell_centers)
    np.testing.assert_allclose(post.mean[cells], values, atol=1e-5)
    assert np.all(np.diag(post.covariance)[cells] <= params.effective_nugget + 1e-12)

    basis = gp.build_basis(post, energy=None, n_terms=mesh.n_cells)
    gram = basis.eigenvectors.T @ basis.eigenvectors
    np.testing.assert_allclose(gram, np.eye(basis.n_terms), atol=1e-10)
    recon = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
    assert np.linalg.norm(recon - post.covariance) <= 1e-8 * np.linalg.norm(post.covariance)

    # energy rule keeps the smallest leading block holding >= the target:
    # two of [3, 2, 1] hold 5/6 < 0.95, so all three modes must be retained.
    diag = gp.ConditionedGP(mean=np.zeros(3), covariance=np.diag([3.0, 2.0, 1.0]))
    assert gp.build_basis(diag, energy=0.95).n_terms == 3
    trunc = gp.build_basis(post, energy=0.95)
    kept = float(np.sum(trunc.eigenvalues))
    total = float(np.sum(np.clip(np.linalg.eigvalsh(post.covariance), 0.0, None)))
    assert kept >= 0.95 * total
    assert kept - trunc.eigenvalues[-1] < 0.95 * total


# -- determinism ---------------------------------------------------------------


def _run_pipeline(tmp_path, tag, threads):
    out_dir = tmp_path / tag
    doc = {
        "mesh": {"nx": 6, "ny": 6, "bc": {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0}},
        "kernel": {"sigma": 0.7, "length_scale": 0.5},
        "truncation": {"n_xi": 3, "n_eta": 3},
        "observations": {"n_y_obs": 8, "n_u_obs": 8},
        "mc_draws": 60,
        "sigma_r_sq": [0.05],
        "sampler": {
            "kind": "both",
            "n_ens": 6,
            "hmc_samples": 24,
            "hmc_chains": 2,
            "hmc_burn_in": 80,
        },
        "base_seed": 3,
        "output_dir": str(out_dir),
    }
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(doc))
    for stage in ("generate", "build-prior", "map", "sample-rpickle", "sample-hmc", "diagnose"):
        assert cli.main([stage, "--config", str(path), "--threads", threads]) == 0
    return out_dir


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "timing.json":  # the one wall-clock artifact
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_pipeline_rerun_is_byte_identical(tmp_path):
    # Same config and seed must reproduce every artifact byte for byte, even
    # when the stages parallelize over a different number of workers.
    first = _tree_bytes(_run_pipeline(tmp_path, "a", "1"))
    second = _tree_bytes(_run_pipeline(tmp_path, "b", "3"))
    assert set(first) == set(second)
    assert len(first) >= 12
    for name in sorted(first):
        assert first[name] == second[name], name
