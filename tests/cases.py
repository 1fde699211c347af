"""Shared problem builders for the optimizer, sampler, and diagnostics tests.

The flow cases here mirror the intended production pipeline: a conditioned
kernel expansion for the log-transmissivity and a Monte Carlo state prior for
the head, both conditioned on synthetic well observations.  Builders are
cached so the expensive setups run once per session.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from rpickle.diagnostics import LinearModel
from rpickle.field_gen import build_synthetic_case
from rpickle.gp_prior import (
    ConditionedGP,
    KernelParams,
    build_basis,
    condition_on_cells,
    matern52,
    mc_state_prior,
)
from rpickle.mesh_fv import FlowOperator, boundary_values, build_structured_mesh
from rpickle.pickle_map import LossParams, ResidualModel

HEAD_BC = {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0}


def default_bc(mesh):
    return boundary_values(mesh, HEAD_BC)


@lru_cache(maxsize=None)
def make_darcy_model(nx=5, ny=5, n_xi=4, n_eta=4, seed=7):
    """Small flow model with analytic-kernel bases, for derivative math tests.

    The head mean solves the forward problem at the log-transmissivity mean,
    so the residual vanishes at zero coefficients; the head modes come from an
    unrelated kernel, which is irrelevant for calculus checks.
    """
    mesh = build_structured_mesh(nx, ny)
    bc = default_bc(mesh)
    centers = mesh.cell_centers
    cov_y = matern52(centers, centers, KernelParams(sigma=1.0, length_scale=0.5))
    y_basis = build_basis(
        ConditionedGP(mean=np.zeros(mesh.n_cells), covariance=cov_y), energy=None, n_terms=n_xi
    )
    u_mean = FlowOperator(mesh, bc).solve(y_basis.mean)
    cov_u = matern52(centers, centers, KernelParams(sigma=0.2, length_scale=0.3))
    u_basis = build_basis(
        ConditionedGP(mean=u_mean, covariance=cov_u), energy=None, n_terms=n_eta
    )
    return ResidualModel(mesh, y_basis, u_basis, bc)


@lru_cache(maxsize=None)
def _conditioned_flow_model(nx, ny, n_terms, sigma, length_scale, seed, n_mc):
    """Flow model + synthetic case with both bases conditioned on wells."""
    mesh = build_structured_mesh(nx, ny)
    bc = default_bc(mesh)
    kernel = KernelParams(sigma=sigma, length_scale=length_scale)
    case = build_synthetic_case(
        mesh, kernel, bc, n_y_obs=16, n_u_obs=16, seed=seed, smoothing_iterations=2
    )
    cov_y = matern52(mesh.cell_centers, mesh.cell_centers, kernel)
    gp_y = condition_on_cells(np.zeros(mesh.n_cells), cov_y, case.y_obs)
    y_basis = build_basis(gp_y, energy=None, n_terms=n_terms)
    u_mean, u_cov = mc_state_prior(mesh, y_basis, bc, n_mc=n_mc, seed=seed)
    gp_u = condition_on_cells(u_mean, u_cov, case.u_obs)
    u_basis = build_basis(gp_u, energy=None, n_terms=n_terms)
    model = ResidualModel(mesh, y_basis, u_basis, bc)
    return model, case, y_basis


def make_flow_case(nx=8, ny=8, n_terms=5, sigma_r_sq=1e-2, seed=13, n_mc=4000):
    """Full-pipeline flow case: synthetic truth, wells, conditioned bases.

    Returns ``(model, params, case)`` with both expansions conditioned on the
    case's observations, the y prior from the kernel and the u prior from a
    Monte Carlo pushforward of the y expansion.  The reference field is
    smoothed so the truncated basis can represent it well; with 16 wells per
    field and a moderate prior amplitude the posterior stays mildly nonlinear
    (Metropolis acceptance around 98%).  The filter's log-det ratio is exact
    only on linear models: here the filtered mean of the first coefficient
    sits 0.035-0.06 posterior std from that of exact samplers.
    """
    model, case, _ = _conditioned_flow_model(nx, ny, n_terms, 0.7, 0.5, seed, n_mc)
    return model, LossParams(sigma_r_sq=sigma_r_sq), case


def flow_y_basis(n_terms=5, seed=13):
    """The y expansion underlying :func:`make_flow_case`, for field moments."""
    _, _, y_basis = _conditioned_flow_model(8, 8, n_terms, 0.7, 0.5, seed, 4000)
    return y_basis


def make_conditioning_case(n_terms=5, sigma_r_sq=1e-2):
    """Sharper flow case for posterior-conditioning trends.

    The short correlation length keeps real energy in the higher modes, so
    shrinking sigma_r_sq (or adding modes) visibly stretches the Laplace
    covariance spectrum: the condition number grows from about 1.2 at
    sigma_r_sq 1e-1 to about 135 at 1e-4, and from 2.7 to 2.9 when the
    expansion grows from 5+5 to 20+20 terms.  The truncation error also
    makes the reference log posterior peak strictly inside a wide
    sigma_r_sq grid: near zero the ensemble is confidently wrong about the
    unresolved modes, while large values wash out the data.
    """
    model, case, _ = _conditioned_flow_model(8, 8, n_terms, 1.0, 0.25, 11, 4000)
    return model, LossParams(sigma_r_sq=sigma_r_sq), case


def conditioning_y_basis(n_terms=5):
    """The y expansion underlying :func:`make_conditioning_case`."""
    _, _, y_basis = _conditioned_flow_model(8, 8, n_terms, 1.0, 0.25, 11, 4000)
    return y_basis


def make_random_linear(rng, n_res=30, n_xi=5, n_eta=4, scale=1.0):
    """Random dense linear residual model, well-conditioned by construction."""
    a = scale * rng.standard_normal((n_res, n_xi))
    b = scale * rng.standard_normal((n_res, n_eta)) if n_eta > 0 else None
    c = rng.standard_normal(n_res)
    return LinearModel(a_matrix=a, b_matrix=b, c_vector=c)


@lru_cache(maxsize=None)
def make_linear_ensemble(n_ens=20_000, sigma_r_sq=0.5, base_seed=42):
    """Cached large ensemble on the 9-coefficient linear reference model.

    Returns ``(model, params, ensemble, elapsed_seconds)``; the run is shared
    between the sampler statistics tests and the timed end-to-end check.
    """
    import time

    from rpickle.rpickle_sampler import run_ensemble

    model = make_random_linear(np.random.default_rng(100))
    params = LossParams(sigma_r_sq=sigma_r_sq)
    start = time.perf_counter()
    ensemble = run_ensemble(model, params, n_ens, base_seed=base_seed)
    elapsed = time.perf_counter() - start
    return model, params, ensemble, elapsed
