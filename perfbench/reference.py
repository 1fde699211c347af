"""Independent references for the benchmark's output checks.

Everything here is written from the defining formulas and shares no code
with the package under ``src/``: the two-point-flux residual is a plain loop
over the cells of a structured grid, the linear-Gaussian posterior is dense
algebra on the model matrices, and the Monte Carlo error estimators are
batch means.  Agreement between the program's outputs and these references
is evidence of correctness rather than tautology.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# -- two-point-flux Darcy residual --------------------------------------------


def tpfa_residual(nx, ny, lx, ly, bc, y, u):
    """Cell balance ``R(y, u)`` of steady Darcy flow on an nx-by-ny grid.

    Cells are row-major with x fastest.  West and east sides carry Dirichlet
    heads, south and north carry outward Neumann flux densities (``bc`` maps
    side name to value).  Interior faces use the harmonic mean of the two
    cell transmissivities ``exp(y)`` times ``area / centre distance``;
    Dirichlet faces use the cell transmissivity over the half-cell distance.
    """
    dx, dy = lx / nx, ly / ny
    t = [math.exp(v) for v in y]
    r = np.zeros(nx * ny)
    for iy in range(ny):
        for ix in range(nx):
            c = iy * nx + ix
            total = 0.0
            for jx, jy, tau in (
                (ix - 1, iy, dy / dx),
                (ix + 1, iy, dy / dx),
                (ix, iy - 1, dx / dy),
                (ix, iy + 1, dx / dy),
            ):
                if 0 <= jx < nx and 0 <= jy < ny:
                    n = jy * nx + jx
                    k = 2.0 * t[c] * t[n] / (t[c] + t[n])
                    total += tau * k * (u[c] - u[n])
            if ix == 0:
                total += dy / (dx / 2) * t[c] * (u[c] - bc["west"])
            if ix == nx - 1:
                total += dy / (dx / 2) * t[c] * (u[c] - bc["east"])
            if iy == 0:
                total += bc["south"] * dx
            if iy == ny - 1:
                total += bc["north"] * dx
            r[c] = total
    return r


# -- linear-Gaussian posterior ------------------------------------------------


def linear_case_matrices(base_seed, n_res, n_xi, n_eta):
    """``(G, c)`` of the program's seeded linear residual ``R = G z - c``.

    The program draws A (n_res x n_xi), then B (n_res x n_eta), then c from
    the reference stream ``SeedSequence(base_seed, spawn_key=(0,))``; this
    replays that documented layout without importing the program.
    """
    rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(0,)))
    a = rng.standard_normal((n_res, n_xi))
    b = rng.standard_normal((n_res, n_eta)) if n_eta > 0 else np.zeros((n_res, 0))
    c = rng.standard_normal(n_res)
    return np.hstack([a, b]), c


def linear_posterior(g, c, sigma_r_sq):
    """Mean and covariance of ``z | c`` for ``c = G z + e``, ``e ~ N(0, s I)``, ``z ~ N(0, I)``."""
    precision = g.T @ g / sigma_r_sq + np.eye(g.shape[1])
    cov = np.linalg.inv(precision)
    cov = 0.5 * (cov + cov.T)
    return cov @ (g.T @ c) / sigma_r_sq, cov


# -- Monte Carlo error of correlated sequences --------------------------------


def batch_means_var(x):
    """Asymptotic variance ``n Var(mean)`` of each column, by batch means.

    Uses ``floor(sqrt(n))`` batches of equal size over the leading samples.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    n_batches = max(math.isqrt(n), 2)
    size = n // n_batches
    if size < 1:
        raise ValueError(f"need at least 2 samples for batch means, got {n}")
    means = x[: n_batches * size].reshape(n_batches, size, -1).mean(axis=1)
    return size * means.var(axis=0, ddof=1)


def chains_mean_se(chains):
    """Standard error of the pooled mean of equal-length chains, per column."""
    var = sum(batch_means_var(chain) / chain.shape[0] for chain in chains)
    return np.sqrt(var) / len(chains)


def chains_std_se(chains):
    """Standard error of the pooled standard deviation, per column.

    Batch means applied to the squared deviations from the pooled mean give
    the error of the variance; the delta method turns it into the error of
    the standard deviation.
    """
    pooled = np.vstack(chains)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0, ddof=1)
    var_se = chains_mean_se([(chain - mean) ** 2 for chain in chains])
    return var_se / (2.0 * std)


def effective_sample_size(chains):
    """Per-column effective sample size of the pooled chains."""
    pooled = np.vstack(chains)
    return pooled.var(axis=0, ddof=1) / chains_mean_se(chains) ** 2


def family_z(n_tests, alpha):
    """Two-sided z threshold holding the family-wise false-alarm rate at ``alpha``."""
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * n_tests))
