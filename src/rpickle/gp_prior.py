"""Gaussian-process priors, conditioning, and truncated expansions.

The log-transmissivity prior is a Matern-5/2 process with hyperparameters fit
to point observations by marginal likelihood.  Conditioning on exact point
values (a small nugget keeps the factorization honest) yields a mean field and
covariance over cells; its leading eigenpairs define a conditional
Karhunen-Loeve expansion ``field = mean + sum_i sqrt(lambda_i) psi_i coeff_i``
whose coefficients are a priori independent standard normals.  The head field
gets the same treatment, except its prior mean and covariance are estimated by
Monte Carlo: sample the log-transmissivity expansion, solve the forward
problem, take moments, then condition on head observations.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import ConfigError, EnsembleFailureError, IllConditionedError, NumericalError
from .mesh_fv import BoundaryConditions, FlowOperator, Mesh
from .seeding import STREAM_MC_PRIOR, read_json, spawn_rng, write_json

__all__ = [
    "KernelParams",
    "Observations",
    "ConditionedGP",
    "CkleBasis",
    "matern52",
    "fit_hyperparameters",
    "gpr_condition",
    "condition_on_cells",
    "build_basis",
    "ckle_eval",
    "mc_state_prior",
    "observations_at_cells",
    "basis_to_json",
    "basis_from_json",
]

# Conditioning matrices worse than this raise IllConditionedError.
CONDITION_LIMIT = 1e12
# Relative nugget: fraction of the prior variance added to the conditioning diagonal.
RELATIVE_NUGGET = 1e-8
DEFAULT_ENERGY = 0.95


@dataclass(frozen=True)
class KernelParams:
    """Matern-5/2 hyperparameters.

    ``nugget`` is the absolute variance added to the diagonal of conditioning
    matrices; ``None`` means the default relative value ``1e-8 * sigma**2``.
    """

    sigma: float
    length_scale: float
    nugget: float | None = None

    def __post_init__(self):
        if self.sigma <= 0 or self.length_scale <= 0:
            raise ConfigError("sigma and length_scale must be positive")
        if self.nugget is not None and self.nugget < 0:
            raise ConfigError("nugget must be nonnegative")

    @property
    def effective_nugget(self) -> float:
        if self.nugget is not None:
            return float(self.nugget)
        return RELATIVE_NUGGET * self.sigma**2


@dataclass(frozen=True)
class Observations:
    """Point observations tied to mesh cells (at most one per cell)."""

    locations: np.ndarray
    values: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=np.float64).reshape(-1, 2))
        object.__setattr__(self, "values", np.atleast_1d(np.asarray(self.values, dtype=np.float64)))
        object.__setattr__(self, "cells", np.atleast_1d(np.asarray(self.cells, dtype=np.int64)))
        n = self.values.shape[0]
        if self.locations.shape[0] != n or self.cells.shape[0] != n:
            raise ConfigError("locations, values, and cells must have equal length")
        if np.unique(self.cells).size != n:
            raise ConfigError("at most one observation per cell")
        if np.any(self.cells < 0):
            raise ConfigError("observation cells must be nonnegative")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("observation values must be finite")
        if not np.all(np.isfinite(self.locations)):
            raise ConfigError("observation locations must be finite")

    def __len__(self) -> int:
        return self.values.shape[0]


def observations_at_cells(mesh: Mesh, cells, field) -> Observations:
    """Observe a per-cell field at given cells (locations are cell centers)."""
    cells = np.atleast_1d(np.asarray(cells, dtype=np.int64))
    field = np.asarray(field, dtype=np.float64)
    return Observations(locations=mesh.cell_centers[cells], values=field[cells], cells=cells)


@dataclass(frozen=True)
class ConditionedGP:
    """Mean and covariance of a field over cells after conditioning."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=np.float64)))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=np.float64))
        m = self.mean.shape[0]
        if self.covariance.shape != (m, m):
            raise ConfigError(f"covariance must be ({m}, {m}), got {self.covariance.shape}")


def matern52(x, x2, params: KernelParams):
    """Matern-5/2 covariance between point sets.

    ``x`` and ``x2`` are points (length-d vectors) or arrays of points
    (n, d); returns a scalar for two single points, else the (n, m) matrix
    ``sigma^2 (1 + r + r^2/3) exp(-r)`` with ``r = sqrt(5) |x - x2| / l``.
    """
    from scipy.spatial.distance import cdist
    xa = np.asarray(x, dtype=np.float64)
    xb = np.asarray(x2, dtype=np.float64)
    scalar = xa.ndim <= 1 and xb.ndim <= 1
    xa = xa.reshape(1, -1) if xa.ndim <= 1 else xa
    xb = xb.reshape(1, -1) if xb.ndim <= 1 else xb
    r = np.sqrt(5.0) * cdist(xa, xb) / params.length_scale
    k = params.sigma**2 * (1.0 + r + r**2 / 3.0) * np.exp(-r)
    return float(k[0, 0]) if scalar else k


def _nlml(k_corr, values, sigma_sq):
    """Negative marginal log likelihood for K = sigma_sq * k_corr."""
    from scipy.linalg import cho_factor, cho_solve
    n = values.shape[0]
    cho = cho_factor(k_corr, lower=True)
    quad = float(values @ cho_solve(cho, values))
    logdet_corr = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return 0.5 * (
        n * np.log(2.0 * np.pi * sigma_sq) + logdet_corr + quad / sigma_sq
    ), quad


def fit_hyperparameters(obs: Observations) -> KernelParams:
    """Fit (sigma, length_scale) by minimizing the marginal likelihood.

    The variance is profiled out analytically (``sigma^2 = y K^-1 y / n`` for
    the correlation matrix K at unit variance), so the search is a 25-point
    log-spaced grid over the length scale followed by bounded scalar
    refinement.  The length scale stays within [min pairwise distance,
    bounding-box diagonal] and the variance within [1e-3, 1e3] times the
    sample variance.  Constant observations have no variance to fit; they
    return sigma at its floor of 1e-8 with a warning.
    """
    from scipy.optimize import minimize_scalar
    from scipy.spatial.distance import cdist
    if len(obs) < 2:
        raise ConfigError("hyperparameter fit needs at least two observations")
    y = obs.values
    dists = cdist(obs.locations, obs.locations)
    positive = dists[dists > 0]
    if positive.size == 0:
        raise ConfigError("observations must not all share one location")
    l_lo, l_hi = float(positive.min()), float(dists.max())
    sample_var = float(y.var(ddof=1))
    # treat variance at roundoff level as exactly zero (constant data)
    if sample_var <= 1e-14 * float(np.mean(y * y)):
        warnings.warn("constant observations: returning sigma at its lower bound")
        return KernelParams(sigma=1e-8, length_scale=float(np.sqrt(l_lo * l_hi)))
    s_lo, s_hi = np.sqrt(1e-3 * sample_var), np.sqrt(1e3 * sample_var)

    n = len(obs)

    def objective(log_l):
        params = KernelParams(sigma=1.0, length_scale=float(np.exp(log_l)))
        k_corr = matern52(obs.locations, obs.locations, params)
        k_corr[np.diag_indices(n)] += RELATIVE_NUGGET
        _, quad = _nlml(k_corr, y, 1.0)
        sigma_sq = float(np.clip(quad / n, s_lo**2, s_hi**2))
        value, _ = _nlml(k_corr, y, sigma_sq)
        return value, sigma_sq

    grid = np.log(np.geomspace(l_lo, l_hi, 25))
    scores = [objective(g)[0] for g in grid]
    best = int(np.argmin(scores))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    if lo < hi:
        res = minimize_scalar(lambda g: objective(g)[0], bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-8})
        log_l = float(res.x) if res.fun <= scores[best] else float(grid[best])
    else:
        log_l = float(grid[best])
    _, sigma_sq = objective(log_l)
    return KernelParams(sigma=float(np.sqrt(sigma_sq)), length_scale=float(np.exp(log_l)))


def _checked_cho(k_xx, context):
    from scipy.linalg import cho_factor
    cond = float(np.linalg.cond(k_xx)) if k_xx.size else 1.0
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(
            f"{context} conditioning matrix has condition number {cond:.3e} "
            f"(limit {CONDITION_LIMIT:.0e}); increase the nugget"
        )
    return cho_factor(k_xx, lower=True)


def gpr_condition(kernel, params: KernelParams, obs: Observations, targets) -> ConditionedGP:
    """Condition a zero-mean kernel prior on point observations.

    Returns the posterior mean and covariance at ``targets`` (an (m, 2) array
    of locations).  With no observations this is the prior itself.
    """
    from scipy.linalg import cho_solve
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    prior = np.atleast_2d(kernel(targets, targets, params))
    if len(obs) == 0:
        return ConditionedGP(mean=np.zeros(targets.shape[0]), covariance=prior)
    k_xx = np.atleast_2d(kernel(obs.locations, obs.locations, params)).copy()
    k_xx[np.diag_indices(len(obs))] += params.effective_nugget
    cho = _checked_cho(k_xx, "kernel")
    k_sx = np.atleast_2d(kernel(targets, obs.locations, params))
    mean = k_sx @ cho_solve(cho, obs.values)
    cov = prior - k_sx @ cho_solve(cho, k_sx.T)
    return ConditionedGP(mean=mean, covariance=(cov + cov.T) / 2.0)


def condition_on_cells(
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
    obs: Observations,
    nugget: float | None = None,
) -> ConditionedGP:
    """Condition a discrete (per-cell) Gaussian prior on cell observations.

    Same algebra as :func:`gpr_condition` with the covariance given directly,
    used for the Monte Carlo head prior.  Default nugget: ``1e-8`` times the
    mean prior variance.
    """
    from scipy.linalg import cho_solve
    prior_mean = np.asarray(prior_mean, dtype=np.float64)
    prior_cov = np.asarray(prior_cov, dtype=np.float64)
    n = prior_mean.shape[0]
    if prior_cov.shape != (n, n):
        raise ConfigError("prior_cov shape must match prior_mean")
    if len(obs) == 0:
        return ConditionedGP(mean=prior_mean.copy(), covariance=prior_cov.copy())
    cells = obs.cells
    if cells.max() >= n:
        raise ConfigError("observation cells outside the field")
    if nugget is None:
        nugget = RELATIVE_NUGGET * float(np.trace(prior_cov)) / n
    k_xx = prior_cov[np.ix_(cells, cells)].copy()
    k_xx[np.diag_indices(len(obs))] += nugget
    cho = _checked_cho(k_xx, "state-prior")
    k_sx = prior_cov[:, cells]
    mean = prior_mean + k_sx @ cho_solve(cho, obs.values - prior_mean[cells])
    cov = prior_cov - k_sx @ cho_solve(cho, k_sx.T)
    return ConditionedGP(mean=mean, covariance=(cov + cov.T) / 2.0)


def _eig_truncation(cov, energy, n_terms):
    """Full clipped spectrum and eigenvectors of a covariance, with the count to keep.

    The spectrum is sorted by decreasing eigenvalue; the count is either an
    explicit ``n_terms`` or the smallest count whose eigenvalue sum reaches
    ``energy`` times the total.  Asymmetry beyond 1e-10 (relative) and
    negative eigenvalues beyond ``-1e-10 * lambda_max`` draw warnings; the
    matrix is symmetrized and negatives are clipped to zero either way.
    Eigenvector signs are fixed so the largest-magnitude entry is positive.
    """
    from scipy.linalg import eigh
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ConfigError("covariance must be square")
    norm = np.linalg.norm(cov)
    if norm > 0 and np.linalg.norm(cov - cov.T) > 1e-10 * norm:
        warnings.warn("asymmetric covariance symmetrized before eigendecomposition")
    sym = (cov + cov.T) / 2.0
    vals, vecs = eigh(sym)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vmax = max(float(vals[0]), 0.0)
    if float(vals[-1]) < -1e-10 * vmax:
        warnings.warn("negative covariance eigenvalues clipped to zero")
    vals = np.clip(vals, 0.0, None)
    for col in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, col]))
        if vecs[lead, col] < 0:
            vecs[:, col] = -vecs[:, col]

    if n_terms is not None:
        if not 1 <= n_terms <= vals.size:
            raise ConfigError(f"n_terms must lie in [1, {vals.size}]")
        n = int(n_terms)
    else:
        if energy is None or not 0.0 < energy <= 1.0:
            raise ConfigError("energy must lie in (0, 1]")
        total = float(vals.sum())
        if total == 0.0:
            n = 1
        else:
            target = energy * total * (1.0 - 1e-12)
            n = int(np.searchsorted(np.cumsum(vals), target) + 1)
            n = min(n, vals.size)
    return vals, vecs, n


@dataclass(frozen=True)
class CkleBasis:
    """Truncated expansion ``field(c) = mean + sum_i sqrt(lambda_i) psi_i c_i``."""

    mean: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    retained_energy: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=np.float64)))
        object.__setattr__(self, "eigenvalues", np.atleast_1d(np.asarray(self.eigenvalues, dtype=np.float64)))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=np.float64))
        m, n = self.mean.shape[0], self.eigenvalues.shape[0]
        if self.eigenvectors.shape != (m, n):
            raise ConfigError(f"eigenvectors must be ({m}, {n}), got {self.eigenvectors.shape}")
        if np.any(self.eigenvalues < 0):
            raise ConfigError("eigenvalues must be nonnegative")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ConfigError("eigenvalues must be sorted nonincreasing")
        if not 0.0 <= self.retained_energy <= 1.0 + 1e-12:
            raise ConfigError("retained_energy must lie in [0, 1]")

    @property
    def n_terms(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_cells(self) -> int:
        return self.mean.shape[0]

    @property
    def modes(self) -> np.ndarray:
        """Scaled modes ``psi_i sqrt(lambda_i)`` as columns of an (n_cells, n_terms) array."""
        return self.eigenvectors * np.sqrt(self.eigenvalues)


def build_basis(gp: ConditionedGP, energy: float | None = DEFAULT_ENERGY, n_terms: int | None = None) -> CkleBasis:
    """Truncate a conditioned field into an expansion basis.

    ``retained_energy`` is the kept share of the clipped spectrum's sum.
    """
    vals, vecs, n = _eig_truncation(gp.covariance, energy, n_terms)
    total = float(vals.sum())
    retained = 1.0 if total == 0.0 else min(float(vals[:n].sum()) / total, 1.0)
    return CkleBasis(
        mean=gp.mean, eigenvalues=vals[:n].copy(), eigenvectors=vecs[:, :n].copy(), retained_energy=retained
    )


def ckle_eval(basis: CkleBasis, coeffs) -> np.ndarray:
    """Evaluate the expansion at a coefficient vector."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=np.float64))
    if coeffs.shape != (basis.n_terms,):
        raise ConfigError(f"coeffs must have shape ({basis.n_terms},), got {coeffs.shape}")
    return basis.mean + basis.modes @ coeffs


def mc_state_prior(
    mesh: Mesh,
    y_basis: CkleBasis,
    bc: BoundaryConditions,
    n_mc: int,
    seed: int,
    solver=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and covariance of the head under the y prior.

    Draw ``n_mc`` standard-normal coefficient vectors (one RNG stream per draw
    index), solve the forward problem for each in draw order, and return the
    sample mean and unbiased covariance.  Draws whose solve fails are
    dropped; more than 1% failures raises :class:`EnsembleFailureError`.
    Every draw is solved by one :class:`FlowOperator`, whose cell ordering
    and band layout are computed once, unless ``solver(mesh, y, bc)``
    replaces it.  The draws run in one thread: the band LU holds the
    interpreter lock, so worker threads only add overhead.
    """
    if n_mc < 2:
        raise ConfigError("n_mc must be at least 2")
    if solver is None:
        solve = FlowOperator(mesh, bc).solve
    else:
        def solve(y):
            return solver(mesh, y, bc)

    mean, modes = y_basis.mean, y_basis.modes
    results = []
    for i in range(n_mc):
        coeffs = spawn_rng(seed, STREAM_MC_PRIOR, i).standard_normal(y_basis.n_terms)
        try:
            results.append(solve(mean + modes @ coeffs))
        except NumericalError:
            results.append(None)

    failed = sum(1 for r in results if r is None)
    if failed > 0.01 * n_mc:
        raise EnsembleFailureError(
            f"{failed} of {n_mc} state-prior solves failed (limit 1%)"
        )
    states = np.asarray([r for r in results if r is not None])
    if states.shape[0] < 2:
        raise EnsembleFailureError("fewer than two successful state-prior solves")
    mean_u = states.mean(axis=0)
    cov_u = np.cov(states, rowvar=False, ddof=1)
    return mean_u, np.atleast_2d(cov_u)


# ---------------------------------------------------------------------------
# Serialization


def basis_to_json(basis: CkleBasis, path, meta: dict | None = None) -> None:
    doc = {
        "mean": basis.mean.tolist(),
        "eigenvalues": basis.eigenvalues.tolist(),
        "eigenvectors": basis.eigenvectors.tolist(),
        "retained_energy": basis.retained_energy,
        "meta": dict(sorted((meta or {}).items())),
    }
    write_json(path, doc)


def basis_from_json(path) -> CkleBasis:
    """Read a basis written by :func:`basis_to_json`; a malformed file raises ConfigError naming it."""
    doc = read_json(path, "prior file")
    try:
        basis = CkleBasis(
            mean=doc["mean"],
            eigenvalues=doc["eigenvalues"],
            eigenvectors=doc["eigenvectors"],
            retained_energy=doc["retained_energy"],
        )
    except KeyError as exc:
        raise ConfigError(f"prior file {path} has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"prior file {path} is malformed: {exc}") from None
    if not all(np.all(np.isfinite(a)) for a in (basis.mean, basis.eigenvalues, basis.eigenvectors)):
        raise ConfigError(f"prior file {path} has non-finite values")
    return basis
