"""Posterior diagnostics and closed-form references.

Summaries of sampled posteriors (field moments, log predictive probability,
interval coverage, error norms, convergence ratios) plus two analytic
references: the exact Gaussian posterior of a linear residual model and the
Laplace approximation around the MAP of a nonlinear one.  The linear model is
the workhorse for verification: with ``R(xi, eta) = A xi + B eta - c`` the
posterior over stacked coefficients is exactly Gaussian, so sampler output
can be checked against a small dense computation instead of another
stochastic method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonPsdHessianError, SingularSystemError
from .gp_prior import CkleBasis
from .pickle_map import LossParams, PickleLoss
from .seeding import float_token, write_json, write_table

__all__ = [
    "LinearModel",
    "DiagnosticsReport",
    "posterior_moments",
    "lpp",
    "coverage",
    "error_norms",
    "convergence_ratios",
    "laplace_posterior",
    "linear_oracle",
    "report_to_json",
    "report_to_csv",
]

# The standard normal's 97.5% quantile, scipy.special.ndtri(0.975) to the last bit.
Z_975 = 1.959963984540054


@dataclass(frozen=True)
class LinearModel:
    """Affine residual ``R(xi, eta) = A xi + B eta - c``.

    Implements the same surface as the PDE residual model (``n_xi``,
    ``n_eta``, ``n_residual``, ``residual``, ``jacobians``, ``vjp``,
    ``misfit_vjp``, ``hessian_contract``) so it can be passed to any routine
    expecting one.  ``b_matrix=None`` means no eta block.
    """

    a_matrix: np.ndarray
    b_matrix: np.ndarray | None = None
    c_vector: np.ndarray | None = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=np.float64))
        b = self.b_matrix
        b = np.zeros((a.shape[0], 0)) if b is None else np.atleast_2d(np.asarray(b, dtype=np.float64))
        c = self.c_vector
        c = np.zeros(a.shape[0]) if c is None else np.asarray(c, dtype=np.float64)
        if b.shape[0] != a.shape[0]:
            raise ConfigError("a_matrix and b_matrix must have the same number of rows")
        if c.shape != (a.shape[0],):
            raise ConfigError("c_vector length must match the residual dimension")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "c_vector", c)

    @property
    def n_xi(self) -> int:
        return self.a_matrix.shape[1]

    @property
    def n_eta(self) -> int:
        return self.b_matrix.shape[1]

    @property
    def n_residual(self) -> int:
        return self.a_matrix.shape[0]

    def residual(self, xi, eta) -> np.ndarray:
        return self.a_matrix @ np.asarray(xi, dtype=np.float64) + self.b_matrix @ np.asarray(
            eta, dtype=np.float64
        ) - self.c_vector

    def jacobians(self, xi, eta) -> tuple[np.ndarray, np.ndarray]:
        return self.a_matrix, self.b_matrix

    def vjp(self, xi, eta, w) -> tuple[np.ndarray, np.ndarray]:
        w = np.asarray(w, dtype=np.float64)
        return self.a_matrix.T @ w, self.b_matrix.T @ w

    def misfit_vjp(self, xi, eta, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``m = R - omega`` and ``(A^T m, B^T m)``, for one row or ``(rows, n)`` batches."""
        xi = np.asarray(xi, dtype=np.float64)
        eta = np.asarray(eta, dtype=np.float64)
        m = xi @ self.a_matrix.T + eta @ self.b_matrix.T - self.c_vector - omega
        return m, m @ self.a_matrix, m @ self.b_matrix

    def hessian_contract(self, xi, eta, w) -> np.ndarray:
        n = self.n_xi + self.n_eta
        return np.zeros((n, n))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of posterior summaries for one sampler run at one gamma.

    ``convergence_curves`` maps coordinate index to a ``{"mean": series,
    "std": series}`` dict, with None for a series whose full-ensemble
    statistic is zero (ratio undefined).
    """

    mean_field: np.ndarray
    std_field: np.ndarray
    lpp: float
    coverage: float
    rel_l2: float
    l_inf: float
    laplace_spectrum: np.ndarray
    condition_number: float
    convergence_curves: dict

    def __post_init__(self):
        object.__setattr__(self, "mean_field", np.asarray(self.mean_field, dtype=np.float64))
        object.__setattr__(self, "std_field", np.asarray(self.std_field, dtype=np.float64))
        object.__setattr__(
            self, "laplace_spectrum", np.asarray(self.laplace_spectrum, dtype=np.float64)
        )
        if not 0.0 <= self.coverage <= 1.0:
            raise ConfigError("coverage must lie in [0, 1]")
        if np.any(self.std_field < 0.0):
            raise ConfigError("std_field must be nonnegative")
        if np.any(np.diff(self.laplace_spectrum) > 0.0):
            raise ConfigError("laplace_spectrum must be sorted nonincreasing")


def linear_oracle(model: LinearModel, params: LossParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian posterior (mean, covariance) for a linear model.

    With ``G = [A B]`` the precision is ``G^T G / sigma_r_sq`` plus the
    identity (the coefficients' standard-normal prior), and the mean is
    ``cov @ G^T c / sigma_r_sq``.  The returned covariance is symmetrized to
    remove roundoff asymmetry.
    """
    from scipy.linalg import cho_factor, cho_solve
    g = np.hstack([model.a_matrix, model.b_matrix])
    precision = g.T @ g / params.sigma_r_sq + np.eye(g.shape[1])
    try:
        factor = cho_factor(precision)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("posterior precision matrix is singular") from exc
    mean = cho_solve(factor, g.T @ model.c_vector / params.sigma_r_sq)
    cov = cho_solve(factor, np.eye(precision.shape[0]))
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def posterior_moments(ensemble, basis: CkleBasis) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell mean and unbiased std of the reconstructed parameter field.

    Each usable row's ``xi`` block is pushed through ``basis`` and the
    moments are taken cell by cell.

    Parameters
    ----------
    ensemble : PosteriorEnsemble
        Sampler output; only rows from converged solves are used.
    basis : CkleBasis
        Log-transmissivity expansion whose term count matches the xi block.

    Returns
    -------
    mean_field, std_field : ndarray
        Length ``basis.n_cells`` each; the std uses the ``N - 1``
        normalization.
    """
    if not ensemble.moments_defined:
        raise ConfigError("moments need at least two usable samples")
    coeffs = ensemble.coefficient_matrix()[:, : ensemble.n_xi]
    if coeffs.shape[1] != basis.n_terms:
        raise ConfigError(
            f"basis has {basis.n_terms} terms but the xi block has {coeffs.shape[1]}"
        )
    fields = basis.mean + coeffs @ basis.modes.T
    # Shifting by one sample before the spread computation keeps identical
    # samples at exactly zero std (the plain two-pass formula leaves ulp-level
    # residue from the mean rounding) and costs nothing in accuracy.
    shifted = fields - fields[0]
    return fields.mean(axis=0), shifted.std(axis=0, ddof=1)


def lpp(mean_field, std_field, reference) -> float:
    """Sum of pointwise Gaussian log densities of the reference field.

    Scores the summary ``N(mean_field, std_field^2)`` against the reference
    values, cell by cell:  ``-sum[(mu - y)^2 / (2 sigma^2) + log(2 pi
    sigma^2) / 2]``.  Higher is better.  Any cell with zero spread makes the
    score undefined and is reported by index.
    """
    mu = np.asarray(mean_field, dtype=np.float64)
    sigma = np.asarray(std_field, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if mu.shape != sigma.shape or mu.shape != ref.shape:
        raise ConfigError("mean, std, and reference must have equal shapes")
    degenerate = np.flatnonzero(sigma <= 0.0)
    if degenerate.size:
        raise ConfigError(
            f"zero predictive spread at cells {degenerate.tolist()}; "
            "log probability is undefined there"
        )
    var = sigma**2
    return float(-np.sum((mu - ref) ** 2 / (2.0 * var) + 0.5 * np.log(2.0 * np.pi * var)))


def coverage(mean_field, std_field, reference) -> float:
    """Fraction of cells whose reference value falls in the 95% credible interval.

    The interval is the Gaussian one, ``mean +- z * std`` with ``z =
    1.959964`` (:data:`Z_975`) the standard normal's 97.5% quantile,
    matching the Gaussian summary used by :func:`lpp`.
    """
    mu = np.asarray(mean_field, dtype=np.float64)
    sigma = np.asarray(std_field, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    return float(np.mean(np.abs(ref - mu) <= Z_975 * sigma))


def error_norms(mean_field, reference) -> tuple[float, float]:
    """Relative l2 and absolute max errors of a point estimate.

    Returns ``(||mean - ref||_2 / ||ref||_2, max |mean - ref|)``.  A zero
    reference norm leaves the relative error undefined and is rejected.
    """
    mu = np.asarray(mean_field, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if mu.shape != ref.shape:
        raise ConfigError("mean and reference must have equal shapes")
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0.0:
        raise ConfigError("reference norm is zero; relative error undefined")
    diff = mu - ref
    return float(np.linalg.norm(diff) / ref_norm), float(np.max(np.abs(diff)))


def convergence_ratios(chain, coordinate: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Running-moment ratios for one coefficient coordinate.

    For ``m = 1 .. n`` over the ``n`` rows of ``chain`` the mean ratio is
    ``|mean over first m / mean over all n|`` and the std ratio is the
    analogous running-over-full unbiased std ratio (undefined at ``m = 1``,
    reported as NaN).  Both series end at exactly 1.  A zero full-ensemble
    mean makes the mean ratio undefined and that series is returned as None.
    A zero full-ensemble std only happens for a constant series, where every
    running std equals it; that ratio is 1 by continuity.
    """
    chain = np.atleast_2d(np.asarray(chain, dtype=np.float64))
    x = chain[:, coordinate]
    counts = np.arange(1, x.shape[0] + 1, dtype=np.float64)
    running_mean = np.cumsum(x) / counts
    # Unbiased running variance from the cumulative first two moments; the
    # m = 1 entry is 0/0 and stays NaN by construction.
    running_sq = np.cumsum(x**2)
    with np.errstate(invalid="ignore", divide="ignore"):
        running_var = (running_sq - counts * running_mean**2) / (counts - 1.0)
        running_std = np.sqrt(np.maximum(running_var, 0.0))
        running_std[0] = np.nan
    mean_full = running_mean[-1]
    std_full = running_std[-1]
    mean_ratios = np.abs(running_mean / mean_full) if mean_full != 0.0 else None
    if std_full > 0.0:
        std_ratios = running_std / std_full
    else:
        std_ratios = np.ones_like(running_std)
        std_ratios[0] = np.nan
    return mean_ratios, std_ratios


def laplace_posterior(model, params: LossParams, map_z) -> tuple[np.ndarray, float, np.ndarray]:
    """Gaussian (Laplace) posterior approximation around the MAP.

    ``map_z`` is the stacked MAP vector ``(xi, eta)``.  The negative log
    posterior is ``loss / gamma``; its Hessian at the MAP
    (:meth:`PickleLoss.hessian` of the deterministic loss, whose misfit is
    the residual) is assembled analytically from the residual Jacobian
    (Gauss-Newton term), the second-derivative contraction against the
    residual, and the unit prior precision:

        H = (G^T G + sum_n R_n d2R_n) / sigma_r_sq + I.

    Returns the covariance ``H^{-1}``, its condition number, and its
    eigenvalues sorted nonincreasing.  The caller is responsible for
    passing a stationary point; a Hessian with a nonpositive eigenvalue
    (saddle or worse) is rejected.
    """
    loss = PickleLoss(model, params)
    hessian = loss.hessian(loss.stacked(map_z))
    eigvals, eigvecs = np.linalg.eigh(hessian)
    if eigvals[0] <= 0.0:
        raise NonPsdHessianError(
            f"posterior Hessian is not positive definite; "
            f"most negative eigenvalue {eigvals[0]:.6e}"
        )
    cov = (eigvecs / eigvals) @ eigvecs.T
    cov = 0.5 * (cov + cov.T)
    # eigh sorts the Hessian spectrum ascending, so the covariance spectrum
    # 1/eigvals comes out nonincreasing as required.
    spectrum = 1.0 / eigvals
    condition = float(spectrum[0] / spectrum[-1])
    return cov, condition, spectrum


def report_to_json(report: DiagnosticsReport, path, meta: dict | None = None) -> None:
    """Scalar summaries and the spectrum; field-sized data goes to CSV."""
    doc = {
        "lpp": report.lpp,
        "coverage": report.coverage,
        "rel_l2": report.rel_l2,
        "l_inf": report.l_inf,
        "condition_number": report.condition_number,
        "laplace_spectrum": report.laplace_spectrum.tolist(),
        "n_cells": int(report.mean_field.size),
        "meta": dict(sorted((meta or {}).items())),
    }
    write_json(path, doc)


def report_to_csv(report: DiagnosticsReport, out_dir, meta: dict | None = None) -> None:
    """Per-cell fields and convergence curves as plain CSV for plotting.

    Writes ``fields.csv`` (cell, mean, std) and ``convergence.csv``
    (coordinate, m, mean_ratio, std_ratio; blank where undefined) under
    ``out_dir``.  ``meta`` adds ``# key=value`` comment lines to both.
    """
    stamp = dict(sorted((meta or {}).items()))
    fields = (
        [i, float_token(m), float_token(s)] for i, (m, s) in enumerate(zip(report.mean_field, report.std_field))
    )
    write_table(f"{out_dir}/fields.csv", stamp, ["cell", "mean", "std"], fields)

    rows = []
    for coord in sorted(report.convergence_curves):
        curves = report.convergence_curves[coord]
        mean_r, std_r = curves.get("mean"), curves.get("std")
        length = len(mean_r) if mean_r is not None else len(std_r) if std_r is not None else 0
        for m in range(length):
            mean_cell = "" if mean_r is None else float_token(mean_r[m])
            std_cell = "" if std_r is None or np.isnan(std_r[m]) else float_token(std_r[m])
            rows.append([coord, m + 1, mean_cell, std_cell])
    write_table(f"{out_dir}/convergence.csv", stamp, ["coordinate", "m", "mean_ratio", "std_ratio"], rows)
