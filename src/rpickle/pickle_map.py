"""Regularized residual loss over expansion coefficients, and its minimizer.

Writing the log-transmissivity and head fields through their truncated
expansions turns the PDE into a residual ``R(xi, eta)`` over a modest number
of coefficients.  The deterministic loss

    L(xi, eta) = 1/2 ||R||^2 + gamma/2 ||xi||^2 + gamma/2 ||eta||^2

(with ``gamma = sigma_r_sq`` and unit prior variances) is, up to the factor
``1/gamma`` and a constant, the negative log posterior of the coefficients
under a Gaussian residual likelihood and standard-normal priors, so its
minimizer is the MAP point.  The optimizer is limited-memory quasi-Newton on
the ``1/gamma``-scaled loss (same argmin, better conditioned), with an
optional damped Gauss-Newton polish that exploits the exact least-squares
structure when quasi-Newton stalls above tolerance.  The same machinery
minimizes the noise-shifted loss used for posterior sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError
from .gp_prior import CkleBasis
from .mesh_fv import BoundaryConditions, FlowOperator, Mesh

__all__ = [
    "LossParams",
    "CoefficientPair",
    "ResidualModel",
    "OptimConfig",
    "OptimResult",
    "MapResult",
    "pickle_loss",
    "pickle_grad",
    "map_optimize",
    "sweep_gammas",
    "minimize_randomized",
    "map_result_to_json",
]


@dataclass(frozen=True)
class LossParams:
    """Residual variance (the regularization weight) and prior variances."""

    sigma_r_sq: float
    sigma_xi_sq: float = 1.0
    sigma_eta_sq: float = 1.0

    def __post_init__(self):
        for name in ("sigma_r_sq", "sigma_xi_sq", "sigma_eta_sq"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class CoefficientPair:
    """Coefficients of the log-transmissivity (xi) and head (eta) expansions."""

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=np.float64)))
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, dtype=np.float64)))
        if not (np.all(np.isfinite(self.xi)) and np.all(np.isfinite(self.eta))):
            raise ConfigError("coefficients must be finite")

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.xi, self.eta])

    @classmethod
    def from_stacked(cls, z: np.ndarray, n_xi: int) -> "CoefficientPair":
        z = np.asarray(z, dtype=np.float64)
        return cls(xi=z[:n_xi], eta=z[n_xi:])

    @classmethod
    def zeros(cls, n_xi: int, n_eta: int) -> "CoefficientPair":
        return cls(xi=np.zeros(n_xi), eta=np.zeros(n_eta))


class ResidualModel:
    """PDE residual composed with the two field expansions.

    Wraps a mesh, boundary values, and the (y, u) bases into the coefficient-
    space residual ``R(xi, eta) = R(y(xi), u(eta))`` with exact first
    derivatives and weighted second-derivative contractions.  Any object with
    the same ``n_xi/n_eta/n_residual/residual/jacobians/vjp/hessian_contract``
    surface (e.g. the linear test model in the diagnostics module) can stand
    in for it downstream.
    """

    def __init__(self, mesh: Mesh, y_basis: CkleBasis, u_basis: CkleBasis, bc: BoundaryConditions):
        if y_basis.n_cells != mesh.n_cells or u_basis.n_cells != mesh.n_cells:
            raise ConfigError("basis sizes must match the mesh cell count")
        self.operator = FlowOperator(mesh, bc)
        self.mesh = mesh
        self.y_basis = y_basis
        self.u_basis = u_basis
        self.bc = bc
        self._phi_y = y_basis.modes
        self._phi_u = u_basis.modes

    @property
    def n_xi(self) -> int:
        return self.y_basis.n_terms

    @property
    def n_eta(self) -> int:
        return self.u_basis.n_terms

    @property
    def n_residual(self) -> int:
        return self.mesh.n_cells

    def fields(self, xi, eta) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct (y, u) from coefficients."""
        y = self.y_basis.mean + self._phi_y @ np.asarray(xi, dtype=np.float64)
        u = self.u_basis.mean + self._phi_u @ np.asarray(eta, dtype=np.float64)
        return y, u

    def residual(self, xi, eta) -> np.ndarray:
        y, u = self.fields(xi, eta)
        return self.operator.residual(y, u)

    def jacobians(self, xi, eta) -> tuple[np.ndarray, np.ndarray]:
        """Dense (n_residual, n_xi) and (n_residual, n_eta) Jacobian blocks."""
        y, u = self.fields(xi, eta)
        dr_dy, dr_du = self.operator.jacobians(y, u)
        return dr_dy @ self._phi_y, dr_du @ self._phi_u

    def vjp(self, xi, eta, w) -> tuple[np.ndarray, np.ndarray]:
        """Gradient pieces ``((dR/dxi)^T w, (dR/deta)^T w)`` via the adjoint."""
        y, u = self.fields(xi, eta)
        gy, gu = self.operator.vjp(y, u, w)
        return self._phi_y.T @ gy, self._phi_u.T @ gu

    def hessian_contract(self, xi, eta, w) -> np.ndarray:
        """Dense symmetric ``sum_n w_n Hess_z R_n`` over stacked coefficients."""
        y, u = self.fields(xi, eta)
        h_yy, h_yu = self.operator.hessian_contract(y, u, w)
        block_xx = self._phi_y.T @ (h_yy @ self._phi_y)
        block_xx = 0.5 * (block_xx + block_xx.T)
        block_xe = self._phi_y.T @ (h_yu @ self._phi_u)
        n = self.n_xi + self.n_eta
        out = np.zeros((n, n))
        out[: self.n_xi, : self.n_xi] = block_xx
        out[: self.n_xi, self.n_xi :] = block_xe
        out[self.n_xi :, : self.n_xi] = block_xe.T
        return out


def _as_pair(model, z) -> CoefficientPair:
    if isinstance(z, CoefficientPair):
        return z
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.n_xi + model.n_eta,):
        raise ConfigError(
            f"coefficient vector must have length {model.n_xi + model.n_eta}, got {z.shape}"
        )
    return CoefficientPair.from_stacked(z, model.n_xi)


def pickle_loss(model, params: LossParams, z) -> float:
    """Deterministic loss ``1/2 ||R||^2 + gamma/2 (||xi||^2/s_xi + ||eta||^2/s_eta)``."""
    pair = _as_pair(model, z)
    r = model.residual(pair.xi, pair.eta)
    gamma = params.sigma_r_sq
    return float(
        0.5 * (r @ r)
        + 0.5 * gamma * (pair.xi @ pair.xi) / params.sigma_xi_sq
        + 0.5 * gamma * (pair.eta @ pair.eta) / params.sigma_eta_sq
    )


def pickle_grad(model, params: LossParams, z) -> np.ndarray:
    """Exact gradient of :func:`pickle_loss` over stacked (xi, eta)."""
    pair = _as_pair(model, z)
    r = model.residual(pair.xi, pair.eta)
    g_xi, g_eta = model.vjp(pair.xi, pair.eta, r)
    gamma = params.sigma_r_sq
    return np.concatenate(
        [g_xi + gamma * pair.xi / params.sigma_xi_sq, g_eta + gamma * pair.eta / params.sigma_eta_sq]
    )


@dataclass(frozen=True)
class OptimConfig:
    """Quasi-Newton settings shared by the MAP and sampling solves.

    Convergence is declared when the 2-norm of the scaled-loss gradient drops
    below ``max(gtol, gtol_rel * (1 + |loss|))``.  ``polish`` enables a damped
    Gauss-Newton cleanup when quasi-Newton terminates above that tolerance.
    """

    gtol: float = 1e-8
    gtol_rel: float = 1e-8
    maxiter: int = 5000
    history: int = 20
    polish: bool = True
    polish_maxiter: int = 60

    def tolerance(self, loss_value: float) -> float:
        return max(self.gtol, self.gtol_rel * (1.0 + abs(loss_value)))


@dataclass(frozen=True)
class OptimResult:
    """Minimizer of one scaled-loss solve, with convergence bookkeeping."""

    z: np.ndarray
    loss: float
    grad_norm: float
    n_iter: int
    converged: bool


def minimize_randomized(
    model,
    params: LossParams,
    omega: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    init: np.ndarray | None = None,
    config: OptimConfig | None = None,
) -> OptimResult:
    """Minimize the noise-shifted scaled loss.

    The objective is ``1/2 ||R(z) - omega||^2 / gamma + 1/2 ||xi - alpha||^2 /
    s_xi + 1/2 ||eta - beta||^2 / s_eta``; with zero noise this equals the
    deterministic loss divided by ``gamma``, so one code path serves both the
    MAP solve and every randomized sample.
    """
    config = config or OptimConfig()
    n_xi, n_eta = model.n_xi, model.n_eta
    n = n_xi + n_eta
    gamma = params.sigma_r_sq
    s_xi, s_eta = params.sigma_xi_sq, params.sigma_eta_sq
    omega = np.asarray(omega, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if omega.shape != (model.n_residual,) or alpha.shape != (n_xi,) or beta.shape != (n_eta,):
        raise ConfigError("noise vector shapes must match the model")
    x0 = np.zeros(n) if init is None else np.asarray(init, dtype=np.float64).copy()
    if x0.shape != (n,):
        raise ConfigError(f"init must have length {n}")

    def fun_grad(z):
        xi, eta = z[:n_xi], z[n_xi:]
        dr = model.residual(xi, eta) - omega
        dxi, deta = xi - alpha, eta - beta
        value = 0.5 * (dr @ dr) / gamma + 0.5 * (dxi @ dxi) / s_xi + 0.5 * (deta @ deta) / s_eta
        g_xi, g_eta = model.vjp(xi, eta, dr / gamma)
        grad = np.concatenate([g_xi + dxi / s_xi, g_eta + deta / s_eta])
        return value, grad

    value0, grad0 = fun_grad(x0)
    gnorm0 = float(np.linalg.norm(grad0))
    if gnorm0 <= config.tolerance(value0):
        return OptimResult(z=x0, loss=float(value0), grad_norm=gnorm0, n_iter=0, converged=True)

    res = minimize(
        fun_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxcor": config.history,
            "ftol": 1e-18,
            "gtol": config.gtol / (10.0 * np.sqrt(n)),
            "maxiter": config.maxiter,
            "maxfun": 20 * config.maxiter,
        },
    )
    z = np.asarray(res.x, dtype=np.float64)
    value, grad = fun_grad(z)
    n_iter = int(res.nit)
    gnorm = float(np.linalg.norm(grad))

    if config.polish and gnorm > config.tolerance(value):
        z, value, grad, extra = _gauss_newton_polish(
            model, params, omega, alpha, beta, z, value, grad, config
        )
        gnorm = float(np.linalg.norm(grad))
        n_iter += extra

    return OptimResult(
        z=z,
        loss=float(value),
        grad_norm=gnorm,
        n_iter=n_iter,
        converged=bool(gnorm <= config.tolerance(value)),
    )


def _gauss_newton_polish(model, params, omega, alpha, beta, z, value, grad, config):
    """Damped Gauss-Newton steps on the exact least-squares structure."""
    n_xi = model.n_xi
    gamma = params.sigma_r_sq
    s_xi, s_eta = params.sigma_xi_sq, params.sigma_eta_sq
    prior_diag = np.concatenate(
        [np.full(n_xi, 1.0 / s_xi), np.full(model.n_eta, 1.0 / s_eta)]
    )

    def fun_grad(zz):
        xi, eta = zz[:n_xi], zz[n_xi:]
        dr = model.residual(xi, eta) - omega
        shift = zz - np.concatenate([alpha, beta])
        val = 0.5 * (dr @ dr) / gamma + 0.5 * np.sum(prior_diag * shift**2)
        g_xi, g_eta = model.vjp(xi, eta, dr / gamma)
        return val, np.concatenate([g_xi, g_eta]) + prior_diag * shift

    mu = 0.0
    steps = 0
    for _ in range(config.polish_maxiter):
        gnorm = np.linalg.norm(grad)
        if gnorm <= config.tolerance(value):
            break
        j_xi, j_eta = model.jacobians(z[:n_xi], z[n_xi:])
        j = np.hstack([j_xi, j_eta])
        normal = j.T @ j / gamma + np.diag(prior_diag)
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(normal + mu * np.eye(normal.shape[0]), -grad)
            except np.linalg.LinAlgError:
                mu = max(10.0 * mu, 1e-12 * float(np.trace(normal)) / normal.shape[0])
                continue
            z_new = z + step
            value_new, grad_new = fun_grad(z_new)
            # Near the minimum the value improvement drops below float
            # resolution while the gradient still shrinks by orders of
            # magnitude, so a step also counts when it clearly reduces the
            # gradient norm without a measurable value increase.
            better = np.isfinite(value_new) and (
                value_new <= value
                or (
                    value_new <= value + 1e-12 * (1.0 + abs(value))
                    and np.linalg.norm(grad_new) <= 0.5 * gnorm
                )
            )
            if better:
                z, value, grad = z_new, value_new, grad_new
                mu /= 3.0
                accepted = True
                steps += 1
                break
            mu = max(10.0 * mu, 1e-12 * float(np.trace(normal)) / normal.shape[0])
        if not accepted:
            break
    return z, value, grad, steps


@dataclass(frozen=True)
class MapResult:
    """MAP point with the optimizer's exit information.

    ``loss`` is the deterministic (unscaled) loss at the solution;
    ``grad_norm`` is the 2-norm of the scaled-loss gradient, the quantity the
    convergence test applies to.
    """

    coefficients: CoefficientPair
    loss: float
    grad_norm: float
    n_iter: int
    converged: bool


def map_optimize(
    model,
    params: LossParams,
    init: CoefficientPair | None = None,
    config: OptimConfig | None = None,
) -> MapResult:
    """Compute the MAP coefficients by minimizing the deterministic loss.

    Initialization defaults to zero coefficients (the prior mean).  A
    non-converged run is flagged but still returns the best iterate.
    """
    x0 = None if init is None else _as_pair(model, init).stacked
    res = minimize_randomized(
        model,
        params,
        omega=np.zeros(model.n_residual),
        alpha=np.zeros(model.n_xi),
        beta=np.zeros(model.n_eta),
        init=x0,
        config=config,
    )
    pair = CoefficientPair.from_stacked(res.z, model.n_xi)
    return MapResult(
        coefficients=pair,
        loss=res.loss * params.sigma_r_sq,
        grad_norm=res.grad_norm,
        n_iter=res.n_iter,
        converged=res.converged,
    )


def sweep_gammas(model, gammas, config: OptimConfig | None = None) -> list[tuple[float, MapResult]]:
    """MAP solves over a residual-variance grid (one independent solve per value)."""
    out = []
    for gamma in gammas:
        params = LossParams(sigma_r_sq=float(gamma))
        out.append((float(gamma), map_optimize(model, params, config=config)))
    return out


def map_result_to_json(result: MapResult, path, meta: dict | None = None) -> None:
    doc = {
        "xi": result.coefficients.xi.tolist(),
        "eta": result.coefficients.eta.tolist(),
        "loss": result.loss,
        "grad_norm": result.grad_norm,
        "n_iter": result.n_iter,
        "converged": result.converged,
        "meta": dict(sorted((meta or {}).items())),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
