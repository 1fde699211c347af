"""Regularized residual loss over expansion coefficients, and its minimizer.

Writing the log-transmissivity and head fields through their truncated
expansions turns the PDE into a residual ``R(xi, eta)`` over a modest number
of coefficients.  The deterministic loss

    L(xi, eta) = 1/2 ||R||^2 + gamma/2 ||xi||^2 + gamma/2 ||eta||^2

(with ``gamma = sigma_r_sq`` and unit prior variances) is, up to the factor
``1/gamma`` and a constant, the negative log posterior of the coefficients
under a Gaussian residual likelihood and standard-normal priors, so its
minimizer is the MAP point.  :class:`PickleLoss` is the one place that loss,
its noise-shifted form used for posterior sampling, and their derivatives are
written.  The optimizer is limited-memory quasi-Newton on the
``1/gamma``-scaled loss (same argmin, better conditioned), with an optional
damped Gauss-Newton polish that exploits the exact least-squares structure
when quasi-Newton stalls above tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError
from .gp_prior import CkleBasis
from .mesh_fv import BoundaryConditions, FlowOperator, Mesh
from .seeding import write_json

__all__ = [
    "LossParams",
    "CoefficientPair",
    "ResidualModel",
    "PickleLoss",
    "OptimConfig",
    "OptimResult",
    "MapResult",
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


class PickleLoss:
    """The PICKLE loss over stacked coefficients ``z = (xi, eta)``.

    With residual target ``omega`` and prior targets ``(alpha, beta)``, all
    zero when not given, the loss is

        L(z) = 1/2 ||R(z) - omega||^2 + gamma/2 ||xi - alpha||^2 / s_xi
               + gamma/2 ||eta - beta||^2 / s_eta

    with ``gamma = sigma_r_sq``.  Zero targets give the deterministic loss,
    whose minimizer is the MAP point; Gaussian targets give one randomized
    draw.  ``L / gamma`` is the negative log posterior up to a constant, and
    the methods return it and its derivatives: value and gradient for the
    optimizer and HMC, the Gauss-Newton matrix for the polish, and the full
    Hessian for the Metropolis log-det and the Laplace approximation.  The
    methods take a stacked vector as it is; :meth:`stacked` checks one.
    """

    def __init__(self, model, params: LossParams, omega=None, alpha=None, beta=None):
        self.model = model
        self.gamma = params.sigma_r_sq
        self.s_xi, self.s_eta = params.sigma_xi_sq, params.sigma_eta_sq
        self.n_xi = model.n_xi
        self.size = model.n_xi + model.n_eta
        self.omega = _target(omega, model.n_residual)
        self.alpha = _target(alpha, model.n_xi)
        self.beta = _target(beta, model.n_eta)

    def stacked(self, z) -> np.ndarray:
        """``z``, a :class:`CoefficientPair` or a vector, as a checked stacked vector."""
        if isinstance(z, CoefficientPair):
            z = z.stacked
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.size,):
            raise ConfigError(f"coefficient vector must have length {self.size}, got {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ConfigError("coefficients must be finite")
        return z

    def prior_variances(self) -> np.ndarray:
        """Per-coordinate prior variances ``s`` over stacked coefficients."""
        n_eta = self.size - self.n_xi
        return np.concatenate([np.full(self.n_xi, self.s_xi), np.full(n_eta, self.s_eta)])

    def _unscaled(self, z) -> tuple[float, np.ndarray]:
        """``L(z)`` and its gradient; a non-finite ``z`` gives non-finite values."""
        xi, eta = z[: self.n_xi], z[self.n_xi :]
        dr = self.model.residual(xi, eta) - self.omega
        dxi, deta = xi - self.alpha, eta - self.beta
        gamma = self.gamma
        value = (
            0.5 * (dr @ dr)
            + 0.5 * gamma * (dxi @ dxi) / self.s_xi
            + 0.5 * gamma * (deta @ deta) / self.s_eta
        )
        g_xi, g_eta = self.model.vjp(xi, eta, dr)
        grad = np.concatenate([g_xi + gamma * dxi / self.s_xi, g_eta + gamma * deta / self.s_eta])
        return float(value), grad

    def value_grad(self, z) -> tuple[float, np.ndarray]:
        """``L(z) / gamma`` and its gradient."""
        value, grad = self._unscaled(z)
        return value / self.gamma, grad / self.gamma

    def _jacobian(self, z) -> np.ndarray:
        j_xi, j_eta = self.model.jacobians(z[: self.n_xi], z[self.n_xi :])
        return np.hstack([np.atleast_2d(j_xi), np.atleast_2d(j_eta)])

    def gn_matrix(self, z) -> np.ndarray:
        """Gauss-Newton matrix ``J^T J / gamma + diag(1/s)`` of ``L / gamma``."""
        j = self._jacobian(z)
        return j.T @ j / self.gamma + np.diag(1.0 / self.prior_variances())

    def hessian(self, z, misfit) -> np.ndarray:
        """Symmetrized ``(J^T J + sum_n misfit_n Hess R_n) / gamma + diag(1/s)``.

        With ``misfit = R(z) - omega`` this is the Hessian of ``L / gamma``.
        """
        misfit = np.asarray(misfit, dtype=np.float64)
        if misfit.shape != (self.model.n_residual,):
            raise ConfigError("misfit length must match the residual dimension")
        j = self._jacobian(z)
        curvature = self.model.hessian_contract(z[: self.n_xi], z[self.n_xi :], misfit)
        h = (j.T @ j + curvature) / self.gamma + np.diag(1.0 / self.prior_variances())
        return 0.5 * (h + h.T)


def _target(value, n: int):
    """A noise target as a length-``n`` vector; ``None`` is zero."""
    if value is None:
        return 0.0
    value = np.asarray(value, dtype=np.float64)
    if value.shape != (n,):
        raise ConfigError("noise vector shapes must match the model")
    return value


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
    omega: np.ndarray | None,
    alpha: np.ndarray | None,
    beta: np.ndarray | None,
    init=None,
    config: OptimConfig | None = None,
) -> OptimResult:
    """Minimize the noise-shifted scaled loss.

    The objective is :class:`PickleLoss`'s ``L / gamma`` for the targets
    ``omega``, ``alpha``, ``beta`` (``None`` is zero); with zero targets it is
    the deterministic loss divided by ``gamma``, so one code path serves both
    the MAP solve and every randomized sample.  ``init``, a vector or a
    :class:`CoefficientPair`, defaults to zero.
    """
    config = config or OptimConfig()
    loss = PickleLoss(model, params, omega, alpha, beta)
    n = loss.size
    x0 = np.zeros(n) if init is None else loss.stacked(init).copy()

    value0, grad0 = loss.value_grad(x0)
    gnorm0 = float(np.linalg.norm(grad0))
    if gnorm0 <= config.tolerance(value0):
        return OptimResult(z=x0, loss=float(value0), grad_norm=gnorm0, n_iter=0, converged=True)

    # L-BFGS usually returns the point it evaluated last, so keep that
    # evaluation; its result can also be an earlier point, hence the check.
    last = {}

    def value_grad(x):
        value, grad = loss.value_grad(x)
        last.update(x=x.copy(), value=value, grad=grad.copy())
        return value, grad

    res = minimize(
        value_grad,
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
    if np.array_equal(z, last.get("x")):
        value, grad = last["value"], last["grad"]
    else:
        value, grad = loss.value_grad(z)
    n_iter = int(res.nit)
    gnorm = float(np.linalg.norm(grad))

    if config.polish and gnorm > config.tolerance(value):
        z, value, grad, extra = _gauss_newton_polish(loss, z, value, grad, config)
        gnorm = float(np.linalg.norm(grad))
        n_iter += extra

    return OptimResult(
        z=z,
        loss=float(value),
        grad_norm=gnorm,
        n_iter=n_iter,
        converged=bool(gnorm <= config.tolerance(value)),
    )


def _gauss_newton_polish(loss: PickleLoss, z, value, grad, config):
    """Damped Gauss-Newton steps on the exact least-squares structure."""
    mu = 0.0
    steps = 0
    for _ in range(config.polish_maxiter):
        gnorm = np.linalg.norm(grad)
        if gnorm <= config.tolerance(value):
            break
        normal = loss.gn_matrix(z)
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(normal + mu * np.eye(normal.shape[0]), -grad)
            except np.linalg.LinAlgError:
                mu = max(10.0 * mu, 1e-12 * float(np.trace(normal)) / normal.shape[0])
                continue
            z_new = z + step
            value_new, grad_new = loss.value_grad(z_new)
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
    res = minimize_randomized(model, params, None, None, None, init=init, config=config)
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
    write_json(path, doc)
