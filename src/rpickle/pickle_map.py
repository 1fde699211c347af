"""Regularized residual loss over expansion coefficients, and its minimizer.

Writing the log-transmissivity and head fields through their truncated
expansions turns the PDE into a residual ``R(xi, eta)`` over a modest number
of coefficients, held as one stacked vector ``z = (xi, eta)``.  The
expansion coefficients are standard normal a priori, so the deterministic
loss

    L(z) = 1/2 ||R(z)||^2 + gamma/2 ||xi||^2 + gamma/2 ||eta||^2

(with ``gamma = sigma_r_sq``) is, up to the factor ``1/gamma`` and a
constant, the negative log posterior of the coefficients under a Gaussian
residual likelihood, so its minimizer is the MAP point.  :class:`PickleLoss`
is the one place that loss, its noise-shifted form used for posterior
sampling, and their derivatives are written.  The optimizer,
:func:`minimize_batch`, is limited-memory BFGS on the ``1/gamma``-scaled
loss (same argmin, better conditioned), run on many randomized draws at once
in lockstep: each of its evaluations is one call of the model's fused
misfit-and-adjoint method over every draw still running.  A solve that ends
above tolerance gets a damped Newton polish on the exact Hessian.  The MAP
solve (:func:`map_optimize` through :func:`minimize_randomized`) is the
one-row call of the same solver.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gp_prior import CkleBasis
from .mesh_fv import BoundaryConditions, FlowOperator, Mesh
from .seeding import write_json

__all__ = [
    "LossParams",
    "ResidualModel",
    "PickleLoss",
    "OptimConfig",
    "OptimResult",
    "map_optimize",
    "sweep_gammas",
    "minimize_randomized",
    "minimize_batch",
    "map_result_to_json",
]


@dataclass(frozen=True)
class LossParams:
    """Residual variance ``sigma_r_sq``, the loss's regularization weight ``gamma``."""

    sigma_r_sq: float

    def __post_init__(self):
        if not self.sigma_r_sq > 0:
            raise ConfigError("sigma_r_sq must be positive")


class ResidualModel:
    """PDE residual composed with the two field expansions.

    Wraps a mesh, boundary values, and the (y, u) bases into the coefficient-
    space residual ``R(xi, eta) = R(y(xi), u(eta))`` with exact first
    derivatives and weighted second-derivative contractions.  Any object with
    the same ``n_xi/n_eta/n_residual/residual/jacobians/vjp/misfit_vjp/
    hessian_contract`` surface (e.g. :class:`~rpickle.diagnostics.LinearModel`)
    can stand in for it downstream.
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
        """Reconstruct (y, u) from coefficients, row by row for ``(rows, n)`` batches."""
        y = self.y_basis.mean + np.asarray(xi, dtype=np.float64) @ self._phi_y.T
        u = self.u_basis.mean + np.asarray(eta, dtype=np.float64) @ self._phi_u.T
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

    def misfit_vjp(self, xi, eta, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Misfit ``m = R(xi, eta) - omega`` and ``((dR/dxi)^T m, (dR/deta)^T m)`` in one pass.

        Coefficients are one vector each or ``(rows, n)`` batches.  A single
        row, or a one-row batch, gives exactly :meth:`residual` minus
        ``omega`` followed by :meth:`vjp`; in a larger batch, the basis
        products are matrix products and may round differently in the last
        bits.
        """
        y, u = self.fields(xi, eta)
        m, gy, gu = self.operator.misfit_vjp(y, u, omega)
        return m, gy @ self._phi_y, gu @ self._phi_u

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

        L(z) = 1/2 ||R(z) - omega||^2 + gamma/2 ||xi - alpha||^2
               + gamma/2 ||eta - beta||^2

    with ``gamma = sigma_r_sq``; the unit prior weights are the expansion
    coefficients' standard-normal prior.  Zero targets give the deterministic
    loss, whose minimizer is the MAP point; Gaussian targets give one
    randomized draw, and targets with a leading row axis give one draw per
    row.  ``L / gamma`` is the negative log posterior up to a constant, and
    the methods return it and its derivatives: value and gradient for the
    optimizer and HMC (per row for a batch of points), and the full Hessian
    for the polish, the Metropolis log-det and the Laplace approximation.  The
    methods take a stacked vector as it is; :meth:`stacked` checks one.
    """

    def __init__(self, model, params: LossParams, omega=None, alpha=None, beta=None):
        self.model = model
        self.gamma = params.sigma_r_sq
        self.n_xi = model.n_xi
        self.size = model.n_xi + model.n_eta
        self.omega = _target(omega, model.n_residual)
        self.alpha = _target(alpha, model.n_xi)
        self.beta = _target(beta, model.n_eta)

    def stacked(self, z, batch=False) -> np.ndarray:
        """``z`` as a checked stacked vector, or with ``batch`` ``(rows, size)`` of them: length ``size``, finite."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1:] != (self.size,) or z.ndim > 1 + batch:
            raise ConfigError(f"coefficient vector must have length {self.size}, got {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ConfigError("coefficients must be finite")
        return z

    def take(self, index) -> "PickleLoss":
        """The loss of target rows ``index``; targets without a row axis are shared."""
        out = copy.copy(self)
        out.omega, out.alpha, out.beta = (
            t[index] if np.ndim(t) == 2 else t for t in (self.omega, self.alpha, self.beta)
        )
        return out

    def _unscaled(self, z) -> tuple:
        """``L(z)`` and its gradient; a non-finite ``z`` gives non-finite values.

        ``z`` is one stacked vector, or ``(rows, size)`` with one value and
        gradient row per target row.
        """
        xi, eta = z[..., : self.n_xi], z[..., self.n_xi :]
        dr, g_xi, g_eta = self.model.misfit_vjp(xi, eta, self.omega)
        dxi, deta = xi - self.alpha, eta - self.beta
        gamma = self.gamma
        value = 0.5 * _sq(dr) + 0.5 * gamma * _sq(dxi) + 0.5 * gamma * _sq(deta)
        grad = np.concatenate([g_xi + gamma * dxi, g_eta + gamma * deta], axis=-1)
        return value, grad

    def value_grad(self, z) -> tuple:
        """``L(z) / gamma`` and its gradient, per row for a ``(rows, size)`` batch."""
        value, grad = self._unscaled(z)
        return value / self.gamma, grad / self.gamma

    def hessian(self, z) -> np.ndarray:
        """The Hessian of ``L / gamma`` at one stacked ``z``, symmetrized.

        That is ``(J^T J + sum_n m_n Hess R_n) / gamma + I`` with ``J`` the
        residual Jacobian and ``m = R(z) - omega`` the misfit of a loss
        whose targets have no row axis (one row of a batch: :meth:`take`).
        """
        xi, eta = z[: self.n_xi], z[self.n_xi :]
        misfit = self.model.residual(xi, eta) - self.omega
        j_xi, j_eta = self.model.jacobians(xi, eta)
        j = np.hstack([np.atleast_2d(j_xi), np.atleast_2d(j_eta)])
        curvature = self.model.hessian_contract(xi, eta, misfit)
        h = (j.T @ j + curvature) / self.gamma + np.eye(self.size)
        return 0.5 * (h + h.T)


def _sq(v):
    """Squared 2-norm of a vector, or of each row of a batch.

    The two round differently in the last bit: ``dot`` for a vector,
    ``einsum`` per row for a batch, so a one-row batch's value may differ
    from its vector's by an ulp (its gradient does not).
    """
    return float(v @ v) if v.ndim == 1 else np.einsum("ij,ij->i", v, v)


def _target(value, n: int):
    """A noise target as a length-``n`` vector or ``(rows, n)`` rows; ``None`` is zero."""
    if value is None:
        return 0.0
    value = np.asarray(value, dtype=np.float64)
    if value.shape[-1:] != (n,) or value.ndim > 2:
        raise ConfigError("noise vector shapes must match the model")
    return value


# Armijo sufficient-decrease constant of the line search.
ARMIJO = 1e-4

# Step halvings one line search tries before its row stops.
MAX_HALVINGS = 20

# An accepted step that lowers the loss by at most this many ulps of its
# value has reached the rounding floor and ends the row's iteration.
STALL_ULPS = 4


@dataclass(frozen=True)
class OptimConfig:
    """Solver settings shared by the MAP and sampling solves.

    Convergence is declared when the 2-norm of the scaled-loss gradient drops
    below ``max(gtol, gtol_rel * (1 + |loss|))``.  The quasi-Newton iteration
    itself runs on past that point while its steps still lower the loss, so
    a solve ends near the rounding floor.  ``maxiter`` bounds the accepted
    L-BFGS steps of each row and ``history`` the curvature pairs each row
    keeps.  ``polish`` enables a damped Newton cleanup of rows that end
    above tolerance, with at most ``polish_maxiter`` steps each.
    """

    gtol: float = 1e-8
    gtol_rel: float = 1e-8
    maxiter: int = 5000
    history: int = 20
    polish: bool = True
    polish_maxiter: int = 60

    def tolerance(self, loss_value):
        """The gradient-norm tolerance at a loss value, elementwise over an array."""
        return np.maximum(self.gtol, self.gtol_rel * (1.0 + np.abs(loss_value)))


@dataclass(frozen=True)
class OptimResult:
    """Minimizer of one scaled-loss solve, with convergence bookkeeping.

    :func:`minimize_batch` returns the same fields as arrays, one entry (or
    row of ``z``) per solve.
    """

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
    the MAP solve and every randomized sample.  ``init``, a stacked vector,
    defaults to zero.  This is the one-row call of :func:`minimize_batch`.
    """
    loss = PickleLoss(model, params, omega, alpha, beta)
    x0 = np.zeros(loss.size) if init is None else loss.stacked(init)
    res = minimize_batch(loss, x0[None, :], config)
    return OptimResult(
        z=res.z[0],
        loss=float(res.loss[0]),
        grad_norm=float(res.grad_norm[0]),
        n_iter=int(res.n_iter[0]),
        converged=bool(res.converged[0]),
    )


def minimize_batch(loss: PickleLoss, init, config: OptimConfig | None = None) -> OptimResult:
    """Minimize ``loss``'s ``L / gamma`` from every row of ``init`` at once.

    ``init`` has shape ``(rows, size)``; row ``r`` is solved for target row
    ``r`` of ``loss`` (targets without a row axis are shared by all rows).
    One limited-memory BFGS iteration (Liu & Nocedal 1989) advances all rows
    in lockstep, and each of its evaluations is one batched
    :meth:`PickleLoss.value_grad` over the rows still running:

    - the direction comes from the two-loop recursion over the row's last
      ``history`` curvature pairs; a pair with ``s'y <= eps y'y`` is skipped;
    - the step comes from Armijo backtracking (halving) from a step of 1, or
      of at most unit length while the row holds no pair; a direction that
      does not descend restarts the row from steepest descent;
    - a row stops when an accepted step lowers its loss by at most
      ``STALL_ULPS`` ulps, when its line search fails ``MAX_HALVINGS``
      times (twice if the row is already within tolerance), or after
      ``maxiter`` steps.

    Rows that stop above tolerance get :func:`_newton_polish` when
    ``config.polish`` is set.  The result holds per-row arrays.  Rows do not
    interact, except that the batched matrix products may round a row
    differently in the last bits from a solve of that row alone.
    """
    config = config or OptimConfig()
    x = np.array(init, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != loss.size:
        raise ConfigError(f"initial points must have shape (rows, {loss.size}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ConfigError("coefficients must be finite")
    rows, n = x.shape
    for target in (loss.omega, loss.alpha, loss.beta):
        if np.ndim(target) == 2 and target.shape[0] != rows:
            raise ConfigError(f"noise targets must have {rows} rows, got {target.shape[0]}")

    f, g = loss.value_grad(x)
    n_iter = np.zeros(rows, dtype=np.int64)
    act = np.flatnonzero(np.linalg.norm(g, axis=1) > config.tolerance(f))
    m = config.history
    s_hist = np.zeros((act.size, m, n))
    y_hist = np.zeros((act.size, m, n))
    rho = np.zeros((act.size, m))
    h0 = np.ones(act.size)
    has_pair = np.zeros(act.size, dtype=bool)
    eps = np.finfo(np.float64).eps
    it = 0
    while act.size:
        xa, fa, ga = x[act], f[act], g[act]
        within = np.linalg.norm(ga, axis=1) <= config.tolerance(fa)

        # Two-loop recursion, newest pair first; an empty slot has rho = 0.
        q = ga.copy()
        slots = [(it - 1 - k) % m for k in range(min(it, m))]
        coef = []
        for k in slots:
            a = rho[:, k] * np.einsum("ij,ij->i", s_hist[:, k], q)
            q -= a[:, None] * y_hist[:, k]
            coef.append(a)
        q *= h0[:, None]
        for k, a in zip(reversed(slots), reversed(coef)):
            b = rho[:, k] * np.einsum("ij,ij->i", y_hist[:, k], q)
            q += (a - b)[:, None] * s_hist[:, k]
        d = -q
        gd = np.einsum("ij,ij->i", ga, d)
        # A row whose direction does not descend restarts from steepest descent.
        reset = ~(gd < 0.0)
        if reset.any():
            rho[reset] = 0.0
            h0[reset] = 1.0
            has_pair[reset] = False
            d[reset] = -ga[reset]
            gd[reset] = -np.einsum("ij,ij->i", ga[reset], ga[reset])
        step = np.where(has_pair, 1.0, np.minimum(1.0, 1.0 / np.linalg.norm(d, axis=1)))

        x_new, f_new, g_new = xa.copy(), fa.copy(), ga.copy()
        accepted = np.zeros(act.size, dtype=bool)
        halvings = np.zeros(act.size, dtype=np.int64)
        pend = np.arange(act.size)
        while pend.size:
            trial = xa[pend] + step[pend, None] * d[pend]
            f_try, g_try = loss.take(act[pend]).value_grad(trial)
            ok = f_try <= fa[pend] + ARMIJO * step[pend] * gd[pend]
            done = pend[ok]
            x_new[done], f_new[done], g_new[done] = trial[ok], f_try[ok], g_try[ok]
            accepted[done] = True
            fail = pend[~ok]
            halvings[fail] += 1
            step[fail] *= 0.5
            give_up = (halvings[fail] >= MAX_HALVINGS) | ((halvings[fail] >= 2) & within[fail])
            pend = fail[~give_up]

        s_new, y_new = x_new - xa, g_new - ga
        sy = np.einsum("ij,ij->i", s_new, y_new)
        yy = np.einsum("ij,ij->i", y_new, y_new)
        keep_pair = accepted & (sy > eps * yy)
        slot = it % m
        s_hist[:, slot], y_hist[:, slot] = s_new, y_new
        rho[:, slot] = np.divide(1.0, sy, out=np.zeros_like(sy), where=keep_pair)
        h0 = np.where(keep_pair, np.divide(sy, yy, out=np.ones_like(sy), where=keep_pair), h0)
        has_pair |= keep_pair
        it += 1

        x[act], f[act], g[act] = x_new, f_new, g_new
        n_iter[act] += accepted
        stalled = fa - f_new <= STALL_ULPS * eps * np.abs(fa)
        running = accepted & ~stalled & (n_iter[act] < config.maxiter)
        if not running.all():
            act = act[running]
            s_hist, y_hist, rho = s_hist[running], y_hist[running], rho[running]
            h0, has_pair = h0[running], has_pair[running]

    gnorm = np.linalg.norm(g, axis=1)
    if config.polish:
        for r in np.flatnonzero(gnorm > config.tolerance(f)):
            x[r], f[r], g[r], extra = _newton_polish(loss.take(r), x[r], config)
            gnorm[r] = np.linalg.norm(g[r])
            n_iter[r] += extra
    return OptimResult(
        z=x,
        loss=f,
        grad_norm=gnorm,
        n_iter=n_iter,
        converged=gnorm <= config.tolerance(f),
    )


def _newton_polish(loss: PickleLoss, z, config):
    """Damped Newton steps on the exact Hessian of ``L / gamma``, from ``z``.

    The Hessian (:meth:`PickleLoss.hessian`) is exact, so near a minimizer
    the steps converge quadratically; damping ``mu I`` is
    raised until the damped Hessian has a Cholesky factor and the step is
    accepted, and lowered after each accepted step.  A step is accepted when
    the value drops or, since at the rounding floor the value no longer
    resolves the improvement, when the value stays within rounding and the
    gradient norm drops.  Starts with a fresh single-row evaluation and
    returns the final point, value, gradient and number of accepted steps.
    """
    value, grad = loss.value_grad(z)
    eye = np.eye(z.size)
    mu = 0.0
    steps = 0
    for _ in range(config.polish_maxiter):
        gnorm = np.linalg.norm(grad)
        if gnorm <= config.tolerance(value):
            break
        hess = loss.hessian(z)
        floor = 1e-12 * float(np.trace(np.abs(hess))) / z.size
        accepted = False
        for _ in range(60):
            damped = hess + mu * eye
            try:
                np.linalg.cholesky(damped)  # raises unless positive definite
            except np.linalg.LinAlgError:
                mu = max(10.0 * mu, floor)
                continue
            step = np.linalg.solve(damped, -grad)
            z_new = z + step
            value_new, grad_new = loss.value_grad(z_new)
            better = np.isfinite(value_new) and (
                value_new <= value
                or (
                    value_new <= value + 1e-12 * (1.0 + abs(value))
                    and np.linalg.norm(grad_new) < gnorm
                )
            )
            if better:
                z, value, grad = z_new, value_new, grad_new
                mu /= 3.0
                accepted = True
                steps += 1
                break
            mu = max(10.0 * mu, floor)
        if not accepted:
            break
    return z, value, grad, steps


def map_optimize(
    model,
    params: LossParams,
    init=None,
    config: OptimConfig | None = None,
) -> OptimResult:
    """Compute the MAP coefficients by minimizing the deterministic loss.

    Initialization defaults to zero coefficients (the prior mean).  The
    result is the scaled solve's: ``loss`` is ``L / gamma`` at the solution
    and ``grad_norm`` the 2-norm of its gradient, the quantity the
    convergence test applies to.  A non-converged run is flagged but still
    returns the best iterate.
    """
    return minimize_randomized(model, params, None, None, None, init=init, config=config)


def sweep_gammas(model, gammas, config: OptimConfig | None = None) -> list[tuple[float, OptimResult]]:
    """MAP solves over a residual-variance grid (one independent solve per value)."""
    out = []
    for gamma in gammas:
        params = LossParams(sigma_r_sq=float(gamma))
        out.append((float(gamma), map_optimize(model, params, config=config)))
    return out


def map_result_to_json(result: OptimResult, n_xi: int, gamma: float, path, meta: dict | None = None) -> None:
    """Write a MAP solve: ``xi`` and ``eta`` blocks of ``result.z`` and exit information.

    ``loss`` is written unscaled, ``result.loss * gamma``: the deterministic
    loss ``L`` at the solution.  ``grad_norm`` stays that of the scaled loss.
    """
    doc = {
        "xi": result.z[:n_xi].tolist(),
        "eta": result.z[n_xi:].tolist(),
        "loss": result.loss * gamma,
        "grad_norm": result.grad_norm,
        "n_iter": result.n_iter,
        "converged": result.converged,
        "meta": dict(sorted((meta or {}).items())),
    }
    write_json(path, doc)
