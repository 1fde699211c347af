"""Independently coded reference implementations used as test oracles.

Everything here is written from the defining formulas with plain loops and
dense linear algebra, deliberately sharing no code with the package, so
agreement between the two is evidence of correctness rather than tautology.
"""

from __future__ import annotations

import numpy as np


# -- dense two-point flux assembly -----------------------------------------


def dense_residual(mesh, y, u, dirichlet_by_face, neumann_by_face):
    """Loop-based cell balance; boundary values keyed by boundary-face index."""
    t = np.exp(np.asarray(y, dtype=float))
    u = np.asarray(u, dtype=float)
    r = np.zeros(mesh.n_cells)
    for (i, j), tau in zip(mesh.face_cells, mesh.face_trans):
        k = 2.0 * t[i] * t[j] / (t[i] + t[j])
        r[i] += tau * k * (u[i] - u[j])
        r[j] -= tau * k * (u[i] - u[j])
    for b in range(mesh.boundary_cells.shape[0]):
        c = int(mesh.boundary_cells[b])
        area = float(mesh.boundary_areas[b])
        dist = float(mesh.boundary_distances[b])
        if mesh.boundary_tags[b] == "dirichlet":
            r[c] += (area / dist) * t[c] * (u[c] - dirichlet_by_face[b])
        else:
            r[c] += neumann_by_face[b] * area
    return r


def dense_forward_system(mesh, y, dirichlet_by_face, neumann_by_face):
    """Dense (A, b) with A u = b equivalent to the zero-residual condition."""
    t = np.exp(np.asarray(y, dtype=float))
    n = mesh.n_cells
    a = np.zeros((n, n))
    b = np.zeros(n)
    for (i, j), tau in zip(mesh.face_cells, mesh.face_trans):
        k = 2.0 * t[i] * t[j] / (t[i] + t[j])
        a[i, i] += tau * k
        a[i, j] -= tau * k
        a[j, j] += tau * k
        a[j, i] -= tau * k
    for f in range(mesh.boundary_cells.shape[0]):
        c = int(mesh.boundary_cells[f])
        area = float(mesh.boundary_areas[f])
        dist = float(mesh.boundary_distances[f])
        if mesh.boundary_tags[f] == "dirichlet":
            a[c, c] += (area / dist) * t[c]
            b[c] += (area / dist) * t[c] * dirichlet_by_face[f]
        else:
            b[c] -= neumann_by_face[f] * area
    return a, b


def bc_by_face(mesh, bc):
    """Expand per-tag value arrays to boundary-face-indexed dicts."""
    dirichlet = {int(f): v for f, v in zip(mesh.dirichlet_index, bc.dirichlet_values)}
    neumann = {int(f): v for f, v in zip(mesh.neumann_index, bc.neumann_fluxes)}
    return dirichlet, neumann


# -- finite differences ------------------------------------------------------


def fd_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for a in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[a] += eps
        xm[a] -= eps
        g[a] = (f(xp) - f(xm)) / (2 * eps)
    return g


def fd_jacobian(f, x, eps=1e-6):
    """Central-difference Jacobian of a vector function, one column per input."""
    x = np.asarray(x, dtype=float)
    cols = []
    for a in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[a] += eps
        xm[a] -= eps
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * eps))
    return np.column_stack(cols)


def fd_hessian(f, x, eps=1e-4):
    """Central-difference Hessian of a scalar function (O(eps^2), symmetrized)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
            xpp[a] += eps
            xpp[b] += eps
            xpm[a] += eps
            xpm[b] -= eps
            xmp[a] -= eps
            xmp[b] += eps
            xmm[a] -= eps
            xmm[b] -= eps
            h[a, b] = h[b, a] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * eps**2)
    return h


# -- Gaussian linear-model posterior ----------------------------------------


def linear_posterior(a, b, c, sigma_r_sq, sigma_xi_sq=1.0, sigma_eta_sq=1.0):
    """Closed-form Gaussian posterior for residual A xi + B eta - c.

    Returns (mean, covariance) over the stacked coefficients.  ``b`` may have
    zero columns.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    g = np.hstack([a, b])
    prior_prec = np.diag(
        np.concatenate([np.full(a.shape[1], 1.0 / sigma_xi_sq), np.full(b.shape[1], 1.0 / sigma_eta_sq)])
    )
    prec = g.T @ g / sigma_r_sq + prior_prec
    cov = np.linalg.inv(prec)
    mean = cov @ (g.T @ np.asarray(c, dtype=float) / sigma_r_sq)
    return mean, cov


# -- coefficient-space losses -------------------------------------------------


def expansion_eval(mean, eigenvalues, eigenvectors, coeffs):
    """Term-by-term expansion evaluation (no matmul shortcut)."""
    out = np.asarray(mean, dtype=float).copy()
    for i, c in enumerate(np.asarray(coeffs, dtype=float)):
        out = out + np.sqrt(eigenvalues[i]) * eigenvectors[:, i] * c
    return out


def reference_loss(mesh, bc, y_basis, u_basis, sigma_r_sq, xi, eta,
                   sigma_xi_sq=1.0, sigma_eta_sq=1.0):
    """Deterministic coefficient loss from its defining formula."""
    y = expansion_eval(y_basis.mean, y_basis.eigenvalues, y_basis.eigenvectors, xi)
    u = expansion_eval(u_basis.mean, u_basis.eigenvalues, u_basis.eigenvectors, eta)
    dirichlet, neumann = bc_by_face(mesh, bc)
    r = dense_residual(mesh, y, u, dirichlet, neumann)
    out = 0.5 * float(np.dot(r, r))
    out += 0.5 * sigma_r_sq * float(np.dot(xi, xi)) / sigma_xi_sq
    out += 0.5 * sigma_r_sq * float(np.dot(eta, eta)) / sigma_eta_sq
    return out


def reference_randomized_loss(mesh, bc, y_basis, u_basis, sigma_r_sq, xi, eta,
                              omega, alpha, beta, sigma_xi_sq=1.0, sigma_eta_sq=1.0):
    """Noise-shifted loss from its defining formula."""
    y = expansion_eval(y_basis.mean, y_basis.eigenvalues, y_basis.eigenvectors, xi)
    u = expansion_eval(u_basis.mean, u_basis.eigenvalues, u_basis.eigenvectors, eta)
    dirichlet, neumann = bc_by_face(mesh, bc)
    r = dense_residual(mesh, y, u, dirichlet, neumann) - np.asarray(omega, dtype=float)
    out = 0.5 * float(np.dot(r, r)) / sigma_r_sq
    dxi = np.asarray(xi, dtype=float) - np.asarray(alpha, dtype=float)
    deta = np.asarray(eta, dtype=float) - np.asarray(beta, dtype=float)
    out += 0.5 * float(np.dot(dxi, dxi)) / sigma_xi_sq
    out += 0.5 * float(np.dot(deta, deta)) / sigma_eta_sq
    return out


# -- HMC, one chain at a time --------------------------------------------------


def reference_hmc_chain(log_post, dim, rng, n_samples, burn_in, leapfrog_steps,
                        step_size, target_accept):
    """One fixed-length leapfrog HMC chain, run on its own.

    ``log_post(z)`` returns the log posterior and its gradient at one vector.
    Each iteration draws momenta, a step jitter in [0.8, 1.2) and one accept
    uniform from ``rng``; during burn-in the step adapts by dual averaging
    (shrinkage 0.05, offset 10, decay 0.75) and then freezes at its average.
    A trajectory that goes non-finite stops there and is rejected.  Returns
    the kept states, accept flags and log posteriors, the final step and the
    adaptation trace.
    """
    z = rng.standard_normal(dim)
    lp, grad = log_post(z)
    mu = np.log(10.0 * step_size)
    h_bar, log_step_avg = 0.0, np.log(step_size)
    step, trace = step_size, [step_size]
    states, flags, lps = [], [], []
    for t in range(burn_in + n_samples):
        p0 = rng.standard_normal(dim)
        eps = step * rng.uniform(0.8, 1.2)
        with np.errstate(over="ignore", invalid="ignore"):
            x, p = z, p0 + 0.5 * eps * grad
            finite = True
            for k in range(leapfrog_steps):
                x = x + eps * p
                if not np.all(np.isfinite(x)):
                    finite = False
                    break
                lp_x, g_x = log_post(x)
                p = p + (eps if k < leapfrog_steps - 1 else 0.5 * eps) * g_x
            finite = finite and np.all(np.isfinite(p))
            log_alpha = (lp_x - lp) + 0.5 * (p0 @ p0 - p @ p) if finite else -np.inf
        alpha = float(np.exp(min(0.0, log_alpha))) if np.isfinite(log_alpha) else 0.0
        accept = rng.uniform() < alpha
        if accept:
            z, lp, grad = x, lp_x, g_x
        if t < burn_in:
            m = t + 1
            h_bar += (target_accept - alpha - h_bar) / (m + 10.0)
            log_step = mu - np.sqrt(m) / 0.05 * h_bar
            eta = m ** (-0.75)
            log_step_avg = eta * log_step + (1.0 - eta) * log_step_avg
            step = float(np.exp(log_step))
            trace.append(step)
            if t == burn_in - 1:
                step = float(np.exp(log_step_avg))
        if t >= burn_in:
            states.append(z)
            flags.append(accept)
            lps.append(lp)
    return np.array(states), np.array(flags), np.array(lps), step, np.array(trace)


# -- misc --------------------------------------------------------------------


def batch_means_se(x, n_batches=25):
    """Batch-means standard error of the mean for a correlated scalar series."""
    x = np.asarray(x, dtype=float)
    m = x.size // n_batches
    means = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(n_batches)
