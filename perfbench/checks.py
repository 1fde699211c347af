"""Checks of the pipeline's outputs against independent references.

Every check reads the files a run left behind (CSV and JSON, parsed here
without the program's own readers) and returns ``(name, ok, detail)``.
Statistical checks set their threshold from Monte Carlo standard errors at a
family-wise false-alarm rate of 1e-6 per check when the standard errors are
exact; estimated errors make the real rate somewhat higher.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference
from workloads import gamma_dir

# Family-wise false-alarm rate of each statistical check.
ALPHA = 1e-6
# Relative nugget the program adds when conditioning (variance fraction).
RELATIVE_NUGGET = 1e-8
# Heads lie between the boundary heads 0 and 1, so their variance is at most 1/4.
HEAD_VARIANCE_BOUND = 0.25
# The posterior mean of y may miss the reference by at most this factor of the MAP's miss.
POSTERIOR_MEAN_FACTOR = 1.25
# Scaled-loss gradient norm allowed at the MAP.  The scaled Hessian is at
# least the identity (unit prior precision), so this also bounds the
# distance to the stationary point.
MAP_GRADIENT_TOL = 1e-5
# A stage's measured wall time may exceed the time it records by at most
# this much: interpreter start, imports and exit are outside its clock.
TIMING_SLACK_S = 5.0


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_table(path):
    """``(meta, header, rows)`` of a CSV with ``# key=value`` preamble lines."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def read_field(path):
    _, _, rows = read_table(path)
    out = np.empty(len(rows))
    for row in rows:
        out[int(row[0])] = float(row[3])
    return out


def read_samples(path):
    """Coefficient matrix of the converged rows of an ensemble CSV."""
    _, header, rows = read_table(path)
    cols = [i for i, name in enumerate(header) if name.startswith(("xi_", "eta_"))]
    conv = header.index("converged")
    return np.array([[float(r[i]) for i in cols] for r in rows if r[conv] == "1"])


def read_chains(path):
    """HMC states split by chain id, in file order."""
    _, header, rows = read_table(path)
    cols = [i for i, name in enumerate(header) if name.startswith(("xi_", "eta_"))]
    cid = header.index("chain_id")
    chains = {}
    for r in rows:
        chains.setdefault(r[cid], []).append([float(r[i]) for i in cols])
    return [np.array(chains[k]) for k in sorted(chains, key=int)]


def read_basis(path):
    doc = read_json(path)
    mean = np.array(doc["mean"])
    vecs = np.array(doc["eigenvectors"]).reshape(mean.size, len(doc["eigenvalues"]))
    return mean, vecs * np.sqrt(np.array(doc["eigenvalues"]))


def _check(name, ok, detail):
    return (name, bool(ok), detail)


# -- Darcy workloads ------------------------------------------------------------


def check_head_residual(config, out_dir):
    """The case's head field solves the independent two-point-flux residual."""
    mesh = config["mesh"]
    nx, ny = mesh["nx"], mesh["ny"]
    lx, ly = mesh.get("lx", 1.0), mesh.get("ly", 1.0)
    y = read_field(os.path.join(out_dir, "case", "y_ref.csv"))
    u = read_field(os.path.join(out_dir, "case", "u_ref.csv"))
    r = reference.tpfa_residual(nx, ny, lx, ly, mesh["bc"], y, u)
    dx, dy = lx / nx, ly / ny
    # Size of one flux term: largest transmissivity, face factor and head.
    flux = float(np.max(np.exp(y))) * max(dx / dy, 2 * dy / dx) * max(1.0, float(np.max(np.abs(u))))
    worst = float(np.max(np.abs(r)))
    tol = 1e-8 * flux
    return _check("head field solves the residual", worst <= tol, f"max |R| {worst:.3e} (tol {tol:.1e})")


def _coefficient_rows(out_dir, gamma):
    gdir = gamma_dir(out_dir, gamma)
    map_doc = read_json(os.path.join(gdir, "map.json"))
    z_map = np.concatenate([map_doc["xi"], map_doc["eta"]])
    samples = read_samples(os.path.join(gdir, "rpickle.csv"))
    return z_map, samples


def check_wells(config, out_dir, gamma):
    """MAP and every ensemble member honour the wells of both fields.

    At a well the conditioned covariance is at most the nugget ``nu``, so a
    field built from coefficients ``c`` misses the observation by at most
    ``sqrt(nu) * (1 + |c|)``: the modes contribute at most ``sqrt(nu) |c|``
    and the nugget-shrunk mean less than one more ``sqrt(nu)``.
    """
    case = read_json(os.path.join(out_dir, "case", "case.json"))
    sigma = read_json(os.path.join(out_dir, "prior", "manifest.json"))["kernel"]["sigma"]
    y_mean, y_modes = read_basis(os.path.join(out_dir, "prior", "y_basis.json"))
    u_mean, u_modes = read_basis(os.path.join(out_dir, "prior", "u_basis.json"))
    z_map, samples = _coefficient_rows(out_dir, gamma)
    coeffs = np.vstack([z_map, samples])
    n_xi = y_modes.shape[1]
    worst_ratio, worst_err = 0.0, 0.0
    for field_mean, modes, block, obs, nugget in (
        (y_mean, y_modes, coeffs[:, :n_xi], case["y_obs"], RELATIVE_NUGGET * sigma**2),
        (u_mean, u_modes, coeffs[:, n_xi:], case["u_obs"], RELATIVE_NUGGET * HEAD_VARIANCE_BOUND),
    ):
        cells = np.array(obs["cells"])
        fields = field_mean[cells] + block @ modes[cells].T
        err = np.max(np.abs(fields - np.array(obs["values"])), axis=1)
        tol = math.sqrt(nugget) * (1.0 + np.linalg.norm(block, axis=1))
        worst_ratio = max(worst_ratio, float(np.max(err / tol)))
        worst_err = max(worst_err, float(np.max(err)))
    return _check(
        "MAP and members honour the wells",
        worst_ratio <= 1.0,
        f"{coeffs.shape[0]} coefficient rows, worst miss {worst_err:.2e} = {worst_ratio:.3f} of its nugget bound",
    )


def scaled_loss(config, out_dir, gamma):
    """``z -> ||R||^2 / (2 gamma) + |z|^2 / 2`` on the independent residual."""
    mesh = config["mesh"]
    y_mean, y_modes = read_basis(os.path.join(out_dir, "prior", "y_basis.json"))
    u_mean, u_modes = read_basis(os.path.join(out_dir, "prior", "u_basis.json"))
    n_xi = y_modes.shape[1]

    def loss(z):
        y = y_mean + y_modes @ z[:n_xi]
        u = u_mean + u_modes @ z[n_xi:]
        r = reference.tpfa_residual(
            mesh["nx"], mesh["ny"], mesh.get("lx", 1.0), mesh.get("ly", 1.0), mesh["bc"], y, u
        )
        return 0.5 * float(r @ r) / gamma + 0.5 * float(z @ z)

    return loss


def check_map_stationary(config, out_dir, gamma, h=1e-6):
    """Central differences of the independent scaled loss vanish at the MAP."""
    z_map, _ = _coefficient_rows(out_dir, gamma)
    loss = scaled_loss(config, out_dir, gamma)
    grad = np.empty_like(z_map)
    for i in range(z_map.size):
        e = np.zeros_like(z_map)
        e[i] = h
        grad[i] = (loss(z_map + e) - loss(z_map - e)) / (2 * h)
    norm = float(np.linalg.norm(grad))
    return _check(
        "MAP is stationary for the independent loss",
        norm <= MAP_GRADIENT_TOL,
        f"|grad| {norm:.2e} over {z_map.size} coefficients (tol {MAP_GRADIENT_TOL:.0e})",
    )


def check_posterior_mean_error(out_dir, gamma):
    """The ensemble's mean y field is about as close to the truth as the MAP's.

    Also recomputes the relative error ``diagnose`` reports.
    """
    y_ref = read_field(os.path.join(out_dir, "case", "y_ref.csv"))
    y_mean, y_modes = read_basis(os.path.join(out_dir, "prior", "y_basis.json"))
    z_map, samples = _coefficient_rows(out_dir, gamma)
    n_xi = y_modes.shape[1]
    ref_norm = np.linalg.norm(y_ref)
    rel_map = float(np.linalg.norm(y_mean + y_modes @ z_map[:n_xi] - y_ref) / ref_norm)
    field = y_mean + samples[:, :n_xi].mean(axis=0) @ y_modes.T
    rel_post = float(np.linalg.norm(field - y_ref) / ref_norm)
    reported = read_json(os.path.join(gamma_dir(out_dir, gamma), "report.json"))["rel_l2"]
    return [
        _check(
            "posterior mean error near the MAP's",
            rel_post <= POSTERIOR_MEAN_FACTOR * rel_map,
            f"rel l2 {rel_post:.4f} vs MAP {rel_map:.4f} (factor {POSTERIOR_MEAN_FACTOR})",
        ),
        _check(
            "diagnose reports the recomputed error",
            abs(reported - rel_post) <= 1e-9 * max(rel_post, 1e-12),
            f"report.json {reported:.12g} vs {rel_post:.12g}",
        ),
    ]


def check_acceptance(out_dir, gamma, minimum=None, exact=None):
    rate = read_json(os.path.join(gamma_dir(out_dir, gamma), "rpickle.json"))["acceptance_rate"]
    if exact is not None:
        return _check("Metropolis acceptance exact", rate == exact, f"{rate!r} (expected {exact!r})")
    return _check("Metropolis acceptance high", rate is not None and rate >= minimum, f"{rate} (min {minimum})")


def check_samplers_agree(out_dir, gamma):
    """rPICKLE and HMC agree on every coordinate's mean and std.

    Each difference is compared with the combined batch-means standard
    error of the two estimates; the Metropolized ensemble repeats rejected
    states, so it is treated as one correlated chain.
    """
    gdir = gamma_dir(out_dir, gamma)
    ens = read_samples(os.path.join(gdir, "rpickle.csv"))
    chains = read_chains(os.path.join(gdir, "hmc.csv"))
    pooled = np.vstack(chains)
    dim = ens.shape[1]
    z = reference.family_z(2 * dim, ALPHA)
    mean_gap = np.abs(ens.mean(axis=0) - pooled.mean(axis=0)) / np.hypot(
        reference.chains_mean_se([ens]), reference.chains_mean_se(chains)
    )
    std_gap = np.abs(ens.std(axis=0, ddof=1) - pooled.std(axis=0, ddof=1)) / np.hypot(
        reference.chains_std_se([ens]), reference.chains_std_se(chains)
    )
    worst = max(float(np.max(mean_gap)), float(np.max(std_gap)))
    return _check(
        "rPICKLE and HMC agree",
        worst <= z,
        f"worst gap {worst:.2f} SE over {dim} means and stds (tol {z:.2f})",
    )


# -- linear-oracle ------------------------------------------------------------------


def linear_truth(config):
    dims = config["linear_case"]
    g, c = reference.linear_case_matrices(config["base_seed"], dims["n_res"], dims["n_xi"], dims["n_eta"])
    return reference.linear_posterior(g, c, config["sigma_r_sq"][0])


def check_linear(config, out_dir):
    gamma = config["sigma_r_sq"][0]
    gdir = gamma_dir(out_dir, gamma)
    mean, cov = linear_truth(config)
    dim = mean.size
    out = []

    map_doc = read_json(os.path.join(gdir, "map.json"))
    err = float(np.max(np.abs(np.concatenate([map_doc["xi"], map_doc["eta"]]) - mean)))
    out.append(_check("MAP equals the closed-form mean", err <= 1e-6, f"max error {err:.2e} (tol 1e-06)"))

    samples = read_samples(os.path.join(gdir, "rpickle.csv"))
    n = samples.shape[0]
    z = reference.family_z(dim, ALPHA)
    gap = float(np.max(np.abs(samples.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / n)))
    out.append(_check("ensemble mean matches closed form", gap <= z, f"worst {gap:.2f} SE over {n} samples (tol {z:.2f})"))
    # E|S - C|_F^2 = (|C|_F^2 + tr(C)^2) / (n - 1) for Gaussian samples.
    rms = math.sqrt((np.sum(cov**2) + np.trace(cov) ** 2) / (n - 1))
    dev = float(np.linalg.norm(np.cov(samples, rowvar=False) - cov))
    out.append(_check("ensemble covariance matches closed form", dev <= 4 * rms, f"|S - C|_F {dev:.4f} = {dev / rms:.2f} x its rms (tol 4)"))

    out.append(check_acceptance(out_dir, gamma, exact=1.0))

    chains = read_chains(os.path.join(gdir, "hmc.csv"))
    se = reference.chains_mean_se(chains)
    gap = float(np.max(np.abs(np.vstack(chains).mean(axis=0) - mean) / se))
    out.append(_check("HMC means match closed form", gap <= z, f"worst {gap:.2f} batch-means SE (tol {z:.2f})"))
    return out


# -- every workload ---------------------------------------------------------------


def check_timing(stage_walls, out_dir):
    """Each stage's measured wall time brackets the time it recorded itself."""
    recorded = read_json(os.path.join(out_dir, "timing.json"))
    worst = 0.0
    ok = True
    for stage, wall in stage_walls.items():
        gap = wall - recorded[stage]
        ok = ok and 0.0 <= gap <= TIMING_SLACK_S
        worst = max(worst, abs(gap))
    return _check(
        "stage times agree with timing.json",
        ok,
        f"{len(stage_walls)} stages, largest gap {worst:.2f} s (measured minus recorded in [0, {TIMING_SLACK_S:g}] s)",
    )


def run_checks(workload, config, out_dir):
    """Every output check for one workload's final artifacts."""
    gamma = config["sigma_r_sq"][0]
    if not workload.darcy:
        return check_linear(config, out_dir)
    out = [
        check_head_residual(config, out_dir),
        check_wells(config, out_dir, gamma),
        check_map_stationary(config, out_dir, gamma),
        *check_posterior_mean_error(out_dir, gamma),
    ]
    if workload.sampler["metropolize"]:
        out.append(check_acceptance(out_dir, gamma, minimum=0.90))
        out.append(check_samplers_agree(out_dir, gamma))
    return out
