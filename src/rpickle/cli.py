"""Configuration-driven pipeline: case generation through posterior reports.

One JSON document describes a full experiment (mesh, prior, observations,
residual-variance grid, sampler sizes, base seed); subcommands run the
pipeline stage by stage, each reading the previous stage's artifacts from
the output directory:

    generate        synthetic reference fields and observation wells
    build-prior     conditioned expansions for both fields
    map             deterministic MAP solve per sigma_r_sq value
    sample-rpickle  randomized-loss posterior ensemble per sigma_r_sq value
    sample-hmc      HMC chains per sigma_r_sq value
    diagnose        per-gamma report files plus a summary table
    oracle-check    built-in linear-Gaussian consistency suite

All randomness flows from the single ``base_seed`` through fixed stream
indices (reference field 0, wells 1, state prior 2, residual noise 3,
Metropolis 4, HMC 5), so rerunning any stage with the same config is
byte-identical.  Ensembles and chains run in index order in one thread;
``--threads`` is accepted on every subcommand for compatibility and has no
effect.  Every output file carries the hash of the scientific part of the
config (everything except the output location) together with the seed.
Stages compute fully before writing, so a failed stage leaves no partial
artifacts; ``timing.json`` collects the wall time of each stage that
succeeds and is the one file excluded from byte-identity.

Exit codes: 0 success, 1 configuration or validation error, 2 numerical
failure (including a failed oracle check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    DiagnosticsReport,
    LinearModel,
    convergence_ratios,
    coverage,
    error_norms,
    laplace_posterior,
    linear_oracle,
    lpp,
    posterior_moments,
    report_to_csv,
    report_to_json,
)
from .errors import ConfigError, NumericalError
from .field_gen import build_synthetic_case, load_case, save_case
from .gp_prior import (
    DEFAULT_ENERGY,
    KernelParams,
    basis_from_json,
    basis_to_json,
    build_basis,
    condition_on_cells,
    fit_hyperparameters,
    matern52,
    mc_state_prior,
)
from .hmc_sampler import chains_to_csv, run_hmc, write_hmc_manifest
from .mesh_fv import boundary_values, build_structured_mesh
from .pickle_map import (
    LossParams,
    ResidualModel,
    map_optimize,
    map_result_to_json,
    sweep_gammas,
)
from .rpickle_sampler import (
    ensemble_from_csv,
    ensemble_to_csv,
    run_ensemble,
    write_manifest,
)
from .seeding import STREAM_REFERENCE, float_token, read_json, spawn_rng, write_json, write_table

__all__ = [
    "RunConfig",
    "load_run_config",
    "linear_model_from_config",
    "cmd_generate",
    "cmd_build_prior",
    "cmd_map",
    "cmd_sample_rpickle",
    "cmd_sample_hmc",
    "cmd_diagnose",
    "cmd_oracle_check",
    "build_parser",
    "main",
]

BC_SIDES = ("west", "east", "south", "north")
SAMPLER_KINDS = ("rpickle", "hmc", "both")

SUMMARY_COLUMNS = ("gamma", "n_usable", "lpp", "coverage", "rel_l2", "l_inf", "condition_number")

# Every field of the config document, as ``(kind, default, bound)``; a dict
# entry is a section.  An ``int`` field is a count of at least ``bound``; a
# ``float`` field is a finite number, and a positive one when ``bound`` is
# 0.0.  Only a field whose default is None may be null.  Fields of kind None
# are copied, defaults filled, for the cross-field rules in
# :func:`parse_run_config` to check.
CONFIG_FIELDS = {
    "mesh": {
        "nx": (int, 8, 1),
        "ny": (int, 8, 1),
        "lx": (float, 1.0, 0.0),
        "ly": (float, 1.0, 0.0),
        "bc": (None, {}, None),
    },
    "kernel": {
        "fit": (None, False, None),
        "sigma": (float, None, 0.0),
        "length_scale": (float, None, 0.0),
    },
    "truncation": {
        "energy": (float, None, None),
        "n_xi": (int, None, 1),
        "n_eta": (int, None, 1),
    },
    "observations": {"n_y_obs": (int, 16, 1), "n_u_obs": (int, 16, 1)},
    "smoothing_iterations": (int, 0, 0),
    "mc_draws": (int, 4000, 2),
    "sigma_r_sq": (None, [1e-2], None),
    "sampler": {
        "kind": (None, "rpickle", None),
        "n_ens": (int, 100, 1),
        "hmc_samples": (int, 1000, 1),
        "hmc_chains": (int, 3, 1),
        "hmc_burn_in": (int, 2000, 0),
        "metropolize": (None, None, None),
    },
    "base_seed": (int, 0, 0),
    "output_dir": (None, "out", None),
    "linear_case": {"n_res": (int, 30, 1), "n_xi": (int, 5, 1), "n_eta": (int, 4, 0)},
}


@dataclass(frozen=True)
class RunConfig:
    """One validated config document, every default filled; it drives every stage.

    The document is the config: ``config["sampler"]["n_ens"]`` reads a
    field, and its sections and keys are those of :data:`CONFIG_FIELDS`.
    Exactly one truncation rule is set: ``energy`` (fraction of prior
    variance to keep, both fields) or the explicit pair ``n_xi`` /
    ``n_eta``.  ``kernel.sigma`` / ``kernel.length_scale`` may be None only
    when ``kernel.fit`` is true, in which case ``generate`` is unavailable
    and ``build-prior`` fits them from the case's parameter observations.
    ``linear_case``, None unless given, replaces the PDE model with a seeded
    random affine residual for the map/sample stages.
    """

    doc: dict

    def __getitem__(self, key: str):
        return self.doc[key]

    @property
    def gammas(self) -> tuple:
        return tuple(self.doc["sigma_r_sq"])

    @property
    def base_seed(self) -> int:
        return self.doc["base_seed"]

    @property
    def output_dir(self) -> str:
        return self.doc["output_dir"]

    def science_dict(self) -> dict:
        """The document without ``output_dir``.

        This is what gets hashed and echoed into manifests: moving a run
        to a different directory must not change a single output byte.
        """
        return {key: value for key, value in self.doc.items() if key != "output_dir"}

    @property
    def config_hash(self) -> str:
        text = json.dumps(self.science_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _require_keys(section: dict, name: str, allowed) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        listed = ", ".join(f"{name}.{key}" for key in unknown)
        raise ConfigError(f"unknown config fields: {listed}")


def _int_field(value, name: str, minimum: int) -> int:
    """An integer field; an integral float such as ``8.0`` counts, a bool does not."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}")
    return value


def _float_field(value, name: str, positive: bool = False) -> float:
    """A finite number field; an integer such as ``1`` counts, a bool, a string, NaN or inf does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return float(value)


def _field(value, name: str, kind, default, bound):
    """One field of :data:`CONFIG_FIELDS`, checked by its kind."""
    if kind is None or (value is None and default is None):
        return value
    if kind is int:
        return _int_field(value, name, bound)
    return _float_field(value, name, positive=bound is not None)


def parse_run_config(raw: dict) -> RunConfig:
    """Validate a raw JSON document and fill its defaults; see :class:`RunConfig`.

    The returned document is the config: it holds every section and field
    of :data:`CONFIG_FIELDS`, and nothing else.
    """
    _require_keys(raw, "config", CONFIG_FIELDS)
    doc = {}
    for key, spec in CONFIG_FIELDS.items():
        if not isinstance(spec, dict):
            doc[key] = _field(raw.get(key, spec[1]), key, *spec)
            continue
        if key == "linear_case" and raw.get(key) is None:
            doc[key] = None  # the one section that may be absent
            continue
        section = raw.get(key, {})
        _require_keys(section, key, spec)
        doc[key] = {
            field: _field(section.get(field, default), f"{key}.{field}", kind, default, bound)
            for field, (kind, default, bound) in spec.items()
        }

    bc = doc["mesh"]["bc"]
    _require_keys(bc, "mesh.bc", BC_SIDES)
    if doc["linear_case"] is None:
        # The forward problem needs a value on every side; name what is absent.
        missing = [f"mesh.bc.{side}" for side in BC_SIDES if side not in bc]
        if missing:
            raise ConfigError("missing required config fields: " + ", ".join(missing))
    doc["mesh"]["bc"] = {side: _float_field(bc[side], f"mesh.bc.{side}") for side in sorted(bc)}

    kernel = doc["kernel"]
    if not isinstance(kernel["fit"], bool):
        raise ConfigError(f"kernel.fit must be true or false, got {kernel['fit']!r}")
    if doc["linear_case"] is None and not kernel["fit"]:
        missing = [f"kernel.{key}" for key in ("sigma", "length_scale") if kernel[key] is None]
        if missing:
            raise ConfigError(
                "missing required config fields: "
                + ", ".join(missing)
                + " (set kernel.fit to estimate them from observations)"
            )

    truncation = doc["truncation"]
    if truncation["n_xi"] is not None or truncation["n_eta"] is not None:
        if truncation["energy"] is not None:
            raise ConfigError("truncation takes either energy or n_xi/n_eta, not both")
        if truncation["n_xi"] is None or truncation["n_eta"] is None:
            raise ConfigError("explicit truncation needs both truncation.n_xi and truncation.n_eta")
    else:
        if truncation["energy"] is None:
            truncation["energy"] = DEFAULT_ENERGY
        if not 0.0 < truncation["energy"] <= 1.0:
            raise ConfigError("truncation.energy must lie in (0, 1]")

    gammas = doc["sigma_r_sq"]
    if not isinstance(gammas, list):
        gammas = [gammas]
    gammas = [_float_field(g, "sigma_r_sq", positive=True) for g in gammas]
    if not gammas:
        raise ConfigError("sigma_r_sq must list at least one value")
    if len(set(gammas)) < len(gammas):  # each value names its own gamma_<value>/ directory
        raise ConfigError(f"sigma_r_sq must be distinct values, got {gammas}")
    doc["sigma_r_sq"] = gammas

    sampler = doc["sampler"]
    if sampler["kind"] not in SAMPLER_KINDS:
        raise ConfigError(f"sampler.kind must be one of {SAMPLER_KINDS}, got {sampler['kind']!r}")
    if sampler["metropolize"] is not None and not isinstance(sampler["metropolize"], bool):
        raise ConfigError(
            f"sampler.metropolize must be true, false or null, got {sampler['metropolize']!r}"
        )

    if not isinstance(doc["output_dir"], str) or not doc["output_dir"]:
        raise ConfigError(f"output_dir must be a nonempty string, got {doc['output_dir']!r}")
    return RunConfig(doc)


def load_run_config(path, seed: int | None = None, out: str | None = None) -> RunConfig:
    """Read and validate a config file, applying command-line overrides.

    The seed override lands before hashing, so a rerun with ``--seed``
    stamps a different hash than the file alone would.  A negative seed
    is reported as the ``--seed`` flag's error, not the config field's.
    """
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    raw = read_json(path, "config file")
    if seed is not None:
        raw["base_seed"] = int(seed)
    if out is not None:
        raw["output_dir"] = str(out)
    return parse_run_config(raw)


def _csv_stamp(config: RunConfig) -> dict:
    return {"config_hash": config.config_hash, "base_seed": config.base_seed}


def _json_stamp(config: RunConfig, gamma: float | None = None) -> dict:
    stamp = {**_csv_stamp(config), "run_config": config.science_dict()}
    if gamma is not None:
        stamp["gamma"] = float(gamma)
    return stamp


def _gamma_dir(config: RunConfig, gamma: float) -> str:
    return os.path.join(config.output_dir, f"gamma_{float_token(gamma)}")


def _require(path: str, stage: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"missing artifact {path}; run '{stage}' first")
    return path


def _record_timing(output_dir: str, stage: str, elapsed: float) -> None:
    # Wall times are the one artifact reruns may not reproduce, so they get
    # their own file instead of a manifest field.
    path = os.path.join(output_dir, "timing.json")
    doc = read_json(path, "timing file") if os.path.exists(path) else {}
    doc[stage] = elapsed
    write_json(path, doc)


def linear_model_from_config(config: RunConfig) -> LinearModel:
    """The seeded affine test model described by ``config["linear_case"]``."""
    dims = config["linear_case"]
    if dims is None:
        raise ConfigError("config has no linear_case section")
    rng = spawn_rng(config.base_seed, STREAM_REFERENCE)
    a = rng.standard_normal((dims["n_res"], dims["n_xi"]))
    b = rng.standard_normal((dims["n_res"], dims["n_eta"])) if dims["n_eta"] > 0 else None
    c = rng.standard_normal(dims["n_res"])
    return LinearModel(a, b, c)


def _mesh_and_bc(config: RunConfig):
    """The configured mesh and its boundary conditions."""
    m = config["mesh"]
    mesh = build_structured_mesh(m["nx"], m["ny"], m["lx"], m["ly"])
    return mesh, boundary_values(mesh, m["bc"])


def _flow_model(config: RunConfig):
    """Rebuild the PDE residual model from persisted case and prior files."""
    mesh, bc = _mesh_and_bc(config)
    case_dir = _require(os.path.join(config.output_dir, "case"), "generate")
    _require(os.path.join(case_dir, "case.json"), "generate")
    case = load_case(case_dir, mesh)
    prior_dir = os.path.join(config.output_dir, "prior")
    bases = []
    for name in ("y_basis.json", "u_basis.json"):
        path = _require(os.path.join(prior_dir, name), "build-prior")
        basis = basis_from_json(path)
        if basis.n_cells != mesh.n_cells:
            raise ConfigError(f"prior file {path} has {basis.n_cells} cells, the mesh has {mesh.n_cells}")
        bases.append(basis)
    y_basis, u_basis = bases
    return ResidualModel(mesh, y_basis, u_basis, bc), case, y_basis


def _sampling_model(config: RunConfig):
    if config["linear_case"] is not None:
        return linear_model_from_config(config)
    return _flow_model(config)[0]


def _reject_linear(config: RunConfig, stage: str) -> None:
    if config["linear_case"] is not None:
        raise ConfigError(
            f"linear_case has no synthetic field or prior; '{stage}' applies only to PDE runs"
        )


def cmd_generate(config: RunConfig) -> None:
    """Sample the reference experiment and persist it under ``case/``."""
    _reject_linear(config, "generate")
    k = config["kernel"]
    if k["sigma"] is None or k["length_scale"] is None:
        raise ConfigError(
            "generate needs explicit kernel.sigma and kernel.length_scale; "
            "kernel.fit only affects build-prior"
        )
    mesh, bc = _mesh_and_bc(config)
    case = build_synthetic_case(
        mesh,
        KernelParams(sigma=k["sigma"], length_scale=k["length_scale"]),
        bc,
        n_y_obs=config["observations"]["n_y_obs"],
        n_u_obs=config["observations"]["n_u_obs"],
        seed=config.base_seed,
        smoothing_iterations=config["smoothing_iterations"],
    )

    case_dir = os.path.join(config.output_dir, "case")
    os.makedirs(case_dir, exist_ok=True)
    save_case(case, mesh, case_dir, meta=_csv_stamp(config))
    manifest = {"stage": "generate", "n_cells": mesh.n_cells, "provenance": case.provenance}
    manifest.update(_json_stamp(config))
    write_json(os.path.join(case_dir, "manifest.json"), manifest)
    print(f"generate: {mesh.n_cells} cells, {len(case.y_obs)}+{len(case.u_obs)} wells -> {case_dir}")


def _check_wells(case, mesh, path) -> None:
    """Each well's cell lies in ``mesh`` and its location is that cell's center, to 1e-12.

    The kernel fit reads the locations and the conditioning the cells.
    """
    for name, obs in (("y_obs", case.y_obs), ("u_obs", case.u_obs)):
        for k, (cell, location) in enumerate(zip(obs.cells, obs.locations)):
            where = f"case file {path}: {name} well {k}"
            if cell >= mesh.n_cells:
                raise ConfigError(f"{where} is in cell {cell}, outside the {mesh.n_cells}-cell mesh")
            if np.max(np.abs(location - mesh.cell_centers[cell])) > 1e-12:
                raise ConfigError(f"{where} at {location.tolist()} is not the center of its cell {cell}")


def cmd_build_prior(config: RunConfig) -> None:
    """Condition both expansions on the case's wells; persist under ``prior/``."""
    _reject_linear(config, "build-prior")
    mesh, bc = _mesh_and_bc(config)
    case_dir = _require(os.path.join(config.output_dir, "case"), "generate")
    case_path = _require(os.path.join(case_dir, "case.json"), "generate")
    case = load_case(case_dir, mesh)
    _check_wells(case, mesh, case_path)

    k, t = config["kernel"], config["truncation"]
    if k["fit"]:
        kernel = fit_hyperparameters(case.y_obs)
    else:
        kernel = KernelParams(sigma=k["sigma"], length_scale=k["length_scale"])
    cov_y = matern52(mesh.cell_centers, mesh.cell_centers, kernel)
    gp_y = condition_on_cells(np.zeros(mesh.n_cells), cov_y, case.y_obs)
    y_basis = build_basis(gp_y, energy=t["energy"], n_terms=t["n_xi"])
    u_mean, u_cov = mc_state_prior(mesh, y_basis, bc, n_mc=config["mc_draws"], seed=config.base_seed)
    gp_u = condition_on_cells(u_mean, u_cov, case.u_obs)
    u_basis = build_basis(gp_u, energy=t["energy"], n_terms=t["n_eta"])

    prior_dir = os.path.join(config.output_dir, "prior")
    os.makedirs(prior_dir, exist_ok=True)
    basis_to_json(y_basis, os.path.join(prior_dir, "y_basis.json"), meta=_csv_stamp(config))
    basis_to_json(u_basis, os.path.join(prior_dir, "u_basis.json"), meta=_csv_stamp(config))
    manifest = {
        "stage": "build-prior",
        "kernel": {
            "sigma": kernel.sigma,
            "length_scale": kernel.length_scale,
            "fitted": k["fit"],
        },
        "n_xi": y_basis.n_terms,
        "n_eta": u_basis.n_terms,
        "retained_energy_y": y_basis.retained_energy,
        "retained_energy_u": u_basis.retained_energy,
        "mc_draws": config["mc_draws"],
    }
    manifest.update(_json_stamp(config))
    write_json(os.path.join(prior_dir, "manifest.json"), manifest)
    print(
        f"build-prior: n_xi={y_basis.n_terms} n_eta={u_basis.n_terms} "
        f"kernel=(sigma={kernel.sigma:.4g}, l={kernel.length_scale:.4g}) -> {prior_dir}"
    )


def cmd_map(config: RunConfig) -> None:
    """One MAP solve per sigma_r_sq value, written to ``gamma_*/map.json``."""
    model = _sampling_model(config)
    results = sweep_gammas(model, config.gammas)
    for gamma, result in results:
        gamma_dir = _gamma_dir(config, gamma)
        os.makedirs(gamma_dir, exist_ok=True)
        path = os.path.join(gamma_dir, "map.json")
        map_result_to_json(result, model.n_xi, gamma, path, meta=_json_stamp(config, gamma=gamma))
        print(
            f"map: gamma={float_token(gamma)} loss={result.loss * gamma:.6e} "
            f"converged={result.converged} -> {path}"
        )


def cmd_sample_rpickle(config: RunConfig) -> None:
    """Randomized-loss ensembles over the sigma_r_sq grid."""
    sampler = config["sampler"]
    if sampler["kind"] not in ("rpickle", "both"):
        raise ConfigError("sampler.kind excludes rpickle; set it to 'rpickle' or 'both'")
    model = _sampling_model(config)
    for gamma in config.gammas:
        params = LossParams(sigma_r_sq=gamma)
        ensemble = run_ensemble(model, params, sampler["n_ens"], config.base_seed, sampler["metropolize"])
        gamma_dir = _gamma_dir(config, gamma)
        os.makedirs(gamma_dir, exist_ok=True)
        ensemble_to_csv(ensemble, os.path.join(gamma_dir, "rpickle.csv"), meta=_csv_stamp(config))
        write_manifest(
            ensemble, os.path.join(gamma_dir, "rpickle.json"), extra=_json_stamp(config, gamma=gamma)
        )
        accept = "-" if ensemble.acceptance_rate is None else f"{ensemble.acceptance_rate:.3f}"
        print(
            f"sample-rpickle: gamma={float_token(gamma)} n={len(ensemble)} "
            f"usable={ensemble.n_usable} acceptance={accept} -> {gamma_dir}"
        )


def cmd_sample_hmc(config: RunConfig) -> None:
    """HMC chains over the sigma_r_sq grid."""
    sampler = config["sampler"]
    if sampler["kind"] not in ("hmc", "both"):
        raise ConfigError("sampler.kind excludes hmc; set it to 'hmc' or 'both'")
    model = _sampling_model(config)
    for gamma in config.gammas:
        params = LossParams(sigma_r_sq=gamma)
        chains = run_hmc(
            model, params, sampler["hmc_samples"], sampler["hmc_chains"], sampler["hmc_burn_in"], config.base_seed
        )
        gamma_dir = _gamma_dir(config, gamma)
        os.makedirs(gamma_dir, exist_ok=True)
        chains_to_csv(chains, model.n_xi, os.path.join(gamma_dir, "hmc.csv"), meta=_csv_stamp(config))
        write_hmc_manifest(
            chains,
            params,
            sampler["hmc_burn_in"],
            os.path.join(gamma_dir, "hmc.json"),
            extra=_json_stamp(config, gamma=gamma),
        )
        rates = ", ".join(f"{chain.acceptance_rate:.3f}" for chain in chains)
        print(f"sample-hmc: gamma={float_token(gamma)} acceptance=[{rates}] -> {gamma_dir}")


def _map_point_from_json(path: str, n_xi: int, n_eta: int) -> np.ndarray:
    """The stacked MAP vector of a ``map.json``, checked against the model's sizes."""
    doc = read_json(path, "map file")
    try:
        xi = np.asarray(doc["xi"], dtype=np.float64)
        eta = np.asarray(doc["eta"], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"map file {path} needs numeric xi and eta lists") from None
    if xi.shape != (n_xi,) or eta.shape != (n_eta,):
        raise ConfigError(
            f"map file {path} has {xi.size}+{eta.size} xi+eta terms, model expects {n_xi}+{n_eta}"
        )
    z = np.concatenate([xi, eta])
    if not np.all(np.isfinite(z)):
        raise ConfigError(f"map file {path} has non-finite coefficients")
    return z


def _diagnose_gamma(model, case, y_basis, config: RunConfig, gamma: float) -> dict:
    """Report files for one gamma; returns the summary row as a dict."""
    gamma_dir = _gamma_dir(config, gamma)
    ensemble = ensemble_from_csv(_require(os.path.join(gamma_dir, "rpickle.csv"), "sample-rpickle"))
    row = {"gamma": float_token(gamma), "n_usable": str(ensemble.n_usable)}
    if not ensemble.moments_defined:
        warnings.warn(
            f"gamma={float_token(gamma)}: fewer than two usable samples, skipping field moments",
            UserWarning,
            stacklevel=2,
        )
        row.update({key: "" for key in SUMMARY_COLUMNS[2:]})
        return row

    map_point = _map_point_from_json(
        _require(os.path.join(gamma_dir, "map.json"), "map"), model.n_xi, model.n_eta
    )
    params = LossParams(sigma_r_sq=gamma)
    mean_field, std_field = posterior_moments(ensemble, y_basis)
    lpp_value = lpp(mean_field, std_field, case.y_ref)
    coverage_value = coverage(mean_field, std_field, case.y_ref)
    rel_l2, l_inf = error_norms(mean_field, case.y_ref)
    _, condition, spectrum = laplace_posterior(model, params, map_point)
    xi_block = ensemble.coefficient_matrix()[:, : model.n_xi]
    curves = {}
    for coord in range(model.n_xi):
        mean_ratios, std_ratios = convergence_ratios(xi_block, coord)
        curves[coord] = {"mean": mean_ratios, "std": std_ratios}
    report = DiagnosticsReport(
        mean_field=mean_field,
        std_field=std_field,
        lpp=lpp_value,
        coverage=coverage_value,
        rel_l2=rel_l2,
        l_inf=l_inf,
        laplace_spectrum=spectrum,
        condition_number=condition,
        convergence_curves=curves,
    )
    report_to_json(report, os.path.join(gamma_dir, "report.json"), meta=_json_stamp(config, gamma=gamma))
    report_to_csv(report, gamma_dir, meta=_csv_stamp(config))
    row.update(
        {
            "lpp": float_token(lpp_value),
            "coverage": float_token(coverage_value),
            "rel_l2": float_token(rel_l2),
            "l_inf": float_token(l_inf),
            "condition_number": float_token(condition),
        }
    )
    return row


def cmd_diagnose(config: RunConfig) -> None:
    """Per-gamma reports plus ``summary.csv``, one row per sigma_r_sq value."""
    _reject_linear(config, "diagnose")
    if config["sampler"]["kind"] == "hmc":
        raise ConfigError(
            "diagnose summarizes the rpickle ensemble; set sampler.kind to 'rpickle' or 'both'"
        )
    model, case, y_basis = _flow_model(config)
    rows = [_diagnose_gamma(model, case, y_basis, config, gamma) for gamma in config.gammas]

    table = [[row[key] for key in SUMMARY_COLUMNS] for row in rows]
    summary_path = os.path.join(config.output_dir, "summary.csv")
    write_table(summary_path, _csv_stamp(config), SUMMARY_COLUMNS, table)
    for line in [SUMMARY_COLUMNS, *table]:
        print(",".join(line))
    print(f"diagnose: {len(rows)} rows -> {summary_path}")


def cmd_oracle_check(seed: int = 0, n_ens: int = 20_000, cov_tol: float = 0.05) -> bool:
    """Linear-Gaussian consistency suite; prints PASS/FAIL per check.

    On an affine residual the randomized-loss samples are exact posterior
    draws, so the ensemble must reproduce the closed-form moments up to
    Monte Carlo error and the Metropolis filter must accept everything.
    A negative ``seed``, ``n_ens`` below 2 or a ``cov_tol`` that is not a
    finite positive number raises :class:`ConfigError` before any work.
    """
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    if n_ens < 2:
        raise ConfigError(f"--n-ens must be at least 2, got {n_ens}")
    if not 0.0 < cov_tol <= sys.float_info.max:
        raise ConfigError(f"--cov-tol must be a finite positive number, got {cov_tol}")
    model = linear_model_from_config(parse_run_config({"linear_case": {}, "base_seed": seed}))
    params = LossParams(sigma_r_sq=0.5)
    mean, cov = linear_oracle(model, params)
    print(f"oracle-check: n_ens={n_ens} seed={seed} cov_tol={cov_tol:g}")

    map_result = map_optimize(model, params)
    map_err = float(np.max(np.abs(map_result.z - mean)))
    checks = [("map vs oracle mean", map_err <= 1e-6, f"max coordinate error {map_err:.3e} (tol 1e-06)")]

    ensemble = run_ensemble(model, params, n_ens, seed, metropolize=False)
    samples = ensemble.coefficient_matrix()
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    worst = float(np.max(np.abs(samples.mean(axis=0) - mean) / se))
    checks.append(("sample mean", worst <= 3.0, f"worst coordinate at {worst:.2f} standard errors (tol 3)"))

    sample_cov = np.cov(samples, rowvar=False)
    rel = float(np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov))
    checks.append(("sample covariance", rel <= cov_tol, f"relative Frobenius error {rel:.4f} (tol {cov_tol:g})"))

    filtered = run_ensemble(model, params, 1000, seed, metropolize=True)
    acc = filtered.acceptance_rate
    checks.append(
        ("metropolis acceptance", acc == 1.0, f"{acc} over 1000 proposals (expected exactly 1.0)")
    )

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    all_ok = all(ok for _, ok, _ in checks)
    print("oracle-check: all checks passed" if all_ok else "oracle-check: FAILURES above")
    return all_ok


_STAGE_HANDLERS = {
    "generate": cmd_generate,
    "build-prior": cmd_build_prior,
    "map": cmd_map,
    "sample-rpickle": cmd_sample_rpickle,
    "sample-hmc": cmd_sample_hmc,
    "diagnose": cmd_diagnose,
}


def build_parser() -> argparse.ArgumentParser:
    threads_help = "accepted for compatibility; has no effect"
    parser = argparse.ArgumentParser(
        prog="rpickle",
        description="Randomized-loss posterior sampling pipeline for Darcy-flow inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stage_help = {
        "generate": "sample the synthetic reference case",
        "build-prior": "condition both expansions on the case's wells",
        "map": "MAP solve per sigma_r_sq value",
        "sample-rpickle": "randomized-loss posterior ensembles",
        "sample-hmc": "HMC baseline chains",
        "diagnose": "per-gamma reports and the summary table",
    }
    for name, text in stage_help.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="run configuration JSON file")
        cmd.add_argument("--out", help="output directory (overrides output_dir)")
        cmd.add_argument("--seed", type=int, help="base seed (overrides base_seed)")
        cmd.add_argument("--threads", type=int, default=1, help=threads_help)
    oracle = sub.add_parser("oracle-check", help="built-in linear-Gaussian consistency suite")
    oracle.add_argument("--seed", type=int, default=0, help="base seed for the linear model")
    oracle.add_argument("--n-ens", type=int, default=20_000, help="ensemble size for the moment checks")
    oracle.add_argument("--cov-tol", type=float, default=0.05, help="relative Frobenius tolerance")
    oracle.add_argument("--threads", type=int, default=1, help=threads_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            passed = cmd_oracle_check(seed=args.seed, n_ens=args.n_ens, cov_tol=args.cov_tol)
            return 0 if passed else 2
        config = load_run_config(args.config, seed=args.seed, out=args.out)
        start = time.perf_counter()
        _STAGE_HANDLERS[args.command](config)
        _record_timing(config.output_dir, args.command, time.perf_counter() - start)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
