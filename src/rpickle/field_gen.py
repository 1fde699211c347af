"""Synthetic inverse-problem cases: reference fields, smoothing, and wells.

A case fixes the ground truth for one experiment: a reference
log-transmissivity drawn from the prior kernel (optionally smoothed to lower
its effective dimensionality), the head field it induces, and the observation
wells where both are measured exactly.  Smoothing runs Jacobi-style sweeps
that replace each cell's log value by the arithmetic mean over the cell and
its face-adjacent neighbors (the geometric mean in transmissivity); boundary
cells average over the neighbors they have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gp_prior import (
    CkleBasis,
    ConditionedGP,
    KernelParams,
    Observations,
    build_basis,
    ckle_eval,
    matern52,
    observations_at_cells,
)
from .mesh_fv import BoundaryConditions, FlowOperator, Mesh, save_field_csv, load_field_csv
from .seeding import STREAM_REFERENCE, STREAM_WELLS, read_json, seed_token, spawn_rng, write_json

__all__ = [
    "SyntheticCase",
    "sample_reference_field",
    "local_average",
    "select_wells",
    "build_synthetic_case",
    "save_case",
    "load_case",
]


@dataclass(frozen=True)
class SyntheticCase:
    """Ground truth plus observations for one experiment."""

    y_ref: np.ndarray
    u_ref: np.ndarray
    y_obs: Observations
    u_obs: Observations
    provenance: dict

    def __post_init__(self):
        object.__setattr__(self, "y_ref", np.asarray(self.y_ref, dtype=np.float64))
        object.__setattr__(self, "u_ref", np.asarray(self.u_ref, dtype=np.float64))
        if self.y_ref.shape != self.u_ref.shape:
            raise ConfigError("y_ref and u_ref must have equal shapes")


def sample_reference_field(basis: CkleBasis, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw expansion coefficients (standard normal) and the resulting field."""
    coeffs = spawn_rng(seed, STREAM_REFERENCE).standard_normal(basis.n_terms)
    return coeffs, ckle_eval(basis, coeffs)


def local_average(mesh: Mesh, y: np.ndarray, iterations: int) -> np.ndarray:
    """Smooth a per-cell field by repeated neighborhood averaging.

    Each sweep simultaneously replaces every cell value by the mean over
    the cell and its face-adjacent neighbors; on the log field this is the
    geometric mean of transmissivities over the closed neighborhood.  The
    self term matters: the adjacency graph of a structured mesh is
    bipartite, so averaging over neighbors alone leaves the checkerboard
    mode essentially undamped and heavy smoothing would preserve
    oscillatory structure instead of removing it.  ``iterations=0``
    returns a copy.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (mesh.n_cells,):
        raise ConfigError(f"field must have shape ({mesh.n_cells},), got {y.shape}")
    if iterations < 0:
        raise ConfigError("iterations must be nonnegative")
    out = y.copy()
    if iterations == 0:
        return out
    mat = mesh.neighbor_matrix()
    degrees = np.asarray(mat.getnnz(axis=1), dtype=np.float64)
    w_self = 1.0 / (degrees + 1.0)
    w_neighbors = degrees * w_self
    for _ in range(int(iterations)):
        out = w_neighbors * (mat @ out) + w_self * out
    return out


def select_wells(mesh: Mesh, candidates, n_obs: int, seed: int, stream_index: int = 0) -> np.ndarray:
    """Draw ``n_obs`` distinct well cells uniformly from ``candidates``.

    Returned sorted ascending; the draw depends only on ``(seed,
    stream_index)``.
    """
    cands = np.unique(np.asarray(candidates, dtype=np.int64))
    if cands.size and (cands.min() < 0 or cands.max() >= mesh.n_cells):
        raise ConfigError("candidate cells outside the mesh")
    if not 0 <= n_obs <= cands.size:
        raise ConfigError(f"cannot draw {n_obs} wells from {cands.size} candidates")
    rng = spawn_rng(seed, STREAM_WELLS, stream_index)
    chosen = rng.choice(cands, size=n_obs, replace=False)
    return np.sort(chosen)


def build_synthetic_case(
    mesh: Mesh,
    kernel: KernelParams,
    bc: BoundaryConditions,
    n_y_obs: int,
    n_u_obs: int,
    seed: int,
    smoothing_iterations: int = 0,
) -> SyntheticCase:
    """Sample a reference experiment from the prior kernel.

    Draws the reference log-transmissivity from the untruncated kernel
    expansion over the mesh (one term per cell), smooths it, solves the
    forward problem, and picks observation wells for both fields
    (independent draws; the two sets may overlap).
    """
    prior = ConditionedGP(
        mean=np.zeros(mesh.n_cells),
        covariance=matern52(mesh.cell_centers, mesh.cell_centers, kernel),
    )
    ref_basis = build_basis(prior, energy=None, n_terms=mesh.n_cells)
    _, y_raw = sample_reference_field(ref_basis, seed)
    y_ref = local_average(mesh, y_raw, smoothing_iterations)
    u_ref = FlowOperator(mesh, bc).solve(y_ref)
    all_cells = np.arange(mesh.n_cells)
    y_cells = select_wells(mesh, all_cells, n_y_obs, seed, stream_index=0)
    u_cells = select_wells(mesh, all_cells, n_u_obs, seed, stream_index=1)
    provenance = {
        "seed": int(seed),
        "seed_token": seed_token(seed, STREAM_REFERENCE),
        "smoothing_iterations": int(smoothing_iterations),
        "kernel": {"sigma": kernel.sigma, "length_scale": kernel.length_scale},
        "reference_n_terms": int(mesh.n_cells),
        "n_y_obs": int(n_y_obs),
        "n_u_obs": int(n_u_obs),
    }
    return SyntheticCase(
        y_ref=y_ref,
        u_ref=u_ref,
        y_obs=observations_at_cells(mesh, y_cells, y_ref),
        u_obs=observations_at_cells(mesh, u_cells, u_ref),
        provenance=provenance,
    )


def save_case(case: SyntheticCase, mesh: Mesh, directory, meta: dict | None = None) -> None:
    """Write case.json plus y_ref.csv / u_ref.csv into ``directory``.

    Extra ``meta`` entries are stamped into the field CSV headers and into
    case.json, so callers can tie the files to a run configuration.
    """
    directory = str(directory)
    stamp = {"seed": case.provenance.get("seed", ""), **(meta or {})}
    save_field_csv(f"{directory}/y_ref.csv", mesh, case.y_ref, name="y", meta=stamp)
    save_field_csv(f"{directory}/u_ref.csv", mesh, case.u_ref, name="u", meta=stamp)

    def obs_doc(obs: Observations) -> dict:
        return {
            "cells": obs.cells.tolist(),
            "values": obs.values.tolist(),
            "locations": obs.locations.tolist(),
        }

    doc = {
        "y_obs": obs_doc(case.y_obs),
        "u_obs": obs_doc(case.u_obs),
        "provenance": case.provenance,
        "meta": dict(sorted((meta or {}).items())),
    }
    write_json(f"{directory}/case.json", doc)


def load_case(directory, mesh: Mesh) -> SyntheticCase:
    """Read a case of ``mesh`` written by :func:`save_case`.

    A malformed case.json, or a reference field that is not one of ``mesh``'s
    (see :func:`load_field_csv`), raises ConfigError naming the file.
    """
    directory = str(directory)
    path = f"{directory}/case.json"

    def obs_from(d) -> Observations:
        return Observations(
            locations=np.asarray(d["locations"], dtype=np.float64).reshape(-1, 2),
            values=d["values"],
            cells=d["cells"],
        )

    doc = read_json(path, "case file")
    try:
        y_obs, u_obs, provenance = obs_from(doc["y_obs"]), obs_from(doc["u_obs"]), doc["provenance"]
    except KeyError as exc:
        raise ConfigError(f"case file {path} has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"case file {path} is malformed: {exc}") from None
    return SyntheticCase(
        y_ref=load_field_csv(f"{directory}/y_ref.csv", mesh),
        u_ref=load_field_csv(f"{directory}/u_ref.csv", mesh),
        y_obs=y_obs,
        u_obs=u_obs,
        provenance=provenance,
    )
