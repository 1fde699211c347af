"""The benchmark's output checks fail on corrupted copies of real outputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each test runs a workload's stages once, confirms every check passes on the
real outputs, then corrupts one file of a copy and confirms that the check
guarding it fails.
"""

import json
import math
import os
import shutil

import numpy as np
import pytest

import checks
import reference
from run import Pipeline
from workloads import ROUND_STAGES, WORKLOADS, gamma_dir

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Corrupted ensemble means move this many standard errors away from the reference.
SHIFT_SE = 8.0


def _pipeline(tmp_path_factory, name, seed):
    workload = WORKLOADS[name]
    pipe = Pipeline(ROOT, str(tmp_path_factory.mktemp(name)), workload, seed, trace=0)
    for stage in workload.setup_stages + ROUND_STAGES + workload.final_stages:
        pipe.run(stage)
    return pipe


@pytest.fixture(scope="module")
def linear(tmp_path_factory):
    return _pipeline(tmp_path_factory, "linear-oracle", 3)


@pytest.fixture(scope="module")
def darcy(tmp_path_factory):
    return _pipeline(tmp_path_factory, "darcy8-lowdim", 3)


def _outcomes(pipe, out_dir):
    return {name: ok for name, ok, _ in checks.run_checks(pipe.workload, pipe.config, out_dir)}


def _corrupt(pipe, tmp_path):
    copy = str(tmp_path / "out")
    shutil.copytree(pipe.out_dir, copy)
    return copy, gamma_dir(copy, pipe.config["sigma_r_sq"][0])


def _shift_column(path, column, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header_at].split(",").index(column)
    for i in range(header_at + 1, len(lines)):
        cells = lines[i].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _shift_one_cell(path, cell, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == str(cell):
            cells[3] = repr(float(cells[3]) + delta)
            lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_every_check_passes_on_real_outputs(linear, darcy):
    for pipe in (linear, darcy):
        outcomes = _outcomes(pipe, pipe.out_dir)
        assert outcomes and all(outcomes.values()), outcomes


def test_linear_ensemble_mean_shifted_by_a_few_se_fails(linear, tmp_path):
    out, gdir = _corrupt(linear, tmp_path)
    mean, cov = checks.linear_truth(linear.config)
    samples = checks.read_samples(os.path.join(gdir, "rpickle.csv"))
    away = math.copysign(SHIFT_SE, samples[:, 0].mean() - mean[0])
    _shift_column(os.path.join(gdir, "rpickle.csv"), "xi_0", away * math.sqrt(cov[0, 0] / samples.shape[0]))
    outcomes = _outcomes(linear, out)
    assert not outcomes["ensemble mean matches closed form"]


def test_linear_acceptance_below_one_fails(linear, tmp_path):
    out, gdir = _corrupt(linear, tmp_path)
    _edit_json(os.path.join(gdir, "rpickle.json"), lambda doc: doc.update(acceptance_rate=0.999))
    assert not _outcomes(linear, out)["Metropolis acceptance exact"]


def test_darcy_ensemble_mean_shifted_by_a_few_se_fails(darcy, tmp_path):
    out, gdir = _corrupt(darcy, tmp_path)
    ens = checks.read_samples(os.path.join(gdir, "rpickle.csv"))
    chains = checks.read_chains(os.path.join(gdir, "hmc.csv"))
    se = math.hypot(reference.chains_mean_se([ens])[0], reference.chains_mean_se(chains)[0])
    away = math.copysign(SHIFT_SE, ens[:, 0].mean() - np.vstack(chains)[:, 0].mean())
    _shift_column(os.path.join(gdir, "rpickle.csv"), "xi_0", away * se)
    assert not _outcomes(darcy, out)["rPICKLE and HMC agree"]


def test_field_moved_off_one_well_fails(darcy, tmp_path):
    out, _ = _corrupt(darcy, tmp_path)
    cell = checks.read_json(os.path.join(out, "case", "case.json"))["y_obs"]["cells"][0]

    def move(doc):
        doc["mean"][cell] += 1e-2

    _edit_json(os.path.join(out, "prior", "y_basis.json"), move)
    assert not _outcomes(darcy, out)["MAP and members honour the wells"]


def test_head_field_with_one_perturbed_cell_fails(darcy, tmp_path):
    out, _ = _corrupt(darcy, tmp_path)
    _shift_one_cell(os.path.join(out, "case", "u_ref.csv"), cell=27, delta=1e-3)
    assert not _outcomes(darcy, out)["head field solves the residual"]


def test_batch_means_matches_ar1_variance():
    # An AR(1) chain with coefficient rho has asymptotic variance
    # (1 + rho) / (1 - rho) times its marginal variance.
    rng = np.random.default_rng(0)
    rho, n = 0.6, 200_000
    x = np.empty(n)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(n) * math.sqrt(1 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    estimate = reference.batch_means_var(x[:, None])[0]
    assert abs(estimate / ((1 + rho) / (1 - rho)) - 1) < 0.1
    ess = reference.effective_sample_size([x[:, None]])[0]
    assert abs(ess / (n * (1 - rho) / (1 + rho)) - 1) < 0.1
