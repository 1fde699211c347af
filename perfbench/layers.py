"""Per-layer metrics of a traced run, one layer per package module.

``calls`` counts spans and ``self_s`` sums span time minus child spans.
``io_s`` is the inclusive time of a module's serialization functions.  Set-up
and final stages count once; round stages count as their mean over the
rounds, so a metric describes one pass through the pipeline.  Metrics of a
layer that a workload does not run read 0.
"""

from __future__ import annotations

import os

import numpy as np

import checks
import reference
import tracer
from workloads import ROUND_STAGES, gamma_dir

_FIELD_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower")}
IO_FUNCTIONS = {
    "field_gen.io_s": ("field_gen.save_case", "field_gen.load_case"),
    "rpickle_sampler.io_s": (
        "rpickle_sampler.ensemble_to_csv",
        "rpickle_sampler.ensemble_from_csv",
        "rpickle_sampler.write_manifest",
    ),
    "hmc_sampler.io_s": ("hmc_sampler.chains_to_csv", "hmc_sampler.write_hmc_manifest"),
    "diagnostics.io_s": ("diagnostics.report_to_json", "diagnostics.report_to_csv"),
}


def _spans(*names, fields=("calls", "self_s")):
    return [(f"{name}.{field}", *_FIELD_UNITS[field]) for name in names for field in fields]


# (metric, unit, better) in report order.
PER_LAYER = [
    *[(f"cli.{stage}_s", "s", "lower") for stage in ("generate", "build_prior", "map", "sample_rpickle", "sample_hmc", "diagnose")],
    ("cli.bytes_written", "bytes", "lower"),
    *_spans(*(f"mesh_fv.{fn}" for fn in ("assemble_residual", "residual_vjp", "residual_jacobians", "residual_hessian_contract", "solve_forward"))),
    *_spans("gp_prior.fit_hyperparameters", "gp_prior.condition_on_cells", fields=("self_s",)),
    *_spans("gp_prior.truncated_eig"),
    *_spans("gp_prior.build_basis", "gp_prior.mc_state_prior", "field_gen.build_synthetic_case", fields=("self_s",)),
    ("field_gen.io_s", "s", "lower"),
    *_spans("pickle_map.minimize_randomized"),
    ("pickle_map.lbfgs_iters", "count", "lower"),
    ("pickle_map.unconverged", "count", "lower"),
    ("pickle_map.evals_per_solve", "evals/solve", "lower"),
    *_spans(*(f"pickle_map.ResidualModel.{meth}" for meth in ("residual", "vjp", "jacobians", "hessian_contract"))),
    *_spans("rpickle_sampler.run_ensemble", "rpickle_sampler.sample_once", fields=("self_s",)),
    *_spans("rpickle_sampler.jacobian_logdet"),
    *_spans("rpickle_sampler.metropolis_filter", fields=("self_s",)),
    ("rpickle_sampler.accept_ratio", "ratio", "higher"),
    ("rpickle_sampler.io_s", "s", "lower"),
    *_spans("hmc_sampler.log_posterior_and_grad"),
    ("hmc_sampler.grad_calls_per_iter", "calls/iter", "lower"),
    *_spans("hmc_sampler.leapfrog", "hmc_sampler.run_hmc", fields=("self_s",)),
    ("hmc_sampler.accept_ratio", "ratio", "higher"),
    ("hmc_sampler.ess_min", "samples", "higher"),
    ("hmc_sampler.io_s", "s", "lower"),
    *_spans("diagnostics.laplace_posterior", "diagnostics.posterior_moments", "diagnostics.convergence_ratios", fields=("self_s",)),
    ("diagnostics.io_s", "s", "lower"),
]


def _span_source(metric):
    """``(span name, field)`` a metric reads, or None when it is computed."""
    name, _, field = metric.rpartition(".")
    if field in _FIELD_UNITS:
        return name, field
    if name == "cli" and field.endswith("_s"):
        return f"cli.cmd_{field[:-2]}", "total_s"
    if metric in ("pickle_map.lbfgs_iters", "pickle_map.unconverged"):
        return metric, "calls"
    return None


def _add(into, stats):
    for name, s in stats.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for field in acc:
            acc[field] += s[field]


def layer_metrics(pipe, n_rounds):
    """Every per-layer metric as ``{name: (value, unit)}`` for one pass."""
    once, rounds, by_stage = {}, {}, {}
    for stage, path in pipe.spans:
        stats, counts = tracer.summarize(path)
        for key, count in counts.items():
            stats[f"pickle_map.{key}"] = {"calls": count, "self_s": 0.0, "total_s": 0.0}
        _add(rounds if stage in ROUND_STAGES else once, stats)
        _add(by_stage.setdefault(stage, {}), stats)

    def get(stats, name, field):
        return stats.get(name, {}).get(field, 0)

    def per_pass(name, field):
        # Sum the rounds before dividing so that equal counts stay whole.
        return get(once, name, field) + get(rounds, name, field) / n_rounds

    values = {}
    for metric, _, _ in PER_LAYER:
        source = _span_source(metric)
        if source is not None:
            values[metric] = per_pass(*source)
    for metric, fns in IO_FUNCTIONS.items():
        values[metric] = sum(per_pass(fn, "total_s") for fn in fns)
    round_bytes = sum(b for s, b in pipe.bytes if s in ROUND_STAGES)
    values["cli.bytes_written"] = sum(b for s, b in pipe.bytes if s not in ROUND_STAGES) + round_bytes / n_rounds

    rp = by_stage.get("sample-rpickle", {})
    solves = get(rp, "pickle_map.minimize_randomized", "calls")
    evals = get(rp, "pickle_map.ResidualModel.residual", "calls") + get(rp, "diagnostics.LinearModel.residual", "calls")
    values["pickle_map.evals_per_solve"] = evals / solves if solves else 0.0
    hmc = by_stage.get("sample-hmc", {})
    values["hmc_sampler.grad_calls_per_iter"] = get(hmc, "hmc_sampler.log_posterior_and_grad", "calls") / (
        n_rounds * pipe.workload.hmc_iterations
    )

    gdir = gamma_dir(pipe.out_dir, pipe.config["sigma_r_sq"][0])
    rate = checks.read_json(os.path.join(gdir, "rpickle.json"))["acceptance_rate"]
    # An unfiltered ensemble keeps every proposal.
    values["rpickle_sampler.accept_ratio"] = 1.0 if rate is None else rate
    values["hmc_sampler.accept_ratio"] = float(np.mean(checks.read_json(os.path.join(gdir, "hmc.json"))["acceptance_rates"]))
    chains = checks.read_chains(os.path.join(gdir, "hmc.csv"))
    values["hmc_sampler.ess_min"] = float(np.min(reference.effective_sample_size(chains)))
    return {metric: (float(values[metric]), unit) for metric, unit, _ in PER_LAYER}
