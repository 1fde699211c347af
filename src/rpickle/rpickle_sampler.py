"""Posterior sampling by randomized-loss minimization.

Each draw perturbs the loss targets with Gaussian noise (a residual target
``omega`` and prior targets ``alpha``, ``beta``) and minimizes the shifted
loss; the map from noise to minimizer pushes the noise distribution onto an
approximation of the coefficient posterior, exact when the residual is
linear.  An optional Metropolis pass corrects the nonlinear bias using the
log-determinant of that map's Jacobian at each minimizer: a proposal is
accepted with probability ``min(1, exp((logdet_new - logdet_prev)/2))`` and a
rejection repeats the previous state.  Proposals are solved together, in
blocks of consecutive indices, by the lockstep batched solver
(:func:`~rpickle.pickle_map.minimize_batch`); each draws its noise from its
own RNG stream, and the other rows of its block change a proposal only
through the rounding of the batched products, well within the solver
tolerance.  The block layout is fixed, so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, EnsembleFailureError
from .pickle_map import (
    CoefficientPair,
    LossParams,
    OptimConfig,
    PickleLoss,
    map_optimize,
    minimize_batch,
)
from .seeding import STREAM_METROPOLIS, STREAM_NOISE, float_token, seed_token, spawn_rng, write_json

__all__ = [
    "NoiseDraw",
    "PosteriorSample",
    "PosteriorEnsemble",
    "EnsembleConfig",
    "draw_noise",
    "jacobian_logdet",
    "metropolis_filter",
    "run_ensemble",
    "ensemble_to_csv",
    "ensemble_from_csv",
    "write_manifest",
]

# |det| at or below this floor reports a log-det of -inf.
DET_FLOOR = 1e-300

# Metropolization defaults on below this many total coefficients and off
# above, where the log-det assembly would dominate the run.
METROPOLIS_DIM_LIMIT = 100

# Proposals are solved together in blocks of about this many residual
# entries (rows x n_residual): 64 rows on an 8x8 mesh, 4 on a 32x32 one.
# Fewer rows pay the solver's per-iteration overhead more often; more rows
# spill the evaluation's arrays out of cache.
BLOCK_ENTRIES = 4096


@dataclass(frozen=True)
class NoiseDraw:
    """One realization of the randomization noise, with its seed token."""

    omega: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    seed: str

    def __post_init__(self):
        for name in ("omega", "alpha", "beta"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64))
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"noise vector {name} must be finite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PosteriorSample:
    """One posterior draw: minimizer, loss, and bookkeeping.

    ``seed`` identifies the noise draw.  ``log_det_j`` is set only when
    Metropolization is enabled.  ``accepted`` is False at chain positions
    holding a carried-forward copy of the previous state;
    ``optimizer_converged`` is False when the stored coefficients come from a
    solve that ended above tolerance.
    """

    z_star: CoefficientPair
    loss: float
    log_det_j: float | None
    accepted: bool
    optimizer_converged: bool
    seed: str


@dataclass(frozen=True)
class PosteriorEnsemble:
    """Ordered samples plus the configuration snapshot that produced them.

    ``acceptance_rate`` is None for unfiltered (non-Metropolized) runs.
    ``n_failed`` counts proposals whose optimization did not converge,
    whether or not their content remains in ``samples``.
    """

    samples: tuple
    config: dict
    acceptance_rate: float | None
    n_failed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ConfigError("ensemble must contain at least one sample")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_usable(self) -> int:
        return sum(1 for s in self.samples if s.optimizer_converged)

    @property
    def moments_defined(self) -> bool:
        """At least two usable samples; a single draw has no spread."""
        return self.n_usable >= 2

    def coefficient_matrix(self) -> np.ndarray:
        """Stacked coefficients of the samples from converged solves, one row each."""
        rows = [s.z_star.stacked for s in self.samples if s.optimizer_converged]
        if not rows:
            raise ConfigError("no usable samples")
        return np.asarray(rows)


def draw_noise(model, params: LossParams, base_seed: int, index: int) -> NoiseDraw:
    """Noise for sample ``index``: one RNG stream per index, order-agnostic."""
    rng = spawn_rng(base_seed, STREAM_NOISE, index)
    return NoiseDraw(
        omega=np.sqrt(params.sigma_r_sq) * rng.standard_normal(model.n_residual),
        alpha=np.sqrt(params.sigma_xi_sq) * rng.standard_normal(model.n_xi),
        beta=np.sqrt(params.sigma_eta_sq) * rng.standard_normal(model.n_eta),
        seed=seed_token(base_seed, STREAM_NOISE, index),
    )


def jacobian_logdet(model, params: LossParams, z_star, delta) -> float:
    """Log |det| of the noise-to-minimizer Jacobian factor at a minimizer.

    The matrix is ``S`` times the loss Hessian at ``z_star`` with misfit
    ``delta`` (:meth:`PickleLoss.hessian`), which equals ``I + S (H + G^T G /
    s_r)`` over stacked coefficients, where ``S = diag(prior variances)``,
    ``G`` is the residual Jacobian, and ``H`` contracts the residual's second
    derivatives against ``delta/s_r``.  An absolute determinant at or below
    1e-300 reports ``-inf``.
    """
    loss = PickleLoss(model, params)
    m = loss.prior_variances()[:, None] * loss.hessian(loss.stacked(z_star), delta)
    sign, logdet = np.linalg.slogdet(m)
    if sign == 0 or logdet <= np.log(DET_FLOOR):
        return float("-inf")
    return float(logdet)


def metropolis_filter(proposals, rng) -> PosteriorEnsemble:
    """Sequential accept/reject pass over an ordered proposal stream.

    The first converged proposal is auto-accepted; afterwards a proposal is
    accepted with probability ``min(1, exp((ld_new - ld_prev)/2))`` and a
    rejection copies the previous state forward (flagged ``accepted=False``).
    Proposals whose optimization failed are rejected outright.  Every
    proposal must carry a log-det.
    """
    proposals = list(proposals)
    if not proposals:
        raise ConfigError("empty proposal stream")
    for p in proposals:
        if p.log_det_j is None:
            raise ConfigError("cannot filter a proposal without log_det_j")
    start = next((i for i, p in enumerate(proposals) if p.optimizer_converged), None)
    if start is None:
        raise EnsembleFailureError("no converged proposals to filter")

    current = replace(proposals[start], accepted=True)
    out = []
    n_accept = 0
    for i, prop in enumerate(proposals):
        if i < start:
            out.append(replace(current, accepted=False))
        elif i == start:
            out.append(current)
            n_accept += 1
        elif not prop.optimizer_converged:
            out.append(replace(current, accepted=False))
        else:
            log_ratio = 0.5 * (prop.log_det_j - current.log_det_j)
            threshold = np.exp(min(0.0, log_ratio)) if np.isfinite(log_ratio) else 0.0
            if rng.uniform() < threshold:
                current = replace(prop, accepted=True)
                out.append(current)
                n_accept += 1
            else:
                out.append(replace(current, accepted=False))
    return PosteriorEnsemble(
        samples=tuple(out),
        config={},
        acceptance_rate=n_accept / len(proposals),
    )


@dataclass(frozen=True)
class EnsembleConfig:
    """Run settings for :func:`run_ensemble`.

    ``metropolize=None`` picks the default by dimension.
    """

    base_seed: int = 0
    metropolize: bool | None = None
    warm_start: bool = True
    max_failure_fraction: float = 0.01
    optim: OptimConfig = field(default_factory=OptimConfig)


def _config_snapshot(params: LossParams, n_ens: int, config: EnsembleConfig, metropolize: bool) -> dict:
    return {
        "sigma_r_sq": params.sigma_r_sq,
        "sigma_xi_sq": params.sigma_xi_sq,
        "sigma_eta_sq": params.sigma_eta_sq,
        "n_ens": int(n_ens),
        "base_seed": int(config.base_seed),
        "metropolize": bool(metropolize),
        "warm_start": bool(config.warm_start),
        "max_failure_fraction": config.max_failure_fraction,
        "optim": asdict(config.optim),
    }


def run_ensemble(model, params: LossParams, n_ens: int, config: EnsembleConfig | None = None) -> PosteriorEnsemble:
    """Generate a posterior ensemble of ``n_ens`` randomized solves.

    Noise comes from counter-derived seeds (stream per sample index).  The
    solves run in blocks of consecutive indices, about ``BLOCK_ENTRIES``
    residual entries each, through :func:`minimize_batch`, every row
    warm-started at the MAP by default; log-dets plus the Metropolis pass
    are applied when enabled.  The log-det of a converged proposal takes its
    misfit ``R(z_star) - omega``.  More than ``max_failure_fraction``
    non-converged solves aborts with diagnostics; below that, failures stay
    flagged in the ensemble (unfiltered runs) or are rejected by the filter.
    """
    config = config or EnsembleConfig()
    if n_ens < 1:
        raise ConfigError("n_ens must be at least 1")
    metropolize = config.metropolize
    if metropolize is None:
        metropolize = (model.n_xi + model.n_eta) < METROPOLIS_DIM_LIMIT

    init = np.zeros(model.n_xi + model.n_eta)
    if config.warm_start:
        init = map_optimize(model, params, config=config.optim).coefficients.stacked

    rows = max(1, BLOCK_ENTRIES // model.n_residual)
    proposals = []
    for first in range(0, n_ens, rows):
        indices = range(first, min(first + rows, n_ens))
        block = [draw_noise(model, params, config.base_seed, i) for i in indices]
        loss = PickleLoss(
            model,
            params,
            np.array([noise.omega for noise in block]),
            np.array([noise.alpha for noise in block]),
            np.array([noise.beta for noise in block]),
        )
        res = minimize_batch(loss, np.tile(init, (len(block), 1)), config.optim)
        for k, noise in enumerate(block):
            z = CoefficientPair.from_stacked(res.z[k], model.n_xi)
            converged = bool(res.converged[k])
            log_det = None
            if metropolize and converged:
                delta = model.residual(z.xi, z.eta) - noise.omega
                log_det = jacobian_logdet(model, params, z, delta)
            elif metropolize:
                log_det = float("-inf")
            proposals.append(
                PosteriorSample(
                    z_star=z,
                    loss=float(res.loss[k]),
                    log_det_j=log_det,
                    accepted=True,
                    optimizer_converged=converged,
                    seed=noise.seed,
                )
            )

    failed = [i for i, p in enumerate(proposals) if not p.optimizer_converged]
    if len(failed) > config.max_failure_fraction * n_ens:
        preview = ", ".join(str(i) for i in failed[:10])
        raise EnsembleFailureError(
            f"{len(failed)} of {n_ens} randomized solves did not converge "
            f"(limit {config.max_failure_fraction:.0%}); failed indices: {preview}"
        )

    snapshot = _config_snapshot(params, n_ens, config, metropolize)
    if metropolize:
        ensemble = metropolis_filter(proposals, spawn_rng(config.base_seed, STREAM_METROPOLIS))
        return replace(ensemble, config=snapshot, n_failed=len(failed))
    return PosteriorEnsemble(
        samples=tuple(proposals),
        config=snapshot,
        acceptance_rate=None,
        n_failed=len(failed),
    )


# ---------------------------------------------------------------------------
# Serialization


def ensemble_to_csv(ensemble: PosteriorEnsemble, path, meta: dict | None = None) -> None:
    """One row per sample: seed, coefficients, loss, log-det, flags.

    ``meta`` adds extra ``# key=value`` comment lines (sorted by key), for
    provenance stamps like a config hash.
    """
    first = ensemble.samples[0]
    n_xi = first.z_star.xi.size
    n_eta = first.z_star.eta.size
    cols = (
        ["seed"]
        + [f"xi_{i}" for i in range(n_xi)]
        + [f"eta_{i}" for i in range(n_eta)]
        + ["loss", "log_det_j", "accepted", "converged"]
    )
    lines = [f"# n_xi={n_xi}", f"# n_eta={n_eta}"]
    if ensemble.acceptance_rate is not None:
        lines.append(f"# acceptance_rate={float_token(ensemble.acceptance_rate)}")
    lines.append(f"# n_failed={ensemble.n_failed}")
    for key in sorted(meta or {}):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(cols))
    for s in ensemble.samples:
        row = [s.seed]
        row += [float_token(v) for v in s.z_star.xi]
        row += [float_token(v) for v in s.z_star.eta]
        row.append(float_token(s.loss))
        row.append("" if s.log_det_j is None else float_token(s.log_det_j))
        row.append("1" if s.accepted else "0")
        row.append("1" if s.optimizer_converged else "0")
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ensemble_from_csv(path) -> PosteriorEnsemble:
    """Rebuild an ensemble from its CSV."""
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    if header is None or "n_xi" not in meta:
        raise ConfigError(f"not an ensemble CSV: {path}")
    n_xi = int(meta["n_xi"])
    n_eta = int(meta["n_eta"])
    samples = []
    for row in rows:
        values = row[1 : 1 + n_xi + n_eta]
        loss, log_det, accepted, converged = row[1 + n_xi + n_eta :]
        samples.append(
            PosteriorSample(
                z_star=CoefficientPair.from_stacked(
                    np.array([float(v) for v in values]), n_xi
                ),
                loss=float(loss),
                log_det_j=None if log_det == "" else float(log_det),
                accepted=accepted == "1",
                optimizer_converged=converged == "1",
                seed=row[0],
            )
        )
    rate = meta.get("acceptance_rate")
    return PosteriorEnsemble(
        samples=tuple(samples),
        config={},
        acceptance_rate=None if rate is None else float(rate),
        n_failed=int(meta.get("n_failed", 0)),
    )


def write_manifest(ensemble: PosteriorEnsemble, path, extra: dict | None = None) -> None:
    """Run manifest: config snapshot plus outcome summary (timing lives apart)."""
    doc = {
        "config": ensemble.config,
        "gamma": ensemble.config.get("sigma_r_sq"),
        "n_ens": len(ensemble.samples),
        "acceptance_rate": ensemble.acceptance_rate,
        "n_failed": ensemble.n_failed,
        "moments_defined": ensemble.moments_defined,
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)
