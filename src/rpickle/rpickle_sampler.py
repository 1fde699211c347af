"""Posterior sampling by randomized-loss minimization.

Each draw perturbs the loss targets with Gaussian noise (a residual target
``omega`` and prior targets ``alpha``, ``beta``) and minimizes the shifted
loss; the map from noise to minimizer pushes the noise distribution onto an
approximation of the coefficient posterior, exact when the residual is
linear.  An optional Metropolis pass accepts a proposal with probability
``min(1, exp((logdet_new - logdet_prev)/2))`` from the log-determinant of
that map's Jacobian at each minimizer (:func:`jacobian_logdet`); a rejection
repeats the previous state.  The ratio is exact only on linear models, where
every log-det is equal and every proposal is accepted; on a nonlinear model
it does not remove the ensemble's bias.  Proposals are solved together, in
blocks of consecutive indices, by the lockstep batched solver
(:func:`~rpickle.pickle_map.minimize_batch`); each draws its noise from its
own RNG stream, and the other rows of its block change a proposal only
through the rounding of the batched products, well within the solver
tolerance.  The block layout is fixed, so reruns are byte-identical.

The ensemble stays in the solver's layout from end to end: one
:class:`PosteriorEnsemble` of row-aligned arrays, one row per chain
position.  The Metropolis pass only picks, for each position, the proposal
it holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EnsembleFailureError
from .pickle_map import LossParams, PickleLoss, map_optimize, minimize_batch
from .seeding import (
    STREAM_METROPOLIS, STREAM_NOISE, float_token, read_table, seed_token, spawn_rng, write_json, write_table
)

__all__ = [
    "NoiseDraw",
    "PosteriorEnsemble",
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

# More non-converged solves than this fraction of the ensemble abort the run
# (the same 1% limit as the Monte Carlo head prior's failed draws).
MAX_FAILURE_FRACTION = 0.01


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
class PosteriorEnsemble:
    """Posterior draws as row-aligned arrays, plus the configuration that produced them.

    Row ``k`` is chain position ``k``.  ``z[k]`` stacks its ``xi`` (the
    first ``n_xi`` columns) and ``eta`` coefficients, ``loss[k]`` is its
    randomized loss and ``seeds[k]`` names its noise draw.  ``log_det_j`` is
    None for unfiltered runs.  ``accepted[k]`` is False where the position
    holds a carried-forward copy of an earlier state; ``converged[k]`` is
    False where the coefficients come from a solve that ended above
    tolerance.  ``acceptance_rate`` is None for unfiltered runs.
    ``n_failed`` counts proposals whose optimization did not converge,
    whether or not a row still holds one.
    """

    z: np.ndarray
    n_xi: int
    loss: np.ndarray
    log_det_j: np.ndarray | None
    accepted: np.ndarray
    converged: np.ndarray
    seeds: tuple
    config: dict
    acceptance_rate: float | None
    n_failed: int = 0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ConfigError("ensemble must contain at least one sample")
        if not 0 <= self.n_xi <= z.shape[1]:
            raise ConfigError(f"n_xi={self.n_xi} does not fit {z.shape[1]} coefficient columns")
        if not np.all(np.isfinite(z)):
            raise ConfigError("coefficients must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        columns = {"loss": np.float64, "log_det_j": np.float64, "accepted": bool, "converged": bool}
        for name, dtype in columns.items():
            if name == "log_det_j" and self.log_det_j is None:
                continue
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (len(self),):
                raise ConfigError(f"{name} has shape {column.shape}; expected one entry per row ({len(self)})")
            object.__setattr__(self, name, column)
        if len(self.seeds) != len(self):
            raise ConfigError(f"{len(self.seeds)} seeds for {len(self)} rows")

    def __len__(self) -> int:
        return self.z.shape[0]

    @property
    def n_usable(self) -> int:
        return int(np.count_nonzero(self.converged))

    @property
    def moments_defined(self) -> bool:
        """At least two usable samples; a single draw has no spread."""
        return self.n_usable >= 2

    def coefficient_matrix(self) -> np.ndarray:
        """Stacked coefficients of the samples from converged solves, one row each."""
        if not self.n_usable:
            raise ConfigError("no usable samples")
        return self.z[self.converged]


def draw_noise(model, params: LossParams, base_seed: int, index: int) -> NoiseDraw:
    """Noise for sample ``index``: one RNG stream per index, order-agnostic."""
    rng = spawn_rng(base_seed, STREAM_NOISE, index)
    return NoiseDraw(
        omega=np.sqrt(params.sigma_r_sq) * rng.standard_normal(model.n_residual),
        alpha=rng.standard_normal(model.n_xi),
        beta=rng.standard_normal(model.n_eta),
        seed=seed_token(base_seed, STREAM_NOISE, index),
    )


def jacobian_logdet(loss: PickleLoss, z_star) -> float:
    """Log |det| of the noise-to-minimizer Jacobian factor at a minimizer.

    ``loss`` is the randomized loss ``z_star`` minimizes, one row of targets.
    The matrix is its Hessian at ``z_star`` (:meth:`PickleLoss.hessian`),
    ``I + (G^T G + H) / s_r`` over stacked coefficients, where ``G`` is the
    residual Jacobian and ``H`` contracts the residual's second derivatives
    against the misfit ``R(z_star) - omega``.  An absolute determinant at or
    below ``DET_FLOOR`` reports ``-inf``.
    """
    sign, logdet = np.linalg.slogdet(loss.hessian(loss.stacked(z_star)))
    if sign == 0 or logdet <= np.log(DET_FLOOR):
        return float("-inf")
    return float(logdet)


def metropolis_filter(log_det, converged, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sequential accept/reject pass over an ordered proposal stream.

    Returns, for each chain position, the index of the proposal it holds,
    and the accept flags.  The first converged proposal is auto-accepted and
    also fills the positions before it (not accepted); afterwards a
    converged proposal is accepted with probability ``min(1, exp((ld_new -
    ld_prev)/2))``, one ``rng.uniform()`` each, and a rejection holds the
    previous state.  Proposals whose optimization failed are rejected
    outright, without a draw.
    """
    log_det = np.asarray(log_det, dtype=np.float64)
    converged = np.asarray(converged, dtype=bool)
    if log_det.ndim != 1 or log_det.size == 0 or converged.shape != log_det.shape:
        raise ConfigError("log-dets and converged flags must be nonempty vectors of equal length")
    usable = np.flatnonzero(converged)
    if usable.size == 0:
        raise EnsembleFailureError("no converged proposals to filter")

    current = usable[0]
    accepted = np.zeros(log_det.size, dtype=bool)
    accepted[current] = True
    values = log_det.tolist()  # Python floats: -inf - -inf is a quiet nan, rejected below
    for i in usable[1:]:
        log_ratio = 0.5 * (values[i] - values[current])
        threshold = np.exp(min(0.0, log_ratio)) if np.isfinite(log_ratio) else 0.0
        if rng.uniform() < threshold:
            current = i
            accepted[i] = True
    # Each position holds the latest accepted proposal at or before it.
    index = np.maximum.accumulate(np.where(accepted, np.arange(log_det.size), usable[0]))
    return index, accepted


def run_ensemble(
    model, params: LossParams, n_ens: int, base_seed: int = 0, metropolize: bool | None = None
) -> PosteriorEnsemble:
    """Generate a posterior ensemble of ``n_ens`` randomized solves.

    Noise comes from counter-derived seeds (stream per sample index) under
    ``base_seed``.  The solves run in blocks of consecutive indices, about
    ``BLOCK_ENTRIES`` residual entries each, through :func:`minimize_batch`,
    every row warm-started at the MAP.  With ``metropolize`` (``None`` picks
    it by dimension, below ``METROPOLIS_DIM_LIMIT`` coefficients) the
    log-dets and the Metropolis pass are applied.  The log-det of a
    converged proposal is taken on its own row of the block's loss; an
    unconverged one gets ``-inf``.  More than ``MAX_FAILURE_FRACTION`` of
    non-converged solves aborts with diagnostics; below that, failures stay
    flagged in the ensemble (unfiltered runs) or are rejected by the filter.
    """
    if n_ens < 1:
        raise ConfigError("n_ens must be at least 1")
    if metropolize is None:
        metropolize = (model.n_xi + model.n_eta) < METROPOLIS_DIM_LIMIT

    init = map_optimize(model, params).z

    rows = max(1, BLOCK_ENTRIES // model.n_residual)
    z, loss, converged, log_det, seeds = [], [], [], [], []
    for first in range(0, n_ens, rows):
        block = [draw_noise(model, params, base_seed, i) for i in range(first, min(first + rows, n_ens))]
        targets = [np.array([getattr(noise, name) for noise in block]) for name in ("omega", "alpha", "beta")]
        block_loss = PickleLoss(model, params, *targets)
        res = minimize_batch(block_loss, np.tile(init, (len(block), 1)))
        z.append(res.z)
        loss.append(res.loss)
        converged.append(res.converged)
        seeds += [noise.seed for noise in block]
        if metropolize:
            for r, (zk, ok) in enumerate(zip(res.z, res.converged)):
                log_det.append(jacobian_logdet(block_loss.take(r), zk) if ok else float("-inf"))
    z, loss, converged = np.concatenate(z), np.concatenate(loss), np.concatenate(converged)

    failed = np.flatnonzero(~converged)
    if failed.size > MAX_FAILURE_FRACTION * n_ens:
        preview = ", ".join(str(i) for i in failed[:10])
        raise EnsembleFailureError(
            f"{failed.size} of {n_ens} randomized solves did not converge "
            f"(limit {MAX_FAILURE_FRACTION:.0%}); failed indices: {preview}"
        )

    index, accepted, rate = np.arange(n_ens), np.ones(n_ens, dtype=bool), None
    if metropolize:
        index, accepted = metropolis_filter(log_det, converged, spawn_rng(base_seed, STREAM_METROPOLIS))
        rate = np.count_nonzero(accepted) / n_ens
    return PosteriorEnsemble(
        z=z[index],
        n_xi=model.n_xi,
        loss=loss[index],
        log_det_j=np.asarray(log_det)[index] if metropolize else None,
        accepted=accepted,
        converged=converged[index],
        seeds=[seeds[i] for i in index],
        config={
            "sigma_r_sq": params.sigma_r_sq,
            "n_ens": int(n_ens),
            "base_seed": int(base_seed),
            "metropolize": bool(metropolize),
        },
        acceptance_rate=rate,
        n_failed=failed.size,
    )


# ---------------------------------------------------------------------------
# Serialization


def ensemble_to_csv(ensemble: PosteriorEnsemble, path, meta: dict | None = None) -> None:
    """One row per sample: seed, coefficients, loss, log-det, flags.

    ``meta`` adds extra ``# key=value`` comment lines (sorted by key), for
    provenance stamps like a config hash.
    """
    n_xi = ensemble.n_xi
    n_eta = ensemble.z.shape[1] - n_xi
    cols = (
        ["seed"]
        + [f"xi_{i}" for i in range(n_xi)]
        + [f"eta_{i}" for i in range(n_eta)]
        + ["loss", "log_det_j", "accepted", "converged"]
    )
    comments = {"n_xi": n_xi, "n_eta": n_eta}
    if ensemble.acceptance_rate is not None:
        comments["acceptance_rate"] = float_token(ensemble.acceptance_rate)
    comments["n_failed"] = ensemble.n_failed
    comments.update(sorted((meta or {}).items()))
    log_det = [""] * len(ensemble) if ensemble.log_det_j is None else map(float_token, ensemble.log_det_j)
    columns = zip(ensemble.seeds, ensemble.z, ensemble.loss, log_det, ensemble.accepted, ensemble.converged)
    rows = (
        [seed, *map(float_token, z), float_token(loss), ld, "1" if accepted else "0", "1" if converged else "0"]
        for seed, z, loss, ld, accepted, converged in columns
    )
    write_table(path, comments, cols, rows)


def ensemble_from_csv(path) -> PosteriorEnsemble:
    """Rebuild an ensemble from its CSV.

    Malformed input raises :class:`ConfigError` naming the file: block sizes
    that are not nonnegative integers, a row with the wrong number of
    columns, a value that is not a number, an ``accepted`` or ``converged``
    flag other than ``0`` or ``1``, a log-det column blank on some rows and
    filled on others, or anything :class:`PosteriorEnsemble`
    rejects, such as a non-finite coefficient.  A log-det of ``-inf`` is
    legal.
    """
    meta, _, rows = read_table(path)
    if "n_xi" not in meta or "n_eta" not in meta:
        raise ConfigError(f"not an ensemble CSV: {path}")
    rate = meta.get("acceptance_rate")
    try:
        n_xi, n_eta = int(meta["n_xi"]), int(meta["n_eta"])
        if min(n_xi, n_eta) < 0:
            raise ConfigError("n_xi and n_eta must be nonnegative")
        width = 1 + n_xi + n_eta + 4
        for k, row in enumerate(rows):
            if len(row) != width:
                raise ConfigError(f"sample row {k} has {len(row)} columns, expected {width}")
            if not {row[-2], row[-1]} <= {"0", "1"}:
                flags = f"{row[-2]!r}, {row[-1]!r}"
                raise ConfigError(f"sample row {k} has flags {flags}; accepted and converged must be 0 or 1")
        log_det = [row[-3] for row in rows]
        if "" in log_det and any(log_det):
            raise ConfigError("log_det_j is blank on some rows and set on others")
        return PosteriorEnsemble(
            z=[[float(v) for v in row[1:-4]] for row in rows],
            n_xi=n_xi,
            loss=[float(row[-4]) for row in rows],
            log_det_j=None if "" in log_det else [float(v) for v in log_det],
            accepted=[row[-2] == "1" for row in rows],
            converged=[row[-1] == "1" for row in rows],
            seeds=[row[0] for row in rows],
            config={},
            acceptance_rate=None if rate is None else float(rate),
            n_failed=int(meta.get("n_failed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_manifest(ensemble: PosteriorEnsemble, path, extra: dict | None = None) -> None:
    """Run manifest: config snapshot plus outcome summary (timing lives apart)."""
    doc = {
        "config": ensemble.config,
        "gamma": ensemble.config.get("sigma_r_sq"),
        "n_ens": len(ensemble),
        "acceptance_rate": ensemble.acceptance_rate,
        "n_failed": ensemble.n_failed,
        "moments_defined": ensemble.moments_defined,
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)
