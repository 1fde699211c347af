"""Hamiltonian Monte Carlo over the stacked coefficients.

Reference sampler for desk-scale validation of the randomized-minimization
ensembles.  The target is the coefficient posterior ``-loss/gamma`` (up to a
constant); proposals integrate Hamiltonian dynamics with a plain fixed-length
leapfrog of ``LEAPFROG_STEPS`` steps and identity mass matrix; the step starts
at ``STEP_SIZE`` and adapts over every burn-in iteration by dual averaging
toward the acceptance rate ``TARGET_ACCEPT``, then freezes.  Each iteration
jitters the step within a narrow band to avoid resonant trajectories.  Chains
are independent (one RNG stream, step size and adaptation each) and advance
in lockstep as rows of one state, so each leapfrog step is one batched
gradient call for all of them, and the step adaptation runs over per-chain
arrays.  A single chain is a one-row batch and rounds exactly as one vector;
with several, the batched basis products may move a chain's last bits.  The
result stays in that layout: one :class:`Chains` of row-aligned arrays, row
``c`` being chain ``c``, which the PSRF, the CSV and the manifest read whole.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import ConfigError, NumericalError
from .pickle_map import LossParams, PickleLoss
from .seeding import STREAM_HMC, float_token, seed_token, spawn_rng, write_json, write_table

__all__ = [
    "Chains",
    "log_posterior_and_grad",
    "leapfrog",
    "run_hmc",
    "split_chain_psrf",
    "chains_to_csv",
    "write_hmc_manifest",
]

# Integrator and adaptation settings, read at call time.
TARGET_ACCEPT = 0.70
LEAPFROG_STEPS = 32
STEP_SIZE = 0.1

# Dual-averaging constants: shrinkage toward mu, iteration offset, and the
# averaging decay exponent.
DA_SHRINKAGE = 0.05
DA_OFFSET = 10.0
DA_DECAY = 0.75

PSRF_WARN_THRESHOLD = 1.05

# Per-iteration step-size jitter bounds.  A fixed step and fixed leapfrog
# count can resonate with the target's natural frequencies (trajectories
# return near their start and the chain stalls); drawing each iteration's
# step uniformly from this band around the adapted base step breaks the
# periodicity without touching the leapfrog count.
STEP_JITTER = (0.8, 1.2)


@dataclass(frozen=True)
class Chains:
    """Post-burn-in draws of every chain, with adaptation bookkeeping.

    Row ``c`` of each array is chain ``c``: ``states`` is ``(n_chains,
    n_samples, dim)``, ``accepted`` and ``log_posteriors`` are ``(n_chains,
    n_samples)``, ``step_sizes`` (the frozen steps) is ``(n_chains,)``, and
    ``adaptation_traces`` is ``(n_chains, burn_in + 1)``, the initial step
    then one per burn-in iteration.  ``seeds`` holds each chain's seed token.
    """

    states: np.ndarray
    accepted: np.ndarray
    log_posteriors: np.ndarray
    step_sizes: np.ndarray
    adaptation_traces: np.ndarray
    seeds: tuple[str, ...]

    @property
    def acceptance_rates(self) -> np.ndarray:
        return self.accepted.mean(axis=1)


def log_posterior_and_grad(model, params: LossParams, z) -> tuple:
    """Log posterior ``-loss/gamma`` (constant aside) and its exact gradient.

    ``z`` is one stacked vector, or ``(chains, size)`` rows with one value
    and one gradient row each; a one-row batch gives its vector's value and
    gradient bit for bit.
    """
    loss = PickleLoss(model, params)
    value, grad = loss.value_grad(loss.stacked(z, batch=True))
    return -value, -grad


def leapfrog(z, momentum, step_size, n_steps, grad_fn, grad=None):
    """Fixed-length leapfrog with identity mass matrix over rows of points.

    ``z`` and ``momentum`` are ``(rows, dim)``, one point per row (a single
    point is one row); ``step_size`` is one step, or one per row.
    ``grad_fn`` returns the gradient of the log posterior at ``(rows, dim)``
    points; ``grad``, when given, is its value at ``z`` and saves the first
    call.  ``n_steps`` is a nonnegative integer; zero steps is the identity.

    A row whose position goes non-finite stops there: it is returned as it
    is, takes no further ``grad_fn`` calls, and the caller treats it as a
    rejected proposal.  The other rows go on exactly as they would alone.
    Each call passes only the rows still finite, in row order, so the last
    call of a trajectory is at the returned points of exactly the rows whose
    positions are finite.
    """
    h = np.asarray(step_size, dtype=np.float64)
    if not (h > 0).all():
        raise ConfigError("step_size must be positive")
    z = np.array(z, dtype=np.float64)
    p = np.array(momentum, dtype=np.float64)
    if z.ndim != 2 or p.shape != z.shape:
        raise ConfigError(f"positions and momenta must share one (rows, dim) shape, got {z.shape} and {p.shape}")
    _check_count(n_steps, "n_steps", 0)
    if n_steps == 0:
        return z, p
    out_z, out_p = z, p  # rows that stop are written here; the rest at the end
    rows = np.arange(z.shape[0])  # the rows still finite, in order
    h = h.reshape(-1, 1)
    p = p + 0.5 * h * (grad_fn(z) if grad is None else grad)
    for k in range(n_steps):
        z = z + h * p
        if not np.isfinite(z).all():
            finite = np.isfinite(z).all(axis=1)
            out_z[rows[~finite]], out_p[rows[~finite]] = z[~finite], p[~finite]
            h = np.broadcast_to(h, (rows.size, 1))[finite]
            rows, z, p = rows[finite], z[finite], p[finite]
            if not rows.size:
                break
        p = p + (h if k < n_steps - 1 else 0.5 * h) * grad_fn(z)
    else:
        out_z[rows], out_p[rows] = z, p
    return out_z, out_p


def _check_count(value, name: str, least: int) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _dual_averaging(t, accept_prob, h_bar, log_step_avg):
    """Update ``t`` (from 1) of dual averaging over ``(n_chains,)`` arrays.

    ``h_bar`` starts at zero and ``log_step_avg`` at ``log(STEP_SIZE)``.
    Returns the new ``h_bar``, the next iteration's step (larger while
    acceptance beats the target) and the new log-step average, whose
    exponential is the step frozen after burn-in.
    """
    mu = np.log(10.0 * STEP_SIZE)
    h_bar = h_bar + (TARGET_ACCEPT - accept_prob - h_bar) / (t + DA_OFFSET)
    log_step = mu - np.sqrt(t) / DA_SHRINKAGE * h_bar
    eta = t ** (-DA_DECAY)
    return h_bar, np.exp(log_step), eta * log_step + (1.0 - eta) * log_step_avg


def run_hmc(model, params: LossParams, n_samples: int, n_chains: int, burn_in: int, seed: int) -> Chains:
    """Run ``n_chains`` chains from prior draws, all in lockstep.

    Each chain adapts its step over ``burn_in`` iterations, then keeps
    ``n_samples`` states; the result is one :class:`Chains` whose row ``c``
    is chain ``c``.  The chains are held as one ``(n_chains, dim)`` state,
    so every leapfrog step makes one :func:`log_posterior_and_grad` call for
    all of them.  Each chain keeps its own RNG stream (drawing, per
    iteration, its momenta, its step jitter and one accept uniform), and its
    own entries of the step, dual-averaging and trace arrays, so its draws
    do not depend on the others; only the batched products may round a
    chain's gradient differently in the last bits from a run of that chain
    alone.  A split-chain potential-scale-reduction factor above 1.05 draws
    a warning (never an error).
    """
    _check_count(n_samples, "n_samples", 1)
    _check_count(n_chains, "n_chains", 1)
    _check_count(burn_in, "burn_in", 0)
    n, dim = n_chains, model.n_xi + model.n_eta
    rngs = [spawn_rng(seed, STREAM_HMC, c) for c in range(n)]
    z = np.array([rng.standard_normal(dim) for rng in rngs])
    lp, grad = log_posterior_and_grad(model, params, z)
    bad = np.flatnonzero(~np.isfinite(lp))
    if bad.size:
        c = int(bad[0])
        raise NumericalError(
            f"chain {c}: non-finite log posterior at the initial point "
            f"(seed {seed_token(seed, STREAM_HMC, c)})"
        )

    # Log posterior and gradient at the last points grad_fn saw.  Leapfrog's
    # last call is at the proposals still finite, so their log posteriors,
    # and their gradients once accepted, are read from here instead of being
    # evaluated again.
    last = {}

    def grad_fn(x):
        last["lp"], last["grad"] = log_posterior_and_grad(model, params, x)
        return last["grad"]

    step = np.full(n, STEP_SIZE)
    h_bar, log_step_avg = np.zeros(n), np.full(n, np.log(STEP_SIZE))
    traces = np.full((n, burn_in + 1), STEP_SIZE)
    states = np.empty((n, n_samples, dim))
    flags = np.empty((n, n_samples), dtype=bool)
    lps = np.empty((n, n_samples))

    for t in range(burn_in + n_samples):
        p = np.array([rng.standard_normal(dim) for rng in rngs])
        step_t = step * np.array([rng.uniform(*STEP_JITTER) for rng in rngs])
        # Divergent trajectories overflow before they are rejected; the
        # resulting warnings carry no information, so mute them here.
        with np.errstate(over="ignore", invalid="ignore"):
            z_new, p_new = leapfrog(z, p, step_t, LEAPFROG_STEPS, grad_fn, grad)
            live = np.isfinite(z_new).all(axis=1)
            lp_new, grad_new = np.full(n, -np.inf), np.zeros((n, dim))
            if live.any():
                lp_new[live], grad_new[live] = last["lp"], last["grad"]
            # The kinetic energies are per-row dots, as one chain's p @ p.
            log_alpha = (lp_new - lp) + 0.5 * (np.vecdot(p, p) - np.vecdot(p_new, p_new))
            log_alpha[~(live & np.isfinite(p_new).all(axis=1))] = -np.inf
        alpha = np.where(np.isfinite(log_alpha), np.exp(np.minimum(0.0, log_alpha)), 0.0)
        accept = np.array([rng.uniform() for rng in rngs]) < alpha
        z[accept], lp[accept], grad[accept] = z_new[accept], lp_new[accept], grad_new[accept]

        if t < burn_in:
            h_bar, step, log_step_avg = _dual_averaging(t + 1, alpha, h_bar, log_step_avg)
            traces[:, t + 1] = step
            if t == burn_in - 1:
                step = np.exp(log_step_avg)
        else:
            k = t - burn_in
            states[:, k], flags[:, k], lps[:, k] = z, accept, lp

    chains = Chains(
        states=states,
        accepted=flags,
        log_posteriors=lps,
        step_sizes=step,
        adaptation_traces=traces,
        seeds=tuple(seed_token(seed, STREAM_HMC, c) for c in range(n)),
    )
    if n_samples >= 4:
        worst = float(np.max(split_chain_psrf(states)))
        if worst > PSRF_WARN_THRESHOLD:
            warnings.warn(
                f"split-chain PSRF {worst:.3f} exceeds {PSRF_WARN_THRESHOLD}; "
                "chains may not have mixed"
            )
    return chains


def split_chain_psrf(states) -> np.ndarray:
    """Per-coordinate potential scale reduction over half-chains.

    ``states`` is ``(n_chains, n_samples, dim)``.  Splitting each chain in
    half (its first and second ``n_samples // 2`` states, an odd last one
    dropped) doubles the sequence count and makes the statistic sensitive to
    within-chain drift even for a single chain.
    """
    states = np.asarray(states)
    n_chains, n_samples, dim = states.shape
    n = n_samples // 2
    if n < 2:
        raise ConfigError("need at least 4 samples per chain for split PSRF")
    # Chain c's halves are sequences 2c and 2c + 1.
    seqs = states[:, : 2 * n].reshape(2 * n_chains, n, dim)
    means = seqs.mean(axis=1)
    variances = seqs.var(axis=1, ddof=1)
    w = variances.mean(axis=0)
    b = n * means.var(axis=0, ddof=1)
    var_plus = (n - 1) / n * w + b / n
    with np.errstate(divide="ignore", invalid="ignore"):
        psrf = np.sqrt(var_plus / w)
    # Zero within-sequence variance (constant chains) means perfect agreement.
    return np.where(w > 0, psrf, 1.0)


# ---------------------------------------------------------------------------
# Serialization


def chains_to_csv(chains: Chains, n_xi: int, path, meta: dict | None = None) -> None:
    """One row per retained state: seed, chain id, coefficients, log posterior, flag."""
    n_chains, _, dim = chains.states.shape
    n_eta = dim - n_xi
    cols = (
        ["seed", "chain_id"]
        + [f"xi_{i}" for i in range(n_xi)]
        + [f"eta_{i}" for i in range(n_eta)]
        + ["log_posterior", "accepted"]
    )
    comments = {"n_xi": n_xi, "n_eta": n_eta, "n_chains": n_chains}
    comments.update(sorted((meta or {}).items()))
    rows = (
        [seed, c, *map(float_token, state), float_token(log_post), "1" if accepted else "0"]
        for c, seed in enumerate(chains.seeds)
        for state, log_post, accepted in zip(chains.states[c], chains.log_posteriors[c], chains.accepted[c])
    )
    write_table(path, comments, cols, rows)


def write_hmc_manifest(chains: Chains, path, extra: dict | None = None) -> None:
    """Run manifest: config, outcomes, adaptation traces (timing lives apart).

    ``config`` holds the run's three counts, read off the arrays (the
    burn-in is one less than a trace's length), and the integrator
    constants.

    Records that the sampler is plain fixed-length leapfrog HMC standing in
    for a tree-based sampler.
    """
    n_chains, n_samples, _ = chains.states.shape
    psrf = split_chain_psrf(chains.states) if n_samples >= 4 else None
    doc = {
        "sampler": "hmc-fixed-leapfrog",
        "sampler_note": "plain HMC with a fixed leapfrog count in place of a tree-based sampler",
        "config": {
            "n_samples": n_samples,
            "n_chains": n_chains,
            "burn_in": chains.adaptation_traces.shape[1] - 1,
            "target_accept": TARGET_ACCEPT,
            "leapfrog_steps": LEAPFROG_STEPS,
            "step_size": STEP_SIZE,
        },
        "acceptance_rates": chains.acceptance_rates.tolist(),
        "adapted_step_sizes": chains.step_sizes.tolist(),
        "split_chain_psrf_max": None if psrf is None else float(np.max(psrf)),
        "adaptation_traces": chains.adaptation_traces.tolist(),
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)
