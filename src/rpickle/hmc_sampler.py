"""Hamiltonian Monte Carlo over the stacked coefficients.

Reference sampler for desk-scale validation of the randomized-minimization
ensembles.  The target is the coefficient posterior ``-loss/gamma`` (up to a
constant); proposals integrate Hamiltonian dynamics with a plain fixed-length
leapfrog and identity mass matrix, and the step size adapts during burn-in by
dual averaging toward a target acceptance rate, then freezes.  Each iteration
jitters the step within a narrow band to avoid resonant trajectories.  Chains
are independent (one RNG stream each) and run one after another in chain-id
order; no chain's result depends on that order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import warnings

import numpy as np

from .errors import ConfigError, NumericalError
from .pickle_map import LossParams, PickleLoss
from .seeding import STREAM_HMC, float_token, seed_token, spawn_rng, write_json

__all__ = [
    "HmcConfig",
    "Chain",
    "log_posterior_and_grad",
    "leapfrog",
    "run_hmc",
    "split_chain_psrf",
    "chains_to_csv",
    "write_hmc_manifest",
]

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
class HmcConfig:
    """Chain layout and integrator settings."""

    n_samples: int
    n_chains: int = 3
    burn_in: int = 20_000
    target_accept: float = 0.70
    leapfrog_steps: int = 32
    step_size: float = 0.1
    adapt: bool = True

    def __post_init__(self):
        if self.n_samples < 1 or self.n_chains < 1 or self.leapfrog_steps < 1:
            raise ConfigError("sample, chain, and leapfrog counts must be positive")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if not 0.0 < self.target_accept < 1.0:
            raise ConfigError("target_accept must lie in (0, 1)")
        if not self.step_size > 0:
            raise ConfigError("step_size must be positive")


@dataclass(frozen=True)
class Chain:
    """Post-burn-in states of one chain, with adaptation bookkeeping."""

    states: np.ndarray
    accept_flags: np.ndarray
    adapted_step_size: float
    log_posteriors: np.ndarray
    adaptation_trace: np.ndarray
    chain_id: int
    seed: str

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.float64))
        object.__setattr__(self, "accept_flags", np.asarray(self.accept_flags, dtype=bool))
        object.__setattr__(self, "log_posteriors", np.asarray(self.log_posteriors, dtype=np.float64))
        object.__setattr__(self, "adaptation_trace", np.asarray(self.adaptation_trace, dtype=np.float64))
        if not np.all(np.isfinite(self.states)):
            raise ConfigError("chain states must be finite")
        if self.states.shape[0] != self.accept_flags.shape[0]:
            raise ConfigError("accept_flags length must match states")

    @property
    def acceptance_rate(self) -> float:
        return float(self.accept_flags.mean())


def log_posterior_and_grad(model, params: LossParams, z) -> tuple[float, np.ndarray]:
    """Log posterior ``-loss/gamma`` (constant aside) and its exact gradient."""
    loss = PickleLoss(model, params)
    value, grad = loss.value_grad(loss.stacked(z))
    return -value, -grad


def leapfrog(z, momentum, step_size, n_steps, grad_fn, grad=None):
    """Fixed-length leapfrog with identity mass matrix.

    ``grad_fn`` returns the gradient of the log posterior; ``grad``, when
    given, is its value at ``z`` and saves the first call.  Zero steps is the
    identity.  Otherwise the last ``grad_fn`` call of a finite trajectory is
    at the returned point.  A non-finite trajectory is returned as-is; the
    caller treats it as a rejected proposal.
    """
    if not step_size > 0:
        raise ConfigError("step_size must be positive")
    z = np.array(z, dtype=np.float64)
    p = np.array(momentum, dtype=np.float64)
    if n_steps == 0:
        return z, p
    p = p + 0.5 * step_size * (grad_fn(z) if grad is None else grad)
    for k in range(n_steps):
        z = z + step_size * p
        if not np.all(np.isfinite(z)):
            return z, p
        if k < n_steps - 1:
            p = p + step_size * grad_fn(z)
    p = p + 0.5 * step_size * grad_fn(z)
    return z, p


class _DualAveraging:
    """Standard dual-averaging step-size recursion, plus the frozen average.

    Each :meth:`update` with an iteration's acceptance probability pulls the
    log-step toward more (less) aggressive values while acceptance stays
    above (below) the target, and returns the step the next iteration uses.
    """

    def __init__(self, initial_step_size, target_accept):
        self.mu = np.log(10.0 * initial_step_size)
        self.target = target_accept
        self.h_bar = 0.0
        self.log_step = np.log(initial_step_size)
        self.log_step_avg = np.log(initial_step_size)
        self.t = 0

    def update(self, accept_prob) -> float:
        self.t += 1
        self.h_bar += (self.target - accept_prob - self.h_bar) / (self.t + DA_OFFSET)
        self.log_step = self.mu - np.sqrt(self.t) / DA_SHRINKAGE * self.h_bar
        eta = self.t ** (-DA_DECAY)
        self.log_step_avg = eta * self.log_step + (1.0 - eta) * self.log_step_avg
        return float(np.exp(self.log_step))

    @property
    def frozen_step(self) -> float:
        return float(np.exp(self.log_step_avg))


def _run_chain(model, params, config: HmcConfig, seed: int, chain_id: int) -> Chain:
    rng = spawn_rng(seed, STREAM_HMC, chain_id)
    dim = model.n_xi + model.n_eta
    z = rng.standard_normal(dim)

    # Log posterior and gradient at the last point grad_fn saw.  Leapfrog's
    # last call is at the proposal, so its log posterior, and its gradient
    # once accepted, are read from here instead of being evaluated again.
    last = {}

    def grad_fn(x):
        last["lp"], last["grad"] = log_posterior_and_grad(model, params, x)
        return last["grad"]

    lp, grad = log_posterior_and_grad(model, params, z)
    if not np.isfinite(lp):
        raise NumericalError(
            f"chain {chain_id}: non-finite log posterior at the initial point "
            f"(seed {seed_token(seed, STREAM_HMC, chain_id)})"
        )

    adapter = _DualAveraging(config.step_size, config.target_accept)
    step = config.step_size
    trace = [step]
    states = np.empty((config.n_samples, dim))
    flags = np.empty(config.n_samples, dtype=bool)
    lps = np.empty(config.n_samples)
    total = config.burn_in + config.n_samples

    for t in range(total):
        p = rng.standard_normal(dim)
        step_t = step * rng.uniform(*STEP_JITTER)
        # Divergent trajectories overflow before they are rejected; the
        # resulting warnings carry no information, so mute them here.
        with np.errstate(over="ignore", invalid="ignore"):
            z_new, p_new = leapfrog(z, p, step_t, config.leapfrog_steps, grad_fn, grad)
            finite = np.all(np.isfinite(z_new)) and np.all(np.isfinite(p_new))
            if finite:
                lp_new = last["lp"]
                log_alpha = (lp_new - lp) + 0.5 * (p @ p - p_new @ p_new)
            else:
                lp_new, log_alpha = -np.inf, -np.inf
        alpha = float(np.exp(min(0.0, log_alpha))) if np.isfinite(log_alpha) else 0.0
        accept = rng.uniform() < alpha
        if accept:
            z, lp, grad = z_new, lp_new, last["grad"]

        if config.adapt and t < config.burn_in:
            step = adapter.update(alpha)
            trace.append(step)
            if t == config.burn_in - 1:
                step = adapter.frozen_step
        if t >= config.burn_in:
            k = t - config.burn_in
            states[k] = z
            flags[k] = accept
            lps[k] = lp

    return Chain(
        states=states,
        accept_flags=flags,
        adapted_step_size=step,
        log_posteriors=lps,
        adaptation_trace=np.asarray(trace),
        chain_id=chain_id,
        seed=seed_token(seed, STREAM_HMC, chain_id),
    )


def run_hmc(model, params: LossParams, config: HmcConfig, seed: int) -> list[Chain]:
    """Run independent chains initialized from prior draws, in chain-id order.

    Chains use one RNG stream each, so a chain's result does not depend on
    the others.  A split-chain potential-scale-reduction factor above 1.05
    draws a warning (never an error).
    """
    chains = [_run_chain(model, params, config, seed, c) for c in range(config.n_chains)]

    if config.n_samples >= 4:
        psrf = split_chain_psrf(chains)
        worst = float(np.max(psrf))
        if worst > PSRF_WARN_THRESHOLD:
            warnings.warn(
                f"split-chain PSRF {worst:.3f} exceeds {PSRF_WARN_THRESHOLD}; "
                "chains may not have mixed"
            )
    return chains


def split_chain_psrf(chains) -> np.ndarray:
    """Per-coordinate potential scale reduction over half-chains.

    Splitting each chain in half doubles the sequence count and makes the
    statistic sensitive to within-chain drift even for a single chain.
    """
    halves = []
    for chain in chains:
        states = chain.states
        n = states.shape[0] // 2
        if n < 2:
            raise ConfigError("need at least 4 samples per chain for split PSRF")
        halves.append(states[:n])
        halves.append(states[n : 2 * n])
    seqs = np.asarray(halves)  # (m, n, dim)
    m, n, _ = seqs.shape
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


def chains_to_csv(chains, n_xi: int, path, meta: dict | None = None) -> None:
    """One row per retained state: seed, chain id, coefficients, log posterior, flag."""
    if not chains:
        raise ConfigError("no chains to serialize")
    dim = chains[0].states.shape[1]
    n_eta = dim - n_xi
    cols = (
        ["seed", "chain_id"]
        + [f"xi_{i}" for i in range(n_xi)]
        + [f"eta_{i}" for i in range(n_eta)]
        + ["log_posterior", "accepted"]
    )
    lines = [f"# n_xi={n_xi}", f"# n_eta={n_eta}", f"# n_chains={len(chains)}"]
    for key in sorted(meta or {}):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(cols))
    for chain in chains:
        for k in range(chain.states.shape[0]):
            row = [chain.seed, str(chain.chain_id)]
            row += [float_token(v) for v in chain.states[k]]
            row.append(float_token(chain.log_posteriors[k]))
            row.append("1" if chain.accept_flags[k] else "0")
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_hmc_manifest(chains, config: HmcConfig, params: LossParams, path, extra: dict | None = None) -> None:
    """Run manifest: config, outcomes, adaptation traces (timing lives apart).

    Records that the sampler is plain fixed-length leapfrog HMC standing in
    for a tree-based sampler.
    """
    psrf = split_chain_psrf(chains) if chains and chains[0].states.shape[0] >= 4 else None
    doc = {
        "sampler": "hmc-fixed-leapfrog",
        "sampler_note": "plain HMC with a fixed leapfrog count in place of a tree-based sampler",
        "config": asdict(config),
        "gamma": params.sigma_r_sq,
        "acceptance_rates": [chain.acceptance_rate for chain in chains],
        "adapted_step_sizes": [chain.adapted_step_size for chain in chains],
        "split_chain_psrf_max": None if psrf is None else float(np.max(psrf)),
        "adaptation_traces": [chain.adaptation_trace.tolist() for chain in chains],
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)
