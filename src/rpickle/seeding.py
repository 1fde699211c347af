"""Deterministic RNG streams derived from one base seed.

Every random draw in the package comes from a generator built by
:func:`spawn_rng` with a ``(stream, index)`` path, so results are
bit-identical for a fixed base seed whatever order the draws are computed
in: draw ``i`` of stream ``s`` is the same generator whether it is the first
thing computed or the last, and no draw consumes another's stream.  Stream
ids are fixed constants; per-item counters (sample index, chain id, Monte
Carlo draw) form the rest of the path.
:func:`float_token` is the one text form of a float in every artifact, so
reruns stay byte-identical and every value reads back exactly, and
:func:`write_json` is the one compact layout of every JSON artifact.
"""

from __future__ import annotations

import json

import numpy as np

# Stream ids. Values are part of the on-disk reproducibility contract: changing
# them changes every artifact produced for a given base seed.
STREAM_REFERENCE = 0  # reference-field coefficient draw
STREAM_WELLS = 1  # observation-well selection
STREAM_MC_PRIOR = 2  # Monte Carlo state-prior coefficient draws (per draw)
STREAM_NOISE = 3  # randomized-loss noise draws (per sample)
STREAM_METROPOLIS = 4  # accept/reject uniforms for the sample filter
STREAM_HMC = 5  # HMC init/momenta/uniforms (per chain)


def spawn_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream path ``path`` under ``base_seed``."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=path))


def seed_token(base_seed: int, *path: int) -> str:
    """Human-readable reproducibility token for a draw (``"seed/stream/..."``)."""
    return "/".join(str(p) for p in (base_seed, *path))


def float_token(x) -> str:
    """Shortest text that reads back as the same float (``repr``)."""
    return repr(float(x))


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as one line of compact JSON with sorted keys, then a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
