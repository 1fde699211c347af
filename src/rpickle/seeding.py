"""Deterministic RNG streams derived from one base seed, and the artifact layout.

Every random draw in the package comes from a generator built by
:func:`spawn_rng` with a ``(stream, index)`` path, so results are
bit-identical for a fixed base seed whatever order the draws are computed
in: draw ``i`` of stream ``s`` is the same generator whether it is the first
thing computed or the last, and no draw consumes another's stream.  Stream
ids are fixed constants; per-item counters (sample index, chain id, Monte
Carlo draw) form the rest of the path.

It is also the one module that opens artifact files, so reruns stay
byte-identical and every value reads back exactly.  :func:`float_token` is
the one text form of a float; :func:`write_json` writes one line of compact
JSON; :func:`write_table` writes ``# key=value`` lines, then the
comma-joined header and rows, each ending in ``\n``.  :func:`read_json` and
:func:`read_table` read them back and raise ``ConfigError`` naming the file
if it is missing, unreadable or a directory, malformed JSON or no JSON
object, or a table without a header line; callers check keys and columns.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError

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


def _read_text(path, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, unreadable, or not text
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as one line of compact JSON with sorted keys, then a newline."""
    with open(path, "w") as fh:  # json.dumps runs the C encoder, json.dump the pure-Python one; same bytes
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path, what: str) -> dict:
    """The JSON object in ``path``; ``what`` (say ``"map file"``) names the file in errors."""
    text = _read_text(path, what)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # not JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def write_table(path, comments: dict, header, rows) -> None:
    """Write ``# key=value`` lines in ``comments``' order, then ``header`` and ``rows`` (cells as ``str``)."""
    lines = [f"# {key}={value}" for key, value in comments.items()]
    lines.append(",".join(header))
    lines.extend(",".join(map(str, row)) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path) -> tuple[dict, list, list]:
    """A table's ``(comments, header, rows)``: comment keys to value texts, and lists of cell texts.

    Blank lines are skipped.
    """
    comments, table = {}, []
    for line in _read_text(path, "table").split("\n"):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            comments[key] = value
        elif line:
            table.append(line.split(","))
    if not table:
        raise ConfigError(f"table {path} is empty or has no header line")
    return comments, table[0], table[1:]
