"""The benchmark's workloads: one pipeline config per name and seed.

Each workload is a config document for the ``rpickle`` command line plus
the stages it runs.  On the two Darcy workloads the synthetic case (truth,
wells, Monte Carlo head prior, MAP) is the fixed experiment at
``CASE_SEED``, and the benchmark seed is passed to the sampling stages as
``--seed``, so it drives the noise draws, the Metropolis decisions and the
HMC chains.  Letting the seed pick the case as well would let it pick the
coefficient count through the energy rule (12 to 18 on darcy8-lowdim across
seeds 1-8) and with it the cost of every sample, which spreads the figures
far wider than the bounds.  On linear-oracle the seed draws the linear model
itself: its size is fixed, so the cost moves little with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

CASE_SEED = 7

SETUP_STAGES = ("generate", "build-prior", "map")
ROUND_STAGES = ("sample-rpickle", "sample-hmc")


def gamma_dir(out_dir, gamma):
    """Directory the pipeline writes one sigma_r_sq value's results to."""
    return os.path.join(out_dir, f"gamma_{float(gamma)!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict
    threads: int
    seed_drives_case: bool

    @property
    def darcy(self) -> bool:
        return self.doc.get("linear_case") is None

    @property
    def setup_stages(self) -> tuple:
        return SETUP_STAGES if self.darcy else ("map",)

    @property
    def final_stages(self) -> tuple:
        """Stages run once after the measured rounds."""
        return ("diagnose",) if self.darcy else ()

    @property
    def sampler(self) -> dict:
        return self.doc["sampler"]

    @property
    def hmc_iterations(self) -> int:
        s = self.sampler
        return (s["hmc_burn_in"] + s["hmc_samples"]) * s["hmc_chains"]

    def config(self, seed: int, output_dir: str) -> dict:
        doc = dict(self.doc, output_dir=output_dir)
        doc["base_seed"] = seed if self.seed_drives_case else CASE_SEED
        return doc

    def stage_args(self, stage: str, seed: int) -> list:
        """Extra command-line flags for one stage."""
        args = ["--threads", str(self.threads)]
        if not self.seed_drives_case and stage not in SETUP_STAGES:
            args += ["--seed", str(seed)]
        return args


_BC = {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0}
_KERNEL = {"sigma": 0.7, "length_scale": 0.5, "fit": True}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="darcy8-lowdim",
            why="paper's 64-cell validation case: both samplers dominate; shows optimizer, log-det, gradient and thread-pool changes",
            doc={
                "mesh": {"nx": 8, "ny": 8, "bc": _BC},
                "kernel": _KERNEL,
                "truncation": {"energy": 0.95},
                "observations": {"n_y_obs": 16, "n_u_obs": 16},
                "smoothing_iterations": 2,
                "mc_draws": 4000,
                "sigma_r_sq": [1e-2],
                "sampler": {
                    "kind": "both",
                    "n_ens": 250,
                    "metropolize": True,
                    "hmc_samples": 100,
                    "hmc_chains": 3,
                    "hmc_burn_in": 100,
                },
            },
            threads=2,
            seed_drives_case=False,
        ),
        Workload(
            name="darcy32-highdim",
            why="1,024 cells and 65 coefficients: set-up (MC head prior, full eigensolves) dominates and every residual call costs",
            doc={
                "mesh": {"nx": 32, "ny": 32, "bc": _BC},
                "kernel": _KERNEL,
                "truncation": {"energy": 0.95},
                "observations": {"n_y_obs": 64, "n_u_obs": 64},
                "smoothing_iterations": 2,
                "mc_draws": 4000,
                "sigma_r_sq": [1e-2],
                "sampler": {
                    "kind": "both",
                    "n_ens": 250,
                    "metropolize": False,
                    "hmc_samples": 100,
                    "hmc_chains": 1,
                    "hmc_burn_in": 100,
                },
            },
            threads=1,
            seed_drives_case=False,
        ),
        Workload(
            name="linear-oracle",
            why="linear model with a closed-form posterior and no PDE: only optimizer and sampler overhead, mesh and prior bypassed",
            doc={
                "linear_case": {"n_res": 30, "n_xi": 5, "n_eta": 4},
                "sigma_r_sq": [0.5],
                "sampler": {
                    "kind": "both",
                    "n_ens": 400,
                    "metropolize": True,
                    "hmc_samples": 300,
                    "hmc_chains": 3,
                    "hmc_burn_in": 100,
                },
            },
            threads=1,
            seed_drives_case=True,
        ),
    )
}
