"""Benchmark of the ``rpickle`` pipeline, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload darcy8-lowdim --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's config, runs the command-line stages as
a user would (``python3 -m rpickle.cli STAGE --config ...`` with ``src`` on
the path), checks their outputs against independent references, and prints
one JSON object as the last line of standard output.  Set-up stages
(``generate``, ``build-prior``, ``map``) run once; the sampling stages then
run in whole rounds until the next round would end past ``--seconds``;
``diagnose`` runs once at the end.  Every round repeats the same commands,
so the figures are medians over rounds.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every stage runs under ``perfbench/tracer.py`` and the metrics are the
per-layer ones: set-up and final stages count once and round stages count
as their mean over the rounds.  Each run leaves its config, outputs, stage
logs, spans and a ``result.json`` under ``.bench_runs/``.  BLAS threading is
left as the environment sets it and recorded with the result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from workloads import ROUND_STAGES, WORKLOADS, gamma_dir  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
STAGE_TIMEOUT_S = 150
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class StageFailed(Exception):
    pass


class Pipeline:
    """Runs stages of one workload as subprocesses and keeps their wall times."""

    def __init__(self, root, run_dir, workload, seed, trace):
        self.root = root
        self.run_dir = run_dir
        self.out_dir = os.path.join(run_dir, "out")
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.config = workload.config(seed, self.out_dir)
        self.config_path = os.path.join(run_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=2)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.walls = []  # (stage, seconds) in run order
        self.spans = []  # (stage, span file) in run order
        self.bytes = []  # (stage, bytes written) in run order
        self.cpu = []  # (stage, cpu seconds) in run order
        self.stages_run = 0
        self.stages_failed = 0

    def run(self, stage):
        args = [stage, "--config", self.config_path] + self.workload.stage_args(stage, self.seed)
        if self.trace:
            spans = os.path.join(self.run_dir, "spans", f"{len(self.walls):03d}-{stage}.npz")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans] + args
            before = _file_state(self.out_dir)
        else:
            cmd = [sys.executable, "-m", "rpickle.cli"] + args
        self.stages_run += 1
        cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S
            )
            code = proc.returncode
            log = proc.stdout + proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, log = "timeout", f"{exc}\n"
        wall = time.perf_counter() - start
        done = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu.append((stage, done.ru_utime + done.ru_stime - cpu.ru_utime - cpu.ru_stime))
        with open(os.path.join(self.run_dir, "stages.log"), "a") as fh:
            fh.write(f"$ {' '.join(cmd)}\n{log}[exit {code}, {wall:.3f} s]\n")
        if code != 0:
            self.stages_failed += 1
            raise StageFailed(f"stage {stage} exited {code}; see {self.run_dir}/stages.log")
        self.walls.append((stage, wall))
        if self.trace:
            self.spans.append((stage, spans))
            after = _file_state(self.out_dir)
            self.bytes.append((stage, sum(size for path, (_, size) in after.items() if before.get(path) != after[path])))
        return wall


def _file_state(root):
    """``path -> (mtime_ns, size)`` of the artifacts under ``root``, timing.json aside."""
    state = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name != "timing.json":
                st = os.stat(os.path.join(dirpath, name))
                state[os.path.join(dirpath, name)] = (st.st_mtime_ns, st.st_size)
    return state


def environment():
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_rounds(pipe, seconds, rounds):
    """Append whole rounds of the sampling stages until the next would end past ``seconds``."""
    window = time.perf_counter()
    while True:
        start = time.perf_counter()
        walls = {stage: pipe.run(stage) for stage in ROUND_STAGES}
        manifest = os.path.join(gamma_dir(pipe.out_dir, pipe.config["sigma_r_sq"][0]), "rpickle.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        rounds.append({"walls": walls, "n_ens": doc["n_ens"], "n_failed": doc["n_failed"], "digest": _digest(pipe.out_dir)})
        now = time.perf_counter()
        if now - window + (now - start) > seconds:
            return


def _digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(_file_state(out_dir)):
        if "gamma_" in path and path.endswith((".csv", "rpickle.json", "hmc.json")):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def end_to_end(pipe, setup_s, rounds):
    w = pipe.workload
    setup_walls = sum(wall for stage, wall in pipe.walls if stage in w.setup_stages)
    final_walls = sum(wall for stage, wall in pipe.walls if stage in w.final_stages)
    round_totals = [sum(r["walls"].values()) for r in rounds]
    return {
        "setup_s": (setup_s, "s"),
        "rpickle_samples_per_s": (statistics.median(r["n_ens"] / r["walls"]["sample-rpickle"] for r in rounds), "samples/s"),
        "hmc_iters_per_s": (statistics.median(w.hmc_iterations / r["walls"]["sample-hmc"] for r in rounds), "iterations/s"),
        "total_s": (setup_walls + statistics.median(round_totals) + final_walls, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the rpickle pipeline on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rpickle", "cli.py")):
        print(f"error: {root} holds no src/rpickle; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(root, ".bench_runs", f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    pipe = Pipeline(root, run_dir, workload, args.seed, args.trace)

    rounds = []
    error = None
    try:
        for stage in workload.setup_stages:
            pipe.run(stage)
        setup_s = time.perf_counter() - T0
        run_rounds(pipe, args.seconds, rounds)
        for stage in workload.final_stages:
            pipe.run(stage)
    except StageFailed as exc:
        error = str(exc)

    # Modules that load numpy come in after the stages, so set-up time holds only the stages.
    import checks

    results = []
    figures = {}
    metrics = {}
    if error is None:
        results = checks.run_checks(workload, pipe.config, pipe.out_dir)
        last = {stage: wall for stage, wall in pipe.walls}
        results.append(checks.check_timing(last, pipe.out_dir))
        digests = {r["digest"] for r in rounds}
        results.append(("rounds are byte-identical", len(digests) == 1, f"{len(rounds)} rounds, {len(digests)} distinct outputs"))
        figures = end_to_end(pipe, setup_s, rounds)
        if args.trace:
            from layers import layer_metrics

            metrics = layer_metrics(pipe, len(rounds))
        else:
            metrics = figures
    attempted = pipe.stages_run + sum(r["n_ens"] for r in rounds)
    failed = pipe.stages_failed + sum(r["n_failed"] for r in rounds)
    correct = error is None and all(ok for _, ok, _ in results)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "error": error,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "stage_walls": pipe.walls,
        "stage_cpu": pipe.cpu,
        "rounds": rounds,
        "figures": {name: value for name, (value, _) in figures.items()},
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if error:
        print(f"FAIL {error}")
    print(f"perfbench: {len(rounds)} rounds, environment {json.dumps(record['environment'], sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
