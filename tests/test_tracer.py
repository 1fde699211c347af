"""The benchmark's tracer still wraps the package.

``perfbench/tracer.py`` replaces the package's public functions and the model
methods by name.  A rename it relies on would otherwise surface only when the
benchmark runs with tracing on; here it fails the test suite instead.  The
traced stages run in a child process because installing the tracer rewrites
the package's modules in place.
"""

import json
import os
import subprocess
import sys

from rpickle import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path.insert(0, {perfbench!r})
import tracer
recorder = tracer.Recorder()
cli = tracer.install(recorder)
for stage in ("map", "sample-rpickle"):
    code = cli.main([stage, "--config", {config!r}])
    if code != 0:
        sys.exit(code)
names = {{recorder.names[index] for _, index, _, _, _ in recorder.records}}
for name in ("pickle_map.minimize_randomized", "rpickle_sampler.run_ensemble",
             "diagnostics.LinearModel.residual"):
    if name not in names:
        sys.exit("no span recorded for " + name)
if recorder.counters["lbfgs_iters"] < 1:
    sys.exit("the solve observer saw no iterations")
"""


def test_traced_linear_sample_rpickle_stage_exits_zero(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "linear_case": {"n_res": 12, "n_xi": 3, "n_eta": 2},
                "sigma_r_sq": [0.5],
                "sampler": {"kind": "rpickle", "n_ens": 20, "metropolize": True},
                "base_seed": 5,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    code = SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"), config=str(config))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
