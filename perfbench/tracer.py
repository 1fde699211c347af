"""Run one ``rpickle`` command-line stage with spans around the package's functions.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.npz STAGE --config CFG [...]

Every public function of the package's modules, and the model methods, is
replaced from outside by a wrapper that records a span (name, start, end,
parent).  A name one module imports from another is replaced wherever it is
looked up, including the CLI's stage table, or calls through it would go
uncounted.  Spans stay in memory and are written to ``SPANS.npz`` when the
stage ends.  A span opened on a worker thread with no open span of its own
gets the innermost open span of the main thread as parent, which is the
call that started the pool.

:func:`summarize` turns span files into per-name call counts, inclusive
times and self times (duration minus the union of the children's
intervals).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

MODULES = (
    "mesh_fv",
    "gp_prior",
    "field_gen",
    "pickle_map",
    "rpickle_sampler",
    "hmc_sampler",
    "diagnostics",
    "cli",
)
METHODS = {
    ("pickle_map", "ResidualModel"): ("residual", "vjp", "jacobians", "hessian_contract"),
    ("diagnostics", "LinearModel"): ("residual", "vjp", "jacobians", "hessian_contract"),
}


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names = []
        self.records = []
        self.counters = {"lbfgs_iters": 0, "unconverged": 0}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name, fn, observe=None):
        index = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else -1
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.records.append((sid, index, parent, start, end))
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def observe_solve(self, result):
        self.counters["lbfgs_iters"] += int(result.n_iter)
        self.counters["unconverged"] += 0 if result.converged else 1

    def save(self, path):
        recs = np.array(self.records, dtype=np.float64).reshape(-1, 5)
        np.savez(
            path,
            names=np.array(self.names),
            span=recs[:, 0].astype(np.int64),
            name=recs[:, 1].astype(np.int64),
            parent=recs[:, 2].astype(np.int64),
            start=recs[:, 3],
            end=recs[:, 4],
            counters=np.array(json.dumps(self.counters)),
        )


def install(recorder):
    """Wrap the package's public functions and model methods in place."""
    modules = {name: importlib.import_module(f"rpickle.{name}") for name in MODULES}
    wrappers = {}
    for mod_name, mod in modules.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                observe = recorder.observe_solve if attr == "minimize_randomized" else None
                wrappers[fn] = recorder.wrap(f"{mod_name}.{attr}", fn, observe)
    for (mod_name, cls_name), methods in METHODS.items():
        cls = getattr(modules[mod_name], cls_name)
        for meth in methods:
            setattr(cls, meth, recorder.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrappers:
                        value[key] = wrappers[item]
    return modules["cli"]


def summarize(path):
    """Per-name ``{"calls", "self_s", "total_s"}`` plus the counters of one span file."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    span, name, parent = data["span"], data["name"], data["parent"]
    start, end = data["start"], data["end"]
    duration = end - start
    covered = np.zeros(span.size)
    position = {int(s): i for i, s in enumerate(span)}
    order = np.lexsort((start, parent))
    i = 0
    while i < order.size:
        p = int(parent[order[i]])
        j = i
        while j < order.size and parent[order[j]] == p:
            j += 1
        if p in position:
            k = position[p]
            lo, hi = start[k], end[k]
            run_start = run_end = None
            total = 0.0
            for c in order[i:j]:
                s, e = max(start[c], lo), min(end[c], hi)
                if e <= s:
                    continue
                if run_end is None or s > run_end:
                    if run_end is not None:
                        total += run_end - run_start
                    run_start, run_end = s, e
                else:
                    run_end = max(run_end, e)
            if run_end is not None:
                total += run_end - run_start
            covered[k] = total
        i = j
    out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in names}
    self_time = duration - covered
    for idx, n in enumerate(names):
        mask = name == idx
        out[n]["calls"] = int(np.count_nonzero(mask))
        out[n]["self_s"] = float(self_time[mask].sum())
        out[n]["total_s"] = float(duration[mask].sum())
    return out, json.loads(str(data["counters"]))


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py SPANS.npz STAGE [ARGS...]", file=sys.stderr)
        return 2
    recorder = Recorder()
    cli = install(recorder)
    try:
        return cli.main(argv[1:])
    finally:
        recorder.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
