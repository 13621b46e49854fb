"""Run one qmp CLI command with spans around every public function.

    python3 perfbench/traced_cli.py SPANS.npz CMD_ID -- ARGS...

Before calling qmp.cli.main(ARGS), wraps the public functions of cli,
kinematics, unitary_recon, dissipative_recon, bloch, measures and qcore
(module attributes, so calls made through a module are seen), the
names cli and dissipative_recon import from qcore, and the scenario
samplers. Spans stay in memory and are written to SPANS.npz when the
command returns (see Tracer.dump). The exit code is the command's.
"""

import functools
import inspect
import os
import sys
import time

import numpy as np
from qmp import bloch, cli, dissipative_recon, kinematics, measures, qcore, unitary_recon

MODULES = {
    "cli": cli,
    "kinematics": kinematics,
    "unitary_recon": unitary_recon,
    "dissipative_recon": dissipative_recon,
    "bloch": bloch,
    "measures": measures,
    "qcore": qcore,
}


class Tracer:
    """Spans as (name index, start, end, parent span index), plus one
    attribute per span where a hook records one (bytes, steps, counts)."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.attrs = {}
        self._stack = []

    def wrap(self, name, fn, hook=None):
        idx = len(self.names)
        self.names.append(name)
        spans, attrs, stack, clock = self.spans, self.attrs, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent)
            if hook is not None:
                attrs[sid] = hook(args, kwargs, out)
            return out

        return traced

    def dump(self, path, cmd_id):
        """One .npz: spans as int64 rows (name index, start ns, end ns,
        parent row or -1), the span names, and the hook attributes."""
        np.savez(
            path,
            cmd=np.array(cmd_id),
            names=np.array(self.names),
            spans=np.array(self.spans, dtype=np.int64).reshape(-1, 4),
            attr_span=np.array(list(self.attrs), dtype=np.int64),
            attr_value=np.array(list(self.attrs.values()), dtype=np.int64),
        )


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Hooks record what a span did, read by run.py as per-layer counts.
HOOKS = {
    "cli.load_trajectory": lambda a, k, out: os.path.getsize(_arg(a, k, 0, "path")),
    "qcore.rk4_integrate": lambda a, k, out: int(_arg(a, k, 4, "n_steps")),
    "dissipative_recon.candidate_diagonals": lambda a, k, out: len(out),
    "dissipative_recon.cp_check": lambda a, k, out: int(out.valid),
}


def instrument(tracer: Tracer):
    originals = {}
    for short, mod in MODULES.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            originals[obj] = name
            setattr(mod, attr, tracer.wrap(name, obj, HOOKS.get(name)))
    for mod in (cli, dissipative_recon):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == qcore.__name__ and obj in originals:
                name = originals[obj]
                setattr(mod, attr, tracer.wrap(name, obj, HOOKS.get(name)))
    scenario = kinematics._Scenario
    scenario.joint = tracer.wrap("kinematics.sample", scenario.joint)
    scenario.marginals = tracer.wrap("kinematics.sample", scenario.marginals)


def main():
    spans_path, cmd_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.npz CMD_ID -- ARGS...")
    tracer = Tracer()
    instrument(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(spans_path, cmd_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
