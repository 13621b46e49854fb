"""End-to-end benchmark of the qmp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every command runs as a user runs it:
one fresh `python -m qmp.cli ...` process at a time against the
checkout's src/ (a closed loop with one client). A run sets up the
workload's inputs several times, then repeats the workload's command
sequence until S seconds have passed (and at least twice), checks every
output, and prints one JSON line with the end-to-end metrics. With
--trace 1 each command instead runs under traced_cli.py, which records
a span around every public function of the program, and the line holds
the per-layer metrics. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import scenarios as S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_REPEATS = 3
MIN_ITERATIONS = 2
IMPORT_PROBES_PER_ITERATION = 3
MIN_TRACED_ITERATIONS = 1
COMMAND_TIMEOUT_S = 150
# A fresh interpreter timing its own `import qmp.cli`; make_inputs.py
# times the same at the top of each set-up pass.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qmp.cli; "
                "print(time.perf_counter() - t)")

WORKLOADS = ("unitary-ex1", "master-ex3", "generate-check")

# Per-layer metrics: self time of these spans, per iteration ("<span>_s";
# cli.cmd_X is reported as cli.X_s) ...
SELF_TIME_SPANS = (
    "cli.load_trajectory", "cli.trajectory_from_dict", "cli.write_trajectory",
    "cli.trajectory_to_dict", "cli.write_report",
    "cli.cmd_scenario", "cli.cmd_check", "cli.cmd_measures",
    "cli.cmd_reconstruct_unitary", "cli.cmd_reconstruct_master",
    "unitary_recon.reconstruct_evolution", "unitary_recon.eigenframe_decompose",
    "unitary_recon.hamiltonian_from_evolution",
    "dissipative_recon.roundtrip_verify", "dissipative_recon.fit_diagonal_unital",
    "dissipative_recon.candidate_diagonals", "dissipative_recon.gksl_apply",
    "qcore.rk4_integrate", "qcore.validate_state", "qcore.partial_trace",
    "qcore.hermiticity_defect", "qcore.dag",
    "kinematics.unitarity_test", "kinematics.unitary_window",
    "kinematics.isospectral_test", "kinematics.sample",
    "measures.purity", "measures.negativity", "measures.partial_transpose",
    "bloch.pauli_decompose",
)
# ... and calls of these spans, per iteration ("<span>.calls").
CALL_COUNT_SPANS = (
    "qcore.partial_trace", "measures.purity", "measures.negativity",
    "bloch.pauli_decompose", "dissipative_recon.roundtrip_verify",
)


def _self_time_metric(span: str) -> str:
    return span.replace("cli.cmd_", "cli.", 1) + "_s"


def per_layer_names() -> list:
    return (
        [_self_time_metric(s) for s in SELF_TIME_SPANS]
        + [f"{s}.calls" for s in CALL_COUNT_SPANS]
        + [
            "cli.validate_state.calls", "cli.bytes_read", "cli.bytes_written",
            "qcore.rk4_integrate.steps", "dissipative_recon.candidates",
            "dissipative_recon.cp_valid", "trace.spans", "trace.iter_s",
            "trace.other_s", "trace.outside_main_s",
        ]
    )


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if ".bytes_" in name else "count"


class Step:
    """One CLI command of an iteration and the check of what it wrote."""

    def __init__(self, label, args, check):
        self.label, self.args, self.check = label, [str(a) for a in args], check


def workload_steps(name: str, p: S.Params, inputs: Path, it: Path) -> list:
    grid = ["--t-max", repr(p.t_max), "--steps", str(p.steps)]
    if name == "unitary-ex1":
        out = it / "recon"
        return [Step("reconstruct unitary",
                     ["reconstruct", "unitary", inputs / "joint.json", "--out", out],
                     lambda: checks.unitary_reconstruction(p, out))]
    if name == "master-ex3":
        out = it / "recon"
        return [Step("reconstruct master",
                     ["reconstruct", "master", inputs / "joint.json", "--out", out],
                     lambda: checks.master_reconstruction(p, out))]
    ex2, ex3 = it / "ex2", it / "ex3"
    return [
        Step("scenario example2",
             ["scenario", "example2", "--omega", repr(p.omega), *grid, "--out", ex2],
             lambda: checks.example2_files(p, ex2)),
        Step("check marginal pair",
             ["check", ex2 / "marginal_a.json", ex2 / "marginal_b.json",
              "--out", ex2 / "check.json"],
             lambda: checks.window_report(p, ex2 / "check.json")),
        Step("scenario example3",
             ["scenario", "example3", "--J", repr(p.J), "--gamma", repr(p.gamma), *grid,
              "--out", ex3],
             lambda: checks.example3_files(p, ex3)),
        Step("check joint",
             ["check", ex3 / "joint.json", "--out", ex3 / "check.json"],
             lambda: checks.unitarity_report(p, ex3 / "check.json")),
        Step("measures",
             ["measures", ex3 / "joint.json", "--out", ex3 / "measures.csv"],
             lambda: checks.measures_series(p, ex3 / "measures.csv")),
    ]


def command_env() -> dict:
    env = dict(os.environ)
    # cache bytecode as an installed package does, so import_s is not compile time
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, env, log: Path):
    """Run one process to its end; (exit code, wall s, peak RSS in kB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def layer_values(span_files, written_bytes: int, iter_s: float) -> dict:
    """Per-layer metrics of one traced iteration from its span files."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(int)
    validate_calls = n_spans = 0
    in_main = 0.0
    for path in span_files:
        if not path.exists():  # the command died before writing spans; counted as failed
            continue
        with np.load(path) as doc:
            names, spans = doc["names"], doc["spans"]
            attr_span, attr_value = doc["attr_span"], doc["attr_value"]
        name_of = names[spans[:, 0]]
        dur = (spans[:, 2] - spans[:, 1]) * 1e-9
        nested = spans[:, 3] >= 0
        child = np.zeros(len(spans))
        np.add.at(child, spans[nested, 3], dur[nested])
        for name in np.unique(name_of):
            mask = name_of == name
            self_s[name] += float(np.sum(dur[mask] - child[mask]))
            calls[name] += int(np.count_nonzero(mask))
        in_main += float(np.sum(dur[name_of == "cli.main"]))
        validate = nested & (name_of == "qcore.validate_state")
        validate_calls += int(np.count_nonzero(
            name_of[spans[validate, 3]] == "cli.trajectory_from_dict"))
        for name, value in zip(name_of[attr_span], attr_value):
            attrs[name] += int(value)
        n_spans += len(spans)
    out = {_self_time_metric(s): self_s[s] for s in SELF_TIME_SPANS}
    out.update({f"{s}.calls": calls[s] for s in CALL_COUNT_SPANS})
    out.update({
        "cli.validate_state.calls": validate_calls,
        "cli.bytes_read": attrs["cli.load_trajectory"],
        "cli.bytes_written": written_bytes,
        "qcore.rk4_integrate.steps": attrs["qcore.rk4_integrate"],
        "dissipative_recon.candidates": attrs["dissipative_recon.candidate_diagonals"],
        "dissipative_recon.cp_valid": attrs["dissipative_recon.cp_check"],
        "trace.spans": n_spans,
        "trace.iter_s": iter_s,
        # self time of spans not listed above, and the command time outside
        # cli.main: interpreter start-up, imports, wrapping, writing spans
        "trace.other_s": sum(v for k, v in self_s.items() if k not in SELF_TIME_SPANS),
        "trace.outside_main_s": iter_s - in_main,
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    p = S.params(seed)
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    logs = run_dir / "logs"
    logs.mkdir(parents=True)
    env = command_env()
    py = sys.executable

    setup_s, import_s = [], []
    inputs = run_dir / "inputs"
    for k in range(1 if trace else SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        log = logs / f"setup{k}.txt"
        rc, wall, _ = spawn([py, str(HERE / "make_inputs.py"), workload, str(seed), str(inputs)],
                            env, log)
        if rc != 0:
            raise RuntimeError(f"set-up failed (exit {rc}): {log.read_text()[-2000:]}")
        setup_s.append(wall)
        import_s.append(json.loads(log.read_text().splitlines()[-1])["import_s"])

    it = run_dir / "it"
    spans_dir = run_dir / "spans"
    iter_s, peak_rss_kb, written, layers = [], 0, [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while len(iter_s) < (MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS) or (
            time.perf_counter() - start < seconds):
        n_iter = len(iter_s)
        shutil.rmtree(it, ignore_errors=True)
        it.mkdir()
        steps = workload_steps(workload, p, inputs, it)
        codes, span_files = [], []
        t0 = time.perf_counter()
        for k, step in enumerate(steps):
            if trace:
                spans_dir.mkdir(exist_ok=True)
                span_files.append(spans_dir / f"iter{n_iter}-cmd{k}.npz")
                argv = [py, str(HERE / "traced_cli.py"), str(span_files[-1]),
                        f"{n_iter}.{k}", "--", *step.args]
            else:
                argv = [py, "-m", "qmp.cli", *step.args]
            rc, _, rss = spawn(argv, env, logs / f"iter{n_iter}-cmd{k}.txt")
            codes.append(rc)
            peak_rss_kb = max(peak_rss_kb, rss)
        iter_s.append(time.perf_counter() - t0)
        written.append(dir_bytes(it))
        for k in range(0 if trace else IMPORT_PROBES_PER_ITERATION):
            log = logs / f"import{n_iter}-{k}.txt"
            rc, _, _ = spawn([py, "-c", IMPORT_PROBE], env, log)
            if rc != 0:
                raise RuntimeError(f"import probe failed (exit {rc}): {log.read_text()[-2000:]}")
            import_s.append(float(log.read_text().split()[-1]))
        for k, (step, rc) in enumerate(zip(steps, codes)):
            attempted += 1
            if rc != 0:
                problem = f"exit code {rc}"
            else:
                try:
                    step.check()
                    continue
                except checks.CheckFailed as exc:
                    problem = str(exc)
                    correct = False  # a command that exits 0 but writes wrong output
            failed += 1
            tail = (logs / f"iter{n_iter}-cmd{k}.txt").read_text()[-1500:]
            print(f"FAILED {step.label}: {problem}\n{tail}", file=sys.stderr)
        if trace:
            layers.append(layer_values(span_files, written[-1], iter_s[-1]))

    shutil.rmtree(it, ignore_errors=True)
    shutil.rmtree(inputs, ignore_errors=True)
    if trace:
        metrics = {name: {"value": statistics.median(v[name] for v in layers),
                          "unit": per_layer_unit(name)} for name in per_layer_names()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "iter_s": {"value": statistics.median(iter_s), "unit": "s"},
            "import_s": {"value": statistics.median(import_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_kb * 1024 / 1e6, "unit": "MB"},
            "written_mb": {"value": statistics.median(written) / 1e6, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "seed": seed, "iterations": iter_s, "setup": setup_s, "import": import_s}))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qmp" / "cli.py").is_file():
        print(f"no qmp sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
