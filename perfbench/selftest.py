"""Show that every correctness check in checks.py can fail.

    python3 perfbench/selftest.py

Runs each workload's commands once on a short grid (4000 steps), checks
that every check passes on the real outputs, then corrupts one output at
a time (a sign-flipped H entry, a shifted window constant, a flipped
verdict, ...) and requires the matching check to reject it. Exits 1 if
a clean output is rejected or a corruption goes unnoticed.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import checks
import run
import scenarios as S

SEED = 1
STEPS = 4000


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_csv(path: Path, row: int, col: int, delta: float):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(rows[row][col]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_sample(path: Path, i: int, k: int, fn):
    """Replace the real part x of entry k of sample i by fn(x)."""
    def edit(doc):
        doc["samples"][i][k][0] = fn(doc["samples"][i][k][0])
    _edit_json(path, edit)


def _set(path: Path, *keys_and_value):
    *keys, value = keys_and_value

    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    _edit_json(path, edit)


def _each_candidate(path: Path, key, fn):
    def edit(doc):
        for c in doc["candidates"]:
            if key in c:
                c[key] = fn(c[key])
    _edit_json(path, edit)


def _largest_entry(path: Path, i: int) -> int:
    doc = json.loads(path.read_text())
    return max(range(len(doc["samples"][i])), key=lambda k: abs(doc["samples"][i][k][0]))


# (workload, step index, corruption label, mutation of the copied it/ dir)
CORRUPTIONS = [
    ("unitary-ex1", 0, "sign-flipped interior H entry",
     lambda d: _edit_sample(d / "recon/hamiltonian.json", 7,
                            _largest_entry(d / "recon/hamiltonian.json", 7), lambda x: -x)),
    ("unitary-ex1", 0, "Pauli coefficient shifted by 1e-4",
     lambda d: _edit_csv(d / "recon/pauli_coefficients.csv", 9, 6, 1e-4)),
    ("master-ex3", 0, "round-trip deviations raised to 2e-4",
     lambda d: _each_candidate(d / "recon/report.json", "roundtrip_deviation",
                               lambda v: v + 2e-4)),
    ("master-ex3", 0, "Kossakowski spectra doubled",
     lambda d: _each_candidate(d / "recon/report.json", "k_spectrum",
                               lambda v: [2 * x for x in v])),
    ("master-ex3", 0, "no candidate CP-valid",
     lambda d: _each_candidate(d / "recon/report.json", "cp_valid", lambda v: False)),
    ("generate-check", 0, "marginal A entry shifted by 1e-9",
     lambda d: _edit_sample(d / "ex2/marginal_a.json", 11, 1, lambda x: x + 1e-9)),
    ("generate-check", 0, "stray joint.json",
     lambda d: shutil.copy(d / "ex3/joint.json", d / "ex2/joint.json")),
    ("generate-check", 1, "window constant c_lo shifted by 1e-6",
     lambda d: _set(d / "ex2/check.json", "window", "c_lo",
                    1 / 2 ** 0.5 + 1e-6)),
    ("generate-check", 1, "window reported non-empty",
     lambda d: _set(d / "ex2/check.json", "window", "exists", True)),
    ("generate-check", 1, "marginals reported isospectral",
     lambda d: _set(d / "ex2/check.json", "isospectral", True)),
    ("generate-check", 2, "joint entry shifted by 1e-8",
     lambda d: _edit_sample(d / "ex3/joint.json", 13, 0, lambda x: x + 1e-8)),
    ("generate-check", 2, "marginal B entry shifted by 1e-8",
     lambda d: _edit_sample(d / "ex3/marginal_b.json", 13, 3, lambda x: x + 1e-8)),
    ("generate-check", 3, "unitarity verdict flipped to PASS",
     lambda d: _set(d / "ex3/check.json", "verdict", "PASS")),
    ("generate-check", 3, "purity drift shifted by 1e-8",
     lambda d: _set(d / "ex3/check.json", "drift", "2",
                    json.loads((d / "ex3/check.json").read_text())["drift"]["2"] + 1e-8)),
    ("generate-check", 4, "negativity shifted by 1e-9",
     lambda d: _edit_csv(d / "ex3/measures.csv", 20, 4, 1e-9)),
    ("generate-check", 4, "purity_A shifted by 1e-9",
     lambda d: _edit_csv(d / "ex3/measures.csv", 20, 2, 1e-9)),
]


def main() -> int:
    p = S.params(SEED, steps=STEPS)
    base = run.RUNS / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    env = run.command_env()
    bad = 0
    for workload in run.WORKLOADS:
        inputs, clean, work = base / workload / "inputs", base / workload / "it", base / workload / "copy"
        clean.mkdir(parents=True)
        S.write_inputs(workload, p, inputs)
        steps = run.workload_steps(workload, p, inputs, clean)
        for k, step in enumerate(steps):
            rc, _, _ = run.spawn([sys.executable, "-m", "qmp.cli", *step.args], env,
                                 base / workload / f"cmd{k}.txt")
            try:
                if rc != 0:
                    raise checks.CheckFailed(f"exit code {rc}")
                step.check()
                print(f"clean      {workload:15s} {step.label:22s} passes")
            except checks.CheckFailed as exc:
                bad += 1
                print(f"clean      {workload:15s} {step.label:22s} REJECTED: {exc}")
        for name, k, label, corrupt in CORRUPTIONS:
            if name != workload:
                continue
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(clean, work)
            corrupt(work)
            step = run.workload_steps(workload, p, inputs, work)[k]
            try:
                step.check()
                bad += 1
                print(f"corrupted  {workload:15s} {step.label:22s} MISSED: {label}")
            except checks.CheckFailed as exc:
                print(f"corrupted  {workload:15s} {step.label:22s} caught: {label} ({exc})")
    shutil.rmtree(base, ignore_errors=True)
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
