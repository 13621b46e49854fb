"""Command-line frontend.

Subcommands generate the worked scenarios, run compatibility checks,
reconstruct Hamiltonians or master equations, and dump measure series:

    qmp scenario example1 --J 2 --t-max 3.14159 --steps 200 --out DIR
    qmp check JOINT.json [--tol F]
    qmp check MARGINAL_A.json MARGINAL_B.json [--tol F]
    qmp reconstruct unitary JOINT.json --out DIR
    qmp reconstruct master JOINT.json --out DIR
    qmp measures JOINT.json --out SERIES.csv

Trajectory files are JSON with fields dim, t0, dt, n, params and
samples, where samples[i] lists the dim^2 entries of the matrix at time
t0 + i*dt row-major, each complex entry as an [re, im] pair. They are
written as compact JSON (no whitespace), streamed CHUNK samples at a
time, so the whole text is never held in memory. They are read in any
JSON layout: a samples array of [re, im] float pairs is read flat,
anything else through json, with the same exit code and message.
Exit codes: 0 success, 2 validation failure (an invalid state, a
non-finite sample to be written, or a file that is not a dim-4 joint
trajectory given to single-file check, reconstruct or measures;
nothing is written then), 3 no CP-valid
candidate, or a round trip that reaches a non-finite state, named with
its time (the CP-valid candidates integrate as one stack, so one that
diverges ends the round trip of all of them; report.json is not
written), 4 parse error: unreadable JSON (undecodable bytes, invalid
or too deeply nested JSON) or any schema violation (a
missing or mistyped field, a sample of the wrong shape, a non-finite
number, n < 3, dt <= 0), reported with the field or sample index, or a
bad argument (--steps < 2, or a --t-max, --tol or QMP_TOL that is not
a finite number > 0), reported with the option's name, or an --out
that cannot be written (a file where a directory is wanted, a directory
where a file is wanted, no permission), reported with the path. A
reader that closes standard output early does not change the exit code.
The env var QMP_TOL overrides the default tolerance 1e-10 used by the
checks, and check's --tol overrides both. The tolerance sets the
unitarity verdict of a joint file (the drift of Tr rho^k for k = 2..4)
and the "isospectral" verdict of a marginal pair.

reconstruct master reports a list of candidate generators. A unitary
trajectory has one, "unitary", the K = 0 candidate; otherwise they come
from the diagonal unital fit. Every entry has the same fields (label,
d_diag, k_diag, k_spectrum, cp_valid, min_k_eigenvalue) and each
CP-valid one adds its roundtrip_deviation and roundtrip_marginals.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from itertools import chain

import numpy as np

from . import bloch, dissipative_recon as dr, kinematics, measures, unitary_recon as ur
from .qcore import Trajectory, partial_trace, validate_state

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CP = 3
EXIT_PARSE = 4

STATE_TOL = 1e-8  # how far a loaded sample may be from a density matrix


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _positive_finite(raw, name: str) -> float:
    """float(raw) if it is a finite number > 0, else exit 4 naming ``name``."""
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and value > 0.0):
        raise CliError(f"{name} must be a finite number > 0, got {raw!r}", EXIT_PARSE)
    return value


def default_tol() -> float:
    raw = os.environ.get("QMP_TOL")
    return 1e-10 if raw is None else _positive_finite(raw, "QMP_TOL")


def _joint_trajectory(path: str, command: str) -> Trajectory:
    traj = load_trajectory(path)
    if traj.dim != 4:
        raise CliError(f"{command} expects a dim-4 joint trajectory", EXIT_INVALID)
    return traj


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def _say(text: str, stream=None):
    """print to stdout (or ``stream``). A reader that closed the pipe
    ends the output, not the command: the stream is pointed at devnull,
    so that the exit flush stays silent too, and the command goes on."""
    stream = stream or sys.stdout
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _output_dir(path: str):
    """os.makedirs(path, exist_ok=True), or exit 4 naming the path."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write to {path}: {exc}", EXIT_PARSE)


def _atomic_write(path: str, chunks):
    """Write the strings of ``chunks`` via a temporary file and rename;
    mode 0666 minus the umask. An OSError exits 4 naming the path and
    leaves no temporary file."""
    d = os.path.dirname(os.path.abspath(path))
    _output_dir(d)
    tmp = os.path.join(d, f".qmp-{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE)
    finally:
        if os.path.exists(tmp):  # gone after a successful replace
            os.unlink(tmp)


CHUNK = 1024  # samples (or CSV rows) per %-template write and per flat-read parse


def _formatted_rows(rows: np.ndarray, row: str, sep: str):
    """Yield the text of the rows of a 2-D float array, ``row`` holding
    one %-field per column and ``sep`` going between rows: one
    %-template per CHUNK rows, so the whole text is never held."""
    for start in range(0, len(rows), CHUNK):
        block = rows[start:start + CHUNK]
        if start:
            yield sep
        yield sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def _field(doc: dict, name: str, kind):
    try:
        return kind(doc[name])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"field {name!r} is missing or malformed: {exc}", EXIT_PARSE)


def trajectory_from_dict(doc: dict) -> Trajectory:
    """Decode a trajectory document; any schema violation exits 4.

    ``samples`` is nested lists, or the (n, dim^2, 2) float array that
    load_trajectory reads flat. Every sample must also be a density
    matrix within STATE_TOL (exit 2 naming the first sample that is not).
    """
    dim, n = _field(doc, "dim", operator.index), _field(doc, "n", operator.index)
    t0, dt = _field(doc, "t0", float), _field(doc, "dt", float)
    raw = doc.get("samples")
    if not isinstance(raw, np.ndarray):
        raw = _field(doc, "samples", list)
    if len(raw) != n:
        raise CliError(f"n = {n} but {len(raw)} samples present", EXIT_PARSE)
    try:
        pairs = np.asarray(raw)
    except ValueError as exc:
        raise CliError(f"samples must be lists of [re, im] pairs: {exc}", EXIT_PARSE)
    if pairs.dtype.kind not in "iuf" or pairs.shape != (n, dim * dim, 2):
        raise CliError(
            f"samples must be ({n}, {dim * dim}, 2) numbers, got {pairs.dtype} {pairs.shape}",
            EXIT_PARSE,
        )
    finite = np.isfinite(pairs).all(axis=(1, 2))
    if not finite.all():
        raise CliError(f"sample {np.argmin(finite)} has a non-finite entry", EXIT_PARSE)
    try:
        samples = pairs.astype(float, copy=False).view(complex).reshape(n, dim, dim)
        traj = Trajectory(t0, dt, samples)
    except ValueError as exc:
        raise CliError(f"malformed trajectory file: {exc}", EXIT_PARSE)
    bad = np.flatnonzero(~validate_state(traj.samples, STATE_TOL).ok)
    if bad.size:
        rep = validate_state(traj.samples[bad[0]], STATE_TOL)
        raise CliError(f"sample {bad[0]} is not a valid state: {rep}", EXIT_INVALID)
    return traj


def write_trajectory(path: str, traj: Trajectory, params=None):
    """Compact JSON, streamed: the header through json.dumps, the
    samples CHUNK at a time through one %r template (the float repr
    that json writes). A non-finite sample exits 2 naming it, and
    nothing is written."""
    pairs = np.ascontiguousarray(traj.samples).view(float).reshape(traj.n, -1)
    finite = np.isfinite(pairs).all(axis=1)
    if not finite.all():
        raise CliError(
            f"sample {np.argmin(finite)} has a non-finite entry; {path} not written",
            EXIT_INVALID,
        )
    head = json.dumps(
        {"dim": traj.dim, "t0": traj.t0, "dt": traj.dt, "n": traj.n, "params": params or {}},
        separators=(",", ":"),
    )
    row = "[" + ",".join(["[%r,%r]"] * traj.dim**2) + "]"
    _atomic_write(path, chain([head[:-1], ',"samples":['], _formatted_rows(pairs, row, ","), ["]}"]))


_DECODER = json.JSONDecoder()
_JSON_SPACE = b" \t\n\r"  # the bytes of json.decoder.WHITESPACE
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_OPEN, _CLOSE, _COMMA = b"[],"  # their byte values


def _flat_samples(data: bytes, start: int):
    """(samples, end) for the JSON array at data[start:end] when it is a
    canonical (a, m, 2) array of floats in any whitespace, else None.

    It is read flat only when all four checks pass: (1) bracket depth
    finds its end; (2) its sequence of [, ] and , is that of shape
    (a, m, 2); (3) with the whitespace dropped, every [ follows [ or ,
    and every ] is followed by ] or , so no value stands outside a pair;
    (4) json.loads of each CHUNK of samples, its brackets turned into
    spaces, gives exactly 2 m floats per sample. Its floats are then the
    ones json.loads would put in the nested lists.
    """
    if not data.startswith(b"[", start):
        return None
    rest = np.frombuffer(data, np.uint8, offset=start)
    at = np.flatnonzero((rest == _OPEN) | (rest == _CLOSE) | (rest == _COMMA))
    marks = rest[at].tobytes()
    # (1) and (2): in a canonical array the first ]]] (pair, sample,
    # array) is where bracket depth first returns to 0
    m = marks.find(b"]]") // 4
    if m < 1:
        return None
    width = 4 * m + 2  # the marks of one sample and its separator
    a = (marks.find(b"]]]") + 2) // width
    sample = b"[" + b",".join([b"[,]"] * m) + b"]"
    if a < 1 or marks[:a * width + 1] != b"[" + b",".join([sample] * a) + b"]":
        return None
    # the mark before each chunk's first sample, then the array's ]
    edges = [*(start + at[:a * width:width * CHUNK]), start + at[a * width]]
    out = np.empty((a, m, 2))
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        span = data[lo + 1:hi]
        # (3)
        compact = np.frombuffer(span.translate(None, _JSON_SPACE), np.uint8)
        opens, closes = np.flatnonzero(compact == _OPEN), np.flatnonzero(compact == _CLOSE)
        before, after = compact[opens[1:] - 1], compact[closes[:-1] + 1]
        if not (
            opens[0] == 0 and closes[-1] == len(compact) - 1
            and np.all((before == _OPEN) | (before == _COMMA))
            and np.all((after == _CLOSE) | (after == _COMMA))
        ):
            return None
        # (4)
        try:
            values = json.loads(b"[" + span.translate(_BRACKETS_TO_SPACES) + b"]")
        except ValueError:
            return None
        block = out[j * CHUNK:(j + 1) * CHUNK]
        if len(values) != block.size or set(map(type, values)) != {float}:
            return None
        block.flat = values
    return out, edges[-1] + 1


def _decode_object(text: str) -> dict:
    """The top-level JSON object of ``text``, key by key, with a
    "samples" value read flat where _flat_samples can. Raises ValueError
    where the text is not a JSON object."""

    def skip(i):  # past JSON whitespace
        return json.decoder.WHITESPACE.match(text, i).end()

    def expect(i, char):  # past char
        if not text.startswith(char, i):
            raise ValueError(f"expected {char!r} at {i}")
        return i + 1

    doc, data = {}, None
    i = skip(expect(skip(0), "{"))
    more = not text.startswith("}", i)
    while more:
        key, i = json.decoder.scanstring(text, expect(i, '"'))
        i = skip(expect(skip(i), ":"))
        flat = None
        if key == "samples" and text.isascii():
            data = data or text.encode("ascii")
            flat = _flat_samples(data, i)
        doc[key], i = flat or _DECODER.raw_decode(text, i)
        i = skip(i)
        more = text.startswith(",", i)
        if more:
            i = skip(i + 1)
    if skip(expect(i, "}")) != len(text):
        raise ValueError("extra data")
    return doc


def load_trajectory(path: str) -> Trajectory:
    """Read a trajectory file in any JSON layout. A document that the
    object walk does not take goes to json.loads whole, so a malformed
    file exits 4 with json's own message."""
    try:
        with open(path) as fh:
            text = fh.read()
        try:
            doc = _decode_object(text)
        except (ValueError, RecursionError):
            doc = json.loads(text)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, undecodable bytes and an
        # integer literal past the int-to-str digit limit
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_PARSE)
    return trajectory_from_dict(doc)


def _write_csv(path: str, header: list, table: np.ndarray):
    """One row per sample, every value as %.17g (exact round trip)."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    _atomic_write(path, chain([",".join(header) + "\n"], _formatted_rows(table, row, "")))


def write_report(path_or_none, doc: dict):
    text = json.dumps(doc, indent=1)
    if path_or_none:
        _atomic_write(path_or_none, [text])
    _say(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_scenario(args) -> int:
    if args.steps < 2:
        raise CliError(f"--steps must be at least 2, got {args.steps}", EXIT_PARSE)
    t_max = _positive_finite(args.t_max, "--t-max")
    name = args.name
    if name == "example1":
        sc = kinematics.scenario_example1(args.J)
        params = {"J": args.J}
    elif name == "example2":
        sc = kinematics.scenario_example2(args.omega)
        params = {"omega": args.omega}
    elif name == "example3":
        sc = kinematics.scenario_example3(args.J, args.gamma)
        params = {"J": args.J, "gamma": args.gamma}
    else:  # pragma: no cover - argparse choices guard this
        raise CliError(f"unknown scenario {name}", EXIT_PARSE)
    dt = t_max / args.steps
    n = args.steps + 1
    pair = sc.marginals(0.0, dt, n)
    _output_dir(args.out)
    write_trajectory(os.path.join(args.out, "marginal_a.json"), pair.rho_a, params)
    write_trajectory(os.path.join(args.out, "marginal_b.json"), pair.rho_b, params)
    if sc.joint_at is not None:
        joint = sc.joint(0.0, dt, n)
        # self-check: the written marginals are the joint's partial traces
        da = np.abs(partial_trace(joint.samples, "B") - pair.rho_a.samples).max(axis=(1, 2))
        db = np.abs(partial_trace(joint.samples, "A") - pair.rho_b.samples).max(axis=(1, 2))
        bad = np.flatnonzero(np.maximum(da, db) > 1e-12)
        if bad.size:
            raise CliError(f"marginal self-check failed at sample {bad[0]}", EXIT_INVALID)
        write_trajectory(os.path.join(args.out, "joint.json"), joint, params)
        _say(f"wrote joint.json, marginal_a.json, marginal_b.json to {args.out}")
    else:
        _say(
            f"wrote marginal_a.json, marginal_b.json to {args.out} "
            "(this scenario admits no joint trajectory)"
        )
    return EXIT_OK


def cmd_check(args) -> int:
    tol = default_tol() if args.tol is None else _positive_finite(args.tol, "--tol")
    if len(args.files) == 1:
        traj = _joint_trajectory(args.files[0], "single-file check")
        rep = kinematics.unitarity_test(traj, tol)
        doc = {
            "check": "unitarity",
            "verdict": "PASS" if rep.passed else "FAIL",
            "drift": {str(k): v for k, v in rep.drift.items()},
            "tol": tol,
        }
        write_report(args.out, doc)
        return EXIT_OK
    pair = kinematics.MarginalPair(
        load_trajectory(args.files[0]), load_trajectory(args.files[1])
    )
    iso = kinematics.isospectral_test(pair, tol)
    win = kinematics.unitary_window(pair)
    doc = {
        "check": "marginal-pair",
        "isospectral": iso.isospectral,
        "max_spectral_distance": iso.max_distance,
        "window": {
            "c_lo": win.c_lo,
            "c_hi": win.c_hi,
            "exists": win.exists,
        },
        "tol": tol,
    }
    write_report(args.out, doc)
    return EXIT_OK


def cmd_reconstruct_unitary(args) -> int:
    tol = default_tol()
    traj = _joint_trajectory(args.file, "reconstruct")
    rep = kinematics.unitarity_test(traj, max(tol, 1e-8))
    if not rep.passed:
        raise CliError(
            f"trajectory is not unitary (trace-power drift {rep.drift})", EXIT_INVALID
        )
    seq = ur.reconstruct_evolution(traj)
    ham = ur.hamiltonian_from_evolution(seq)
    _output_dir(args.out)
    write_trajectory(os.path.join(args.out, "hamiltonian.json"), ham.trajectory)
    coeffs = bloch.pauli_decompose(ham.trajectory.samples).h.reshape(ham.trajectory.n, 16)
    _write_csv(
        os.path.join(args.out, "pauli_coefficients.csv"),
        ["t"] + [f"h{a}{b}" for a in range(4) for b in range(4)],
        np.column_stack([ham.trajectory.times, coeffs]),
    )
    doc = {
        "antihermitian_defect": ham.antihermitian_defect,
        "drift": {str(k): v for k, v in rep.drift.items()},
        "files": ["hamiltonian.json", "pauli_coefficients.csv"],
    }
    write_report(os.path.join(args.out, "report.json"), doc)
    return EXIT_OK


def cmd_reconstruct_master(args) -> int:
    tol = default_tol()
    traj = _joint_trajectory(args.file, "reconstruct")
    frame = ur.eigenframe_decompose(traj)
    ham = ur.hamiltonian_from_evolution(frame.useq)
    h_mean = ham.trajectory.samples.mean(axis=0)
    _output_dir(args.out)
    write_trajectory(os.path.join(args.out, "hamiltonian.json"), ham.trajectory)

    unit = kinematics.unitarity_test(traj, max(tol, 1e-8))
    doc = {
        "unitary": unit.passed,
        "trace_power_drift": {str(k): v for k, v in unit.drift.items()},
        "antihermitian_defect": ham.antihermitian_defect,
        "candidates": [],
    }
    if unit.passed:
        # the unitary answer is the K = 0 candidate
        candidates = [("unitary", np.zeros(15), dr.KossakowskiMatrix(np.zeros((15, 15))))]
    else:
        fit = dr.fit_diagonal_unital(frame.branches, traj.dt)
        doc["fit"] = {
            "active": [i + 1 for i in fit.active],
            "free": [i + 1 for i in fit.free],
            "residual": fit.residual,
            "d_diag": list(fit.d_diag),
        }
        candidates = dr.candidate_diagonals(fit)
    valid = []  # (report entry, Kossakowski matrix) of each CP-valid candidate
    for label, d_full, k in candidates:
        cp = dr.cp_check(k)
        entry = {
            "label": label,
            "d_diag": list(d_full),
            "k_diag": list(np.diag(k.k).real),
            "k_spectrum": list(k.spectrum()),
            "cp_valid": cp.valid,
            "min_k_eigenvalue": cp.min_eigenvalue,
        }
        if cp.valid:
            # K is fitted in the eigenframe V(t) = U(t) V0, not in U(t)
            valid.append((entry, k.conjugated(frame.v0)))
        doc["candidates"].append(entry)
    if valid:
        # every CP-valid candidate integrates in one RK4 loop, so one that
        # diverges stops the round trip of all of them
        try:
            rt = dr.roundtrip_verify(traj, h_mean, [k for _, k in valid], frame.useq)
        except RuntimeError as exc:
            raise CliError(f"round trip: {exc}", EXIT_NO_CP)
        for j, (entry, _) in enumerate(valid):
            entry["roundtrip_deviation"] = float(rt.max_deviation[j])
            entry["roundtrip_marginals"] = [
                float(rt.max_marginal_a[j]), float(rt.max_marginal_b[j])
            ]
    write_report(os.path.join(args.out, "report.json"), doc)
    return EXIT_OK if valid else EXIT_NO_CP


def cmd_measures(args) -> int:
    traj = _joint_trajectory(args.file, "measures")
    rho = traj.samples
    _write_csv(
        args.out,
        ["t", "purity_AB", "purity_A", "purity_B", "negativity"],
        np.column_stack([
            traj.times,
            measures.purity(rho),
            measures.purity(partial_trace(rho, "B")),
            measures.purity(partial_trace(rho, "A")),
            measures.negativity(rho),
        ]),
    )
    _say(f"wrote {traj.n} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qmp", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="generate a worked scenario")
    sc.add_argument("name", choices=["example1", "example2", "example3"])
    sc.add_argument("--J", type=float, default=2.0)
    sc.add_argument("--omega", type=float, default=1.0)
    sc.add_argument("--gamma", type=float, default=0.2)
    sc.add_argument("--t-max", type=float, required=True)
    sc.add_argument("--steps", type=int, required=True)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=cmd_scenario)

    ck = sub.add_parser("check", help="unitarity / marginal-pair checks")
    ck.add_argument("files", nargs="+", help="joint file, or marginal A and B files")
    ck.add_argument("--tol", default=None)
    ck.add_argument("--out", default=None)
    ck.set_defaults(func=cmd_check)

    rc = sub.add_parser("reconstruct", help="reconstruct a generator")
    rsub = rc.add_subparsers(dest="mode", required=True)
    ru = rsub.add_parser("unitary")
    ru.add_argument("file")
    ru.add_argument("--out", required=True)
    ru.set_defaults(func=cmd_reconstruct_unitary)
    rm = rsub.add_parser("master")
    rm.add_argument("file")
    rm.add_argument("--out", required=True)
    rm.set_defaults(func=cmd_reconstruct_master)

    ms = sub.add_parser("measures", help="purity/negativity series as CSV")
    ms.add_argument("file")
    ms.add_argument("--out", required=True)
    ms.set_defaults(func=cmd_measures)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "check" and len(args.files) > 2:
        _say("check takes one joint file or two marginal files", sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except CliError as exc:
        _say(f"error: {exc}", sys.stderr)
        return exc.code
    except ValueError as exc:
        _say(f"error: {exc}", sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
