"""Command-line frontend.

Subcommands generate the worked scenarios, run compatibility checks,
reconstruct Hamiltonians or master equations, and dump measure series:

    qmp scenario example1|example2|example3 [OPTIONS] --t-max F --steps N --out DIR
    qmp check JOINT.json [--tol F]
    qmp check MARGINAL_A.json MARGINAL_B.json [--tol F]
    qmp reconstruct unitary JOINT.json --out DIR
    qmp reconstruct master JOINT.json --out DIR
    qmp measures JOINT.json --out SERIES.csv

Trajectory files are JSON with fields dim, t0, dt, n, params and
samples, where samples[i] lists the dim^2 entries of the matrix at time
t0 + i*dt row-major, each complex entry as an [re, im] pair. They are
written as compact JSON (no whitespace), streamed qcore._CHUNK samples at
a time, so the whole text is never held in memory. They are read in any
JSON layout: when samples is the last key and an array of [re, im]
float pairs, it is read flat, a few hundred kB of its text at a time;
any other layout goes through json, with the same values, exit code
and message. dim and n must be JSON integers and t0 and dt
JSON numbers, never true, false or a string. reconstruct master takes
any t0, and a marginal pair's grids are compared relative to dt.
Exit codes: 0 success, 2 validation failure (an invalid state, a
non-finite sample to be written, a file that is not a dim-4 joint
trajectory given to single-file check, reconstruct or measures, or a
marginal pair given to check whose files are not both 2x2 trajectories
or whose grids differ; nothing is written then), 3 no CP-valid
candidate, or a round trip of either reconstruct command whose
propagator W of H(t) reaches a non-finite value, named with its RK4
step (W is shared, so that ends the round trip of every candidate), or
a non-finite deviation from the samples, named with its candidates
(report.json is not written), 4
parse error: unreadable JSON (undecodable bytes, invalid or too deeply
nested JSON) or any schema violation (a missing or mistyped field, a
true or false among the samples, a sample of the wrong shape, a
non-finite number, n < 3, dt <= 0), reported with the field or sample
index; or a bad argument, which the parser rejects naming the option
before anything is written: an unknown command or option (a scenario
takes only its own: example1 --J, example2 --omega, example3 --J and
--gamma), a missing one, a third file given to check, a --steps that
is not an integer >= 2, a --t-max, --J, --omega or --tol that is not a
finite number > 0, or a --gamma that is not a finite number >= 0; or an
--out that cannot be written (a file where a directory is wanted, a
directory where a file is wanted, no permission), reported with the
path. A reader that closes standard output early does not change the
exit code.
check's --tol (default 1e-10) sets the unitarity verdict of a joint
file (the drift of Tr rho^k for k = 2..4) and the "isospectral" verdict
of a marginal pair. reconstruct takes no tolerance: it calls a
trajectory unitary up to a drift of 1e-8.

reconstruct unitary and reconstruct master run one pipeline, and both
reports list candidate generators. A unitary trajectory has one,
"unitary", the K = 0 candidate; otherwise they come from the diagonal
unital fit. Every entry has the same fields (label, d_diag, k_diag,
k_spectrum, cp_valid, min_k_eigenvalue) and each CP-valid one adds its
roundtrip_deviation and roundtrip_marginals; the report then ends with
the run's propagator_defect, max ||W - U||. reconstruct unitary refuses
a file that is not unitary (exit 2), also writes pauli_coefficients.csv,
and its report starts with antihermitian_defect, drift and files.
"""

from __future__ import annotations

import argparse
import io
import json
import operator
import os
import re
import sys
from itertools import chain

import numpy as np

from . import bloch, dissipative_recon as dr, kinematics, measures, unitary_recon as ur
from .qcore import Trajectory, _chunks, _joined, partial_trace, validate_state

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CP = 3
EXIT_PARSE = 4

STATE_TOL = 1e-8  # how far a loaded sample may be from a density matrix
_UNITARY_TOL = 1e-8  # trace-power drift up to which reconstruct calls a file unitary


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


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


def _formatted_rows(rows: np.ndarray, row: str, sep: str):
    """Yield the text of the rows of a 2-D float array, ``row`` holding
    one %-field per column and ``sep`` going between rows: one
    %-template per qcore._CHUNK rows, so the whole text is never held."""
    for part in _chunks(len(rows)):
        block = rows[part]
        if part.start:
            yield sep
        yield sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def _field(doc: dict, name: str, kind):
    try:
        return kind(doc[name])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"field {name!r} is missing or malformed: {exc}", EXIT_PARSE)


def _number(value) -> float:
    """A JSON number as a float: an int or a float, not a bool or a str."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _integer(value) -> int:
    """A JSON integer: not a bool, a float or a str."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got bool")
    return operator.index(value)


def _has_bool(samples: list) -> bool:
    """Whether nested lists of [re, im] pairs hold a true or false, which
    numpy would read among floats as 1.0 or 0.0."""
    return bool in set(map(type, chain.from_iterable(chain.from_iterable(samples))))


def trajectory_from_dict(doc: dict) -> Trajectory:
    """Decode a trajectory document; any schema violation exits 4.

    ``samples`` is nested lists, or the (n, dim^2, 2) float array that
    load_trajectory reads flat. Every sample must also be a density
    matrix within STATE_TOL (exit 2 naming the first sample that is not).
    """
    dim, n = _field(doc, "dim", _integer), _field(doc, "n", _integer)
    t0, dt = _field(doc, "t0", _number), _field(doc, "dt", _number)
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
    if not isinstance(raw, np.ndarray) and _has_bool(raw):
        first = next(i for i, sample in enumerate(raw) if _has_bool([sample]))
        raise CliError(f"sample {first} has a true or false entry", EXIT_PARSE)
    finite = _joined(lambda x: np.isfinite(x).all(axis=(1, 2)), pairs)
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
    samples qcore._CHUNK at a time through one %r template (the float repr
    that json writes). A non-finite sample exits 2 naming it, and
    nothing is written."""
    pairs = np.ascontiguousarray(traj.samples).view(float).reshape(traj.n, -1)
    finite = _joined(
        lambda x: np.isfinite(x).all(axis=(1, 2)), pairs.reshape(traj.n, traj.dim**2, 2)
    )
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


_JSON_SPACE = b" \t\n\r"  # the bytes of json.decoder.WHITESPACE
# a "samples" key and the [ of its value
_SAMPLES_KEY = re.compile(b'"samples"[' + _JSON_SPACE + b"]*:[" + _JSON_SPACE + b"]*\\[")
# the , after the ]] that ends a sample
_SAMPLE_END = re.compile(b"\\][" + _JSON_SPACE + b"]*\\][" + _JSON_SPACE + b"]*,")
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_SKELETON = bytes(b if b in b"[]," else ord("v") for b in range(256))  # v: a byte of a value
_PIECE = 1 << 18  # bytes of the samples array per check and per parse


def _flat_samples(data: bytes, start: int, end: int):
    """The JSON array data[start:end + 1], from its [ to its ], as an
    (a, m, 2) float array when it is a canonical array of [re, im] float
    pairs in any whitespace, else None.

    The array is cut at the first ]], after every _PIECE bytes, so that
    each piece is a list of values once its brackets are spaces and, in
    a canonical array, a run of whole samples. It is read flat only when
    (1) no piece, its whitespace dropped, has a value right before a [ or
    right after a ], so every value stands in a pair; (2) the [, ] and ,
    of each piece are those of k samples of m pairs, m set by the first
    ]]; (3) json.loads of each piece, its brackets turned into spaces,
    gives a non-empty list of 2 m k floats. Its floats are then the ones
    json.loads would put in the nested lists.
    """
    cuts = [start]
    while cut := _SAMPLE_END.search(data, cuts[-1] + _PIECE, end):
        cuts.append(cut.end() - 1)
    pieces = [slice(lo + 1, hi) for lo, hi in zip(cuts, cuts[1:] + [end])]
    sample, counts = b"", []
    for piece in pieces:
        skeleton = data[piece].translate(_SKELETON, _JSON_SPACE)
        marks = skeleton.translate(None, b"v")
        # the marks of one sample, whose first ]] closes its last pair
        sample = sample or b"[" + b",".join([b"[,]"] * ((marks.find(b"]]") + 1) // 4)) + b"]"
        k = (len(marks) + 1) // (len(sample) + 1)
        if b"v[" in skeleton or b"]v" in skeleton:  # (1)
            return None
        if marks != b",".join([sample] * k):  # (2)
            return None
        counts.append(k)
    m = len(sample) // 4
    out = np.empty((sum(counts), m, 2))
    done = 0
    for piece, k in zip(pieces, counts):  # (3)
        try:
            values = json.loads(b"[" + data[piece].translate(_BRACKETS_TO_SPACES) + b"]")
        except ValueError:
            return None
        if len(values) != 2 * m * k or set(map(type, values)) != {float}:
            return None
        out[done:done + k].flat = values
        done += k
    return out


def _flat_document(data: bytes):
    """The JSON document of the ASCII bytes ``data`` with its "samples"
    array read flat, or None. Taken only when the text's last ] is
    followed by whitespace, } and whitespace; the first "samples" key
    starts an array that ends at that ] and _flat_samples reads; and
    json.loads of the bytes before the key, with "samples":null} put
    after them, gives an object whose last key is "samples": then the
    key the regex found is the document's last key, not text inside
    another key or a string."""
    key, close = _SAMPLES_KEY.search(data), data.rfind(b"]")
    if not key or data[close + 1:].strip(_JSON_SPACE) != b"}":
        return None
    samples = _flat_samples(data, key.end() - 1, close)
    if samples is None:
        return None
    doc = json.loads(data[:key.start()] + b'"samples":null}')
    if list(doc)[-1:] != ["samples"]:
        return None
    doc["samples"] = samples
    return doc


def _read_document(path: str) -> dict:
    """The JSON document of a file. ASCII bytes whose samples are the
    last key are read through _flat_document; any other file goes to
    json.loads as the text that open() reads, so a malformed file exits
    4 with json's own message."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            if data.isascii() and (doc := _flat_document(data)):
                return doc
        except (ValueError, RecursionError):
            pass
        text = io.TextIOWrapper(io.BytesIO(data)).read()
        del data
        return json.loads(text)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, undecodable bytes and an
        # integer literal past the int-to-str digit limit
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_PARSE)


def load_trajectory(path: str) -> Trajectory:
    """Read a trajectory file in any JSON layout. Only the file's bytes
    and the samples are held at once: the bytes are dropped before the
    samples are validated."""
    return trajectory_from_dict(_read_document(path))


def _write_csv(path: str, header: list, table: np.ndarray):
    """One row per sample, every value as %.17g (exact round trip)."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    _atomic_write(path, chain([",".join(header) + "\n"], _formatted_rows(table, row, "")))


def write_report(path_or_none, doc: dict):
    text = json.dumps(doc, indent=1, allow_nan=False)
    if path_or_none:
        _atomic_write(path_or_none, [text])
    _say(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_scenario(args) -> int:
    params = {option: getattr(args, option) for option in SCENARIOS[args.name]}
    # looked up at call time, so that a wrapped sampler is the one called
    sc = getattr(kinematics, "scenario_" + args.name)(*params.values())
    dt = args.t_max / args.steps
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
    if args.file_b is None:
        traj = _joint_trajectory(args.file, "single-file check")
        rep = kinematics.unitarity_test(traj, args.tol)
        doc = {
            "check": "unitarity",
            "verdict": "PASS" if rep.passed else "FAIL",
            "drift": {str(k): v for k, v in rep.drift.items()},
            "tol": args.tol,
        }
        write_report(args.out, doc)
        return EXIT_OK
    pair = kinematics.MarginalPair(load_trajectory(args.file), load_trajectory(args.file_b))
    iso = kinematics.isospectral_test(pair, args.tol)
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
        "tol": args.tol,
    }
    write_report(args.out, doc)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    unitary = args.mode == "unitary"
    traj = _joint_trajectory(args.file, "reconstruct")
    unit = kinematics.unitarity_test(traj, _UNITARY_TOL)
    drift = {str(k): v for k, v in unit.drift.items()}
    if unitary and not unit.passed:
        raise CliError(f"trajectory is not unitary (trace-power drift {unit.drift})", EXIT_INVALID)
    frame = ur.eigenframe_decompose(traj)
    # antihermitian_defect keeps its place among the keys; it is set with
    # H(t), after the fit
    if unitary:
        ur.constant_spectrum(frame)
        doc = {"antihermitian_defect": None, "drift": drift,
               "files": ["hamiltonian.json", "pauli_coefficients.csv"]}
    else:
        doc = {"unitary": unit.passed, "trace_power_drift": drift, "antihermitian_defect": None}
    doc["candidates"] = []
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
            "k_spectrum": list(cp.spectrum),
            "cp_valid": cp.valid,
            "min_k_eigenvalue": cp.min_eigenvalue,
        }
        if cp.valid:
            # K is fitted in the eigenframe V(t) = U(t) V0, not in U(t)
            valid.append((entry, k.conjugated(frame.v0)))
        doc["candidates"].append(entry)
    # H(t) only now, so that the fit's scratch and the H stack are never
    # held together
    ham = ur.hamiltonian_from_evolution(frame.useq)
    h = ham.trajectory
    doc["antihermitian_defect"] = ham.antihermitian_defect
    _output_dir(args.out)
    write_trajectory(os.path.join(args.out, "hamiltonian.json"), h)
    if unitary:
        _write_csv(
            os.path.join(args.out, "pauli_coefficients.csv"),
            ["t"] + [f"h{a}{b}" for a in range(4) for b in range(4)],
            np.column_stack([h.times, bloch.pauli_decompose(h.samples).h.reshape(h.n, 16)]),
        )
    if valid:
        # every CP-valid candidate shares one RK4 propagator W of H(t), so a W
        # that diverges stops the round trip of all of them
        try:
            rt = dr.roundtrip_verify(traj, h.samples, [k for _, k in valid], frame.useq)
        except RuntimeError as exc:
            raise CliError(f"round trip: {exc}", EXIT_NO_CP)
        finite = np.isfinite([rt.max_deviation, rt.max_marginal_a, rt.max_marginal_b]).all(axis=0)
        if not finite.all():
            names = ", ".join(entry["label"] for (entry, _), ok in zip(valid, finite) if not ok)
            raise CliError(
                f"round trip: the deviation of {names} from the samples is not finite", EXIT_NO_CP
            )
        for j, (entry, _) in enumerate(valid):
            entry["roundtrip_deviation"] = float(rt.max_deviation[j])
            entry["roundtrip_marginals"] = [
                float(rt.max_marginal_a[j]), float(rt.max_marginal_b[j])
            ]
        doc["propagator_defect"] = rt.propagator_defect
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

# each scenario's options with their defaults, in the order its sampler takes them
SCENARIOS = {"example1": {"J": 2.0}, "example2": {"omega": 1.0},
             "example3": {"J": 2.0, "gamma": 0.2}}


def _option(kind, test, bound: str):
    """An argparse type: kind(raw) if it passes ``test``. Any other value, an
    unreadable one too, is one error: "argument --X: must be <bound>, got <raw>"."""

    def parse(raw: str):
        try:
            if test(value := kind(raw)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {bound}, got {raw!r}")

    return parse


_POSITIVE = _option(float, lambda v: np.isfinite(v) and v > 0.0, "a finite number > 0")
_NON_NEGATIVE = _option(float, lambda v: np.isfinite(v) and v >= 0.0, "a finite number >= 0")
_STEP_COUNT = _option(int, lambda v: v >= 2, "an integer >= 2")


class _Parser(argparse.ArgumentParser):
    """A parser that refuses an argument it does not take itself, so the
    usage line of the error is the innermost command's. Subparsers are
    made of their parent's class, so every command's parser is one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qmp", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="generate a worked scenario")
    names = sc.add_subparsers(dest="name", required=True)
    for name, defaults in SCENARIOS.items():
        ex = names.add_parser(name)
        for opt, value in defaults.items():
            kind = _NON_NEGATIVE if opt == "gamma" else _POSITIVE
            ex.add_argument(f"--{opt}", type=kind, default=value)
        ex.add_argument("--t-max", type=_POSITIVE, required=True)
        ex.add_argument("--steps", type=_STEP_COUNT, required=True)
        ex.add_argument("--out", required=True)
        ex.set_defaults(func=cmd_scenario)

    ck = sub.add_parser("check", help="unitarity / marginal-pair checks")
    ck.add_argument("file", help="joint file, or marginal A file")
    ck.add_argument("file_b", nargs="?", help="marginal B file")
    ck.add_argument("--tol", type=_POSITIVE, default=1e-10)
    ck.add_argument("--out", default=None)
    ck.set_defaults(func=cmd_check)

    rc = sub.add_parser("reconstruct", help="reconstruct a generator")
    rsub = rc.add_subparsers(dest="mode", required=True)
    for mode in ("unitary", "master"):
        rm = rsub.add_parser(mode)
        rm.add_argument("file")
        rm.add_argument("--out", required=True)
        rm.set_defaults(func=cmd_reconstruct)

    ms = sub.add_parser("measures", help="purity/negativity series as CSV")
    ms.add_argument("file")
    ms.add_argument("--out", required=True)
    ms.set_defaults(func=cmd_measures)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad argument, 0 after --help
        return EXIT_PARSE if exc.code == 2 else exc.code
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
