import copy
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmp import cli
from qmp.cli import (
    CHUNK,
    EXIT_INVALID,
    EXIT_NO_CP,
    EXIT_OK,
    EXIT_PARSE,
    CliError,
    load_trajectory,
    main,
    trajectory_from_dict,
    write_trajectory,
)
import qmp
from qmp.kinematics import scenario_example1, scenario_example3, unitarity_test
from qmp.qcore import Trajectory

from _oracles import load_trajectory_nested, trajectory_to_dict


# the fields of every reconstruct master candidate, and of a CP-valid one
CANDIDATE_KEYS = {"label", "d_diag", "k_diag", "k_spectrum", "cp_valid", "min_k_eigenvalue"}
ROUNDTRIP_KEYS = {"roundtrip_deviation", "roundtrip_marginals"}


def run(*argv):
    return main([str(a) for a in argv])


class TestSerialization:
    def test_round_trip_is_bit_identical(self, tmp_path):
        traj = scenario_example1(2.0).joint(0.0, 0.07, 20)
        path = tmp_path / "t.json"
        write_trajectory(str(path), traj, {"J": 2.0})
        back = load_trajectory(str(path))
        assert back.samples.tobytes() == traj.samples.tobytes()
        assert back.t0 == traj.t0 and back.dt == traj.dt

    def test_dict_schema(self):
        traj = scenario_example1(2.0).joint(0.0, 0.1, 3)
        doc = trajectory_to_dict(traj, {"J": 2.0})
        assert doc["dim"] == 4 and doc["n"] == 3
        assert len(doc["samples"][0]) == 16
        assert doc["samples"][0][0] == [0.25, 0.0]

    def test_sample_count_mismatch(self):
        doc = trajectory_to_dict(scenario_example1(2.0).joint(0.0, 0.1, 3))
        doc["n"] = 5
        with pytest.raises(CliError) as exc:
            trajectory_from_dict(doc)
        assert exc.value.code == EXIT_PARSE

    def test_invalid_state_rejected_in_strict_mode(self):
        bad = Trajectory(0.0, 0.1, np.array([np.diag([2.0, -1.0, 0, 0])] * 3, dtype=complex))
        doc = trajectory_to_dict(bad)
        with pytest.raises(CliError) as exc:
            trajectory_from_dict(doc)
        assert exc.value.code == EXIT_INVALID


_DOC = trajectory_to_dict(scenario_example1(2.0).joint(0.0, 0.1, 3))


@pytest.mark.parametrize(
    "edits, named",
    [
        ({("samples",): None}, "'samples'"),
        ({("samples", 1): 0.5}, "samples"),
        ({("samples", 1, 3, 0): "0.25"}, "samples"),
        ({("samples", 1, 3): [0.25, 0.0, 0.0]}, "samples"),
        ({("samples", 2, 5, 1): float("nan")}, "sample 2"),
        ({("dt",): 0.0}, "dt"),
        ({("dim",): 4.5}, "'dim'"),
        ({("n",): 2, ("samples",): _DOC["samples"][:2]}, "3 samples"),
    ],
    ids=["null-samples", "non-list-sample", "string-entry", "three-element-entry", "nan", "dt-zero", "fractional-dim", "n-two"],
)
def test_schema_violations_exit_4(tmp_path, capsys, edits, named):
    doc = copy.deepcopy(_DOC)
    for (*head, last), value in edits.items():
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("check", path) == EXIT_PARSE
    assert named in capsys.readouterr().err


def test_written_trajectory_is_compact_json(tmp_path):
    traj = scenario_example1(2.0).joint(0.0, 0.07, 5)
    path = tmp_path / "t.json"
    write_trajectory(str(path), traj, {"J": 2.0})
    text = path.read_text()
    assert not any(c.isspace() for c in text)
    assert json.loads(text) == trajectory_to_dict(traj, {"J": 2.0})


def test_indented_trajectory_still_loads(tmp_path):
    traj = scenario_example1(2.0).joint(0.0, 0.07, 20)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(trajectory_to_dict(traj, {"J": 2.0}), indent=1))
    back = load_trajectory(str(path))
    assert back.samples.tobytes() == traj.samples.tobytes()
    assert back.t0 == traj.t0 and back.dt == traj.dt


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_docs(draw):
    """A valid 3-sample trajectory with one to three nodes dropped,
    retyped, reshaped, nested, shifted or replaced by NaN or a string."""
    doc = copy.deepcopy(_DOC)
    for _ in range(draw(st.integers(1, 3))):
        # walk down to a random node; ``parent[key]`` is that node
        parent, key = None, None
        node = doc
        for _ in range(draw(st.integers(0, 4))):
            if not (isinstance(node, (dict, list)) and node):
                break
            parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        edits = {
            "retype": lambda: draw(_JSON_VALUES),
            "nest": lambda: [node],
            "nan": lambda: float("nan"),
            "string": lambda: json.dumps(node),
        }
        if isinstance(node, list) and node:
            edits["shorten"] = lambda: node[:-1]
            edits["lengthen"] = lambda: node + node[-1:]
        if isinstance(node, float):
            edits["shift"] = lambda: node + 1.0
        if parent is not None:
            edits["drop"] = lambda: None
        kind = draw(st.sampled_from(sorted(edits)))
        new = edits[kind]()
        if parent is None:
            doc = new
        elif kind == "drop":
            del parent[key]
        else:
            parent[key] = new
    return doc


def mutated_documents():
    return mutated_docs().map(lambda doc: json.dumps(doc).encode())


def _parses(data: bytes) -> bool:
    try:
        json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return True


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=64) | mutated_documents())
@example(data=b"\xff\xfe\x00\x01not utf-8")
@example(data=b"[" * 100_000 + b"]" * 100_000)
@example(data=b'{"dim": ' + b"1" * 5000 + b"}")
def test_loader_never_raises(tmp_path, capsys, data):
    path = tmp_path / "fuzz.json"
    path.write_bytes(data)
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_PARSE)
    if not _parses(data):
        assert code == EXIT_PARSE and str(path) in err


_LAYOUTS = {"compact": {"separators": (",", ":")}, "spaced": {}, "indent": {"indent": 1}}
# brackets, commas, strings that hold them, and numbers: each can move the
# skeleton of the samples array without breaking its bracket count
_INSERTIONS = ["[", "]", ",", '"]"', '",["', "0", "7", "-", ",0.5", "[0.5,0.5],"]


@st.composite
def relaid_documents(draw):
    """A mutated document in one of three layouts, with up to four edits:
    an insertion at a random place, or a [, ] or , moved by a few
    characters (which keeps the skeleton of the samples array but can
    push a value out of its pair)."""
    text = json.dumps(draw(mutated_docs()), **_LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))])
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        marks = [i for i, c in enumerate(text[at:at + 40], at) if c in "[],"]
        if marks and draw(st.booleans()):
            mark = draw(st.sampled_from(marks))
            char, text = text[mark], text[:mark] + text[mark + 1:]
            to = min(max(mark + draw(st.integers(-6, 6)), 0), len(text))
            text = text[:to] + char + text[to:]
        else:
            text = text[:at] + draw(st.sampled_from(_INSERTIONS)) + text[at:]
    return text


def _outcome(load, path):
    """(exit code, message, t0, dt, sample bytes) of one reader on one file."""
    try:
        traj = load(str(path))
    except CliError as exc:
        return exc.code, str(exc), None, None, None
    except ValueError as exc:  # main maps it to EXIT_INVALID
        return EXIT_INVALID, str(exc), None, None, None
    return EXIT_OK, "", traj.t0, traj.dt, traj.samples.tobytes()


def _assert_reads_as_oracle(path):
    assert _outcome(load_trajectory, path) == _outcome(load_trajectory_nested, path)


_SAMPLES = json.dumps(_DOC["samples"])
_WIDER = json.dumps(_DOC["samples"] + _DOC["samples"][:1])


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=relaid_documents())
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", '[0.25, "],["]', 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", '[0.25, 0.0, "]"]', 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, 0.0]]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[[0.25], 0.0]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, 0]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, true]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, NaN]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25 ,\f0.0]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, 0.0]5", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, ]0.0", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0], [0.0, 0.0]", "[0.25, 0.0], 0.0[, 0.0]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, null]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", '[0.25, "0.5"]', 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, {}]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, 10000000000000000000000000000000]", 1))
@example(text=json.dumps(_DOC).replace("[0.25, 0.0]", "[0.25, 0.0, 0.0]", 1))
@example(text=re.sub(r"\]\], \[(\[[^]]*\]), ", r"], \1], [", json.dumps(_DOC), count=1))
@example(text=json.dumps(_DOC).replace('"samples": [', '"samples": [ 5 [', 1))
@example(text=json.dumps(_DOC)[:-2])
@example(text=json.dumps(_DOC).replace('"params": {}', '"samples": ' + _WIDER, 1))
@example(text=json.dumps(_DOC)[:-1] + ', "samples": ' + _WIDER + "}")
@example(text=json.dumps(_DOC)[:-1] + ', "samples": ' + _SAMPLES[:-1] + "}")
@example(text=json.dumps(_DOC) + " x")
@example(text=json.dumps(_DOC, indent=1).replace("\n", "\r\n"))
@example(text=json.dumps(_DOC, ensure_ascii=False).replace('"params": {}', '"params": {"\u00e9": 1}'))
def test_reader_matches_nested_oracle(tmp_path, monkeypatch, text):
    # two-sample chunks, so that a 3-sample document spans two of them
    monkeypatch.setattr(cli, "CHUNK", 2)
    path = tmp_path / "t.json"
    path.write_bytes(text.encode())
    _assert_reads_as_oracle(path)
    # the object walk itself takes every JSON object, with no fallback
    text = path.read_text()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return
    if isinstance(doc, dict):
        walked = cli._decode_object(text)
        if isinstance(walked.get("samples"), np.ndarray):
            walked["samples"] = walked["samples"].tolist()
        assert json.dumps(walked) == json.dumps(doc)


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_duplicate_samples_last_one_wins(tmp_path, layout):
    later = scenario_example3(2.0, 0.2).joint(0.0, 0.1, 3)
    head = json.dumps(_DOC, **_LAYOUTS[layout])[:-1]
    text = head + ', "samples": ' + json.dumps(trajectory_to_dict(later)["samples"]) + "}"
    path = tmp_path / "t.json"
    path.write_text(text)
    assert load_trajectory(str(path)).samples.tobytes() == later.samples.tobytes()
    _assert_reads_as_oracle(path)


@pytest.mark.parametrize("cut", ["]", "]]", "]]]"])
def test_unbalanced_samples_exit_4(tmp_path, capsys, cut):
    # the closing brackets of the samples array are dropped or doubled
    text = json.dumps(_DOC, separators=(",", ":"))
    for edited in (text.replace("]]]", "]]]" + cut, 1), text.replace("]]]", "]]]"[len(cut):], 1)):
        path = tmp_path / "t.json"
        path.write_text(edited)
        _assert_reads_as_oracle(path)
        assert run("check", path) == EXIT_PARSE
        assert "is not valid JSON" in capsys.readouterr().err


def test_multi_chunk_file_reads_flat(tmp_path):
    # 2.5 chunks of samples in each layout: the object walk reads the
    # samples flat and ends where json.loads ends
    traj = scenario_example1(2.0).joint(0.0, 1e-3, 5 * CHUNK // 2)
    for layout in _LAYOUTS.values():
        text = json.dumps(trajectory_to_dict(traj, {"J": 2.0}), **layout)
        doc = cli._decode_object(text)
        samples = doc.pop("samples")
        assert isinstance(samples, np.ndarray)
        assert samples.tobytes() == np.ascontiguousarray(traj.samples).view(float).tobytes()
        assert doc == {k: v for k, v in json.loads(text).items() if k != "samples"}


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, -1e22, 0.1, 1 / 3, 2.0**-1074 * 3]


@st.composite
def stacks(draw):
    """An (n, d, d) complex stack of special and random finite floats;
    n is drawn around multiples of CHUNK."""
    pool = draw(st.lists(st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    n = draw(st.sampled_from([3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]) | st.integers(3, 40))
    d = draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool), size=(n, d, d, 2)).view(complex)[..., 0]


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=stacks(), t0=st.sampled_from([0.0, -0.0, 1e22, 5e-324]), params=st.sampled_from([None, {"J": 1e16}]))
def test_writer_matches_json_dumps(tmp_path, samples, t0, params):
    traj = Trajectory(t0, 1e-5, samples)
    path = tmp_path / "t.json"
    write_trajectory(str(path), traj, params)
    assert path.read_text() == json.dumps(trajectory_to_dict(traj, params), separators=(",", ":"))


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=stacks(), special=st.sampled_from([float("nan"), float("inf"), 0.0]))
def test_csv_matches_savetxt(tmp_path, samples, special):
    table = samples.view(float).reshape(len(samples), -1)[:, :5].copy()
    table[len(table) // 2, 0] = special
    header = ["t", "a", "b", "c", "d"]
    cli._write_csv(str(tmp_path / "t.csv"), header, table)
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    assert (tmp_path / "t.csv").read_text() == buf.getvalue()


@pytest.mark.parametrize("bad", [complex(float("nan"), 0), complex(0, float("inf")), complex(-float("inf"), 1)])
def test_writer_refuses_non_finite_samples(tmp_path, bad):
    samples = scenario_example1(2.0).joint(0.0, 0.1, 5).samples.copy()
    samples[3, 1, 2] = bad
    path = tmp_path / "t.json"
    with pytest.raises(CliError) as exc:
        write_trajectory(str(path), Trajectory(0.0, 0.1, samples))
    assert exc.value.code == EXIT_INVALID and "sample 3 " in str(exc.value)
    assert list(tmp_path.iterdir()) == []


class TestScenarioCommand:
    def test_example1_writes_three_files(self, tmp_path):
        out = tmp_path / "ex1"
        assert run("scenario", "example1", "--J", 2, "--t-max", 3.1, "--steps", 50, "--out", out) == EXIT_OK
        assert sorted(os.listdir(out)) == ["joint.json", "marginal_a.json", "marginal_b.json"]

    def test_example2_has_no_joint(self, tmp_path):
        out = tmp_path / "ex2"
        assert run("scenario", "example2", "--omega", 1, "--t-max", 3.1, "--steps", 50, "--out", out) == EXIT_OK
        assert sorted(os.listdir(out)) == ["marginal_a.json", "marginal_b.json"]


class TestCheckCommand:
    def test_unitary_joint(self, tmp_path):
        out = tmp_path / "ex1"
        run("scenario", "example1", "--J", 2, "--t-max", 3.1, "--steps", 60, "--out", out)
        report = tmp_path / "r.json"
        assert run("check", out / "joint.json", "--out", report) == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "PASS"
        assert doc["drift"]["2"] < 1e-12

    def test_dissipative_joint_fails_unitarity(self, tmp_path):
        out = tmp_path / "ex3"
        run("scenario", "example3", "--J", 2, "--gamma", 0.2, "--t-max", 5, "--steps", 100, "--out", out)
        report = tmp_path / "r.json"
        run("check", out / "joint.json", "--out", report)
        assert json.loads(report.read_text())["verdict"] == "FAIL"

    def test_marginal_pair_window(self, tmp_path):
        out = tmp_path / "ex2"
        run("scenario", "example2", "--omega", 1, "--t-max", 3.141592653589793, "--steps", 800, "--out", out)
        report = tmp_path / "r.json"
        assert run("check", out / "marginal_a.json", out / "marginal_b.json", "--out", report) == EXIT_OK
        doc = json.loads(report.read_text())
        assert not doc["isospectral"]
        assert not doc["window"]["exists"]
        assert doc["window"]["c_lo"] == pytest.approx(0.7071068, abs=1e-6)
        assert doc["window"]["c_hi"] == pytest.approx(0.2928932, abs=1e-6)

    def test_marginal_pair_tol_sets_isospectral_verdict(self, tmp_path):
        out = tmp_path / "ex2"
        run("scenario", "example2", "--omega", 1, "--t-max", 3.141592653589793, "--steps", 200, "--out", out)
        pair = [out / "marginal_a.json", out / "marginal_b.json"]
        docs = {}
        for label, option in (("default", []), ("0.6", ["--tol", "0.6"])):
            report = tmp_path / f"{label}.json"
            assert run("check", *pair, *option, "--out", report) == EXIT_OK
            docs[label] = json.loads(report.read_text())
        assert docs["default"]["max_spectral_distance"] == pytest.approx(0.5, abs=1e-6)
        assert docs["default"]["tol"] == 1e-10 and not docs["default"]["isospectral"]
        assert docs["0.6"]["tol"] == 0.6 and docs["0.6"]["isospectral"]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("check", bad) == EXIT_PARSE


def test_isotrace_probe_is_not_unitary(tmp_path):
    # the spectrum moves along the curve where Tr rho, Tr rho^2 and Tr rho^3
    # stay fixed (only det rho = e4 changes), so only Tr rho^4 drifts
    coeffs = np.poly([0.4, 0.3, 0.2, 0.1])
    e4 = coeffs[4] + np.linspace(0.0, 2.75e-5, 201)
    lam = np.array([np.sort(np.roots(np.r_[coeffs[:4], e]).real) for e in e4])
    assert np.ptp(lam, axis=0).max() > 0.01
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(4, 8)).view(complex))
    traj = Trajectory(0.0, 0.01, (q * lam[:, None, :]) @ q.conj().T)
    rep = unitarity_test(traj)
    assert max(rep.drift[2], rep.drift[3]) < 1e-12 and rep.drift[4] > 1e-4
    assert not rep.passed
    path = tmp_path / "probe.json"
    write_trajectory(str(path), traj)
    assert run("check", path, "--out", tmp_path / "check.json") == EXIT_OK
    doc = json.loads((tmp_path / "check.json").read_text())
    assert doc["verdict"] == "FAIL" and set(doc["drift"]) == {"2", "3", "4"}
    run("reconstruct", "master", path, "--out", tmp_path / "m")
    report = json.loads((tmp_path / "m" / "report.json").read_text())
    assert report["unitary"] is False
    assert "unitary" not in [c["label"] for c in report["candidates"]]


class TestReconstructCommands:
    def test_unitary_reconstruction(self, tmp_path):
        out = tmp_path / "ex1"
        run("scenario", "example1", "--J", 2, "--t-max", 3.141592653589793, "--steps", 314, "--out", out)
        rec = tmp_path / "rec"
        assert run("reconstruct", "unitary", out / "joint.json", "--out", rec) == EXIT_OK
        with open(rec / "hamiltonian.json") as fh:
            doc = json.load(fh)
        pairs = np.asarray(doc["samples"][doc["n"] // 2])  # the 16 entries as [re, im]
        from qmp.bloch import pauli_decompose

        mid = pauli_decompose((pairs[:, 0] + 1j * pairs[:, 1]).reshape(4, 4)).h
        assert mid[1, 1] == pytest.approx(-0.5, abs=1e-4)
        assert mid[2, 2] == pytest.approx(-0.5, abs=1e-4)
        assert (rec / "pauli_coefficients.csv").exists()
        assert (rec / "report.json").exists()

    def test_unitary_rejects_dissipative_input(self, tmp_path):
        out = tmp_path / "ex3"
        run("scenario", "example3", "--J", 2, "--gamma", 0.2, "--t-max", 5, "--steps", 200, "--out", out)
        assert run("reconstruct", "unitary", out / "joint.json", "--out", tmp_path / "x") == EXIT_INVALID

    def test_master_reconstruction(self, tmp_path):
        out = tmp_path / "ex3"
        run("scenario", "example3", "--J", 2, "--gamma", 0.2, "--t-max", 10, "--steps", 2000, "--out", out)
        rec = tmp_path / "master"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_OK
        doc = json.loads((rec / "report.json").read_text())
        assert not doc["unitary"]
        valid = [c for c in doc["candidates"] if c["cp_valid"]]
        assert valid, "expected at least one CP-valid candidate"
        best = valid[0]
        assert set(best) == CANDIDATE_KEYS | ROUNDTRIP_KEYS
        assert best["label"] == "single:4"
        assert max(best["k_diag"]) == pytest.approx(0.1, abs=1e-6)
        assert best["roundtrip_deviation"] < 1e-3

    def test_master_on_odd_interval_count(self, tmp_path):
        # 401 intervals: the RK4 midpoints fall between samples
        out = tmp_path / "ex3"
        run("scenario", "example3", "--t-max", 2, "--steps", 401, "--out", out)
        rec = tmp_path / "master"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_OK
        doc = json.loads((rec / "report.json").read_text())
        valid = [c for c in doc["candidates"] if c["cp_valid"]]
        assert valid
        for c in valid:
            assert c["roundtrip_deviation"] < 1e-4, c["label"]

    def test_master_is_basis_independent(self, tmp_path):
        # example3 under a fixed local unitary W_A x W_B is the same physics;
        # its degenerate rho(t0) and non-computational eigenbasis must not
        # change the round trip
        from scipy.stats import unitary_group

        w = np.kron(unitary_group.rvs(2, random_state=1), unitary_group.rvs(2, random_state=2))
        traj = scenario_example3(2.0, 0.2).joint(0.0, 1e-3, 2001)
        conj = np.einsum("ij,njk,lk->nil", w, traj.samples, w.conj())
        path = tmp_path / "conj.json"
        write_trajectory(str(path), Trajectory(0.0, 1e-3, conj))
        rec = tmp_path / "master"
        assert run("reconstruct", "master", path, "--out", rec) == EXIT_OK
        doc = json.loads((rec / "report.json").read_text())
        valid = [c for c in doc["candidates"] if c["cp_valid"]]
        assert valid
        for c in valid:
            assert c["roundtrip_deviation"] < 1e-4, c["label"]

    @pytest.mark.parametrize("mode", ["unitary", "master"])
    def test_rejects_marginal_file_before_writing(self, tmp_path, capsys, mode):
        out = tmp_path / "ex1"
        run("scenario", "example1", "--t-max", 3.1, "--steps", 20, "--out", out)
        rec = tmp_path / "rec"
        assert run("reconstruct", mode, out / "marginal_a.json", "--out", rec) == EXIT_INVALID
        assert "reconstruct expects a dim-4 joint trajectory" in capsys.readouterr().err
        assert not rec.exists()

    def test_master_on_unitary_input_is_trivial(self, tmp_path):
        out = tmp_path / "ex1"
        run("scenario", "example1", "--J", 2, "--t-max", 3.1, "--steps", 200, "--out", out)
        rec = tmp_path / "master1"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_OK
        doc = json.loads((rec / "report.json").read_text())
        assert doc["unitary"]
        assert "fit" not in doc
        (entry,) = doc["candidates"]
        assert entry["label"] == "unitary"
        # the K = 0 candidate, with the fields of every other candidate
        assert set(entry) == CANDIDATE_KEYS | ROUNDTRIP_KEYS
        assert entry["k_diag"] == entry["d_diag"] == entry["k_spectrum"] == [0.0] * 15
        assert entry["cp_valid"] is True and entry["min_k_eigenvalue"] == 0.0
        assert entry["roundtrip_deviation"] < 1e-4

    def test_master_without_cp_candidate(self, tmp_path):
        # time-reversed damping: purity increases, no PSD dissipator fits
        traj = scenario_example3(2.0, 0.2).joint(0.0, 5e-3, 801)
        reversed_traj = Trajectory(0.0, 5e-3, traj.samples[::-1].copy())
        path = tmp_path / "rev.json"
        write_trajectory(str(path), reversed_traj)
        assert run("reconstruct", "master", path, "--out", tmp_path / "m") == EXIT_NO_CP

    @pytest.mark.parametrize("name, labels", [
        ("example3", ["single:4", "single:7", "single:8", "single:11"]),
        ("example1", ["unitary"]),
    ])
    def test_master_on_three_samples(self, tmp_path, name, labels):
        # two intervals are a single RK4 step of 2 dt
        out = tmp_path / name
        run("scenario", name, "--t-max", 0.01, "--steps", 2, "--out", out)
        rec = tmp_path / "master"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_OK
        doc = json.loads((rec / "report.json").read_text())
        valid = [c for c in doc["candidates"] if c["cp_valid"]]
        assert [c["label"] for c in valid] == labels
        for c in valid:
            assert c["roundtrip_deviation"] < 1e-6, c["label"]

    # the states pass 1e154 some blocks before they overflow, and numpy's
    # norm warns that the deviations of those blocks overflow
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_master_round_trip_overflow_exits_3(self, tmp_path, capsys):
        # at gamma dt = 15 the fitted rates make the 2 dt RK4 step unstable,
        # and the states overflow in the 2211th step, so 4422 intervals is
        # the smallest grid that reaches it (4421 and 4423, which step dt,
        # stay finite)
        out = tmp_path / "ex3"
        run("scenario", "example3", "--gamma", 3000, "--t-max", 22.11, "--steps", 4422, "--out", out)
        capsys.readouterr()
        rec = tmp_path / "master"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_NO_CP
        err = capsys.readouterr().err
        assert err == "error: round trip: integration produced non-finite values at t=22.11\n"
        assert (rec / "hamiltonian.json").exists() and not (rec / "report.json").exists()


class TestMeasuresCommand:
    def test_series_columns(self, tmp_path):
        out = tmp_path / "ex3"
        run("scenario", "example3", "--J", 2, "--gamma", 0.2, "--t-max", 2, "--steps", 100, "--out", out)
        csv_path = tmp_path / "m.csv"
        assert run("measures", out / "joint.json", "--out", csv_path) == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,purity_AB,purity_A,purity_B,negativity"
        first = [float(x) for x in lines[1].split(",")]
        assert first[1:] == pytest.approx([1.0, 1.0, 1.0, 0.0])
        negs = [float(l.split(",")[4]) for l in lines[2:]]
        assert max(negs) > 0.05

    def test_constant_purity_for_unitary_input(self, tmp_path):
        out = tmp_path / "ex1"
        run("scenario", "example1", "--J", 2, "--t-max", 3.1, "--steps", 60, "--out", out)
        csv_path = tmp_path / "m1.csv"
        run("measures", out / "joint.json", "--out", csv_path)
        lines = csv_path.read_text().strip().splitlines()[1:]
        ps = [float(l.split(",")[1]) for l in lines]
        assert np.ptp(ps) < 1e-12


def test_written_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        out = tmp_path / "ex1"
        run("scenario", "example1", "--J", 2, "--t-max", 3.1, "--steps", 20, "--out", out)
        run("measures", out / "joint.json", "--out", out / "measures.csv")
    finally:
        os.umask(old)
    for name in ("joint.json", "measures.csv"):
        assert (out / name).stat().st_mode & 0o777 == 0o644, name


def test_qmp_tol_env_override(tmp_path, monkeypatch):
    out = tmp_path / "ex1"
    run("scenario", "example1", "--J", 2, "--t-max", 3.1, "--steps", 50, "--out", out)
    report = tmp_path / "r.json"
    monkeypatch.setenv("QMP_TOL", "1e-3")
    run("check", out / "joint.json", "--out", report)
    assert json.loads(report.read_text())["tol"] == 1e-3
    monkeypatch.setenv("QMP_TOL", "banana")
    assert run("check", out / "joint.json") == EXIT_PARSE


@pytest.mark.parametrize(
    "grid, named",
    [
        (["--t-max", 3, "--steps", 0], "--steps"),
        (["--t-max", 3, "--steps", 1], "--steps"),
        (["--t-max", "inf", "--steps", 10], "--t-max"),
        (["--t-max", "nan", "--steps", 10], "--t-max"),
        (["--t-max", 0, "--steps", 10], "--t-max"),
        (["--t-max", -1, "--steps", 10], "--t-max"),
    ],
    ids=["steps-0", "steps-1", "t-max-inf", "t-max-nan", "t-max-0", "t-max-negative"],
)
def test_bad_scenario_arguments_exit_4(tmp_path, capsys, grid, named):
    out = tmp_path / "ex1"
    assert run("scenario", "example1", *grid, "--out", out) == EXIT_PARSE
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, env",
    [
        ("check", ["--tol", "nan"], None),
        ("check", ["--tol", "-1"], None),
        ("check", [], "nan"),
        ("check", [], "-1"),
        ("unitary", [], "nan"),
    ],
    ids=["tol-nan", "tol-negative", "env-nan", "env-negative", "reconstruct-env-nan"],
)
def test_bad_tolerance_exits_4(tmp_path, capsys, monkeypatch, command, option, env):
    out = tmp_path / "ex1"
    run("scenario", "example1", "--t-max", 3.1, "--steps", 20, "--out", out)
    if env is not None:
        monkeypatch.setenv("QMP_TOL", env)
    if command == "check":
        argv = ["check", out / "joint.json", *option, "--out", tmp_path / "r.json"]
    else:
        argv = ["reconstruct", "unitary", out / "joint.json", "--out", tmp_path / "rec"]
    assert run(*argv) == EXIT_PARSE
    assert ("QMP_TOL" if env is not None else "--tol") in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "rec").exists()


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmp.__file__)))
    code = "import sys, qmp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, buffered):
    # the read end of the pipe is closed before the child starts, so its
    # first write meets a broken pipe: scenario prints one line (buffered,
    # it fails at the flush), reconstruct master a report longer than the
    # stdout buffer (it fails inside print)
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmp.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    ex3, rec = tmp_path / "ex3", tmp_path / "rec"
    for argv in (
        ["scenario", "example3", "--t-max", 1, "--steps", 200, "--out", ex3],
        ["reconstruct", "master", ex3 / "joint.json", "--out", rec],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(tmp_path / "err.txt", "wb") as err:
            try:
                code = subprocess.call(
                    [sys.executable, "-m", "qmp.cli", *map(str, argv)],
                    stdout=write_end, stderr=err, env=env,
                )
            finally:
                os.close(write_end)
        assert code == EXIT_OK, argv
        assert (tmp_path / "err.txt").read_text() == "", argv
    assert {p.name for p in ex3.iterdir()} == {"joint.json", "marginal_a.json", "marginal_b.json"}
    assert {p.name for p in rec.iterdir()} == {"hamiltonian.json", "report.json"}


def test_unwritable_out_exits_4(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("x")
    assert run("scenario", "example1", "--t-max", 1, "--steps", 10, "--out", taken) == EXIT_PARSE
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == "x"
    out = tmp_path / "ex1"
    run("scenario", "example1", "--t-max", 1, "--steps", 10, "--out", out)
    capsys.readouterr()
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run("measures", out / "joint.json", "--out", folder) == EXIT_PARSE
    assert str(folder) in capsys.readouterr().err
    assert list(folder.iterdir()) == []
    assert not list(tmp_path.glob(".qmp-*.tmp"))
