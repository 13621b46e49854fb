import copy
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmp import cli
from qmp import dissipative_recon as dr
from qmp import unitary_recon as ur
from qmp.cli import (
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
from qmp.qcore import _CHUNK as CHUNK, Trajectory

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
        ({("t0",): "0.0"}, "'t0'"),
        ({("dt",): True}, "'dt'"),
        ({("dim",): True}, "'dim'"),
    ],
    ids=[
        "null-samples", "non-list-sample", "string-entry", "three-element-entry", "nan", "dt-zero",
        "fractional-dim", "n-two", "string-t0", "bool-dt", "bool-dim",
    ],
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


@pytest.mark.parametrize("layout", ["last-key", "first-key"])
@pytest.mark.parametrize("sample, pair", [(0, [True, 0.0]), (2, [False, 0.0])], ids=["true", "false"])
def test_boolean_entries_exit_4(tmp_path, capsys, layout, sample, pair):
    # example3 starts in |00><00|, and entry 1 of every sample is 0, so
    # numpy, which reads true and false among floats as 1.0 and 0.0,
    # would see valid states
    doc = trajectory_to_dict(scenario_example3(2.0, 0.2).joint(0.0, 0.1, 3))
    doc["samples"][sample][sample // 2] = pair
    if layout == "first-key":
        doc = {"samples": doc.pop("samples"), **doc}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    _assert_reads_as_oracle(path)
    assert run("check", path) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"sample {sample} has a true or false entry" in err and "Traceback" not in err


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
@example(text=json.dumps(_DOC)[:-2] + ", 0.5]}")
@example(text=json.dumps(_DOC).replace('"params": {}', '"samples": ' + _WIDER, 1))
@example(text=json.dumps(_DOC)[:-1] + ', "samples": ' + _WIDER + "}")
@example(text=json.dumps(_DOC)[:-1] + ', "samples": ' + _SAMPLES[:-1] + "}")
@example(text=json.dumps(_DOC) + " x")
@example(text=json.dumps(_DOC, indent=1).replace("\n", "\r\n"))
@example(text=json.dumps(_DOC) + "\n")
@example(text=json.dumps(_DOC)[:-1] + " \r\n}\t")
@example(text=json.dumps(_DOC, ensure_ascii=False).replace('"params": {}', '"params": {"\u00e9": 1}'))
# samples not last, or a "samples" that is not the key: each goes to json
@example(text=json.dumps({"samples": _DOC["samples"], **{k: v for k, v in _DOC.items() if k != "samples"}}))
@example(text=json.dumps(_DOC).replace('"samples"', '"x\\"samples"', 1))
@example(text=json.dumps(_DOC).replace('"samples": ', '"\\u0073amples": null, "x\\"samples": ', 1))
@example(text=json.dumps({**_DOC, "params": {"note": '"samples": ['}}))
def test_reader_matches_nested_oracle(tmp_path, monkeypatch, text):
    path = tmp_path / "t.json"
    path.write_bytes(text.encode())
    oracle = _outcome(load_trajectory_nested, path)
    # pieces of up to 64 bytes cut the array after every sample, so that a
    # 3-sample document spans three pieces; 256 bytes cut it after the
    # second sample in the compact and spaced layouts; the default takes
    # it whole
    for piece in (1, 5, 64, 256, cli._PIECE):
        monkeypatch.setattr(cli, "_PIECE", piece)
        assert _outcome(load_trajectory, path) == oracle


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
    # 2.5 CHUNKs of samples, several pieces in each layout and with a
    # trailing newline: the samples, the last key, are read flat, and the
    # other fields are those json.loads gives
    traj = scenario_example1(2.0).joint(0.0, 1e-3, 5 * CHUNK // 2)
    path = tmp_path / "t.json"
    texts = [json.dumps(trajectory_to_dict(traj, {"J": 2.0}), **layout) for layout in _LAYOUTS.values()]
    assert min(map(len, texts)) > 2 * cli._PIECE
    for text in texts + [texts[0] + "\n"]:
        path.write_text(text)
        doc = cli._read_document(str(path))
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

    def test_example3_takes_gamma_0(self, tmp_path):
        # gamma >= 0: at 0 example3 is a pure unitary trajectory
        out = tmp_path / "ex3"
        assert run("scenario", "example3", "--gamma", 0, "--t-max", 1, "--steps", 10, "--out", out) == EXIT_OK
        run("check", out / "joint.json", "--out", tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())["verdict"] == "PASS"


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

    def test_marginal_pair_in_a_moving_frame(self, tmp_path):
        # marginal A turned by exp(-i 0.35 t sigma_1) gets the window of the static pair
        out = tmp_path / "ex1"
        run("scenario", "example1", "--J", 1, "--t-max", 20, "--steps", 2000, "--out", out)
        a = load_trajectory(str(out / "marginal_a.json"))
        th = 0.35 * a.times[:, None, None]
        f = np.cos(th) * np.eye(2) - 1j * np.sin(th) * np.array([[0, 1], [1, 0]])
        turned = Trajectory(a.t0, a.dt, f @ a.samples @ np.conj(f.transpose(0, 2, 1)))
        write_trajectory(str(tmp_path / "turned.json"), turned)
        windows = {}
        for label, a_file in (("static", out / "marginal_a.json"), ("moving", tmp_path / "turned.json")):
            report = tmp_path / f"{label}.json"
            assert run("check", a_file, out / "marginal_b.json", "--out", report) == EXIT_OK
            windows[label] = json.loads(report.read_text())["window"]
        assert windows["static"]["exists"] and windows["moving"]["exists"]
        assert windows["static"]["c_lo"] == pytest.approx(0.125, abs=1e-9)
        assert windows["static"]["c_hi"] == pytest.approx(1.0, abs=1e-9)
        for key in ("c_lo", "c_hi"):
            assert abs(windows["moving"][key] - windows["static"][key]) < 1e-12

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

    def test_unitary_is_master_restricted_to_k0(self, tmp_path):
        # one pipeline: on a unitary file both modes write the same H(t) and
        # the same K = 0 round trip; unitary's report keeps its own first keys
        out = tmp_path / "ex1"
        run("scenario", "example1", "--t-max", 3.1, "--steps", 200, "--out", out)
        docs = {}
        for mode in ("unitary", "master"):
            assert run("reconstruct", mode, out / "joint.json", "--out", tmp_path / mode) == EXIT_OK
            docs[mode] = json.loads((tmp_path / mode / "report.json").read_text())
        h_file = "hamiltonian.json"
        assert (tmp_path / "unitary" / h_file).read_bytes() == (tmp_path / "master" / h_file).read_bytes()
        u, m = docs["unitary"], docs["master"]
        traj = load_trajectory(str(out / "joint.json"))
        defect = ur.hamiltonian_from_evolution(ur.reconstruct_evolution(traj)).antihermitian_defect
        assert list(u) == ["antihermitian_defect", "drift", "files", "candidates", "propagator_defect"]
        assert u["antihermitian_defect"] == m["antihermitian_defect"] == defect
        assert u["drift"] == m["trace_power_drift"]
        assert u["drift"] == {str(k): v for k, v in unitarity_test(traj, 1e-8).drift.items()}
        assert u["files"] == ["hamiltonian.json", "pauli_coefficients.csv"]
        assert [c["label"] for c in u["candidates"]] == ["unitary"]
        assert u["candidates"] == m["candidates"]
        assert u["propagator_defect"] == m["propagator_defect"]

    @pytest.mark.parametrize(
        "noise, low, high", [(0.0, 0.0, 1e-6), (1e-9, 1e3, np.inf)], ids=["clean", "noisy"]
    )
    def test_unitary_round_trip_sees_the_noise_probe(self, tmp_path, noise, low, high):
        # example1 with Hermitian, traceless noise on each sample: at 1e-9 the
        # noise splits rho's degenerate eigenvalue pair by 1e-10 to 6e-9, across
        # DEGENERACY_TOL, and the H(t) written is off by O(100), which only its
        # round trip shows. The noisy case's exit code is no contract here:
        # a verdict on the deviation (ROADMAP item 2) is to make it a refusal.
        n, dt = 2001, np.pi / 2000
        rng = np.random.default_rng(0)
        g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        g = 0.5 * (g + g.conj().swapaxes(1, 2))
        g -= np.trace(g, axis1=1, axis2=2).real[:, np.newaxis, np.newaxis] / 4 * np.eye(4)
        traj = scenario_example1(1.0).joint(0.0, dt, n)
        path = tmp_path / "noisy.json"
        write_trajectory(str(path), Trajectory(0.0, dt, traj.samples + noise * g))
        rec = tmp_path / "rec"
        run("reconstruct", "unitary", path, "--out", rec)
        (entry,) = json.loads((rec / "report.json").read_text())["candidates"]
        assert low < entry["roundtrip_deviation"] < high

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
        # 401 intervals: 200 RK4 steps of 2 dt, then one step of dt whose
        # midpoint falls between the last two samples
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

    @pytest.mark.parametrize("steps", [400, 401])
    def test_master_report_does_not_depend_on_t0(self, tmp_path, steps):
        # a Unix timestamp as t0: the round trip reads U(t) by grid index,
        # so the report is the one of the same samples at t0 = 0
        out = tmp_path / "ex3"
        run("scenario", "example3", "--t-max", 2, "--steps", steps, "--out", out)
        traj = load_trajectory(str(out / "joint.json"))
        write_trajectory(str(tmp_path / "late.json"), Trajectory(1.7e9, traj.dt, traj.samples))
        reports = []
        for name in ("ex3/joint.json", "late.json"):
            rec = tmp_path / f"rec-{len(reports)}"
            assert run("reconstruct", "master", tmp_path / name, "--out", rec) == EXIT_OK
            reports.append((rec / "report.json").read_bytes())
        assert reports[0] == reports[1]

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
        # two intervals are a single RK4 step of 2 dt; three add one step of dt
        for steps in (2, 3):
            out = tmp_path / f"{name}-{steps}"
            run("scenario", name, "--t-max", 0.01, "--steps", steps, "--out", out)
            rec = tmp_path / f"master-{steps}"
            assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_OK
            doc = json.loads((rec / "report.json").read_text())
            valid = [c for c in doc["candidates"] if c["cp_valid"]]
            assert [c["label"] for c in valid] == labels, steps
            for c in valid:
                assert c["roundtrip_deviation"] < 1e-6, (steps, c["label"])

    @pytest.mark.parametrize("t_max, steps", [(22.11, 4422), (22.1, 4420)])
    def test_master_at_gamma_3000_stays_finite(self, tmp_path, capsys, t_max, steps):
        # gamma dt = 15: the fitted rates made the lab-frame RK4 of the states
        # overflow on these grids, but e^{t L_K} of a CP-valid K is a
        # contraction, and only W, the RK4 propagator of H(t), is integrated
        out = tmp_path / "ex3"
        run("scenario", "example3", "--gamma", 3000, "--t-max", t_max, "--steps", steps, "--out", out)
        capsys.readouterr()
        rec = tmp_path / "master"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_OK
        assert capsys.readouterr().err == ""
        doc = json.loads((rec / "report.json").read_text())
        valid = [c for c in doc["candidates"] if c["cp_valid"]]
        assert [c["label"] for c in valid] == ["single:4", "single:7", "single:8", "single:11"]
        for c in valid:
            assert np.isfinite([c["roundtrip_deviation"], *c["roundtrip_marginals"]]).all()
        assert np.isfinite(doc["propagator_defect"])

    @pytest.mark.parametrize("mode, name, files", [
        ("master", "example3", ["hamiltonian.json"]),
        ("unitary", "example1", ["hamiltonian.json", "pauli_coefficients.csv"]),
    ], ids=["master", "unitary"])
    def test_round_trip_overflow_exits_3(self, tmp_path, capsys, monkeypatch, mode, name, files):
        # a W that diverges stops the round trip of every candidate, the K = 0
        # one of reconstruct unitary too; the files before it are written
        def diverging(*args):
            raise RuntimeError("integration produced non-finite values in step 7")

        monkeypatch.setattr(dr, "roundtrip_verify", diverging)
        out = tmp_path / name
        run("scenario", name, "--t-max", 2, "--steps", 40, "--out", out)
        capsys.readouterr()
        rec = tmp_path / mode
        assert run("reconstruct", mode, out / "joint.json", "--out", rec) == EXIT_NO_CP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: round trip: integration produced non-finite values in step 7\n"
        assert all((rec / f).exists() for f in files) and not (rec / "report.json").exists()

    def test_master_round_trip_deviation_overflow_exits_3(self, tmp_path, capsys, monkeypatch):
        # a candidate whose states leave the float range gets a non-finite
        # deviation, which report.json cannot hold
        real = dr.roundtrip_verify

        def overflowing(*args):
            rt = real(*args)
            rt.max_deviation[1] = np.inf
            rt.max_marginal_a[3] = np.nan
            return rt

        monkeypatch.setattr(dr, "roundtrip_verify", overflowing)
        out = tmp_path / "ex3"
        run("scenario", "example3", "--t-max", 2, "--steps", 40, "--out", out)
        capsys.readouterr()
        rec = tmp_path / "master"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_NO_CP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: round trip: the deviation of single:7, single:11 from the samples is not finite\n"
        )
        assert (rec / "hamiltonian.json").exists() and not (rec / "report.json").exists()

    def test_master_follows_a_time_dependent_h(self, tmp_path):
        # example1 with marginal A turned by exp(-i 0.35 t sigma_1): H(t) is
        # no longer constant, and the round trip integrates it, not its mean
        out = tmp_path / "ex1"
        run("scenario", "example1", "--J", 1, "--t-max", 4, "--steps", 2000, "--out", out)
        traj = load_trajectory(str(out / "joint.json"))
        th = 0.35 * traj.times[:, np.newaxis, np.newaxis]
        f = np.cos(th) * np.eye(2) - 1j * np.sin(th) * np.array([[0, 1], [1, 0]])
        turn = np.einsum("nab,cd->nacbd", f, np.eye(2)).reshape(-1, 4, 4)
        turned = turn @ traj.samples @ turn.conj().swapaxes(1, 2)
        write_trajectory(str(tmp_path / "turned.json"), Trajectory(traj.t0, traj.dt, turned))
        rec = tmp_path / "master"
        assert run("reconstruct", "master", tmp_path / "turned.json", "--out", rec) == EXIT_OK
        doc = json.loads((rec / "report.json").read_text())
        (entry,) = doc["candidates"]
        assert entry["label"] == "unitary"
        assert entry["roundtrip_deviation"] < 1e-5
        assert doc["propagator_defect"] < 1e-5

    def test_report_refuses_non_finite_values(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_report(str(path), {"roundtrip_deviation": float("inf")})
        assert not path.exists()


def _traced_peak(f, *args):
    """Peak bytes that tracemalloc sees while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the check and parse scratch of one _PIECE of the samples text (its copies
# and its Python floats) and the state check of one chunk, whatever n
_LOAD_SCRATCH = 4_000_000


def test_loader_holds_only_the_file_and_the_samples(tmp_path):
    for n in (4001, 16001):
        path = tmp_path / f"{n}.json"
        write_trajectory(str(path), scenario_example3(2.0, 0.2).joint(0.0, 1e-3, n))
        samples = n * 16 * 16  # bytes of the complex (n, 4, 4) stack
        bound = path.stat().st_size + samples + _LOAD_SCRATCH
        assert _traced_peak(load_trajectory, str(path)) <= bound, n


def test_reconstruct_master_memory_does_not_grow_past_its_stacks(tmp_path, capsys):
    # past a scratch set by the chunk sizes, reconstruct master holds per
    # sample the sample, U(t) and H(t), 256 bytes each, and the 4 eigenvalue
    # branches, 32 bytes; the round trip's own scratch is one chunk of
    # dissipative_recon._STEPS steps, whose bound test_dissipative_recon checks
    def excess(n):
        path = tmp_path / f"{n}.json"
        write_trajectory(str(path), scenario_example3(2.0, 0.2).joint(0.0, 10.0 / (n - 1), n))
        rec = tmp_path / f"master{n}"
        peak = _traced_peak(run, "reconstruct", "master", path, "--out", rec)
        report = json.loads((rec / "report.json").read_text())
        assert any(c["cp_valid"] for c in report["candidates"])
        return peak - n * (3 * 256 + 32)

    assert excess(8001) <= 1.03 * excess(2001)


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
    # check's tolerance is --tol or 1e-10; the QMP_TOL variable is not read
    out = tmp_path / "ex1"
    run("scenario", "example1", "--J", 2, "--t-max", 3.1, "--steps", 50, "--out", out)
    report = tmp_path / "r.json"
    for env in ("1e-3", "banana"):
        monkeypatch.setenv("QMP_TOL", env)
        assert run("check", out / "joint.json", "--out", report) == EXIT_OK
        assert json.loads(report.read_text())["tol"] == 1e-10
        assert run("check", out / "joint.json", "--tol", "0.5", "--out", report) == EXIT_OK
        assert json.loads(report.read_text())["tol"] == 0.5


@pytest.mark.parametrize(
    "argv, named",
    [
        (["example1", "--t-max", 3, "--steps", 0], "--steps"),
        (["example1", "--t-max", 3, "--steps", 1], "--steps"),
        (["example1", "--t-max", "inf", "--steps", 10], "--t-max"),
        (["example1", "--t-max", "nan", "--steps", 10], "--t-max"),
        (["example1", "--t-max", 0, "--steps", 10], "--t-max"),
        (["example1", "--t-max", -1, "--steps", 10], "--t-max"),
        # values the parser itself rejects
        (["example1", "--t-max", "abc", "--steps", 10], "--t-max"),
        (["example1", "--t-max", 3, "--steps", "abc"], "--steps"),
        (["example1", "--J", "abc", "--t-max", 3, "--steps", 10], "--J"),
        # values the scenario samplers would only reject as an invalid state
        (["example3", "--gamma", "nan", "--t-max", 3, "--steps", 10], "--gamma"),
        (["example3", "--gamma", "inf", "--t-max", 3, "--steps", 10], "--gamma"),
        (["example3", "--gamma", -1, "--t-max", 3, "--steps", 10], "--gamma"),
        (["example3", "--J", "inf", "--t-max", 3, "--steps", 10], "--J"),
        (["example1", "--J", 0, "--t-max", 3, "--steps", 10], "--J"),
        (["example2", "--omega", "nan", "--t-max", 3, "--steps", 10], "--omega"),
        # options of another scenario, which this one would ignore
        (["example1", "--gamma", 5, "--t-max", 3, "--steps", 10], "--gamma"),
        (["example1", "--omega", 5, "--t-max", 3, "--steps", 10], "--omega"),
        (["example2", "--J", 5, "--t-max", 3, "--steps", 10], "--J"),
        (["example2", "--gamma", 5, "--t-max", 3, "--steps", 10], "--gamma"),
        (["example3", "--omega", 5, "--t-max", 3, "--steps", 10], "--omega"),
    ],
    ids=[
        "steps-0", "steps-1", "t-max-inf", "t-max-nan", "t-max-0", "t-max-negative",
        "t-max-abc", "steps-abc", "J-abc", "gamma-nan", "gamma-inf", "gamma-negative",
        "J-inf", "J-0", "omega-nan", "example1-gamma", "example1-omega", "example2-J",
        "example2-gamma", "example3-omega",
    ],
)
def test_bad_scenario_arguments_exit_4(tmp_path, capsys, argv, named):
    out = tmp_path / "ex"
    assert run("scenario", *argv, "--out", out) == EXIT_PARSE
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    # the scenario's own usage line, which lists the options it takes
    assert re.match(rf"usage: qmp scenario {argv[0]}\s+\[-h\]", err)
    assert not out.exists()


def test_bad_values_get_one_message(tmp_path, capsys):
    # a value float() cannot read and a non-finite one are both the parser's
    # rejection, in the same words
    messages = []
    for raw in ("abc", "nan"):
        assert run("scenario", "example1", "--t-max", raw, "--steps", 10, "--out", tmp_path) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"argument --t-max: must be a finite number > 0, got '{raw}'" in err
        messages.append(err.replace(raw, "RAW"))
    assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "argv, named, usage",
    [
        (["simulate", "example1"], "simulate", "qmp"),
        (["scenario", "example1", "--t-max", 3, "--steps", 10], "--out", "qmp scenario example1"),
        (["reconstruct", "master", "joint.json"], "--out", "qmp reconstruct master"),
        (["check", "a.json", "b.json", "c.json"], "unrecognized arguments: c.json", "qmp check"),
        (
            ["reconstruct", "master", "joint.json", "--out", "o", "--bogus"],
            "unrecognized arguments: --bogus",
            "qmp reconstruct master",
        ),
    ],
    ids=[
        "unknown-command", "scenario-no-out", "reconstruct-no-out", "check-three-files",
        "reconstruct-unknown-option",
    ],
)
def test_parser_errors_exit_4(capsys, argv, named, usage):
    # argparse's own exit 2 is the code of an invalid state, so it maps to 4;
    # the usage line is that of the innermost command that was named
    assert run(*argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert named in err and re.match(rf"usage: {usage}\s+\[-h\]", err)


def test_help_exits_0(capsys):
    assert run("--help") == EXIT_OK
    assert "usage: qmp" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1"], ids=["tol-nan", "tol-negative"])
def test_bad_tolerance_exits_4(tmp_path, capsys, tol):
    out = tmp_path / "ex1"
    run("scenario", "example1", "--t-max", 3.1, "--steps", 20, "--out", out)
    assert run("check", out / "joint.json", "--tol", tol, "--out", tmp_path / "r.json") == EXIT_PARSE
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_qmp_tol_does_not_reach_reconstruct(tmp_path, monkeypatch):
    # no command reads QMP_TOL; reconstruct gates unitarity at 1e-8
    out = tmp_path / "ex3"
    run("scenario", "example3", "--t-max", 2, "--steps", 400, "--out", out)
    reports = []
    for env in (None, "1"):
        if env is not None:
            monkeypatch.setenv("QMP_TOL", env)
        rec = tmp_path / f"rec-{env}"
        assert run("reconstruct", "master", out / "joint.json", "--out", rec) == EXIT_OK
        reports.append((rec / "report.json").read_bytes())
        assert run("reconstruct", "unitary", out / "joint.json", "--out", tmp_path / "u") == EXIT_INVALID
    assert reports[0] == reports[1]


def _child_env(**extra):
    """The environment of a fresh interpreter that imports this qmp."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmp.__file__)))
    return dict(os.environ, PYTHONPATH=src, **extra)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    code = "import sys, qmp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_master_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 12001 samples are enough for OpenBLAS to split a product over the whole
    # series between its threads, whose partial sums round differently
    run("scenario", "example3", "--t-max", 2, "--steps", 12000, "--out", tmp_path / "ex3")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "qmp.cli", "reconstruct", "master",
             str(tmp_path / "ex3" / "joint.json"), "--out", str(out)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
        )
        assert done.returncode == EXIT_OK, done.stderr
        outs.append(out)
    for name in ("report.json", "hamiltonian.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# Runs each command of the JSON list argv[1] in-process and prints, as JSON,
# the CPU seconds that every thread but the main one gained during it. numpy's
# import wakes OpenBLAS's workers, which spin for a while; the commands start
# once that spin has settled.
_WORKER_CPU = """
import contextlib, io, json, os, sys, time
import qmp.cli

def worker_cpu():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            try:
                with open(f"/proc/self/task/{tid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except FileNotFoundError:  # the thread has ended
                continue
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / os.sysconf("SC_CLK_TCK")

last = worker_cpu()
for _ in range(100):
    time.sleep(0.1)
    now = worker_cpu()
    if now == last:
        break
    last = now
gained = {}
for argv in json.loads(sys.argv[1]):
    before = worker_cpu()
    with contextlib.redirect_stdout(io.StringIO()):
        qmp.cli.main(argv)
    gained[" ".join(argv[:2])] = worker_cpu() - before
print(json.dumps(gained))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_commands_leave_the_blas_threads_idle(tmp_path):
    # a product over the whole series sent to a threaded BLAS wakes its
    # workers, which spin on after the call returns (0.09 s on master's fit);
    # two BLAS threads, so that a worker exists on any multi-core machine
    ex1, ex3 = tmp_path / "ex1", tmp_path / "ex3"
    run("scenario", "example1", "--t-max", 3.1, "--steps", 12000, "--out", ex1)
    run("scenario", "example3", "--t-max", 2, "--steps", 12000, "--out", ex3)
    commands = [
        ["reconstruct", "master", ex3 / "joint.json", "--out", tmp_path / "master"],
        ["reconstruct", "unitary", ex1 / "joint.json", "--out", tmp_path / "unitary"],
        ["check", ex3 / "joint.json", "--out", tmp_path / "check.json"],
        ["check", ex1 / "marginal_a.json", ex1 / "marginal_b.json", "--out", tmp_path / "window.json"],
        ["measures", ex3 / "joint.json", "--out", tmp_path / "measures.csv"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _WORKER_CPU, json.dumps([[str(a) for a in c] for c in commands])],
        env=_child_env(OPENBLAS_NUM_THREADS="2"), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    gained = json.loads(done.stdout)
    assert sum(gained.values()) < 0.02, gained


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
