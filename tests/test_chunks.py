"""Every pass over a whole (n, d, d) stack runs on slices of qcore._CHUNK
samples. With the slice patched down to a few samples, each pass must
give the bits of a one-slice run, at lengths around the slice edges."""

import numpy as np
import pytest

from qmp import qcore
from qmp.kinematics import scenario_example3, unitarity_test
from qmp.qcore import Trajectory, hermiticity_defect, spectrum, validate_state
from qmp.unitary_recon import (
    EvolutionSequence,
    _continue_frames,
    eigenframe_decompose,
    hamiltonian_from_evolution,
)

CHUNK = 5


def _rotated_example3(n):
    """example3 in a random basis: a drifting spectrum with a degenerate
    pair and a split at t0, so the continuation matches labels and blocks."""
    z = np.random.default_rng(n).normal(size=(4, 4, 2)) @ [1, 1j]
    w = np.linalg.qr(z)[0]
    rho = scenario_example3(2.0, 0.2).joint(0.0, 0.05, n).samples
    return Trajectory(0.0, 0.05, w @ rho @ w.conj().T)


def _jumping(n):
    """A fixed spectrum with a degenerate pair in a new random basis at
    every sample, so the match leaks between blocks, and the continuation
    resets, at almost every step, in every chunk."""
    z = np.random.default_rng(n).normal(size=(n, 4, 4, 2)) @ [1, 1j]
    w = np.linalg.qr(z)[0]
    return Trajectory(0.0, 0.05, w @ np.diag([0.4, 0.3, 0.15, 0.15]) @ w.conj().swapaxes(1, 2))


def _passes(traj):
    frames, branches = _continue_frames(traj)
    frame = eigenframe_decompose(traj)
    ham = hamiltonian_from_evolution(frame.useq)
    rep = validate_state(traj.samples)
    w, v = spectrum(traj.samples, vectors=True)
    return {
        "frames": frames,
        "branches": branches,
        "u": frame.useq.u,
        "h": ham.trajectory.samples,
        "h defect": ham.antihermitian_defect,
        "hermiticity": hermiticity_defect(traj.samples),
        "state": [rep.hermiticity_defect, rep.trace_defect, rep.min_eigenvalue],
        "spectrum": [w, spectrum(traj.samples)],
        "vectors": v,
        "trace powers": list(unitarity_test(traj).drift.values()),
    }


@pytest.mark.parametrize("sampled", [_rotated_example3, _jumping])
@pytest.mark.parametrize("n", [3, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1])
def test_chunked_passes_match_one_chunk(monkeypatch, n, sampled):
    traj = sampled(n)
    monkeypatch.setattr(qcore, "_CHUNK", 2 * n)
    whole = _passes(traj)
    monkeypatch.setattr(qcore, "_CHUNK", CHUNK)
    chunked = _passes(traj)
    for name, value in whole.items():
        assert np.array_equal(chunked[name], value), name


@pytest.mark.parametrize("n", [3, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1])
def test_chunked_unitarity_check_names_the_worst_defect(monkeypatch, n):
    # the largest defect sits in the last chunk, a smaller one in the first
    u = eigenframe_decompose(_rotated_example3(n)).useq.u.copy()
    u[1] *= 1 + 1e-9
    u[-1] *= 1 + 1e-7

    def message(chunk):
        monkeypatch.setattr(qcore, "_CHUNK", chunk)
        with pytest.raises(ValueError, match="not unitary") as exc:
            EvolutionSequence(0.0, 0.05, u)
        return str(exc.value)

    assert message(CHUNK) == message(2 * n)
