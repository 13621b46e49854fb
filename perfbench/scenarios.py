"""Seeded workload parameters and closed-form reference trajectories.

Nothing here imports qmp: the references are built from the physics the
scenario docstrings state (a Hamiltonian and an initial or diagonal
state), evolved with numpy's own eigendecomposition, so agreement with
the program's outputs is an independent check.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Even interval count: `qmp reconstruct master` needs it (see CHANGES.md,
# FOUND about the stride-2 round trip). n = STEPS + 1 = 20001 samples.
STEPS = 20000

SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


def pauli_product(a: int, b: int) -> np.ndarray:
    return np.kron(SIGMA[a], SIGMA[b])


@dataclass(frozen=True)
class Params:
    """Scenario parameters drawn from one seed."""

    seed: int
    J: float
    gamma: float
    omega: float
    t_max: float
    steps: int
    w: np.ndarray  # local unitary W_A (x) W_B that conjugates example1

    @property
    def n(self) -> int:
        return self.steps + 1

    @property
    def dt(self) -> float:
        # the same expression `qmp scenario` uses, so grids agree bit for bit
        return self.t_max / self.steps

    @property
    def times(self) -> np.ndarray:
        return 0.0 + self.dt * np.arange(self.n)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def params(seed: int, steps: int = STEPS) -> Params:
    """J in [1.5, 2.5], gamma in [0.15, 0.25], omega in [0.75, 1.25],
    t_max in [8, 12], and a Haar-random W_A (x) W_B."""
    rng = np.random.default_rng(seed)
    j = float(rng.uniform(1.5, 2.5))
    gamma = float(rng.uniform(0.15, 0.25))
    omega = float(rng.uniform(0.75, 1.25))
    t_max = float(rng.uniform(8.0, 12.0))
    w = np.kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2))
    return Params(seed, j, gamma, omega, t_max, steps, w)


def _evolve(h: np.ndarray, rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-iHt) rho(t) exp(iHt) for every t, via the eigenbasis of H;
    rho is one matrix or one per time."""
    w, v = np.linalg.eigh(h)
    u = np.einsum("ij,tj,kj->tik", v, np.exp(-1j * np.outer(times, w)), v.conj())
    return u @ rho @ np.conj(np.swapaxes(u, 1, 2))


def example1_hamiltonian(p: Params) -> np.ndarray:
    """W (-(J/4)(s1 s1 + s2 s2)) W^dag: the generator of the conjugated input."""
    h = -(p.J / 4.0) * (pauli_product(1, 1) + pauli_product(2, 2))
    return p.w @ h @ p.w.conj().T


def example1_joint(p: Params) -> np.ndarray:
    """Example 1 conjugated by W: the t = 0 state diag(1/4, 5/16, 3/16, 1/4)
    evolved under the exchange Hamiltonian, in the basis W."""
    rho0 = np.diag([0.25, 5 / 16, 3 / 16, 0.25]).astype(complex)
    return _evolve(example1_hamiltonian(p), p.w @ rho0 @ p.w.conj().T, p.times)


def example2_marginals(p: Params):
    """rho_A = (1/2)[[1, c], [c, 1]], rho_B = (1/2)[[1, s], [s, 1]],
    c = cos(2 omega t), s = sin(2 omega t)."""
    c = np.cos(2 * p.omega * p.times)
    s = np.sin(2 * p.omega * p.times)
    one = np.ones_like(c)
    rho_a = 0.5 * np.stack([np.stack([one, c], -1), np.stack([c, one], -1)], -2)
    rho_b = 0.5 * np.stack([np.stack([one, s], -1), np.stack([s, one], -1)], -2)
    return rho_a.astype(complex), rho_b.astype(complex)


def example3_joint(p: Params) -> np.ndarray:
    """U_t Gamma(t) U_t^dag with Gamma = diag(b+/2, 0, b-/2, 0),
    b+- = 1 +- exp(-gamma t), U_t generated by (3J/8)(s1 s1 - s2 s2)."""
    e = np.exp(-p.gamma * p.times)
    gam = np.zeros((p.n, 4, 4), dtype=complex)
    gam[:, 0, 0] = 0.5 * (1 + e)
    gam[:, 2, 2] = 0.5 * (1 - e)
    h = (3 * p.J / 8.0) * (pauli_product(1, 1) - pauli_product(2, 2))
    return _evolve(h, gam, p.times)


def reduce(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced states of an (n, 4, 4) stack; keep = "A" or "B"."""
    r = rho.reshape(-1, 2, 2, 2, 2)
    return np.einsum("nakbk->nab", r) if keep == "A" else np.einsum("nkakb->nab", r)


def purity(rho: np.ndarray) -> np.ndarray:
    """Tr rho^2 = sum |rho_ij|^2 for Hermitian rho."""
    return np.sum(np.abs(rho) ** 2, axis=(-2, -1))


def negativity(rho: np.ndarray) -> np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose on B."""
    pt = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    w = np.linalg.eigvalsh(pt)
    return -np.sum(np.minimum(w, 0.0), axis=-1)


def write_trajectory(path, p: Params, samples: np.ndarray, extra=None) -> None:
    """Write samples in the documented trajectory format (cli docstring)."""
    n, d, _ = samples.shape
    pairs = np.stack([samples.real, samples.imag], -1).reshape(n, d * d, 2)
    doc = {"dim": d, "t0": 0.0, "dt": p.dt, "n": n, "params": extra or {},
           "samples": pairs.tolist()}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # one string: twice as fast as json.dump


def write_inputs(workload: str, p: Params, out) -> None:
    """The input files of one workload; generate-check takes none, since
    its first command writes the trajectories."""
    os.makedirs(out, exist_ok=True)
    if workload == "unitary-ex1":
        write_trajectory(os.path.join(out, "joint.json"), p, example1_joint(p), {"J": p.J})
    elif workload == "master-ex3":
        write_trajectory(os.path.join(out, "joint.json"), p, example3_joint(p),
                         {"J": p.J, "gamma": p.gamma})


def read_trajectory(path):
    """(t0, dt, samples) of a trajectory file; samples shape (n, d, d)."""
    with open(path) as fh:
        doc = json.load(fh)
    raw = np.asarray(doc["samples"], dtype=float)
    d = int(doc["dim"])
    if raw.shape != (int(doc["n"]), d * d, 2):
        raise ValueError(f"{path}: samples have shape {raw.shape}")
    return float(doc["t0"]), float(doc["dt"]), (raw[..., 0] + 1j * raw[..., 1]).reshape(-1, d, d)
