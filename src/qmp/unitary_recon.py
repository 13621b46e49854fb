"""Reconstruction of unitary dynamics from a density-matrix trajectory.

Given samples of rho(t) with a constant spectrum, build a smooth family
of unitaries U(t) with U(t0) = I and U(t) rho(t0) U(t)^dag = rho(t), and
recover the generating Hamiltonian H(t) = i (dU/dt) U^dag. The route is
eigenframe continuation: per-time eigendecompositions are glued together
by overlap matching and one alignment rule, the polar factor of the
overlap restricted to each degenerate eigenvalue block (a single
eigenvector is a 1x1 block, whose polar factor is its phase fix), in
batched passes plus single steps where the block partition changes or the
match leaks between blocks. That stays smooth where coordinate charts
become singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .qcore import Trajectory, _chunks, _joined, dag, diff_series, hermiticity_defect, spectrum

__all__ = [
    "EvolutionSequence",
    "EigenframeResult",
    "HamiltonianResult",
    "reconstruct_evolution",
    "eigenframe_decompose",
    "constant_spectrum",
    "hamiltonian_from_evolution",
]

DEGENERACY_TOL = 1e-9
SPECTRUM_DRIFT_TOL = 1e-8
# squared overlap a step's label match may leave between degeneracy blocks;
# a clean step leaves its squared rotation angle, a wrong match above 0.7
BLOCK_LEAK_TOL = 0.25


@dataclass(frozen=True)
class EvolutionSequence:
    """Family of unitaries on a uniform grid with U(t0) = I."""

    t0: float
    dt: float
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 3 or u.shape[1] != u.shape[2]:
            raise ValueError("u must have shape (n, d, d)")
        eye = np.eye(u.shape[1])
        worst = float(_joined(lambda x: np.abs(x @ dag(x) - eye).max(axis=(-2, -1)), u).max())
        # written so that a NaN, for which every comparison is false, fails
        if not worst <= 1e-10:
            raise ValueError(f"sequence is not unitary (defect {worst:g})")
        if not np.max(np.abs(u[0] - eye)) <= 1e-10:
            raise ValueError("sequence must start at the identity")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class EigenframeResult:
    """Eigenframe split rho(t) = V(t) diag(branches(t)) V(t)^dag.

    ``useq`` carries U(t) = V(t) V(t0)^dag (identity at t0), ``branches``
    the (n, d) eigenvalue branches in the continuation's label order and
    ``v0`` the initial frame V(t0), so that
    rho(t) = U(t) V0 diag(branches(t)) V0^dag U(t)^dag.
    """

    useq: EvolutionSequence
    branches: np.ndarray
    v0: np.ndarray


# flat indices r * k + perm[r] of the k! label permutations of a k x k matrix
_PERMUTATION_INDEX = {
    k: np.array(list(permutations(range(k)))) + k * np.arange(k) for k in range(1, 5)
}


def _best_permutation(score: np.ndarray) -> np.ndarray:
    """perm maximizing sum_r score[..., r, perm[r]] for (..., k, k) scores,
    k <= 4, by exhaustive search over the k! label permutations: (..., k)."""
    k = score.shape[-1]
    flat = _PERMUTATION_INDEX[k]
    totals = score.reshape(score.shape[:-2] + (k * k,)).take(flat, axis=-1).sum(axis=-1)
    return flat[totals.argmax(axis=-1)] % k


def _block_ids(ws: np.ndarray) -> np.ndarray:
    """Degeneracy block of every eigenvalue of ascending spectra, shape
    (..., d): ids count up from 0, a new block starting at each gap above
    DEGENERACY_TOL."""
    ids = np.zeros(ws.shape, dtype=int)
    np.cumsum(np.diff(ws, axis=-1) > DEGENERACY_TOL, axis=-1, out=ids[..., 1:])
    return ids


def _aligned(overlap: np.ndarray, ids: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Polar factor of overlaps V^dag X, column k of X matched to V[:, perm[k]],
    masked to entries sharing a block (ids of V), before and after the SVD."""
    same = ids[..., :, None] == np.take_along_axis(ids, perm, axis=-1)[..., None, :]
    left, _, right = np.linalg.svd(overlap * same)
    return (left @ right) * same


def _compose(perms: np.ndarray) -> None:
    """perms[i] <- perms[i][perms[i - 1]]...[perms[0]], in place, in log2 n passes."""
    k = 1
    while k < len(perms):
        perms[k:] = np.take_along_axis(perms[k:], perms[:-k], axis=-1)
        k *= 2


def _continue_frames(traj: Trajectory):
    """Label-continuous eigendecomposition of every sample.

    Each step matches the eigenvalue branches to the previous frame F by
    maximal total eigenvector overlap (all d! label permutations, d <= 4),
    then multiplies the relabeled eigenvectors V by the polar factor of
    V^dag F with the entries between different degenerate blocks masked
    out: the phase making a single eigenvector's overlap real-positive, and
    for a degenerate block the orthogonal Procrustes rotation, which
    parallel-transports the frame through exact degeneracies.

    It runs as a scan over F_i = V_i E_i (V_i the eigh vectors, E_i a label
    permutation P_i times a block-diagonal unitary). Batched passes over
    A_i = V_i^dag V_{i-1} give the relative permutations sigma_i, the masked
    polar factors R_i of A_i and P_i = sigma_i P_{i-1}; then E_i = R_i E_{i-1},
    the rule above while the block partition stays (polar(M E) = polar(M) E
    for unitary E). Where it changes, or where the match leaves more than
    BLOCK_LEAK_TOL of the squared overlap between blocks (sigma_i does not
    see E_{i-1}), the step is aligned to the real F_{i-1}, and the labels
    after it compose from its pick. Returns the frames (n, d, d) and the
    labeled eigenvalue branches (n, d).
    """
    n, d = traj.n, traj.dim
    if d > 4:
        raise ValueError(f"eigenframe continuation supports dim <= 4, got dim {d}")
    ws, vs = spectrum(traj.samples, vectors=True)
    ids0 = _block_ids(ws[0])
    order = np.argsort(-ws[0], kind="stable")
    v0 = vs[0][:, order]
    # e0 sorts to descending order. Inside a degenerate block of rho(t0)
    # eigh's basis is arbitrary; take the one diagonalizing rho(t1) there
    # (columns nearest eigh's order), so the frame does not jump at a split.
    e0 = np.eye(d, dtype=complex)[:, order]
    for k in range(ids0[-1] + 1):
        b = np.flatnonzero(ids0[order] == k)
        if len(b) > 1:
            _, c = np.linalg.eigh(dag(v0[:, b]) @ traj.samples[1] @ v0[:, b])
            e0[:, b] = e0[:, b] @ c[:, _best_permutation(np.abs(c) ** 2)]
    e = np.empty((n, d, d), dtype=complex)  # e[i]: A_i, then R_i, then E_i
    e[0] = e0
    labels = np.empty((n, d), dtype=np.int8)  # labels[i]: sigma_i, then P_i
    labels[0] = order
    resets = []
    # step i of these views goes from sample i to sample i + 1
    a, sigma, v_from, v_to = e[1:], labels[1:], vs[:-1], vs[1:]
    for part in _chunks(n - 1):
        ids = _block_ids(ws[part.start:part.stop + 1])  # of the part's steps' samples
        ids_from, ids_to = ids[:-1], ids[1:]
        np.matmul(dag(v_to[part]), v_from[part], out=a[part])
        score = np.abs(a[part].transpose(0, 2, 1)) ** 2
        sigma[part] = _best_permutation(score)
        blocks = np.take_along_axis(ids_to, sigma[part], axis=1)  # the block each column goes to
        same = ids_from[:, :, None] == ids_from[:, None, :]
        changed = same != (blocks[:, :, None] == blocks[:, None, :])
        leak = np.sum(score * (blocks[:, :, None] != ids_to[:, None, :]), axis=(1, 2))
        reset = changed.any(axis=(1, 2)) | (leak > BLOCK_LEAK_TOL)
        resets += (np.flatnonzero(reset) + part.start + 1).tolist()
        a[part] = _aligned(a[part], ids_to, sigma[part])
    for start, stop in zip([0] + resets, resets + [n]):
        if start:
            overlap = dag(vs[start]) @ (vs[start - 1] @ e[start - 1])
            labels[start] = _best_permutation(np.abs(overlap.T) ** 2)
            e[start] = _aligned(overlap, _block_ids(ws[start]), labels[start])
        for i in range(start + 1, stop):
            e[i] = e[i] @ e[i - 1]
        _compose(labels[start:stop])
    for part in _chunks(n):  # the frames and the branches, in place
        vs[part] = vs[part] @ e[part]
        ws[part] = np.take_along_axis(ws[part], labels[part], axis=1)
    return vs, ws


def eigenframe_decompose(traj: Trajectory) -> EigenframeResult:
    """Split a (possibly dissipative) trajectory into frame and branches.

    The spectrum may drift: the eigenvalue branches are returned in the
    continuation's label order, alongside U(t) = V(t) V(t0)^dag.
    """
    frames, branches = _continue_frames(traj)
    v0 = frames[0].copy()
    for part in _chunks(traj.n):  # U(t) = V(t) V0^dag, in place of the frames
        frames[part] = np.einsum("nij,jk->nik", frames[part], dag(v0))
    return EigenframeResult(EvolutionSequence(traj.t0, traj.dt, frames), branches, v0)


def constant_spectrum(frame: EigenframeResult) -> EvolutionSequence:
    """The U(t) of an eigenframe split whose branches stay within
    SPECTRUM_DRIFT_TOL of their start; a larger drift aborts, naming the
    first sample that drifts."""
    drift = np.max(np.abs(frame.branches - frame.branches[0]), axis=1)
    i = int(np.argmax(drift > SPECTRUM_DRIFT_TOL))
    if drift[i] > SPECTRUM_DRIFT_TOL:
        raise ValueError(f"spectrum drift {drift[i]:g} at sample {i}: not a unitary trajectory")
    return frame.useq


def reconstruct_evolution(traj: Trajectory) -> EvolutionSequence:
    """Unitaries U(t) with U(t0) = I and U(t) rho(t0) U(t)^dag = rho(t).

    eigenframe_decompose, then constant_spectrum, as in ``qmp reconstruct
    unitary``: a branch drift above SPECTRUM_DRIFT_TOL (1e-8) aborts,
    naming the first sample that drifts. The output is
    unique up to right-multiplication by unitaries commuting with
    rho(t0); the continuation gauge picks the smooth representative.
    """
    return constant_spectrum(eigenframe_decompose(traj))


@dataclass(frozen=True)
class HamiltonianResult:
    """H(t) series with the pre-symmetrization anti-Hermitian defect."""

    trajectory: Trajectory
    antihermitian_defect: float


def hamiltonian_from_evolution(seq: EvolutionSequence) -> HamiltonianResult:
    """Generator H(t) = i (dU/dt) U^dag of a unitary sequence.

    The raw finite-difference generator is Hermitian only up to the
    O(dt^2) stencil error; the returned series is symmetrized and made
    traceless, with the worst pre-symmetrization defect reported. The
    result does not depend on a constant right gauge factor of U.
    """
    u = np.asarray(seq.u, dtype=complex)
    h = diff_series(u, seq.dt)  # dU/dt, overwritten by H(t) one chunk at a time
    defects = []
    for part in _chunks(len(u)):
        hp = 1j * np.einsum("nij,nkj->nik", h[part], u[part].conj())
        defects.append(np.max(hermiticity_defect(hp)))
        hp = 0.5 * (hp + np.conj(np.transpose(hp, (0, 2, 1))))
        tr = np.trace(hp, axis1=1, axis2=2).real / hp.shape[1]
        hp -= tr[:, np.newaxis, np.newaxis] * np.eye(hp.shape[1])
        h[part] = hp
    return HamiltonianResult(Trajectory(seq.t0, seq.dt, h), float(np.max(defects)))
