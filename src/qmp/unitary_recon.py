"""Reconstruction of unitary dynamics from a density-matrix trajectory.

Given samples of rho(t) with a constant spectrum, build a smooth family
of unitaries U(t) with U(t0) = I and U(t) rho(t0) U(t)^dag = rho(t), and
recover the generating Hamiltonian H(t) = i (dU/dt) U^dag. The route is
eigenframe continuation: per-time eigendecompositions are glued together
by overlap matching and one alignment rule, the polar factor of the
overlap restricted to each degenerate eigenvalue block (a single
eigenvector is a 1x1 block, whose polar factor is its phase fix). That
stays smooth where coordinate charts (e.g. the Iwasawa/Gauss
parametrization, provided here for validation) become singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .qcore import Trajectory, dag, diff_series, hermiticity_defect, spectrum

__all__ = [
    "OrbitSpec",
    "EvolutionSequence",
    "EigenframeResult",
    "HamiltonianResult",
    "orbit_rep",
    "iwasawa_decompose",
    "reconstruct_evolution",
    "eigenframe_decompose",
    "hamiltonian_from_evolution",
]

DEGENERACY_TOL = 1e-9
SPECTRUM_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class OrbitSpec:
    """Spectrum data labeling the unitary orbit of a state.

    ``gamma`` holds the eigenvalues in descending order; ``partition``
    groups indices of equal eigenvalues (at tolerance 1e-9). The orbit
    dimension is n^2 - sum(m_i^2) over the multiplicities, which gives
    n(n-1) for a nondegenerate spectrum, 2(n-1) for a pure state and 0
    for the maximally mixed state.
    """

    gamma: np.ndarray
    partition: tuple

    @property
    def dimension(self) -> int:
        n = len(self.gamma)
        return n * n - sum(len(b) ** 2 for b in self.partition)


def orbit_rep(rho: np.ndarray, tol: float = DEGENERACY_TOL) -> OrbitSpec:
    """Descending spectrum and degeneracy structure of a state."""
    w = spectrum(np.asarray(rho, dtype=complex))
    ids = _block_ids(w, tol)[::-1]  # descending order, so the ids count down
    blocks = (tuple(np.flatnonzero(ids == k).tolist()) for k in range(ids[0], -1, -1))
    return OrbitSpec(w[::-1], tuple(blocks))


def iwasawa_decompose(z: np.ndarray, tol: float = 1e-10):
    """Factor an invertible matrix as z = u a r.

    u is unitary, a positive diagonal with det a = 1, and r unit
    upper-triangular, obtained from the Cholesky factorization of
    z^dag z = r^dag a^2 r. The input must have unit determinant within
    ``tol`` (rescale first otherwise).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("z must be square")
    det = np.linalg.det(z)
    if abs(det - 1.0) > tol:
        raise ValueError(f"det z = {det:g}; rescale to unit determinant first")
    g = dag(z) @ z
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError("z is singular or too ill-conditioned") from exc
    d = low.diagonal().real
    a = np.diag(d.astype(complex))
    r = dag(low / d[np.newaxis, :])  # unit upper-triangular
    u = z @ np.linalg.inv(r) @ np.diag(1.0 / d)
    if np.max(np.abs(u @ dag(u) - np.eye(len(d)))) > 100 * tol:
        raise ValueError("factorization failed to produce a unitary factor")
    return u, a, r


@dataclass(frozen=True)
class EvolutionSequence:
    """Family of unitaries on a uniform grid with U(t0) = I."""

    t0: float
    dt: float
    u: np.ndarray
    gamma: np.ndarray  # descending spectrum of rho(t0)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 3 or u.shape[1] != u.shape[2]:
            raise ValueError("u must have shape (n, d, d)")
        eye = np.eye(u.shape[1])
        worst = float(np.max(np.abs(u @ dag(u) - eye)))
        if worst > 1e-10:
            raise ValueError(f"sequence is not unitary (defect {worst:g})")
        if np.max(np.abs(u[0] - eye)) > 1e-10:
            raise ValueError("sequence must start at the identity")
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def half_grid(self) -> "EvolutionSequence":
        """The sequence on the grid of spacing dt / 2.

        Even samples are this sequence's; sample 2i + 1 is the polar
        factor of U_i + U_{i+1}, from one batched SVD. While
        ||log(U_i^dag U_{i+1})|| < pi that is exactly the geodesic
        midpoint U_i (U_i^dag U_{i+1})^{1/2}.
        """
        w, _, vh = np.linalg.svd(self.u[:-1] + self.u[1:])
        u = np.empty((2 * self.n - 1,) + self.u.shape[1:], dtype=complex)
        u[::2] = self.u
        u[1::2] = w @ vh
        return EvolutionSequence(self.t0, 0.5 * self.dt, u, self.gamma)


@dataclass(frozen=True)
class EigenframeResult:
    """Eigenframe split rho(t) = V(t) W(t) V(t)^dag with labeled branches.

    ``useq`` carries U(t) = V(t) V(t0)^dag (identity at t0); ``gamma``
    is the trajectory of diagonal branch matrices W(t) ordered by the
    continuation labels, ``v0`` the initial frame V(t0), so that
    rho(t) = U(t) V0 W(t) V0^dag U(t)^dag, and ``residual`` the max
    reconstruction error max_t || U rho(t0) U^dag - rho || when the
    spectrum is constant.
    """

    useq: EvolutionSequence
    gamma: Trajectory
    v0: np.ndarray
    residual: float


# flat indices r * k + perm[r] of the k! label permutations of a k x k matrix
_PERMUTATION_INDEX = {
    k: np.array(list(permutations(range(k)))) + k * np.arange(k) for k in range(1, 5)
}


def _best_permutation(score: np.ndarray) -> np.ndarray:
    """perm maximizing sum_r score[r, perm[r]] for a k x k score, k <= 4,
    by exhaustive search over the k! label permutations."""
    flat = _PERMUTATION_INDEX[len(score)]
    return flat[score.take(flat).sum(axis=1).argmax()] % len(score)


def _block_ids(ws: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Degeneracy block of every eigenvalue of ascending spectra, shape
    (..., d): ids count up from 0, a new block starting at each gap above tol."""
    ids = np.zeros(ws.shape, dtype=int)
    np.cumsum(np.diff(ws, axis=-1) > tol, axis=-1, out=ids[..., 1:])
    return ids


def _continue_frames(traj: Trajectory):
    """Label-continuous eigendecomposition of every sample.

    Each step matches the eigenvalue branches to the previous frame by
    maximal total eigenvector overlap, an exhaustive search over the d!
    label permutations (d <= 4), and then aligns the relabeled
    eigenvectors V to the previous frame F by one rule: V is multiplied
    by the polar factor of V^dag F with the entries between different
    degenerate blocks masked out. For a single eigenvector that is the
    phase making its overlap real-positive; for a degenerate block it is
    the orthogonal Procrustes rotation, which parallel-transports the
    frame through exact degeneracies. Returns the frames, shape (n, d, d),
    and the labeled eigenvalue branches, shape (n, d).
    """
    n = traj.n
    d = traj.dim
    if d > 4:
        raise ValueError(f"eigenframe continuation supports dim <= 4, got dim {d}")
    frames = np.empty((n, d, d), dtype=complex)
    branches = np.empty((n, d))
    ws, vs = spectrum(traj.samples, vectors=True)
    ids = _block_ids(ws)
    order = np.argsort(-ws[0], kind="stable")
    v0 = vs[0][:, order]
    ids0 = ids[0][order]
    # Inside a degenerate block of rho(t0) eigh's basis is arbitrary; take
    # the one diagonalizing rho(t1) there (columns nearest eigh's order),
    # so the frame does not jump when the block splits.
    for k in range(ids[0, -1] + 1):
        b = np.flatnonzero(ids0 == k)
        if len(b) > 1:
            _, c = np.linalg.eigh(dag(v0[:, b]) @ traj.samples[1] @ v0[:, b])
            v0[:, b] = v0[:, b] @ c[:, _best_permutation(np.abs(c) ** 2)]
    frames[0] = v0
    branches[0] = ws[0][order]
    for i in range(1, n):
        overlap = dag(vs[i]) @ frames[i - 1]
        perm = _best_permutation(np.abs(overlap.T) ** 2)
        block = ids[i][perm]
        # overlap[perm] is (V P)^dag F; keep the entries whose labels share a
        # block, in it and in its polar factor, where the SVD leaks rounding
        same = block[:, None] == block
        aa, _, bb = np.linalg.svd(overlap[perm] * same)
        frames[i] = vs[i][:, perm] @ ((aa @ bb) * same)
        branches[i] = ws[i][perm]
    return frames, branches


def _frame_unitaries(frames: np.ndarray) -> np.ndarray:
    """U(t) = V(t) V(t0)^dag for every frame of the continuation."""
    return np.einsum("nij,jk->nik", frames, dag(frames[0]))


def reconstruct_evolution(traj: Trajectory) -> EvolutionSequence:
    """Unitaries U(t) with U(t0) = I and U(t) rho(t0) U(t)^dag = rho(t).

    The trajectory must have a constant spectrum: a branch drift above
    1e-8 aborts, naming the first sample that drifts. The output is
    unique up to right-multiplication by unitaries commuting with
    rho(t0); the continuation gauge picks the smooth representative.
    """
    frames, branches = _continue_frames(traj)
    drift = np.max(np.abs(branches - branches[0]), axis=1)
    i = int(np.argmax(drift > SPECTRUM_DRIFT_TOL))
    if drift[i] > SPECTRUM_DRIFT_TOL:
        raise ValueError(f"spectrum drift {drift[i]:g} at sample {i}: not a unitary trajectory")
    gamma = spectrum(traj.samples[0])[::-1]
    return EvolutionSequence(traj.t0, traj.dt, _frame_unitaries(frames), gamma)


def eigenframe_decompose(traj: Trajectory) -> EigenframeResult:
    """Split a (possibly dissipative) trajectory into frame and branches.

    Unlike ``reconstruct_evolution`` the spectrum may drift; the
    eigenvalue branches W(t) are returned as a diagonal trajectory in
    the continuation's label order, alongside U(t) = V(t) V(t0)^dag.
    """
    frames, branches = _continue_frames(traj)
    u = _frame_unitaries(frames)
    gamma = np.zeros_like(traj.samples)
    idx = np.arange(traj.dim)
    gamma[:, idx, idx] = branches
    # Residual of the frozen-spectrum reconstruction: tiny for unitary
    # trajectories, grows with dissipation.
    frozen = np.einsum("nij,jk,nlk->nil", u, traj.samples[0], u.conj())
    res = float(np.max(np.abs(frozen - traj.samples)))
    useq = EvolutionSequence(traj.t0, traj.dt, u, branches[0].copy())
    return EigenframeResult(useq, Trajectory(traj.t0, traj.dt, gamma), frames[0].copy(), res)


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
    h = 1j * np.einsum("nij,nkj->nik", diff_series(seq.u, seq.dt), seq.u.conj())
    defect = float(np.max(hermiticity_defect(h)))
    h = 0.5 * (h + np.conj(np.transpose(h, (0, 2, 1))))
    tr = np.trace(h, axis1=1, axis2=2).real / h.shape[1]
    h -= tr[:, np.newaxis, np.newaxis] * np.eye(h.shape[1])
    return HamiltonianResult(Trajectory(seq.t0, seq.dt, h), defect)
