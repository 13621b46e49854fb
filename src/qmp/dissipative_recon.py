"""Master-equation reconstruction for non-unitary two-qubit trajectories.

A GKSL dissipator is given by its Kossakowski matrix K in the traceless
Pauli-product basis lambda_k = G_k,

    Diss[X] = sum_ij K_ij (G_i X G_j - 1/2 {G_j G_i, X}),

and has one representation in this module: the 16x16 Liouvillian L_K
acting on row-major vectorized operators, vec(X) = X.reshape(16), for
which vec(A X B) = (A kron B^T) vec(X). ``KossakowskiMatrix.liouvillian``
builds L_K once from K; the affine picture r_dot = D r + l on the
15-component coherence vector and the round trip's generator are both
products with that one matrix.

The round trip's generator, Hamiltonian part included, is one lab-frame
Liouvillian per grid time, L(t) = L_h + S(t) L_K S(t)^dag with
S(t) = U(t) kron conj(U(t)) and L_h = -i (h kron I - I kron h^T), so
that each RK4 stage is one (c, 16, 16) @ (c, 16, 1) product.

For diagonal K the two pictures are linked by the anticommutation
pattern of the basis: D_kk = -2 * sum over i with {G_i, G_k} = 0 of
K_ii, and that linear map is invertible, so every diagonal affine
ansatz determines a unique diagonal K whose positivity decides
GKSL validity.

Array convention: 15-vectors and 15x15 matrices are indexed 0..14 and
refer to the generators G_1..G_15 (array position = generator index - 1;
sigma^1 (x) I sits at generator index 4, array position 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .bloch import pauli_basis, traceless_basis
from .qcore import (
    PSD_EIG_TOL,
    Trajectory,
    _require_hermitian,
    _rk4_steps,
    diff_series,
    finite_diff,
    partial_trace,
    spectrum,
)
from .unitary_recon import EvolutionSequence

__all__ = [
    "AffineGenerator",
    "KossakowskiMatrix",
    "DiagonalFit",
    "CpReport",
    "IntegratedCpReport",
    "RoundtripReport",
    "hamiltonian_action",
    "generator_residual",
    "anticommutation_table",
    "fit_diagonal_unital",
    "candidate_diagonals",
    "k_from_d",
    "d_from_k",
    "cp_check",
    "integrated_cp_check",
    "roundtrip_verify",
]


@dataclass(frozen=True)
class AffineGenerator:
    """Coherence-vector generator r_dot = d r + l."""

    d: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float).reshape(15, 15))
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float).reshape(15))
        if not (np.all(np.isfinite(self.d)) and np.all(np.isfinite(self.l))):
            raise ValueError("generator entries must be finite")

    @property
    def unital(self) -> bool:
        return bool(np.max(np.abs(self.l)) < 1e-12)


@dataclass(frozen=True)
class KossakowskiMatrix:
    """Hermitian coefficient matrix of the dissipator in the G_k basis."""

    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=complex).reshape(15, 15)
        _require_hermitian(k, "KossakowskiMatrix", rtol=1e-12)
        object.__setattr__(self, "k", k)

    def spectrum(self) -> np.ndarray:
        return spectrum(self.k)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """L_K = sum_ij K_ij (G_i kron G_j^T) - 1/2 (M kron I + I kron M^T)
        with M = sum_ij K_ij G_j G_i, so vec(Diss[X]) = L_K vec(X)."""
        g = traceless_basis()
        jump = np.einsum("ij,iab,jdc->acbd", self.k, g, g, optimize=True).reshape(16, 16)
        m = np.einsum("ij,jab,ibc->ac", self.k, g, g, optimize=True)
        eye = np.eye(4)
        lk = jump - 0.5 * (np.kron(m, eye) + np.kron(eye, m.T))
        lk.setflags(write=False)
        return lk

    def conjugated(self, v: np.ndarray) -> "KossakowskiMatrix":
        """K of X -> V Diss_K[V^dag X V] V^dag, whose Liouvillian is
        (V kron V*) L_K (V kron V*)^dag: O K O^T for the orthogonal
        O_ab = Tr(G_a V G_b V^dag) / 4, with the same spectrum."""
        g = traceless_basis()
        o = np.einsum("aij,jk,bkl,il->ab", g, v, g, np.conj(v), optimize=True).real / 4.0
        return KossakowskiMatrix(o @ self.k @ o.T)

    @staticmethod
    def from_diagonal(diag) -> "KossakowskiMatrix":
        return KossakowskiMatrix(np.diag(np.asarray(diag, dtype=float)))


def hamiltonian_action(h: np.ndarray) -> np.ndarray:
    """Matrix M with r_dot|_Hamiltonian = M r for the commutator flow.

    M_jk = Tr(G_j * (-i)[H, G_k]) / 4; exactly skew-symmetric for
    Hermitian H (checked to 1e-12 and antisymmetrized).
    """
    h = np.asarray(h, dtype=complex)
    _require_hermitian(h, "hamiltonian_action", rtol=1e-10)
    g = traceless_basis()
    comm = -1j * (np.einsum("ij,kjl->kil", h, g) - np.einsum("kij,jl->kil", g, h))
    m = np.einsum("jab,kba->jk", g, comm) / 4.0
    skew = np.max(np.abs(m + m.T))
    if skew > 1e-12 * max(1.0, float(np.abs(m).max())):
        raise ValueError(f"action matrix is not skew-symmetric (defect {skew:g})")
    return 0.5 * (m.real - m.real.T)


def generator_residual(traj: Trajectory, hseq: Trajectory) -> Trajectory:
    """Residual R(t) = rho_dot + i[H(t), rho(t)] of the Hamiltonian part.

    Vanishes for closed dynamics; otherwise it is the dissipative action
    on the state (traceless and Hermitian up to stencil error).
    """
    if traj.n != hseq.n or abs(traj.dt - hseq.dt) > 1e-12 or abs(traj.t0 - hseq.t0) > 1e-12:
        raise ValueError("trajectory grids differ")
    rdot = finite_diff(traj).samples
    comm = np.einsum("nij,njk->nik", hseq.samples, traj.samples)
    comm = comm - np.einsum("nij,njk->nik", traj.samples, hseq.samples)
    return Trajectory(traj.t0, traj.dt, rdot + 1j * comm)


@lru_cache(maxsize=1)
def anticommutation_table() -> np.ndarray:
    """B[j, k] = 1 when G_{j+1} and G_{k+1} anticommute, else 0."""
    g = traceless_basis()
    prod = np.einsum("jab,kbc->jkac", g, g)
    anti = prod + prod.transpose(1, 0, 2, 3)
    b = (np.abs(anti).max(axis=(2, 3)) < 1e-12).astype(float)
    b.setflags(write=False)
    return b


@dataclass(frozen=True)
class DiagonalFit:
    """Constant diagonal unital generator fitted on the active components.

    ``d_diag`` holds the fitted rates (zero on inactive components),
    ``active``/``free`` the index sets (array positions), ``residual``
    the worst instantaneous misfit max |r_dot_k - d_k r_k| over the
    active components.
    """

    d_diag: np.ndarray
    active: tuple
    free: tuple
    residual: float


# Tr(diag(w) G_k) = w . diagonal(G_k): row i holds entry (i, i) of G_1..G_15
_DIAGONAL_COHERENCE = np.diagonal(traceless_basis(), axis1=1, axis2=2).real.T.copy()
_DIAGONAL_COHERENCE.setflags(write=False)


_ACTIVE_TOL = 1e-10


def fit_diagonal_unital(branches: np.ndarray, dt: float) -> DiagonalFit:
    """Fit r_dot = diag(d) r on the coherence vector of the diagonal
    states diag(branches(t)), an (n, 4) series sampled every ``dt``.

    Components with |r_k| at most ``_ACTIVE_TOL`` everywhere carry no
    information and are reported as free; each active component gets its
    least-squares constant rate. The offset l is fixed to zero (unital
    ansatz).
    """
    r = np.asarray(branches, dtype=float) @ _DIAGONAL_COHERENCE
    rdot = diff_series(r, dt)
    amp = np.max(np.abs(r), axis=0)
    active = tuple(int(i) for i in np.flatnonzero(amp > _ACTIVE_TOL))
    free = tuple(int(i) for i in np.flatnonzero(amp <= _ACTIVE_TOL))
    d = np.zeros(15)
    res = 0.0
    for k in active:
        d[k] = float(rdot[:, k] @ r[:, k] / (r[:, k] @ r[:, k]))
        res = max(res, float(np.max(np.abs(rdot[:, k] - d[k] * r[:, k]))))
    return DiagonalFit(d, active, free, res)


# relative misfit of the round trip D -> K -> D that k_from_d accepts
_K_FROM_D_TOL = 1e-10


def k_from_d(d_diag) -> KossakowskiMatrix:
    """Unique diagonal Kossakowski matrix reproducing a diagonal D.

    Solves -2 B k = d for the diagonal entries k, where B is the basis
    anticommutation table (invertible on the 15-space, so the ansatz
    has no null space). The inverse map is checked by round trip.
    """
    d_diag = np.asarray(d_diag, dtype=float).reshape(15)
    b = anticommutation_table()
    k = np.linalg.solve(-2.0 * b, d_diag)
    back = -2.0 * b @ k
    if np.max(np.abs(back - d_diag)) > _K_FROM_D_TOL * max(1.0, float(np.abs(d_diag).max())):
        raise ValueError("no diagonal Kossakowski matrix matches this D")
    return KossakowskiMatrix.from_diagonal(k)


def d_from_k(k: KossakowskiMatrix) -> AffineGenerator:
    """Affine picture of a dissipator, projected from its Liouvillian.

    D_jk = Tr(G_j Diss[G_k]) / 4 and l_j = Tr(G_j Diss[I]) / 4; as
    Tr(G_j Y) = conj(vec G_j) . vec Y, both are one matrix product.
    """
    b = pauli_basis().reshape(16, 16)  # rows vec(I), vec(G_1), ..., vec(G_15)
    proj = (b.conj() @ k.liouvillian @ b.T).real / 4.0
    return AffineGenerator(proj[1:, 1:], proj[1:, 0])


@dataclass(frozen=True)
class CpReport:
    valid: bool
    min_eigenvalue: float
    tol: float


def cp_check(k: KossakowskiMatrix) -> CpReport:
    """GKSL validity: the generator is CP-divisible iff K is PSD
    (its lowest eigenvalue at least -PSD_EIG_TOL)."""
    w = k.spectrum()
    return CpReport(bool(w[0] >= -PSD_EIG_TOL), float(w[0]), PSD_EIG_TOL)


@dataclass(frozen=True)
class IntegratedCpReport:
    passed: bool
    worst_index: int
    worst_time: float
    min_integral: float


def _cumulative_trapezoid(y: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integrals of y from row 0 to each row, with row 0 zero."""
    cum = np.cumsum(dt * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros((1,) + y.shape[1:]), cum])


def integrated_cp_check(
    k_diag_series: np.ndarray, t0: float, dt: float, tol: float = 1e-10
) -> IntegratedCpReport:
    """Cumulative-integral positivity of time-dependent diagonal rates.

    PASS iff int_0^t K_ii(tau) dtau >= -tol for every i and grid time t
    (trapezoidal quadrature).
    """
    ks = np.asarray(k_diag_series, dtype=float)
    if ks.ndim != 2:
        raise ValueError("expected an (n, m) series of diagonal entries")
    cum = _cumulative_trapezoid(ks, dt)
    flat = int(np.argmin(cum))
    row, col = np.unravel_index(flat, cum.shape)
    worst = float(cum[row, col])
    return IntegratedCpReport(worst >= -tol, int(col), t0 + dt * int(row), worst)


_NNLS_TOL = 1e-12  # relative to the rounding scale of each test
_NNLS_MAX_ITER = 100
# how far a completion may miss the fitted active rates, and how negative
# a single K entry may be before it is rejected
_CANDIDATE_TOL = 1e-8


def _nnls(a: np.ndarray, b: np.ndarray):
    """(x >= 0 minimizing ||a x - b||, that norm) by the Lawson-Hanson
    active-set method (*Solving Least Squares Problems*, 1974, ch. 23).
    Of several optimal vertices of a rank-deficient problem, any one may
    be returned. Raises ValueError if it does not converge."""
    x = np.zeros(a.shape[1])
    passive = np.zeros(a.shape[1], dtype=bool)
    for _ in range(_NNLS_MAX_ITER):
        z = np.zeros_like(x)
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        if np.any(z[passive] < 0.0):  # step toward z until an entry hits 0
            neg = passive & (z < 0.0)
            x = x + np.min(x[neg] / (x[neg] - z[neg])) * (z - x)
            passive &= x > _NNLS_TOL * x.max()
            x[~passive] = 0.0
            continue
        x = z
        grad = np.where(passive, -np.inf, a.T @ (b - a @ x))
        amax = np.abs(a).max()
        if grad.max() <= _NNLS_TOL * amax * (np.abs(b).max() + amax * x.sum()):
            return x, float(np.linalg.norm(a @ x - b))
        passive[np.argmax(grad)] = True
    raise ValueError(f"nnls did not converge in {_NNLS_MAX_ITER} iterations")


def candidate_diagonals(fit: DiagonalFit):
    """Complete a partially determined diagonal D to full rate vectors.

    The fit only pins the rates on its active components; the free ones
    may take any value. Three completions are tried, each paired with
    its diagonal Kossakowski matrix:

    - ``zero``: free rates set to zero (the minimal guess);
    - ``single``: a single non-negative K entry reproducing the active
      rates, lowest generator index first;
    - ``nnls``: non-negative least squares over all K entries, kept when
      it actually matches the active rates.

    Duplicate completions are dropped; order is deterministic.
    """
    b = anticommutation_table()
    active = list(fit.active)
    d_active = fit.d_diag[active]
    out = []

    def push(label, d_full):
        for _, seen, _ in out:
            if np.max(np.abs(seen - d_full)) < 1e-12:
                return
        out.append((label, d_full, k_from_d(d_full)))

    push("zero", fit.d_diag.copy())
    if active:
        a = -2.0 * b[active, :]
        for j in range(15):
            col = a[:, j]
            denom = col @ col
            if denom == 0.0:
                kappa = 0.0
            else:
                kappa = float(col @ d_active / denom)
            if kappa < -_CANDIDATE_TOL:
                continue
            if np.max(np.abs(col * kappa - d_active)) < _CANDIDATE_TOL:
                kvec = np.zeros(15)
                kvec[j] = max(kappa, 0.0)
                push(f"single:{j + 1}", -2.0 * b @ kvec)
        kvec, rnorm = _nnls(a, d_active)
        if rnorm < _CANDIDATE_TOL:
            push("nnls", -2.0 * b @ kvec)
    return out


# grid times per block of lab-frame Liouvillians in roundtrip_verify: 256
# (1 MB per candidate) ran as fast as 64, while 1024 and 4096 were slower.
# Each RK4 step reads two new grid times, so the integrated states are
# compared with the samples in blocks of _BLOCK // 2 steps, and the round
# trip's memory is set by these two blocks, not by n.
_BLOCK = 256
# how far (in time) an RK4 stage may sit from a sample of the unitary grid
_GRID_TOL = 1e-9


def _grid_index(useq: EvolutionSequence, t: float) -> int:
    """Sample index of time t on the sequence grid; off-grid times raise."""
    idx = (t - useq.t0) / useq.dt
    i = int(round(idx))
    if abs(idx - i) > _GRID_TOL / useq.dt or not 0 <= i < useq.n:
        raise ValueError(f"time {t:g} is not on the unitary grid")
    return i


def _lab_frame(lk: np.ndarray, u: np.ndarray) -> np.ndarray:
    """S L_K S^dag for c Liouvillians (c, 16, 16) at each of m unitaries
    (m, 4, 4), as an (m, c, 16, 16) stack: S = U kron conj(U), so that
    vec(U X U^dag) = S vec(X) and S L_K S^dag vec(X) = vec(U Diss[U^dag X U] U^dag)."""
    s = (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(-1, 1, 16, 16)
    return s @ lk @ s.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class RoundtripReport:
    """Length-c arrays, one value per Kossakowski matrix."""

    max_deviation: np.ndarray
    max_marginal_a: np.ndarray
    max_marginal_b: np.ndarray
    trace_drift: np.ndarray


def roundtrip_verify(
    traj: Trajectory, h: np.ndarray, ks, useq: EvolutionSequence
) -> RoundtripReport:
    """Re-integrate -i[h, rho] + U Diss_Kj[U^dag rho U] U^dag from the
    first sample for each of a sequence of c Kossakowski matrices
    ``ks``, with U from ``useq`` on the trajectory's grid, and compare.

    The generator of state j, Hamiltonian part included, is one
    lab-frame Liouvillian per grid time, L_j(t) = L_h + S(t) L_Kj S(t)^dag
    (see the module docstring), built for one block of _BLOCK grid times
    at a time. All c run as one (c, 4, 4) stack in one RK4 loop, and each
    stage is one (c, 16, 16) @ (c, 16, 1) product. The RK4 grid
    follows the interval count, so that every midpoint evaluation finds
    U on a sample: on an even count the steps are 2 dt and the midpoints
    are odd samples of ``useq`` (two intervals are one step); on an odd
    count the steps are dt and the midpoints come from
    ``useq.half_grid()``. Deviations are the max Frobenius distance of
    the joint state and the max absolute entry deviation of each
    marginal, over the integrated grid. The states are compared with
    the samples _BLOCK // 2 steps at a time and only the running maxima
    are kept, so no array grows with n. The stack stops at the first
    step with a non-finite entry in any state, which raises RuntimeError
    naming its time.
    """
    stride = 2 if (traj.n - 1) % 2 == 0 else 1
    grid = useq if stride == 2 else useq.half_grid()
    h = np.asarray(h, dtype=complex)
    eye = np.eye(4)
    lh = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    lk = np.stack([k.liouvillian for k in ks])
    start, block = -_BLOCK, None

    def rhs(t, rho):
        nonlocal start, block
        i = _grid_index(grid, t)
        if not start <= i < start + _BLOCK:
            start = i - i % _BLOCK
            block = _lab_frame(lk, grid.u[start : start + _BLOCK]) + lh
        return (block[i - start] @ rho.reshape(-1, 16, 1)).reshape(rho.shape)

    rho0 = np.broadcast_to(traj.samples[0], (len(ks), 4, 4))
    trace0 = np.trace(rho0, axis1=-2, axis2=-1)
    ref = traj.samples[::stride]
    steps = _rk4_steps(rhs, rho0, traj.t0, stride * traj.dt, len(ref) - 1)
    states = np.empty((_BLOCK // 2,) + rho0.shape, dtype=complex)
    # rows: deviation, marginal A, marginal B, trace drift; sample 0 is rho0
    worst = np.zeros((4, len(ks)))
    for first in range(1, len(ref), len(states)):
        want = ref[first : first + len(states)]
        with np.errstate(over="ignore", invalid="ignore"):  # _rk4_steps reports non-finite states
            for j, rho in enumerate(islice(steps, len(want))):
                states[j] = rho
        diff = states[: len(want)] - want[:, np.newaxis]
        np.maximum(worst, [
            np.max(np.linalg.norm(diff, axis=(-2, -1)), axis=0),
            np.max(np.abs(partial_trace(diff, "B")), axis=(0, -2, -1)),
            np.max(np.abs(partial_trace(diff, "A")), axis=(0, -2, -1)),
            np.max(np.abs(np.trace(states[: len(want)], axis1=-2, axis2=-1) - trace0), axis=0),
        ], out=worst)
    return RoundtripReport(*worst)
