"""Master-equation reconstruction for non-unitary two-qubit trajectories.

A GKSL dissipator is given by its Kossakowski matrix K in the traceless
Pauli-product basis lambda_k = G_k,

    Diss[X] = sum_ij K_ij (G_i X G_j - 1/2 {G_j G_i, X}),

and has one representation in this module: the 16x16 Liouvillian L_K
acting on row-major vectorized operators, vec(X) = X.reshape(16), for
which vec(A X B) = (A kron B^T) vec(X). ``KossakowskiMatrix.liouvillian``
builds L_K once from K; the affine picture r_dot = D r + l on the
15-component coherence vector and the round trip's propagator e^{t L_K}
both come from that one matrix.

The round trip works in the interaction picture of H(t). With W(t) the
propagator of W_dot = -i H(t) W, W(t0) = I, the GKSL equation
rho_dot = -i[H, rho] + W Diss_K[W^dag rho W] W^dag has the exact solution
rho(t) = W(t) e^{(t - t0) L_K}[rho0] W(t)^dag, so only W is integrated
(one running product of per-step 4x4 RK4 matrices, shared by every K)
and each K costs one matrix exponential.

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

import numpy as np

from .bloch import pauli_basis, traceless_basis
from .qcore import (
    PSD_EIG_TOL,
    Trajectory,
    _require_hermitian,
    _rk4_step,
    diff_series,
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
    # einsum and ufunc reductions, not BLAS: see the qcore module docstring
    r = np.einsum("ni,ik->nk", np.asarray(branches, dtype=float), _DIAGONAL_COHERENCE)
    amp = np.maximum(r.max(axis=0), -r.min(axis=0))  # max |r_k|, with no |r| temporary
    on = amp > _ACTIVE_TOL
    r = r[:, on]  # the active columns, at most the 3 of the diagonal generators
    rdot = diff_series(r, dt)
    d = np.zeros(15)
    d[on] = (rdot * r).sum(axis=0) / (r * r).sum(axis=0)
    res = float(np.abs(rdot - d[on] * r).max(initial=0.0))
    active = tuple(int(i) for i in np.flatnonzero(on))
    free = tuple(int(i) for i in np.flatnonzero(~on))
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
    return KossakowskiMatrix(np.diag(k))


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
    spectrum: np.ndarray  # K's eigenvalues, ascending


def cp_check(k: KossakowskiMatrix) -> CpReport:
    """GKSL validity: the generator is CP-divisible iff K is PSD
    (its lowest eigenvalue at least -PSD_EIG_TOL)."""
    w = k.spectrum()
    return CpReport(bool(w[0] >= -PSD_EIG_TOL), float(w[0]), w)


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

    - ``zero``: free rates set to zero (the minimal guess), K by k_from_d;
    - ``single``: a single non-negative K entry reproducing the active
      rates, lowest generator index first;
    - ``nnls``: non-negative least squares over all K entries, kept when
      it actually matches the active rates.

    The last two pick K's diagonal, so D = -2 B diag(K) comes from it.
    Duplicate completions are dropped; order is deterministic.
    """
    b = anticommutation_table()
    active = list(fit.active)
    d_active = fit.d_diag[active]
    out = [("zero", fit.d_diag.copy(), k_from_d(fit.d_diag))]

    def push(label, kvec):
        d_full = -2.0 * b @ kvec
        if all(np.max(np.abs(seen - d_full)) >= 1e-12 for _, seen, _ in out):
            out.append((label, d_full, KossakowskiMatrix(np.diag(kvec))))

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
                push(f"single:{j + 1}", kvec)
        kvec, rnorm = _nnls(a, d_active)
        if rnorm < _CANDIDATE_TOL:
            push("nnls", kvec)
    return out


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a of one square matrix by scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)): the degree-18 Taylor polynomial,
    in Horner form, of a / 2^s with s the least that brings its 1-norm
    below 1, so the truncation is below 1/19! < 2^-53, squared s times.
    It needs no eigenvectors, so a defective a is fine."""
    s = max(0, int(np.frexp(np.abs(a).sum(axis=0).max())[1]))
    x = a * 0.5**s
    eye = np.eye(len(a))
    out = eye
    for k in range(18, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(s):
        out = out @ out
    return out


# RK4 steps per chunk. A chunk (per step its RK4 matrix and W, and per
# candidate the frame and model states: about 1 kB per step) is the
# round trip's only scratch, and it is kept below qcore._CHUNK because
# reconstruct master holds the samples, U(t) and H(t) meanwhile: on a
# 20001-sample example3 its peak RSS was 53 MB with 256 steps and 56.6 MB
# with 1024.
_STEPS = 256


@dataclass(frozen=True)
class RoundtripReport:
    """Length-c arrays, one value per Kossakowski matrix, and the run's
    propagator_defect, the max spectral norm of W - U over the compared
    samples."""

    max_deviation: np.ndarray
    max_marginal_a: np.ndarray
    max_marginal_b: np.ndarray
    propagator_defect: float


def roundtrip_verify(
    traj: Trajectory, h: np.ndarray, ks, useq: EvolutionSequence
) -> RoundtripReport:
    """Re-integrate -i[H, rho] + W Diss_Kj[W^dag rho W] W^dag from the first
    sample for each of a sequence of c Kossakowski matrices ``ks``, and
    compare with the samples.

    ``h`` is H(t) on the trajectory's grid, (n, 4, 4), or one 4x4 matrix
    for all of it. W is its RK4 propagator: step k runs from sample 2 k to
    min(2 k + 2, n - 1), so an odd interval count ends with one step of
    dt, and its stages read H by sample index (so any t0 works) at the
    step's start, its end and the midpoint H (H_{end-1} + H_{start+1}) / 2,
    which is the middle sample of a step of 2 dt. Each chunk of _STEPS
    steps takes the RK4 matrices P_k of all its steps, as P_k - I, in one
    _rk4_step, and only W_k = P_k W_{k-1} loops. The states are the exact
    rho_j(t) = W(t) e^{(t - t0) L_Kj}[rho0] W(t)^dag, where the frame part
    advances by e^{2 dt L_Kj} per step (e^{dt L_Kj} for a step of dt),
    from one _expm per candidate, so only W is approximate.
    Deviations are the max Frobenius distance of the joint state and the
    max absolute entry deviation of each marginal, over the states after
    every step; the propagator defect is the max spectral norm of W - U,
    with U from ``useq``. States are compared one chunk at a time and
    only running maxima are kept, so no array grows with n. A non-finite W
    raises RuntimeError naming its step; a candidate whose states leave
    the float range gets an inf or NaN deviation, with no warning.
    """
    n = traj.n
    h = np.broadcast_to(np.asarray(h, dtype=complex), (n, 4, 4))
    one = np.stack([_expm(traj.dt * k.liouvillian) for k in ks])
    frame_step = {1: one, 2: one @ one}  # e^{s dt L_Kj} for a step of s intervals
    x = np.broadcast_to(traj.samples[0].reshape(16, 1), (len(ks), 16, 1))
    wk = eye = np.eye(4)
    # rows: deviation, marginal A, marginal B; sample 0 is rho0
    worst = np.zeros((3, len(ks)))
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n // 2, _STEPS):
            start = np.arange(2 * first, min(2 * (first + _STEPS), n - 1), 2)
            end = np.minimum(start + 2, n - 1)
            size = end - start
            stage = (h[start], 0.5 * (h[end - 1] + h[start + 1]), h[end])
            # each step's P_k - I, the RK4 step of Y_dot = -i H (I + Y) from 0:
            # W_k = W_{k-1} + (P_k - I) W_{k-1} keeps the bits that rounding to
            # the 1s of P_k loses (over 10^4 steps, 4e-13 of W against 6e-15)
            inc = _rk4_step(
                lambda s, y: -1j * (stage[s] @ (eye + y)),
                np.zeros((4, 4), dtype=complex),
                traj.dt * size[:, np.newaxis, np.newaxis],
            )
            w = np.empty_like(inc)
            frame = np.empty((len(start), len(ks), 16, 1), dtype=complex)
            for k in range(len(start)):
                wk = w[k] = wk + inc[k] @ wk
                x = frame[k] = frame_step[size[k]] @ x
            bad = ~np.isfinite(w).all(axis=(-2, -1))
            if bad.any():
                step = first + int(np.argmax(bad)) + 1
                raise RuntimeError(f"integration produced non-finite values in step {step}")
            defect = max(defect, float(np.linalg.norm(w - useq.u[end], 2, axis=(-2, -1)).max()))
            w = w[:, np.newaxis]
            diff = w @ frame.reshape(len(start), -1, 4, 4) @ w.conj().swapaxes(-1, -2)
            diff -= traj.samples[end][:, np.newaxis]
            # the marginals' deviations by index sums, not partial_trace, which
            # refuses the non-finite states of a diverging candidate
            qubits = diff.reshape(diff.shape[:2] + (2, 2, 2, 2))
            np.maximum(worst, [
                np.max(np.linalg.norm(diff, axis=(-2, -1)), axis=0),
                np.max(np.abs(np.einsum("tcikjk->tcij", qubits)), axis=(0, -2, -1)),
                np.max(np.abs(np.einsum("tckikj->tcij", qubits)), axis=(0, -2, -1)),
            ], out=worst)
    return RoundtripReport(*worst, defect)
