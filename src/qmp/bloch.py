"""Pauli-product basis machinery for two qubits.

The 16 products G_{ab} = sigma_a (x) sigma_b are indexed k = 4a + b with
a, b in 0..3; k = 0 is the identity and k = 1..15 are the traceless
generators. Every quantity here is a slice of one Pauli table

    T[a, b] = Tr(rho G_{ab}),   rho = (1/4) sum_ab T[a, b] G_{ab},

with x_i = T[i, 0], y_j = T[0, j] and z_ij = T[i, j] for i, j >= 1.
The coherence vector r_k = Tr(rho G_k), k = 1..15, is T flattened
without T_00 (x_i at k = 4i, y_j at k = j, z_ij at k = 4i + j).

Like the qcore primitives, every function takes one 4x4 matrix or a
(..., 4, 4) stack; a stack gives one result per matrix, and a failed
check on a stack names the first bad sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import SIGMA, _per_matrix, _require_hermitian, dag

__all__ = [
    "pauli_basis",
    "traceless_basis",
    "CoherenceVector",
    "PauliDecomposition",
    "to_coherence",
    "correlation_tensor",
    "x_form",
    "bloch_invariants",
    "invariants_series",
    "pauli_decompose",
    "su2_from_so3",
]

# G_{ab} = kron(sigma_a, sigma_b) at entry 4a + b; a plain product, as
# np.kron forms it, so even the signs of the zero entries match kron's
_BASIS16 = (SIGMA[:, None, :, None, :, None] * SIGMA[None, :, None, :, None, :]).reshape(16, 4, 4)
_BASIS16.setflags(write=False)

# largest imaginary part to_coherence accepts in a Pauli coefficient
_REAL_TOL = 1e-10
# largest off-diagonal correlation entry bloch_invariants accepts
_DIAGONAL_TOL = 1e-10

# sigma_j sigma_x sigma_k, indexed [j, x, k]: the Pauli sandwich of su2_from_so3
_SANDWICH = np.einsum("jab,xbc,kcd->jxkad", SIGMA, SIGMA, SIGMA)


def pauli_basis() -> np.ndarray:
    """All 16 products, shape (16, 4, 4); entry 0 is the identity."""
    return _BASIS16


def traceless_basis() -> np.ndarray:
    """The 15 traceless products G_1..G_15, shape (15, 4, 4)."""
    return _BASIS16[1:]


def _table(rho: np.ndarray) -> np.ndarray:
    """The complex Pauli table T[..., a, b] = Tr(rho G_ab)."""
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    t = np.einsum("kij,...ji->...k", _BASIS16, rho)
    return t.reshape(t.shape[:-1] + (4, 4))


def _first_bad(bad) -> str:
    """'' for one matrix; ' at sample i' (flat index) for a stack's first bad one."""
    return f" at sample {np.flatnonzero(bad)[0]}" if np.ndim(bad) else ""


def _off_diagonal(z: np.ndarray) -> np.ndarray:
    """Largest off-diagonal |z_ij| of each 3x3 matrix."""
    return np.abs(z * (1.0 - np.eye(3))).max(axis=(-2, -1))


@dataclass(frozen=True)
class CoherenceVector:
    """Bloch coordinates of a two-qubit state: x, y in R^3, z in R^{3x3}.

    For a stack of n states the shapes are (n, 3), (n, 3) and (n, 3, 3).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def to_coherence(rho: np.ndarray) -> CoherenceVector:
    """Coherence vector of a (Hermitian) 4x4 state or of each of a stack."""
    rho = np.asarray(rho, dtype=complex)
    _require_hermitian(rho, "to_coherence")
    t = _table(rho)
    if np.max(np.abs(t.imag)) > _REAL_TOL:
        raise ValueError("coherence coefficients are not real")
    t = t.real
    return CoherenceVector(t[..., 1:, 0], t[..., 0, 1:], t[..., 1:, 1:])


def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """The 3x3 tensor ztilde_ij = z_ij - x_i y_j (vanishes on products)."""
    v = to_coherence(rho)
    return v.z - v.x[..., :, np.newaxis] * v.y[..., np.newaxis, :]


def su2_from_so3(r: np.ndarray) -> np.ndarray:
    """SU(2) element u with u sigma_k u^dag = sum_j R_jk sigma_j.

    With R_00 = 1, sum_jk R_jk sigma_j X sigma_k = 2 Tr(u^dag X) u for
    any X; X is the sigma_a with the largest result (Shepperd's branch
    choice, J. Guidance Control 1, 223 (1978)), scaled to det u = 1.
    R (or each of a stack) must be a proper rotation within 1e-10; the
    sign of u is free.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        raise ValueError("su2_from_so3 expects a proper 3x3 rotation matrix")
    orthogonal = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(axis=(-2, -1)) <= 1e-10
    # det only of the orthogonal ones, so that a NaN entry raises no warning
    bad = ~orthogonal | (np.linalg.det(np.where(orthogonal[..., None, None], r, np.eye(3))) < 0)
    if np.any(bad):
        raise ValueError(f"su2_from_so3 expects a proper 3x3 rotation matrix{_first_bad(bad)}")
    m = _SANDWICH[0, :, 0] + np.einsum("...jk,jxkad->...xad", r, _SANDWICH[1:, :, 1:])
    best = np.argmax(np.linalg.norm(m, axis=(-2, -1)), axis=-1)
    m = np.take_along_axis(m, best[..., np.newaxis, np.newaxis, np.newaxis], axis=-3)[..., 0, :, :]
    return m / np.sqrt(np.linalg.det(m))[..., np.newaxis, np.newaxis]


def x_form(rho: np.ndarray, tol: float = 1e-10):
    """Diagonalize the correlation tensor by local rotations.

    Returns (rho_x, uA, uB) with rho_x = (uA (x) uB) rho (uA (x) uB)^dag
    whose correlation tensor is diagonal. Both rotations come from the
    real SVD of ztilde with determinant signs fixed so the factors are
    proper rotations (the sign flip is absorbed into the smallest
    singular value, keeping the largest positive).
    """
    rho = np.asarray(rho, dtype=complex)
    o1, _, o2t = np.linalg.svd(correlation_tensor(rho))
    # Coherence tensors transform as z -> R_A z R_B^T under uA (x) uB,
    # so R_A = o1^T and R_B = o2t, each with its last row negated if improper.
    r = np.stack([np.swapaxes(o1, -1, -2), o2t])
    r[..., 2, :] *= np.sign(np.linalg.det(r))[..., np.newaxis]
    ua, ub = su2_from_so3(r)
    w = np.einsum("...ab,...cd->...acbd", ua, ub).reshape(rho.shape)
    rho_x = w @ rho @ dag(w)
    off = _off_diagonal(correlation_tensor(rho_x))
    if np.any(off > tol):
        raise RuntimeError(
            f"x_form failed to diagonalize (residual {off.max():g}){_first_bad(off > tol)}"
        )
    return rho_x, ua, ub


def bloch_invariants(v: CoherenceVector):
    """The two Bloch-form trace invariants of a diagonal-correlation state.

    I1 = |x|^2 + |y|^2 + sum_i z_ii^2 and
    I2 = sum_i x_i y_i z_ii - z_11 z_22 z_33; both are constants of motion
    along unitary trajectories. The expressions assume the correlation
    tensor is diagonal, so non-diagonal input is rejected (bring the
    state to X form first). A stack gives one (I1, I2) pair of arrays.
    """
    off = _off_diagonal(v.z - v.x[..., :, np.newaxis] * v.y[..., np.newaxis, :])
    if np.any(off > _DIAGONAL_TOL):
        raise ValueError(
            f"correlation tensor is not diagonal (off-diagonal {off.max():g})"
            f"{_first_bad(off > _DIAGONAL_TOL)}; apply x_form before computing the invariants"
        )
    zd = np.diagonal(v.z, axis1=-2, axis2=-1)
    i1 = (v.x * v.x).sum(-1) + (v.y * v.y).sum(-1) + (zd * zd).sum(-1)
    i2 = (v.x * v.y * zd).sum(-1) - zd.prod(-1)
    return _per_matrix(i1), _per_matrix(i2)


def invariants_series(samples: np.ndarray):
    """Per-sample invariants (I1, I2), computed in the X-form frame."""
    return bloch_invariants(to_coherence(x_form(samples)[0]))


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients h_ab with H = sum_ab h_ab G_ab (exact reconstruction).

    The stored coefficients carry the Hilbert-Schmidt factor 1/4:
    h_ab = Tr(H G_ab) / 4, a quarter of the Pauli table. ``h`` has shape
    (..., 4, 4), one 4x4 block per decomposed operator.
    """

    h: np.ndarray


def pauli_decompose(h: np.ndarray) -> PauliDecomposition:
    """Expand a Hermitian 4x4 operator (or each of a stack) in the
    Pauli-product basis."""
    h = np.asarray(h, dtype=complex)
    _require_hermitian(h, "pauli_decompose")
    return PauliDecomposition(_table(h).real / 4.0)
