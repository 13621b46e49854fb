"""Pauli-product basis machinery for two qubits.

The 16 products G_{ab} = sigma_a (x) sigma_b are indexed k = 4a + b with
a, b in 0..3; k = 0 is the identity and k = 1..15 are the traceless
generators. A state expands as

    rho = (1/4) (I + sum_k r_k G_k),   r_k = Tr(rho G_k),

and the 15 real numbers r = [x_i, y_j, z_ij] (x_i at k = 4i, y_j at
k = j, z_ij at k = 4i + j) form the coherence vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import SIGMA, _per_matrix, _require_hermitian, dag

__all__ = [
    "pauli_basis",
    "traceless_basis",
    "CoherenceVector",
    "PauliDecomposition",
    "to_coherence",
    "from_coherence",
    "coherence_series",
    "correlation_tensor",
    "x_form",
    "bloch_invariants",
    "invariants_series",
    "pauli_decompose",
    "su2_from_so3",
]


@lru_cache(maxsize=1)
def _basis16():
    g = np.empty((16, 4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            g[4 * a + b] = np.kron(SIGMA[a], SIGMA[b])
    g.setflags(write=False)
    return g


def pauli_basis() -> np.ndarray:
    """All 16 products, shape (16, 4, 4); entry 0 is the identity."""
    return _basis16()


def traceless_basis() -> np.ndarray:
    """The 15 traceless products G_1..G_15, shape (15, 4, 4)."""
    return _basis16()[1:]


@dataclass(frozen=True)
class CoherenceVector:
    """Bloch coordinates of a two-qubit state: x, y in R^3, z in R^{3x3}."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).reshape(3))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float).reshape(3, 3))

    def as_vector(self) -> np.ndarray:
        """Flatten to the 15-vector ordered by the index map k = 4a + b."""
        r = np.empty(15)
        r[0:3] = self.y
        for i in range(3):
            r[4 * (i + 1) - 1] = self.x[i]
            r[4 * (i + 1) : 4 * (i + 1) + 3] = self.z[i]
        return r

    @staticmethod
    def from_vector(r) -> "CoherenceVector":
        r = np.asarray(r, dtype=float).reshape(15)
        y = r[0:3]
        x = np.array([r[4 * (i + 1) - 1] for i in range(3)])
        z = np.array([r[4 * (i + 1) : 4 * (i + 1) + 3] for i in range(3)])
        return CoherenceVector(x, y, z)


def to_coherence(rho: np.ndarray, tol: float = 1e-12) -> CoherenceVector:
    """Coherence vector of a (Hermitian) 4x4 state."""
    rho = np.asarray(rho, dtype=complex)
    _require_hermitian(rho, "to_coherence")
    g = traceless_basis()
    r = np.einsum("kij,ji->k", g, rho)
    if np.max(np.abs(r.imag)) > max(tol, 1e-10):
        raise ValueError("coherence coefficients are not real")
    return CoherenceVector.from_vector(r.real)


def from_coherence(v: CoherenceVector) -> np.ndarray:
    """Rebuild the 4x4 matrix; Hermitian and unit trace, not necessarily PSD."""
    g = _basis16()
    r = v.as_vector()
    return 0.25 * (g[0] + np.tensordot(r, g[1:], axes=1))


def coherence_series(samples: np.ndarray) -> np.ndarray:
    """Coherence vectors of a stack of states, shape (n, 15)."""
    g = traceless_basis()
    r = np.einsum("kij,nji->nk", g, np.asarray(samples, dtype=complex))
    return r.real


def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """The 3x3 tensor ztilde_ij = z_ij - x_i y_j (vanishes on products)."""
    v = to_coherence(rho)
    return v.z - np.outer(v.x, v.y)


def su2_from_so3(r: np.ndarray) -> np.ndarray:
    """SU(2) element u with u sigma_k u^dag = sum_j R_jk sigma_j.

    With R_00 = 1, sum_jk R_jk sigma_j X sigma_k = 2 Tr(u^dag X) u for
    any X; X is the sigma_a with the largest result (Shepperd's branch
    choice, J. Guidance Control 1, 223 (1978)), scaled to det u = 1.
    R must be a proper rotation within 1e-10; the sign of u is free.
    """
    r = np.asarray(r, dtype=float)
    orthogonal = r.shape == (3, 3) and np.allclose(r.T @ r, np.eye(3), rtol=0, atol=1e-10)
    if not orthogonal or np.linalg.det(r) < 0:
        raise ValueError("su2_from_so3 expects a proper 3x3 rotation matrix")
    r4 = np.eye(4)
    r4[1:, 1:] = r
    m = np.einsum("jk,jab,xbc,kcd->xad", r4, SIGMA, SIGMA, SIGMA)
    m = m[np.argmax(np.linalg.norm(m, axis=(1, 2)))]
    return m / np.sqrt(np.linalg.det(m))


def x_form(rho: np.ndarray, tol: float = 1e-10):
    """Diagonalize the correlation tensor by local rotations.

    Returns (rho_x, uA, uB) with rho_x = (uA (x) uB) rho (uA (x) uB)^dag
    whose correlation tensor is diagonal. Both rotations come from the
    real SVD of ztilde with determinant signs fixed so the factors are
    proper rotations (the sign flip is absorbed into the smallest
    singular value, keeping the largest positive).
    """
    zt = correlation_tensor(rho)
    o1, s, o2t = np.linalg.svd(zt)
    o2 = o2t.T
    if np.linalg.det(o1) < 0:
        o1 = o1.copy()
        o1[:, 2] *= -1
    if np.linalg.det(o2) < 0:
        o2 = o2.copy()
        o2[:, 2] *= -1
    # Coherence tensors transform as z -> R_A z R_B^T under uA (x) uB.
    ua = su2_from_so3(o1.T)
    ub = su2_from_so3(o2.T)
    w = np.kron(ua, ub)
    rho_x = w @ rho @ dag(w)
    zt_new = correlation_tensor(rho_x)
    off = np.max(np.abs(zt_new - np.diag(np.diag(zt_new))))
    if off > tol:
        raise RuntimeError(f"x_form failed to diagonalize (residual {off:g})")
    return rho_x, ua, ub


def bloch_invariants(v: CoherenceVector, tol: float = 1e-10):
    """The two Bloch-form trace invariants of a diagonal-correlation state.

    I1 = |x|^2 + |y|^2 + sum_i z_ii^2 and
    I2 = sum_i x_i y_i z_ii - z_11 z_22 z_33; both are constants of motion
    along unitary trajectories. The expressions assume the correlation
    tensor is diagonal, so non-diagonal input is rejected (bring the
    state to X form first).
    """
    zt = v.z - np.outer(v.x, v.y)
    off = np.max(np.abs(zt - np.diag(np.diag(zt))))
    if off > tol:
        raise ValueError(
            f"correlation tensor is not diagonal (off-diagonal {off:g}); "
            "apply x_form before computing the invariants"
        )
    zd = np.diag(v.z)
    i1 = float(v.x @ v.x + v.y @ v.y + zd @ zd)
    i2 = float(np.sum(v.x * v.y * zd) - np.prod(zd))
    return i1, i2


def invariants_series(samples: np.ndarray):
    """Per-sample invariants (I1, I2), computed in the X-form frame."""
    i1 = np.empty(len(samples))
    i2 = np.empty(len(samples))
    for i, rho in enumerate(samples):
        rho_x, _, _ = x_form(rho)
        i1[i], i2[i] = bloch_invariants(to_coherence(rho_x))
    return i1, i2


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients h_ab with H = sum_ab h_ab G_ab (exact reconstruction).

    The stored coefficients carry the Hilbert-Schmidt factor 1/4:
    h_ab = Tr(H G_ab) / 4. ``h`` has shape (..., 4, 4), one 4x4 block
    per decomposed operator.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h.reshape(h.shape[:-2] + (4, 4)))

    @property
    def identity(self):
        return _per_matrix(self.h[..., 0, 0])

    def local_part(self) -> np.ndarray:
        h = self.h.copy()
        h[..., 0, 0] = 0.0
        h[..., 1:, 1:] = 0.0
        return _expand(h)

    def interaction_part(self) -> np.ndarray:
        h = np.zeros_like(self.h)
        h[..., 1:, 1:] = self.h[..., 1:, 1:]
        return _expand(h)

    def reconstruct(self) -> np.ndarray:
        return _expand(self.h)


def _expand(h: np.ndarray) -> np.ndarray:
    """sum_ab h_ab G_ab for (..., 4, 4) coefficients."""
    return np.tensordot(h.reshape(h.shape[:-2] + (16,)), _basis16(), axes=1)


def pauli_decompose(h: np.ndarray) -> PauliDecomposition:
    """Expand a Hermitian 4x4 operator (or each of a stack) in the
    Pauli-product basis."""
    h = np.asarray(h, dtype=complex)
    _require_hermitian(h, "pauli_decompose")
    c = np.einsum("kij,...ji->...k", _basis16(), h) / 4.0
    return PauliDecomposition(c.real.reshape(c.shape[:-1] + (4, 4)))
