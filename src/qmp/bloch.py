"""Pauli-product basis machinery for two qubits.

The 16 products G_{ab} = sigma_a (x) sigma_b are indexed k = 4a + b with
a, b in 0..3; k = 0 is the identity and k = 1..15 are the traceless
generators. Every quantity here is a slice of one Pauli table

    T[a, b] = Tr(rho G_{ab}),   rho = (1/4) sum_ab T[a, b] G_{ab},

with x_i = T[i, 0], y_j = T[0, j] and z_ij = T[i, j] for i, j >= 1.
The coherence vector r_k = Tr(rho G_k), k = 1..15, is T flattened
without T_00 (x_i at k = 4i, y_j at k = j, z_ij at k = 4i + j).
The Bloch invariants I1 and I2 are functions of T that local unitaries
u_A (x) u_B leave unchanged; a joint unitary evolution moves them in
general.

Like the qcore primitives, every function takes one 4x4 matrix or a
(..., 4, 4) stack; a stack gives one result per matrix, and a failed
check on a stack names the first bad sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import SIGMA, _first_bad, _per_matrix, _require_hermitian

__all__ = [
    "pauli_basis",
    "traceless_basis",
    "CoherenceVector",
    "PauliDecomposition",
    "to_coherence",
    "invariants_series",
    "pauli_decompose",
]

# G_{ab} = kron(sigma_a, sigma_b) at entry 4a + b; a plain product, as
# np.kron forms it, so even the signs of the zero entries match kron's
_BASIS16 = (SIGMA[:, None, :, None, :, None] * SIGMA[None, :, None, :, None, :]).reshape(16, 4, 4)
_BASIS16.setflags(write=False)

# largest imaginary part to_coherence accepts in a Pauli coefficient
_REAL_TOL = 1e-10


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
    bad = np.abs(t.imag).max(axis=(-2, -1)) > _REAL_TOL
    if np.any(bad):
        raise ValueError(f"coherence coefficients are not real{_first_bad(bad)}")
    t = t.real
    return CoherenceVector(t[..., 1:, 0], t[..., 0, 1:], t[..., 1:, 1:])


def invariants_series(samples: np.ndarray):
    """The Bloch invariants (I1, I2) of a 4x4 state, or a pair of arrays
    for a stack.

    They are the invariants of the state under local unitaries
    u_A (x) u_B, read in the frame where those bring the correlation
    tensor ztilde = z - x y^T to diagonal form: with the real SVD
    ztilde = O1 diag(s) O2^T, the rotations are R_A = O1^T and
    R_B = O2^T, each with its last row negated if improper (the sign
    lands on s_3, keeping the largest singular value positive). With
    x' = R_A x, y' = R_B y and z'_ii = s_i + x'_i y'_i,

        I1 = |x|^2 + |y|^2 + sum_i z'_ii^2,
        I2 = sum_i x'_i y'_i z'_ii - z'_11 z'_22 z'_33.

    Where ztilde has a repeated singular value (ztilde = 0 for a product
    pure state) that frame is not unique, and the values depend on the
    one the SVD returns.

    They are not constants of unitary motion in general: a joint H(t)
    that couples the qubits moves them, as dissipation does. Acceptance
    criterion 8 pins them constant along example1's trajectory only.
    """
    v = to_coherence(samples)
    o1, s, o2t = np.linalg.svd(v.z - v.x[..., :, np.newaxis] * v.y[..., np.newaxis, :])
    xr = np.einsum("...ji,...j->...i", o1, v.x)
    yr = np.einsum("...ij,...j->...i", o2t, v.y)
    sign_a, sign_b = np.sign(np.linalg.det(o1)), np.sign(np.linalg.det(o2t))
    xr[..., 2] *= sign_a
    yr[..., 2] *= sign_b
    s[..., 2] *= sign_a * sign_b
    zd = s + xr * yr
    i1 = (v.x * v.x).sum(-1) + (v.y * v.y).sum(-1) + (zd * zd).sum(-1)
    i2 = (xr * yr * zd).sum(-1) - zd.prod(-1)
    return _per_matrix(i1), _per_matrix(i2)


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
