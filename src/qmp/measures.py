"""State diagnostics: purity, partial transpose, negativity.

Each takes one matrix or a (..., d, d) stack, like the qcore primitives.
"""

from __future__ import annotations

import numpy as np

from .qcore import _per_matrix, spectrum, trace_power

__all__ = ["purity", "partial_transpose", "negativity"]


def purity(rho: np.ndarray):
    """Tr rho^2, between 1/dim (maximally mixed) and 1 (pure)."""
    return trace_power(rho, 2)


def partial_transpose(rho: np.ndarray, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a 4x4 operator (or of each of a stack).

    The output is Hermitian with unit trace but generally not PSD; its
    spectrum does not depend on which factor is transposed.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("partial_transpose expects a 4x4 matrix or a stack of them")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if subsystem == "B":
        return np.swapaxes(r, -3, -1).reshape(rho.shape)
    if subsystem == "A":
        return np.swapaxes(r, -4, -2).reshape(rho.shape)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def negativity(rho: np.ndarray):
    """Sum of |negative eigenvalues| of the partial transpose.

    Zero exactly for separable (and all PPT) two-qubit states, up to 1/2
    for maximally entangled ones. Computed from the PT spectrum; the
    trace-norm identity ||rho^T_B||_1 = 1 + 2N holds by construction.
    """
    w = spectrum(partial_transpose(rho))
    return _per_matrix(np.sum(np.abs(np.minimum(w, 0.0)), axis=-1))
