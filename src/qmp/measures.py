"""State diagnostics: purity, partial transpose, negativity."""

from __future__ import annotations

import numpy as np

from .qcore import spectrum, trace_power

__all__ = ["purity", "partial_transpose", "negativity", "negativity_series"]


def purity(rho: np.ndarray) -> float:
    """Tr rho^2, between 1/dim (maximally mixed) and 1 (pure)."""
    return trace_power(rho, 2)


def partial_transpose(rho: np.ndarray, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a 4x4 operator.

    The output is Hermitian with unit trace but generally not PSD; its
    spectrum does not depend on which factor is transposed.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("partial_transpose expects a 4x4 matrix")
    r = rho.reshape(2, 2, 2, 2)
    if subsystem == "B":
        return np.transpose(r, (0, 3, 2, 1)).reshape(4, 4)
    if subsystem == "A":
        return np.transpose(r, (2, 1, 0, 3)).reshape(4, 4)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def negativity(rho: np.ndarray) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    Zero exactly for separable (and all PPT) two-qubit states, up to 1/2
    for maximally entangled ones. Computed from the PT spectrum; the
    trace-norm identity ||rho^T_B||_1 = 1 + 2N holds by construction.
    """
    w = spectrum(partial_transpose(rho))
    return float(np.sum(np.abs(w[w < 0.0])))


def negativity_series(samples: np.ndarray) -> np.ndarray:
    return np.array([negativity(s) for s in samples])
