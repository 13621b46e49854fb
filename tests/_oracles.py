"""Independent reference implementations used to cross-check the library.

These deliberately take different routes than the production code
(per-term application and term-by-term kron sums instead of one einsum
over the Kossakowski matrix, eigenvalue tests instead of Cholesky
pivots) so that agreement between the two is meaningful. Nothing here
imports qmp.dissipative_recon.
"""

import numpy as np

from qmp.bloch import traceless_basis


def random_hermitian(rng, n=4, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_state(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def dissipator_per_term(km, x):
    """sum_ij K_ij (G_i X G_j - 1/2 {G_j G_i, X}), one term at a time."""
    g = traceless_basis()
    out = np.zeros((4, 4), dtype=complex)
    for i in range(15):
        for j in range(15):
            gji = g[j] @ g[i]
            out += km[i, j] * (g[i] @ x @ g[j] - 0.5 * (gji @ x + x @ gji))
    return out


def dissipator_superoperator(km):
    """16x16 matrix of the dissipator acting on row-major vectorized X.

    Uses vec(A X B) = (A kron B^T) vec(X) term by term; no basis
    projection involved.
    """
    g = traceless_basis()
    eye = np.eye(4)
    s = np.zeros((16, 16), dtype=complex)
    for i in range(15):
        for j in range(15):
            v = km[i, j]
            if v == 0:
                continue
            gji = g[j] @ g[i]
            s += v * (
                np.kron(g[i], g[j].T)
                - 0.5 * np.kron(gji, eye)
                - 0.5 * np.kron(eye, gji.T)
            )
    return s


def affine_from_superoperator(s):
    """Project a dissipator superoperator onto the coherence-vector form."""
    g = traceless_basis()
    d = np.empty((15, 15))
    for c in range(15):
        image = (s @ g[c].reshape(-1)).reshape(4, 4)
        d[:, c] = np.einsum("jab,ba->j", g, image).real / 4.0
    image = (s @ np.eye(4, dtype=complex).reshape(-1)).reshape(4, 4)
    l = np.einsum("jab,ba->j", g, image).real / 4.0
    return d, l
