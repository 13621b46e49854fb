"""Independent reference implementations used to cross-check the library.

These deliberately take different routes than the production code
(per-term application and term-by-term kron sums instead of one einsum
over the Kossakowski matrix, eigenvalue tests instead of Cholesky
pivots, one RK4 loop per state instead of one over a stack) so that
agreement between the two is meaningful. Nothing here imports
qmp.dissipative_recon or qmp.qcore.rk4_integrate.
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


def rk4_per_state(generator, rho0, t0, dt, n_steps):
    """Fixed-step RK4 for one d x d state, one Python step at a time.

    Returns the (n_steps + 1, d, d) samples and the per-sample trace and
    Hermiticity drift relative to the initial state.
    """
    rho = np.array(rho0, dtype=complex)
    out = [rho]
    half = 0.5 * dt
    for i in range(n_steps):
        t = t0 + i * dt
        k1 = generator(t, rho)
        k2 = generator(t + half, rho + half * k1)
        k3 = generator(t + half, rho + half * k2)
        k4 = generator(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(rho)
    out = np.array(out)
    trace = np.array([np.trace(s) for s in out])
    herm = np.array([np.max(np.abs(s - s.conj().T)) for s in out])
    return out, np.abs(trace - trace[0]), herm
