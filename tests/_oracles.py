"""Independent reference implementations used to cross-check the library.

These deliberately take different routes than the production code
(per-term application and term-by-term kron sums instead of one einsum
over the Kossakowski matrix or the Pauli basis, one trace per generator
instead of one einsum for the coherence vector, eigenvalue tests
instead of Cholesky pivots, one RK4 loop per state instead of one over
a stack, the round trip's W stepped one RK4 step at a time instead of
multiplied up from per-step RK4 matrices, a phase fix per eigenvector
and an SVD per degenerate block instead of one masked polar factor per
step, scipy's expm of the per-term superoperator instead of the
package's scaling and squaring, np.gradient instead of the package's
difference stencil, math.fsum over Python floats instead of ufunc
reductions, nested lists through json instead of streamed
%-templates and a flat read of the samples array) so that agreement
between the two is meaningful. Nothing here calls qmp.dissipative_recon,
qmp.unitary_recon, qmp.qcore.rk4_integrate or its step
qmp.qcore._rk4_step. The file reader takes only CliError and the schema
checks of trajectory_from_dict from qmp.cli, which both readers share.
"""

import json
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from qmp.bloch import traceless_basis
from qmp.cli import EXIT_PARSE, CliError, trajectory_from_dict
from qmp.qcore import SIGMA


def random_hermitian(rng, n=4, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_state(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def pauli_sum(coeffs):
    """sum_ab coeffs[a, b] sigma_a kron sigma_b of a 4x4 table, one
    kron term at a time."""
    return sum(coeffs[a, b] * np.kron(SIGMA[a], SIGMA[b]) for a in range(4) for b in range(4))


def state_from_coherence(x, y, z):
    """rho = (1/4)(I + sum_i x_i s_i (x) I + sum_j y_j I (x) s_j
    + sum_ij z_ij s_i (x) s_j), by pauli_sum."""
    t = np.ones((4, 4))
    t[1:, 0], t[0, 1:], t[1:, 1:] = x, y, z
    return 0.25 * pauli_sum(t)


def coherence_vector(rho):
    """r_k = Tr(rho G_k), k = 1..15, one trace per generator."""
    return np.array([np.trace(rho @ g).real for g in traceless_basis()])


def interaction_picture_states(h, km, rho0, dt):
    """States of the master round trip from rho0, rho0 first, for H sampled
    every dt as h (n, 4, 4) and one Kossakowski matrix km, with the
    propagators W they use.

    W follows the round trip's RK4 stride rule, one rk4_per_state run per
    stride: steps of 2 dt that read h at the samples, then, on an odd
    interval count, one step of dt from sample n - 2 to n - 1 whose
    midpoint is the mean of the last two samples. The states are
    W expm(t S)[rho0] W^dag at the samples the steps reach, with S the
    dissipator_superoperator of km and t the time from the first sample.
    """
    pairs = (len(h) - 1) // 2
    ws, _ = rk4_per_state(
        lambda t, w: -1j * h[round(t / dt)] @ w, np.eye(4, dtype=complex), 0.0, 2 * dt, pairs
    )
    times = 2 * dt * np.arange(pairs + 1)
    if len(h) % 2 == 0:
        tail = [h[-2], 0.5 * (h[-2] + h[-1]), h[-1]]
        last, _ = rk4_per_state(lambda t, w: -1j * tail[round(2 * t / dt)] @ w, ws[-1], 0.0, dt, 1)
        ws = np.concatenate([ws, last[1:]])
        times = np.append(times, (len(h) - 1) * dt)
    s = dissipator_superoperator(km)
    frame = [(expm(t * s) @ np.reshape(rho0, 16)).reshape(4, 4) for t in times]
    return np.array([w @ f @ w.conj().T for w, f in zip(ws, frame)]), ws


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


def diagonal_rate_misfit(branches, dt, d_diag):
    """max |r_dot - d r| of constant rates d on the coherence vectors of
    the diagonal states diag(branches(t)), with np.gradient's stencil."""
    r = np.einsum("kii,ni->nk", traceless_basis(), branches).real
    return np.max(np.abs(np.gradient(r, dt, axis=0, edge_order=2) - d_diag * r))


def diagonal_rate_fit(branches, dt):
    """(rates, worst misfit) of the least-squares rate d_k = sum r_dot_k r_k /
    sum r_k^2 of each coherence component of diag(branches(t)) that exceeds
    1e-10 somewhere, one component at a time in Python floats: r_k(t) and
    both sums by math.fsum, r_dot_k by np.gradient's second-order stencil.
    The other components get rate 0 and no misfit."""
    rows = np.asarray(branches, dtype=float).tolist()
    rates, worst = [], 0.0
    for g in traceless_basis():
        w = np.diagonal(g).real.tolist()
        r = [math.fsum(a * b for a, b in zip(w, row)) for row in rows]
        if max(map(abs, r)) <= 1e-10:
            rates.append(0.0)
            continue
        rdot = (
            [(-1.5 * r[0] + 2.0 * r[1] - 0.5 * r[2]) / dt]
            + [(r[i + 1] - r[i - 1]) / (2.0 * dt) for i in range(1, len(r) - 1)]
            + [(0.5 * r[-3] - 2.0 * r[-2] + 1.5 * r[-1]) / dt]
        )
        d = math.fsum(a * b for a, b in zip(rdot, r)) / math.fsum(a * a for a in r)
        rates.append(d)
        worst = max(worst, max(abs(a - d * b) for a, b in zip(rdot, r)))
    return np.array(rates), worst


def rk4_per_state(generator, rho0, t0, dt, n_steps):
    """Fixed-step RK4 for one d x d state, one Python step at a time.

    Returns the (n_steps + 1, d, d) samples and the per-sample trace
    drift relative to the initial state.
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
    return out, np.abs(trace - trace[0])


def _descending_blocks(w, tol):
    """Index groups of (nearly) equal values of w, walking w in descending order."""
    order = np.argsort(-w, kind="stable").tolist()
    blocks = [[order[0]]]
    for a, b in zip(order[:-1], order[1:]):
        if abs(w[a] - w[b]) <= tol:
            blocks[-1].append(b)
        else:
            blocks.append([b])
    return blocks


def continue_frames_per_block(samples, tol=1e-9):
    """Eigenframe continuation of an (n, d, d) stack, one block at a time.

    Every sample is diagonalized by np.linalg.eigh; its labels follow the
    previous frame by linear_sum_assignment on the squared overlaps. Each
    single eigenvector then gets the phase that makes its overlap with
    the previous frame real-positive, and each degenerate block the SVD
    Procrustes rotation onto the previous frame's block. At t0 the
    eigenvectors are in descending eigenvalue order, and a degenerate
    block takes the basis diagonalizing the second sample there. Returns
    the frames (n, d, d) and the labeled branches (n, d).
    """
    ws, vs = np.linalg.eigh(samples)
    n, d = ws.shape
    frames = np.empty((n, d, d), dtype=complex)
    branches = np.empty((n, d))
    order = np.argsort(-ws[0], kind="stable")
    v0 = vs[0][:, order]
    w0 = ws[0][order]
    for b in _descending_blocks(w0, tol):
        if len(b) > 1:
            _, c = np.linalg.eigh(v0[:, b].conj().T @ samples[1] @ v0[:, b])
            _, cols = linear_sum_assignment(np.abs(c) ** 2, maximize=True)
            v0[:, b] = v0[:, b] @ c[:, cols]
    frames[0] = v0
    branches[0] = w0
    for i in range(1, n):
        prev = frames[i - 1]
        _, perm = linear_sum_assignment(np.abs(prev.conj().T @ vs[i]) ** 2, maximize=True)
        v = vs[i][:, perm]
        w = ws[i][perm]
        for b in _descending_blocks(w, tol):
            if len(b) == 1:
                j = b[0]
                ph = prev[:, j].conj() @ v[:, j]
                if abs(ph) > 1e-12:
                    v[:, j] *= ph.conj() / abs(ph)
            else:
                left, _, right = np.linalg.svd(v[:, b].conj().T @ prev[:, b])
                v[:, b] = v[:, b] @ (left @ right)
        frames[i] = v
        branches[i] = w
    return frames, branches


def trajectory_to_dict(traj, params=None) -> dict:
    """The document of a trajectory file as nested lists: json.dumps of
    it with separators (",", ":") is the byte stream the writer streams."""
    pairs = np.ascontiguousarray(traj.samples).view(float)
    return {
        "dim": traj.dim,
        "t0": traj.t0,
        "dt": traj.dt,
        "n": traj.n,
        "params": params or {},
        "samples": pairs.reshape(traj.n, -1, 2).tolist(),
    }


def load_trajectory_nested(path):
    """A trajectory file through json.loads of the whole text (nested
    lists, which trajectory_from_dict hands to np.asarray), with its
    errors mapped as qmp.cli.load_trajectory maps them."""
    try:
        with open(path) as fh:
            doc = json.loads(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_PARSE)
    return trajectory_from_dict(doc)
